"""Unit-conversion tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


def test_s_to_ms():
    assert units.s_to_ms(1.5) == 1500.0


def test_bps_mbps_roundtrip():
    assert units.bps_to_mbps(20_000_000) == 20.0
    assert units.mbps_to_bps(20.0) == 20_000_000


def test_bytes_bits():
    assert units.bytes_to_bits(1500) == 12_000


def test_transmission_delay():
    # 1500 bytes at 12 Mbps is exactly 1 ms.
    assert units.transmission_delay_s(1500, units.mbps_to_bps(12)) == pytest.approx(
        0.001
    )


def test_transmission_delay_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        units.transmission_delay_s(1500, 0.0)
    with pytest.raises(ValueError):
        units.transmission_delay_s(1500, -1.0)


def test_propagation_delay():
    assert units.propagation_delay_s(299_792_458.0) == pytest.approx(1.0)


def test_propagation_delay_rejects_negative_distance():
    with pytest.raises(ValueError):
        units.propagation_delay_s(-1.0)


@given(
    st.integers(min_value=1, max_value=100_000),
    st.floats(min_value=1e3, max_value=1e12),
)
def test_transmission_delay_positive_property(size, rate):
    assert units.transmission_delay_s(size, rate) > 0
