"""Kepler-equation and orbital-element tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.constants import EARTH_RADIUS_M
from repro.errors import PropagationError
from repro.orbits.kepler import (
    OrbitalElements,
    solve_kepler,
    true_anomaly_from_eccentric,
)


def test_solve_kepler_circular_identity():
    # e = 0: E = M exactly.
    for mean in (0.0, 0.5, math.pi, 5.0):
        assert solve_kepler(mean, 0.0) == pytest.approx(mean)


def test_solve_kepler_satisfies_equation():
    for ecc in (0.001, 0.1, 0.5, 0.9):
        for mean in np.linspace(0, 2 * math.pi, 9):
            big_e = solve_kepler(float(mean), ecc)
            assert big_e - ecc * math.sin(big_e) == pytest.approx(mean, abs=1e-9)


def test_solve_kepler_rejects_bad_eccentricity():
    with pytest.raises(PropagationError):
        solve_kepler(1.0, 1.0)
    with pytest.raises(PropagationError):
        solve_kepler(1.0, -0.1)


def test_true_anomaly_circular_equals_eccentric():
    assert true_anomaly_from_eccentric(1.234, 0.0) == pytest.approx(1.234)


def test_circular_constructor():
    el = OrbitalElements.circular(550e3, 53.0, 10.0, 20.0)
    assert el.semi_major_m == pytest.approx(EARTH_RADIUS_M + 550e3)
    assert el.eccentricity == 0.0
    assert el.inclination_rad == pytest.approx(math.radians(53.0))


def test_elements_reject_negative_semi_major():
    with pytest.raises(PropagationError):
        OrbitalElements(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_elements_reject_hyperbolic():
    with pytest.raises(PropagationError):
        OrbitalElements(7e6, 1.5, 0.0, 0.0, 0.0, 0.0)


def test_period_matches_kepler_third_law():
    el = OrbitalElements.circular(550e3, 53.0, 0.0, 0.0)
    assert el.period_s == pytest.approx(2 * math.pi / el.mean_motion_rad_s)
    assert 94 * 60 < el.period_s < 97 * 60


def test_position_radius_is_semi_major_for_circular():
    el = OrbitalElements.circular(550e3, 53.0, 123.0, 77.0)
    assert np.linalg.norm(el.position_eci()) == pytest.approx(el.semi_major_m)


def test_position_in_equatorial_plane_for_zero_inclination():
    el = OrbitalElements.circular(550e3, 0.0, 0.0, 42.0)
    assert el.position_eci()[2] == pytest.approx(0.0, abs=1e-6)


def test_with_angles_wraps():
    el = OrbitalElements.circular(550e3, 53.0, 0.0, 0.0)
    updated = el.with_angles(7.0, 8.0, 9.0)
    for angle in (updated.raan_rad, updated.arg_perigee_rad, updated.mean_anomaly_rad):
        assert 0.0 <= angle < 2 * math.pi


def test_inclination_bounds_z_excursion():
    el = OrbitalElements.circular(550e3, 53.0, 0.0, 90.0)
    z_max = el.semi_major_m * math.sin(math.radians(53.0))
    assert abs(el.position_eci()[2]) <= z_max + 1.0


@given(
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=0.95),
)
# A negative reduced mean anomaly at high eccentricity: Newton started
# at +pi fails to converge here.
@example(3.929433572338561, 0.95)
def test_kepler_residual_property(mean, ecc):
    big_e = solve_kepler(mean, ecc)
    assert abs(big_e - ecc * math.sin(big_e) - mean) < 1e-9


@given(st.floats(min_value=200e3, max_value=2000e3))
def test_circular_orbit_radius_property(altitude):
    el = OrbitalElements.circular(altitude, 53.0, 0.0, 0.0)
    assert np.linalg.norm(el.position_eci()) == pytest.approx(
        EARTH_RADIUS_M + altitude, rel=1e-9
    )
