"""Unit conversion helpers.

The library uses SI units internally: seconds for time, metres for
distance, bits per second for data rates, bytes for sizes.  Measurement
outputs are often more natural in milliseconds and megabits per second,
matching the units used in the paper's tables and figures; these helpers
keep the conversions explicit and typo-proof.
"""

from __future__ import annotations

MS_PER_S = 1_000.0
BITS_PER_BYTE = 8
MBPS = 1_000_000.0


def s_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * MS_PER_S


def bps_to_mbps(bits_per_second: float) -> float:
    """Convert bits/s to megabits/s."""
    return bits_per_second / MBPS


def mbps_to_bps(megabits_per_second: float) -> float:
    """Convert megabits/s to bits/s."""
    return megabits_per_second * MBPS


def bytes_to_bits(n_bytes: float) -> float:
    """Convert a byte count to bits."""
    return n_bytes * BITS_PER_BYTE


def transmission_delay_s(size_bytes: float, rate_bps: float) -> float:
    """Serialisation delay of ``size_bytes`` on a link of ``rate_bps``.

    >>> transmission_delay_s(1500, mbps_to_bps(12))
    0.001
    """
    if rate_bps <= 0:
        raise ValueError(f"rate_bps must be positive, got {rate_bps}")
    return bytes_to_bits(size_bytes) / rate_bps


def propagation_delay_s(distance_m: float, speed_m_s: float = 299_792_458.0) -> float:
    """One-way propagation delay over ``distance_m`` at ``speed_m_s``."""
    if distance_m < 0:
        raise ValueError(f"distance_m must be non-negative, got {distance_m}")
    return distance_m / speed_m_s
