"""Physical-constant sanity tests."""

import math

import pytest

from repro import constants


def max_slant_range_m(altitude_m: float, min_elevation_deg: float) -> float:
    """Maximum slant range to a satellite above the elevation mask.

    Solves the ground-station/satellite triangle: with Earth radius ``Re``,
    orbit radius ``Rs = Re + h`` and elevation ``e``, the law of cosines
    gives ``d = -Re sin(e) + sqrt(Rs^2 - Re^2 cos^2(e))``.

    For Starlink shell 1 (550 km, 25 degrees) this is ~1089 km, matching
    the figure the paper quotes from SpaceX's FCC filings.
    """
    earth_radius = constants.EARTH_RADIUS_M
    elevation_rad = math.radians(min_elevation_deg)
    orbit_radius = earth_radius + altitude_m
    return (
        -earth_radius * math.sin(elevation_rad)
        + math.sqrt(orbit_radius**2 - (earth_radius * math.cos(elevation_rad)) ** 2)
    )


def test_orbital_period_shell1():
    # Starlink shell 1 at 550 km: ~95-96 minute period.
    period_min = constants.orbital_period_s(constants.STARLINK_SHELL1_ALTITUDE_M) / 60.0
    assert 94.0 < period_min < 97.0


def test_orbital_period_increases_with_altitude():
    low = constants.orbital_period_s(400e3)
    high = constants.orbital_period_s(1200e3)
    assert high > low


def test_max_slant_range_near_paper_value():
    # The paper quotes 1089 km for 550 km altitude at a 25 degree mask;
    # a spherical mean-radius Earth puts it within a few percent.
    computed = max_slant_range_m(
        constants.STARLINK_SHELL1_ALTITUDE_M, constants.STARLINK_MIN_ELEVATION_DEG
    )
    assert abs(computed - constants.STARLINK_MAX_SLANT_RANGE_M) / 1089e3 < 0.05


def test_max_slant_range_at_zenith_equals_altitude():
    computed = max_slant_range_m(550e3, 90.0)
    assert computed == pytest.approx(550e3, rel=1e-9)


def test_max_slant_range_monotone_in_elevation():
    ranges = [max_slant_range_m(550e3, e) for e in (5, 25, 45, 65, 85)]
    assert ranges == sorted(ranges, reverse=True)


def test_shell1_geometry_constants():
    assert (
        constants.STARLINK_SHELL1_PLANES * constants.STARLINK_SHELL1_SATS_PER_PLANE
        == 1584
    )


def test_as_numbers():
    assert constants.AS_GOOGLE == 36492
    assert constants.AS_SPACEX == 14593
