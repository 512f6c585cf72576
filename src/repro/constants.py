"""Physical and Starlink-specific constants used across the package.

Sources:

* WGS-84 Earth model (semi-major axis, flattening, mu).
* SpaceX FCC filings for Starlink shell 1 geometry: 550 km altitude,
  53 degree inclination, 72 planes x 22 satellites, minimum elevation
  angle of 25 degrees (see paper section 5, refs [49, 50]).
* The 1089 km maximum feasible slant range quoted by the paper follows
  from the 25 degree elevation mask at 550 km altitude.
"""

from __future__ import annotations

import math

# --- Physics ---------------------------------------------------------------

SPEED_OF_LIGHT_M_S = 299_792_458.0
"""Speed of light in vacuum, m/s."""

BOLTZMANN_J_K = 1.380649e-23
"""Boltzmann constant, J/K."""

# --- Earth (WGS-84) ---------------------------------------------------------

EARTH_RADIUS_M = 6_371_000.0
"""Mean Earth radius, metres (spherical approximation)."""

EARTH_EQUATORIAL_RADIUS_M = 6_378_137.0
"""WGS-84 semi-major axis, metres."""

EARTH_FLATTENING = 1.0 / 298.257223563
"""WGS-84 flattening."""

EARTH_MU_M3_S2 = 3.986004418e14
"""Standard gravitational parameter of Earth, m^3/s^2."""

EARTH_J2 = 1.08262668e-3
"""Second zonal harmonic of Earth's gravity field."""

EARTH_ROTATION_RAD_S = 7.2921150e-5
"""Earth rotation rate, rad/s (sidereal)."""

SIDEREAL_DAY_S = 86_164.0905
"""Sidereal day length, seconds."""

# --- Starlink shell 1 geometry ----------------------------------------------

STARLINK_SHELL1_ALTITUDE_M = 550_000.0
"""Orbital altitude of Starlink shell 1, metres."""

STARLINK_SHELL1_INCLINATION_DEG = 53.0
"""Inclination of Starlink shell 1, degrees."""

STARLINK_SHELL1_PLANES = 72
"""Number of orbital planes in Starlink shell 1."""

STARLINK_SHELL1_SATS_PER_PLANE = 22
"""Satellites per plane in Starlink shell 1."""

STARLINK_MIN_ELEVATION_DEG = 25.0
"""Minimum elevation angle for a usable Earth-satellite link, degrees."""

STARLINK_MAX_SLANT_RANGE_M = 1_089_000.0
"""Maximum feasible Earth-satellite link distance quoted by the paper, m."""

STARLINK_RESCHEDULE_INTERVAL_S = 15.0
"""Satellite-to-terminal allocation epoch; Starlink reassigns terminals to
satellites on 15 second boundaries (publicly documented scheduler epoch)."""

# --- Autonomous systems seen in the paper ------------------------------------

AS_GOOGLE = 36492
"""Autonomous system Starlink traffic initially exited from (Google)."""

AS_SPACEX = 14593
"""SpaceX's own autonomous system, used after the 2022 migration."""


def orbital_period_s(altitude_m: float) -> float:
    """Period of a circular orbit at ``altitude_m`` above mean Earth radius.

    >>> round(orbital_period_s(550_000.0) / 60.0, 1)
    95.7
    """
    semi_major = EARTH_RADIUS_M + altitude_m
    return 2.0 * math.pi * math.sqrt(semi_major**3 / EARTH_MU_M3_S2)

