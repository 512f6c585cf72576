"""Keplerian orbital elements and the Kepler equation.

Positions are computed in an Earth-centred inertial (ECI) frame.  The
conversion chain is the classical one: mean anomaly -> eccentric anomaly
(Kepler solve) -> true anomaly -> perifocal position -> ECI via the 3-1-3
rotation (RAAN, inclination, argument of perigee).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.constants import EARTH_MU_M3_S2
from repro.errors import PropagationError

_TWO_PI = 2.0 * math.pi


def solve_kepler(
    mean_anomaly_rad: float, eccentricity: float, tol: float = 1e-12
) -> float:
    """Solve Kepler's equation ``M = E - e sin E`` for eccentric anomaly.

    Uses Newton's method with the standard ``E0 = M`` starting guess, or
    ``E0 = ±pi`` (the sign of the reduced ``M``) for high eccentricity:
    a ``+pi`` start diverges for negative ``M`` at e >= 0.8.  For the
    near-circular orbits used here it converges in 2-3 iterations.

    Args:
        mean_anomaly_rad: Mean anomaly, radians (any real value).
        eccentricity: Orbit eccentricity in [0, 1).
        tol: Convergence tolerance on ``|E - e sin E - M|``.

    Returns:
        Eccentric anomaly in radians, in the same revolution as ``M``.

    Raises:
        PropagationError: if the iteration fails to converge.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise PropagationError(f"eccentricity must be in [0, 1), got {eccentricity}")
    mean = math.remainder(mean_anomaly_rad, _TWO_PI)
    ecc_anomaly = mean if eccentricity < 0.8 else math.copysign(math.pi, mean)
    for _ in range(64):
        f = ecc_anomaly - eccentricity * math.sin(ecc_anomaly) - mean
        if abs(f) < tol:
            # Shift back into the caller's revolution.
            return ecc_anomaly + (mean_anomaly_rad - mean)
        f_prime = 1.0 - eccentricity * math.cos(ecc_anomaly)
        ecc_anomaly -= f / f_prime
    raise PropagationError(
        f"Kepler solve did not converge (M={mean_anomaly_rad}, e={eccentricity})"
    )


def true_anomaly_from_eccentric(
    eccentric_anomaly_rad: float, eccentricity: float
) -> float:
    """True anomaly from eccentric anomaly, radians."""
    half = eccentric_anomaly_rad / 2.0
    return 2.0 * math.atan2(
        math.sqrt(1.0 + eccentricity) * math.sin(half),
        math.sqrt(1.0 - eccentricity) * math.cos(half),
    )


@dataclass(frozen=True)
class OrbitalElements:
    """Classical Keplerian elements at some epoch.

    Attributes:
        semi_major_m: Semi-major axis, metres (from Earth's centre).
        eccentricity: Eccentricity in [0, 1).
        inclination_rad: Inclination, radians.
        raan_rad: Right ascension of the ascending node, radians.
        arg_perigee_rad: Argument of perigee, radians.
        mean_anomaly_rad: Mean anomaly at epoch, radians.
    """

    semi_major_m: float
    eccentricity: float
    inclination_rad: float
    raan_rad: float
    arg_perigee_rad: float
    mean_anomaly_rad: float

    def __post_init__(self) -> None:
        if self.semi_major_m <= 0:
            raise PropagationError(
                f"semi-major axis must be positive: {self.semi_major_m}"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise PropagationError(
                f"eccentricity must be in [0, 1): {self.eccentricity}"
            )

    @classmethod
    def circular(
        cls,
        altitude_m: float,
        inclination_deg: float,
        raan_deg: float,
        mean_anomaly_deg: float,
        earth_radius_m: float = 6_371_000.0,
    ) -> "OrbitalElements":
        """Circular orbit at a given altitude above mean Earth radius."""
        return cls(
            semi_major_m=earth_radius_m + altitude_m,
            eccentricity=0.0,
            inclination_rad=math.radians(inclination_deg),
            raan_rad=math.radians(raan_deg) % _TWO_PI,
            arg_perigee_rad=0.0,
            mean_anomaly_rad=math.radians(mean_anomaly_deg) % _TWO_PI,
        )

    @property
    def mean_motion_rad_s(self) -> float:
        """Mean motion ``n = sqrt(mu / a^3)``, rad/s."""
        return math.sqrt(EARTH_MU_M3_S2 / self.semi_major_m**3)

    @property
    def period_s(self) -> float:
        """Orbital period, seconds."""
        return _TWO_PI / self.mean_motion_rad_s

    @property
    def semi_latus_rectum_m(self) -> float:
        """Semi-latus rectum ``p = a (1 - e^2)``, metres."""
        return self.semi_major_m * (1.0 - self.eccentricity**2)

    def with_angles(
        self, raan_rad: float, arg_perigee_rad: float, mean_anomaly_rad: float
    ) -> "OrbitalElements":
        """Copy with updated angular elements (wrapped to [0, 2*pi))."""
        return replace(
            self,
            raan_rad=raan_rad % _TWO_PI,
            arg_perigee_rad=arg_perigee_rad % _TWO_PI,
            mean_anomaly_rad=mean_anomaly_rad % _TWO_PI,
        )

    def position_eci(self) -> np.ndarray:
        """ECI position at this element set's epoch, metres."""
        ecc_anomaly = solve_kepler(self.mean_anomaly_rad, self.eccentricity)
        nu = true_anomaly_from_eccentric(ecc_anomaly, self.eccentricity)
        radius = self.semi_major_m * (1.0 - self.eccentricity * math.cos(ecc_anomaly))
        # Perifocal coordinates.
        x_pf = radius * math.cos(nu)
        y_pf = radius * math.sin(nu)
        cos_raan, sin_raan = math.cos(self.raan_rad), math.sin(self.raan_rad)
        cos_inc, sin_inc = (
            math.cos(self.inclination_rad),
            math.sin(self.inclination_rad),
        )
        cos_argp, sin_argp = (
            math.cos(self.arg_perigee_rad),
            math.sin(self.arg_perigee_rad),
        )
        # 3-1-3 rotation from perifocal to ECI.
        row1 = (
            cos_raan * cos_argp - sin_raan * sin_argp * cos_inc,
            -cos_raan * sin_argp - sin_raan * cos_argp * cos_inc,
        )
        row2 = (
            sin_raan * cos_argp + cos_raan * sin_argp * cos_inc,
            -sin_raan * sin_argp + cos_raan * cos_argp * cos_inc,
        )
        row3 = (sin_argp * sin_inc, cos_argp * sin_inc)
        return np.array(
            [
                row1[0] * x_pf + row1[1] * y_pf,
                row2[0] * x_pf + row2[1] * y_pf,
                row3[0] * x_pf + row3[1] * y_pf,
            ]
        )
