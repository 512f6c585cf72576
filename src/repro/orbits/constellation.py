"""Walker-delta constellation generation (Starlink shell 1 geometry).

The real Starlink shell 1 is a Walker-delta constellation: 72 planes of
22 satellites at 550 km and 53 degrees inclination.  The generator here
produces that geometry (or any other Walker shell), names satellites in
the ``STARLINK-nnnn`` style the paper's Figure 7 uses, and supports
vectorised position computation so tracking a full 1584-satellite shell
over hours stays fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    EARTH_RADIUS_M,
    STARLINK_SHELL1_ALTITUDE_M,
    STARLINK_SHELL1_INCLINATION_DEG,
    STARLINK_SHELL1_PLANES,
    STARLINK_SHELL1_SATS_PER_PLANE,
)
from repro.errors import ConfigurationError
from repro.orbits.kepler import OrbitalElements
from repro.orbits.propagator import J2Propagator, gmst_rad
from repro.orbits.tle import TLE, tle_from_elements


@dataclass(frozen=True)
class Satellite:
    """One satellite of a constellation.

    Attributes:
        name: Display name, e.g. ``STARLINK-1103``.
        catalog_number: NORAD-style catalog number.
        propagator: J2 propagator holding the epoch elements.
        plane: Orbital-plane index within its shell.
        slot: In-plane slot index.
    """

    name: str
    catalog_number: int
    propagator: J2Propagator
    plane: int
    slot: int

    def position_ecef(self, t_s: float) -> np.ndarray:
        """ECEF position at campaign time ``t_s``, metres."""
        return self.propagator.position_ecef(t_s)

    def to_tle(self) -> TLE:
        """Export this satellite as a TLE record at its epoch."""
        return tle_from_elements(
            self.name,
            self.catalog_number,
            self.propagator.elements,
            self.propagator.epoch_s,
        )


@dataclass
class WalkerShell:
    """A Walker-delta shell ``i: T/P/F`` of circular orbits.

    Attributes:
        altitude_m: Orbit altitude above mean Earth radius, metres.
        inclination_deg: Inclination, degrees.
        n_planes: Number of equally spaced orbital planes (P).
        sats_per_plane: Satellites per plane (T/P).
        phasing: Walker phasing factor F in [0, P).
        name_prefix: Prefix for generated satellite names.
        first_catalog_number: Catalog number of the first satellite.
        epoch_s: Campaign time of the epoch elements.
    """

    altitude_m: float = STARLINK_SHELL1_ALTITUDE_M
    inclination_deg: float = STARLINK_SHELL1_INCLINATION_DEG
    n_planes: int = STARLINK_SHELL1_PLANES
    sats_per_plane: int = STARLINK_SHELL1_SATS_PER_PLANE
    phasing: int = 1
    name_prefix: str = "STARLINK"
    first_catalog_number: int = 44714
    epoch_s: float = 0.0
    satellites: list[Satellite] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_planes < 1 or self.sats_per_plane < 1:
            raise ConfigurationError(
                f"shell needs at least one plane and one slot, got "
                f"{self.n_planes}x{self.sats_per_plane}"
            )
        if not 0 <= self.phasing < self.n_planes:
            raise ConfigurationError(
                f"phasing must be in [0, n_planes), got {self.phasing}"
            )
        self.satellites = self._build_satellites()
        self._init_vectorised_state()

    # -- construction ---------------------------------------------------

    def _element_angles_deg(self, plane: int, slot: int) -> tuple[float, float]:
        """(RAAN, mean anomaly) in degrees for a Walker-delta slot."""
        raan = 360.0 * plane / self.n_planes
        in_plane = 360.0 * slot / self.sats_per_plane
        phase_offset = (
            360.0 * self.phasing * plane / (self.n_planes * self.sats_per_plane)
        )
        return raan, (in_plane + phase_offset) % 360.0

    def _build_satellites(self) -> list[Satellite]:
        sats: list[Satellite] = []
        index = 0
        for plane in range(self.n_planes):
            for slot in range(self.sats_per_plane):
                raan_deg, mean_anomaly_deg = self._element_angles_deg(plane, slot)
                elements = OrbitalElements.circular(
                    altitude_m=self.altitude_m,
                    inclination_deg=self.inclination_deg,
                    raan_deg=raan_deg,
                    mean_anomaly_deg=mean_anomaly_deg,
                )
                sats.append(
                    Satellite(
                        name=f"{self.name_prefix}-{1000 + index}",
                        catalog_number=self.first_catalog_number + index,
                        propagator=J2Propagator(elements, epoch_s=self.epoch_s),
                        plane=plane,
                        slot=slot,
                    )
                )
                index += 1
        return sats

    def _init_vectorised_state(self) -> None:
        """Precompute per-satellite angle arrays for fast propagation.

        All satellites of a shell share a, e=0 and inclination, so their
        secular rates are identical; positions at time t reduce to a few
        vectorised trig operations over RAAN/mean-anomaly arrays.
        """
        reference = self.satellites[0].propagator
        raan_dot, argp_dot, mean_dot = reference._secular_rates()
        self._raan_dot = raan_dot
        # e = 0: argument of perigee and mean anomaly are degenerate; the
        # argument of latitude u advances at argp_dot + mean_dot.
        self._arg_lat_dot = argp_dot + mean_dot
        self._raan0 = np.array(
            [s.propagator.elements.raan_rad for s in self.satellites]
        )
        self._arg_lat0 = np.array(
            [
                s.propagator.elements.arg_perigee_rad
                + s.propagator.elements.mean_anomaly_rad
                for s in self.satellites
            ]
        )
        self._radius_m = EARTH_RADIUS_M + self.altitude_m
        self._inclination_rad = math.radians(self.inclination_deg)
        self._by_name = {s.name: s for s in self.satellites}

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.satellites)

    @property
    def total_satellites(self) -> int:
        """Walker T parameter (planes x slots)."""
        return self.n_planes * self.sats_per_plane

    def satellite(self, name: str) -> Satellite:
        """Look up a satellite by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no satellite named {name!r} in shell") from None

    def positions_ecef(self, t_s: float) -> np.ndarray:
        """ECEF positions of all satellites at ``t_s`` as an (N, 3) array.

        Vectorised circular-orbit fast path; agrees with per-satellite
        :meth:`Satellite.position_ecef` to numerical precision (tested).
        """
        dt = t_s - self.epoch_s
        raan = self._raan0 + self._raan_dot * dt
        arg_lat = self._arg_lat0 + self._arg_lat_dot * dt
        cos_u, sin_u = np.cos(arg_lat), np.sin(arg_lat)
        cos_raan, sin_raan = np.cos(raan), np.sin(raan)
        cos_i = math.cos(self._inclination_rad)
        sin_i = math.sin(self._inclination_rad)
        x_eci = self._radius_m * (cos_raan * cos_u - sin_raan * sin_u * cos_i)
        y_eci = self._radius_m * (sin_raan * cos_u + cos_raan * sin_u * cos_i)
        z_eci = self._radius_m * (sin_u * sin_i)
        theta = gmst_rad(t_s)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x_ecef = cos_t * x_eci + sin_t * y_eci
        y_ecef = -sin_t * x_eci + cos_t * y_eci
        return np.column_stack([x_ecef, y_ecef, z_eci])

    def positions_ecef_batch(
        self, t_array: np.ndarray, chunk: int = 256
    ) -> np.ndarray:
        """ECEF positions at every time of ``t_array`` as a (T, N, 3) array.

        One vectorised propagation over the whole time grid, chunked so
        the working set stays cache-resident.  Each row is bit-identical
        to :meth:`positions_ecef` at that time: the per-element
        expressions are the same numpy ufuncs, evaluated in the same
        order, and ufuncs are elementwise (shape-independent), so
        batching cannot change a single bit (tested).
        """
        times = np.asarray(t_array, dtype=np.float64)
        if times.ndim != 1:
            raise ConfigurationError(
                f"t_array must be one-dimensional, got shape {times.shape}"
            )
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        n_times = len(times)
        n_sats = len(self.satellites)
        cos_i = math.cos(self._inclination_rad)
        sin_i = math.sin(self._inclination_rad)
        out = np.empty((n_times, n_sats, 3))
        for lo in range(0, n_times, chunk):
            hi = min(n_times, lo + chunk)
            dt = times[lo:hi] - self.epoch_s
            raan = self._raan0[None, :] + (self._raan_dot * dt)[:, None]
            arg_lat = self._arg_lat0[None, :] + (self._arg_lat_dot * dt)[:, None]
            cos_u, sin_u = np.cos(arg_lat), np.sin(arg_lat)
            cos_raan, sin_raan = np.cos(raan), np.sin(raan)
            x_eci = self._radius_m * (cos_raan * cos_u - sin_raan * sin_u * cos_i)
            y_eci = self._radius_m * (sin_raan * cos_u + cos_raan * sin_u * cos_i)
            out[lo:hi, :, 2] = self._radius_m * (sin_u * sin_i)
            cos_t = np.empty(hi - lo)
            sin_t = np.empty(hi - lo)
            for k in range(hi - lo):
                theta = gmst_rad(float(times[lo + k]))
                cos_t[k] = math.cos(theta)
                sin_t[k] = math.sin(theta)
            out[lo:hi, :, 0] = cos_t[:, None] * x_eci + sin_t[:, None] * y_eci
            out[lo:hi, :, 1] = (-sin_t)[:, None] * x_eci + cos_t[:, None] * y_eci
        return out

    def to_tle_file(self) -> str:
        """Export the shell as a named TLE file body."""
        from repro.orbits.tle import format_tle_file

        return format_tle_file(sat.to_tle() for sat in self.satellites)


def starlink_shell1(
    epoch_s: float = 0.0,
    n_planes: int = STARLINK_SHELL1_PLANES,
    sats_per_plane: int = STARLINK_SHELL1_SATS_PER_PLANE,
) -> WalkerShell:
    """Starlink shell 1 (550 km, 53 deg, 72x22 by default).

    ``n_planes``/``sats_per_plane`` can be reduced for cheaper tests;
    geometry (altitude, inclination) stays faithful.
    """
    return WalkerShell(
        altitude_m=STARLINK_SHELL1_ALTITUDE_M,
        inclination_deg=STARLINK_SHELL1_INCLINATION_DEG,
        n_planes=n_planes,
        sats_per_plane=sats_per_plane,
    )
