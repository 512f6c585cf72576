"""The batch serving-geometry kernel (the geometry hot path).

The serving satellite, terminal range, gateway range and elevation of a
bent pipe are a pure function of ``(shell, terminal, gateway, elevation
mask, obstruction, scheduler epoch)``.  The per-epoch scan
(``BentPipeModel._scan_epoch``) evaluates it one epoch at a time;
:func:`compute_serving_timeline` evaluates a sorted set of epochs,
contiguous or sparse, in one vectorised pass.  Its one consumer is
``BentPipeModel.fill_link_states``, which puts the geometries into the
bent pipe's link-state table, the bent pipe's only geometry cache.

Bit-identity contract (extends DESIGN.md §6): the batch kernel
replicates the exact floating-point operation sequence of the scan —
same propagation formulas, same ENU expression order, same
``np.hypot``/``np.arctan2`` elevation, same ``math.atan2`` azimuth for
obstruction tests, and first-max tie-breaking identical to the scan's
stable sort — so ``scan == batch-filled link state`` holds exactly, not
just approximately.  (Numpy ufuncs are elementwise and shape-independent,
so computing the same expressions over gathered 1-D arrays yields
bitwise-equal values; ``tests/test_serving_timeline.py`` asserts it.)

The kernel never visits the full ``T x N`` grid.  Two conservative
cuts, both from the largest Earth-central angle ``gamma`` at which a
shell satellite clears the mask
(:func:`repro.orbits.visibility.max_visible_central_angle_rad`), pick
the (epoch, satellite) pairs the exact stage evaluates:

* **Latitude arcs.** A satellite can serve only while its latitude
  ``asin(sin(i) * sin(u))`` is within ``gamma`` of the terminal's (about
  +-8.5 degrees at the 25-degree mask), and the argument of latitude
  ``u`` is linear in time, so each satellite's candidate epochs are a
  periodic union of intervals generated analytically.
* **Central angle.** Per chunk, the cosine of each candidate's
  geocentric angle to the terminal comes from ``cos``/``sin`` of its
  ``u`` and of its plane's RAAN - GMST, and pairs beyond ``gamma`` plus
  0.5 degrees go.  ``geodetic_to_ecef`` is a sphere and the ENU up is
  radial, so elevation >= mask holds exactly when that angle is at most
  ``gamma``: the cut drops only pairs the exact stage would mark
  invisible, and every surviving float is computed as before.

On the canonical campaign's 1,584-satellite shell the arcs leave about
125 pairs per epoch and the cut about 7.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import (
    EARTH_RADIUS_M,
    EARTH_ROTATION_RAD_S,
    STARLINK_MIN_ELEVATION_DEG,
    STARLINK_RESCHEDULE_INTERVAL_S,
)
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import WalkerShell
from repro.orbits.propagator import gmst_rad
from repro.orbits.visibility import max_visible_central_angle_rad
from repro.starlink.bentpipe import ServingGeometry

DEFAULT_CHUNK_EPOCHS = 64
"""Epochs per kernel chunk, the kernel's one chunk size: candidate pairs
are built, cut and evaluated a chunk at a time, so a call's working set
does not grow with its epoch count."""

_TWO_PI = 2.0 * math.pi

_MARGIN_DEG = 0.5
"""Slack on ``gamma`` in both cuts; covers their rounding."""


def _max_central_angle_rad(
    observer: GeoPoint, shell: WalkerShell, min_elevation_deg: float
) -> float | None:
    """The bound ``gamma`` of both cuts, or None for masks at or below
    -90 degrees, which every direction clears.  The observer radius is
    capped at the Earth's surface; a lower radius only widens ``gamma``.
    """
    if min_elevation_deg <= -90.0:
        return None
    r = EARTH_RADIUS_M + min(0.0, observer.altitude_m)
    return max_visible_central_angle_rad(
        r, shell._radius_m, math.radians(min_elevation_deg)
    )


def _candidate_arcs(
    observer: GeoPoint, shell: WalkerShell, min_elevation_deg: float
) -> list[tuple[float, float]]:
    """Argument-of-latitude arcs where a satellite *can* be visible.

    A satellite at shell radius R is visible above elevation ``el``
    only if the central angle to the observer is at most
    ``acos((r/R) cos el) - el`` (spherical Earth; see
    :func:`repro.orbits.visibility.max_visible_central_angle_rad`),
    hence only if its latitude ``asin(sin i sin u)`` lies within that
    bound of the observer's latitude.  Returns arcs as ``(start_rad,
    length_rad)`` over ``u mod 2pi``; a 0.5-degree margin plus the
    one-epoch slack applied by the interval generator keeps the bound
    sound, so no true candidate is ever excluded.  The bound holds for
    negative (obstruction-sweep) masks too — elevation is strictly
    decreasing in central angle — so masked terminals also get pruned
    arcs; only masks at or below -90 degrees (nothing excluded)
    degenerate to the full circle, as do bands wide enough to clip
    both latitude extremes.  A band wholly poleward of the shell's
    highest latitude has no arc.
    """
    gamma = _max_central_angle_rad(observer, shell, min_elevation_deg)
    if gamma is None:
        return [(0.0, _TWO_PI)]
    half_deg = math.degrees(gamma) + _MARGIN_DEG
    lat = observer.latitude_deg
    lo = math.sin(math.radians(max(-90.0, lat - half_deg)))
    hi = math.sin(math.radians(min(90.0, lat + half_deg)))
    sin_i = math.sin(shell._inclination_rad)
    if sin_i <= 1e-12:
        # Equatorial shell: satellite latitude is identically zero.
        return [(0.0, _TWO_PI)] if lo <= 0.0 <= hi else []
    su_lo = lo / sin_i
    su_hi = hi / sin_i
    if su_lo >= 1.0 or su_hi <= -1.0:
        return []
    lo_open = su_lo <= -1.0
    hi_open = su_hi >= 1.0
    if lo_open and hi_open:
        return [(0.0, _TWO_PI)]
    if hi_open:
        a = math.asin(su_lo)
        return [(a, math.pi - 2.0 * a)]
    if lo_open:
        b = math.asin(su_hi)
        return [(math.pi - b, math.pi + 2.0 * b)]
    a = math.asin(su_lo)
    b = math.asin(su_hi)
    return [(a, b - a), (math.pi - b, b - a)]


class _CandidatePairs:
    """The (row, satellite) pairs of one kernel call that may clear the
    mask, built a chunk of epochs at a time.

    Candidates come analytically from the latitude-band arcs: each
    satellite's argument of latitude advances linearly, so its in-arc
    times form one interval per orbit, widened by one epoch on each side
    for floating-point soundness.  The central-angle cut then drops the
    pairs farther than ``gamma`` plus the margin from the observer.  The
    constructor computes what no chunk's epochs change.
    """

    def __init__(
        self, shell: WalkerShell, observer: GeoPoint, min_elevation_deg: float
    ) -> None:
        self.shell = shell
        arcs = _candidate_arcs(observer, shell, min_elevation_deg)
        self.full_circle = any(length >= _TWO_PI for _, length in arcs)
        # Entry times of each satellite into an arc: u0 + u_dot t = start + 2 pi k
        u_dot = shell._arg_lat_dot
        u0 = shell._arg_lat0 - u_dot * shell.epoch_s
        self.arcs = []
        for start, length in arcs:
            phase = (start - u0) / u_dot
            self.arcs.append(
                (phase, float(np.min(phase)), float(np.max(phase)), length / u_dot)
            )
        gamma = _max_central_angle_rad(observer, shell, min_elevation_deg)
        bound = math.pi if gamma is None else gamma + math.radians(_MARGIN_DEG)
        self.cos_limit = math.cos(bound) if bound < math.pi else None
        if self.cos_limit is None:
            return
        raan, self.plane = np.unique(shell._raan0, return_inverse=True)
        self.cos_raan, self.sin_raan = np.cos(raan), np.sin(raan)
        self.cos_u0 = np.cos(shell._arg_lat0)
        self.sin_u0 = np.sin(shell._arg_lat0)
        lat = math.radians(observer.latitude_deg)
        self.longitude = math.radians(observer.longitude_deg)
        self.cos_lat = math.cos(lat)
        self.sin_lat_sin_i = math.sin(lat) * math.sin(shell._inclination_rad)
        self.cos_lat_cos_i = math.cos(lat) * math.cos(shell._inclination_rad)

    def pairs(self, epochs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, satellite) candidates of ``epochs``, sorted by row.

        ``row`` indexes into ``epochs``.  Within a row, satellites
        appear in ascending index order (required by the first-max
        tie-break).
        """
        n_pos = len(epochs)
        n_sats = len(self.shell.satellites)
        if self.full_circle:
            rows = np.repeat(np.arange(n_pos, dtype=np.int64), n_sats)
            cols = np.tile(np.arange(n_sats, dtype=np.int64), n_pos)
        else:
            rows, cols = self._arc_pairs(epochs)
        if self.cos_limit is not None and len(rows):
            keep = self._cosines(epochs, rows, cols) >= self.cos_limit
            rows, cols = rows[keep], cols[keep]
        # Stable sort by row keeps per-satellite generation order, i.e.
        # ascending satellite index within each row.
        order = np.argsort(rows, kind="stable")
        return rows[order], cols[order]

    def _arc_pairs(self, epochs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs inside the latitude-band arcs, grouped by satellite."""
        n_pos = len(epochs)
        n_sats = len(self.shell.satellites)
        interval = STARLINK_RESCHEDULE_INTERVAL_S
        period = _TWO_PI / self.shell._arg_lat_dot
        t_min = float(epochs[0]) * interval
        t_max = float(epochs[-1]) * interval
        first_epoch = int(epochs[0])
        last_epoch = int(epochs[-1])
        contiguous = last_epoch - first_epoch == n_pos - 1

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        for phase, phase_min, phase_max, duration in self.arcs:
            k_lo = math.floor((t_min - phase_max) / period) - 1
            k_hi = math.ceil((t_max - phase_min) / period) + 1
            ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
            t_enter = phase[:, None] + ks[None, :] * period  # (N, K)
            t_exit = t_enter + duration
            # Widen by one epoch per side: float slack, on top of the margin.
            e_start = np.floor(t_enter / interval).astype(np.int64) - 1
            e_end = np.ceil(t_exit / interval).astype(np.int64) + 1
            if contiguous:
                p_start = np.clip(e_start - first_epoch, 0, n_pos)
                p_end = np.clip(e_end - first_epoch + 1, 0, n_pos)
            else:
                p_start = np.searchsorted(epochs, e_start, side="left")
                p_end = np.searchsorted(epochs, e_end, side="right")
            lengths = (p_end - p_start).ravel()
            keep = lengths > 0
            lengths = lengths[keep]
            if len(lengths) == 0:
                continue
            starts = p_start.ravel()[keep]
            sat_of = np.repeat(np.arange(n_sats, dtype=np.int64), len(ks))[keep]
            total = int(lengths.sum())
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            flat = np.arange(total, dtype=np.int64)
            rows_parts.append(np.repeat(starts - offsets, lengths) + flat)
            cols_parts.append(np.repeat(sat_of, lengths))
        if not rows_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    def _cosines(
        self, epochs: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Cosine of each pair's geocentric angle to the observer.

        The dot product of the two unit vectors is ``a cos(u) + b
        sin(u)``, where ``a`` and ``b`` depend on the row and the
        satellite's plane only, through ``alpha`` = RAAN - GMST - the
        observer's longitude (a plane's satellites share ``_raan0``).
        With ``u = u0 + du`` split by angle addition, a pair costs two
        gathers per side and no trigonometry.  This is not the exact
        stage's operation sequence; the cut's margin absorbs the
        difference.
        """
        shell = self.shell
        t = epochs * STARLINK_RESCHEDULE_INTERVAL_S
        dt = t - shell.epoch_s
        du = shell._arg_lat_dot * dt
        beta = shell._raan_dot * dt - EARTH_ROTATION_RAD_S * t - self.longitude
        cos_du, sin_du = np.cos(du)[:, None], np.sin(du)[:, None]
        cos_b, sin_b = np.cos(beta)[:, None], np.sin(beta)[:, None]
        # Per (row, plane): alpha = the plane's RAAN + beta.
        cos_alpha = cos_b * self.cos_raan - sin_b * self.sin_raan
        sin_alpha = sin_b * self.cos_raan + cos_b * self.sin_raan
        a = self.cos_lat * cos_alpha
        b = self.sin_lat_sin_i - self.cos_lat_cos_i * sin_alpha
        at = rows * len(self.cos_raan) + self.plane[cols]
        a_u0 = (a * cos_du + b * sin_du).take(at)
        b_u0 = (b * cos_du - a * sin_du).take(at)
        return self.cos_u0[cols] * a_u0 + self.sin_u0[cols] * b_u0


def compute_serving_timeline(
    shell: WalkerShell,
    terminal: GeoPoint,
    gateway: GeoPoint,
    epochs,
    *,
    min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
    obstruction=None,
    chunk_epochs: int = DEFAULT_CHUNK_EPOCHS,
) -> list[ServingGeometry | None]:
    """Serving geometry of each scheduler epoch in ``epochs``, in one
    batch pass (``None`` = outage).

    ``epochs`` is a sorted array of unique epoch indices; sparse sets
    are fine.  ``obstruction`` is an optional
    :class:`repro.starlink.obstruction.ObstructionMask`.  Results are
    bit-identical to ``BentPipeModel._scan_epoch`` epoch by epoch.
    """
    epochs = np.asarray(epochs, dtype=np.int64)
    if len(epochs) > 1 and np.any(np.diff(epochs) <= 0):
        raise ConfigurationError("epochs must be sorted and unique")
    if chunk_epochs < 1:
        raise ConfigurationError(f"chunk_epochs must be >= 1: {chunk_epochs}")

    n = len(epochs)
    sat_index = np.full(n, -1, dtype=np.int32)
    terminal_range = np.zeros(n)
    gateway_range = np.zeros(n)
    elevation_out = np.zeros(n)

    _fill_serving_arrays(
        shell,
        terminal,
        gateway,
        epochs,
        min_elevation_deg,
        obstruction,
        chunk_epochs,
        sat_index,
        terminal_range,
        gateway_range,
        elevation_out,
    )
    satellites = shell.satellites
    return [
        None
        if sat < 0
        else ServingGeometry(
            satellite=satellites[sat].name,
            terminal_range_m=terminal_m,
            gateway_range_m=gateway_m,
            elevation_deg=elevation,
        )
        for sat, terminal_m, gateway_m, elevation in zip(
            sat_index.tolist(),
            terminal_range.tolist(),
            gateway_range.tolist(),
            elevation_out.tolist(),
        )
    ]


def _enu_constants(point: GeoPoint):
    """Observer ECEF plus the ENU rotation scalars of `_enu_components`."""
    lat = math.radians(point.latitude_deg)
    lon = math.radians(point.longitude_deg)
    return (
        point.ecef(),
        math.sin(lat),
        math.cos(lat),
        math.sin(lon),
        math.cos(lon),
    )


def _fill_serving_arrays(
    shell: WalkerShell,
    terminal: GeoPoint,
    gateway: GeoPoint,
    epochs: np.ndarray,
    min_elevation_deg: float,
    obstruction,
    chunk_epochs: int,
    sat_index: np.ndarray,
    terminal_range: np.ndarray,
    gateway_range: np.ndarray,
    elevation_out: np.ndarray,
) -> None:
    """The chunked batch kernel; mutates the per-epoch output arrays.

    Each chunk builds and cuts its own candidate pairs, then evaluates
    the survivors.  Every expression mirrors the scan path op for op:
    ``WalkerShell.positions_ecef`` -> ``_enu_components`` ->
    ``np.hypot``/``np.arctan2`` elevation -> obstruction filter
    (``math.atan2`` azimuth) -> first-max selection -> ranges.
    """
    n = len(epochs)
    interval = STARLINK_RESCHEDULE_INTERVAL_S
    radius = shell._radius_m
    cos_i = math.cos(shell._inclination_rad)
    sin_i = math.sin(shell._inclination_rad)
    raan0 = shell._raan0
    arg_lat0 = shell._arg_lat0
    raan_dot = shell._raan_dot
    arg_lat_dot = shell._arg_lat_dot
    t_obs, t_sin_lat, t_cos_lat, t_sin_lon, t_cos_lon = _enu_constants(terminal)
    g_obs, g_sin_lat, g_cos_lat, g_sin_lon, g_cos_lon = _enu_constants(gateway)
    wedged = obstruction is not None and getattr(obstruction, "wedges", None)

    candidates = _CandidatePairs(shell, terminal, min_elevation_deg)
    for p0 in range(0, n, chunk_epochs):
        p1 = min(n, p0 + chunk_epochs)
        r, c = candidates.pairs(epochs[p0:p1])
        if len(r) == 0:
            continue
        n_rows = p1 - p0
        ts = epochs[p0:p1] * interval
        dt = ts - shell.epoch_s

        # WalkerShell.positions_ecef, gathered to the candidate pairs.
        arg_lat = arg_lat0[c] + (arg_lat_dot * dt)[r]
        raan = raan0[c] + (raan_dot * dt)[r]
        cos_u, sin_u = np.cos(arg_lat), np.sin(arg_lat)
        cos_raan, sin_raan = np.cos(raan), np.sin(raan)
        x_eci = radius * (cos_raan * cos_u - sin_raan * sin_u * cos_i)
        y_eci = radius * (sin_raan * cos_u + cos_raan * sin_u * cos_i)
        z_ecef = radius * (sin_u * sin_i)
        cos_t = np.empty(n_rows)
        sin_t = np.empty(n_rows)
        for k in range(n_rows):
            theta = gmst_rad(float(ts[k]))
            cos_t[k] = math.cos(theta)
            sin_t[k] = math.sin(theta)
        neg_sin_t = -sin_t
        x_ecef = cos_t[r] * x_eci + sin_t[r] * y_eci
        y_ecef = neg_sin_t[r] * x_eci + cos_t[r] * y_eci

        # _enu_components at the terminal, same expression order.
        d0 = x_ecef - t_obs[0]
        d1 = y_ecef - t_obs[1]
        d2 = z_ecef - t_obs[2]
        east = -t_sin_lon * d0 + t_cos_lon * d1
        north = (
            -t_sin_lat * t_cos_lon * d0 - t_sin_lat * t_sin_lon * d1 + t_cos_lat * d2
        )
        up = t_cos_lat * t_cos_lon * d0 + t_cos_lat * t_sin_lon * d1 + t_sin_lat * d2
        horizontal = np.hypot(east, north)
        elevation = np.degrees(np.arctan2(up, horizontal))
        visible = elevation >= min_elevation_deg

        if wedged:
            # Scan-path azimuths are scalar math.atan2 (one ulp off
            # np.arctan2 on some inputs), so replicate them per
            # visible candidate; only obstructed terminals pay this.
            for i in np.flatnonzero(visible):
                azimuth = math.degrees(math.atan2(east[i], north[i])) % 360.0
                if obstruction.blocks(azimuth, float(elevation[i])):
                    visible[i] = False

        # First-max selection == the scan's stable sort by descending
        # elevation: highest elevation wins, exact ties go to the
        # lowest satellite index (candidates are index-ordered per row).
        score = np.where(visible, elevation, -np.inf)
        row_starts = np.searchsorted(r, np.arange(n_rows))
        counts = np.diff(np.append(row_starts, len(r)))
        occupied = counts > 0
        row_max = np.full(n_rows, -np.inf)
        row_max[occupied] = np.maximum.reduceat(score, row_starts[occupied])
        hit = visible & (score == row_max[r])
        hit_idx = np.flatnonzero(hit)
        if len(hit_idx) == 0:
            continue
        hit_rows = r[hit_idx]
        sel = hit_idx[np.flatnonzero(np.diff(hit_rows, prepend=-1))]
        serving_rows = r[sel]

        e_s, n_s, u_s = east[sel], north[sel], up[sel]
        slant = np.sqrt(e_s * e_s + n_s * n_s + u_s * u_s)
        gd0 = x_ecef[sel] - g_obs[0]
        gd1 = y_ecef[sel] - g_obs[1]
        gd2 = z_ecef[sel] - g_obs[2]
        g_e = -g_sin_lon * gd0 + g_cos_lon * gd1
        g_n = (
            -g_sin_lat * g_cos_lon * gd0 - g_sin_lat * g_sin_lon * gd1 + g_cos_lat * gd2
        )
        g_u = (
            g_cos_lat * g_cos_lon * gd0 + g_cos_lat * g_sin_lon * gd1 + g_sin_lat * gd2
        )
        g_slant = np.sqrt(g_e * g_e + g_n * g_n + g_u * g_u)

        out = p0 + serving_rows
        sat_index[out] = c[sel].astype(np.int32)
        terminal_range[out] = slant
        gateway_range[out] = g_slant
        elevation_out[out] = elevation[sel]
