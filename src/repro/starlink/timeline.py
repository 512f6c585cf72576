"""Precomputed serving-satellite timelines (the geometry hot path).

The serving satellite, terminal range, gateway range and elevation of a
bent pipe are a pure function of ``(shell, terminal, gateway, elevation
mask, obstruction, scheduler epoch)``.  The per-epoch scan
(``BentPipeModel._scan_epoch``) evaluates it one epoch at a time.

:func:`compute_serving_timeline` instead evaluates a window or a
sparse set of epochs in one vectorised pass and stores the result as
compact numpy arrays (:class:`ServingTimeline`, ~28 bytes/epoch) with
O(1) random-access lookups.  Packet-level scenarios attach one per
simulated window; campaign bent pipes batch-fill their per-epoch link
states from it (``BentPipeModel.fill_link_states``).

Bit-identity contract (extends DESIGN.md §6): the batch kernel
replicates the exact floating-point operation sequence of
``BentPipeModel.serving_geometry``'s scan path — same propagation
formulas, same ENU expression order, same ``np.hypot``/``np.arctan2``
elevation, same ``math.atan2`` azimuth for obstruction tests, and
first-max tie-breaking identical to the scan's stable sort — so
``on-demand == timeline == batch-filled link state`` holds exactly, not
just approximately.  (Numpy ufuncs are elementwise and shape-independent,
so computing the same expressions over gathered 1-D arrays yields
bitwise-equal values; ``tests/test_serving_timeline.py`` asserts it.)

The kernel avoids scanning all ``T x N`` grid points: a satellite can
serve a terminal only while its latitude is within the slant-geometry
bound of the terminal's latitude (about +-8.5 degrees at the 25-degree
mask), and satellite latitude is ``asin(sin(i) * sin(u))`` with the
argument of latitude ``u`` linear in time — so the candidate epochs of
each satellite are a periodic union of intervals that can be generated
analytically.  Only ~20% of grid points are ever touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    EARTH_RADIUS_M,
    STARLINK_MIN_ELEVATION_DEG,
    STARLINK_RESCHEDULE_INTERVAL_S,
)
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import WalkerShell
from repro.orbits.propagator import gmst_rad
from repro.orbits.visibility import max_visible_central_angle_rad
from repro.starlink.bentpipe import _CACHE_MISS, ServingGeometry

DEFAULT_CHUNK_EPOCHS = 256
"""Epochs per kernel chunk; keeps working arrays cache-resident."""

_TWO_PI = 2.0 * math.pi


@dataclass
class ServingTimeline:
    """Per-epoch serving geometry of one (shell, terminal, gateway) tuple.

    Attributes:
        epochs: Sorted, unique scheduler-epoch indices covered.
        sat_index: Serving-satellite index per epoch (-1 = outage).
        terminal_range_m / gateway_range_m / elevation_deg: Serving
            geometry per epoch (zeros where ``sat_index`` is -1).
        satellite_names: Shell satellite names, indexed by ``sat_index``.
        hits: Lookup counter (a bent pipe's ``timeline_hits``).

    Contiguous epoch ranges (packet-level windows) get O(1) offset
    lookups; sparse sets (volunteer-node sample grids, a campaign
    user's event epochs) fall back to a prebuilt position map.
    Instances are plain picklable arrays.
    """

    epochs: np.ndarray
    sat_index: np.ndarray
    terminal_range_m: np.ndarray
    gateway_range_m: np.ndarray
    elevation_deg: np.ndarray
    satellite_names: tuple[str, ...]
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        n = len(self.epochs)
        self._contiguous = bool(
            n > 0 and int(self.epochs[-1]) - int(self.epochs[0]) == n - 1
        )
        self._first = int(self.epochs[0]) if n else 0
        self._positions = (
            None
            if self._contiguous
            else {int(e): i for i, e in enumerate(self.epochs)}
        )

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the per-epoch arrays."""
        return (
            self.epochs.nbytes
            + self.sat_index.nbytes
            + self.terminal_range_m.nbytes
            + self.gateway_range_m.nbytes
            + self.elevation_deg.nbytes
        )

    def covers(self, epoch: int) -> bool:
        """Whether the timeline has an entry for ``epoch``."""
        if self._contiguous:
            return 0 <= epoch - self._first < len(self.epochs)
        return self._positions is not None and epoch in self._positions

    def covers_range(self, first: int, last: int) -> bool:
        """Whether every epoch of ``[first, last]`` (inclusive) has an
        entry — the check ``BentPipeModel.ensure_timeline`` uses to
        decide whether an attached timeline can serve a new window."""
        if last < first:
            return False
        if self._contiguous:
            return self.covers(first) and self.covers(last)
        return all(self.covers(epoch) for epoch in range(first, last + 1))

    def lookup(self, epoch: int):
        """Geometry at ``epoch``: a :class:`ServingGeometry`, ``None``
        (a computed outage), or the cache-miss sentinel when the epoch
        is outside this timeline."""
        if self._contiguous:
            i = epoch - self._first
            if not 0 <= i < len(self.epochs):
                return _CACHE_MISS
        else:
            i = self._positions.get(epoch) if self._positions else None
            if i is None:
                return _CACHE_MISS
        self.hits += 1
        sat = int(self.sat_index[i])
        if sat < 0:
            return None
        return ServingGeometry(
            satellite=self.satellite_names[sat],
            terminal_range_m=float(self.terminal_range_m[i]),
            gateway_range_m=float(self.gateway_range_m[i]),
            elevation_deg=float(self.elevation_deg[i]),
        )

    def geometries(self) -> list[ServingGeometry | None]:
        """Materialise every epoch's geometry, in epoch order."""
        return [self.lookup(int(e)) for e in self.epochs]


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
    both latitude extremes.
    """
    if min_elevation_deg <= -90.0:
        return [(0.0, _TWO_PI)]
    r = EARTH_RADIUS_M + min(0.0, observer.altitude_m)
    el = math.radians(min_elevation_deg)
    gamma = max_visible_central_angle_rad(r, shell._radius_m, el)
    half_deg = math.degrees(gamma) + 0.5
    lat = observer.latitude_deg
    lo = math.sin(math.radians(max(-90.0, lat - half_deg)))
    hi = math.sin(math.radians(min(90.0, lat + half_deg)))
    sin_i = math.sin(shell._inclination_rad)
    if sin_i <= 1e-12:
        # Equatorial shell: satellite latitude is identically zero.
        return [(0.0, _TWO_PI)] if lo <= 0.0 <= hi else []
    su_lo = lo / sin_i
    su_hi = hi / sin_i
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


def _candidate_pairs(
    shell: WalkerShell,
    observer: GeoPoint,
    epochs: np.ndarray,
    min_elevation_deg: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(row, satellite) candidate pairs, sorted by row.

    ``row`` indexes into ``epochs``.  Candidates are generated
    analytically from the latitude-band arcs: for each satellite the
    argument of latitude advances linearly, so its in-arc times form
    one interval per orbit, widened by one epoch on each side for
    floating-point soundness.  Within a row, satellites appear in
    ascending index order (required by the first-max tie-break).
    """
    arcs = _candidate_arcs(observer, shell, min_elevation_deg)
    n_pos = len(epochs)
    n_sats = len(shell.satellites)
    if not arcs or n_pos == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    interval = STARLINK_RESCHEDULE_INTERVAL_S
    u_dot = shell._arg_lat_dot
    t_min = float(epochs[0]) * interval
    t_max = float(epochs[-1]) * interval
    first_epoch = int(epochs[0])
    last_epoch = int(epochs[-1])
    contiguous = last_epoch - first_epoch == n_pos - 1

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    u0 = shell._arg_lat0 - shell._arg_lat_dot * shell.epoch_s
    for arc_start, arc_len in arcs:
        if arc_len >= _TWO_PI:
            rows = np.repeat(
                np.arange(n_pos, dtype=np.int64)[:, None], n_sats, axis=1
            ).ravel()
            cols = np.tile(np.arange(n_sats, dtype=np.int64), n_pos)
            return rows, cols
        # Entry times of each satellite into the arc: u0 + u_dot t = start + 2 pi k
        phase = (arc_start - u0) / u_dot  # (N,)
        period = _TWO_PI / u_dot
        k_lo = math.floor((t_min - float(np.max(phase))) / period) - 1
        k_hi = math.ceil((t_max - float(np.min(phase))) / period) + 1
        ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
        t_enter = phase[:, None] + ks[None, :] * period  # (N, K)
        t_exit = t_enter + arc_len / u_dot
        # Widen by one epoch per side: float slack, on top of the 0.5 deg margin.
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
        rows_parts.append(
            np.repeat(starts - offsets, lengths) + flat
        )
        cols_parts.append(np.repeat(sat_of, lengths))
    if not rows_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    # Stable sort by row keeps per-satellite generation order, i.e.
    # ascending satellite index within each row.
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def compute_serving_timeline(
    shell: WalkerShell,
    terminal: GeoPoint,
    gateway: GeoPoint,
    *,
    start_s: float | None = None,
    end_s: float | None = None,
    epochs: np.ndarray | None = None,
    min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
    obstruction=None,
    chunk_epochs: int = DEFAULT_CHUNK_EPOCHS,
) -> ServingTimeline:
    """Serving geometry for every epoch of a window, in one batch pass.

    Pass either ``start_s``/``end_s`` (covers every scheduler epoch
    touching ``[start_s, end_s)``) or an explicit sorted array of
    ``epochs`` (sparse sets are fine — volunteer nodes precompute just
    the epochs their sample times will touch).  ``obstruction`` is an
    optional :class:`repro.starlink.obstruction.ObstructionMask`.

    Results are bit-identical to evaluating
    ``BentPipeModel.serving_geometry`` epoch by epoch.
    """
    if epochs is None:
        if start_s is None or end_s is None or end_s <= start_s:
            raise ConfigurationError(
                "compute_serving_timeline needs epochs or start_s < end_s"
            )
        first = int(math.floor(start_s / STARLINK_RESCHEDULE_INTERVAL_S))
        last = int(math.ceil(end_s / STARLINK_RESCHEDULE_INTERVAL_S))
        epochs = np.arange(first, max(last, first + 1), dtype=np.int64)
    else:
        epochs = np.asarray(epochs, dtype=np.int64)
        if len(epochs) > 1 and np.any(np.diff(epochs) <= 0):
            raise ConfigurationError("timeline epochs must be sorted and unique")
    if chunk_epochs < 1:
        raise ConfigurationError(f"chunk_epochs must be >= 1: {chunk_epochs}")

    n = len(epochs)
    sat_index = np.full(n, -1, dtype=np.int32)
    terminal_range = np.zeros(n)
    gateway_range = np.zeros(n)
    elevation_out = np.zeros(n)

    rows, cols = _candidate_pairs(shell, terminal, epochs, min_elevation_deg)
    names = tuple(s.name for s in shell.satellites)
    if len(rows):
        _fill_serving_arrays(
            shell,
            terminal,
            gateway,
            epochs,
            rows,
            cols,
            min_elevation_deg,
            obstruction,
            chunk_epochs,
            sat_index,
            terminal_range,
            gateway_range,
            elevation_out,
        )
    return ServingTimeline(
        epochs=epochs,
        sat_index=sat_index,
        terminal_range_m=terminal_range,
        gateway_range_m=gateway_range,
        elevation_deg=elevation_out,
        satellite_names=names,
    )


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
    rows: np.ndarray,
    cols: np.ndarray,
    min_elevation_deg: float,
    obstruction,
    chunk_epochs: int,
    sat_index: np.ndarray,
    terminal_range: np.ndarray,
    gateway_range: np.ndarray,
    elevation_out: np.ndarray,
) -> None:
    """The chunked batch kernel; mutates the per-epoch output arrays.

    Every numbered expression mirrors the scan path op for op:
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

    for p0 in range(0, n, chunk_epochs):
        p1 = min(n, p0 + chunk_epochs)
        m0 = int(np.searchsorted(rows, p0, side="left"))
        m1 = int(np.searchsorted(rows, p1, side="left"))
        if m0 == m1:
            continue
        r = rows[m0:m1] - p0
        c = cols[m0:m1]
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
