"""The Earth-satellite-Earth ("bent pipe") link model.

Combines the substrates into the link a Starlink terminal actually gets:

* **Propagation** follows the serving satellite chosen by the 15-second
  scheduler epoch (terminal->satellite + satellite->gateway distances
  over c).  The paper finds this bent pipe dominates path latency.
* **Scheduler/processing delay**: MAC framing, uplink grants, gateway
  processing — the fixed ~10 ms floor that makes Starlink RTTs ~30 ms
  rather than the ~5 ms physics would allow.
* **Weather**: the rain-fade impairment multiplies the scheduler/ARQ
  component, adds residual loss and scales capacity
  (:mod:`repro.weather.impairment`).
* **Queueing**: load-coupled stochastic queueing from the capacity
  model; this is what Table 2's max-min estimator measures.
* **Handover loss**: burst-loss windows gated on the tracker's handover
  events (Figure 7's loss clumps).

Two interfaces are exposed: *analytic* (mean/sampled RTT, loss rate and
capacity at an arbitrary campaign time — used by the six-month browser
campaign, where packet-level simulation of 50k page loads would be
wasteful) and *packet-level* (delay providers and loss models to plug
into :class:`repro.net.link.Link` for traceroute/iperf/TCP experiments).

Both read one cache: the bent pipe's per-epoch :class:`LinkStateTable`.
An epoch's geometry comes from the table, or else from the single-epoch
scan (``BentPipeModel._scan_epoch``); precomputes batch-fill the table
through the kernel of :mod:`repro.starlink.timeline`, which matches the
scan bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    SPEED_OF_LIGHT_M_S,
    STARLINK_MIN_ELEVATION_DEG,
    STARLINK_RESCHEDULE_INTERVAL_S,
)
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import WalkerShell
from repro.orbits.tracking import SatelliteTracker
from repro.orbits.visibility import _enu_components
from repro.rng import stream
from repro.starlink.capacity import ServiceCapacityModel
from repro.weather.history import WeatherHistory
from repro.weather.impairment import LinkImpairment, impairment_for
from repro.weather.conditions import WeatherCondition

PROCESSING_DELAY_S = 0.002
"""One-way dish + satellite + gateway processing, seconds."""

SCHEDULER_DELAY_S = 0.006
"""One-way MAC framing and uplink-grant delay at clear sky, seconds."""

OUTAGE_RTT_PENALTY_S = 2.0
"""Analytic RTT charged when no satellite is visible (reconnect time)."""

LINK_FILL_EPOCHS = 64
"""Epochs per kernel call of :meth:`BentPipeModel.fill_link_states`.
The kernel keeps about 25 float64 temporaries per candidate pair, about
122 pairs per epoch at the campaign's shell, so this bounds a fill's
working set at about 1.5 MB; one call for a whole campaign user's
epochs raised the campaign's peak RSS by 8-12 MB."""


@dataclass(frozen=True)
class ServingGeometry:
    """Bent-pipe geometry at one instant."""

    satellite: str
    terminal_range_m: float
    gateway_range_m: float
    elevation_deg: float

    @property
    def propagation_delay_s(self) -> float:
        """One-way terminal->satellite->gateway propagation, seconds."""
        return (self.terminal_range_m + self.gateway_range_m) / SPEED_OF_LIGHT_M_S


@dataclass(frozen=True, slots=True)
class LinkState:
    """The deterministic bent pipe of one 15 s scheduler epoch.

    Everything a link query reads except the stochastic queueing and
    capacity draws.  The serving geometry fixes the outage flag and the
    propagation; the weather condition (constant within an epoch: an
    hour is 240 epochs) and the serving elevation fix the impairment.

    Attributes:
        geometry: Serving geometry (None = outage).
        impairment: Weather impairment of the link; during an outage,
            at the nominal 55-degree elevation.
        base_one_way_delay_s: Propagation + processing + weather-scaled
            scheduler delay, seconds (NaN during an outage).
    """

    geometry: ServingGeometry | None
    impairment: LinkImpairment
    base_one_way_delay_s: float

    @property
    def outage(self) -> bool:
        """Whether no satellite is usable in this epoch."""
        return self.geometry is None


class LinkStateTable:
    """Epoch-keyed LRU table of one bent pipe's :class:`LinkState` entries,
    the bent pipe's only geometry cache.

    ``hits`` counts lookups the table answered and ``computed`` the
    epochs put into it, batch-filled or lazy; both feed the campaign's
    shard stats.  The cap keeps long-lived packet-level models bounded.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.computed = 0
        self._entries: OrderedDict[int, LinkState] = OrderedDict()

    def __contains__(self, epoch: int) -> bool:
        return epoch in self._entries

    def get(self, epoch: int) -> LinkState | None:
        """The epoch's state, or None when it is not in the table."""
        state = self._entries.get(epoch)
        if state is not None:
            self._entries.move_to_end(epoch)
            self.hits += 1
        return state

    def put(self, epoch: int, state: LinkState) -> None:
        """Store an epoch's state, evicting the LRU entry if full."""
        self._entries[epoch] = state
        self._entries.move_to_end(epoch)
        self.computed += 1
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


def epoch_starts(times_s, horizon_s: float = 0.0) -> list[float]:
    """Start times of the scheduler epochs that ``[t, t + horizon_s]``
    touches for some ``t`` in ``times_s``, ascending.

    The precomputes hand these to :meth:`BentPipeModel.fill_link_states`:
    a window is one start with its length as horizon, a sample schedule
    its sample times with each sample's look-ahead.
    """
    interval = STARLINK_RESCHEDULE_INTERVAL_S
    times = np.asarray(times_s, dtype=np.float64)
    first = np.floor_divide(times, interval).astype(np.int64)
    last = np.floor_divide(times + horizon_s, interval).astype(np.int64)
    spans = [np.arange(lo, hi + 1) for lo, hi in zip(first, last)]
    epochs = np.unique(np.concatenate(spans)) if spans else first
    return (epochs * interval).tolist()


class BentPipeModel:
    """The bent-pipe link for one terminal.

    Args:
        shell: Constellation shell overhead.
        terminal: Terminal (dish) location.
        gateway: Gateway ground-station location.
        city_name: City for weather/timezone/capacity lookups.
        weather: Weather history (None -> permanent clear sky).
        capacity: Capacity model (None -> built from the city's plan).
        seed: RNG root for queueing/loss draws.
        user_key: Extra RNG-stream label isolating this model's
            stochastic draws (queueing noise, capacity noise) to one
            user.  The sharded campaign engine keys every per-user
            model this way so record streams are independent of user
            processing order; None keeps the legacy city-shared
            streams.

    Every analytic and packet-level query reads the :class:`LinkState`
    of its scheduler epoch from the model's :attr:`link_states` table,
    so geometry, weather and impairment are derived once per epoch, not
    per call.  An epoch missing from the table is computed by the
    single-epoch scan on first use; :meth:`fill_link_states`
    batch-computes the epochs a known set of query times will touch.
    """

    def __init__(
        self,
        shell: WalkerShell,
        terminal: GeoPoint,
        gateway: GeoPoint,
        city_name: str,
        weather: WeatherHistory | None = None,
        capacity: ServiceCapacityModel | None = None,
        seed: int = 0,
        min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
        obstruction=None,
        user_key: str | None = None,
    ) -> None:
        """``obstruction`` is an optional
        :class:`repro.starlink.obstruction.ObstructionMask`: satellites
        behind blocked sky are unusable for this terminal, so a badly
        sited dish sees more handovers and outright outages."""
        self.shell = shell
        self.terminal = terminal
        self.gateway = gateway
        self.city_name = city_name
        self.weather = weather
        self.capacity = (
            capacity
            if capacity is not None
            else ServiceCapacityModel(city_name, seed=seed, user_key=user_key)
        )
        self.min_elevation_deg = min_elevation_deg
        self.obstruction = obstruction
        self.user_key = user_key
        rng_labels = ("bentpipe", city_name) + (
            (user_key,) if user_key is not None else ()
        )
        self._rng = stream(seed, *rng_labels)
        self.link_states = LinkStateTable()
        self._wireless_queue = self.capacity.wireless_queueing_sampler()

    # -- geometry ----------------------------------------------------------

    def serving_geometry(self, t_s: float) -> ServingGeometry | None:
        """Geometry via the serving satellite at ``t_s`` (None = outage).

        The serving satellite is fixed per 15-second scheduler epoch
        (max-elevation selection at the epoch start), matching
        :class:`repro.orbits.tracking.SatelliteTracker` behaviour in a
        stateless, random-access form usable at arbitrary times.

        Lookup order: the link-state table, then the single-epoch scan.
        Unlike :meth:`link_state` it needs no weather, so it answers at
        any time and never adds to the table.
        """
        epoch = int(t_s // STARLINK_RESCHEDULE_INTERVAL_S)
        state = self.link_states.get(epoch)
        if state is not None:
            return state.geometry
        return self._scan_epoch(epoch)

    def _scan_epoch(self, epoch: int) -> ServingGeometry | None:
        """Scan one scheduler epoch for the serving satellite.

        This is the reference implementation the batch kernel in
        :mod:`repro.starlink.timeline` replicates bit-for-bit: one
        shell propagation, ENU/elevation via the same numpy ufuncs,
        ``math.atan2`` azimuths for the obstruction test, max-elevation
        selection with ties to the lowest satellite index, and
        explicit-product slant ranges for terminal and gateway off the
        same position row.
        """
        epoch_time = epoch * STARLINK_RESCHEDULE_INTERVAL_S
        positions = self.shell.positions_ecef(epoch_time)
        east, north, up = _enu_components(self.terminal, positions)
        horizontal = np.hypot(east, north)
        elevation = np.degrees(np.arctan2(up, horizontal))
        visible_idx = np.nonzero(elevation >= self.min_elevation_deg)[0]
        obstruction = self.obstruction
        best_i = -1
        best_elev = -math.inf
        for i in visible_idx:
            if obstruction is not None:
                azimuth = math.degrees(math.atan2(east[i], north[i])) % 360.0
                if obstruction.blocks(azimuth, float(elevation[i])):
                    continue
            if elevation[i] > best_elev:
                best_i = int(i)
                best_elev = float(elevation[i])
        if best_i < 0:
            return None
        e, n, u = east[best_i], north[best_i], up[best_i]
        ge, gn, gu = _enu_components(
            self.gateway, positions[best_i : best_i + 1]
        )
        return ServingGeometry(
            satellite=self.shell.satellites[best_i].name,
            terminal_range_m=float(math.sqrt(e * e + n * n + u * u)),
            gateway_range_m=float(
                math.sqrt(ge[0] * ge[0] + gn[0] * gn[0] + gu[0] * gu[0])
            ),
            elevation_deg=best_elev,
        )

    # -- link state -------------------------------------------------------

    def link_state(self, t_s: float) -> LinkState:
        """The :class:`LinkState` of ``t_s``'s scheduler epoch, computed
        on first use (geometry from the scan).

        Raises:
            ConfigurationError: if ``t_s`` is outside the weather
                history — checked on every call, so an epoch already in
                the table cannot mask an out-of-window time.
        """
        if self.weather is not None:
            self.weather.require_covered(t_s)
        epoch = int(t_s // STARLINK_RESCHEDULE_INTERVAL_S)
        state = self.link_states.get(epoch)
        if state is None:
            state = self._link_state_at(epoch, self._scan_epoch(epoch))
            self.link_states.put(epoch, state)
        return state

    def fill_link_states(self, times_s) -> None:
        """Batch-compute the link states of the epochs ``times_s`` touch.

        Epochs already in the table, times outside the weather history
        and epochs beyond the table's cap are left to :meth:`link_state`.
        The rest go through :func:`~repro.starlink.timeline.\
compute_serving_timeline`, bit-identical to the scan, in calls of
        :data:`LINK_FILL_EPOCHS` epochs.
        """
        weather = self.weather
        epochs = {
            int(t_s // STARLINK_RESCHEDULE_INTERVAL_S)
            for t_s in times_s
            if weather is None or 0.0 <= t_s <= weather.duration_s
        }
        missing = sorted(epoch for epoch in epochs if epoch not in self.link_states)
        del missing[self.link_states.max_entries :]
        from repro.starlink.timeline import compute_serving_timeline

        for start in range(0, len(missing), LINK_FILL_EPOCHS):
            batch = missing[start : start + LINK_FILL_EPOCHS]
            geometries = compute_serving_timeline(
                self.shell,
                self.terminal,
                self.gateway,
                np.array(batch, dtype=np.int64),
                min_elevation_deg=self.min_elevation_deg,
                obstruction=self.obstruction,
            )
            for epoch, geometry in zip(batch, geometries):
                self.link_states.put(epoch, self._link_state_at(epoch, geometry))

    def _link_state_at(self, epoch: int, geometry: ServingGeometry | None) -> LinkState:
        # An hour is 240 epochs, so no epoch spans two weather hours and
        # the condition at its start holds for every time inside it.
        condition = self.condition_at(epoch * STARLINK_RESCHEDULE_INTERVAL_S)
        if geometry is None:
            return LinkState(None, impairment_for(condition, 55.0), math.nan)
        impairment = impairment_for(condition, geometry.elevation_deg)
        scheduler = SCHEDULER_DELAY_S * impairment.latency_multiplier
        return LinkState(
            geometry,
            impairment,
            geometry.propagation_delay_s + PROCESSING_DELAY_S + scheduler,
        )

    def is_outage(self, t_s: float) -> bool:
        """Whether no satellite is usable at ``t_s``."""
        return self.link_state(t_s).outage

    # -- weather ----------------------------------------------------------

    def condition_at(self, t_s: float) -> WeatherCondition:
        """Weather condition over the terminal at ``t_s``."""
        if self.weather is None:
            return WeatherCondition.CLEAR_SKY
        return self.weather.condition_at(self.city_name, t_s)

    def impairment_at(self, t_s: float) -> LinkImpairment:
        """Weather impairment of the link at ``t_s``."""
        return self.link_state(t_s).impairment

    # -- analytic latency/loss/capacity ---------------------------------------

    def base_one_way_delay_s(self, t_s: float) -> float:
        """Deterministic one-way latency (no queueing) at ``t_s``.

        Raises:
            VisibilityError: during an outage; analytic callers that
                tolerate outages should check :meth:`is_outage`.
        """
        state = self.link_state(t_s)
        if state.outage:
            raise VisibilityError(
                f"no satellite visible over {self.city_name} at t={t_s}"
            )
        return state.base_one_way_delay_s

    def mean_rtt_to_pop_s(self, t_s: float) -> float:
        """Expected terminal<->PoP RTT at ``t_s`` (mean queueing folded in).

        Weather multiplies the queueing component too: rain fade forces
        a slower MCS, so the same offered load queues for longer — the
        dominant mechanism behind Figure 4's ~2x rainy-day PTT.
        """
        state = self.link_state(t_s)
        if state.outage:
            return OUTAGE_RTT_PENALTY_S
        utilization = self.capacity.utilization(t_s)
        mean_queue = (
            (self.capacity.plan.wireless_queue_mean_ms / 1000.0)
            * (0.4 + 1.2 * utilization)
            * state.impairment.latency_multiplier
        )
        return 2.0 * state.base_one_way_delay_s + 2.0 * mean_queue

    def sample_rtt_to_pop_s(self, t_s: float) -> float:
        """One random terminal<->PoP RTT draw at ``t_s``."""
        state = self.link_state(t_s)
        if state.outage:
            return OUTAGE_RTT_PENALTY_S
        multiplier = state.impairment.latency_multiplier
        queueing = self._wireless_queue(t_s) + self._wireless_queue(t_s)
        return 2.0 * state.base_one_way_delay_s + multiplier * queueing

    def loss_rate(self, t_s: float, residual: float = 0.002) -> float:
        """Steady-state (non-handover) packet-loss probability at ``t_s``."""
        state = self.link_state(t_s)
        if state.outage:
            return 1.0
        return min(1.0, residual + state.impairment.extra_loss_rate)

    def capacity_bps(
        self, t_s: float, downlink: bool = True, noisy: bool = True
    ) -> float:
        """Weather-adjusted achievable rate at ``t_s``, bits/s."""
        return self.capacity.capacity_bps(t_s, downlink, noisy) * (
            self.link_state(t_s).impairment.capacity_multiplier
        )

    # -- packet-level plumbing ---------------------------------------------

    def link_delay_provider(self, time_offset_s: float = 0.0):
        """One-way delay callable for :class:`repro.net.link.Link`.

        ``time_offset_s`` maps simulation time (which starts at 0 for
        each experiment) onto campaign time.
        """

        def delay(now_s: float) -> float:
            state = self.link_state(now_s + time_offset_s)
            if state.outage:
                return OUTAGE_RTT_PENALTY_S / 2.0
            return state.base_one_way_delay_s

        def delay_batch(times_s) -> np.ndarray:
            # The serving satellite — and with it the bent-pipe delay —
            # is fixed per 15 s scheduler epoch, so one scalar
            # evaluation per epoch present in the chunk covers every
            # packet (the batch engine's chunked event horizon).
            times = np.asarray(times_s, dtype=float)
            epochs = np.floor_divide(
                times + time_offset_s, STARLINK_RESCHEDULE_INTERVAL_S
            ).astype(np.int64)
            unique, first, inverse = np.unique(
                epochs, return_index=True, return_inverse=True
            )
            values = np.array([delay(float(times[i])) for i in first])
            return values[inverse]

        delay.batch = delay_batch
        return delay

    def wireless_extra_delay_provider(self, time_offset_s: float = 0.0):
        """Queueing sampler for the bent-pipe link (packet level)."""

        def extra(now_s: float) -> float:
            return self._wireless_queue(now_s + time_offset_s)

        return extra

    def handover_loss_model(
        self,
        start_s: float,
        end_s: float,
        seed: int = 0,
        burst_duration_s: float = 4.0,
        burst_loss: float = 0.26,
        outage_loss: float = 0.85,
        residual_loss: float = 0.002,
        step_s: float = 1.0,
        time_offset_s: float | None = None,
        warmup_s: float = 90.0,
    ):
        """Build the handover-gated burst-loss model for a time window.

        Runs a :class:`SatelliteTracker` over ``[start_s - warmup_s,
        end_s]`` (campaign time), converts its handover events into
        burst windows, and returns ``(loss_model, events, samples)``.
        The warm-up matters: a cold tracker has just selected the best
        satellite, so short windows would almost never see a handover;
        warming up gives the serving satellite a realistic age.  The
        loss model's windows are expressed in *simulation* time, i.e.
        shifted by ``-time_offset_s`` (default: ``-start_s``); events
        and samples are returned in campaign time, warm-up included.
        """
        from repro.net.loss import HandoverBurstLoss

        if time_offset_s is None:
            time_offset_s = start_s
        tracker = SatelliteTracker(
            self.shell,
            self.terminal,
            min_elevation_deg=self.min_elevation_deg,
        )
        samples, events = tracker.track(max(0.0, start_s - warmup_s), end_s, step_s)
        shifted = [
            type(event)(
                t_s=event.t_s - time_offset_s,
                from_satellite=event.from_satellite,
                to_satellite=event.to_satellite,
                reason=event.reason,
            )
            for event in events
        ]
        model = HandoverBurstLoss.from_handovers(
            shifted,
            rng=stream(seed, "handover-loss", self.city_name),
            burst_duration_s=burst_duration_s,
            burst_loss=burst_loss,
            outage_loss=outage_loss,
            residual_loss=residual_loss,
        )
        return model, events, samples
