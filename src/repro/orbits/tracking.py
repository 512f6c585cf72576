"""Serving-satellite tracking and handover events.

Starlink terminals are (re)assigned to satellites on a fixed scheduler
epoch (~15 s).  Between epochs a terminal keeps its serving satellite; if
the satellite drops below the elevation mask mid-epoch the link breaks
until a new assignment ("line-of-sight lost" handover).  The paper's
Figure 7 correlates exactly these events with packet-loss bursts, so the
tracker reports every handover with its cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.constants import (
    STARLINK_MIN_ELEVATION_DEG,
    STARLINK_RESCHEDULE_INTERVAL_S,
)
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import WalkerShell
from repro.orbits.visibility import _enu_components, geometry_grid_chunks


class HandoverReason(Enum):
    """Why the serving satellite changed."""

    ACQUIRED = "acquired"  # first assignment / recovery from outage
    RESCHEDULE = "reschedule"  # scheduler epoch chose a different satellite
    LOS_LOST = "los_lost"  # serving satellite dropped below the mask
    OUTAGE = "outage"  # no satellite visible at all


@dataclass(frozen=True)
class HandoverEvent:
    """A change of serving satellite."""

    t_s: float
    from_satellite: str | None
    to_satellite: str | None
    reason: HandoverReason


@dataclass(frozen=True)
class TrackingSample:
    """Tracker state at one sample instant."""

    t_s: float
    serving: str | None
    elevation_deg: float
    slant_range_m: float

    @property
    def connected(self) -> bool:
        """Whether a serving satellite is assigned."""
        return self.serving is not None


@dataclass
class SatelliteTracker:
    """Tracks the serving satellite for one terminal over time.

    Attributes:
        shell: The constellation shell.
        observer: Terminal location.
        min_elevation_deg: Usability mask, degrees.
        reschedule_interval_s: Scheduler epoch; reassignments happen on
            multiples of this interval (15 s for Starlink).

    At each scheduling decision the highest visible satellite wins,
    ties to the lowest index: the rule the bent pipe's scan uses.
    """

    shell: WalkerShell
    observer: GeoPoint
    min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG
    reschedule_interval_s: float = STARLINK_RESCHEDULE_INTERVAL_S
    _serving: str | None = field(default=None, init=False)
    _serving_index: int = field(default=-1, init=False)
    _last_epoch: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        if self.reschedule_interval_s <= 0:
            raise ConfigurationError(
                f"reschedule interval must be positive: {self.reschedule_interval_s}"
            )

    def _select_from_row(self, elevation: np.ndarray) -> int:
        """Index of the satellite the scheduler picks, or -1 (outage)."""
        visible_idx = np.nonzero(elevation >= self.min_elevation_deg)[0]
        best_i = -1
        best_elev = -math.inf
        for i in visible_idx:
            if elevation[i] > best_elev:
                best_i = int(i)
                best_elev = float(elevation[i])
        return best_i

    def _step_from_row(
        self,
        t_s: float,
        east: np.ndarray,
        north: np.ndarray,
        up: np.ndarray,
        elevation: np.ndarray,
    ) -> tuple[TrackingSample, HandoverEvent | None]:
        """The scheduler state machine, fed one row of batch geometry.

        Both :meth:`step` and :meth:`track` route through here, so a
        sweep and a loop of single steps are identical by construction.
        """
        epoch = int(t_s // self.reschedule_interval_s)
        event: HandoverEvent | None = None
        previous = self._serving
        previous_idx = self._serving_index

        serving_visible = False
        if previous is not None:
            serving_visible = bool(
                elevation[previous_idx] >= self.min_elevation_deg
            )

        if epoch != self._last_epoch:
            # Scheduler epoch boundary: free reassignment.
            self._last_epoch = epoch
            chosen_idx = self._select_from_row(elevation)
            chosen = (
                self.shell.satellites[chosen_idx].name if chosen_idx >= 0 else None
            )
            if chosen != previous:
                if chosen is None:
                    reason = HandoverReason.OUTAGE
                elif previous is None:
                    reason = HandoverReason.ACQUIRED
                elif not serving_visible:
                    reason = HandoverReason.LOS_LOST
                else:
                    reason = HandoverReason.RESCHEDULE
                event = HandoverEvent(t_s, previous, chosen, reason)
                self._serving = chosen
                self._serving_index = chosen_idx
        elif previous is not None and not serving_visible:
            # Mid-epoch loss of line of sight: link breaks immediately.
            event = HandoverEvent(t_s, previous, None, HandoverReason.LOS_LOST)
            self._serving = None
            self._serving_index = -1

        if self._serving is None:
            sample = TrackingSample(t_s, None, float("-inf"), 0.0)
        else:
            i = self._serving_index
            slant = math.sqrt(
                east[i] * east[i] + north[i] * north[i] + up[i] * up[i]
            )
            sample = TrackingSample(
                t_s, self._serving, float(elevation[i]), float(slant)
            )
        return sample, event

    def step(self, t_s: float) -> tuple[TrackingSample, HandoverEvent | None]:
        """Advance the tracker to ``t_s`` and return (sample, event?).

        Must be called with non-decreasing timestamps.  An event is
        returned only when the serving satellite changes at this step.
        """
        positions = self.shell.positions_ecef(t_s)
        east, north, up = _enu_components(self.observer, positions)
        horizontal = np.hypot(east, north)
        elevation = np.degrees(np.arctan2(up, horizontal))
        return self._step_from_row(t_s, east, north, up, elevation)

    def track(
        self, start_s: float, end_s: float, step_s: float = 1.0
    ) -> tuple[list[TrackingSample], list[HandoverEvent]]:
        """Run the tracker over a window; returns samples and handovers.

        Geometry for the whole sweep comes from the chunked batch
        kernel (one propagation per chunk instead of one per sample);
        results are identical to calling :meth:`step` per sample.
        """
        samples: list[TrackingSample] = []
        events: list[HandoverEvent] = []
        times = np.arange(start_s, end_s, step_s)
        for offset, east, north, up, elevation in geometry_grid_chunks(
            self.shell, self.observer, times
        ):
            for r in range(elevation.shape[0]):
                sample, event = self._step_from_row(
                    float(times[offset + r]),
                    east[r],
                    north[r],
                    up[r],
                    elevation[r],
                )
                samples.append(sample)
                if event is not None:
                    events.append(event)
        return samples, events
