"""Discrete-event simulation core.

A classic heap-driven event loop.  Callbacks are scheduled at absolute or
relative times; ties are broken by insertion order so runs are fully
deterministic.  The simulator carries no global state — multiple
simulators can coexist (the test suite relies on this), and every
per-run counter (event sequence, packet ids, flow ids) lives on the
instance.

Each scheduled event is its own heap entry, the list ``[time_s,
sequence, callback, args]`` that :meth:`Simulator.schedule` returns as
the event's handle.  The unique sequence breaks time ties by insertion
order, so heap comparisons run in C and never reach the callback.
:meth:`Simulator.cancel` clears the entry's callback, and so does
:meth:`Simulator.run` when it fires the event: a cleared entry is
skipped when it surfaces.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.packet import PacketIdAllocator

_COMPACT_MIN_HEAP = 64
"""Never bother compacting heaps smaller than this."""

_COMPACT_RATIO = 4
"""Compact when cancelled entries outnumber live ones this many times."""

EventEntry = list
"""A scheduled event: ``[time_s, sequence, callback, args]``; the
callback slot is ``None`` once the event has fired or been cancelled."""


class Simulator:
    """Deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator()
        event = sim.schedule(1.0, my_callback, arg1)
        sim.cancel(event)  # optional
        sim.run(until=10.0)

    Attributes:
        packet_ids: The run-scoped :class:`PacketIdAllocator` nodes and
            links draw packet ids from — ids restart at 1 for every
            fresh simulator.
    """

    def __init__(self) -> None:
        self._heap: list[EventEntry] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._cancelled = 0  # cancelled entries still in the heap
        self.packet_ids = PacketIdAllocator()
        self._flow_ids = itertools.count(1)

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of *live* (not cancelled, not yet fired) events.

        Cancelled events are excluded the moment :meth:`cancel` runs,
        even though their heap entries are only physically removed when
        they surface (or at the next compaction) — so idle and teardown
        logic can trust this count.
        """
        return len(self._heap) - self._cancelled

    def flow_id(self, kind: str) -> str:
        """A run-scoped flow id ``"<kind>-<n>"``, with ``n`` counting
        from 1 over every flow id this simulator has handed out."""
        return f"{kind}-{next(self._flow_ids)}"

    def schedule(
        self, delay_s: float, callback: Callable[..., None], *args: Any
    ) -> EventEntry:
        """Schedule ``callback(*args)`` after ``delay_s`` seconds and
        return the event's handle for :meth:`cancel`.

        Raises:
            SimulationError: on negative delay.
        """
        if delay_s < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_s})")
        return self.schedule_at(self._now + delay_s, callback, *args)

    def schedule_at(
        self, time_s: float, callback: Callable[..., None], *args: Any
    ) -> EventEntry:
        """Schedule ``callback(*args)`` at absolute time ``time_s`` and
        return the event's handle for :meth:`cancel`."""
        if time_s < self._now:
            raise SimulationError(
                f"cannot schedule at {time_s} < now {self._now}"
            )
        entry = [time_s, next(self._sequence), callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: EventEntry) -> None:
        """Prevent a scheduled callback from running (no-op if it has
        already fired or been cancelled)."""
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        # Lazily compact: a long-running flow cancels an RTO event per
        # ACK, so the heap would otherwise grow without bound relative
        # to the live set.  Compact in place: :meth:`run` holds a local
        # alias of the list while callbacks cancel events.
        heap = self._heap
        if len(heap) > _COMPACT_MIN_HEAP and len(heap) > _COMPACT_RATIO * max(
            1, len(heap) - self._cancelled
        ):
            heap[:] = [live for live in heap if live[2] is not None]
            heapify(heap)
            self._cancelled = 0

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> int:
        """Run until the event queue drains or ``until`` is reached.

        Returns the number of events executed.  ``max_events`` guards
        against runaway simulations.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        horizon = math.inf if until is None else until
        try:
            while heap:
                entry = heap[0]
                time_s = entry[0]
                if time_s > horizon:
                    break
                callback = entry[2]
                if callback is None:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                # Check *before* executing: the guard must stop at exactly
                # max_events callbacks, leaving the excess event queued.
                if executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                heappop(heap)
                entry[2] = None
                self._now = time_s
                callback(*entry[3])
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed
