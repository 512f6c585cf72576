"""Discrete-event simulation core.

A classic heap-driven event loop.  Callbacks are scheduled at absolute or
relative times; ties are broken by insertion order so runs are fully
deterministic.  The simulator carries no global state — multiple
simulators can coexist (the test suite relies on this), and every
per-run counter (event sequence, packet ids) lives on the instance.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.packet import PacketIdAllocator

_COMPACT_MIN_HEAP = 64
"""Never bother compacting heaps smaller than this."""

_COMPACT_RATIO = 4
"""Compact when cancelled entries outnumber live ones this many times."""


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = ("callback", "args", "cancelled", "fired", "time_s", "_on_cancel")

    def __init__(
        self, time_s: float, callback: Callable[..., None], args: tuple[Any, ...]
    ):
        self.time_s = time_s
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._on_cancel: Callable[[], None] | None = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired
        or already cancelled)."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


class Simulator:
    """Deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg1)
        sim.run(until=10.0)

    Attributes:
        packet_ids: The run-scoped :class:`PacketIdAllocator` nodes and
            links draw packet ids from — ids restart at 1 for every
            fresh simulator.
    """

    def __init__(self) -> None:
        # Entries are ``(time_s, sequence, event)`` tuples: the unique
        # sequence breaks time ties by insertion order, so heap
        # comparisons run in C and never reach the event.
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._live = 0
        self.packet_ids = PacketIdAllocator()

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of *live* (not cancelled, not yet fired) events.

        Cancelled events are excluded the moment :meth:`Event.cancel`
        runs, even though their heap entries are only physically removed
        when they surface (or at the next compaction) — so idle and
        teardown logic can trust this count.
        """
        return self._live

    def _note_cancel(self) -> None:
        self._live -= 1
        # Lazily compact: a long-running flow cancels an RTO event per
        # ACK, so the heap would otherwise grow without bound relative
        # to the live set.  Compact in place: :meth:`run` holds a local
        # alias of the list while callbacks cancel events.
        if (
            len(self._heap) > _COMPACT_MIN_HEAP
            and len(self._heap) > _COMPACT_RATIO * max(1, self._live)
        ):
            self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
            heapq.heapify(self._heap)

    def schedule(
        self, delay_s: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay_s`` seconds.

        Raises:
            SimulationError: on negative delay.
        """
        if delay_s < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_s})")
        return self.schedule_at(self._now + delay_s, callback, *args)

    def schedule_at(
        self, time_s: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_s``."""
        if time_s < self._now:
            raise SimulationError(
                f"cannot schedule at {time_s} < now {self._now}"
            )
        event = Event(time_s, callback, args)
        event._on_cancel = self._note_cancel
        heapq.heappush(self._heap, (time_s, next(self._sequence), event))
        self._live += 1
        return event

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
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        try:
            while heap:
                time_s, _, event = heap[0]
                if time_s > horizon:
                    break
                if event.cancelled:
                    heappop(heap)
                    continue
                # Check *before* executing: the guard must stop at exactly
                # max_events callbacks, leaving the excess event queued.
                if executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                heappop(heap)
                self._live -= 1
                event.fired = True
                self._now = time_s
                event.callback(*event.args)
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed
