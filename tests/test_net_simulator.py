"""Discrete-event simulator tests."""

import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.simulator import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(3.0, log.append, "c")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(2.0, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule(1.0, log.append, tag)
    sim.run()
    assert log == ["a", "b", "c"]


def test_now_advances():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_early():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "early")
    sim.schedule(10.0, log.append, "late")
    executed = sim.run(until=5.0)
    assert log == ["early"]
    assert executed == 1
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert log == ["early", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    log = []
    event = sim.schedule(1.0, log.append, "x")
    sim.cancel(event)
    sim.run()
    assert log == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_not_reentrant():
    sim = Simulator()
    failures = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            failures.append(True)

    sim.schedule(0.0, reenter)
    sim.run()
    assert failures == [True]


def test_pending_events_counter():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_max_events_stops_at_exact_boundary():
    """The guard fires before executing event max_events + 1."""
    sim = Simulator()
    log = []

    def forever():
        log.append(sim.now)
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)
    assert len(log) == 100  # exactly max_events callbacks ran
    assert sim.pending_events == 1  # the excess event was never popped


def test_max_events_exact_count_allowed():
    """A run needing exactly max_events callbacks completes cleanly."""
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=10) == 10


def test_max_events_skips_cancelled_events():
    """Cancelled events do not count against the budget."""
    sim = Simulator()
    for i in range(5):
        sim.cancel(sim.schedule(float(i), lambda: None))
    sim.schedule(10.0, lambda: None)
    assert sim.run(max_events=1) == 1


def test_pending_events_excludes_cancelled():
    """Regression: ``pending_events`` reported raw heap length, so
    cancelled-but-not-yet-popped entries (every rescheduled RTO) made
    idle/teardown logic think work remained."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    sim.cancel(events[1])
    assert sim.pending_events == 2
    sim.cancel(events[1])  # double-cancel must not double-decrement
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_heap_compaction_bounds_cancelled_entries():
    """A flow cancelling one event per ack must not grow the heap
    without bound relative to the live set."""
    sim = Simulator()
    keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(8)]
    for i in range(5000):
        sim.cancel(sim.schedule(1.0 + i * 1e-3, lambda: None))
    assert sim.pending_events == len(keep)
    assert len(sim._heap) < 256  # lazily compacted, not 5008


def test_compaction_inside_run_keeps_order_and_count():
    """Cancelling from inside a callback compacts the heap while
    :meth:`Simulator.run` is popping from it: the survivors, and the
    events scheduled after the compaction, still fire in (time,
    insertion) order, and ``pending_events`` stays exact throughout."""
    sim = Simulator()
    log = []

    def fire(tag):
        log.append((sim.now, tag, sim.pending_events))

    doomed = [sim.schedule(3.0 + i * 1e-3, fire, "doomed") for i in range(500)]
    for i in range(6):
        sim.schedule(2.0 + i % 3, fire, f"early{i}")
    seen = {}

    def cancel_most():
        for event in doomed:
            sim.cancel(event)
        seen["pending"] = sim.pending_events
        seen["heap"] = len(sim._heap)
        for i in range(3):
            sim.schedule(1.0 + i, fire, f"late{i}")

    sim.schedule(1.0, cancel_most)
    assert sim.run() == 1 + 6 + 3
    assert seen["pending"] == 6
    assert seen["heap"] < 64  # compacted during the run, not 506
    assert log == [
        (2.0, "early0", 8),
        (2.0, "early3", 7),
        (2.0, "late0", 6),
        (3.0, "early1", 5),
        (3.0, "early4", 4),
        (3.0, "late1", 3),
        (4.0, "early2", 2),
        (4.0, "early5", 1),
        (4.0, "late2", 0),
    ]
    assert sim.pending_events == 0 and not sim._heap


# -- differential property: the heap against a sorted reference -------------

#: Event times and delays on a coarse grid, so exact ties are common.
_TIMES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0])


class _ReferenceLoop:
    """The event loop's contract spelled out: fire the live event with
    the least ``(time, insertion order)`` until none is left at or
    before the horizon, cancelling and scheduling as the programs say."""

    def __init__(self, times, programs, bulk):
        self.times = list(times)
        self.status = ["pending"] * len(self.times)
        self.programs = programs
        self.bulk = bulk
        self.now = 0.0
        self.fired = []

    def cancel(self, k):
        if k < len(self.status) and self.status[k] == "pending":
            self.status[k] = "cancelled"

    def run(self, until=None, max_events=50_000_000):
        horizon = math.inf if until is None else until
        executed = 0
        while True:
            live = [
                (t, k) for k, t in enumerate(self.times) if self.status[k] == "pending"
            ]
            if not live or min(live)[0] > horizon:
                break
            if executed >= max_events:
                return "raised"
            time_s, k = min(live)
            self.status[k] = "fired"
            self.now = time_s
            self.fired.append(k)
            executed += 1
            cancels, delays, cancel_bulk = self.programs.get(k, ((), (), False))
            for target in cancels:
                self.cancel(target)
            if cancel_bulk:
                for target in self.bulk:
                    self.cancel(target)
            for delay in delays:
                self.times.append(self.now + delay)
                self.status.append("pending")
        if until is not None and self.now < until:
            self.now = until
        return executed

    @property
    def pending(self):
        return self.status.count("pending")


@st.composite
def _schedules(draw):
    n = draw(st.integers(1, 20))
    n_bulk = draw(st.sampled_from([0, 0, 90, 160]))
    times = draw(st.lists(_TIMES, min_size=n, max_size=n))
    times += [t + 3.0 for t in draw(st.lists(_TIMES, min_size=n_bulk, max_size=n_bulk))]
    total = n + n_bulk
    program = st.tuples(
        st.lists(st.integers(0, total + 10), max_size=3),  # cancels, any state
        st.lists(_TIMES, max_size=2),  # delays of events to schedule
        st.booleans(),  # cancel every bulk event
    )
    # Programs for the ordinary events, and for scheduled ones when
    # there is no bulk.
    programs = draw(st.dictionaries(st.integers(0, n + 5), program, max_size=n))
    return {
        "times": times,
        "bulk": list(range(n, total)),
        "programs": programs,
        "pre_cancels": draw(st.lists(st.integers(0, total - 1), max_size=8)),
        "pre_cancel_bulk": n_bulk > 0 and draw(st.booleans()),
        "until": draw(st.none() | _TIMES | st.just(3.5)),
        "max_events": draw(st.none() | st.integers(0, 30)),
    }


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(_schedules())
def test_event_loop_matches_sorted_reference(case):
    """Ties, cancels before and during ``run`` (double, after firing,
    of the firing event itself, and bulk cancels that compact the heap),
    ``until`` horizons and a ``max_events`` budget: the heap fires what
    the reference fires, in its order, and agrees on ``run``'s result
    and on ``pending_events`` after each of two runs."""
    sim = Simulator()
    reference = _ReferenceLoop(case["times"], case["programs"], case["bulk"])
    entries = []
    fired = []

    def fire(k):
        fired.append(k)
        cancels, delays, cancel_bulk = case["programs"].get(k, ((), (), False))
        for target in cancels:
            if target < len(entries):
                sim.cancel(entries[target])
        if cancel_bulk:
            for target in case["bulk"]:
                sim.cancel(entries[target])
        for delay in delays:
            entries.append(sim.schedule(delay, fire, len(entries)))

    for k, time_s in enumerate(case["times"]):
        entries.append(sim.schedule_at(time_s, fire, k))
    cancels = case["pre_cancels"] + (case["bulk"] if case["pre_cancel_bulk"] else [])
    for target in cancels:
        sim.cancel(entries[target])
        reference.cancel(target)
    assert sim.pending_events == reference.pending

    budget = {} if case["max_events"] is None else {"max_events": case["max_events"]}
    for until in (case["until"], None):
        try:
            result = sim.run(until=until, **budget)
        except SimulationError:
            result = "raised"
        assert result == reference.run(until=until, **budget)
        assert fired == reference.fired
        assert sim.pending_events == reference.pending
        assert sim.now == reference.now
        budget = {}
    assert sim.pending_events == 0
