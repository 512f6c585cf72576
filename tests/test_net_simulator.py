"""Discrete-event simulator tests."""

import pytest

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
    event.cancel()
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
        sim.schedule(float(i), lambda: None).cancel()
    sim.schedule(10.0, lambda: None)
    assert sim.run(max_events=1) == 1


def test_pending_events_excludes_cancelled():
    """Regression: ``pending_events`` reported raw heap length, so
    cancelled-but-not-yet-popped entries (every rescheduled RTO) made
    idle/teardown logic think work remained."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    events[1].cancel()
    assert sim.pending_events == 2
    events[1].cancel()  # double-cancel must not double-decrement
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_heap_compaction_bounds_cancelled_entries():
    """A flow cancelling one event per ack must not grow the heap
    without bound relative to the live set."""
    sim = Simulator()
    keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(8)]
    for i in range(5000):
        sim.schedule(1.0 + i * 1e-3, lambda: None).cancel()
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
            event.cancel()
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
