"""Serving-satellite tracker and handover tests."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.orbits.tracking import HandoverReason, SatelliteTracker


@pytest.fixture(scope="module")
def shell():
    return starlink_shell1(n_planes=24, sats_per_plane=12)


@pytest.fixture()
def tracker(shell):
    return SatelliteTracker(shell, city("london").location)


def test_first_event_is_acquisition(tracker):
    _, events = tracker.track(0.0, 30.0, 1.0)
    assert events[0].reason is HandoverReason.ACQUIRED
    assert events[0].from_satellite is None
    assert events[0].to_satellite is not None


def test_stays_connected_over_london(tracker):
    samples, _ = tracker.track(0.0, 600.0, 1.0)
    connected = sum(1 for s in samples if s.connected)
    assert connected / len(samples) > 0.95


def test_handover_events_change_satellite(tracker):
    _, events = tracker.track(0.0, 900.0, 1.0)
    for event in events:
        assert event.from_satellite != event.to_satellite


def test_handovers_happen_within_15_minutes(tracker):
    _, events = tracker.track(0.0, 900.0, 1.0)
    non_acquired = [e for e in events if e.reason is not HandoverReason.ACQUIRED]
    assert non_acquired, "a 15-minute window must contain handovers (passes are short)"


def test_reschedules_only_on_epoch_boundaries(tracker):
    _, events = tracker.track(0.0, 900.0, 1.0)
    for event in events:
        if event.reason is HandoverReason.RESCHEDULE:
            assert event.t_s % tracker.reschedule_interval_s == pytest.approx(0.0)


def test_serving_elevation_above_mask(tracker):
    samples, _ = tracker.track(0.0, 300.0, 5.0)
    for sample in samples:
        if sample.connected:
            # Mid-epoch dips are cut at the mask by LOS_LOST handling.
            assert sample.elevation_deg >= tracker.min_elevation_deg - 1e-6


def test_invalid_reschedule_interval():
    shell = starlink_shell1(n_planes=4, sats_per_plane=3)
    with pytest.raises(ConfigurationError):
        SatelliteTracker(shell, city("london").location, reschedule_interval_s=0.0)


def test_sparse_shell_produces_outages():
    sparse = starlink_shell1(n_planes=8, sats_per_plane=4)
    tracker = SatelliteTracker(sparse, city("london").location)
    samples, events = tracker.track(0.0, 3600.0, 5.0)
    disconnected = [s for s in samples if not s.connected]
    connected = [s for s in samples if s.connected]
    assert disconnected, "a 32-satellite shell cannot cover London continuously"
    assert connected, "a 32-satellite shell gives intermittent coverage"
    # Intermittent coverage implies connected -> disconnected transitions,
    # which must be reported as OUTAGE or LOS_LOST handovers.
    assert any(
        e.reason in (HandoverReason.OUTAGE, HandoverReason.LOS_LOST) for e in events
    )


def test_tracker_deterministic(shell):
    a = SatelliteTracker(shell, city("london").location)
    b = SatelliteTracker(shell, city("london").location)
    samples_a, events_a = a.track(0.0, 300.0, 1.0)
    samples_b, events_b = b.track(0.0, 300.0, 1.0)
    assert [s.serving for s in samples_a] == [s.serving for s in samples_b]
    assert [(e.t_s, e.reason) for e in events_a] == [
        (e.t_s, e.reason) for e in events_b
    ]
