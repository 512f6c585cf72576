"""Loss-model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    HandoverBurstLoss,
    NoLoss,
)
from repro.net.packet import Packet, Protocol


def _packet():
    return Packet(src="a", dst="b", protocol=Protocol.UDP, size_bytes=100)


def test_no_loss_never_drops():
    model = NoLoss()
    assert not any(model.should_drop(_packet(), t) for t in np.linspace(0, 10, 50))


def test_bernoulli_zero_and_one():
    rng = np.random.default_rng(0)
    assert not BernoulliLoss(0.0, rng).should_drop(_packet(), 0.0)
    assert BernoulliLoss(1.0, rng).should_drop(_packet(), 0.0)


def test_bernoulli_rate_statistics():
    model = BernoulliLoss(0.3, np.random.default_rng(1))
    drops = sum(model.should_drop(_packet(), 0.0) for _ in range(20_000))
    assert 0.27 < drops / 20_000 < 0.33


def test_bernoulli_validates_rate():
    with pytest.raises(ConfigurationError):
        BernoulliLoss(1.5)


def test_gilbert_elliott_stationary_rate():
    model = GilbertElliottLoss(
        mean_good_s=1.0, mean_bad_s=0.25, loss_good=0.0, loss_bad=0.5,
        rng=np.random.default_rng(2),
    )
    # Long-run rate: (0.0 * 1.0 + 0.5 * 0.25) / (1.0 + 0.25) = 0.1.
    times = np.cumsum(np.full(100_000, 0.001))
    drops = sum(model.should_drop(_packet(), float(t)) for t in times)
    assert 0.06 < drops / len(times) < 0.14


def test_gilbert_elliott_burstiness():
    model = GilbertElliottLoss(
        mean_good_s=5.0, mean_bad_s=0.5, loss_good=0.0, loss_bad=0.9,
        rng=np.random.default_rng(3),
    )
    drops = [model.should_drop(_packet(), t * 0.001) for t in range(200_000)]
    # Conditional probability of a drop following a drop should far
    # exceed the marginal drop rate (bursts).
    marginal = np.mean(drops)
    pairs = [(a, b) for a, b in zip(drops, drops[1:])]
    following = [b for a, b in pairs if a]
    assert np.mean(following) > 3 * marginal


def test_gilbert_elliott_validation():
    with pytest.raises(ConfigurationError):
        GilbertElliottLoss(mean_good_s=0.0, mean_bad_s=1.0)
    with pytest.raises(ConfigurationError):
        GilbertElliottLoss(mean_good_s=1.0, mean_bad_s=1.0, loss_bad=2.0)


def test_handover_burst_loss_inside_windows():
    model = HandoverBurstLoss(
        burst_windows=[(10.0, 14.0, 1.0)], residual_loss=0.0,
        rng=np.random.default_rng(4),
    )
    assert model.loss_probability_at(12.0) == 1.0
    assert model.should_drop(_packet(), 12.5)


def test_handover_burst_residual_outside_windows():
    model = HandoverBurstLoss(
        burst_windows=[(10.0, 14.0, 0.9)], residual_loss=0.25,
        rng=np.random.default_rng(5),
    )
    assert model.loss_probability_at(20.0) == 0.25


def test_handover_burst_overlapping_windows_take_max():
    model = HandoverBurstLoss(
        burst_windows=[(0.0, 10.0, 0.2), (5.0, 8.0, 0.7)],
        rng=np.random.default_rng(6),
    )
    assert model.loss_probability_at(6.0) == 0.7
    assert model.loss_probability_at(9.0) == 0.2


def test_handover_burst_validates_windows():
    with pytest.raises(ConfigurationError):
        HandoverBurstLoss(burst_windows=[(5.0, 4.0, 0.5)])
    with pytest.raises(ConfigurationError):
        HandoverBurstLoss(burst_windows=[(5.0, 6.0, 0.5), (1.0, 2.0, 0.5)])
    with pytest.raises(ConfigurationError):
        HandoverBurstLoss(burst_windows=[(1.0, 2.0, 1.5)])


def test_from_handovers_skips_acquired():
    from repro.orbits.tracking import HandoverEvent, HandoverReason

    events = [
        HandoverEvent(0.0, None, "S-1", HandoverReason.ACQUIRED),
        HandoverEvent(30.0, "S-1", "S-2", HandoverReason.RESCHEDULE),
        HandoverEvent(60.0, "S-2", None, HandoverReason.LOS_LOST),
    ]
    model = HandoverBurstLoss.from_handovers(events, np.random.default_rng(7))
    assert len(model.burst_windows) == 2
    # The LOS_LOST window is longer than the reschedule window.
    reschedule, los_lost = model.burst_windows
    assert (los_lost[1] - los_lost[0]) == pytest.approx(
        2 * (reschedule[1] - reschedule[0])
    )


def test_from_handovers_severity_ordering():
    from repro.orbits.tracking import HandoverEvent, HandoverReason

    rng = np.random.default_rng(8)
    events = [
        HandoverEvent(10.0 + 60 * i, "A", "B", HandoverReason.RESCHEDULE)
        for i in range(200)
    ]
    model = HandoverBurstLoss.from_handovers(
        events, rng, severity_sigma=0.0, burst_loss=0.3
    )
    assert all(p == pytest.approx(0.3) for _, _, p in model.burst_windows)


def test_composite_loss_any_drop():
    composite = CompositeLoss(
        models=[NoLoss(), BernoulliLoss(1.0, np.random.default_rng(9))]
    )
    assert composite.should_drop(_packet(), 0.0)


def test_composite_extra_rate():
    composite = CompositeLoss(models=[], extra_rate=1.0, rng=np.random.default_rng(10))
    assert composite.should_drop(_packet(), 0.0)
    with pytest.raises(ConfigurationError):
        CompositeLoss(models=[], extra_rate=2.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0))
def test_burst_probability_bounded_property(t):
    model = HandoverBurstLoss(
        burst_windows=[(10.0, 20.0, 0.8), (40.0, 45.0, 0.3)], residual_loss=0.01,
        rng=np.random.default_rng(11),
    )
    assert 0.0 <= model.loss_probability_at(t) <= 1.0


def test_handover_burst_rewinds_on_time_reversal():
    """Reusing the model at earlier times must not skip past windows."""
    model = HandoverBurstLoss(
        burst_windows=[(10.0, 20.0, 0.8), (40.0, 45.0, 0.3)],
        residual_loss=0.01,
        rng=np.random.default_rng(12),
    )
    assert model.loss_probability_at(15.0) == pytest.approx(0.8)
    assert model.loss_probability_at(50.0) == pytest.approx(0.01)
    # Second simulator run re-offers packets from t=0: before the fix
    # the cursor stayed past both windows and returned residual loss.
    assert model.loss_probability_at(15.0) == pytest.approx(0.8)
    assert model.loss_probability_at(42.0) == pytest.approx(0.3)


def test_handover_burst_reset():
    model = HandoverBurstLoss(
        burst_windows=[(10.0, 20.0, 0.8)],
        residual_loss=0.0,
        rng=np.random.default_rng(13),
    )
    assert model.loss_probability_at(100.0) == 0.0
    model.reset()
    assert model._cursor == 0
    assert model.loss_probability_at(15.0) == pytest.approx(0.8)


def test_gilbert_elliott_reset_restarts_in_good_state():
    model = GilbertElliottLoss(
        mean_good_s=1.0,
        mean_bad_s=1.0,
        loss_good=0.0,
        loss_bad=1.0,
        rng=np.random.default_rng(14),
    )
    # Drive far into the future so the chain has toggled many times.
    for t in np.linspace(0.0, 200.0, 500):
        model.should_drop(_packet(), float(t))
    model.reset()
    assert model._in_bad is False
    assert model._initialised is False
    # Freshly reset, t=0 is in the initial good sojourn: never drops.
    assert not model.should_drop(_packet(), 0.0)


def test_gilbert_elliott_guards_non_monotonic_time():
    """A time reversal restarts the chain instead of reusing future state."""
    model = GilbertElliottLoss(
        mean_good_s=0.1,
        mean_bad_s=1000.0,
        loss_good=0.0,
        loss_bad=1.0,
        rng=np.random.default_rng(15),
    )
    # March the chain into the (sticky) bad state.
    dropped_late = any(
        model.should_drop(_packet(), float(t)) for t in np.linspace(0.0, 50.0, 200)
    )
    assert dropped_late
    assert model._in_bad
    # Rewinding to t=0 (a fresh simulator run) must not inherit the bad
    # state scheduled for the future.
    model.should_drop(_packet(), 0.0)
    assert model._last_now_s == 0.0
    assert not model._in_bad


def test_composite_advances_stateful_components_behind_drops():
    """An earlier component's drop must not freeze later components.

    Regression: ``should_drop`` used to short-circuit on the first
    dropping component, so a Gilbert-Elliott chain sitting behind a
    bursty component stopped advancing its clock (and consuming its
    RNG draws) during every burst, making its burst pattern depend on
    the other component's drops.
    """

    def chain():
        return GilbertElliottLoss(
            mean_good_s=0.5,
            mean_bad_s=0.5,
            loss_good=0.0,
            loss_bad=1.0,
            rng=np.random.default_rng(42),
        )

    behind_dropper = chain()
    standalone = chain()
    composite = CompositeLoss(
        models=[BernoulliLoss(1.0, np.random.default_rng(18)), behind_dropper]
    )
    drive = [float(t) for t in np.linspace(0.0, 20.0, 400)]
    for t in drive:
        assert composite.should_drop(_packet(), t)
        standalone.should_drop(_packet(), t)
    # Both chains saw the same packet times, so their state and RNG
    # streams must line up exactly from here on.
    follow = [float(t) for t in np.linspace(20.0, 40.0, 400)]
    assert [behind_dropper.should_drop(_packet(), t) for t in follow] == [
        standalone.should_drop(_packet(), t) for t in follow
    ]


def test_composite_reset_delegates():
    gilbert = GilbertElliottLoss(
        mean_good_s=1.0, mean_bad_s=1.0, rng=np.random.default_rng(16)
    )
    burst = HandoverBurstLoss(
        burst_windows=[(0.0, 1.0, 0.5)], rng=np.random.default_rng(17)
    )
    composite = CompositeLoss(models=[NoLoss(), gilbert, burst])
    composite.should_drop(_packet(), 10.0)
    composite.reset()
    assert burst._cursor == 0
    assert gilbert._initialised is False
