"""The batch geometry kernel and link states: bit-identity with scans.

The batch kernel (``repro.starlink.timeline``) must reproduce the
single-epoch scan (``BentPipeModel._scan_epoch``) *exactly* — same
serving satellite, same float ranges and elevations — across outages,
obstruction masks and sparse epoch sets, because every precompute
batch-fills a bent pipe's link-state table from it and the determinism
contract rides on them.
"""

import numpy as np
import pytest

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
from repro.errors import ConfigurationError
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.bentpipe import (
    OUTAGE_RTT_PENALTY_S,
    PROCESSING_DELAY_S,
    SCHEDULER_DELAY_S,
    BentPipeModel,
)
from repro.starlink.obstruction import ObstructionMask
from repro.starlink.pop import pop_for_city
from repro.starlink.timeline import compute_serving_timeline
from repro.weather.history import WeatherHistory
from repro.weather.impairment import impairment_for


def _model(city_name="london", shell=None, obstruction=None, **kwargs):
    shell = shell if shell is not None else starlink_shell1(
        n_planes=24, sats_per_plane=12
    )
    pop = pop_for_city(city_name)
    return BentPipeModel(
        shell,
        city(city_name).location,
        pop.gateway,
        city_name,
        obstruction=obstruction,
        **kwargs,
    )


def _hours(n):
    """The scheduler epochs of the first ``n`` hours."""
    return np.arange(int(n * 3600 // STARLINK_RESCHEDULE_INTERVAL_S))


def _kernel(model, epochs, **kwargs):
    return compute_serving_timeline(
        model.shell,
        model.terminal,
        model.gateway,
        epochs,
        min_elevation_deg=model.min_elevation_deg,
        obstruction=model.obstruction,
        **kwargs,
    )


def _assert_matches_scan(model, epochs, geometries):
    """Every kernel geometry equals the scan's, field for field."""
    assert len(geometries) == len(epochs)
    mismatches = 0
    for epoch, got in zip(epochs, geometries):
        expected = model._scan_epoch(int(epoch))
        if expected is None:
            mismatches += got is not None
            continue
        if got is None:
            mismatches += 1
            continue
        same = (
            got.satellite == expected.satellite
            and got.terminal_range_m == expected.terminal_range_m
            and got.gateway_range_m == expected.gateway_range_m
            and got.elevation_deg == expected.elevation_deg
        )
        mismatches += not same
    assert mismatches == 0


def test_timeline_matches_scan_over_multi_hour_window():
    model = _model()
    epochs = _hours(6)
    assert len(epochs) == 6 * 3600 // 15
    _assert_matches_scan(model, epochs, _kernel(model, epochs))


def test_timeline_matches_scan_with_obstruction_and_outages():
    mask = ObstructionMask.generate(seed=3, severity="bad")
    model = _model("seattle", obstruction=mask)
    geometries = _kernel(model, _hours(4))
    _assert_matches_scan(model, _hours(4), geometries)
    # A bad mask must actually produce outage epochs, or the test
    # exercises nothing.
    assert geometries.count(None) > 0


def test_sparse_shell_has_outages_and_matches():
    model = _model(shell=starlink_shell1(n_planes=8, sats_per_plane=4))
    geometries = _kernel(model, _hours(3))
    assert geometries.count(None) > 0
    _assert_matches_scan(model, _hours(3), geometries)


def test_sparse_epoch_set_matches_scan():
    model = _model("barcelona")
    rng = np.random.default_rng(7)
    epochs = np.unique(rng.integers(0, 20_000, size=300))
    _assert_matches_scan(model, epochs, _kernel(model, epochs))


def test_chunking_invariant():
    model = _model()
    reference = _kernel(model, _hours(1))
    for chunk in (1, 17, 10_000):
        assert _kernel(model, _hours(1), chunk_epochs=chunk) == reference


def test_timeline_validates_inputs():
    model = _model()
    with pytest.raises(ConfigurationError):
        _kernel(model, np.array([3, 2, 1]))
    with pytest.raises(ConfigurationError):
        _kernel(model, np.array([2, 2]))
    with pytest.raises(ConfigurationError):
        _kernel(model, _hours(1), chunk_epochs=0)
    assert _kernel(model, np.array([], dtype=np.int64)) == []


def test_campaign_precompute_counts_timeline_hits():
    """The campaign's precompute is the per-user link-state batch fill:
    the stats count it as epochs computed and table hits, and since the
    table is a bent pipe's only geometry cache, timeline hits stay 0."""
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign

    config = CampaignConfig(
        seed=5,
        duration_s=2 * 86_400.0,
        request_fraction=0.2,
        cities=("london",),
        shell_planes=24,
        shell_sats_per_plane=12,
    )
    campaign = ExtensionCampaign(config)
    campaign.run()
    stats = campaign.last_run_stats
    assert stats is not None
    assert sum(shard.geometry_scans for shard in stats.shards) > 0
    assert sum(shard.geometry_hits for shard in stats.shards) > 0
    assert sum(shard.timeline_hits for shard in stats.shards) == 0
    summary = stats.summary()
    assert f"{stats.geometry_scans} epochs computed" in summary
    assert f"{stats.geometry_hits} table hits" in summary
    assert "0 timeline hits" in summary


#: Four hours over Seattle whose weather runs clear sky -> light rain ->
#: moderate rain, so impairments differ between epochs.
WINDOW_S = 4 * 3600.0
WEATHER = WeatherHistory(seed=3, duration_s=WINDOW_S)
#: Query times: several per epoch, some epochs skipped.
TIMES = [float(t) for t in np.arange(0.0, WINDOW_S, 11.0)] + [WINDOW_S]

#: (shell, obstruction): a shell too sparse to cover the terminal, and a
#: badly obstructed dish; both windows include outage epochs.
LINK_CASES = {
    "sparse-shell": dict(planes=8, sats=4, mask=None),
    "obstructed": dict(planes=24, sats=12, mask=3),
}


def _weather_model(case):
    spec = LINK_CASES[case]
    obstruction = None
    if spec["mask"] is not None:
        obstruction = ObstructionMask.generate(seed=spec["mask"], severity="bad")
    return _model(
        "seattle",
        shell=starlink_shell1(n_planes=spec["planes"], sats_per_plane=spec["sats"]),
        obstruction=obstruction,
        weather=WEATHER,
        seed=4,
        user_key="u",
    )


def _analytic(model, t):
    """Every deterministic analytic answer of ``model`` at ``t``."""
    outage = model.is_outage(t)
    return (
        outage,
        model.serving_geometry(t),
        model.impairment_at(t),
        None if outage else model.base_one_way_delay_s(t),
        model.mean_rtt_to_pop_s(t),
        model.loss_rate(t),
        model.capacity_bps(t, noisy=False),
        model.capacity_bps(t, downlink=False, noisy=False),
    )


def _scanned(model, t):
    """The same answers derived per call, from ``_scan_epoch`` and
    ``impairment_for``, with no link state involved."""
    geometry = model._scan_epoch(int(t // STARLINK_RESCHEDULE_INTERVAL_S))
    condition = model.weather.condition_at(model.city_name, t)
    impairment = impairment_for(
        condition, geometry.elevation_deg if geometry is not None else 55.0
    )
    capacity = model.capacity
    down = capacity.capacity_bps(t, True, False) * impairment.capacity_multiplier
    up = capacity.capacity_bps(t, False, False) * impairment.capacity_multiplier
    if geometry is None:
        return (True, None, impairment, None, OUTAGE_RTT_PENALTY_S, 1.0, down, up)
    scheduler = SCHEDULER_DELAY_S * impairment.latency_multiplier
    base = geometry.propagation_delay_s + PROCESSING_DELAY_S + scheduler
    mean_queue = (
        (capacity.plan.wireless_queue_mean_ms / 1000.0)
        * (0.4 + 1.2 * capacity.utilization(t))
        * impairment.latency_multiplier
    )
    return (
        False,
        geometry,
        impairment,
        base,
        2.0 * base + 2.0 * mean_queue,
        min(1.0, 0.002 + impairment.extra_loss_rate),
        down,
        up,
    )


def _draws(model):
    return [(model.sample_rtt_to_pop_s(t), model.capacity_bps(t)) for t in TIMES]


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_link_states_match_per_call_derivation(case):
    """Batch-filled, lazily filled and per-call-derived answers agree
    bit for bit, across outage epochs and weather changes, and a fill
    moves no stochastic draw."""
    n_epochs = len({int(t // STARLINK_RESCHEDULE_INTERVAL_S) for t in TIMES})
    batch = _weather_model(case)
    batch.fill_link_states(TIMES)
    assert batch.link_states.computed == n_epochs
    lazy = _weather_model(case)
    reference = _weather_model(case)
    filled = [_analytic(batch, t) for t in TIMES]
    assert batch.link_states.computed == n_epochs  # nothing filled lazily
    assert filled == [_analytic(lazy, t) for t in TIMES]
    assert filled == [_scanned(reference, t) for t in TIMES]
    assert any(answer[0] for answer in filled), "no outage epoch in the window"
    assert len({answer[2] for answer in filled}) > 2, "weather never changed"
    # The analytic answers draw nothing, so the same-keyed models' RNG
    # streams are still in step.
    assert _draws(batch) == _draws(lazy)


@pytest.mark.parametrize(
    "method",
    [
        "link_state",
        "is_outage",
        "impairment_at",
        "base_one_way_delay_s",
        "mean_rtt_to_pop_s",
        "sample_rtt_to_pop_s",
        "loss_rate",
        "capacity_bps",
    ],
)
def test_cached_epoch_keeps_the_weather_window_check(method):
    """``duration_s + 1`` shares ``duration_s``'s epoch, which is in the
    table, yet still lies outside the weather history."""
    model = _weather_model("obstructed")
    model.fill_link_states([WINDOW_S])
    epoch = int(WINDOW_S // STARLINK_RESCHEDULE_INTERVAL_S)
    assert epoch in model.link_states
    assert int((WINDOW_S + 1.0) // STARLINK_RESCHEDULE_INTERVAL_S) == epoch
    with pytest.raises(ConfigurationError, match="outside weather history"):
        getattr(model, method)(WINDOW_S + 1.0)


def test_negative_mask_candidate_arcs_are_pruned():
    """Masked/negative-elevation terminals get interval-pruned arcs,
    not the dense full-circle fallback."""
    from repro.starlink.timeline import _TWO_PI, _candidate_arcs, _candidate_pairs

    observer = city("london").location
    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    arcs = _candidate_arcs(observer, shell, -5.0)
    assert sum(hi - lo for lo, hi in arcs) < _TWO_PI
    epochs = np.arange(0, 240, dtype=np.int64)
    rows, _ = _candidate_pairs(shell, observer, epochs, -5.0)
    assert len(rows) < len(epochs) * len(shell.satellites)


def test_negative_mask_timeline_matches_scan():
    mask = ObstructionMask.generate(seed=2, severity="bad")
    model = _model(obstruction=mask)
    model.min_elevation_deg = -5.0
    _assert_matches_scan(model, _hours(1), _kernel(model, _hours(1)))


def test_hemispheric_mask_degenerates_to_full_circle():
    from repro.starlink.timeline import _TWO_PI, _candidate_arcs

    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    arcs = _candidate_arcs(city("london").location, shell, -90.0)
    assert arcs == [(0.0, _TWO_PI)]
