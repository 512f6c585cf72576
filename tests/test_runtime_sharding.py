"""Sharded campaign engine: determinism, planning, merge, stats."""

import pickle

import pytest

from repro.errors import ConfigurationError, DatasetError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import merge_shard_results, plan_shards, run_shard
from repro.runtime.shard import ShardColumns, ShardStats


SMALL = dict(
    seed=11,
    duration_s=4 * 86_400.0,
    request_fraction=0.05,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)


@pytest.fixture(scope="module")
def serial_dataset():
    return ExtensionCampaign(CampaignConfig(**SMALL)).run()


def test_more_workers_than_users(serial_dataset):
    """Worker count above the population size degrades gracefully."""
    campaign = ExtensionCampaign(CampaignConfig(**SMALL, n_workers=64))
    sharded = campaign.run()
    assert sharded.page_loads == serial_dataset.page_loads
    assert campaign.last_run_stats.n_workers == 64
    assert sum(s.n_users for s in campaign.last_run_stats.shards) == len(
        campaign.population.users
    )


def test_run_user_is_order_independent():
    """A user's records do not depend on who ran before them."""
    config = CampaignConfig(**SMALL)
    forward = ExtensionCampaign(config)
    backward = ExtensionCampaign(config)
    users = forward.population.users
    first_forward = forward.run_user(users[0])
    # Run the same user *after* everyone else in a fresh campaign.
    for user in reversed(backward.population.users[1:]):
        backward.run_user(user)
    first_backward = backward.run_user(backward.population.users[0])
    assert first_forward == first_backward


def test_plan_shards_balanced_and_deterministic():
    costs = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    shards = plan_shards(costs, 2)
    assert shards == plan_shards(costs, 2)
    assert sorted(i for shard in shards for i in shard) == list(range(6))
    loads = [sum(costs[i] for i in shard) for shard in shards]
    # LPT: the heavy item sits alone-ish; loads stay within one item.
    assert max(loads) - min(loads) <= max(costs)


def test_plan_shards_rejects_zero_shards():
    with pytest.raises(ConfigurationError):
        plan_shards([1.0], 0)


def test_config_rejects_zero_workers():
    """--workers 0 must fail loudly, not silently run serially."""
    with pytest.raises(ConfigurationError):
        CampaignConfig(**SMALL, n_workers=0)


def test_merge_rejects_overlapping_shards():
    shards = [ShardColumns(), ShardColumns()]
    for shard in shards:
        shard.add(0, [], [])
    stats = ShardStats(shard_id=0, n_users=1)
    with pytest.raises(DatasetError):
        merge_shard_results([shard.result(i, stats) for i, shard in enumerate(shards)])


def test_run_shard_reports_stats():
    config = CampaignConfig(**SMALL)
    result = run_shard(config, 3, [0, 1])
    assert result.shard_id == 3
    assert result.stats.n_users == 2
    assert result.stats.wall_s > 0.0
    assert (
        result.stats.n_records == result.stats.n_page_loads + result.stats.n_speedtests
    )
    assert result.user_indices == [0, 1]


def test_shard_result_pickles_without_record_objects():
    """A worker ships its shard as columns, encoded once in the worker:
    the pickled result references neither record class."""
    result = run_shard(CampaignConfig(**SMALL, speedtest_boost=50.0), 0, [0, 1])
    assert result.stats.n_page_loads and result.stats.n_speedtests
    payload = pickle.dumps(result)
    assert b"PageLoadRecord" not in payload
    assert b"SpeedtestRecord" not in payload
    assert len(result.page_load_arrays["user_index"]) == result.stats.n_page_loads
    assert len(result.speedtest_arrays["user_index"]) == result.stats.n_speedtests


def test_serial_run_records_stats(serial_dataset):
    campaign = ExtensionCampaign(CampaignConfig(**SMALL))
    campaign.run()
    stats = campaign.last_run_stats
    assert stats.n_workers == 1
    assert len(stats.shards) == 1
    assert stats.n_records == len(serial_dataset.page_loads) + len(
        serial_dataset.speedtests
    )
    assert "worker" in stats.summary()


def test_geometry_cache_shared_across_users():
    """Per-user bent pipes of one city can share one serving timeline,
    the packet-level geometry cache: the second user's lookups hit it,
    while each user's link-state table stays its own."""
    from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S

    campaign = ExtensionCampaign(CampaignConfig(**SMALL))
    users = [u for u in campaign.population.users if u.isp.is_starlink]
    first, second = users[0], users[1]
    assert first.city_name == second.city_name  # London Starlink block
    first_pipe = campaign.bentpipe_for_user(first)
    second_pipe = campaign.bentpipe_for_user(second)
    timeline = first_pipe.build_timeline(0.0, 3600.0)
    second_pipe.attach_timeline(timeline)
    hits_before = timeline.hits
    state = second_pipe.link_state(100.0)
    assert timeline.hits == hits_before + 1  # second user hit the cache
    epoch = int(100.0 // STARLINK_RESCHEDULE_INTERVAL_S)
    assert state.geometry == first_pipe._scan_epoch(epoch)
    assert epoch in second_pipe.link_states
    assert epoch not in first_pipe.link_states


def test_campaign_link_states_are_batch_filled(monkeypatch):
    """Every link state a campaign reads is batch-filled: the lazy scan
    never runs, ``geometry_scans`` counts each (Starlink user, epoch)
    pair touched once, and the repeat lookups are table hits."""
    from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
    from repro.starlink.bentpipe import BentPipeModel

    def no_scan(self, epoch):
        raise AssertionError(f"lazy scan of epoch {epoch}")

    touched = set()
    link_state = BentPipeModel.link_state

    def recording_link_state(self, t_s):
        touched.add((self.user_key, int(t_s // STARLINK_RESCHEDULE_INTERVAL_S)))
        return link_state(self, t_s)

    monkeypatch.setattr(BentPipeModel, "_scan_epoch", no_scan)
    monkeypatch.setattr(BentPipeModel, "link_state", recording_link_state)
    campaign = ExtensionCampaign(CampaignConfig(**SMALL))
    campaign.run()
    stats = campaign.last_run_stats
    assert len({user for user, _ in touched}) > 1
    assert stats.geometry_scans == len(touched)
    assert stats.geometry_hits > 0
    assert stats.timeline_hits == 0


def test_sharded_experiment_metrics():
    """Experiments surface the engine's throughput counters."""
    from repro.experiments import run_experiment

    result = run_experiment("table1", seed=1, scale=0.05, n_workers=2)
    assert result.metrics["campaign_n_workers"] == 2.0
    assert result.metrics["campaign_wall_s"] > 0.0
