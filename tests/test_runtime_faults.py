"""Fault-injection layer: plans, determinism, what a corrupt result trips."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.extension.campaign import CampaignConfig
from repro.extension.records import SpeedtestRecord
from repro.runtime import (
    CheckpointStore,
    Fault,
    FaultKind,
    FaultPlan,
    ShardResult,
    ShardStats,
    corrupt_plan,
    crash_plan,
    hang_plan,
    host_chaos_plan,
)
from repro.runtime.faults import apply_post_run
from repro.runtime.shard import ShardColumns


def _speedtest(user: int) -> SpeedtestRecord:
    return SpeedtestRecord(f"u-{user}", "london", "starlink", True, 0.0, 1.0, 1.0, 1.0)


def _result(shard_id=0, indices=(0, 1)) -> ShardResult:
    """A shard result whose users each have one speedtest per index."""
    shard = ShardColumns()
    for index in indices:
        shard.add(index, [], [_speedtest(index)] * (index + 1))
    return shard.result(shard_id, ShardStats(shard_id=shard_id, n_users=len(indices)))


def test_plan_lookup_and_truthiness():
    plan = crash_plan([0, 2], attempts=(0, 1))
    assert plan
    assert plan.fault_for(0, 0).kind is FaultKind.CRASH
    assert plan.fault_for(2, 1).kind is FaultKind.CRASH
    assert plan.fault_for(1, 0) is None
    assert plan.fault_for(0, 2) is None
    assert not FaultPlan()


def test_plan_helpers_cover_all_kinds():
    assert all(
        f.kind is FaultKind.HANG and f.delay_s == 60.0
        for f in hang_plan([0, 1], hang_s=60.0).faults.values()
    )
    assert all(
        f.kind is FaultKind.CORRUPT
        for f in corrupt_plan([3]).faults.values()
    )
    # A dead host is a crash after the claim, a straggler a hang that
    # keeps heartbeating: the mixed plan uses the same six kinds.
    mixed = host_chaos_plan(
        dead_shards=(0,), straggler_shards=(1,), torn_shards=(2,),
        lease_loss_shards=(3,), straggle_s=8.0,
    )
    assert [mixed.fault_for(s, 0).kind for s in range(4)] == [
        FaultKind.CRASH,
        FaultKind.HANG,
        FaultKind.TORN_SEGMENT,
        FaultKind.LEASE_LOSS,
    ]
    assert mixed.fault_for(1, 0).delay_s == 8.0
    assert len(FaultKind) == 6


def test_seeded_plan_is_deterministic():
    a = FaultPlan.seeded(seed=5, n_shards=8)
    b = FaultPlan.seeded(seed=5, n_shards=8)
    assert a.faults == b.faults
    # The schedule is keyed on the seed: across a few seeds at least
    # one must differ (all identical would mean the seed is ignored).
    assert any(
        FaultPlan.seeded(seed=s, n_shards=8).faults != a.faults
        for s in (6, 7, 8)
    )


def test_seeded_plan_respects_rate_bounds():
    assert not FaultPlan.seeded(seed=1, n_shards=16, rate=0.0)
    full = FaultPlan.seeded(seed=1, n_shards=16, rate=1.0)
    assert len(full.faults) == 16
    with pytest.raises(ConfigurationError):
        FaultPlan.seeded(seed=1, n_shards=4, rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultPlan.seeded(seed=1, n_shards=4, kinds=())


def test_plan_pickles_for_spawn_workers():
    plan = FaultPlan.seeded(seed=3, n_shards=4)
    assert pickle.loads(pickle.dumps(plan)) == plan


def _segment_store(tmp_path) -> CheckpointStore:
    return CheckpointStore(str(tmp_path), CampaignConfig(seed=3, duration_s=3600.0))


def test_corrupt_drops_a_user(tmp_path):
    result = _result(indices=(4, 7, 9))
    tampered = apply_post_run(Fault(FaultKind.CORRUPT), result)
    assert tampered.user_indices == [4, 7]
    assert tampered.speedtest_arrays["user_index"].tolist() == [4] * 5 + [7] * 8
    assert tampered.speedtest_arrays["user_id"].tolist() == ["u-4"] * 5 + ["u-7"] * 8
    assert len(tampered.page_load_arrays["t_s"]) == 0
    # The spilled segment fails the coordinator's user-index check.
    store = _segment_store(tmp_path)
    store.save(tampered)
    assert store.load(0, [4, 7, 9]) is None
    assert store.load(0, [4, 7]) is not None


def test_corrupt_empty_shard_still_observable(tmp_path):
    result = _result(indices=())
    tampered = apply_post_run(Fault(FaultKind.CORRUPT), result)
    # The skewed shard id spills elsewhere: the planned shard's segment
    # is missing, so its load fails.
    store = _segment_store(tmp_path)
    store.save(tampered)
    assert store.load(0, []) is None
