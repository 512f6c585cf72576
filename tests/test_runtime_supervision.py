"""The one multi-process placement: chaos identity, re-dispatch, budget.

The headline acceptance test: for seeded fault plans covering worker
crashes, hangs (recovered by the deadline) and corrupted results, an
``n_workers=4`` campaign on local fabric workers completes and its
merged dataset is bit-identical to the fault-free serial run — with
every survived failure visible in ``CampaignRunStats``.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, DatasetError, ShardFailedError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import (
    FaultPlan,
    corrupt_plan,
    crash_plan,
    hang_plan,
    merge_shard_results,
    plan_shards,
    run_campaign,
    supervise_shards,
)
from repro.runtime.fabric import BACKOFF_MAX_S, FabricCoordinator
from repro.runtime.faults import FaultKind
from repro.runtime.shard import ShardColumns, ShardStats


def _empty_result(shard_id, indices):
    """A shard result covering ``indices``, none of which has records."""
    shard = ShardColumns()
    for index in indices:
        shard.add(index, [], [])
    return shard.result(shard_id, ShardStats(shard_id=shard_id, n_users=len(indices)))


SMALL = dict(
    seed=11,
    duration_s=2 * 86_400.0,
    request_fraction=0.1,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)

#: Fast-failing recovery knobs for chaos tests: hung shards are
#: revoked (and their workers terminated) after 5 s — a healthy shard
#: of the SMALL campaign finishes well under 1 s — and re-dispatches
#: back off in milliseconds.
CHAOS = dict(max_shard_retries=2, shard_timeout_s=5.0, retry_backoff_s=0.01)

#: The failure kind each injected fault is recorded as.
RECORDED_KIND = {
    FaultKind.CRASH: "crash",
    FaultKind.HANG: "timeout",
    FaultKind.CORRUPT: "corrupt",
}


@pytest.fixture(scope="module")
def serial_dataset():
    return ExtensionCampaign(CampaignConfig(**SMALL)).run()


@pytest.fixture(scope="module")
def campaign_users():
    return ExtensionCampaign(CampaignConfig(**SMALL)).population.users


def _run_chaos(plan, n_workers=4, **knobs):
    config = CampaignConfig(**SMALL, n_workers=n_workers, **CHAOS | knobs)
    return run_campaign(config, fault_plan=plan)


@pytest.mark.parametrize(
    "name,plan,expected_kind",
    [
        ("crash", crash_plan([0, 2]), "crash"),
        ("hang", hang_plan([1], hang_s=60.0), "timeout"),
        ("corrupt", corrupt_plan([0, 1, 3]), "corrupt"),
    ],
)
def test_chaos_identity(serial_dataset, name, plan, expected_kind):
    """Crash / hang→timeout / corrupt-result schedules all recover to
    the bit-identical fault-free dataset, with the failures logged."""
    dataset, stats = _run_chaos(plan)
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests
    assert stats.n_failures == len(plan.faults)
    assert all(f.kind == expected_kind for f in stats.failures)
    retried = [s.shard_id for s in stats.shards if s.attempts > 1]
    assert retried == sorted({s for s, _ in plan.faults})
    assert "survived" in stats.summary()
    assert expected_kind in stats.summary()


def test_chaos_identity_seeded_mixed_schedule(serial_dataset):
    """A seeded random schedule mixing every fault kind still recovers."""
    plan = FaultPlan.seeded(
        seed=7, n_shards=4, rate=1.0, hang_s=60.0, slow_s=0.05
    )
    assert plan  # rate=1.0: every shard's first attempt is faulty
    dataset, stats = _run_chaos(plan)
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests
    # SLOW is a straggler, not a failure: it must finish within the
    # deadline and never show up in the failure log.  Every other
    # injected fault is recorded exactly once, with its kind.
    injected = sorted(
        (shard_id, attempt, RECORDED_KIND[f.kind])
        for (shard_id, attempt), f in plan.faults.items()
        if f.kind is not FaultKind.SLOW
    )
    recorded = sorted((f.shard_id, f.attempt, f.kind) for f in stats.failures)
    assert recorded == injected


def test_repeated_crashes_exhaust_then_resume(serial_dataset, tmp_path):
    """A shard crashing on every attempt uses up the re-dispatch budget:
    the run fails only after every other shard is stored, and a resumed
    run re-runs just that shard, bit-identically."""
    plan = crash_plan([1], attempts=(0, 1, 2))
    with pytest.raises(ShardFailedError) as excinfo:
        _run_chaos(plan, checkpoint_dir=str(tmp_path))
    assert [f.kind for f in excinfo.value.failures] == ["crash"] * 3
    assert "shard(s) [1] exhausted 2 re-dispatches" in str(excinfo.value)
    config = CampaignConfig(
        **SMALL, n_workers=4, checkpoint_dir=str(tmp_path), resume=True
    )
    dataset, stats = run_campaign(config)
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests
    assert [s.shard_id for s in stats.shards if not s.resumed] == [1]
    assert stats.resumed_shards == 3


def test_exhausted_retries_raise_without_fallback():
    """Past the budget the run raises; nothing runs the shard in-process."""
    plan = crash_plan([1], attempts=(0, 1))
    with pytest.raises(ShardFailedError) as excinfo:
        _run_chaos(plan, max_shard_retries=1)
    assert [f.kind for f in excinfo.value.failures] == ["crash", "crash"]


def test_worker_exception_logged_as_error():
    """A worker that raises (rather than dies) is logged as 'error' and
    re-dispatched; a shard poisoned on every attempt surfaces the
    exception text in the failure log and the ShardFailedError."""
    # User index 10_000 is out of range for the SMALL population, so
    # every attempt raises IndexError inside the worker.
    config = CampaignConfig(**SMALL, max_shard_retries=1, retry_backoff_s=0.01)
    with pytest.raises(ShardFailedError) as excinfo:
        supervise_shards(config, [(0, [0, 10_000])], 1)
    kinds = [f.kind for f in excinfo.value.failures]
    assert kinds == ["error", "error"]
    assert "IndexError" in excinfo.value.failures[0].detail
    assert "IndexError" in str(excinfo.value)


def test_backoff_is_bounded_exponential(tmp_path):
    """Re-dispatch k of a shard waits ``retry_backoff_s * 2**(k-1)``,
    capped at :data:`BACKOFF_MAX_S`."""
    config = CampaignConfig(**SMALL, retry_backoff_s=0.1, max_shard_retries=10)
    coordinator = FabricCoordinator(config, str(tmp_path), shards=[(0, [0])])
    for attempt in range(6):
        coordinator._schedule_redispatch(0, "crash", "test", attempt, "w")
    backoffs = [e["backoff_s"] for e in coordinator.log.events]
    assert backoffs == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, BACKOFF_MAX_S])


def test_policy_from_config(tmp_path):
    """The coordinator's budget, backoff and deadline cap are the
    config's recovery knobs."""
    config = CampaignConfig(
        **SMALL, max_shard_retries=5, shard_timeout_s=9.0, retry_backoff_s=0.3
    )
    coordinator = FabricCoordinator(config, str(tmp_path), shards=[(0, [0])])
    assert coordinator.max_retries == 5
    assert coordinator.shard_timeout_s == 9.0
    assert coordinator.backoff_base_s == 0.3
    # No percentile samples yet: the timeout alone is the deadline.
    assert coordinator._deadline() == 9.0
    defaults = FabricCoordinator(
        replace(config, max_shard_retries=None, shard_timeout_s=None),
        str(tmp_path),
    )
    assert defaults.max_retries == 8
    assert defaults._deadline() is None


def test_pool_sized_to_tasks_not_workers(campaign_users, serial_dataset):
    """Over-provisioning regression: fewer users than workers must not
    start idle processes (a bare pool started ``n_shards`` processes
    even for empty shards)."""
    dataset, stats = run_campaign(CampaignConfig(**SMALL, n_workers=64))
    assert dataset.page_loads == serial_dataset.page_loads
    assert stats.n_workers == 64
    assert stats.n_worker_processes == len(stats.shards)
    assert stats.n_worker_processes <= len(campaign_users)


def test_spawn_start_method_runs_and_matches(serial_dataset):
    """The spawn path (which also validates task pickling) is exercised
    explicitly — Python 3.14 changes the Linux default, and fork is
    unsafe with threaded parents."""
    config = CampaignConfig(**SMALL, n_workers=2, mp_start_method="spawn")
    dataset, stats = run_campaign(config)
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests
    assert stats.n_failures == 0


def test_config_rejects_bad_supervision_fields():
    with pytest.raises(ConfigurationError):
        CampaignConfig(**SMALL, mp_start_method="threads")
    with pytest.raises(ConfigurationError):
        CampaignConfig(**SMALL, shard_timeout_s=-1.0)
    with pytest.raises(ConfigurationError):
        CampaignConfig(**SMALL, max_shard_retries=-1)
    with pytest.raises(ConfigurationError):
        CampaignConfig(**SMALL, retry_backoff_s=-0.5)


# -- degenerate campaign inputs ----------------------------------------


def test_empty_population_yields_empty_dataset():
    """cities=() filters every user out; the run must still succeed."""
    for n_workers in (1, 4):
        campaign = ExtensionCampaign(
            CampaignConfig(**SMALL | {"cities": ()}, n_workers=n_workers)
        )
        dataset = campaign.run()
        assert dataset.page_loads == [] and dataset.speedtests == []
        stats = campaign.last_run_stats
        assert stats.n_records == 0
        assert stats.summary()  # renders without dividing by zero
        assert stats.n_worker_processes == 0


def test_single_user_across_many_workers():
    """One user, eight workers: one shard, in-process, correct records."""
    config = CampaignConfig(**SMALL | {"cities": ("warsaw",)}, n_workers=8)
    assert len(ExtensionCampaign(config).population.users) == 1
    dataset, stats = run_campaign(config)
    assert len(stats.shards) == 1
    assert stats.shards[0].n_users == 1
    assert stats.n_worker_processes == 0  # single shard runs in-process
    n_records = len(dataset.page_loads) + len(dataset.speedtests)
    assert n_records == stats.n_records


def test_plan_shards_zero_and_nan_costs():
    """Degenerate cost estimates must not break the partition."""
    costs = [0.0, float("nan"), -3.0, float("inf"), 1.0, float("nan")]
    shards = plan_shards(costs, 3)
    assert sorted(i for shard in shards for i in shard) == list(range(6))
    assert shards == plan_shards(costs, 3)  # still deterministic


def test_merge_rejects_missing_planned_user():
    """The retry-world merge check: a lost user index must raise."""
    result = _empty_result(0, [0])
    with pytest.raises(DatasetError, match="missing"):
        merge_shard_results([result], expected_indices={0, 1})


def test_merge_rejects_unplanned_user():
    result = _empty_result(0, [0, 5])
    with pytest.raises(DatasetError, match="outside"):
        merge_shard_results([result], expected_indices={0})


def test_merge_without_expectations_still_catches_duplicates():
    a = _empty_result(0, [0])
    b = _empty_result(1, [0])
    with pytest.raises(DatasetError, match="more than one shard"):
        merge_shard_results([a, b], expected_indices={0})
