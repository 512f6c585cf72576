"""Supervised campaign runtime: chaos identity, retries, degradation.

The headline acceptance test: for seeded fault plans covering worker
crashes, hangs (recovered by timeout) and corrupted results, a
supervised ``n_workers=4`` campaign completes and its merged dataset
is bit-identical to the fault-free serial run — with every survived
failure visible in ``CampaignRunStats``.
"""

import pytest

from repro.errors import ConfigurationError, DatasetError, ShardFailedError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import (
    FaultPlan,
    SupervisorPolicy,
    corrupt_plan,
    crash_plan,
    hang_plan,
    merge_shard_results,
    plan_shards,
    run_campaign,
    supervise_shards,
)
from repro.runtime.faults import FaultKind
from repro.runtime.shard import ShardResult, ShardStats

SMALL = dict(
    seed=11,
    duration_s=2 * 86_400.0,
    request_fraction=0.1,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)

#: Fast-failing policy for chaos tests: hung shards are killed after
#: 5 s (a healthy shard of the SMALL campaign finishes well under 1 s),
#: retries back off in milliseconds.
CHAOS_POLICY = SupervisorPolicy(
    max_retries=2, shard_timeout_s=5.0, backoff_base_s=0.01
)


@pytest.fixture(scope="module")
def serial_dataset():
    return ExtensionCampaign(CampaignConfig(**SMALL)).run()


@pytest.fixture(scope="module")
def campaign_users():
    return ExtensionCampaign(CampaignConfig(**SMALL)).population.users


def _run_chaos(plan, policy=CHAOS_POLICY, n_workers=4):
    config = CampaignConfig(**SMALL, n_workers=n_workers)
    return run_campaign(config, policy=policy, fault_plan=plan)


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
    assert stats.n_retried_shards == len({s for s, _ in plan.faults})
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
    # timeout and never show up in the failure log.
    injected_failures = sum(
        1 for f in plan.faults.values() if f.kind is not FaultKind.SLOW
    )
    assert stats.n_failures == injected_failures


def test_repeated_crashes_degrade_to_in_process(serial_dataset):
    """A shard crashing on every worker attempt falls back in-process."""
    plan = crash_plan([1], attempts=(0, 1, 2))
    dataset, stats = _run_chaos(plan)
    assert dataset.page_loads == serial_dataset.page_loads
    assert [f.kind for f in stats.failures] == ["crash"] * 3
    fallback = [s for s in stats.shards if s.shard_id == 1]
    assert fallback[0].attempts == CHAOS_POLICY.max_retries + 2


def test_exhausted_retries_raise_without_fallback():
    policy = SupervisorPolicy(
        max_retries=1, backoff_base_s=0.01, in_process_fallback=False
    )
    plan = crash_plan([1], attempts=(0, 1))
    with pytest.raises(ShardFailedError) as excinfo:
        _run_chaos(plan, policy=policy)
    assert [f.kind for f in excinfo.value.failures] == ["crash", "crash"]


def test_worker_exception_logged_as_error():
    """A worker that raises (rather than dies) is logged as 'error' and
    retried; a shard poisoned on every attempt surfaces the exception
    text in the ShardFailedError log."""
    # User index 10_000 is out of range for the SMALL population, so
    # every attempt raises IndexError inside the worker.
    tasks = [(CampaignConfig(**SMALL), 0, [0, 10_000], None)]
    policy = SupervisorPolicy(
        max_retries=1, backoff_base_s=0.01, in_process_fallback=False
    )
    with pytest.raises(ShardFailedError) as excinfo:
        supervise_shards(tasks, 1, policy=policy)
    kinds = [f.kind for f in excinfo.value.failures]
    assert kinds == ["error", "error"]
    assert "IndexError" in excinfo.value.failures[0].detail


def test_supervisor_policy_validation():
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(shard_timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(backoff_base_s=-0.1)


def test_backoff_is_bounded_exponential():
    policy = SupervisorPolicy(backoff_base_s=0.1, backoff_max_s=0.5)
    assert policy.backoff_s(0) == pytest.approx(0.1)
    assert policy.backoff_s(1) == pytest.approx(0.2)
    assert policy.backoff_s(10) == pytest.approx(0.5)


def test_policy_from_config():
    config = CampaignConfig(**SMALL, max_shard_retries=5, shard_timeout_s=9.0)
    policy = SupervisorPolicy.from_config(config)
    assert policy.max_retries == 5
    assert policy.shard_timeout_s == 9.0


def test_pool_sized_to_tasks_not_workers(campaign_users, serial_dataset):
    """Over-provisioning regression: fewer users than workers must not
    spawn idle processes (the pre-supervision engine spawned
    ``n_shards`` processes even for empty shards)."""
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
    stats = ShardStats(shard_id=0, n_users=1)
    result = ShardResult(shard_id=0, user_records={0: ([], [])}, stats=stats)
    with pytest.raises(DatasetError, match="missing"):
        merge_shard_results([result], expected_indices={0, 1})


def test_merge_rejects_unplanned_user():
    stats = ShardStats(shard_id=0, n_users=2)
    result = ShardResult(
        shard_id=0, user_records={0: ([], []), 5: ([], [])}, stats=stats
    )
    with pytest.raises(DatasetError, match="outside"):
        merge_shard_results([result], expected_indices={0})


def test_merge_without_expectations_still_catches_duplicates():
    stats = ShardStats(shard_id=0, n_users=1)
    a = ShardResult(shard_id=0, user_records={0: ([], [])}, stats=stats)
    b = ShardResult(shard_id=1, user_records={0: ([], [])}, stats=stats)
    with pytest.raises(DatasetError, match="more than one shard"):
        merge_shard_results([a, b], expected_indices={0})
