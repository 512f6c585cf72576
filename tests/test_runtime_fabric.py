"""The campaign fabric: chaos identity, re-dispatch, plan adoption.

The fabric's acceptance criterion lives here: a fabric campaign with at
least two workers — one killed mid-shard (recovered from its process
handle, or from heartbeat expiry when the worker is on another host),
one straggling (recovered via deadline-based re-dispatch) — produces a
dataset bit-identical to the serial run, and the coordinator's
structured log records every lease transition.
"""

import json
import os
import tempfile
import time

import pytest

from repro.errors import (
    CampaignCancelledError,
    ConfigurationError,
    FabricError,
    ShardFailedError,
)
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import (
    FaultKind,
    campaign_fingerprint,
    crash_plan,
    host_chaos_plan,
    plan_campaign,
    run_fabric_campaign,
)
from repro.runtime.fabric import (
    CANCELLED_MARKER,
    FabricCoordinator,
    FabricPaths,
    _fabric_worker_entry,
    fabric_status,
    load_plan,
    run_fabric_worker,
    write_or_adopt_plan,
)
from repro.runtime.faults import CRASH_EXITCODE, Fault, FaultPlan
from repro.runtime.store import FsStore
from repro.runtime.supervision import mp_context, supervise_shards

SMALL = dict(
    seed=11,
    duration_s=2 * 86_400.0,
    request_fraction=0.1,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)

#: Tight timings so recovery paths run in test time, not fleet time.
#: The straggler floor sits ABOVE the lease TTL so the two recovery
#: paths stay distinguishable: a dead worker's lease expires at the TTL
#: (1.5s) before the straggler deadline (2.5s) can touch it, while a
#: live-but-slow worker keeps heartbeating past the TTL and is only
#: caught by the deadline.
FAST = dict(
    lease_ttl_s=1.5,
    heartbeat_interval_s=0.1,
    straggler_floor_s=2.5,
)


@pytest.fixture(scope="module")
def serial_dataset():
    return ExtensionCampaign(CampaignConfig(**SMALL)).run()


def _assert_identical(dataset, serial_dataset):
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests


def test_fabric_clean_run_identical_to_serial(serial_dataset):
    dataset, stats = run_fabric_campaign(
        CampaignConfig(**SMALL), n_workers=2, n_shards=4, **FAST
    )
    _assert_identical(dataset, serial_dataset)
    assert stats.n_shards == 4
    assert stats.redispatched_shards == 0
    assert len(stats.transitions("shard_completed")) == 4
    assert len(stats.transitions("lease_claimed")) == 4
    assert stats.transitions("campaign_completed")


def test_fabric_chaos_identity(serial_dataset, tmp_path):
    """The acceptance criterion: one worker killed mid-shard, one
    delayed into straggler territory — the merged dataset is
    bit-identical to serial and every recovery is in the lease log."""
    fault_plan = host_chaos_plan(
        dead_shards=(0,), straggler_shards=(1,), straggle_s=8.0
    )
    fabric_dir = str(tmp_path / "fabric")
    dataset, stats = run_fabric_campaign(
        CampaignConfig(**SMALL),
        n_workers=3,
        fabric_dir=fabric_dir,
        n_shards=6,
        fault_plan=fault_plan,
        **FAST,
    )
    _assert_identical(dataset, serial_dataset)
    # The killed worker: the coordinator saw its process exit, revoked
    # shard 0's lease at once and re-dispatched it.
    revoked = stats.transitions("lease_revoked")
    assert any(e["shard_id"] == 0 and e["kind"] == "crash" for e in revoked)
    # The straggler: shard 1 was held heartbeating past the percentile
    # deadline, revoked (its worker terminated), and completed by
    # someone else.
    stragglers = stats.transitions("lease_straggler")
    assert any(e["shard_id"] == 1 for e in stragglers)
    assert sorted((f.shard_id, f.attempt, f.kind) for f in stats.failures) == [
        (0, 0, "crash"),
        (1, 0, "timeout"),
    ]
    # The crashed worker was replaced while most shards remained.
    replaced = stats.transitions("worker_replaced")
    assert replaced and len(replaced) <= 2
    redispatched = stats.transitions("shard_redispatched")
    assert {e["shard_id"] for e in redispatched} >= {0, 1}
    assert stats.redispatched_shards >= 2
    assert stats.stolen_shards >= 1
    # Every shard completed exactly once; recovered shards record the
    # extra attempt.
    completed = stats.transitions("shard_completed")
    assert sorted(e["shard_id"] for e in completed) == list(range(6))
    by_shard = {e["shard_id"]: e for e in completed}
    assert by_shard[0]["attempts"] >= 2
    assert by_shard[1]["attempts"] >= 2
    # The structured log is also on disk, one JSON object per line,
    # and records the same transitions.
    log_path = os.path.join(fabric_dir, "log.jsonl")
    with open(log_path, "r", encoding="utf-8") as handle:
        on_disk = [json.loads(line) for line in handle if line.strip()]
    assert [e["type"] for e in on_disk] == [e["type"] for e in stats.events]


def test_external_worker_death_expires_its_lease(serial_dataset, tmp_path):
    """A worker on another host that dies mid-shard has no process
    handle here: its lease expires at the TTL, and the shard is
    re-dispatched to a surviving worker."""
    config = CampaignConfig(**SMALL)
    fabric_dir = str(tmp_path / "fabric")
    workers = [
        mp_context(config).Process(
            target=_fabric_worker_entry,
            args=(fabric_dir, f"remote-w{rank}", 0.1, crash_plan([0])),
            daemon=True,
        )
        for rank in range(2)
    ]
    for process in workers:
        process.start()
    try:
        dataset, stats = run_fabric_campaign(
            config, n_workers=0, fabric_dir=fabric_dir, n_shards=4, **FAST
        )
    finally:
        for process in workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
    _assert_identical(dataset, serial_dataset)
    expired = stats.transitions("lease_expired")
    assert [e["shard_id"] for e in expired] == [0]
    assert [(f.shard_id, f.attempt, f.kind) for f in stats.failures] == [
        (0, 0, "lost")
    ]


def test_fabric_torn_segment_quarantined(serial_dataset, tmp_path):
    """A worker tears its spilled segment after completing: the
    coordinator's validation rejects the manifest, quarantines the
    segment, re-dispatches — and the dataset still comes out exact."""
    fabric_dir = str(tmp_path / "fabric")
    dataset, stats = run_fabric_campaign(
        CampaignConfig(**SMALL),
        n_workers=2,
        fabric_dir=fabric_dir,
        n_shards=4,
        fault_plan=host_chaos_plan(torn_shards=(2,)),
        **FAST,
    )
    _assert_identical(dataset, serial_dataset)
    assert stats.quarantined_segments >= 1
    quarantined = stats.transitions("segment_quarantined")
    assert any(e["shard_id"] == 2 for e in quarantined)
    paths = FabricPaths(fabric_dir)
    assert os.listdir(paths.quarantine)  # the torn file was kept
    # The rejected manifest was moved aside, not deleted.
    assert any(
        ".rejected-" in name
        for name in os.listdir(os.path.join(fabric_dir, "manifests"))
    )


def test_fabric_lease_loss_speculative_completion(serial_dataset):
    """A fenced worker (simulated lease loss) still finishes; its
    manifest competes under first-wins and the dataset stays exact."""
    dataset, stats = run_fabric_campaign(
        CampaignConfig(**SMALL),
        n_workers=2,
        n_shards=4,
        fault_plan=host_chaos_plan(lease_loss_shards=(1,)),
        **FAST,
    )
    _assert_identical(dataset, serial_dataset)
    completed = stats.transitions("shard_completed")
    assert sorted(e["shard_id"] for e in completed) == list(range(4))


def test_int_duration_config_runs_on_the_fabric():
    """Configs cross the fabric as JSON, which turns every number into
    a float; an int ``duration_s`` must fingerprint (and run) the same
    as its float twin, or every worker refuses the plan."""
    int_config = CampaignConfig(**SMALL | {"duration_s": 7200})
    float_config = CampaignConfig(**SMALL | {"duration_s": 7200.0})
    assert campaign_fingerprint(int_config) == campaign_fingerprint(float_config)
    dataset, _ = run_fabric_campaign(int_config, n_workers=2, **FAST)
    _assert_identical(dataset, ExtensionCampaign(float_config).run())


# -- plan publication and adoption --------------------------------------


def test_plan_write_then_adopt(tmp_path):
    config = CampaignConfig(**SMALL)
    store = FsStore(str(tmp_path))
    plan = write_or_adopt_plan(config, store, plan_campaign(config, 3)[1])
    adopted = write_or_adopt_plan(config, store, plan_campaign(config, 7)[1])
    # The published partition wins over a restarted coordinator's args.
    assert adopted.shards == plan.shards
    assert adopted.fingerprint == plan.fingerprint
    assert load_plan(store).shards == plan.shards


def test_plan_rejects_foreign_fingerprint(tmp_path):
    store = FsStore(str(tmp_path))
    write_or_adopt_plan(CampaignConfig(**SMALL), store, [(0, [0]), (1, [1])])
    other = CampaignConfig(**{**SMALL, "seed": 12})
    with pytest.raises(FabricError):
        write_or_adopt_plan(other, store, [(0, [0]), (1, [1])])


def test_coordinator_restart_adopts_completed_shards(
    serial_dataset, tmp_path
):
    """Coordinator death loses nothing: a new coordinator over the same
    fabric directory accepts the existing manifests and merges without
    re-running a single shard."""
    fabric_dir = str(tmp_path / "fabric")
    first, _ = run_fabric_campaign(
        CampaignConfig(**SMALL), n_workers=2, fabric_dir=fabric_dir,
        n_shards=4, **FAST,
    )
    coordinator = FabricCoordinator(CampaignConfig(**SMALL), fabric_dir)
    dataset, stats = coordinator.run()
    _assert_identical(dataset, serial_dataset)
    assert len(stats.transitions("shard_resumed")) == 4
    assert stats.resumed_shards == 4
    assert all(s.resumed for s in stats.shards)
    # No worker ran: the completions came from adopted manifests.
    assert not stats.transitions("lease_claimed")


def _cancel_after_first_shard(accepted):
    """``on_result``/``should_stop`` hooks cancelling once a shard lands."""

    def on_result(result):
        accepted.append(result.shard_id)

    return on_result, lambda: bool(accepted)


#: Shards 1-7 of 8 sleep through their first attempt, so a run
#: cancelled after its first shard has work left however fast shard 0
#: runs.
SLOW_TAIL = FaultPlan(
    {(shard_id, 0): Fault(FaultKind.SLOW, delay_s=30.0) for shard_id in range(1, 8)}
)


def test_coordinator_restart_after_cancel_finishes_the_run(
    serial_dataset, tmp_path
):
    """A run cancelled after its first shard leaves a CANCELLED marker
    and stale leases behind; a coordinator restarted over the same
    directory clears them, adopts the finished shard without re-running
    it, and finishes the run."""
    fabric_dir = str(tmp_path / "fabric")
    accepted = []
    on_result, should_stop = _cancel_after_first_shard(accepted)
    with pytest.raises(CampaignCancelledError):
        run_fabric_campaign(
            CampaignConfig(**SMALL), n_workers=2, fabric_dir=fabric_dir,
            n_shards=8, fault_plan=SLOW_TAIL, on_result=on_result,
            should_stop=should_stop, **FAST,
        )
    assert FsStore(fabric_dir).exists(CANCELLED_MARKER)
    dataset, stats = run_fabric_campaign(
        CampaignConfig(**SMALL), n_workers=2, fabric_dir=fabric_dir,
        n_shards=8, **FAST,
    )
    _assert_identical(dataset, serial_dataset)
    resumed = {e["shard_id"] for e in stats.transitions("shard_resumed")}
    assert resumed >= set(accepted) and accepted
    assert stats.resumed_shards == len(resumed) < 8
    claimed = {e["shard_id"] for e in stats.transitions("lease_claimed")}
    assert not claimed & resumed
    assert stats.n_failures == 0


def test_temporary_fabric_dir_removed_when_cancelled(monkeypatch, tmp_path):
    """A run without a fabric directory uses a temporary one, and
    leaves the temporary directory as it found it however it ends."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    accepted = []
    on_result, should_stop = _cancel_after_first_shard(accepted)
    with pytest.raises(CampaignCancelledError):
        run_fabric_campaign(
            CampaignConfig(**SMALL), n_workers=2, n_shards=8,
            fault_plan=SLOW_TAIL, on_result=on_result, should_stop=should_stop,
            **FAST,
        )
    assert accepted
    assert os.listdir(scratch) == []
    # The same holds when a run fails, or its coordinator cannot start.
    with pytest.raises(ShardFailedError):
        run_fabric_campaign(
            CampaignConfig(**SMALL, max_shard_retries=0), n_workers=1,
            n_shards=2, fault_plan=crash_plan([1]), **FAST,
        )
    assert os.listdir(scratch) == []
    with pytest.raises(TypeError):
        supervise_shards(CampaignConfig(**SMALL), [(0, [0])], 1, bogus_option=1)
    assert os.listdir(scratch) == []


def test_coordinator_only_run_needs_a_fabric_dir(monkeypatch, tmp_path):
    """A coordinator-only run without a fabric directory would wait for
    workers that cannot know its temporary directory: it is refused at
    once, before any directory is created."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    started = time.monotonic()

    def should_stop():
        return time.monotonic() - started > 3.0

    with pytest.raises(ConfigurationError, match="fabric_dir"):
        run_fabric_campaign(
            CampaignConfig(**SMALL), 0, should_stop=should_stop, **FAST
        )
    with pytest.raises(ConfigurationError, match="fabric_dir"):
        supervise_shards(
            CampaignConfig(**SMALL), [(0, [0])], 0, None, should_stop=should_stop
        )
    assert not should_stop()
    assert os.listdir(scratch) == []


def test_worker_times_out_without_plan(tmp_path):
    with pytest.raises(FabricError, match="no fabric plan"):
        run_fabric_worker(str(tmp_path), plan_wait_s=0.2)


def test_worker_fails_at_once_on_a_malformed_plan(tmp_path):
    """A plan that is there but is not a plan fails the worker with the
    parser's error at once, instead of being waited for."""
    store = FsStore(str(tmp_path))
    store.put_json("plan.json", {"version": 3, "fingerprint": "abc"})
    started = time.monotonic()
    with pytest.raises(FabricError, match="malformed fabric plan") as error:
        run_fabric_worker(str(tmp_path), plan_wait_s=5.0)
    assert time.monotonic() - started < 1.0
    assert store.path_for("plan.json") in str(error.value)
    assert "lease_ttl_s" in str(error.value)
    # The coordinator's adopt path and the status view share the parser.
    with pytest.raises(FabricError, match="malformed fabric plan"):
        write_or_adopt_plan(CampaignConfig(**SMALL), store)
    with pytest.raises(FabricError, match="malformed fabric plan"):
        fabric_status(str(tmp_path))


def test_worker_waits_for_a_plan_that_is_not_json_yet(tmp_path):
    store = FsStore(str(tmp_path))
    store.put("plan.json", b'{"version": 3, "fingerpr')
    assert load_plan(store) is None
    with pytest.raises(FabricError, match="no fabric plan"):
        run_fabric_worker(str(tmp_path), plan_wait_s=0.2)


def test_worker_exits_on_terminal_marker(tmp_path):
    FsStore(str(tmp_path)).put_json(CANCELLED_MARKER, {})
    summary = run_fabric_worker(str(tmp_path), plan_wait_s=30.0)
    assert summary["shards_completed"] == 0


def test_fabric_store_keyword_accepts_only_fs():
    """``fs`` is the one coordination store: any other value is refused
    before a directory is created or a worker started."""
    with pytest.raises(ConfigurationError, match="fabric_store"):
        run_fabric_campaign(CampaignConfig(**SMALL), 1, fabric_store="object")


def test_redispatch_cap_gives_up(tmp_path):
    """A shard past ``max_shard_retries`` re-dispatches fails the run
    with ShardFailedError — after the other shard is stored."""
    fabric_dir = str(tmp_path / "fabric")
    config = CampaignConfig(**SMALL, max_shard_retries=1, retry_backoff_s=0.01)
    with pytest.raises(ShardFailedError, match="exhausted 1 re-dispatch") as error:
        run_fabric_campaign(
            config, n_workers=2, fabric_dir=fabric_dir, n_shards=2,
            fault_plan=crash_plan([0], attempts=(0, 1)), **FAST,
        )
    assert [(f.shard_id, f.kind) for f in error.value.failures] == [
        (0, "crash"),
        (0, "crash"),
    ]
    status = fabric_status(fabric_dir)
    assert status["terminal"] == "FAILED"
    assert status["completed_shards"] == 1


def test_fabric_worker_joins_before_plan(serial_dataset, tmp_path):
    """Workers started before the coordinator wait for its plan, then
    do all the work."""
    config = CampaignConfig(**SMALL)
    fabric_dir = str(tmp_path / "fabric")
    context = mp_context(config)
    workers = [
        context.Process(
            target=_fabric_worker_entry,
            args=(fabric_dir, f"early-w{rank}", 0.1, None),
            daemon=True,
        )
        for rank in range(2)
    ]
    for process in workers:
        process.start()
    try:
        time.sleep(0.5)
        # Still waiting: no plan yet, and nobody gave up.
        assert not os.path.exists(os.path.join(fabric_dir, "plan.json"))
        assert all(process.is_alive() for process in workers)
        dataset, stats = run_fabric_campaign(
            config, n_workers=0, fabric_dir=fabric_dir, n_shards=4, **FAST
        )
    finally:
        for process in workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
    _assert_identical(dataset, serial_dataset)
    completed = stats.transitions("shard_completed")
    assert sorted(e["shard_id"] for e in completed) == list(range(4))
    assert {e["worker_id"] for e in completed} <= {"early-w0", "early-w1"}


def test_fabric_status_view(tmp_path):
    fabric_dir = str(tmp_path / "fabric")
    empty = fabric_status(fabric_dir)
    assert empty["planned"] is False
    dataset, _ = run_fabric_campaign(
        CampaignConfig(**SMALL), n_workers=2, fabric_dir=fabric_dir,
        n_shards=3, **FAST,
    )
    status = fabric_status(fabric_dir)
    assert status["planned"] is True
    assert status["n_shards"] == 3
    assert status["completed_shards"] == 3
    assert status["terminal"] == "DONE"
    assert status["leases"] == []  # all released
    states = {doc["state"] for doc in status["workers"]}
    assert states <= {"exited"}  # every worker signed off


def test_fabric_status_signs_off_a_crashed_worker(tmp_path):
    """A local worker that crashed cannot write its own registry
    document: the coordinator writes it ``exited`` with the exit code,
    so the status shows no dead worker as ``running``."""
    fabric_dir = str(tmp_path / "fabric")
    _, stats = run_fabric_campaign(
        CampaignConfig(**SMALL), n_workers=2, fabric_dir=fabric_dir,
        n_shards=2, fault_plan=crash_plan([0]), **FAST,
    )
    (revoked,) = stats.transitions("lease_revoked")
    assert revoked["kind"] == "crash"
    workers = {doc["worker_id"]: doc for doc in fabric_status(fabric_dir)["workers"]}
    assert all(doc["state"] != "running" for doc in workers.values()), workers
    crashed = workers[revoked["worker_id"]]
    assert crashed["state"] == "exited"
    assert crashed["exitcode"] == CRASH_EXITCODE
    assert crashed["shard_id"] is None
