"""The multi-host fabric: chaos identity, re-dispatch, plan adoption.

The tentpole acceptance criterion lives here: a fabric campaign with at
least two workers — one killed mid-shard (recovered via heartbeat
expiry), one straggling (recovered via deadline-based re-dispatch) —
produces a dataset bit-identical to the serial run, and the
coordinator's structured log records every lease transition.
"""

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import campaign_fingerprint, host_chaos_plan, run_fabric_campaign
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
from repro.runtime.store import FsStore

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
    straggler_multiplier=2.0,
    straggler_min_samples=2,
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
    # The killed worker: its heartbeats stopped, so shard 0's lease
    # expired and the shard was re-dispatched to a surviving worker.
    expired = stats.transitions("lease_expired")
    assert any(e["shard_id"] == 0 for e in expired)
    # The straggler: shard 1 was held heartbeating past the percentile
    # deadline, revoked, and completed by someone else.
    stragglers = stats.transitions("lease_straggler")
    assert any(e["shard_id"] == 1 for e in stragglers)
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
    assert [e["type"] for e in on_disk] == [
        e["type"] for e in stats.lease_log
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
    plan = write_or_adopt_plan(config, store, n_shards=3)
    adopted = write_or_adopt_plan(config, store, n_shards=7)
    # The published partition wins over a restarted coordinator's args.
    assert adopted.shards == plan.shards
    assert adopted.fingerprint == plan.fingerprint
    assert load_plan(store).shards == plan.shards


def test_plan_rejects_foreign_fingerprint(tmp_path):
    store = FsStore(str(tmp_path))
    write_or_adopt_plan(CampaignConfig(**SMALL), store, n_shards=2)
    other = CampaignConfig(**{**SMALL, "seed": 12})
    with pytest.raises(FabricError):
        write_or_adopt_plan(other, store, n_shards=2)


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
    coordinator = FabricCoordinator(
        CampaignConfig(**SMALL), fabric_dir, n_shards=4
    )
    dataset, stats = coordinator.run(local_workers=())
    _assert_identical(dataset, serial_dataset)
    assert len(stats.transitions("shard_completed")) == 4
    # No worker ran: the completions came from adopted manifests.
    assert not stats.transitions("lease_claimed")


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
    coordinator = FabricCoordinator(
        CampaignConfig(**SMALL),
        str(tmp_path),
        n_shards=2,
        max_redispatches=1,
    )
    coordinator._schedule_redispatch(
        0, reason="test", next_attempt=1, worker_id="w"
    )
    with pytest.raises(FabricError, match="exceeded 1 re-dispatch"):
        coordinator._schedule_redispatch(
            0, reason="test again", next_attempt=2, worker_id="w"
        )


def test_fabric_worker_joins_before_plan(serial_dataset, tmp_path):
    """Workers started before the coordinator wait for its plan, then
    do all the work."""
    from repro.runtime.pool import mp_context

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
