"""Lease protocol: claim races, heartbeats, fences, first-wins manifests."""

import os
import threading
import time

import pytest

from repro.errors import LeaseLostError
from repro.runtime.lease import (
    LeaseDir,
    LeaseHeartbeat,
    LeaseRecord,
    WorkerRegistry,
)


# -- claim arbitration -------------------------------------------------


def test_concurrent_claims_exactly_one_wins(tmp_path):
    """The acceptance criterion: N racing claimers, one winner.

    Every thread lines up on a barrier and claims the same shard at
    once; O_CREAT|O_EXCL must hand the lease to exactly one of them.
    """
    leases = LeaseDir(str(tmp_path), ttl_s=30.0)
    n_threads = 16
    barrier = threading.Barrier(n_threads)
    wins: list[LeaseRecord] = []
    lock = threading.Lock()

    def claimer(rank: int) -> None:
        barrier.wait()
        record = leases.claim(0, f"worker-{rank}")
        if record is not None:
            with lock:
                wins.append(record)

    threads = [
        threading.Thread(target=claimer, args=(rank,))
        for rank in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(wins) == 1
    held = leases.read(0)
    assert held is not None
    assert held.token == wins[0].token


def test_claim_different_shards_all_win(tmp_path):
    leases = LeaseDir(str(tmp_path), ttl_s=30.0)
    records = [leases.claim(shard_id, "w") for shard_id in range(5)]
    assert all(record is not None for record in records)
    assert [r.shard_id for r in leases.read_all()] == list(range(5))


def test_reclaim_after_release(tmp_path):
    leases = LeaseDir(str(tmp_path), ttl_s=30.0)
    first = leases.claim(3, "w1")
    assert leases.claim(3, "w2") is None  # held
    assert leases.release(first) is True
    second = leases.claim(3, "w2", attempt=1)
    assert second is not None
    assert second.token != first.token
    assert leases.release(first) is False  # stale token can't release


# -- heartbeats and expiry ---------------------------------------------


def test_heartbeat_refreshes_and_expiry(tmp_path):
    leases = LeaseDir(str(tmp_path), ttl_s=0.2)
    record = leases.claim(0, "w")
    assert not record.expired()
    time.sleep(0.3)
    assert leases.read(0).expired()
    refreshed = leases.heartbeat(record)
    assert not leases.read(0).expired()
    assert refreshed.heartbeat_at > record.heartbeat_at
    assert refreshed.token == record.token


def test_revoke_fences_old_owner(tmp_path):
    """Revocation must beat a racing heartbeat: the fence names the
    revoked token, so the old owner's next beat raises even if its
    refresh resurrected the lease file."""
    leases = LeaseDir(str(tmp_path), ttl_s=30.0)
    record = leases.claim(0, "w1")
    revoked = leases.revoke(0, "expired: test")
    assert revoked.token == record.token
    assert os.path.exists(leases.fence_path(0))
    with pytest.raises(LeaseLostError):
        leases.heartbeat(record)
    # The shard is re-claimable by a new owner, whose beats are fine.
    again = leases.claim(0, "w2", attempt=1)
    assert again is not None
    leases.heartbeat(again)
    # The fenced owner stays fenced even against the new lease.
    with pytest.raises(LeaseLostError):
        leases.heartbeat(record)
    leases.clear_fence(0)
    assert not os.path.exists(leases.fence_path(0))


def test_heartbeat_thread_detects_loss(tmp_path):
    leases = LeaseDir(str(tmp_path), ttl_s=30.0)
    record = leases.claim(0, "w")
    heartbeat = LeaseHeartbeat(leases, record, interval_s=0.05).start()
    try:
        leases.revoke(0, "injected")
        assert heartbeat.lost.wait(timeout=2.0)
        assert "shard 0" in heartbeat.lost_reason
    finally:
        heartbeat.stop()


def test_heartbeat_thread_keeps_lease_alive(tmp_path):
    leases = LeaseDir(str(tmp_path), ttl_s=0.3)
    record = leases.claim(0, "w")
    heartbeat = LeaseHeartbeat(leases, record, interval_s=0.05).start()
    try:
        time.sleep(0.6)  # two TTLs: without beats this would expire
        assert not leases.read(0).expired()
        assert not heartbeat.lost.is_set()
    finally:
        heartbeat.stop()


# -- re-dispatch after expiry ------------------------------------------


def test_expired_lease_redispatch_cycle(tmp_path):
    """The coordinator-side recovery loop, distilled: a worker claims
    and goes silent; once the TTL runs out the lease is revoked and the
    shard is claimed again on the next attempt."""
    leases = LeaseDir(str(tmp_path), ttl_s=0.15)
    dead = leases.claim(0, "dead-worker")
    time.sleep(0.25)
    current = leases.read(0)
    assert current.expired()
    revoked = leases.revoke(0, f"heartbeat silent > {leases.ttl_s}s")
    assert revoked.token == dead.token
    retry = leases.claim(0, "live-worker", attempt=dead.attempt + 1)
    assert retry is not None
    assert retry.attempt == 1
    # The dead worker's late heartbeat loses cleanly.
    with pytest.raises(LeaseLostError):
        leases.heartbeat(dead)


# -- first-wins completion manifests -----------------------------------


def test_double_completion_first_manifest_wins(tmp_path):
    """Two attempts finish the same shard: the first manifest is
    accepted, the second loses the create-exclusive put, records a
    discard marker, and the coordinator logs the discard event."""
    from repro.extension.campaign import CampaignConfig
    from repro.runtime.fabric import FabricCoordinator, _discard_key, _manifest_key
    from repro.runtime.store import FsStore

    # The store the coordinator below reads (the default ``fs`` store).
    store = FsStore(str(tmp_path))
    first = {"shard_id": 0, "worker_id": "w1", "token": "aaa", "attempt": 0}
    second = {"shard_id": 0, "worker_id": "w2", "token": "bbb", "attempt": 1}
    assert store.put_json_if_absent(_manifest_key(0), first) is not None
    assert store.put_json_if_absent(_manifest_key(0), second) is None
    # The losing attempt writes its discard marker (what the worker
    # loop does when its put loses) ...
    store.put_json(
        _discard_key(0, second["token"]),
        {**second, "reason": "lost the first-valid-manifest race"},
    )
    # ... the surviving manifest is untouched ...
    assert store.get_json(_manifest_key(0))["token"] == "aaa"
    # ... and the coordinator turns the marker into a logged event.
    coordinator = FabricCoordinator(
        CampaignConfig(
            seed=11,
            duration_s=86_400.0,
            request_fraction=0.05,
            cities=("london",),
            shell_planes=24,
            shell_sats_per_plane=12,
        ),
        str(tmp_path),
        n_shards=1,
    )
    coordinator._scan_discards()
    discarded = [
        e for e in coordinator.lease_log if e["type"] == "manifest_discarded"
    ]
    assert len(discarded) == 1
    assert discarded[0]["worker_id"] == "w2"
    assert discarded[0]["token"] == "bbb"
    # Idempotent: a second scan does not double-log.
    coordinator._scan_discards()
    assert (
        sum(e["type"] == "manifest_discarded" for e in coordinator.lease_log)
        == 1
    )


# -- worker registry ----------------------------------------------------


def test_worker_registry_states_and_counters(tmp_path):
    registry = WorkerRegistry(str(tmp_path), "w1", ttl_s=5.0)
    registry.write("idle")
    registry.set_running(3)
    doc = WorkerRegistry.read_all(str(tmp_path))[0]
    assert doc["state"] == "running"
    assert doc["shard_id"] == 3
    registry.set_idle(completed=True)
    registry.set_running(4)
    registry.set_idle(discarded=True)
    registry.set_exited()
    doc = WorkerRegistry.read_all(str(tmp_path))[0]
    assert doc["state"] == "exited"
    assert doc["shards_completed"] == 1
    assert doc["manifests_discarded"] == 1
    assert doc["pid"] == os.getpid()
