"""Conformance suite for the ``CoordinationStore`` protocol.

One parametrized contract run against every backend — the POSIX
``FsStore``, the cross-process ``DirObjectStore`` bucket emulation and
the in-process ``MemoryObjectStore`` fake — so the fabric's
correctness claims (exactly one create-exclusive winner, conditional
replace refuses stale etags, fence-after-revoke, first manifest wins,
listings may lag but point reads never do) are enforced uniformly
rather than assumed per backend.
"""

import os
import threading
import time

import pytest

from repro.errors import ConfigurationError, FabricError, LeaseLostError
from repro.runtime.lease import LeaseDir
from repro.runtime.store import (
    DirObjectStore,
    FsStore,
    MemoryObjectStore,
    make_store,
    read_store_sentinel,
    resolve_store_kind,
)

BACKENDS = ("fs", "object", "memory")
#: Backends that simulate list-after-write lag (FsStore never lags).
LAGGY_BACKENDS = ("object", "memory")


def _make(kind: str, tmp_path, list_lag_s: float = 0.0):
    if kind == "fs":
        return FsStore(str(tmp_path / "fs"))
    if kind == "object":
        return DirObjectStore(str(tmp_path / "bucket"), list_lag_s=list_lag_s)
    return MemoryObjectStore(list_lag_s=list_lag_s)


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return _make(request.param, tmp_path)


# -- primitive semantics -------------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_put_if_absent_exactly_one_winner(kind, tmp_path):
    """16 racing create-exclusive puts: exactly one wins, and the
    stored bytes are the winner's."""
    store = _make(kind, tmp_path)
    n_racers = 16
    barrier = threading.Barrier(n_racers)
    etags: list = [None] * n_racers

    def racer(rank: int) -> None:
        barrier.wait()
        etags[rank] = store.put_if_absent(
            "manifests/shard-0000.json", f"racer-{rank}".encode()
        )

    threads = [
        threading.Thread(target=racer, args=(rank,)) for rank in range(n_racers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [rank for rank, etag in enumerate(etags) if etag is not None]
    assert len(winners) == 1
    stored = store.get("manifests/shard-0000.json")
    assert stored is not None
    assert stored.data == f"racer-{winners[0]}".encode()
    assert stored.etag == etags[winners[0]]


def test_conditional_replace_refuses_stale_etag(store):
    etag = store.put("leases/shard-0000.lease", b"v1")
    # A concurrent writer moved the object on; the old etag must fail.
    new_etag = store.put_if_match("leases/shard-0000.lease", b"v2", etag)
    assert new_etag is not None
    assert store.put_if_match("leases/shard-0000.lease", b"v3", etag) is None
    assert store.get("leases/shard-0000.lease").data == b"v2"
    # ...including when the key vanished entirely.
    store.delete("leases/shard-0000.lease")
    assert store.put_if_match("leases/shard-0000.lease", b"v4", new_etag) is None
    assert store.get("leases/shard-0000.lease") is None
    # ...and when it never existed.
    assert store.put_if_match("leases/ghost.lease", b"v1", "nope") is None


def test_conditional_replace_conflict_exactly_one_winner(store):
    """Two writers that read the same version: one replace wins, the
    other loses — the heartbeat-vs-revocation arbitration."""
    store.put("leases/shard-0000.lease", b"claimed")
    etag = store.get("leases/shard-0000.lease").etag
    first = store.put_if_match("leases/shard-0000.lease", b"beat", etag)
    second = store.put_if_match("leases/shard-0000.lease", b"revoked", etag)
    assert first is not None
    assert second is None
    assert store.get("leases/shard-0000.lease").data == b"beat"


def test_point_reads_are_read_after_write(store):
    assert store.get("plan.json") is None
    assert not store.exists("plan.json")
    store.put("plan.json", b"{}")
    # No lag ever applies to point reads: immediately visible.
    assert store.exists("plan.json")
    assert store.get("plan.json").data == b"{}"


def test_delete_reports_prior_existence(store):
    store.put("holds/shard-0001.json", b"{}")
    assert store.delete("holds/shard-0001.json") is True
    assert store.delete("holds/shard-0001.json") is False
    assert store.get("holds/shard-0001.json") is None


def test_list_prefix_is_sorted_and_scoped(store):
    for name in ("shard-0002.lease", "shard-0000.lease", "shard-0001.fence"):
        store.put(f"leases/{name}", b"{}")
    store.put("workers/w1.json", b"{}")
    store.settle()
    assert store.list_prefix("leases/") == [
        "leases/shard-0000.lease",
        "leases/shard-0001.fence",
        "leases/shard-0002.lease",
    ]
    assert store.list_prefix("leases/shard-0000") == [
        "leases/shard-0000.lease"
    ]
    assert store.list_prefix("workers/") == ["workers/w1.json"]


@pytest.mark.parametrize("kind", LAGGY_BACKENDS)
def test_list_after_write_lag_hides_only_listings(kind, tmp_path):
    """A fresh key may be missing from listings for ``list_lag_s`` —
    but point reads see it immediately, and an overwrite never hides
    an already-visible key (real list consistency)."""
    store = _make(kind, tmp_path, list_lag_s=30.0)
    store.put("leases/shard-0000.lease", b"v1")
    assert store.list_prefix("leases/") == []  # lagging
    assert store.exists("leases/shard-0000.lease")  # point read: no lag
    assert store.get("leases/shard-0000.lease").data == b"v1"
    store.settle()
    assert store.list_prefix("leases/") == ["leases/shard-0000.lease"]
    # Overwrites keep the birth time: the key stays listed.
    store.put("leases/shard-0000.lease", b"v2")
    assert store.list_prefix("leases/") == ["leases/shard-0000.lease"]


def test_append_line_preserves_order_and_survives_concurrency(store):
    for index in range(5):
        store.append_line("log.jsonl", f"event-{index}")
    store.settle()
    assert store.read_lines("log.jsonl") == [
        f"event-{index}" for index in range(5)
    ]
    threads = [
        threading.Thread(
            target=store.append_line, args=("log.jsonl", f"race-{rank}")
        )
        for rank in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    store.settle()
    lines = store.read_lines("log.jsonl")
    assert len(lines) == 13
    assert set(lines[5:]) == {f"race-{rank}" for rank in range(8)}


def test_json_sugar_returns_none_for_torn_documents(store):
    store.put("manifests/shard-0000.json", b'{"shard_id": 0')  # torn
    assert store.get_json("manifests/shard-0000.json") is None
    store.put_json("manifests/shard-0000.json", {"shard_id": 0})
    assert store.get_json("manifests/shard-0000.json") == {"shard_id": 0}


# -- lease protocol over every backend -----------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_claim_race_exactly_one_wins(kind, tmp_path):
    store = _make(kind, tmp_path)
    leases = LeaseDir(ttl_s=30.0, store=store, prefix="leases/")
    n_racers = 16
    barrier = threading.Barrier(n_racers)
    results: list = [None] * n_racers

    def racer(rank: int) -> None:
        barrier.wait()
        results[rank] = leases.claim(0, f"w{rank}")

    threads = [
        threading.Thread(target=racer, args=(rank,)) for rank in range(n_racers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    won = [record for record in results if record is not None]
    assert len(won) == 1
    assert leases.read(0).token == won[0].token


def test_fence_after_revoke_blocks_old_owner_only(store):
    leases = LeaseDir(ttl_s=30.0, store=store, prefix="leases/")
    old = leases.claim(3, "w-old")
    assert old is not None
    leases.revoke(3, "chaos")
    assert store.exists(leases.fence_key(3))
    with pytest.raises(LeaseLostError):
        leases.heartbeat(old)
    # The fence names the *old* token: a fresh claim is unaffected.
    new = leases.claim(3, "w-new", attempt=old.attempt + 1)
    assert new is not None
    refreshed = leases.heartbeat(new)
    assert refreshed.heartbeat_at >= new.heartbeat_at
    leases.clear_fence(3)
    assert not store.exists(leases.fence_key(3))


def test_heartbeat_loses_conditional_replace_cleanly(store):
    """A beat racing any concurrent lease mutation must fail with
    ``LeaseLostError`` rather than resurrect or clobber the lease."""
    leases = LeaseDir(ttl_s=30.0, store=store, prefix="leases/")
    record = leases.claim(0, "w1")
    # Another participant rewrote the lease between our read and our
    # replace (same token, different bytes -> different version).
    doc = record.to_json_dict()
    doc["heartbeat_at"] = doc["heartbeat_at"] + 1.0
    store.put_json(leases.lease_key(0), doc)
    stale = store.get(leases.lease_key(0))
    assert stale is not None
    # The stale in-hand record still heartbeats fine (token matches,
    # it re-reads the current version)...
    leases.heartbeat(record)
    # ...but a replace against a superseded etag must lose.
    assert (
        store.put_if_match(leases.lease_key(0), b"resurrected", stale.etag)
        is None
    )


def test_first_manifest_wins_across_threads(store):
    n_racers = 8
    barrier = threading.Barrier(n_racers)
    etags: list = [None] * n_racers

    def finisher(rank: int) -> None:
        barrier.wait()
        etags[rank] = store.put_json_if_absent(
            "manifests/shard-0000.json",
            {"worker_id": f"w{rank}", "attempt": rank},
        )

    threads = [
        threading.Thread(target=finisher, args=(rank,))
        for rank in range(n_racers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [rank for rank, etag in enumerate(etags) if etag is not None]
    assert len(winners) == 1
    assert store.get_json("manifests/shard-0000.json")["worker_id"] == (
        f"w{winners[0]}"
    )


# -- store selection / sentinel ------------------------------------------


def test_make_store_binds_directory_with_sentinel(tmp_path):
    fabric_dir = str(tmp_path / "fabric")
    store = make_store(fabric_dir, "object", create_sentinel=True)
    assert store.kind == "object"
    assert read_store_sentinel(fabric_dir) == "object"
    # A participant with no explicit choice adopts the sentinel...
    assert make_store(fabric_dir).kind == "object"
    # ...and a contradictory explicit choice fails loudly.
    with pytest.raises(FabricError):
        make_store(fabric_dir, "fs")


def test_resolve_store_kind_precedence(tmp_path, monkeypatch):
    fabric_dir = str(tmp_path / "fabric")
    os.makedirs(fabric_dir)
    monkeypatch.delenv("REPRO_FABRIC_STORE", raising=False)
    assert resolve_store_kind(fabric_dir) == "fs"
    assert resolve_store_kind(fabric_dir, "object") == "object"  # explicit
    make_store(fabric_dir, "object", create_sentinel=True)
    assert resolve_store_kind(fabric_dir) == "object"  # the sentinel
    with pytest.raises(ConfigurationError):
        resolve_store_kind(fabric_dir, "s3")


def test_dir_object_store_breaks_stale_locks(tmp_path):
    """A lock abandoned by a SIGKILLed holder must not wedge the key."""
    store = DirObjectStore(str(tmp_path / "bucket"))
    lock_path = store._lock_path("plan.json")
    os.makedirs(os.path.dirname(lock_path), exist_ok=True)
    with open(lock_path, "w", encoding="utf-8"):
        pass
    stale = time.time() - 60.0
    os.utime(lock_path, (stale, stale))
    assert store.put_if_absent("plan.json", b"{}") is not None
    assert store.get("plan.json").data == b"{}"
