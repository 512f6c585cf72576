"""Conformance suite for the ``CoordinationStore`` protocol.

One parametrized contract run against ``FsStore``, the fabric's store,
and ``MemoryObjectStore``, an in-process fake with object-store
semantics, so the fabric's correctness claims (exactly one
create-exclusive winner, conditional replace refuses stale etags,
fence-after-revoke, first manifest wins, listings may lag but point
reads never do) are enforced on more than one substrate rather than
assumed of one.  The arbitration tests also run on a fake whose
listings lag 30 s: correctness must never rest on a listing.
"""

import errno
import os
import threading
import time
import uuid

import pytest

from repro.errors import LeaseLostError
from repro.runtime.lease import LeaseDir, LeaseRecord
from repro.runtime.store import CoordinationStore, FsStore, StoredObject


class MemoryObjectStore(CoordinationStore):
    """Object-store semantics over a locked dict.

    Conditional PUT-if-absent / PUT-if-match with a fresh etag per
    object version, and simulated **list-after-write lag**: a key is
    left out of :meth:`list_prefix` until ``list_lag_s`` has passed
    since its first creation (an overwrite never hides an
    already-listed key), while point reads see every write at once.
    One lock arbitrates every race, so each semantic claim holds
    exactly; :meth:`settle` lists every key at once.  The log is
    sequence-numbered child objects, each claimed with PUT-if-absent.
    """

    def __init__(self, list_lag_s: float = 0.0):
        self.list_lag_s = float(list_lag_s)
        self._lock = threading.Lock()
        #: key -> (data, etag, monotonic time of first creation)
        self._objects: dict[str, tuple[bytes, str, float]] = {}

    def _put(self, key, data, *, mode, etag=None):
        with self._lock:
            current = self._objects.get(key)
            if mode == "absent" and current is not None:
                return None
            if mode == "match" and (current is None or current[1] != etag):
                return None
            new_etag = uuid.uuid4().hex[:16]
            birth = current[2] if current is not None else time.monotonic()
            self._objects[key] = (data, new_etag, birth)
            return new_etag

    def put_if_absent(self, key, data):
        return self._put(key, data, mode="absent")

    def put_if_match(self, key, data, etag):
        return self._put(key, data, mode="match", etag=etag)

    def put(self, key, data):
        return self._put(key, data, mode="always")

    def get(self, key):
        with self._lock:
            current = self._objects.get(key)
        if current is None:
            return None
        return StoredObject(data=current[0], etag=current[1])

    def delete(self, key):
        with self._lock:
            return self._objects.pop(key, None) is not None

    def list_prefix(self, prefix):
        horizon = time.monotonic() - self.list_lag_s
        with self._lock:
            return sorted(
                key
                for key, (_, _, birth) in self._objects.items()
                if key.startswith(prefix) and birth <= horizon
            )

    def append_line(self, key, text):
        seq = 0
        while self.put_if_absent(f"{key}/{seq:08d}", text.encode()) is None:
            seq += 1

    def read_lines(self, key):
        objects = (self.get(child) for child in self.list_prefix(f"{key}/"))
        return [obj.data.decode() for obj in objects if obj is not None]

    def settle(self):
        with self._lock:
            self._objects = {
                key: (data, etag, float("-inf"))
                for key, (data, etag, _) in self._objects.items()
            }


BACKENDS = ("fs", "memory")
#: Stores that can simulate list-after-write lag (FsStore never lags).
LAGGY_BACKENDS = ("memory",)
#: The arbitration tests' stores: ``lagged`` lists nothing for 30 s.
ARBITERS = (*BACKENDS, "lagged")


def _make(kind: str, tmp_path, list_lag_s: float = 0.0):
    if kind == "fs":
        return FsStore(str(tmp_path / "fs"))
    if kind == "lagged":
        list_lag_s = 30.0
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
    lines = store.read_lines("log.jsonl")
    assert len(lines) == 13
    assert set(lines[5:]) == {f"race-{rank}" for rank in range(8)}


def test_json_sugar_returns_none_for_torn_documents(store):
    store.put("manifests/shard-0000.json", b'{"shard_id": 0')  # torn
    assert store.get_json("manifests/shard-0000.json") is None
    store.put_json("manifests/shard-0000.json", {"shard_id": 0})
    assert store.get_json("manifests/shard-0000.json") == {"shard_id": 0}


# -- lease protocol over every backend -----------------------------------


@pytest.mark.parametrize("kind", ARBITERS)
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
    if kind == "lagged":
        assert leases.read_all() == []  # decided with nothing listed


@pytest.mark.parametrize("store", ARBITERS, indirect=True)
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


@pytest.mark.parametrize("store", ARBITERS, indirect=True)
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


@pytest.mark.parametrize("store", ARBITERS, indirect=True)
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


# -- FsStore's create-exclusive put ----------------------------------------


def test_torn_claim_leaves_the_key_absent_or_whole(tmp_path, monkeypatch):
    """A claimer that fails at any step of its create-exclusive put —
    the write, the fsync or the link that publishes it — leaves the
    lease absent, so the next claim wins, or whole; never an empty
    lease that listings skip and no claim can replace."""
    for step in ("write", "fsync", "link"):
        store = FsStore(str(tmp_path / step))
        leases = LeaseDir(store=store, ttl_s=30.0, prefix="leases/")
        reached = []

        def fail(*args, step=step):
            reached.append(step)
            raise OSError(errno.EIO, f"injected {step} failure")

        with monkeypatch.context() as patch:
            patch.setattr(os, step, fail)
            with pytest.raises(OSError, match="injected"):
                leases.claim(0, "w-dying")
        assert reached == [step]
        obj = store.get(leases.lease_key(0))
        if obj is not None:
            record = LeaseRecord.from_json_dict(obj.json() or {})
            assert record is not None and record.worker_id == "w-dying", step
            continue
        # Nothing left behind, not even the temp file.
        assert os.listdir(store.path_for("leases")) == [], step
        retry = leases.claim(0, "w-live")
        assert retry is not None, step
        assert [r.token for r in leases.read_all()] == [retry.token], step


def test_losing_claim_writes_nothing(tmp_path, monkeypatch):
    store = FsStore(str(tmp_path))
    assert store.put_if_absent("leases/shard-0000.lease", b"first") is not None
    calls = []
    real_write, real_fsync = os.write, os.fsync
    monkeypatch.setattr(os, "write", lambda *a: calls.append("write") or real_write(*a))
    monkeypatch.setattr(os, "fsync", lambda *a: calls.append("fsync") or real_fsync(*a))
    assert store.put_if_absent("leases/shard-0000.lease", b"second") is None
    monkeypatch.undo()
    assert calls == []
    assert store.get("leases/shard-0000.lease").data == b"first"
    assert os.listdir(store.path_for("leases")) == ["shard-0000.lease"]
