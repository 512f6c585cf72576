"""Shard leases: the coordination primitive of the fabric.

The multi-host fabric (:mod:`repro.runtime.fabric`) coordinates
through :class:`~repro.runtime.store.FsStore` on the shared fabric
directory.  This module owns the lease protocol over any
:class:`~repro.runtime.store.CoordinationStore`:

* **Leases** — ``leases/shard-0003.lease`` is claimed with the store's
  create-exclusive primitive (exactly one claimer wins the race,
  atomically) and holds a JSON :class:`LeaseRecord` naming the worker,
  a random ownership token, the attempt number and the last heartbeat
  time.  Workers refresh ``heartbeat_at`` with a *conditional replace*
  against the etag of the version they read, so a beat that raced a
  revocation loses cleanly instead of resurrecting the lease; a lease
  whose heartbeat is older than its TTL is *expired* and may be
  revoked by the coordinator.
* **Fences** — revocation writes ``shard-0003.fence`` naming the
  revoked token before deleting the lease.  A worker whose heartbeat
  interleaves with the revocation either loses the conditional
  replace immediately or sees the fence on its next beat; both raise
  :class:`~repro.errors.LeaseLostError`, so the race converges within
  one heartbeat interval.
* **Completion manifests** — ``manifests/shard-0003.json`` is also
  created exclusively: the *first* finished attempt wins, a late
  duplicate (straggler that was re-dispatched) loses the create and
  records a discard marker instead.  This is the load-bearing
  arbitration: leases are advisory scheduling hints, but manifests are
  exclusive, so no race above can ever double-merge a shard.
* **Holds** — ``holds/shard-0003.json`` carries the coordinator's
  bounded re-dispatch backoff (``not_before``) and the next attempt
  number, so re-claims happen neither too eagerly nor with a reused
  ``(shard, attempt)`` fault key.
* **Worker registry** — ``workers/<worker_id>.json`` heartbeated
  documents (state, current shard, completion counters) feeding
  idle-worker detection, dead-worker lease revocation and the
  service's ``GET /v1/campaigns/{id}/workers`` view.

Correctness never rests on the store's *listing* primitive, which may
lag behind writes on a store other than a local filesystem: every
arbitration above is a conditional put or a point read (both
read-after-write consistent), and :meth:`LeaseDir.read_all` /
:meth:`WorkerRegistry.read_all` feed only scheduling decisions, where
a lagged listing at worst delays a revocation by one poll.

Timestamps are wall-clock (``time.time()``): leases must be comparable
*across hosts*, which monotonic clocks are not.  The protocol
tolerates the resulting skew because expiry only schedules work — a
wrongly-expired lease costs a redundant recompute whose manifest then
loses the create-exclusive race; it never corrupts the dataset.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, replace

from repro.errors import LeaseLostError
from repro.runtime.store import CoordinationStore

#: Default lease TTL; production shards run minutes, tests override.
DEFAULT_LEASE_TTL_S = 10.0

#: Heartbeat period as a fraction of the TTL — three beats must be
#: missed before a lease expires, so one slow poll never kills it.
HEARTBEAT_FRACTION = 1.0 / 3.0


def default_worker_id() -> str:
    """``<hostname>-<pid>`` — unique per live worker process."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class LeaseRecord:
    """One shard lease, as stored in its lease object.

    Attributes:
        shard_id: The shard this lease covers.
        worker_id: The claiming worker's identity.
        token: Random ownership token; heartbeat/release verify it so a
            re-claimed lease is never refreshed by its old owner.
        attempt: 0-based dispatch attempt (re-dispatches increment it).
        claimed_at: Wall-clock claim time.
        heartbeat_at: Wall-clock time of the latest heartbeat.
        ttl_s: Heartbeat age beyond which the lease is expired.
    """

    shard_id: int
    worker_id: str
    token: str
    attempt: int
    claimed_at: float
    heartbeat_at: float
    ttl_s: float

    def to_json_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "worker_id": self.worker_id,
            "token": self.token,
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
            "heartbeat_at": self.heartbeat_at,
            "ttl_s": self.ttl_s,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LeaseRecord | None":
        try:
            return cls(
                shard_id=int(doc["shard_id"]),
                worker_id=str(doc["worker_id"]),
                token=str(doc["token"]),
                attempt=int(doc["attempt"]),
                claimed_at=float(doc["claimed_at"]),
                heartbeat_at=float(doc["heartbeat_at"]),
                ttl_s=float(doc["ttl_s"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def expired(self, now: float | None = None) -> bool:
        """Whether the heartbeat is older than the TTL allows."""
        now = time.time() if now is None else now
        return now - self.heartbeat_at > self.ttl_s

    def held_s(self, now: float | None = None) -> float:
        """Wall-clock seconds since this lease (attempt) was claimed."""
        now = time.time() if now is None else now
        return max(0.0, now - self.claimed_at)


class LeaseDir:
    """The lease protocol over one key prefix of a coordination store.

    All mutating operations are single-key atomic (create-exclusive,
    conditional replace, delete); no operation ever needs a lock
    spanning two keys, so the protocol is safe on any store with those
    primitives.
    """

    def __init__(
        self,
        store: CoordinationStore,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        *,
        prefix: str = "",
    ):
        self.store = store
        self.prefix = prefix
        self.ttl_s = float(ttl_s)

    # -- keys ----------------------------------------------------------

    def lease_key(self, shard_id: int) -> str:
        return f"{self.prefix}shard-{shard_id:04d}.lease"

    def fence_key(self, shard_id: int) -> str:
        return f"{self.prefix}shard-{shard_id:04d}.fence"

    # -- claim / read --------------------------------------------------

    def claim(
        self, shard_id: int, worker_id: str, attempt: int = 0
    ) -> LeaseRecord | None:
        """Atomically claim a shard; ``None`` when someone else holds it.

        Exactly one concurrent claimer wins: the lease is created with
        the store's create-exclusive primitive, which arbitrates the race.
        """
        now = time.time()
        record = LeaseRecord(
            shard_id=shard_id,
            worker_id=worker_id,
            token=uuid.uuid4().hex,
            attempt=attempt,
            claimed_at=now,
            heartbeat_at=now,
            ttl_s=self.ttl_s,
        )
        etag = self.store.put_json_if_absent(
            self.lease_key(shard_id), record.to_json_dict()
        )
        return record if etag is not None else None

    def read(self, shard_id: int) -> LeaseRecord | None:
        """The current lease, or ``None`` (absent / mid-replace torn)."""
        doc = self.store.get_json(self.lease_key(shard_id))
        return LeaseRecord.from_json_dict(doc) if doc else None

    def read_all(self) -> list[LeaseRecord]:
        """Every currently-listed lease, ordered by shard id.

        Listing may lag on a store other than a local filesystem, so a
        just-claimed lease can be briefly absent here while :meth:`read`
        already sees it — callers use this for scheduling only, never
        for arbitration.
        """
        records = []
        for key in self.store.list_prefix(self.prefix):
            if not key.endswith(".lease"):
                continue
            doc = self.store.get_json(key)
            record = LeaseRecord.from_json_dict(doc) if doc else None
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: record.shard_id)
        return records

    # -- heartbeat -----------------------------------------------------

    def heartbeat(self, record: LeaseRecord) -> LeaseRecord:
        """Refresh ownership; raises :class:`LeaseLostError` when lost.

        Lost means: a fence names this token, the lease vanished,
        another token now owns the shard (revoked and re-claimed
        between two beats), or the conditional replace itself lost a
        race with a revocation — the refresh writes against the etag
        of the version it read, so a beat can never resurrect a lease
        the coordinator deleted.
        """
        fence = self.store.get_json(self.fence_key(record.shard_id))
        if fence is not None and fence.get("token") == record.token:
            raise LeaseLostError(
                f"lease for shard {record.shard_id} fenced: "
                f"{fence.get('reason', 'revoked')}"
            )
        obj = self.store.get(self.lease_key(record.shard_id))
        current = LeaseRecord.from_json_dict(obj.json()) if obj else None
        if current is None or current.token != record.token:
            holder = current.worker_id if current else "nobody"
            raise LeaseLostError(
                f"lease for shard {record.shard_id} no longer held by "
                f"{record.worker_id} (now: {holder})"
            )
        updated = replace(record, heartbeat_at=time.time())
        etag = self.store.put_if_match(
            self.lease_key(record.shard_id),
            json.dumps(updated.to_json_dict(), sort_keys=True).encode(
                "utf-8"
            ),
            obj.etag,
        )
        if etag is None:
            raise LeaseLostError(
                f"lease for shard {record.shard_id} changed under "
                f"{record.worker_id} mid-heartbeat (revoked or re-claimed)"
            )
        return updated

    # -- release / revoke ----------------------------------------------

    def release(self, record: LeaseRecord) -> bool:
        """Drop a lease we hold; ``False`` when it was already lost."""
        current = self.read(record.shard_id)
        if current is None or current.token != record.token:
            return False
        return self.store.delete(self.lease_key(record.shard_id))

    def revoke(self, shard_id: int, reason: str) -> LeaseRecord | None:
        """Coordinator-side forced release (expiry, straggler, chaos).

        Writes a fence naming the revoked token *before* deleting the
        lease, so the old owner's next heartbeat fails even if it
        interleaves with the revocation; returns the revoked record
        (or ``None`` if nothing readable was held).
        """
        current = self.read(shard_id)
        if current is not None:
            self.store.put_json(
                self.fence_key(shard_id),
                {
                    "shard_id": shard_id,
                    "token": current.token,
                    "worker_id": current.worker_id,
                    "attempt": current.attempt,
                    "reason": reason,
                    "fenced_at": time.time(),
                },
            )
        self.store.delete(self.lease_key(shard_id))
        return current

    def clear_fence(self, shard_id: int) -> None:
        """Drop a stale fence (after the shard completed or re-claimed)."""
        self.store.delete(self.fence_key(shard_id))


class LeaseHeartbeat:
    """Background heartbeat thread for one held lease.

    Beats every ``interval_s`` (default: TTL / 3) until stopped; on
    :class:`LeaseLostError` it sets :attr:`lost` and stops beating —
    the worker polls :attr:`lost` to learn it should stop treating the
    shard as exclusively its own (it may still finish speculatively;
    the manifest create-exclusive race decides who counts).
    """

    def __init__(
        self,
        leases: LeaseDir,
        record: LeaseRecord,
        interval_s: float | None = None,
    ):
        import threading

        self.leases = leases
        self.record = record
        self.interval_s = (
            float(interval_s)
            if interval_s is not None
            else max(0.05, leases.ttl_s * HEARTBEAT_FRACTION)
        )
        self.lost = threading.Event()
        self.lost_reason: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.record = self.leases.heartbeat(self.record)
            except LeaseLostError as exc:
                self.lost_reason = str(exc)
                self.lost.set()
                return
            except OSError:
                # A transient shared-FS error must not kill the beat;
                # the next interval retries, and a genuinely dead
                # mount shows up as TTL expiry on the coordinator.
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class WorkerRegistry:
    """Heartbeated per-worker status documents under ``workers/``.

    One JSON document per worker: identity, liveness heartbeat, current
    state (``idle`` / ``running`` / ``exited``), the shard in hand and
    completion counters.  The coordinator uses it to revoke a dead
    worker's lease *before* TTL expiry and to observe idle capacity
    (work stealing: revoked shards are re-claimable by any idle
    worker); the service renders it at ``/v1/campaigns/{id}/workers``.
    """

    def __init__(
        self,
        store: CoordinationStore,
        worker_id: str,
        ttl_s: float,
        *,
        prefix: str = "",
    ):
        self.store = store
        self.prefix = prefix
        self.worker_id = worker_id
        self.ttl_s = float(ttl_s)
        self._state = "idle"
        self._shard_id: int | None = None
        self._completed = 0
        self._discarded = 0

    @property
    def key(self) -> str:
        return f"{self.prefix}{self.worker_id}.json"

    def write(self, state: str | None = None) -> None:
        if state is not None:
            self._state = state
        self.store.put_json(
            self.key,
            {
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "state": self._state,
                "shard_id": self._shard_id,
                "shards_completed": self._completed,
                "manifests_discarded": self._discarded,
                "heartbeat_at": time.time(),
                "ttl_s": self.ttl_s,
            },
        )

    def set_running(self, shard_id: int) -> None:
        self._shard_id = shard_id
        self.write("running")

    def set_idle(self, completed: bool = False, discarded: bool = False) -> None:
        if completed:
            self._completed += 1
        if discarded:
            self._discarded += 1
        self._shard_id = None
        self.write("idle")

    def set_exited(self) -> None:
        self._shard_id = None
        self.write("exited")

    @staticmethod
    def sign_off(
        store: CoordinationStore, worker_id: str, exitcode, prefix: str = ""
    ) -> None:
        """Write ``exited`` for a worker that cannot do it itself (it
        died or was terminated): its last document with no shard in
        hand and its ``exitcode``."""
        key = f"{prefix}{worker_id}.json"
        doc = store.get_json(key) or {"worker_id": worker_id}
        store.put_json(
            key, {**doc, "state": "exited", "shard_id": None, "exitcode": exitcode}
        )

    @staticmethod
    def read_all(store: CoordinationStore, prefix: str = "") -> list[dict]:
        """Every readable worker document under ``prefix``, ordered by
        worker id."""
        docs = []
        for key in sorted(store.list_prefix(prefix)):
            if not key.endswith(".json"):
                continue
            doc = store.get_json(key)
            if doc is not None:
                docs.append(doc)
        return docs
