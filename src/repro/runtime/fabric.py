"""The fault-tolerant multi-host campaign fabric.

The paper's campaign ran for months on a fleet of flaky vantage
points; the single-host supervisor (:mod:`repro.runtime.supervision`)
already treats *process* death as routine, and this module extends the
same posture to *hosts*.  A campaign runs as one coordinator plus any
number of worker processes — on one machine or many — that share
nothing but the fabric directory, through which they coordinate with
POSIX primitives (:class:`~repro.runtime.store.FsStore`).

* The **coordinator** derives the shard plan deterministically from
  the :class:`~repro.extension.campaign.CampaignConfig` (fingerprinted
  — see :func:`~repro.runtime.checkpoint.campaign_fingerprint`) and
  publishes it as ``plan.json`` with a create-exclusive put;
  restarting a coordinator over an existing fabric directory *adopts*
  the plan and every already-valid manifest, so coordinator death
  loses nothing either.
* **Workers** (``repro.experiments worker`` on any host) claim shard
  leases atomically, heartbeat while computing, spill each finished
  shard as a checksummed columnar segment through the established
  :class:`~repro.runtime.checkpoint.CheckpointStore` format, and offer
  a completion manifest created exclusively — first valid manifest
  wins, always (see :mod:`repro.runtime.lease`).
* The **coordinator loop** revokes leases whose heartbeats expired
  (worker death), whose holder's registry entry says ``exited``
  (fast-path before TTL), or that are held past a percentile-based
  straggler deadline (:func:`~repro.runtime.supervision.straggler_deadline_s`);
  revoked shards re-dispatch with bounded exponential backoff and are
  picked up by whichever worker is idle first — work stealing falls
  out of the claim protocol, since every worker polls every
  unmanifested shard.  Arriving manifests are validated by *loading*
  the segment (internal sha256, fingerprint, exact user-index set);
  torn segments are quarantined and the shard re-dispatched.
* Every lease transition (claimed / expired / lost / straggler /
  re-dispatched / stolen / completed / discarded / quarantined) is
  appended to the coordinator's structured log (``log.jsonl`` through
  the store) and kept on the returned :class:`FabricRunStats`.

Correctness rests on two pillars.  (1) *Determinism*: every record is
a pure function of ``(config, user)``, so any re-dispatch recomputes
bit-identical data — a campaign with workers killed mid-run merges to
exactly the serial dataset.  (2) *Exclusive manifests*: leases are
advisory scheduling hints whose races (revocation vs. heartbeat,
double claim after a fence) at worst cost a redundant recompute; the
create-exclusive manifest put is the single arbiter of which attempt's
segment merges, so no timing skew between hosts can double-count or
mix attempts.  Because arbitration is conditional puts and point reads
only — never listings — a listing that lags behind writes costs at
most a poll.  The final merge reuses the campaign-wide partition
validation of :mod:`repro.runtime.merge` end to end.

The data plane (spilled shard segments, quarantined files) sits beside
the coordination keys: segments are bulk checksummed columnar blobs
whose integrity the checkpoint format already owns, and only the
*coordination* metadata needs the store's arbitration.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.errors import (
    CampaignCancelledError,
    ConfigurationError,
    FabricError,
)
from repro.extension.backends import backend_for_config
from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
from repro.runtime.faults import FaultKind, FaultPlan
from repro.runtime.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseDir,
    LeaseHeartbeat,
    WorkerRegistry,
    default_worker_id,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.pool import mp_context, plan_campaign
from repro.runtime.shard import CampaignRunStats, run_shard
from repro.runtime.store import CoordinationStore, FsStore
from repro.runtime.supervision import straggler_deadline_s

#: ``plan.json`` schema version (3 drops version 2's advisory ``store``
#: field, which named the coordination store).
PLAN_VERSION = 3

#: Terminal marker keys the coordinator puts at the fabric root;
#: their presence is the workers' exit signal.
DONE_MARKER = "DONE"
CANCELLED_MARKER = "CANCELLED"
FAILED_MARKER = "FAILED"
_MARKERS = (DONE_MARKER, CANCELLED_MARKER, FAILED_MARKER)

#: Default cap on re-dispatches of one shard before the campaign fails.
DEFAULT_MAX_REDISPATCHES = 8

#: Coordination key layout: each key is the file at that path under
#: the fabric directory.
PLAN_KEY = "plan.json"
LOG_KEY = "log.jsonl"
LEASES_PREFIX = "leases/"
WORKERS_PREFIX = "workers/"
DISCARDS_PREFIX = "discards/"


def _hold_key(shard_id: int) -> str:
    return f"holds/shard-{shard_id:04d}.json"


def _manifest_key(shard_id: int) -> str:
    return f"manifests/shard-{shard_id:04d}.json"


def _rejected_key(shard_id: int, attempt: int) -> str:
    return f"manifests/shard-{shard_id:04d}.rejected-{attempt}.json"


def _discard_key(shard_id: int, token: str) -> str:
    return f"discards/shard-{shard_id:04d}-{token}.json"


def terminal_marker(store: CoordinationStore) -> str | None:
    """The terminal marker present in a coordination namespace, if any."""
    for name in _MARKERS:
        if store.exists(name):
            return name
    return None


class FabricPaths:
    """The data plane of one fabric directory: ``segments/`` and
    ``quarantine/``.  The coordination keys beside them belong to the
    directory's :class:`~repro.runtime.store.FsStore`."""

    def __init__(self, root: str):
        self.root = root
        self.segments = os.path.join(root, "segments")
        self.quarantine = os.path.join(root, "quarantine")

    def ensure(self) -> None:
        for directory in (self.root, self.segments, self.quarantine):
            os.makedirs(directory, exist_ok=True)


@dataclass(frozen=True)
class FabricPlan:
    """The published shard plan every participant agrees on."""

    fingerprint: str
    lease_ttl_s: float
    #: ``(shard_id, user_indices)`` pairs; empty shards pre-filtered.
    shards: tuple[tuple[int, tuple[int, ...]], ...]
    config_json: dict

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def expected_indices(self) -> set[int]:
        return {index for _, indices in self.shards for index in indices}


def write_or_adopt_plan(
    config,
    store: FsStore,
    n_shards: int | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
) -> FabricPlan:
    """Publish ``plan.json`` — or adopt an existing one.

    The partition is the campaign executor's
    (:func:`~repro.runtime.pool.plan_campaign`, ``n_shards`` defaulting
    to one per worker).  The plan is created with the store's
    create-exclusive put so two racing coordinators agree on one
    partition.  An existing plan is adopted only when its campaign
    fingerprint matches this config (a fabric directory never mixes
    campaigns); its shard partition and TTL win over the arguments, so
    a restarted coordinator with a different ``n_shards`` still merges
    the original partition.
    """
    fingerprint = campaign_fingerprint(config)
    existing = store.get_json(PLAN_KEY)
    if existing is None and not store.exists(PLAN_KEY):
        _, shards = plan_campaign(config, n_shards)
        planned = [(shard_id, tuple(indices)) for shard_id, indices in shards]
        to_json = getattr(config, "to_json_dict", None)
        doc = {
            "version": PLAN_VERSION,
            "fingerprint": fingerprint,
            "lease_ttl_s": float(lease_ttl_s),
            "created_at": time.time(),
            "shards": [
                {"shard_id": shard_id, "user_indices": list(indices)}
                for shard_id, indices in planned
            ],
            "config": to_json() if callable(to_json) else None,
        }
        if store.put_json_if_absent(PLAN_KEY, doc) is not None:
            return FabricPlan(
                fingerprint=fingerprint,
                lease_ttl_s=float(lease_ttl_s),
                shards=tuple(planned),
                config_json=doc["config"],
            )
        existing = store.get_json(PLAN_KEY)  # a racing coordinator won
    if existing is None:
        raise FabricError(f"unreadable fabric plan at {store.path_for(PLAN_KEY)}")
    if existing.get("fingerprint") != fingerprint:
        raise FabricError(
            f"fabric directory {store.root} belongs to campaign "
            f"fingerprint {existing.get('fingerprint')!r}, not "
            f"{fingerprint!r}"
        )
    try:
        shards = tuple(
            (int(entry["shard_id"]), tuple(int(i) for i in entry["user_indices"]))
            for entry in existing["shards"]
        )
        ttl_s = float(existing["lease_ttl_s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FabricError(
            f"malformed fabric plan at {store.path_for(PLAN_KEY)}: {exc}"
        ) from exc
    return FabricPlan(
        fingerprint=fingerprint,
        lease_ttl_s=ttl_s,
        shards=shards,
        config_json=existing.get("config"),
    )


def load_plan(store: FsStore) -> FabricPlan | None:
    """Read an already-published plan (worker side); ``None`` if absent."""
    doc = store.get_json(PLAN_KEY)
    if doc is None:
        return None
    try:
        return FabricPlan(
            fingerprint=str(doc["fingerprint"]),
            lease_ttl_s=float(doc["lease_ttl_s"]),
            shards=tuple(
                (int(e["shard_id"]), tuple(int(i) for i in e["user_indices"]))
                for e in doc["shards"]
            ),
            config_json=doc.get("config"),
        )
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class FabricRunStats(CampaignRunStats):
    """Campaign stats plus the fabric's lease/recovery accounting."""

    n_shards: int = 0
    #: Shards the coordinator revoked and re-queued (any reason).
    redispatched_shards: int = 0
    #: Re-dispatched shards completed by a *different* worker than the
    #: one revoked — the work-stealing counter.
    stolen_shards: int = 0
    #: Late duplicate manifests that lost the first-wins race.
    discarded_manifests: int = 0
    #: Torn segments moved aside before their shard was re-dispatched.
    quarantined_segments: int = 0
    #: The coordinator's structured lease-transition log (also in the
    #: fabric directory as ``log.jsonl``).
    lease_log: list = field(default_factory=list)

    def transitions(self, event_type: str) -> list[dict]:
        """The log entries of one transition type, in order."""
        return [e for e in self.lease_log if e.get("type") == event_type]

    def summary(self) -> str:
        base = super().summary()
        return (
            f"{base} [fabric: {self.n_shards} shards, "
            f"{self.redispatched_shards} re-dispatched, "
            f"{self.stolen_shards} stolen, "
            f"{self.discarded_manifests} discarded, "
            f"{self.quarantined_segments} quarantined]"
        )


# -- worker --------------------------------------------------------------


def _truncate_file(path: str) -> None:
    """Tear a file (keep a prefix) — the TORN_SEGMENT injection."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 3))


def run_fabric_worker(
    fabric_dir: str,
    worker_id: str | None = None,
    heartbeat_interval_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    poll_interval_s: float = 0.05,
    plan_wait_s: float = 60.0,
    idle_exit_s: float | None = None,
) -> dict:
    """One fabric worker: claim → run → spill → manifest, until done.

    Startable on any host that mounts ``fabric_dir`` (the
    ``repro worker`` CLI verb wraps this), before or after the
    coordinator.  The worker waits for ``plan.json`` (up to
    ``plan_wait_s``), rebuilds the campaign config from it, then
    loops: claim any unmanifested, unheld shard; run it with a lease
    heartbeat thread refreshing ownership; spill the result as a
    checksummed segment; offer the completion manifest with a
    create-exclusive put (a lost race writes a discard marker
    instead).  Exits when the coordinator drops a terminal marker, or
    after ``idle_exit_s`` without claimable work (``None`` waits
    indefinitely).  Host-level faults from ``fault_plan`` (keyed
    ``(shard_id, attempt)``) are injected here — see
    :data:`~repro.runtime.faults.HOST_FAULT_KINDS`.

    Returns a summary dict (``worker_id``, ``shards_completed``,
    ``manifests_discarded``).
    """
    from repro.extension.campaign import CampaignConfig

    paths = FabricPaths(fabric_dir)
    paths.ensure()
    store = FsStore(fabric_dir)
    worker_id = worker_id or default_worker_id()
    deadline = time.time() + plan_wait_s
    plan = load_plan(store)
    while plan is None:
        if terminal_marker(store) is not None:
            return {
                "worker_id": worker_id,
                "shards_completed": 0,
                "manifests_discarded": 0,
            }
        if time.time() > deadline:
            raise FabricError(
                f"no fabric plan appeared at {store.path_for(PLAN_KEY)} "
                f"within {plan_wait_s:.0f}s"
            )
        time.sleep(poll_interval_s)
        plan = load_plan(store)
    if plan.config_json is None:
        raise FabricError(
            f"fabric plan at {store.path_for(PLAN_KEY)} carries no config; "
            "workers cannot rebuild the campaign"
        )
    config = CampaignConfig.from_json_dict(plan.config_json)
    ckpt = CheckpointStore(paths.segments, config)
    if ckpt.fingerprint != plan.fingerprint:
        raise FabricError(
            f"plan fingerprint {plan.fingerprint!r} does not match the "
            f"config it carries ({ckpt.fingerprint!r})"
        )
    leases = LeaseDir(store, ttl_s=plan.lease_ttl_s, prefix=LEASES_PREFIX)
    registry = WorkerRegistry(
        store, worker_id, ttl_s=plan.lease_ttl_s, prefix=WORKERS_PREFIX
    )
    registry.write("idle")
    beat_s = (
        float(heartbeat_interval_s)
        if heartbeat_interval_s is not None
        else None
    )
    completed = 0
    discarded = 0
    idle_since = time.time()
    try:
        while terminal_marker(store) is None:
            progress = False
            for shard_id, indices in plan.shards:
                if terminal_marker(store) is not None:
                    break
                if store.exists(_manifest_key(shard_id)):
                    continue
                attempt = 0
                hold = store.get_json(_hold_key(shard_id))
                if hold is not None:
                    if float(hold.get("not_before", 0.0)) > time.time():
                        continue
                    attempt = int(hold.get("attempt", 0))
                record = leases.claim(shard_id, worker_id, attempt)
                if record is None:
                    continue
                progress = True
                outcome = _run_claimed_shard(
                    paths,
                    store,
                    leases,
                    registry,
                    ckpt,
                    config,
                    record,
                    indices,
                    fault_plan,
                    beat_s,
                )
                completed += outcome == "completed"
                discarded += outcome == "discarded"
            if progress:
                idle_since = time.time()
            else:
                if (
                    idle_exit_s is not None
                    and time.time() - idle_since > idle_exit_s
                ):
                    break
                registry.write()
                time.sleep(poll_interval_s)
    finally:
        registry.set_exited()
    return {
        "worker_id": worker_id,
        "shards_completed": completed,
        "manifests_discarded": discarded,
    }


def _run_claimed_shard(
    paths: FabricPaths,
    store: CoordinationStore,
    leases: LeaseDir,
    registry: WorkerRegistry,
    ckpt: CheckpointStore,
    config,
    record,
    indices,
    fault_plan: FaultPlan | None,
    heartbeat_interval_s: float | None,
) -> str:
    """Run one claimed shard to its manifest; returns the outcome.

    ``"completed"`` (our manifest won), ``"discarded"`` (a sibling's
    attempt won first — discard marker written), or ``"failed"`` (the
    shard raised; the lease is released so the coordinator re-dispatches).
    """
    shard_id = record.shard_id
    attempt = record.attempt
    fault = fault_plan.fault_for(shard_id, attempt) if fault_plan else None
    registry.set_running(shard_id)
    heartbeat = LeaseHeartbeat(leases, record, heartbeat_interval_s).start()
    outcome = "failed"
    try:
        if fault is not None and fault.kind is FaultKind.DEAD_HEARTBEAT:
            # Die like a host does: no cleanup, no release — the lease
            # stays behind and its heartbeat simply stops.
            time.sleep(fault.delay_s)
            os._exit(fault.exitcode)
        result = run_shard(config, shard_id, list(indices))
        if fault is not None and fault.kind is FaultKind.STRAGGLER:
            # Dawdle while the heartbeat thread keeps the lease fresh —
            # only the percentile deadline can recover this shard.
            time.sleep(fault.delay_s)
        if fault is not None and fault.kind is FaultKind.LEASE_LOSS:
            # Fence our own token (as a coordinator revocation or a
            # shared-FS hiccup would); the background beat trips the
            # fence, but we still finish and offer the manifest
            # speculatively — first valid manifest wins.
            leases.revoke(shard_id, "injected lease loss")
            heartbeat.lost.wait(timeout=max(1.0, 4 * heartbeat.interval_s))
        segment_path = ckpt.save(result)
        if fault is not None and fault.kind is FaultKind.TORN_SEGMENT:
            _truncate_file(segment_path)
        manifest = {
            "shard_id": shard_id,
            "worker_id": record.worker_id,
            "token": record.token,
            "attempt": attempt,
            "segment": os.path.relpath(segment_path, paths.root),
            "n_page_loads": result.stats.n_page_loads,
            "n_speedtests": result.stats.n_speedtests,
            "wall_s": result.stats.wall_s,
            "lease_lost": heartbeat.lost.is_set(),
            "completed_at": time.time(),
        }
        if store.put_json_if_absent(_manifest_key(shard_id), manifest):
            outcome = "completed"
        else:
            outcome = "discarded"
            store.put_json(
                _discard_key(shard_id, record.token),
                {
                    **manifest,
                    "reason": "manifest already present (lost the "
                    "first-valid-manifest race)",
                },
            )
    except FabricError:
        raise
    except Exception:  # noqa: BLE001 - release the lease, let the
        # coordinator re-dispatch; a worker must survive one bad shard.
        outcome = "failed"
    finally:
        heartbeat.stop()
        leases.release(heartbeat.record)
        registry.set_idle(
            completed=outcome == "completed",
            discarded=outcome == "discarded",
        )
    return outcome


def _fabric_worker_entry(
    fabric_dir, worker_id, heartbeat_interval_s, fault_plan
) -> None:
    """Local worker-process entry point (top-level: spawn-picklable)."""
    run_fabric_worker(
        fabric_dir,
        worker_id=worker_id,
        heartbeat_interval_s=heartbeat_interval_s,
        fault_plan=fault_plan,
    )


# -- coordinator ---------------------------------------------------------


class FabricCoordinator:
    """Plans, watches, recovers and merges one fabric campaign."""

    def __init__(
        self,
        config,
        fabric_dir: str,
        *,
        n_shards: int | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = 0.05,
        straggler_percentile: float = 95.0,
        straggler_multiplier: float = 3.0,
        straggler_floor_s: float = 5.0,
        straggler_min_samples: int = 3,
        redispatch_backoff_base_s: float = 0.05,
        redispatch_backoff_max_s: float = 2.0,
        max_redispatches: int = DEFAULT_MAX_REDISPATCHES,
        on_event=None,
    ):
        self.config = config
        self.paths = FabricPaths(fabric_dir)
        self.paths.ensure()
        self.store = FsStore(fabric_dir)
        self.plan = write_or_adopt_plan(
            config, self.store, n_shards=n_shards, lease_ttl_s=lease_ttl_s
        )
        self.leases = LeaseDir(
            self.store, ttl_s=self.plan.lease_ttl_s, prefix=LEASES_PREFIX
        )
        self.ckpt = CheckpointStore(self.paths.segments, config)
        self.poll_interval_s = poll_interval_s
        self.straggler_percentile = straggler_percentile
        self.straggler_multiplier = straggler_multiplier
        self.straggler_floor_s = straggler_floor_s
        self.straggler_min_samples = straggler_min_samples
        self.redispatch_backoff_base_s = redispatch_backoff_base_s
        self.redispatch_backoff_max_s = redispatch_backoff_max_s
        self.max_redispatches = max_redispatches
        self.on_event = on_event
        self.lease_log: list[dict] = []
        # per-shard recovery book-keeping
        self._seen_token: dict[int, str] = {}
        self._holder: dict[int, str] = {}
        self._last_attempt: dict[int, int] = {}
        self._claimed_at: dict[str, float] = {}
        self._redispatches: dict[int, int] = {}
        self._pending: dict[int, dict] = {}  # sid -> revocation context
        self._manifest_first_seen: dict[int, float] = {}
        self._seen_discards: set[str] = set()
        self._durations: list[float] = []
        self._counters = {
            "redispatched": 0,
            "stolen": 0,
            "discarded": 0,
            "quarantined": 0,
        }

    # -- logging -------------------------------------------------------

    def _log(self, event_type: str, **data) -> dict:
        event = {"type": event_type, "t": time.time(), **data}
        self.lease_log.append(event)
        try:
            self.store.append_line(
                LOG_KEY, json.dumps(event, sort_keys=True)
            )
        except (OSError, FabricError):
            pass  # the in-memory log still records the transition
        if self.on_event is not None:
            self.on_event(event)
        return event

    def _marker(self, name: str, **data) -> None:
        self.store.put_json(name, {"at": time.time(), **data})

    # -- run -----------------------------------------------------------

    def run(
        self,
        on_result=None,
        should_stop=None,
        local_workers=(),
    ):
        """Drive the campaign to its merged dataset.

        ``local_workers`` are process handles spawned by
        :func:`run_fabric_campaign`; if all of them die with work still
        outstanding and no external worker holds a lease, the
        coordinator fails fast instead of polling forever.

        Returns ``(dataset, FabricRunStats)``.
        """
        started = time.perf_counter()
        accepted: dict[int, object] = {}
        self._log(
            "campaign_planned",
            n_shards=self.plan.n_shards,
            n_users=len(self.plan.expected_indices),
            n_workers=len(local_workers) or None,
            fingerprint=self.plan.fingerprint,
        )
        try:
            while len(accepted) < self.plan.n_shards:
                if should_stop is not None and should_stop():
                    self._marker(CANCELLED_MARKER, reason="should_stop")
                    self._log(
                        "campaign_cancelled",
                        completed_shards=len(accepted),
                        n_shards=self.plan.n_shards,
                    )
                    raise CampaignCancelledError(
                        f"fabric campaign cancelled with {len(accepted)}"
                        f"/{self.plan.n_shards} shards complete",
                        completed_shards=len(accepted),
                        n_shards=self.plan.n_shards,
                    )
                self._scan_manifests(accepted, on_result)
                if len(accepted) >= self.plan.n_shards:
                    break
                self._scan_discards()
                self._scan_leases(accepted)
                self._check_local_workers(local_workers, accepted)
                time.sleep(self.poll_interval_s)
        except Exception as exc:
            if not isinstance(exc, CampaignCancelledError):
                if terminal_marker(self.store) is None:
                    self._marker(FAILED_MARKER, reason=str(exc))
                self._log("campaign_failed", reason=str(exc))
            raise
        sink_started = time.perf_counter()
        dataset = merge_shard_results(
            accepted.values(),
            expected_indices=self.plan.expected_indices,
            backend=backend_for_config(self.config),
        )
        self._marker(DONE_MARKER, n_shards=self.plan.n_shards)
        self._log(
            "campaign_completed",
            n_shards=self.plan.n_shards,
            redispatched=self._counters["redispatched"],
            stolen=self._counters["stolen"],
            discarded=self._counters["discarded"],
            quarantined=self._counters["quarantined"],
        )
        stats = FabricRunStats.assemble(
            (result.stats for result in accepted.values()),
            n_workers=len(local_workers) or 1,
            started=started,
            sink_started=sink_started,
            n_worker_processes=len(local_workers),
            n_shards=self.plan.n_shards,
            redispatched_shards=self._counters["redispatched"],
            stolen_shards=self._counters["stolen"],
            discarded_manifests=self._counters["discarded"],
            quarantined_segments=self._counters["quarantined"],
            lease_log=list(self.lease_log),
        )
        return dataset, stats

    # -- manifest intake -----------------------------------------------

    def _scan_manifests(self, accepted: dict, on_result) -> None:
        now = time.time()
        for shard_id, indices in self.plan.shards:
            if shard_id in accepted:
                continue
            obj = self.store.get(_manifest_key(shard_id))
            if obj is None:
                continue
            doc = obj.json()
            if doc is None:
                # Possibly observed mid-write on a laggy shared FS;
                # give it one TTL to become readable, then treat it as
                # torn so the shard isn't wedged forever.
                first = self._manifest_first_seen.setdefault(shard_id, now)
                if now - first > self.plan.lease_ttl_s:
                    self._reject_manifest(
                        shard_id, indices, {}, "unreadable manifest"
                    )
                continue
            self._manifest_first_seen.pop(shard_id, None)
            segment = self.ckpt.load(shard_id, list(indices))
            if segment is None:
                self._reject_manifest(
                    shard_id,
                    indices,
                    doc,
                    "segment failed validation (torn write, checksum "
                    "mismatch, or wrong partition)",
                )
                continue
            attempt = int(doc.get("attempt", 0))
            segment.stats.attempts = attempt + 1
            accepted[shard_id] = segment
            token = doc.get("token", "")
            claimed_at = self._claimed_at.get(token)
            if claimed_at is not None:
                self._durations.append(
                    float(doc.get("completed_at", now)) - claimed_at
                )
            elif doc.get("wall_s"):
                self._durations.append(float(doc["wall_s"]))
            context = self._pending.pop(shard_id, None)
            stolen = (
                context is not None
                and context.get("worker_id") not in (None, doc.get("worker_id"))
            )
            if stolen:
                self._counters["stolen"] += 1
                self._log(
                    "shard_stolen",
                    shard_id=shard_id,
                    worker_id=doc.get("worker_id"),
                    from_worker_id=context.get("worker_id"),
                    reason=context.get("reason"),
                    attempt=attempt,
                )
            self._log(
                "shard_completed",
                shard_id=shard_id,
                worker_id=doc.get("worker_id"),
                token=token,
                attempt=attempt,
                attempts=attempt + 1,
                n_page_loads=segment.stats.n_page_loads,
                n_speedtests=segment.stats.n_speedtests,
                wall_s=segment.stats.wall_s,
                stolen=stolen,
            )
            self.leases.clear_fence(shard_id)
            self.store.delete(_hold_key(shard_id))
            if on_result is not None:
                on_result(segment)

    def _reject_manifest(
        self, shard_id: int, indices, doc: dict, reason: str
    ) -> None:
        """Quarantine a torn completion and re-queue the shard."""
        attempt = int(doc.get("attempt", self._last_attempt.get(shard_id, 0)))
        report = self.quarantine_segment(shard_id, attempt, doc, reason)
        self._counters["quarantined"] += bool(report.get("quarantined"))
        self._log("segment_quarantined", shard_id=shard_id, **report)
        self._schedule_redispatch(
            shard_id,
            reason=f"torn segment: {reason}",
            next_attempt=attempt + 1,
            worker_id=doc.get("worker_id"),
        )
        # The hold (with the bumped attempt) is in place; only now make
        # the shard claimable again by moving the manifest aside.
        obj = self.store.get(_manifest_key(shard_id))
        if obj is not None:
            self.store.put(_rejected_key(shard_id, attempt), obj.data)
        self.store.delete(_manifest_key(shard_id))
        self._manifest_first_seen.pop(shard_id, None)

    def quarantine_segment(
        self, shard_id: int, attempt: int, doc: dict, reason: str
    ) -> dict:
        """Move a bad segment into ``quarantine/``; returns a report.

        The report (segment path or absence, reason, attempt) is what
        the re-dispatch log carries — the fabric-side consumer of the
        :meth:`SpillBackend.quarantine <repro.extension.backends.SpillBackend>`
        -style torn-write handling.
        """
        segment_rel = doc.get("segment")
        segment_path = (
            os.path.join(self.paths.root, segment_rel)
            if isinstance(segment_rel, str)
            else os.path.join(
                self.ckpt.directory, f"shard-{shard_id:04d}.ckpt"
            )
        )
        report = {
            "reason": reason,
            "attempt": attempt,
            "quarantined": False,
            "segment": None,
        }
        if os.path.exists(segment_path):
            target = os.path.join(
                self.paths.quarantine,
                f"{os.path.basename(segment_path)}.attempt-{attempt}",
            )
            try:
                os.replace(segment_path, target)
            except OSError:
                return report
            report["quarantined"] = True
            report["segment"] = os.path.relpath(target, self.paths.root)
        return report

    # -- discard intake ------------------------------------------------

    def _scan_discards(self) -> None:
        for key in self.store.list_prefix(DISCARDS_PREFIX):
            name = key.rsplit("/", 1)[-1]
            if not name.endswith(".json") or name in self._seen_discards:
                continue
            self._seen_discards.add(name)
            doc = self.store.get_json(key) or {}
            self._counters["discarded"] += 1
            self._log(
                "manifest_discarded",
                shard_id=doc.get("shard_id"),
                worker_id=doc.get("worker_id"),
                token=doc.get("token"),
                attempt=doc.get("attempt"),
                reason=doc.get("reason", "lost the first-valid-manifest race"),
            )

    # -- lease watching ------------------------------------------------

    def _straggler_deadline(self) -> float | None:
        return straggler_deadline_s(
            self._durations,
            percentile=self.straggler_percentile,
            multiplier=self.straggler_multiplier,
            floor_s=self.straggler_floor_s,
            min_samples=self.straggler_min_samples,
        )

    def _scan_leases(self, accepted: dict) -> None:
        now = time.time()
        held = {r.shard_id: r for r in self.leases.read_all()}
        workers = {
            doc.get("worker_id"): doc
            for doc in WorkerRegistry.read_all(self.store, WORKERS_PREFIX)
        }
        deadline = self._straggler_deadline()
        for shard_id, _indices in self.plan.shards:
            if shard_id in accepted:
                continue
            record = held.get(shard_id)
            if record is None:
                # Lease vanished without a manifest: lost (fenced by a
                # chaos injection, or released by a failing worker).
                if (
                    shard_id in self._seen_token
                    and shard_id not in self._pending
                    and not self.store.exists(_manifest_key(shard_id))
                ):
                    token = self._seen_token.pop(shard_id)
                    worker = self._holder.get(shard_id)
                    self._log(
                        "lease_lost",
                        shard_id=shard_id,
                        worker_id=worker,
                        token=token,
                    )
                    self._schedule_redispatch(
                        shard_id,
                        reason="lease lost without a manifest",
                        next_attempt=self._last_attempt.get(shard_id, 0) + 1,
                        worker_id=worker,
                    )
                continue
            if self._seen_token.get(shard_id) != record.token:
                self._seen_token[shard_id] = record.token
                self._holder[shard_id] = record.worker_id
                self._last_attempt[shard_id] = record.attempt
                self._claimed_at[record.token] = record.claimed_at
                self._log(
                    "lease_claimed",
                    shard_id=shard_id,
                    worker_id=record.worker_id,
                    token=record.token,
                    attempt=record.attempt,
                    redispatched=shard_id in self._pending,
                )
            if record.expired(now):
                self._revoke(
                    shard_id, record, "expired",
                    f"heartbeat silent for more than {record.ttl_s:.2f}s",
                )
                continue
            holder_doc = workers.get(record.worker_id)
            if holder_doc is not None and holder_doc.get("state") == "exited":
                # Dead-worker fast path: its registry entry says it is
                # gone, no need to wait for the TTL to run out.
                self._revoke(
                    shard_id, record, "worker_dead",
                    "holding worker registry entry is 'exited'",
                )
                continue
            if deadline is not None and record.held_s(now) > deadline:
                self._revoke(
                    shard_id, record, "straggler",
                    f"held {record.held_s(now):.2f}s > deadline "
                    f"{deadline:.2f}s "
                    f"(p{self.straggler_percentile:.0f} x "
                    f"{self.straggler_multiplier:g})",
                )

    def _revoke(self, shard_id: int, record, kind: str, detail: str) -> None:
        self.leases.revoke(shard_id, f"{kind}: {detail}")
        self._seen_token.pop(shard_id, None)
        self._log(
            f"lease_{kind}" if kind in ("expired", "straggler") else "lease_revoked",
            shard_id=shard_id,
            worker_id=record.worker_id,
            token=record.token,
            attempt=record.attempt,
            kind=kind,
            detail=detail,
            held_s=record.held_s(),
        )
        self._schedule_redispatch(
            shard_id,
            reason=f"{kind}: {detail}",
            next_attempt=record.attempt + 1,
            worker_id=record.worker_id,
        )

    def _schedule_redispatch(
        self,
        shard_id: int,
        reason: str,
        next_attempt: int,
        worker_id: str | None,
    ) -> None:
        count = self._redispatches.get(shard_id, 0) + 1
        self._redispatches[shard_id] = count
        if count > self.max_redispatches:
            raise FabricError(
                f"shard {shard_id} exceeded {self.max_redispatches} "
                f"re-dispatches (last reason: {reason}); giving up"
            )
        backoff = min(
            self.redispatch_backoff_base_s * (2.0 ** (count - 1)),
            self.redispatch_backoff_max_s,
        )
        self.store.put_json(
            _hold_key(shard_id),
            {
                "shard_id": shard_id,
                "attempt": next_attempt,
                "not_before": time.time() + backoff,
                "reason": reason,
                "redispatches": count,
            },
        )
        self._pending[shard_id] = {"worker_id": worker_id, "reason": reason}
        self._counters["redispatched"] += 1
        self._log(
            "shard_redispatched",
            shard_id=shard_id,
            attempt=next_attempt,
            backoff_s=backoff,
            redispatches=count,
            reason=reason,
        )

    # -- liveness ------------------------------------------------------

    def _check_local_workers(self, local_workers, accepted: dict) -> None:
        if not local_workers:
            return
        if any(process.is_alive() for process in local_workers):
            return
        # All local workers are gone.  External workers may still hold
        # leases (multi-host deployment); only fail when nothing is
        # making progress and work remains.
        if len(accepted) >= self.plan.n_shards:
            return
        if self.leases.read_all():
            return
        raise FabricError(
            f"all {len(local_workers)} local fabric workers exited with "
            f"{self.plan.n_shards - len(accepted)} shard(s) outstanding "
            "and no external leases held"
        )


# -- campaign front door -------------------------------------------------


def run_fabric_campaign(
    config,
    n_workers: int | None = None,
    fabric_dir: str | None = None,
    *,
    n_shards: int | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    heartbeat_interval_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    poll_interval_s: float = 0.05,
    straggler_percentile: float = 95.0,
    straggler_multiplier: float = 3.0,
    straggler_floor_s: float = 5.0,
    straggler_min_samples: int = 3,
    max_redispatches: int = DEFAULT_MAX_REDISPATCHES,
    fabric_store: str | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
):
    """Run one campaign on the fabric with local worker processes.

    The one-machine convenience wrapper: publishes the plan, spawns
    ``n_workers`` local fabric workers (under the campaign's resolved
    multiprocessing start method), drives the coordinator loop, and
    tears the workers down once a terminal marker lands.  Additional
    workers on other hosts may join the same ``fabric_dir`` at any
    time — the coordinator does not distinguish them from local ones.
    ``fabric_store`` accepts only ``None`` or ``"fs"``, the one
    coordination store.

    Returns ``(dataset, FabricRunStats)`` — the dataset bit-identical
    to the serial run regardless of the fault schedule survived.
    """
    if fabric_store not in (None, "fs"):
        raise ConfigurationError(
            "fabric_store must be 'fs' (the only coordination store), "
            f"got {fabric_store!r}"
        )
    if n_workers is None:
        n_workers = max(1, getattr(config, "n_workers", 1))
    if n_workers < 0:
        # 0 is allowed: coordinator-only, workers join from elsewhere
        # (the ``repro coordinate`` + ``repro worker`` deployment).
        raise ConfigurationError(f"n_workers must be >= 0, got {n_workers}")
    created_dir = fabric_dir is None
    if fabric_dir is None:
        fabric_dir = tempfile.mkdtemp(prefix="repro-fabric-")
    coordinator = FabricCoordinator(
        config,
        fabric_dir,
        n_shards=n_shards,
        lease_ttl_s=lease_ttl_s,
        poll_interval_s=poll_interval_s,
        straggler_percentile=straggler_percentile,
        straggler_multiplier=straggler_multiplier,
        straggler_floor_s=straggler_floor_s,
        straggler_min_samples=straggler_min_samples,
        max_redispatches=max_redispatches,
        on_event=on_event,
    )
    context = mp_context(config)
    workers = []
    for rank in range(n_workers):
        process = context.Process(
            target=_fabric_worker_entry,
            args=(
                fabric_dir,
                f"{default_worker_id()}-w{rank}",
                heartbeat_interval_s,
                fault_plan,
            ),
            daemon=True,
        )
        process.start()
        workers.append(process)
    try:
        dataset, stats = coordinator.run(
            on_result=on_result,
            should_stop=should_stop,
            local_workers=workers,
        )
    finally:
        # Workers poll the terminal marker every poll interval, so a
        # short grace suffices; anything still alive after that is
        # wedged mid-fault (an injected straggler asleep past the end)
        # and gets terminated.
        deadline = time.time() + max(2.0, poll_interval_s * 10)
        for process in workers:
            process.join(timeout=max(0.1, deadline - time.time()))
        for process in workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    if created_dir:
        import shutil

        shutil.rmtree(fabric_dir, ignore_errors=True)
    return dataset, stats


def fabric_status(fabric_dir: str) -> dict:
    """Live lease/heartbeat/worker view of one fabric directory.

    The JSON document behind ``GET /v1/campaigns/{id}/workers`` and the
    CLI's progress display: the registered workers (with heartbeat
    ages), every held lease (with expiry state), and shard completion
    counts.  Read-only — safe to call from any process at any time.
    """
    store = FsStore(fabric_dir)
    now = time.time()
    plan = load_plan(store)
    ttl_s = plan.lease_ttl_s if plan is not None else DEFAULT_LEASE_TTL_S
    lease_docs = []
    leases = LeaseDir(store, ttl_s=ttl_s, prefix=LEASES_PREFIX)
    for record in leases.read_all():
        doc = record.to_json_dict()
        doc["heartbeat_age_s"] = max(0.0, now - record.heartbeat_at)
        doc["held_s"] = record.held_s(now)
        doc["expired"] = record.expired(now)
        lease_docs.append(doc)
    worker_docs = []
    for doc in WorkerRegistry.read_all(store, WORKERS_PREFIX):
        doc = dict(doc)
        beat = doc.get("heartbeat_at")
        if isinstance(beat, (int, float)):
            doc["heartbeat_age_s"] = max(0.0, now - float(beat))
        worker_docs.append(doc)
    n_shards = plan.n_shards if plan is not None else 0
    completed = 0
    if plan is not None:
        completed = sum(
            1
            for shard_id, _ in plan.shards
            if store.exists(_manifest_key(shard_id))
        )
    return {
        "fabric_dir": fabric_dir,
        "planned": plan is not None,
        "n_shards": n_shards,
        "completed_shards": completed,
        "terminal": terminal_marker(store),
        "workers": worker_docs,
        "leases": lease_docs,
    }
