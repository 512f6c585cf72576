"""The fault-tolerant campaign fabric: every multi-process placement.

The paper's campaign ran for months on a fleet of flaky vantage
points, and the fabric treats worker death — of a process or of a host
— as routine.  A campaign with more than one shard runs as one
coordinator plus any number of worker processes — on one machine or
many — that share nothing but the fabric directory, through which they
coordinate with POSIX primitives (:class:`~repro.runtime.store.FsStore`).
:func:`repro.runtime.supervision.supervise_shards` is the one function
that starts local workers for a coordinator; workers on other hosts
join the same directory with ``repro.experiments worker``.

* The **coordinator** publishes the campaign's shard partition
  (fingerprinted — see
  :func:`~repro.runtime.checkpoint.campaign_fingerprint`) as
  ``plan.json`` with a create-exclusive put; restarting a coordinator
  over an existing fabric directory *adopts* the plan and every
  already-valid manifest, so coordinator death loses nothing either.
* **Workers** claim shard leases atomically, heartbeat while computing,
  spill each finished shard as a checksummed columnar segment through
  the :class:`~repro.runtime.checkpoint.CheckpointStore` of the
  directory's ``segments/`` — the campaign's one segment directory,
  which an in-process run of the campaign uses too — and offer a
  completion manifest created exclusively — first valid manifest wins,
  always (see :mod:`repro.runtime.lease`).  A shard that raises leaves
  an error document naming the exception.
* The **coordinator loop** revokes a lease whose holder died (a local
  worker's process handle, or a heartbeat silent past the TTL), whose
  shard raised, or that is held past the deadline — the
  percentile-based straggler rule (:func:`straggler_deadline_s`),
  capped by the ``shard_timeout_s`` knob; a local worker past the
  deadline is terminated.  Dead or terminated local workers are
  replaced while shards remain.  Revoked shards re-dispatch with
  bounded exponential backoff (the ``retry_backoff_s`` and
  ``max_shard_retries`` knobs) and are picked up by whichever worker is
  idle first — work stealing falls out of the claim protocol.
  Arriving manifests are validated by *loading* the segment (internal
  sha256, fingerprint, exact user-index set); a torn, corrupt or
  missing segment, or one that another placement's run of the campaign
  overwrote with its own partition, is quarantined and the shard
  re-dispatched.  A local worker that died or was terminated has its
  registry document written ``exited`` on the coordinator's side.  A
  shard that uses up its budget fails the run with
  :class:`~repro.errors.ShardFailedError` once every other shard is
  stored.
* Every lease transition (claimed / expired / revoked / lost /
  straggler / re-dispatched / exhausted / stolen / completed / resumed /
  discarded / quarantined) and worker replacement is a record of the
  run's one :class:`~repro.runtime.shard.RunLog` — the record an
  in-process run writes too — appended to ``log.jsonl`` through the
  store and kept as the returned stats' ``events``; the run's failure
  records and recovery counts are read off it.
* A manifest the coordinator finds when it starts (a restart, or
  ``resume``) is adopted when its segment validates.  One that does not
  — a segment an earlier run wrote in an older layout, or one another
  placement's run overwrote — is quarantined and its shard queued for
  its next attempt, uncharged: no failure record, backoff or
  re-dispatch, since no attempt of this run failed.

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

The data plane (``segments/shard-NNNN.ckpt``, ``quarantine/``) sits
beside the coordination keys: segments are bulk checksummed columnar
blobs whose integrity the checkpoint format already owns, and only the
*coordination* metadata needs the store's arbitration.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CampaignCancelledError,
    ConfigurationError,
    FabricError,
    ShardFailedError,
)
from repro.extension.backends import backend_for_config
from repro.knobs import resolve
from repro.runtime.checkpoint import (
    SEGMENTS_DIR,
    CheckpointStore,
    campaign_fingerprint,
)
from repro.runtime.faults import FaultKind, FaultPlan, apply_post_run, apply_pre_run
from repro.runtime.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseDir,
    LeaseHeartbeat,
    WorkerRegistry,
    default_worker_id,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.shard import (
    LOG_KEY,
    CampaignRunStats,
    RunLog,
    plan_campaign,
    run_failures,
    run_shard,
)
from repro.runtime.store import CoordinationStore, FsStore

#: ``plan.json`` schema version (3 drops version 2's advisory ``store``
#: field, which named the coordination store).
PLAN_VERSION = 3

#: Terminal marker keys the coordinator puts at the fabric root;
#: their presence is the workers' exit signal.
DONE_MARKER = "DONE"
CANCELLED_MARKER = "CANCELLED"
FAILED_MARKER = "FAILED"
_MARKERS = (DONE_MARKER, CANCELLED_MARKER, FAILED_MARKER)

#: Upper bound on any one re-dispatch backoff delay.
BACKOFF_MAX_S = 2.0

#: How often the coordinator scans the directory, and an idle worker
#: looks for claimable work.
POLL_INTERVAL_S = 0.05

#: The straggler rule (:func:`straggler_deadline_s`): a lease held past
#: ``STRAGGLER_MULTIPLIER`` times the ``STRAGGLER_PERCENTILE``-th
#: completed-shard duration, once ``STRAGGLER_MIN_SAMPLES`` shards have
#: completed, is a straggler.
STRAGGLER_PERCENTILE = 95.0
STRAGGLER_MULTIPLIER = 3.0
STRAGGLER_MIN_SAMPLES = 3

#: Coordination key layout: each key is the file at that path under
#: the fabric directory.
PLAN_KEY = "plan.json"
LEASES_PREFIX = "leases/"
HOLDS_PREFIX = "holds/"
WORKERS_PREFIX = "workers/"
DISCARDS_PREFIX = "discards/"
ERRORS_PREFIX = "errors/"


def _hold_key(shard_id: int) -> str:
    return f"{HOLDS_PREFIX}shard-{shard_id:04d}.json"


def _manifest_key(shard_id: int) -> str:
    return f"manifests/shard-{shard_id:04d}.json"


def _rejected_key(shard_id: int, attempt: int) -> str:
    return f"manifests/shard-{shard_id:04d}.rejected-{attempt}.json"


def _discard_key(shard_id: int, token: str) -> str:
    return f"{DISCARDS_PREFIX}shard-{shard_id:04d}-{token}.json"


def _error_key(shard_id: int, token: str) -> str:
    return f"{ERRORS_PREFIX}shard-{shard_id:04d}-{token}.json"


def terminal_marker(store: CoordinationStore) -> str | None:
    """The terminal marker present in a coordination namespace, if any."""
    for name in _MARKERS:
        if store.exists(name):
            return name
    return None


class FabricPaths:
    """The data plane of one fabric directory: ``segments/`` (the
    campaign's shard segments, one :class:`CheckpointStore`) and
    ``quarantine/``.  The coordination keys beside them belong to the
    directory's :class:`~repro.runtime.store.FsStore`."""

    def __init__(self, root: str):
        self.root = root
        self.segments = os.path.join(root, SEGMENTS_DIR)
        self.quarantine = os.path.join(root, "quarantine")

    def ensure(self) -> None:
        for directory in (self.root, self.segments, self.quarantine):
            os.makedirs(directory, exist_ok=True)


def reset_fabric_dir(fabric_dir: str) -> None:
    """Drop a fabric directory's plan, coordination keys and segments,
    so the next coordinator over it starts afresh; other files stay."""
    for name in (PLAN_KEY, LOG_KEY, *_MARKERS):
        path = os.path.join(fabric_dir, name)
        if os.path.exists(path):
            os.remove(path)
    for name in (
        "manifests",
        "leases",
        "holds",
        "workers",
        "discards",
        "errors",
        SEGMENTS_DIR,
        "quarantine",
    ):
        shutil.rmtree(os.path.join(fabric_dir, name), ignore_errors=True)


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
    shards=None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
) -> FabricPlan:
    """Publish ``plan.json`` — or adopt an existing one.

    ``shards`` is the campaign executor's partition, ``(shard_id,
    user_indices)`` pairs (:func:`~repro.runtime.shard.plan_campaign`;
    ``None`` plans one shard per worker here).  The plan is created
    with the store's create-exclusive put so two racing coordinators
    agree on one partition.  An existing plan is adopted only when its
    campaign fingerprint matches this config (a fabric directory never
    mixes campaigns); its shard partition and TTL win over the
    arguments, so a restarted coordinator with another partition still
    merges the original one.
    """
    fingerprint = campaign_fingerprint(config)
    plan = load_plan(store)
    if plan is None and not store.exists(PLAN_KEY):
        if shards is None:
            _, shards = plan_campaign(config)
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
        plan = load_plan(store)  # a racing coordinator won
    if plan is None:
        raise FabricError(f"unreadable fabric plan at {store.path_for(PLAN_KEY)}")
    if plan.fingerprint != fingerprint:
        raise FabricError(
            f"fabric directory {store.root} belongs to campaign "
            f"fingerprint {plan.fingerprint!r}, not {fingerprint!r}"
        )
    return plan


def load_plan(store: FsStore) -> FabricPlan | None:
    """The published plan; ``None`` while it is absent or not yet JSON.

    The one ``plan.json`` parser: the coordinator's adopt path, the
    workers and :func:`fabric_status` all read the plan through it.

    Raises:
        FabricError: ``malformed fabric plan at <path>: <reason>`` when
            the plan is JSON but not a plan, so a worker fails at once
            instead of waiting for a plan that is already there.
    """
    found = store.get(PLAN_KEY)
    if found is None:
        return None
    try:
        doc = json.loads(found.data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
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
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise FabricError(
            f"malformed fabric plan at {store.path_for(PLAN_KEY)}: {reason}"
        ) from exc


def straggler_deadline_s(durations_s, floor_s: float = 1.0) -> float | None:
    """Percentile-based per-shard deadline from observed durations.

    The coordinator calls this with the wall-clock durations of shards
    that already completed: a shard still held past
    :data:`STRAGGLER_MULTIPLIER` times the
    :data:`STRAGGLER_PERCENTILE`-th duration is a straggler worth
    re-dispatching.  Returns ``None`` until
    :data:`STRAGGLER_MIN_SAMPLES` durations exist — with too few
    samples any deadline is noise, and a premature revocation would
    churn a healthy fleet.  ``floor_s`` bounds the deadline from below
    so uniformly tiny shards don't produce a hair-trigger.
    """
    samples = [float(d) for d in durations_s]
    if len(samples) < STRAGGLER_MIN_SAMPLES:
        return None
    reference = float(np.percentile(np.asarray(samples), STRAGGLER_PERCENTILE))
    return max(float(floor_s), STRAGGLER_MULTIPLIER * reference)


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
    plan_wait_s: float = 60.0,
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
    instead).  Exits when the coordinator drops a terminal marker.
    Faults from ``fault_plan`` (keyed ``(shard_id, attempt)``, see
    :mod:`repro.runtime.faults`) are injected after the claim.

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
        time.sleep(POLL_INTERVAL_S)
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
                    if hold.get("exhausted") or (
                        float(hold.get("not_before", 0.0)) > time.time()
                    ):
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
            if not progress:
                registry.write()
                time.sleep(POLL_INTERVAL_S)
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
    shard raised: an error document names the exception, and the lease
    stays for the coordinator to revoke, so the shard is re-claimed
    only at the next attempt).
    """
    shard_id = record.shard_id
    attempt = record.attempt
    fault = fault_plan.fault_for(shard_id, attempt) if fault_plan else None
    registry.set_running(shard_id)
    heartbeat = LeaseHeartbeat(leases, record, heartbeat_interval_s).start()
    outcome = "failed"
    try:
        apply_pre_run(fault)
        result = apply_post_run(fault, run_shard(config, shard_id, list(indices)))
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
    except Exception as exc:  # noqa: BLE001 - a worker must survive one
        # bad shard: report it and let the coordinator re-dispatch.
        store.put_json(
            _error_key(shard_id, record.token),
            {
                "shard_id": shard_id,
                "worker_id": record.worker_id,
                "token": record.token,
                "attempt": attempt,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )
    finally:
        heartbeat.stop()
        if outcome != "failed":
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
    """Plans, watches, recovers and merges one fabric campaign.

    The re-dispatch budget, backoff base and deadline cap are the
    config's ``max_shard_retries``, ``retry_backoff_s`` and
    ``shard_timeout_s`` knobs (DESIGN.md §5).  Every transition is a
    record of :attr:`log`, the run's
    :class:`~repro.runtime.shard.RunLog` over the directory's
    ``log.jsonl``; ``on_event`` sees each record as it is logged.
    """

    def __init__(
        self,
        config,
        fabric_dir: str,
        *,
        shards=None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        straggler_floor_s: float = 5.0,
        on_event=None,
    ):
        self.config = config
        self.paths = FabricPaths(fabric_dir)
        self.paths.ensure()
        self.store = FsStore(fabric_dir)
        self.plan = write_or_adopt_plan(config, self.store, shards, lease_ttl_s)
        if terminal_marker(self.store) is not None:
            # The run that wrote the marker is over and its workers have
            # exited or been torn down: its leases, holds and error
            # reports are stale, and the marker would stop our workers.
            self._clear_finished_run()
        self.leases = LeaseDir(
            self.store, ttl_s=self.plan.lease_ttl_s, prefix=LEASES_PREFIX
        )
        self.ckpt = CheckpointStore(self.paths.segments, config)
        self.straggler_floor_s = straggler_floor_s
        self.max_retries = resolve("max_shard_retries", config.max_shard_retries)
        self.backoff_base_s = resolve("retry_backoff_s", config.retry_backoff_s)
        self.shard_timeout_s = resolve("shard_timeout_s", config.shard_timeout_s)
        self.log = RunLog(on_event, self.store)
        # per-shard recovery book-keeping
        self._seen_token: dict[int, str] = {}
        #: Lease tokens whose attempt's outcome is recorded (accepted,
        #: rejected or revoked): never revoked or reported lost again.
        self._settled: set[str] = set()
        self._holder: dict[int, str] = {}
        self._claimed_at: dict[str, float] = {}
        self._redispatches: dict[int, int] = {}
        self._pending: dict[int, dict] = {}  # sid -> revocation context
        self._exhausted: set[int] = set()
        self._manifest_first_seen: dict[int, float] = {}
        self._seen_discards: set[str] = set()
        self._seen_errors: set[str] = set()
        self._durations: list[float] = []

    def _clear_finished_run(self) -> None:
        for name in _MARKERS:
            self.store.delete(name)
        for prefix in (LEASES_PREFIX, HOLDS_PREFIX, ERRORS_PREFIX):
            for key in self.store.list_prefix(prefix):
                self.store.delete(key)

    def _marker(self, name: str, **data) -> None:
        self.store.put_json(name, {"at": time.time(), **data})

    # -- run -----------------------------------------------------------

    def run(self, on_result=None, should_stop=None, local_workers=None):
        """Drive the campaign to its merged dataset.

        Shards whose manifests are already valid are adopted first (a
        restart, or ``resume``): they count as resumed and need no
        worker; a manifest whose segment does not validate is
        quarantined and its shard queued, uncharged.  ``local_workers`` (a
        :class:`~repro.runtime.supervision.LocalWorkers`) then starts
        up to ``min(n_workers, unfinished shards)`` processes; the
        loop replaces one that dies holding a lease or that the
        deadline terminated, and fails fast if all of them exit with
        work outstanding and no external worker holding a lease.

        Returns ``(dataset, CampaignRunStats)``; the stats keep
        :attr:`log`'s records, ``campaign_completed`` last.

        Raises:
            ShardFailedError: a shard used up its re-dispatch budget;
                every other shard was accepted and stored first.
            CampaignCancelledError: ``should_stop`` returned true.
        """
        started = time.perf_counter()
        accepted: dict[int, object] = {}
        n_workers = local_workers.n_workers if local_workers is not None else 0
        self.log.log(
            "campaign_planned",
            n_shards=self.plan.n_shards,
            n_users=len(self.plan.expected_indices),
            n_workers=n_workers or None,
            fingerprint=self.plan.fingerprint,
            placement="fabric",
        )
        try:
            self._scan_manifests(accepted, on_result, resumed=True)
            if local_workers is not None:
                local_workers.start(
                    min(n_workers, self.plan.n_shards - len(accepted))
                )
            while len(accepted) + len(self._exhausted) < self.plan.n_shards:
                if should_stop is not None and should_stop():
                    raise CampaignCancelledError(
                        f"fabric campaign cancelled with {len(accepted)}"
                        f"/{self.plan.n_shards} shards complete",
                        completed_shards=len(accepted),
                        n_shards=self.plan.n_shards,
                    )
                self._scan_manifests(accepted, on_result)
                if len(accepted) + len(self._exhausted) >= self.plan.n_shards:
                    break
                self._scan_discards()
                self._scan_errors(accepted)
                self._scan_leases(accepted, local_workers)
                self._check_local_workers(accepted, local_workers)
                time.sleep(POLL_INTERVAL_S)
            if self._exhausted:
                failures = run_failures(self.log.events)
                raise ShardFailedError(
                    f"shard(s) {sorted(self._exhausted)} exhausted "
                    f"{self.max_retries} re-dispatches; failure log: "
                    + "; ".join(f.describe() for f in failures),
                    failures=failures,
                )
        except Exception as exc:
            cancelled = isinstance(exc, CampaignCancelledError)
            if terminal_marker(self.store) is None:
                self._marker(
                    CANCELLED_MARKER if cancelled else FAILED_MARKER,
                    reason="should_stop" if cancelled else str(exc),
                )
            # No worker of this run may outlive its terminal event: a
            # client that resumes on seeing it gets the directory alone.
            if local_workers is not None:
                local_workers.stop()
            if cancelled:
                self.log.log(
                    "campaign_cancelled",
                    completed_shards=len(accepted),
                    n_shards=self.plan.n_shards,
                )
            else:
                self.log.log("campaign_failed", reason=str(exc))
            raise
        # Every shard is in: release the workers before merging.
        self._marker(DONE_MARKER, n_shards=self.plan.n_shards)
        sink_started = time.perf_counter()
        dataset = merge_shard_results(
            accepted.values(),
            expected_indices=self.plan.expected_indices,
            backend=backend_for_config(self.config),
        )
        stats = CampaignRunStats.assemble(
            (result.stats for result in accepted.values()),
            n_workers=n_workers or 1,
            started=started,
            sink_started=sink_started,
            events=self.log.events,
            n_worker_processes=(
                local_workers.n_initial if local_workers is not None else 0
            ),
        )
        self.log.log(
            "campaign_completed",
            n_shards=stats.n_shards,
            redispatched=stats.redispatched_shards,
            stolen=stats.stolen_shards,
            discarded=stats.discarded_manifests,
            quarantined=stats.quarantined_segments,
        )
        return dataset, stats

    # -- manifest intake -----------------------------------------------

    def _scan_manifests(self, accepted: dict, on_result, resumed=False) -> None:
        """Accept every valid manifest; ``resumed`` marks the adopt pass,
        whose acceptances are resumed shards and whose rejections are
        uncharged."""
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
                    self._reject_manifest(shard_id, {}, "unreadable manifest")
                continue
            self._manifest_first_seen.pop(shard_id, None)
            segment = self.ckpt.load(shard_id, list(indices))
            if segment is None:
                self._reject_manifest(
                    shard_id,
                    doc,
                    "segment failed validation (torn write, checksum "
                    "mismatch, or wrong partition)",
                    charged=not resumed,
                )
                continue
            attempt = int(doc.get("attempt", 0))
            segment.stats.attempts = attempt + 1
            segment.stats.resumed = resumed
            accepted[shard_id] = segment
            self._exhausted.discard(shard_id)
            token = doc.get("token", "")
            self._settled.add(token)
            claimed_at = self._claimed_at.get(token)
            if claimed_at is not None:
                self._durations.append(
                    float(doc.get("completed_at", now)) - claimed_at
                )
            elif doc.get("wall_s"):
                self._durations.append(float(doc["wall_s"]))
            if not resumed and self._seen_token.get(shard_id) != token:
                # Claimed and completed between two lease scans: log the
                # claim the scans never saw, from the manifest.
                self.log.log(
                    "lease_claimed",
                    shard_id=shard_id,
                    worker_id=doc.get("worker_id"),
                    token=token,
                    attempt=attempt,
                    redispatched=shard_id in self._pending,
                )
            context = self._pending.pop(shard_id, None)
            stolen = (
                context is not None
                and context.get("worker_id") not in (None, doc.get("worker_id"))
            )
            if stolen:
                self.log.log(
                    "shard_stolen",
                    shard_id=shard_id,
                    worker_id=doc.get("worker_id"),
                    from_worker_id=context.get("worker_id"),
                    reason=context.get("reason"),
                    attempt=attempt,
                )
            self.leases.clear_fence(shard_id)
            self.store.delete(_hold_key(shard_id))
            if on_result is not None:
                on_result(segment)
            self.log.log(
                "shard_resumed" if resumed else "shard_completed",
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

    def _reject_manifest(
        self, shard_id: int, doc: dict, reason: str, charged: bool = True
    ) -> None:
        """Quarantine a torn completion and re-queue the shard.

        A ``charged`` rejection is a failed attempt of this run: it is
        re-dispatched against the budget.  An uncharged one (a segment
        an earlier run wrote) only holds the shard for its next attempt.
        """
        self._settled.add(doc.get("token", ""))
        attempt = int(doc.get("attempt", self._attempt_of(shard_id)))
        report = self.quarantine_segment(shard_id, attempt, doc, reason)
        self.log.log("segment_quarantined", shard_id=shard_id, **report)
        if charged:
            self._schedule_redispatch(
                shard_id, "corrupt", reason, attempt, doc.get("worker_id")
            )
        else:
            self.store.put_json(
                _hold_key(shard_id),
                {"shard_id": shard_id, "attempt": attempt + 1, "reason": reason},
            )
        # The hold (with the bumped attempt) is in place; only now make
        # the shard claimable again by moving the manifest aside.
        obj = self.store.get(_manifest_key(shard_id))
        if obj is not None:
            self.store.put(_rejected_key(shard_id, attempt), obj.data)
        self.store.delete(_manifest_key(shard_id))
        self._manifest_first_seen.pop(shard_id, None)

    def _attempt_of(self, shard_id: int) -> int:
        """The attempt a shard was last dispatched at."""
        hold = self.store.get_json(_hold_key(shard_id)) or {}
        return int(hold.get("attempt", 0))

    def quarantine_segment(
        self, shard_id: int, attempt: int, doc: dict, reason: str
    ) -> dict:
        """Move a bad segment into ``quarantine/``; returns a report.

        The one path that moves a bad segment aside.  The report
        (segment path or absence, reason, attempt) is what the
        re-dispatch log carries.
        """
        segment_rel = doc.get("segment")
        segment_path = (
            os.path.join(self.paths.root, segment_rel)
            if isinstance(segment_rel, str)
            else self.ckpt.segment_path(shard_id)
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

    # -- discard and error intake --------------------------------------

    def _scan_discards(self) -> None:
        for key in self.store.list_prefix(DISCARDS_PREFIX):
            name = key.rsplit("/", 1)[-1]
            if not name.endswith(".json") or name in self._seen_discards:
                continue
            self._seen_discards.add(name)
            doc = self.store.get_json(key) or {}
            self.log.log(
                "manifest_discarded",
                shard_id=doc.get("shard_id"),
                worker_id=doc.get("worker_id"),
                token=doc.get("token"),
                attempt=doc.get("attempt"),
                reason=doc.get("reason", "lost the first-valid-manifest race"),
            )

    def _scan_errors(self, accepted: dict) -> None:
        """Revoke the lease of every attempt whose worker reported an
        exception; the error names it in the failure record."""
        for key in self.store.list_prefix(ERRORS_PREFIX):
            name = key.rsplit("/", 1)[-1]
            if not name.endswith(".json") or name in self._seen_errors:
                continue
            doc = self.store.get_json(key)
            if doc is None:
                continue
            self._seen_errors.add(name)
            shard_id = doc.get("shard_id")
            if shard_id in accepted:
                continue
            record = self.leases.read(shard_id)
            if (
                record is not None
                and record.token == doc.get("token")
                and record.token not in self._settled
            ):
                self._observe(record)
                self._revoke(
                    shard_id, record, "lease_revoked", "error", str(doc.get("error"))
                )

    # -- lease watching ------------------------------------------------

    def _deadline(self) -> float | None:
        """How long a lease may be held: the straggler deadline, capped
        by ``shard_timeout_s`` (which applies before enough samples)."""
        deadline = straggler_deadline_s(
            self._durations, floor_s=self.straggler_floor_s
        )
        if self.shard_timeout_s is None:
            return deadline
        if deadline is None:
            return self.shard_timeout_s
        return min(deadline, self.shard_timeout_s)

    def _observe(self, record) -> None:
        """Log a lease attempt the first time the coordinator sees it."""
        if self._seen_token.get(record.shard_id) == record.token:
            return
        if record.token in self._settled:
            return
        self._seen_token[record.shard_id] = record.token
        self._holder[record.shard_id] = record.worker_id
        self._claimed_at[record.token] = record.claimed_at
        self.log.log(
            "lease_claimed",
            shard_id=record.shard_id,
            worker_id=record.worker_id,
            token=record.token,
            attempt=record.attempt,
            redispatched=record.shard_id in self._pending,
        )

    def _scan_leases(self, accepted: dict, local_workers) -> None:
        now = time.time()
        held = {r.shard_id: r for r in self.leases.read_all()}
        workers = {
            doc.get("worker_id"): doc
            for doc in WorkerRegistry.read_all(self.store, WORKERS_PREFIX)
        }
        deadline = self._deadline()
        for shard_id, _indices in self.plan.shards:
            if shard_id in accepted:
                continue
            record = held.get(shard_id)
            if record is None:
                # Lease vanished without a manifest: lost (fenced by a
                # chaos injection, or deleted under the worker).
                token = self._seen_token.get(shard_id)
                if (
                    token is not None
                    and token not in self._settled
                    and not self.store.exists(_manifest_key(shard_id))
                ):
                    self._settled.add(token)
                    worker = self._holder.get(shard_id)
                    self.log.log(
                        "lease_lost",
                        shard_id=shard_id,
                        worker_id=worker,
                        token=token,
                    )
                    self._schedule_redispatch(
                        shard_id,
                        "lost",
                        "lease lost without a manifest",
                        self._attempt_of(shard_id),
                        worker,
                    )
                continue
            if record.token in self._settled:
                continue  # its outcome is in; the holder is finishing up
            self._observe(record)
            local = local_workers is not None and local_workers.owns(record.worker_id)
            exitcode = local_workers.exitcode(record.worker_id) if local else None
            if exitcode is not None:
                self._revoke(
                    shard_id, record, "lease_revoked", "crash",
                    f"local worker {record.worker_id} exited with code "
                    f"{exitcode}",
                )
                local_workers.sign_off(record.worker_id)
                self._replace_worker(local_workers, record.worker_id, accepted)
                continue
            if record.expired(now):
                self._revoke(
                    shard_id, record, "lease_expired", "lost",
                    f"heartbeat silent for more than {record.ttl_s:.2f}s",
                )
                continue
            holder_doc = workers.get(record.worker_id)
            if holder_doc is not None and holder_doc.get("state") == "exited":
                # Dead-worker fast path: its registry entry says it is
                # gone, no need to wait for the TTL to run out.
                self._revoke(
                    shard_id, record, "lease_revoked", "crash",
                    "holding worker registry entry is 'exited'",
                )
                continue
            if deadline is not None and record.held_s(now) > deadline:
                self._revoke(
                    shard_id, record, "lease_straggler", "timeout",
                    f"held {record.held_s(now):.2f}s > deadline "
                    f"{deadline:.2f}s (p{STRAGGLER_PERCENTILE:.0f} x "
                    f"{STRAGGLER_MULTIPLIER:g}, capped by "
                    f"shard_timeout_s={self.shard_timeout_s})",
                )
                if local:
                    local_workers.terminate(record.worker_id)
                    self._replace_worker(local_workers, record.worker_id, accepted)

    def _revoke(
        self, shard_id: int, record, event: str, kind: str, detail: str
    ) -> None:
        self.log.log(
            event,
            shard_id=shard_id,
            worker_id=record.worker_id,
            token=record.token,
            attempt=record.attempt,
            kind=kind,
            detail=detail,
            held_s=record.held_s(),
        )
        self._settled.add(record.token)
        # The hold (next attempt, backoff) lands before the lease goes,
        # so no worker re-claims the shard at the failed attempt.
        self._schedule_redispatch(
            shard_id, kind, detail, record.attempt, record.worker_id
        )
        self.leases.revoke(shard_id, f"{kind}: {detail}")

    def _schedule_redispatch(
        self,
        shard_id: int,
        kind: str,
        detail: str,
        attempt: int,
        worker_id: str | None,
    ) -> None:
        """Record the failed ``attempt`` and hold the shard for the next
        one — or, past the budget, hold it for good."""
        count = self._redispatches.get(shard_id, 0) + 1
        self._redispatches[shard_id] = count
        failure = dict(
            shard_id=shard_id, failed_attempt=attempt, kind=kind, detail=detail
        )
        if count > self.max_retries:
            self._exhausted.add(shard_id)
            self.store.put_json(
                _hold_key(shard_id),
                {"shard_id": shard_id, "attempt": attempt + 1, "exhausted": True},
            )
            self.log.log("shard_exhausted", **failure, redispatches=count - 1)
            return
        backoff = min(self.backoff_base_s * (2.0 ** (count - 1)), BACKOFF_MAX_S)
        self.store.put_json(
            _hold_key(shard_id),
            {
                "shard_id": shard_id,
                "attempt": attempt + 1,
                "not_before": time.time() + backoff,
                "reason": f"{kind}: {detail}",
                "redispatches": count,
            },
        )
        self._pending[shard_id] = {
            "worker_id": worker_id,
            "reason": f"{kind}: {detail}",
        }
        self.log.log(
            "shard_redispatched",
            **failure,
            attempt=attempt + 1,
            backoff_s=backoff,
            redispatches=count,
            reason=f"{kind}: {detail}",
        )

    # -- liveness ------------------------------------------------------

    def _replace_worker(self, local_workers, worker_id: str, accepted: dict) -> None:
        """Start a process for a lost local worker while more shards
        remain than local workers are alive."""
        unfinished = self.plan.n_shards - len(accepted) - len(self._exhausted)
        if local_workers.n_alive() < min(local_workers.n_workers, unfinished):
            (started,) = local_workers.start(1)
            self.log.log("worker_replaced", worker_id=worker_id, by=started)

    def _check_local_workers(self, accepted: dict, local_workers) -> None:
        if local_workers is None or not local_workers.n_started:
            return
        if local_workers.n_alive():
            return
        # All local workers are gone.  External workers may still hold
        # leases (multi-host deployment); only fail when nothing is
        # making progress and work remains.
        if len(accepted) + len(self._exhausted) >= self.plan.n_shards:
            return
        if self.leases.read_all():
            return
        raise FabricError(
            f"all {local_workers.n_started} local fabric workers exited with "
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
    straggler_floor_s: float = 5.0,
    fabric_store: str | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
):
    """Run one campaign on the fabric with local worker processes.

    Plans ``n_shards`` shards (default: one per worker) and hands them
    to :func:`~repro.runtime.supervision.supervise_shards`, the one
    placement, with ``n_workers`` local workers (0: coordinator only,
    which needs a ``fabric_dir`` for workers to join) over
    ``fabric_dir`` — adopting the plan and manifests a previous
    coordinator left there — or over a temporary directory removed
    afterwards.  Additional workers on other hosts may join the same
    ``fabric_dir`` at any time — the coordinator does not distinguish
    them from local ones.  ``fabric_store`` accepts only ``None`` or
    ``"fs"``, the one coordination store.

    Returns ``(dataset, CampaignRunStats)`` — the dataset bit-identical
    to the serial run regardless of the fault schedule survived.

    Raises:
        ConfigurationError: ``n_workers`` is negative, or 0 without a
            ``fabric_dir`` (no worker could find the campaign).
    """
    from repro.runtime.supervision import supervise_shards

    if fabric_store not in (None, "fs"):
        raise ConfigurationError(
            "fabric_store must be 'fs' (the only coordination store), "
            f"got {fabric_store!r}"
        )
    if n_workers is None:
        n_workers = max(1, getattr(config, "n_workers", 1))
    if n_workers < 0:
        # 0 is allowed: coordinator-only, workers join the fabric
        # directory from elsewhere (``repro coordinate`` + ``repro
        # worker``); supervise_shards refuses it without a directory.
        raise ConfigurationError(f"n_workers must be >= 0, got {n_workers}")
    _, shards = plan_campaign(config, n_shards)
    return supervise_shards(
        config,
        shards,
        n_workers,
        fabric_dir,
        fault_plan=fault_plan,
        heartbeat_interval_s=heartbeat_interval_s,
        on_event=on_event,
        on_result=on_result,
        should_stop=should_stop,
        lease_ttl_s=lease_ttl_s,
        straggler_floor_s=straggler_floor_s,
    )


def fabric_status(fabric_dir: str) -> dict:
    """Live lease/heartbeat/worker view of one fabric directory.

    The JSON document behind ``GET /v1/campaigns/{id}/workers`` and the
    CLI's progress display: the registered workers (with heartbeat
    ages), every held lease (with expiry state), and shard completion
    counts.  Read-only — safe to call from any process at any time.

    Raises:
        FabricError: for a malformed plan (see :func:`load_plan`).
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
