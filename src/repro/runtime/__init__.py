"""Deterministic, fault-tolerant parallel execution runtime.

Scales the extension campaign past a single core without giving up
reproducibility — and keeps it running when workers don't:

* :mod:`repro.runtime.pool` — the campaign executor, one
  plan → place → sink path for every run:

  =====  =========================================  ========================
  step   choices                                    code
  =====  =========================================  ========================
  plan   LPT shards, empty ones dropped             ``plan_campaign``
  place  in-process (one shard), or local fabric    ``run_campaign``,
         worker processes (more shards)             ``supervise_shards``
  sink   every shard's records merged into the      ``merge_shard_results``
         config's storage backend
  =====  =========================================  ========================

  Every shard runs one body (``run_shard``) and returns its users'
  records encoded once, in the worker, as typed columns
  (``ShardResult``) — the one type a worker spills, a checkpoint
  stores and the merge adopts.

* :mod:`repro.runtime.shard` — shard planning (balanced, deterministic),
  the shard body with its timing/throughput counters, and the run log:
  one ``RunLog`` writes every run's timestamped lifecycle records (to
  the campaign directory's ``log.jsonl`` too, when there is one), in
  either placement, and ``CampaignRunStats`` keeps them and reads its
  failure and recovery counts off them.
* :mod:`repro.runtime.supervision` — the one multi-process placement:
  local fabric workers for a planned campaign, kept alive and replaced
  while shards remain, driven by the fabric coordinator.
* :mod:`repro.runtime.faults` — deterministic seeded fault injection
  (crash/hang/slow/corrupt/lease loss/torn segment per shard attempt)
  so all of the above is testable without flaky real crashes.
* :mod:`repro.runtime.checkpoint` — completed-shard spill keyed by a
  config fingerprint, so killed campaigns resume instead of restart:
  every placement keeps a campaign's shard segments in one directory,
  ``<checkpoint_dir>/campaign-<fp16>/segments/``, and a segment is a
  shard result's columns in the checksummed container.
* :mod:`repro.runtime.merge` — the sink: one stable sort of the
  shards' columns by user index, validated against the planned
  partition and adopted by the storage backend.
* :mod:`repro.runtime.store` — the coordination store: one
  five-primitive protocol (create-exclusive, conditional replace,
  point read, delete, prefix listing) over POSIX files on the fabric
  directory (``FsStore``).
* :mod:`repro.runtime.lease` — shard leases over the store (atomic
  claim, heartbeats, fences, worker registry): the multi-host
  coordination primitive.
* :mod:`repro.runtime.fabric` — the fault-tolerant campaign fabric:
  coordinator + independent workers over a shared coordination
  namespace, with crash and deadline recovery, one re-dispatch budget,
  work stealing, adopt-on-restart and chaos-tested recovery.

The engine's invariant: a campaign run with ``n_workers=N`` produces a
``Dataset`` bit-for-bit identical to the serial run for every N — and,
because every user's records are a pure function of
``(CampaignConfig, user)``, for every fault schedule survived and
every checkpoint resumed as well; see DESIGN.md for the RNG-keying
contract and the failure-handling design.
"""

from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
from repro.runtime.fabric import (
    FabricCoordinator,
    fabric_status,
    run_fabric_campaign,
    run_fabric_worker,
    straggler_deadline_s,
)
from repro.runtime.faults import (
    Fault,
    FaultKind,
    FaultPlan,
    corrupt_plan,
    crash_plan,
    hang_plan,
    host_chaos_plan,
)
from repro.runtime.lease import (
    LeaseDir,
    LeaseHeartbeat,
    LeaseRecord,
    WorkerRegistry,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.pool import run_campaign
from repro.runtime.shard import (
    CampaignRunStats,
    RunLog,
    ShardFailure,
    ShardResult,
    ShardStats,
    plan_campaign,
    plan_shards,
    run_shard,
)
from repro.runtime.store import CoordinationStore, FsStore, StoredObject
from repro.runtime.supervision import supervise_shards

__all__ = [
    "CampaignRunStats",
    "CheckpointStore",
    "CoordinationStore",
    "FabricCoordinator",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FsStore",
    "LeaseDir",
    "LeaseHeartbeat",
    "LeaseRecord",
    "RunLog",
    "ShardFailure",
    "ShardResult",
    "ShardStats",
    "StoredObject",
    "WorkerRegistry",
    "campaign_fingerprint",
    "corrupt_plan",
    "crash_plan",
    "fabric_status",
    "hang_plan",
    "host_chaos_plan",
    "merge_shard_results",
    "plan_campaign",
    "plan_shards",
    "run_campaign",
    "run_fabric_campaign",
    "run_fabric_worker",
    "run_shard",
    "straggler_deadline_s",
    "supervise_shards",
]
