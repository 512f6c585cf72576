"""Deterministic, fault-tolerant parallel execution runtime.

Scales the extension campaign past a single core without giving up
reproducibility — and keeps it running when workers don't:

* :mod:`repro.runtime.pool` — the campaign executor, one
  plan → place → sink path for every run:

  =====  =========================================  ======================
  step   choices                                    code
  =====  =========================================  ======================
  task   records (``ShardResult``) or sketch        ``run_shard``,
         (``ShardSketch``) over one shard body      ``run_task``
  plan   LPT shards, empty ones dropped; timeline   ``plan_campaign``,
         precompute decided once                    ``shared_timelines``
  place  in-process (one shard), supervised         ``run_campaign``,
         processes, or fabric leases                ``FabricCoordinator``
  sink   backend merge (records) or sketch reduce   ``sink_results``
  =====  =========================================  ======================

* :mod:`repro.runtime.shard` — shard planning (balanced, deterministic),
  the shard body and its two tasks, with timing/throughput counters.
* :mod:`repro.runtime.supervision` — the supervising dispatcher:
  per-shard timeouts, crash detection, bounded-backoff retries,
  in-process graceful degradation, and a structured failure log.
* :mod:`repro.runtime.faults` — deterministic seeded fault injection
  (crash/hang/slow/corrupt per shard attempt) so all of the above is
  testable without flaky real crashes.
* :mod:`repro.runtime.checkpoint` — completed-shard spill keyed by a
  config fingerprint, so killed campaigns resume instead of restart.
* :mod:`repro.runtime.merge` — the sinks: order-preserving
  recombination of per-shard datasets and the sketch reduce, both
  validated against the planned partition.
* :mod:`repro.runtime.store` — the coordination-store seam: one
  five-primitive protocol (create-exclusive, conditional replace,
  point read, delete, prefix listing) over POSIX files (``FsStore``)
  or object-store semantics (``ObjectStore`` backends, tolerating
  list-after-write lag), selected per fabric directory.
* :mod:`repro.runtime.lease` — shard leases over the store (atomic
  claim, heartbeats, fences, worker registry): the multi-host
  coordination primitive.
* :mod:`repro.runtime.fabric` — the fault-tolerant multi-host campaign
  fabric: coordinator + independent workers over a shared coordination
  namespace, with straggler re-dispatch, work stealing and
  chaos-tested recovery.

The engine's invariant: a campaign run with ``n_workers=N`` produces a
``Dataset`` bit-for-bit identical to the serial run for every N — and,
because every user's records are a pure function of
``(CampaignConfig, user)``, for every fault schedule survived and
every checkpoint resumed as well; see DESIGN.md for the RNG-keying
contract and the failure-handling design.
"""

from repro.runtime.checkpoint import (
    CheckpointedShard,
    CheckpointStore,
    campaign_fingerprint,
    encode_user_records,
)
from repro.runtime.fabric import (
    FabricCoordinator,
    FabricRunStats,
    fabric_status,
    run_fabric_campaign,
    run_fabric_worker,
)
from repro.runtime.faults import (
    HOST_FAULT_KINDS,
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
from repro.runtime.merge import merge_shard_results, merge_shard_sketches
from repro.runtime.pool import plan_campaign, run_campaign
from repro.runtime.shard import (
    CampaignRunStats,
    ShardResult,
    ShardSketch,
    ShardStats,
    TimelineSpill,
    plan_shards,
    run_shard,
)
from repro.runtime.store import (
    CoordinationStore,
    DirObjectStore,
    FsStore,
    MemoryObjectStore,
    ObjectStore,
    StoredObject,
    make_store,
    resolve_store_kind,
)
from repro.runtime.supervision import (
    ShardFailure,
    SupervisorPolicy,
    straggler_deadline_s,
    supervise_shards,
    validate_shard_result,
)

__all__ = [
    "CampaignRunStats",
    "CheckpointedShard",
    "CheckpointStore",
    "CoordinationStore",
    "DirObjectStore",
    "FabricCoordinator",
    "FabricRunStats",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FsStore",
    "HOST_FAULT_KINDS",
    "LeaseDir",
    "LeaseHeartbeat",
    "LeaseRecord",
    "MemoryObjectStore",
    "ObjectStore",
    "ShardFailure",
    "ShardResult",
    "ShardSketch",
    "ShardStats",
    "StoredObject",
    "SupervisorPolicy",
    "TimelineSpill",
    "WorkerRegistry",
    "campaign_fingerprint",
    "corrupt_plan",
    "crash_plan",
    "encode_user_records",
    "fabric_status",
    "hang_plan",
    "host_chaos_plan",
    "make_store",
    "merge_shard_results",
    "merge_shard_sketches",
    "plan_campaign",
    "plan_shards",
    "resolve_store_kind",
    "run_campaign",
    "run_fabric_campaign",
    "run_fabric_worker",
    "run_shard",
    "straggler_deadline_s",
    "supervise_shards",
    "validate_shard_result",
]
