"""Campaign lifecycle: submission, background execution, cancel/resume.

:class:`CampaignService` is the HTTP-agnostic core of the service —
the app layer (:mod:`repro.service.app`) only parses requests and
renders responses.  Each submitted campaign gets a sequential id, an
:class:`~repro.service.events.EventLog`, and one daemon runner thread
driving the supervised runtime:

* ``records`` mode runs the campaign executor
  (:func:`repro.runtime.pool.run_campaign`) — the full dataset is
  retained for the results endpoint, and completed shards spill to the
  service's shared checkpoint root (enabling cancel → resume);
* ``sketch`` mode runs the executor's sketch task — no records are
  centralised, only the Table 1/3 aggregates;
* ``fabric`` mode runs :func:`repro.runtime.fabric.run_fabric_campaign`
  — shard leases, heartbeats, straggler re-dispatch and work stealing
  over a per-campaign fabric directory; records are retained like
  ``records`` mode, every lease transition streams over SSE, and
  ``GET /v1/campaigns/{id}/workers`` serves the live fleet view.

One runner drives all three with one ``on_result`` callback: every
accepted shard folds into the incremental aggregate partials streamed
over SSE.

The state machine is ``pending → running → completed | failed |
cancelled``.  Cancellation is cooperative: the HTTP layer sets the
campaign's cancel event, the runtime's ``should_stop`` seam observes
it within one dispatch cycle, tears down in-flight workers and raises
:class:`~repro.errors.CampaignCancelledError`.  Shards checkpointed
before the cancel survive; a new submission with ``resume_from`` (same
fingerprint — validated) adopts them and re-runs only what's missing,
bit-identical to an uninterrupted run by the determinism contract.

All campaigns of one service share one checkpoint root;
:class:`~repro.runtime.checkpoint.CheckpointStore` already keys its
directories by campaign fingerprint, so equal-fingerprint campaigns
share spilled shards and different campaigns can never mix.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace

from repro.errors import CampaignCancelledError, ConfigurationError
from repro.analysis.streaming import new_table_accumulators
from repro.extension.campaign import CampaignConfig
from repro.knobs import check
from repro.runtime.checkpoint import campaign_fingerprint
from repro.runtime.faults import Fault, FaultKind, FaultPlan
from repro.runtime.merge import fold_shard
from repro.service.aggregates import aggregate_payload
from repro.service.errors import (
    conflict,
    invalid_config,
    invalid_request,
    not_found,
)
from repro.service.events import EventLog

#: Campaign execution modes a submission may request.  ``fabric`` runs
#: the multi-host campaign fabric (:mod:`repro.runtime.fabric`): shard
#: leases, heartbeats, straggler re-dispatch — records are retained
#: like ``records`` mode, and ``GET /v1/campaigns/{id}/workers`` serves
#: the live lease/worker view.
VALID_MODES = ("records", "sketch", "fabric")

#: States in which a campaign accepts no further lifecycle operations.
TERMINAL_STATES = frozenset({"completed", "failed", "cancelled"})


@dataclass
class Campaign:
    """One submitted campaign and everything its run produced."""

    id: str
    config: CampaignConfig
    mode: str
    fingerprint: str
    created_s: float
    resume_from: str | None = None
    fault_plan: FaultPlan | None = None
    state: str = "pending"
    error: dict | None = None
    events: EventLog = field(default_factory=EventLog)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Latest partial (then final) aggregate payload.
    aggregates: dict | None = None
    #: The merged dataset (records mode, completed runs only).
    dataset: object = None
    #: The run's CampaignRunStats (completed runs only).
    run_stats: object = None
    #: Shard count from the campaign_planned event.
    n_shards: int = 0
    #: The fabric coordination directory (fabric mode only).
    fabric_dir: str | None = None
    #: The coordination store kind (fabric mode only; ``None`` = the
    #: environment default, resolved by the fabric itself).
    fabric_store: str | None = None

    def status(self) -> dict:
        """The JSON status document of this campaign."""
        result = None
        if self.run_stats is not None:
            shards = self.run_stats.shards
            result = {
                "n_page_loads": sum(s.n_page_loads for s in shards),
                "n_speedtests": sum(s.n_speedtests for s in shards),
                "n_shards": len(shards),
                "resumed_shards": self.run_stats.resumed_shards,
                "n_failures": len(self.run_stats.failures),
                "wall_s": self.run_stats.wall_s,
            }
        return {
            "id": self.id,
            "state": self.state,
            "mode": self.mode,
            "fingerprint": self.fingerprint,
            "created_s": self.created_s,
            "resume_from": self.resume_from,
            "cancel_requested": self.cancel_event.is_set(),
            "n_events": len(self.events),
            "config": self.config.to_json_dict(),
            "error": self.error,
            "result": result,
            "fabric_dir": self.fabric_dir,
            "fabric_store": self.fabric_store,
        }


def _parse_fault_plan(spec) -> FaultPlan | None:
    """Decode the optional ``faults`` list of a submission body.

    Each entry is ``{"shard_id": int, "kind": "crash"|"hang"|"slow"|
    "corrupt", "attempt": int = 0, "delay_s": float = 0.0}`` — the
    deterministic fault-injection schedule chaos tests use to script
    exactly which worker misbehaves when (faults apply in worker
    processes only, so they need ``n_workers >= 2``).
    """
    if spec is None:
        return None
    if not isinstance(spec, list):
        raise invalid_request(
            f"'faults' must be a list of fault objects, got {spec!r}"
        )
    valid_kinds = tuple(kind.value for kind in FaultKind)
    faults: dict[tuple[int, int], Fault] = {}
    for entry in spec:
        if not isinstance(entry, dict):
            raise invalid_request(f"each fault must be an object, got {entry!r}")
        unknown = sorted(set(entry) - {"shard_id", "attempt", "kind", "delay_s"})
        if unknown:
            raise invalid_request(f"unknown fault key(s) {unknown}")
        kind = entry.get("kind")
        if kind not in valid_kinds:
            raise invalid_request(
                f"fault kind must be one of {valid_kinds}, got {kind!r}"
            )
        shard_id = entry.get("shard_id")
        attempt = entry.get("attempt", 0)
        for label, value in (("shard_id", shard_id), ("attempt", attempt)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise invalid_request(
                    f"fault {label!r} must be a non-negative integer, "
                    f"got {value!r}"
                )
        delay_s = entry.get("delay_s", 0.0)
        if isinstance(delay_s, bool) or not isinstance(delay_s, (int, float)):
            raise invalid_request(
                f"fault 'delay_s' must be a number, got {delay_s!r}"
            )
        faults[(shard_id, attempt)] = Fault(
            kind=FaultKind(kind), delay_s=float(delay_s)
        )
    return FaultPlan(faults) if faults else None


class CampaignService:
    """The service core: campaign registry plus background runners."""

    def __init__(self, service_dir: str | None = None) -> None:
        if service_dir is None:
            service_dir = tempfile.mkdtemp(prefix="repro-service-")
        self.service_dir = service_dir
        os.makedirs(self.service_dir, exist_ok=True)
        self._campaigns: dict[str, Campaign] = {}
        self._lock = threading.Lock()
        self._counter = 0

    @property
    def checkpoint_root(self) -> str:
        """The shared checkpoint root every records campaign spills to."""
        return os.path.join(self.service_dir, "checkpoints")

    # -- registry ----------------------------------------------------------

    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise not_found(f"no campaign {campaign_id!r}")
        return campaign

    def list_campaigns(self) -> list[dict]:
        with self._lock:
            campaigns = list(self._campaigns.values())
        return [campaign.status() for campaign in campaigns]

    # -- submission --------------------------------------------------------

    def submit(self, body) -> Campaign:
        """Validate one submission document and launch its runner.

        The body is ``{"config": {...}, "mode":
        "records"|"sketch"|"fabric", "resume_from": "<campaign id>",
        "faults": [...], "fabric_store": "fs"|"object"}`` — all keys
        optional except that ``resume_from`` requires records mode and
        a fingerprint-identical config.
        """
        if not isinstance(body, dict):
            raise invalid_request(
                f"the submission body must be a JSON object, "
                f"got {type(body).__name__}"
            )
        unknown = sorted(
            set(body)
            - {"config", "mode", "resume_from", "faults", "fabric_store"}
        )
        if unknown:
            raise invalid_request(
                f"unknown submission key(s) {unknown}; known keys: "
                "['config', 'fabric_store', 'faults', 'mode', 'resume_from']"
            )
        mode = body.get("mode", "records")
        if mode not in VALID_MODES:
            raise invalid_request(
                f"mode must be one of {VALID_MODES}, got {mode!r}"
            )
        fabric_store = body.get("fabric_store")
        if fabric_store is not None:
            if mode != "fabric":
                raise invalid_request(
                    "'fabric_store' applies to fabric mode only"
                )
            try:
                check("fabric_store", fabric_store)
            except ConfigurationError as exc:
                raise invalid_request(str(exc)) from exc
        try:
            config = CampaignConfig.from_json_dict(body.get("config", {}))
        except ConfigurationError as exc:
            raise invalid_config(str(exc)) from exc
        fault_plan = _parse_fault_plan(body.get("faults"))
        resume_from = body.get("resume_from")
        if resume_from is not None and not isinstance(resume_from, str):
            raise invalid_request(
                f"'resume_from' must be a campaign id string, "
                f"got {resume_from!r}"
            )
        with self._lock:
            self._counter += 1
            campaign_id = f"c-{self._counter:04d}"
        config = self._prepare_config(config, mode, campaign_id, resume_from)
        campaign = Campaign(
            id=campaign_id,
            config=config,
            mode=mode,
            fingerprint=campaign_fingerprint(config),
            created_s=time.time(),
            resume_from=resume_from,
            fault_plan=fault_plan,
        )
        if mode == "fabric":
            campaign.fabric_dir = os.path.join(
                self.service_dir, "campaigns", campaign_id, "fabric"
            )
            campaign.fabric_store = fabric_store
        with self._lock:
            self._campaigns[campaign_id] = campaign
        campaign.events.append(
            {
                "type": "campaign_accepted",
                "id": campaign.id,
                "mode": campaign.mode,
                "fingerprint": campaign.fingerprint,
                "resume_from": campaign.resume_from,
            }
        )
        thread = threading.Thread(
            target=self._run, args=(campaign,), daemon=True,
            name=f"campaign-{campaign_id}",
        )
        thread.start()
        return campaign

    def _prepare_config(
        self,
        config: CampaignConfig,
        mode: str,
        campaign_id: str,
        resume_from: str | None,
    ) -> CampaignConfig:
        """Apply the service's execution-only defaults to a submission.

        Every adjustment here is an execution-only field (fingerprint
        unchanged, dataset bits unchanged): the shared checkpoint root,
        a per-campaign spill directory, a thread-safe multiprocessing
        start method, and resume adoption.
        """
        updates: dict = {}
        if mode == "records" and config.checkpoint_dir is None:
            updates["checkpoint_dir"] = self.checkpoint_root
        if config.storage == "spill" and config.storage_dir is None:
            updates["storage_dir"] = os.path.join(
                self.service_dir, "campaigns", campaign_id, "storage"
            )
        if config.mp_start_method is None and (
            config.n_workers > 1 or mode == "fabric"
        ):
            # The service parent is threaded (HTTP handlers, runner
            # threads); fork from a threaded process can inherit locks
            # mid-acquisition, so workers spawn fresh interpreters.
            # Fabric mode always spawns worker processes, even for one.
            updates["mp_start_method"] = "spawn"
        if resume_from is not None:
            if mode != "records":
                raise invalid_request(
                    "resume_from requires records mode (sketch runs "
                    "restart, they never resume half-reduced state)"
                )
            source = self.get(resume_from)
            new_fp = campaign_fingerprint(config)
            if source.fingerprint != new_fp:
                raise invalid_request(
                    "resume_from requires a config with the same campaign "
                    "fingerprint as the source campaign (execution-only "
                    "fields may differ, data-affecting fields may not)",
                    detail={
                        "source_fingerprint": source.fingerprint,
                        "fingerprint": new_fp,
                    },
                )
            updates["resume"] = True
            source_root = source.config.checkpoint_dir
            if source_root:
                updates["checkpoint_dir"] = source_root
        return replace(config, **updates) if updates else config

    # -- lifecycle ---------------------------------------------------------

    def cancel(self, campaign_id: str) -> Campaign:
        """Request cooperative cancellation; 409 once terminal."""
        campaign = self.get(campaign_id)
        if campaign.state in TERMINAL_STATES:
            raise conflict(
                f"campaign {campaign_id} is already {campaign.state}"
            )
        campaign.cancel_event.set()
        return campaign

    # -- execution ---------------------------------------------------------

    def _run(self, campaign: Campaign) -> None:
        """Runner-thread body: drive the runtime, settle the state."""
        campaign.state = "running"
        campaign.events.append({"type": "campaign_started", "id": campaign.id})
        try:
            self._execute(campaign)
        except CampaignCancelledError as exc:
            campaign.state = "cancelled"
            campaign.events.append(
                {
                    "type": "campaign_cancelled",
                    "completed_shards": exc.completed_shards,
                    "n_shards": exc.n_shards,
                }
            )
        except Exception as exc:  # noqa: BLE001 - becomes the error surface
            campaign.state = "failed"
            campaign.error = {
                "code": "shard_failed"
                if type(exc).__name__ == "ShardFailedError"
                else "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }
            campaign.events.append(
                {"type": "campaign_failed", **campaign.error}
            )
        else:
            campaign.state = "completed"
            stats = campaign.run_stats
            campaign.events.append(
                {
                    "type": "campaign_completed",
                    "n_page_loads": sum(
                        s.n_page_loads for s in stats.shards
                    ),
                    "n_speedtests": sum(
                        s.n_speedtests for s in stats.shards
                    ),
                    "resumed_shards": stats.resumed_shards,
                    "wall_s": stats.wall_s,
                }
            )
        finally:
            campaign.events.close()

    def _on_event(self, campaign: Campaign):
        """The runtime's on_event seam: log, track the shard count."""

        def on_event(event: dict) -> None:
            if event.get("type") == "campaign_planned":
                campaign.n_shards = event.get("n_shards", 0)
            campaign.events.append(event)

        return on_event

    def _execute(self, campaign: Campaign) -> None:
        """Run the campaign in its mode, folding shards as they land.

        Fabric mode runs the coordinator (and its local worker
        processes) inside the service; the fabric directory lives under
        the campaign's service subdirectory, so external ``repro
        worker`` processes on the same filesystem may join mid-run.
        """
        from repro.runtime.fabric import run_fabric_campaign
        from repro.runtime.pool import run_campaign

        config = campaign.config
        page, speed = new_table_accumulators()
        folded = 0

        def on_result(result) -> None:
            nonlocal folded
            fold_shard(page, speed, result)
            folded += 1
            campaign.aggregates = aggregate_payload(page, speed)
            campaign.events.append(
                {
                    "type": "aggregate_partial",
                    "completed_shards": folded,
                    "n_shards": campaign.n_shards,
                    **campaign.aggregates,
                }
            )

        hooks = dict(
            fault_plan=campaign.fault_plan,
            on_event=self._on_event(campaign),
            on_result=on_result,
            should_stop=campaign.cancel_event.is_set,
        )
        if campaign.mode == "fabric":
            product, stats = run_fabric_campaign(
                config,
                config.n_workers,
                campaign.fabric_dir,
                fabric_store=campaign.fabric_store,
                **hooks,
            )
        else:
            task = "sketch" if campaign.mode == "sketch" else "records"
            product, stats = run_campaign(config, task, **hooks)
        if campaign.mode == "sketch":
            # The final cells come off the executor's reduce, which
            # merges in shard order rather than completion order.
            page, speed = product
        else:
            campaign.dataset = product
        campaign.run_stats = stats
        campaign.aggregates = aggregate_payload(page, speed)
        campaign.events.append(
            {
                "type": "aggregate_final",
                "completed_shards": folded,
                "n_shards": campaign.n_shards,
                **campaign.aggregates,
            }
        )

    def workers(self, campaign_id: str) -> dict:
        """The live lease/heartbeat/worker view of a fabric campaign.

        Backs ``GET /v1/campaigns/{id}/workers``; valid at any point in
        the campaign's life (before planning it reports an unplanned
        fabric).  Non-fabric campaigns have no worker fleet → 409.
        """
        campaign = self.get(campaign_id)
        if campaign.mode != "fabric" or campaign.fabric_dir is None:
            raise conflict(
                f"campaign {campaign_id} runs in {campaign.mode!r} mode; "
                "the workers view exists for fabric campaigns only"
            )
        from repro.runtime.fabric import fabric_status

        return {
            "id": campaign.id,
            "state": campaign.state,
            **fabric_status(campaign.fabric_dir),
        }
