"""Campaign lifecycle: submission, background execution, cancel/resume.

:class:`CampaignService` is the HTTP-agnostic core of the service —
the app layer (:mod:`repro.service.app`) only parses requests and
renders responses.  Each submitted campaign gets a sequential id, an
:class:`~repro.service.events.EventLog`, its own directory under the
service directory (its ``checkpoint_dir``) and one daemon runner
thread driving the campaign executor
(:func:`repro.runtime.pool.run_campaign`).  The worker count picks the
placement: one shard runs in-process, more run on local fabric worker
processes — shard leases, heartbeats, crash and deadline re-dispatch —
over the campaign directory, every lease transition streams over SSE,
and ``GET /v1/campaigns/{id}/workers`` serves the live fleet view.
The full dataset is retained for the results endpoint, and completed
shards stay in the campaign directory (enabling cancel → resume).

The ``on_result`` callback folds every accepted shard into the exact
aggregate cells (:class:`~repro.service.aggregates.CampaignAggregates`)
streamed over SSE.

The state machine is ``pending → running → completed | failed |
cancelled``.  Cancellation is cooperative: the HTTP layer sets the
campaign's cancel event, the runtime's ``should_stop`` seam observes
it within one dispatch cycle, tears down in-flight workers and raises
:class:`~repro.errors.CampaignCancelledError`.  Shards checkpointed
before the cancel survive; a new submission with ``resume_from`` (same
fingerprint, and a source campaign that has reached a terminal state —
both validated) adopts them and re-runs only what's missing,
bit-identical to an uninterrupted run by the determinism contract.

A resumed campaign runs in its source campaign's ``checkpoint_dir``,
whose campaign directory
(:func:`~repro.runtime.checkpoint.campaign_dir`) is named by the
campaign fingerprint, so different campaigns can never mix.

A campaign's event stream ends with exactly one terminal event, the
service's own, after ``aggregate_final``.  The run log's own terminal
record — every run logs one, in-process or on the fabric — stays in
the run's stats and in the campaign directory's ``log.jsonl``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace

from repro.errors import CampaignCancelledError, ConfigurationError
from repro.extension.campaign import CampaignConfig
from repro.runtime import checkpoint
from repro.runtime.checkpoint import campaign_fingerprint
from repro.runtime.faults import Fault, FaultKind, FaultPlan
from repro.service.aggregates import CampaignAggregates
from repro.service.errors import (
    conflict,
    invalid_config,
    invalid_request,
    not_found,
)
from repro.service.events import TERMINAL_EVENT_TYPES, EventLog

#: The keys a submission body may carry.
SUBMISSION_KEYS = ("config", "faults", "resume_from")

#: States in which a campaign accepts no further lifecycle operations.
TERMINAL_STATES = frozenset({"completed", "failed", "cancelled"})


@dataclass
class Campaign:
    """One submitted campaign and everything its run produced."""

    id: str
    config: CampaignConfig
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
    #: The merged dataset (completed runs only).
    dataset: object = None
    #: The run's CampaignRunStats (completed runs only).
    run_stats: object = None
    #: Shard count from the campaign_planned event.
    n_shards: int = 0

    @property
    def fabric_dir(self) -> str | None:
        """The fabric directory of a campaign that runs on worker
        processes; ``None`` for an in-process one."""
        if self.config.n_workers <= 1 or self.n_shards == 1:
            return None
        return checkpoint.campaign_dir(self.config)

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
                "n_failures": self.run_stats.n_failures,
                "wall_s": self.run_stats.wall_s,
            }
        return {
            "id": self.id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "created_s": self.created_s,
            "resume_from": self.resume_from,
            "cancel_requested": self.cancel_event.is_set(),
            "n_events": len(self.events),
            "config": self.config.to_json_dict(),
            "error": self.error,
            "result": result,
            "fabric_dir": self.fabric_dir,
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

    def campaign_dir(self, campaign_id: str) -> str:
        """The directory a campaign's shards and spill segments live in."""
        return os.path.join(self.service_dir, "campaigns", campaign_id)

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

        The body is ``{"config": {...}, "resume_from": "<campaign
        id>", "faults": [...]}`` — all keys optional; ``resume_from``
        requires a fingerprint-identical config.
        """
        if not isinstance(body, dict):
            raise invalid_request(
                f"the submission body must be a JSON object, "
                f"got {type(body).__name__}"
            )
        unknown = sorted(set(body) - set(SUBMISSION_KEYS))
        if unknown:
            raise invalid_request(
                f"unknown submission key(s) {unknown}; known keys: "
                f"{list(SUBMISSION_KEYS)}"
            )
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
        config = self._prepare_config(config, campaign_id, resume_from)
        campaign = Campaign(
            id=campaign_id,
            config=config,
            fingerprint=campaign_fingerprint(config),
            created_s=time.time(),
            resume_from=resume_from,
            fault_plan=fault_plan,
        )
        with self._lock:
            self._campaigns[campaign_id] = campaign
        campaign.events.append(
            {
                "type": "campaign_accepted",
                "id": campaign.id,
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
        campaign_id: str,
        resume_from: str | None,
    ) -> CampaignConfig:
        """Apply the service's execution-only defaults to a submission.

        Every adjustment here is an execution-only field (fingerprint
        unchanged, dataset bits unchanged): the campaign's own
        checkpoint and spill directories, a thread-safe
        multiprocessing start method, and resume adoption.
        """
        updates: dict = {}
        if config.checkpoint_dir is None:
            updates["checkpoint_dir"] = os.path.join(
                self.campaign_dir(campaign_id), "checkpoint"
            )
        if config.storage == "spill" and config.storage_dir is None:
            updates["storage_dir"] = os.path.join(
                self.campaign_dir(campaign_id), "storage"
            )
        if config.mp_start_method is None and config.n_workers > 1:
            # The service parent is threaded (HTTP handlers, runner
            # threads); fork from a threaded process can inherit locks
            # mid-acquisition, so workers spawn fresh interpreters.
            updates["mp_start_method"] = "spawn"
        if resume_from is not None:
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
            if source.state not in TERMINAL_STATES:
                # Two coordinators must never share one directory.
                raise conflict(
                    f"campaign {resume_from} is {source.state}; resume it "
                    "once it is completed, failed or cancelled"
                )
            updates["resume"] = True
            updates["checkpoint_dir"] = source.config.checkpoint_dir
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
        """The runtime's on_event seam: log, track the shard count.

        The run log's own terminal records (either placement's) stay
        out of the stream: the service appends the one terminal event,
        after ``aggregate_final``.
        """

        def on_event(event: dict) -> None:
            if event.get("type") == "campaign_planned":
                campaign.n_shards = event.get("n_shards", 0)
            if event.get("type") not in TERMINAL_EVENT_TYPES:
                campaign.events.append(event)

        return on_event

    def _execute(self, campaign: Campaign) -> None:
        """Run the campaign, folding shards as they land.

        A multi-shard campaign runs the fabric coordinator (and its
        local worker processes) inside the service; the fabric
        directory lives under the campaign's directory, so external
        ``repro worker`` processes on the same filesystem may join
        mid-run.
        """
        from repro.runtime.pool import run_campaign

        config = campaign.config
        aggregates = CampaignAggregates()
        folded = 0

        def on_result(result) -> None:
            nonlocal folded
            aggregates.fold(result)
            folded += 1
            campaign.aggregates = aggregates.payload()
            campaign.events.append(
                {
                    "type": "aggregate_partial",
                    "completed_shards": folded,
                    "n_shards": campaign.n_shards,
                    **campaign.aggregates,
                }
            )

        dataset, stats = run_campaign(
            config,
            fault_plan=campaign.fault_plan,
            on_event=self._on_event(campaign),
            on_result=on_result,
            should_stop=campaign.cancel_event.is_set,
        )
        campaign.dataset = dataset
        campaign.run_stats = stats
        campaign.aggregates = aggregates.payload()
        campaign.events.append(
            {
                "type": "aggregate_final",
                "completed_shards": folded,
                "n_shards": campaign.n_shards,
                **campaign.aggregates,
            }
        )

    def workers(self, campaign_id: str) -> dict:
        """The live lease/heartbeat/worker view of a campaign that runs
        on worker processes.

        Backs ``GET /v1/campaigns/{id}/workers``; valid at any point in
        the campaign's life (before planning it reports an unplanned
        fabric).  An in-process campaign has no worker fleet → 409.
        """
        campaign = self.get(campaign_id)
        fabric_dir = campaign.fabric_dir
        if fabric_dir is None:
            raise conflict(
                f"campaign {campaign_id} runs in-process; the workers view "
                "exists for campaigns on fabric worker processes only"
            )
        from repro.runtime.fabric import fabric_status

        return {
            "id": campaign.id,
            "state": campaign.state,
            **fabric_status(fabric_dir),
        }
