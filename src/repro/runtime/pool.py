"""The campaign executor: plan → place → sink.

Every campaign run is the same three independent steps, which
:func:`run_campaign` composes (the fabric reuses its plan and sink):

* **plan** — :func:`plan_campaign` partitions the population into LPT
  shards (empty shards dropped).
* **place** — a campaign with one shard runs it in-process on the
  planner's own campaign; more shards run under the supervising
  dispatcher (:mod:`repro.runtime.supervision`) with per-shard
  timeouts, crash detection, bounded retries and in-process
  degradation.  Workers receive ``(config, shard_id, user_indices)``
  — cheap to pickle — and rebuild the rest of their campaign state;
  each user's bent pipe computes its own link states.
* **sink** — the shards' records merge into the config's storage
  backend (:func:`~repro.runtime.merge.merge_shard_results`).

A run with a checkpoint store spills each accepted shard to it and,
with ``resume``, adopts surviving shards instead of re-running them —
in-process runs included.  The fabric
(:mod:`repro.runtime.fabric`) places shards on leases instead but
takes its partition from :func:`plan_campaign` and hands its accepted
shards to the same merge and stats assembly.  Every placement produces
a dataset bit-for-bit identical to the serial run (see the
determinism contract in :mod:`repro.runtime.shard` and DESIGN.md).
"""

from __future__ import annotations

import multiprocessing
import time

from repro.errors import CampaignCancelledError
from repro.extension.backends import backend_for_config
from repro.extension.campaign import ExtensionCampaign
from repro.extension.storage import Dataset
from repro.knobs import resolve
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.merge import merge_shard_results
from repro.runtime.shard import (
    CampaignRunStats,
    ShardColumns,
    plan_shards,
    run_users,
)
from repro.runtime.supervision import SupervisorPolicy, supervise_shards


def mp_context(config):
    """The multiprocessing context of a campaign's ``mp_start_method``
    knob (DESIGN.md §5)."""
    return multiprocessing.get_context(
        resolve("mp_start_method", config.mp_start_method)
    )


def plan_campaign(config, n_shards: int | None = None):
    """Plan a campaign: ``(campaign, [(shard_id, user_indices), ...])``.

    Longest-processing-time shards over each user's expected daily
    page volume (:func:`~repro.runtime.shard.plan_shards`); by default
    one shard per worker and never more shards than users.  Empty
    shards are dropped, so shard ids may have gaps.  The returned
    campaign is built once from ``config``; an in-process run executes
    its shard on it.
    """
    campaign = ExtensionCampaign(config)
    users = campaign.population.users
    if n_shards is None:
        n_shards = max(1, min(config.n_workers, len(users)))
    shards = plan_shards([max(user.pages_per_day, 0.01) for user in users], n_shards)
    return campaign, [
        (shard_id, indices) for shard_id, indices in enumerate(shards) if indices
    ]


def run_campaign(
    config,
    *,
    policy: SupervisorPolicy | None = None,
    fault_plan=None,
    checkpoint: CheckpointStore | None = None,
    resume: bool | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
):
    """Run a campaign from its config; returns ``(dataset, stats)``.

    Args:
        config: The :class:`~repro.extension.campaign.CampaignConfig`.
            Users and worker count derive from it, and its
            supervision / checkpoint fields provide the defaults for
            the keyword arguments below.
        policy: Supervisor retry/timeout policy; default derives from
            the config (:meth:`SupervisorPolicy.from_config`).
        fault_plan: Deterministic fault injection for chaos tests
            (:mod:`repro.runtime.faults`); applied in workers only.
        checkpoint: Completed-shard spill store; default derives from
            the ``checkpoint_dir`` knob (unset disables it).
        resume: Adopt surviving checkpointed shards instead of
            re-running them; default derives from the ``resume`` knob.
        on_event: Progress-callback seam — one dict per lifecycle
            transition (``campaign_planned``, ``shard_resumed``,
            ``shard_dispatched``, ``shard_completed``, plus everything
            :func:`supervise_shards` emits); the campaign service
            streams these over SSE.
        on_result: Invoked with every accepted shard result (fresh,
            recovered, or run in-process) as soon as it exists — after
            the checkpoint spill — so callers can fold incremental
            aggregates while slower shards still run.
        should_stop: Cancellation seam polled before an in-process
            shard and every dispatch cycle when supervising; a true
            return raises :class:`~repro.errors.CampaignCancelledError`
            after the in-flight workers are torn down.

    Raises:
        ShardFailedError: a shard exhausted its retry budget and the
            policy forbids in-process fallback.  All other shards are
            completed (and checkpointed) first, so a later ``resume``
            run re-runs only the lost shard.
    """
    started = time.perf_counter()
    campaign, planned = plan_campaign(config)

    def emit(event_type: str, **data) -> None:
        if on_event is not None:
            on_event({"type": event_type, **data})

    emit(
        "campaign_planned",
        n_shards=len(planned),
        n_users=len(campaign.population.users),
        n_workers=config.n_workers,
    )
    if checkpoint is None:
        checkpoint = CheckpointStore.from_config(config)
    if resume is None:
        # resume is a plain bool field: False counts as unset.
        resume = resolve("resume", config.resume or None)
    recovered = {}
    if checkpoint is not None and resume:
        recovered = checkpoint.load_matching(planned)
    results = []
    for shard_id in sorted(recovered):
        result = recovered[shard_id]
        result.stats.resumed = True
        emit(
            "shard_resumed",
            shard_id=shard_id,
            n_page_loads=result.stats.n_page_loads,
            n_speedtests=result.stats.n_speedtests,
        )
        if on_result is not None:
            on_result(result)
        results.append(result)
    remaining = [shard for shard in planned if shard[0] not in recovered]

    def accept(result) -> None:
        if checkpoint is not None:
            checkpoint.save(result)
        if on_result is not None:
            on_result(result)

    failures: list = []
    n_worker_processes = 0
    streamed = None
    streamed_stats = []
    if remaining and len(planned) == 1:
        if should_stop is not None and should_stop():
            raise CampaignCancelledError(
                "campaign cancelled with 0/1 shards complete",
                completed_shards=0,
                n_shards=1,
            )
        shard_id, indices = remaining[0]
        emit("shard_dispatched", shard_id=shard_id, attempt=0)
        keep = checkpoint is not None or on_result is not None
        streamed, shard_stats, result = _stream_records(
            campaign, shard_id, indices, keep
        )
        if result is not None:
            accept(result)
        emit(
            "shard_completed",
            shard_id=shard_id,
            attempts=1,
            n_page_loads=shard_stats.n_page_loads,
            n_speedtests=shard_stats.n_speedtests,
            wall_s=shard_stats.wall_s,
        )
        streamed_stats.append(shard_stats)
    elif remaining:
        tasks = [(config, shard_id, indices) for shard_id, indices in remaining]
        # Resumed shards need no process, so a mostly-complete resume
        # must not over-provision workers.
        n_worker_processes = min(config.n_workers, len(tasks))
        fresh, failures = supervise_shards(
            tasks,
            n_worker_processes,
            policy=policy or SupervisorPolicy.from_config(config),
            context=mp_context(config),
            fault_plan=fault_plan,
            on_success=accept,
            on_event=on_event,
            should_stop=should_stop,
        )
        results.extend(fresh)
    sink_started = time.perf_counter()
    if streamed is None:
        dataset = merge_shard_results(
            results,
            expected_indices={index for _, indices in planned for index in indices},
            backend=backend_for_config(config),
        )
    else:
        dataset = streamed
    stats = CampaignRunStats.assemble(
        [result.stats for result in results] + streamed_stats,
        n_workers=config.n_workers,
        started=started,
        sink_started=sink_started,
        failures=failures,
        resumed_shards=len(recovered),
        n_worker_processes=n_worker_processes,
    )
    return dataset, stats


def _stream_records(campaign, shard_id: int, indices, keep: bool):
    """The in-process shard, appended to the sink user by user.

    Each user's records reach the config's backend as soon as they
    exist, so a ``spill`` run never holds more than one segment plus
    one user's records.  Only with ``keep`` (a checkpoint spill or an
    ``on_result`` callback needs the shard whole) are the records also
    encoded into a :class:`ShardResult`.  Returns ``(dataset, stats,
    result or None)``.
    """
    dataset = Dataset(backend=backend_for_config(campaign.config))
    shard = ShardColumns() if keep else None

    def fold(index, page_loads, speedtests) -> None:
        dataset.extend_page_loads(page_loads)
        dataset.extend_speedtests(speedtests)
        if shard is not None:
            shard.add(index, page_loads, speedtests)

    stats = run_users(campaign, shard_id, indices, fold)
    dataset.flush()
    return dataset, stats, None if shard is None else shard.result(shard_id, stats)
