"""The campaign executor: plan → place → sink.

Every campaign run is the same three independent steps, which
:func:`run_campaign` composes:

* **plan** — :func:`~repro.runtime.shard.plan_campaign` partitions the
  population into LPT shards (empty shards dropped).
* **place** — a campaign with one shard runs it in-process on the
  planner's own campaign; more shards run on local fabric worker
  processes (:func:`~repro.runtime.supervision.supervise_shards`, the
  one multi-process placement): leases, heartbeats, deadline and crash
  recovery with a bounded re-dispatch budget.  Workers rebuild their
  campaign from the published config and each user's bent pipe
  computes its own link states.
* **sink** — the shards' records merge into the config's storage
  backend (:func:`~repro.runtime.merge.merge_shard_results`).

The ``checkpoint_dir`` knob makes a run spill each accepted shard and,
with ``resume``, adopt surviving shards instead of re-running them.
Both placements use the campaign fingerprint's directory under it
(:func:`~repro.runtime.checkpoint.campaign_dir`) and keep their shard
segments in its ``segments/``: an in-process run saves and resumes its
shard there, and a multi-shard run uses the directory as its fabric
directory (a temporary one without the knob).  Every placement
produces a dataset bit-for-bit identical to the serial run (see the
determinism contract in :mod:`repro.runtime.shard` and DESIGN.md).

Both placements record the run through one
:class:`~repro.runtime.shard.RunLog`: ``campaign_planned`` first, one
terminal record last, every record timestamped, and — under the
``checkpoint_dir`` knob — every record also a line of the campaign
directory's ``log.jsonl`` (appended to by a resumed run, started afresh
otherwise).  The returned stats keep the log and count from it.
"""

from __future__ import annotations

import os
import time

from repro.errors import CampaignCancelledError
from repro.extension.backends import backend_for_config
from repro.extension.storage import Dataset
from repro.knobs import resolve
from repro.runtime.checkpoint import (
    SEGMENTS_DIR,
    CheckpointStore,
    campaign_dir,
    campaign_fingerprint,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.shard import (
    LOG_KEY,
    CampaignRunStats,
    RunLog,
    ShardColumns,
    plan_campaign,
    run_users,
)
from repro.runtime.store import FsStore
from repro.runtime.supervision import supervise_shards


def run_campaign(
    config,
    *,
    fault_plan=None,
    resume: bool | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
):
    """Run a campaign from its config; returns ``(dataset, stats)``.

    Args:
        config: The :class:`~repro.extension.campaign.CampaignConfig`.
            Users, worker count, recovery knobs and the checkpoint
            directory derive from it.
        fault_plan: Deterministic fault injection for chaos tests
            (:mod:`repro.runtime.faults`); applied in worker processes
            only.
        resume: Adopt surviving checkpointed shards instead of
            re-running them; default derives from the ``resume`` knob.
        on_event: Progress-callback seam — every run-log record
            (:class:`~repro.runtime.shard.RunLog`) as it is logged:
            ``campaign_planned`` first, then ``shard_resumed``,
            ``shard_dispatched`` and ``shard_completed`` in-process or
            the fabric coordinator's lease transitions, and one terminal
            record (``campaign_completed``, ``campaign_cancelled`` or
            ``campaign_failed``) last; the campaign service streams all
            but the terminal record over SSE.
        on_result: Invoked with every accepted shard result (fresh,
            recovered, or run in-process) as soon as it exists — after
            the checkpoint spill — so callers can fold incremental
            aggregates while slower shards still run.
        should_stop: Cancellation seam polled before an in-process
            shard and every coordinator cycle; a true return raises
            :class:`~repro.errors.CampaignCancelledError` after the
            worker processes are torn down.

    Raises:
        ShardFailedError: a shard used up its re-dispatch budget.  All
            other shards are completed (and stored) first, so a later
            ``resume`` run re-runs only the lost shard.
    """
    started = time.perf_counter()
    campaign, planned = plan_campaign(config)
    directory = campaign_dir(config)
    if resume is None:
        # resume is a plain bool field: False counts as unset.
        resume = resolve("resume", config.resume or None)
    if len(planned) > 1:
        dataset, stats = supervise_shards(
            config,
            planned,
            config.n_workers,
            directory,
            resume=resume,
            fault_plan=fault_plan,
            on_event=on_event,
            on_result=on_result,
            should_stop=should_stop,
        )
        stats.wall_s = time.perf_counter() - started  # planning included
        return dataset, stats

    store = None
    if directory is not None:
        store = FsStore(directory)
        if not resume:
            store.delete(LOG_KEY)
    log = RunLog(on_event, store)
    log.log(
        "campaign_planned",
        n_shards=len(planned),
        n_users=len(campaign.population.users),
        n_workers=config.n_workers,
        fingerprint=campaign_fingerprint(config),
        placement="in-process",
    )
    try:
        dataset, shards, sink_started = _run_in_process(
            campaign, planned, directory, resume, log, on_result, should_stop
        )
    except CampaignCancelledError as exc:
        log.log(
            "campaign_cancelled",
            completed_shards=exc.completed_shards,
            n_shards=exc.n_shards,
        )
        raise
    except Exception as exc:
        log.log("campaign_failed", reason=str(exc))
        raise
    stats = CampaignRunStats.assemble(
        shards,
        n_workers=config.n_workers,
        started=started,
        sink_started=sink_started,
        events=log.events,
    )
    log.log("campaign_completed", n_shards=len(planned))
    return dataset, stats


def _run_in_process(
    campaign, planned, directory, resume, log, on_result, should_stop
):
    """The one-shard placement, on the planner's campaign.

    Adopts the shard's checkpointed segment when resuming, else runs it
    (:func:`_stream_records`) and spills it to the campaign's segment
    directory.  Returns ``(dataset, shard stats, sink start)``.
    """
    config = campaign.config
    checkpoint = None
    if directory is not None:
        checkpoint = CheckpointStore(os.path.join(directory, SEGMENTS_DIR), config)
    recovered = {}
    if checkpoint is not None and resume:
        for shard_id, indices in planned:
            result = checkpoint.load(shard_id, indices)
            if result is not None:
                recovered[shard_id] = result
    results = []
    for shard_id in sorted(recovered):
        result = recovered[shard_id]
        result.stats.resumed = True
        log.log(
            "shard_resumed",
            shard_id=shard_id,
            n_page_loads=result.stats.n_page_loads,
            n_speedtests=result.stats.n_speedtests,
        )
        if on_result is not None:
            on_result(result)
        results.append(result)
    shards = [result.stats for result in results]
    dataset = None
    if planned and not recovered:
        if should_stop is not None and should_stop():
            raise CampaignCancelledError(
                "campaign cancelled with 0/1 shards complete",
                completed_shards=0,
                n_shards=1,
            )
        shard_id, indices = planned[0]
        log.log("shard_dispatched", shard_id=shard_id, attempt=0)
        keep = checkpoint is not None or on_result is not None
        dataset, shard_stats, result = _stream_records(
            campaign, shard_id, indices, keep
        )
        if result is not None:
            if checkpoint is not None:
                checkpoint.save(result)
            if on_result is not None:
                on_result(result)
        log.log(
            "shard_completed",
            shard_id=shard_id,
            attempts=1,
            n_page_loads=shard_stats.n_page_loads,
            n_speedtests=shard_stats.n_speedtests,
            wall_s=shard_stats.wall_s,
        )
        shards.append(shard_stats)
    sink_started = time.perf_counter()
    if dataset is None:
        dataset = merge_shard_results(
            results,
            expected_indices={index for _, indices in planned for index in indices},
            backend=backend_for_config(config),
        )
    return dataset, shards, sink_started


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
