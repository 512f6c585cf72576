"""The campaign executor: plan → place → sink.

Every campaign run is the same three independent steps, which
:func:`run_campaign` composes (the fabric reuses its plan and sink):

* **plan** — :func:`plan_campaign` partitions the population into LPT
  shards (empty shards dropped), and :func:`shared_timelines` decides
  whether the parent precomputes per-city serving timelines.
* **place** — a campaign with one shard runs it in-process on the
  planner's own campaign; more shards run under the supervising
  dispatcher (:mod:`repro.runtime.supervision`) with per-shard
  timeouts, crash detection, bounded retries and in-process
  degradation.  Workers receive ``(config, shard_id, user_indices,
  timelines, task)`` — cheap to pickle — and rebuild the rest of their
  campaign state; non-``fork`` workers get the timelines through a
  :class:`~repro.runtime.shard.TimelineSpill` file.
* **sink** — a records run merges its shards into the config's storage
  backend (:func:`~repro.runtime.merge.merge_shard_results`), a sketch
  run reduces its shard states in ascending shard id
  (:func:`~repro.runtime.merge.merge_shard_sketches`).

Records runs spill every accepted shard to the config's checkpoint
store and, with ``resume``, adopt surviving shards instead of
re-running them — in-process runs included.  The fabric
(:mod:`repro.runtime.fabric`) places shards on leases instead but
takes its partition from :func:`plan_campaign` and hands its accepted
shards to the same records sink and stats assembly.  Every placement
and sink produces a dataset bit-for-bit identical to the serial run
(see the determinism contract in :mod:`repro.runtime.shard` and
DESIGN.md).
"""

from __future__ import annotations

import multiprocessing
import time

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
from repro.errors import CampaignCancelledError, ConfigurationError
from repro.extension.backends import backend_for_config
from repro.extension.campaign import ExtensionCampaign
from repro.extension.storage import Dataset
from repro.knobs import resolve
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.merge import merge_shard_results, merge_shard_sketches
from repro.runtime.shard import (
    TASKS,
    CampaignRunStats,
    ShardResult,
    TimelineSpill,
    plan_shards,
    run_task,
    run_users,
)
from repro.runtime.supervision import SupervisorPolicy, supervise_shards

TIMELINE_AUTO_EPOCH_CAP = 100_000
"""Auto-precompute serving timelines only up to this many scheduler
epochs per city (~17 days at the 15 s epoch; ~2.8 MB of arrays).  Longer
campaigns spend a noticeable up-front wall-clock slice on epochs the LRU
cache would amortise anyway; force ``precompute_timelines=True`` to
override."""


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


def shared_timelines(campaign) -> dict | None:
    """The per-city serving timelines the parent precomputes, or ``None``.

    ``CampaignConfig.precompute_timelines`` decides when set; otherwise
    sharded runs precompute while a city's campaign window stays under
    :data:`TIMELINE_AUTO_EPOCH_CAP` scheduler epochs.  One vectorised
    pass per Starlink city; the timelines stay on ``campaign`` (so an
    in-process shard uses them) and are returned for the workers.
    Timelines are bit-identical to the on-demand scans, so this decides
    speed only, never the records.
    """
    cfg = campaign.config
    wanted = cfg.precompute_timelines
    if wanted is None:
        n_epochs = cfg.duration_s / STARLINK_RESCHEDULE_INTERVAL_S
        wanted = cfg.n_workers > 1 and n_epochs <= TIMELINE_AUTO_EPOCH_CAP
    if not wanted:
        return None
    cities = sorted(
        {user.city_name for user in campaign.population.users if user.isp.is_starlink}
    )
    return {name: campaign.timeline_for_city(name) for name in cities}


def sink_results(config, task: str, results, expected_indices):
    """The executor's sink over every accepted shard of a run.

    Records merge into the config's storage backend; sketches reduce to
    ``(page loads, {speedtest value: accumulator})``.  Both enforce the
    exactly-once partition against ``expected_indices``.
    """
    if task == "records":
        return merge_shard_results(
            results,
            expected_indices=expected_indices,
            backend=backend_for_config(config),
        )
    return merge_shard_sketches(results, expected_indices=expected_indices)


def run_campaign(
    config,
    task: str = "records",
    *,
    policy: SupervisorPolicy | None = None,
    fault_plan=None,
    checkpoint: CheckpointStore | None = None,
    resume: bool | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
):
    """Run a campaign from its config; returns ``(product, stats)``.

    Args:
        config: The :class:`~repro.extension.campaign.CampaignConfig`.
            Users, worker count and timelines derive from it, and its
            supervision / checkpoint fields provide the defaults for
            the keyword arguments below.
        task: ``"records"`` (the product is the merged
            :class:`~repro.extension.storage.Dataset`) or ``"sketch"``
            (the product is the Table 1/3 ``(page loads, {speedtest
            value: accumulator})`` reduce; no records are centralised).
        policy: Supervisor retry/timeout policy; default derives from
            the config (:meth:`SupervisorPolicy.from_config`).
        fault_plan: Deterministic fault injection for chaos tests
            (:mod:`repro.runtime.faults`); applied in workers only.
        checkpoint: Completed-shard spill store of a records run;
            default derives from the ``checkpoint_dir`` knob (unset
            disables it).  Sketch runs never spill and never resume.
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
    if task not in TASKS:
        raise ConfigurationError(f"unknown campaign task {task!r}; valid: {TASKS}")
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
    if task == "records":
        if checkpoint is None:
            checkpoint = CheckpointStore.from_config(config)
        if resume is None:
            # resume is a plain bool field: False counts as unset.
            resume = resolve("resume", config.resume or None)
    else:
        checkpoint, resume = None, False
    # Recovered shards are CheckpointedShard segments (lazy columnar
    # payloads) that duck-type ShardResult for the merge.
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
    if remaining and len(planned) == 1:
        if should_stop is not None and should_stop():
            raise CampaignCancelledError(
                "campaign cancelled with 0/1 shards complete",
                completed_shards=0,
                n_shards=1,
            )
        shard_id, indices = remaining[0]
        shared_timelines(campaign)
        emit("shard_dispatched", shard_id=shard_id, attempt=0)
        if task == "records":
            keep = checkpoint is not None or on_result is not None
            streamed, result = _stream_records(campaign, shard_id, indices, keep)
        else:
            result = run_task(campaign, shard_id, indices, task)
        accept(result)
        emit(
            "shard_completed",
            shard_id=shard_id,
            attempts=1,
            n_page_loads=result.stats.n_page_loads,
            n_speedtests=result.stats.n_speedtests,
            wall_s=result.stats.wall_s,
        )
        results.append(result)
    elif remaining:
        timelines = shared_timelines(campaign)
        context = mp_context(config)
        spill = None
        if timelines and context.get_start_method() != "fork":
            # Non-fork workers receive their arguments pickled through
            # the startup pipe, whose parent-side write can wedge forever
            # if a child dies mid-handshake with a payload bigger than
            # the pipe buffer.  Ship the (large) timelines out-of-band so
            # the handshake stays tiny (see TimelineSpill).
            spill = TimelineSpill.write(timelines)
            timelines = spill
        tasks = [
            (config, shard_id, indices, timelines, task)
            for shard_id, indices in remaining
        ]
        # Resumed shards need no process, so a mostly-complete resume
        # must not over-provision workers.
        n_worker_processes = min(config.n_workers, len(tasks))
        try:
            fresh, failures = supervise_shards(
                tasks,
                n_worker_processes,
                policy=policy or SupervisorPolicy.from_config(config),
                context=context,
                fault_plan=fault_plan,
                on_success=accept,
                on_event=on_event,
                should_stop=should_stop,
            )
        finally:
            if spill is not None:
                spill.cleanup()
        results.extend(fresh)
    sink_started = time.perf_counter()
    if streamed is None:
        expected = {index for _, indices in planned for index in indices}
        product = sink_results(config, task, results, expected)
    else:
        product = streamed
    stats = CampaignRunStats.assemble(
        [result.stats for result in results],
        n_workers=config.n_workers,
        started=started,
        sink_started=sink_started,
        failures=failures,
        resumed_shards=len(recovered),
        n_worker_processes=n_worker_processes,
    )
    return product, stats


def _stream_records(campaign, shard_id: int, indices, keep: bool):
    """The in-process records shard, appended to the sink user by user.

    Each user's records reach the config's backend as soon as they
    exist, so a ``spill`` run never holds more than one segment plus
    one user's records.  Only with ``keep`` (a checkpoint spill or an
    ``on_result`` callback needs the shard whole) does the returned
    :class:`ShardResult` hold the records too.  Returns ``(dataset,
    result)``.
    """
    dataset = Dataset(backend=backend_for_config(campaign.config))
    user_records: dict = {}

    def fold(index, page_loads, speedtests) -> None:
        dataset.extend_page_loads(page_loads)
        dataset.extend_speedtests(speedtests)
        if keep:
            user_records[index] = (page_loads, speedtests)

    stats = run_users(campaign, shard_id, indices, fold)
    dataset.flush()
    return dataset, ShardResult(shard_id, user_records, stats)
