"""Shard planning and the one shard body every campaign run shares.

A *shard* is a subset of the campaign's user population, identified by
indices into ``ExtensionCampaign.population.users``;
:func:`plan_campaign` partitions a campaign into them.  :func:`run_users`
is the shard loop: run each user, hand the records to a fold, count.
:func:`run_shard` runs a shard in a campaign rebuilt from its config,
so shards are self-contained and cross-process safe, and encodes its
users' records once, in the worker, into the columns of
:mod:`repro.extension.columnar` (:class:`ShardResult`).  A shard result
holds no record object: that is what a worker pickles, what the
checkpoint spills and what the merge adopts.

Every run, in-process or on the fabric, records its lifecycle through
one :class:`RunLog` (timestamped records, mirrored to the campaign
directory's ``log.jsonl`` when it has one), and its
:class:`CampaignRunStats` keeps that log and reads every recovery count
off it.

Determinism contract (see DESIGN.md): every record a user contributes
is a pure function of ``(CampaignConfig, user)`` — all stochastic
draws come from streams keyed by the root seed plus user-scoped labels
— so any partition of users over any number of workers produces the
same per-user records, and the order-preserving merge
(:mod:`repro.runtime.merge`) reassembles the exact serial dataset.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.extension import columnar
from repro.extension.campaign import ExtensionCampaign

#: The per-record column a shard result carries beside the schema
#: columns: the population index of the record's user.
USER_INDEX_COLUMN = "user_index"

#: The run log's key in a campaign directory: one JSON object per line.
LOG_KEY = "log.jsonl"

#: Run-log record types that each record one failed shard attempt.
_FAILURE_EVENTS = ("shard_redispatched", "shard_exhausted")


@dataclass
class ShardStats:
    """Timing/throughput counters of one shard's execution."""

    shard_id: int
    n_users: int
    n_page_loads: int = 0
    n_speedtests: int = 0
    wall_s: float = 0.0
    #: Link-state epochs computed, batch-filled or lazy.
    geometry_scans: int = 0
    #: Link-state lookups the bent pipes' tables answered.
    geometry_hits: int = 0
    #: Always 0: a bent pipe's link-state table is its only geometry
    #: cache.  Kept because the end-to-end benchmark's workload reads
    #: it and checkpoint metadata stores it.
    timeline_hits: int = 0
    #: Attempts the shard took (1 = first try; a re-dispatch adds one).
    attempts: int = 1
    #: True when the result was adopted from a checkpoint, not re-run.
    resumed: bool = False

    @property
    def n_records(self) -> int:
        """Total records the shard produced."""
        return self.n_page_loads + self.n_speedtests

    @property
    def records_per_s(self) -> float:
        """Shard throughput, records per wall-clock second."""
        return self.n_records / self.wall_s if self.wall_s > 0 else 0.0


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as the fabric coordinator observed it.

    Attributes:
        shard_id: The shard that failed.
        attempt: 0-based attempt number that failed.
        kind: ``"crash"`` (the worker process died holding the lease),
            ``"timeout"`` (held past the deadline; the worker was
            terminated when local), ``"corrupt"`` (the segment failed
            validation), ``"error"`` (the worker raised) or ``"lost"``
            (the lease's heartbeat lapsed, or it vanished without a
            manifest).
        detail: Human-readable diagnosis (an ``"error"`` names the
            exception as ``"<type>: <message>"``).
    """

    shard_id: int
    attempt: int
    kind: str
    detail: str = ""

    def describe(self) -> str:
        """Compact one-line rendering for logs and summaries."""
        detail = f": {self.detail}" if self.detail else ""
        return f"shard {self.shard_id} attempt {self.attempt} {self.kind}{detail}"


def run_failures(events) -> list[ShardFailure]:
    """One :class:`ShardFailure` per failed shard attempt in a run log."""
    return [
        ShardFailure(e["shard_id"], e["failed_attempt"], e["kind"], e["detail"])
        for e in events
        if e["type"] in _FAILURE_EVENTS
    ]


class RunLog:
    """The one writer of a campaign run's lifecycle records.

    Both placements log through it: the in-process run and the fabric
    coordinator.  :meth:`log` keeps each record in :attr:`events`,
    appends it as one JSON line (sorted keys) to the store's
    :data:`LOG_KEY` when a store is given, and hands it to
    ``on_event``.  A failed append loses only the file's copy: the run
    goes on, and :attr:`events` still holds the record.
    """

    def __init__(self, on_event=None, store=None):
        self.events: list[dict] = []
        self._on_event = on_event
        self._store = store

    def log(self, event_type: str, **data) -> None:
        """Record one ``{"type", "t", **data}`` record."""
        event = {"type": event_type, "t": time.time(), **data}
        self.events.append(event)
        if self._store is not None:
            try:
                self._store.append_line(LOG_KEY, json.dumps(event, sort_keys=True))
            except OSError:
                pass
        if self._on_event is not None:
            self._on_event(event)


@dataclass
class CampaignRunStats:
    """One campaign run's stats: its shards' counters and its run log.

    Every recovery count is read off :attr:`events`, the run's
    :class:`RunLog` records, so the log and the counts cannot disagree.
    """

    n_workers: int
    wall_s: float = 0.0
    merge_s: float = 0.0
    shards: list[ShardStats] = field(default_factory=list)
    #: Concurrent worker processes used (0 = everything in-process).
    n_worker_processes: int = 0
    #: The run's log: ``campaign_planned`` first, one terminal record
    #: last (also the campaign directory's ``log.jsonl``, if it has one).
    events: list = field(default_factory=list)

    def transitions(self, event_type: str) -> list[dict]:
        """The log records of one type, in order."""
        return [e for e in self.events if e["type"] == event_type]

    def _planned(self) -> dict:
        planned = self.transitions("campaign_planned")
        return planned[0] if planned else {}

    @property
    def n_shards(self) -> int:
        """Shards the run planned."""
        return self._planned().get("n_shards", 0)

    @property
    def failures(self) -> list[ShardFailure]:
        """Every failed shard attempt the run recovered from, in order."""
        return run_failures(self.events)

    @property
    def n_failures(self) -> int:
        """Failed shard attempts the run observed (and survived)."""
        return len(self.failures)

    @property
    def resumed_shards(self) -> int:
        """Shards adopted from a checkpoint instead of being re-run."""
        return len(self.transitions("shard_resumed"))

    @property
    def redispatched_shards(self) -> int:
        """Failed attempts re-queued for another (any reason)."""
        return len(self.transitions("shard_redispatched"))

    @property
    def stolen_shards(self) -> int:
        """Re-dispatched shards completed by a *different* worker than
        the one revoked — the work-stealing counter."""
        return len(self.transitions("shard_stolen"))

    @property
    def discarded_manifests(self) -> int:
        """Late duplicate manifests that lost the first-wins race."""
        return len(self.transitions("manifest_discarded"))

    @property
    def quarantined_segments(self) -> int:
        """Bad segments moved aside into ``quarantine/``."""
        return sum(
            1 for e in self.transitions("segment_quarantined") if e["quarantined"]
        )

    @property
    def n_records(self) -> int:
        """Total records across all shards."""
        return sum(s.n_records for s in self.shards)

    @property
    def records_per_s(self) -> float:
        """End-to-end throughput, records per wall-clock second."""
        return self.n_records / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def geometry_scans(self) -> int:
        """Link-state epochs computed (batch-filled or lazy), all shards."""
        return sum(s.geometry_scans for s in self.shards)

    @property
    def geometry_hits(self) -> int:
        """Link-state lookups answered from the tables, all shards."""
        return sum(s.geometry_hits for s in self.shards)

    @property
    def timeline_hits(self) -> int:
        """Always 0 (see :attr:`ShardStats.timeline_hits`)."""
        return sum(s.timeline_hits for s in self.shards)

    def summary(self) -> str:
        """One-line human-readable report for experiment notes; a run on
        the fabric ends in a ``[fabric: ...]`` suffix."""
        shard_part = ", ".join(
            f"shard{s.shard_id}: {s.n_users}u/{s.n_records}rec/{s.wall_s:.2f}s"
            + ("/resumed" if s.resumed else "")
            + (f"/{s.attempts}att" if s.attempts > 1 else "")
            for s in self.shards
        )
        failures = self.failures
        fault_part = ""
        if failures:
            by_kind: dict[str, int] = {}
            for failure in failures:
                by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
            kinds = ", ".join(
                f"{kind} x{count}" for kind, count in sorted(by_kind.items())
            )
            fault_part = f"; survived {len(failures)} failed attempt(s): {kinds}"
        resume_part = (
            f"; {self.resumed_shards} shard(s) resumed from checkpoint"
            if self.resumed_shards
            else ""
        )
        fabric_part = ""
        if self._planned().get("placement") == "fabric":
            fabric_part = (
                f" [fabric: {self.n_shards} shards, "
                f"{self.redispatched_shards} re-dispatched, "
                f"{self.stolen_shards} stolen, "
                f"{self.discarded_manifests} discarded, "
                f"{self.quarantined_segments} quarantined]"
            )
        return (
            f"{self.n_workers} worker(s), {self.n_records} records in "
            f"{self.wall_s:.2f}s ({self.records_per_s:.0f} rec/s; "
            f"merge {self.merge_s * 1000.0:.0f} ms; link states: "
            f"{self.geometry_scans} epochs computed, {self.geometry_hits} "
            f"table hits, {self.timeline_hits} timeline hits"
            f"{fault_part}{resume_part}) [{shard_part}]{fabric_part}"
        )

    @classmethod
    def assemble(
        cls,
        shards,
        *,
        n_workers: int,
        started: float,
        sink_started: float,
        events: list,
        n_worker_processes: int = 0,
    ) -> "CampaignRunStats":
        """The stats of a run whose sink just finished.

        ``shards`` are the :class:`ShardStats` of every shard the sink
        consumed, in any order; ``started``/``sink_started`` are the
        ``perf_counter`` readings at the run's and the sink's start;
        ``events`` is the run's :attr:`RunLog.events`, kept as the list
        itself, so the terminal record logged next is in it too.
        """
        finished = time.perf_counter()
        return cls(
            n_workers=n_workers,
            wall_s=finished - started,
            merge_s=finished - sink_started,
            shards=sorted(shards, key=lambda s: s.shard_id),
            n_worker_processes=n_worker_processes,
            events=events,
        )


@dataclass
class ShardResult:
    """One shard's product: its users' records as columns, for the merge.

    Both array dicts hold the schema columns plus an ``int64``
    :data:`USER_INDEX_COLUMN`, in canonical order: ascending user
    index, each user's records in event-time order.
    """

    shard_id: int
    #: The shard's user indices, ascending (users without records too).
    user_indices: list[int]
    page_load_arrays: dict[str, np.ndarray]
    speedtest_arrays: dict[str, np.ndarray]
    stats: ShardStats


def _user_columns(index: int, records: list, columns) -> dict[str, np.ndarray]:
    """One user's records as ``columns`` plus the user-index column."""
    arrays = columnar.encode_columns(records, columns)
    arrays[USER_INDEX_COLUMN] = np.full(len(records), index, dtype=np.int64)
    return arrays


class ShardColumns:
    """A shard's records, encoded user by user as they arrive.

    :meth:`add` is a :func:`run_users` fold; :meth:`result` concatenates
    the users' columns in ascending user order.  A column's values do
    not depend on how its records were batched (strings widen to the
    longest), so the arrays equal one encode of all the records.
    """

    def __init__(self) -> None:
        self._users: dict[int, tuple[dict, dict]] = {}

    def add(self, index: int, page_loads, speedtests) -> None:
        """Encode one user's records."""
        self._users[index] = (
            _user_columns(index, page_loads, columnar.PAGE_LOAD_COLUMNS),
            _user_columns(index, speedtests, columnar.SPEEDTEST_COLUMNS),
        )

    def result(self, shard_id: int, stats: ShardStats) -> ShardResult:
        """The shard's :class:`ShardResult`."""
        indices = sorted(self._users)
        return ShardResult(
            shard_id,
            indices,
            _concat([self._users[i][0] for i in indices], columnar.PAGE_LOAD_COLUMNS),
            _concat([self._users[i][1] for i in indices], columnar.SPEEDTEST_COLUMNS),
            stats,
        )


def _concat(chunks: list, columns) -> dict[str, np.ndarray]:
    """Users' column chunks as one, in order; empty columns when none."""
    return columnar.concat_columns(
        chunks or [_user_columns(0, [], columns)], columns + (USER_INDEX_COLUMN,)
    )


def plan_shards(costs: list[float], n_shards: int) -> list[list[int]]:
    """Partition item indices into ``n_shards`` balanced shards.

    Greedy longest-processing-time assignment on the given per-item
    cost estimates (for users: expected daily page volume).  Fully
    deterministic: ties break on index, shards are returned with their
    member indices sorted.  Shards may be empty when there are fewer
    items than shards.  Degenerate cost estimates (zero, negative,
    NaN, infinite) are clamped to zero rather than poisoning the sort:
    every index is still assigned exactly once, just without a useful
    balance hint.
    """
    if n_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {n_shards}")
    costs = [
        cost if (math.isfinite(cost) and cost > 0.0) else 0.0 for cost in costs
    ]
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    loads = [0.0] * n_shards
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for index in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        shards[target].append(index)
        loads[target] += costs[index]
    for shard in shards:
        shard.sort()
    return shards


def plan_campaign(config, n_shards: int | None = None):
    """Plan a campaign: ``(campaign, [(shard_id, user_indices), ...])``.

    Longest-processing-time shards over each user's expected daily
    page volume (:func:`plan_shards`); by default one shard per worker
    and never more shards than users.  Empty shards are dropped, so
    shard ids may have gaps.  The returned campaign is built once from
    ``config``; an in-process run executes its shard on it.
    """
    campaign = ExtensionCampaign(config)
    users = campaign.population.users
    if n_shards is None:
        n_shards = max(1, min(config.n_workers, len(users)))
    shards = plan_shards([max(user.pages_per_day, 0.01) for user in users], n_shards)
    return campaign, [
        (shard_id, indices) for shard_id, indices in enumerate(shards) if indices
    ]


def run_users(campaign, shard_id: int, user_indices, fold) -> ShardStats:
    """The shard body every placement shares.

    Runs each user of ``user_indices`` on ``campaign`` and hands its
    records to ``fold(index, page_loads, speedtests)`` as soon as they
    exist, then counts the shard's records and its link-state epochs
    computed and table hits.
    """
    users = campaign.population.users
    stats = ShardStats(shard_id=shard_id, n_users=len(user_indices))
    scans, hits = campaign.geometry_scans, campaign.geometry_hits
    started = time.perf_counter()
    for index in user_indices:
        page_loads, speedtests = campaign.run_user(users[index])
        fold(index, page_loads, speedtests)
        stats.n_page_loads += len(page_loads)
        stats.n_speedtests += len(speedtests)
    stats.wall_s = time.perf_counter() - started
    stats.geometry_scans = campaign.geometry_scans - scans
    stats.geometry_hits = campaign.geometry_hits - hits
    return stats


def run_shard(config, shard_id: int, user_indices) -> ShardResult:
    """Execute one shard in a campaign rebuilt from ``config``.

    What a fabric worker process runs for each claimed shard: the
    population derives deterministically from the config, so
    ``user_indices`` mean the same users in every process.
    """
    campaign = ExtensionCampaign(replace(config, n_workers=1))
    shard = ShardColumns()
    stats = run_users(campaign, shard_id, user_indices, shard.add)
    return shard.result(shard_id, stats)
