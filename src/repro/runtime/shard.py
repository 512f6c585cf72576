"""Shard planning and the one shard body every campaign run shares.

A *shard* is a subset of the campaign's user population, identified by
indices into ``ExtensionCampaign.population.users``.  :func:`run_users`
is the shard loop: run each user, hand the records to a fold, count.
:func:`run_shard` runs a shard in a campaign rebuilt from its config,
so shards are self-contained and cross-process safe, and encodes its
users' records once, in the worker, into the columns of
:mod:`repro.extension.columnar` (:class:`ShardResult`).  A shard result
holds no record object: that is what a worker pickles, what the
checkpoint spills and what the merge adopts.

Determinism contract (see DESIGN.md): every record a user contributes
is a pure function of ``(CampaignConfig, user)`` — all stochastic
draws come from streams keyed by the root seed plus user-scoped labels
— so any partition of users over any number of workers produces the
same per-user records, and the order-preserving merge
(:mod:`repro.runtime.merge`) reassembles the exact serial dataset.
"""

from __future__ import annotations

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
    #: Attempts the supervisor spent on this shard (1 = first try).
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


@dataclass
class CampaignRunStats:
    """Aggregate counters of one campaign run (serial or sharded)."""

    n_workers: int
    wall_s: float = 0.0
    merge_s: float = 0.0
    shards: list[ShardStats] = field(default_factory=list)
    #: Every failed shard attempt the supervisor recovered from
    #: (:class:`repro.runtime.supervision.ShardFailure` entries).
    failures: list = field(default_factory=list)
    #: Shards adopted from a checkpoint instead of being re-run.
    resumed_shards: int = 0
    #: Concurrent worker processes used (0 = everything in-process).
    n_worker_processes: int = 0

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

    @property
    def n_failures(self) -> int:
        """Failed shard attempts the supervisor observed (and survived)."""
        return len(self.failures)

    @property
    def n_retried_shards(self) -> int:
        """Shards that needed more than one attempt."""
        return sum(1 for s in self.shards if s.attempts > 1)

    def summary(self) -> str:
        """One-line human-readable report for experiment notes."""
        shard_part = ", ".join(
            f"shard{s.shard_id}: {s.n_users}u/{s.n_records}rec/{s.wall_s:.2f}s"
            + ("/resumed" if s.resumed else "")
            + (f"/{s.attempts}att" if s.attempts > 1 else "")
            for s in self.shards
        )
        fault_part = ""
        if self.failures:
            by_kind: dict[str, int] = {}
            for failure in self.failures:
                by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
            kinds = ", ".join(
                f"{kind} x{count}" for kind, count in sorted(by_kind.items())
            )
            fault_part = (
                f"; survived {len(self.failures)} failed attempt(s): {kinds}"
            )
        resume_part = (
            f"; {self.resumed_shards} shard(s) resumed from checkpoint"
            if self.resumed_shards
            else ""
        )
        return (
            f"{self.n_workers} worker(s), {self.n_records} records in "
            f"{self.wall_s:.2f}s ({self.records_per_s:.0f} rec/s; "
            f"merge {self.merge_s * 1000.0:.0f} ms; link states: "
            f"{self.geometry_scans} epochs computed, {self.geometry_hits} "
            f"table hits, {self.timeline_hits} timeline hits"
            f"{fault_part}{resume_part}) [{shard_part}]"
        )

    @classmethod
    def assemble(
        cls,
        shards,
        *,
        n_workers: int,
        started: float,
        sink_started: float,
        **counters,
    ) -> "CampaignRunStats":
        """The stats of a run whose sink just finished.

        ``shards`` are the :class:`ShardStats` of every shard the sink
        consumed, in any order; ``started``/``sink_started`` are the
        ``perf_counter`` readings at the run's and the sink's start.
        ``counters`` fill the remaining fields (failures, resume and
        process accounting, and a subclass's own counters).
        """
        finished = time.perf_counter()
        return cls(
            n_workers=n_workers,
            wall_s=finished - started,
            merge_s=finished - sink_started,
            shards=sorted(shards, key=lambda s: s.shard_id),
            **counters,
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

    The worker-process entry point (and the supervisor's in-process
    fallback): the population derives deterministically from the
    config, so ``user_indices`` mean the same users in every process.
    """
    campaign = ExtensionCampaign(replace(config, n_workers=1))
    shard = ShardColumns()
    stats = run_users(campaign, shard_id, user_indices, shard.add)
    return shard.result(shard_id, stats)
