"""Supervision overhead: the fault-free supervised runtime vs a bare pool.

The supervising dispatcher (DESIGN.md §8) buys crash/hang recovery,
retries and checkpointing — but on the happy path it must cost nearly
nothing.  This benchmark runs the same shard plan once under a bare
``multiprocessing.Pool.map`` (the pre-supervision engine) and once
under ``supervise_shards``, asserts the merged datasets are
bit-identical, and asserts the supervised wall time stays within 5% of
the bare pool (plus a small absolute slack so sub-second campaigns
don't fail on scheduler jitter).
"""

from __future__ import annotations

import multiprocessing
import time

from repro.extension.campaign import CampaignConfig
from repro.runtime import (
    SupervisorPolicy,
    merge_shard_results,
    plan_campaign,
    run_shard,
    supervise_shards,
)

#: Large enough that per-shard work dwarfs process startup, small
#: enough for CI: ~13 days x 3 cities at 40% request volume.
SCALED = dict(
    seed=0,
    duration_s=13 * 86_400.0,
    request_fraction=0.4,
    cities=("london", "seattle", "sydney"),
)

N_WORKERS = 4
MAX_RELATIVE_OVERHEAD = 0.05
#: Absolute slack (s): process wakeup jitter alone can exceed 5% of a
#: short run, which would make the ratio assertion flaky, not meaningful.
ABSOLUTE_SLACK_S = 0.75


def _tasks():
    config = CampaignConfig(**SCALED, n_workers=N_WORKERS)
    _, planned = plan_campaign(config)
    return [(config, shard_id, indices) for shard_id, indices in planned]


def _bare_pool(tasks):
    context = multiprocessing.get_context("fork")
    with context.Pool(processes=min(N_WORKERS, len(tasks))) as pool:
        return pool.starmap(run_shard, tasks)


def _supervised(tasks):
    results, failures = supervise_shards(
        tasks, min(N_WORKERS, len(tasks)), policy=SupervisorPolicy()
    )
    assert failures == []
    return results


def test_supervision_overhead_within_5pct(benchmark):
    tasks = _tasks()
    expected = {i for _, _, indices in tasks for i in indices}

    started = time.perf_counter()
    bare_results = _bare_pool(tasks)
    bare_s = time.perf_counter() - started

    def supervised():
        started = time.perf_counter()
        results = _supervised(tasks)
        return results, time.perf_counter() - started

    supervised_results, supervised_s = benchmark.pedantic(
        supervised, rounds=1, iterations=1
    )

    bare = merge_shard_results(bare_results, expected_indices=expected)
    sup = merge_shard_results(supervised_results, expected_indices=expected)
    assert sup.page_loads == bare.page_loads
    assert sup.speedtests == bare.speedtests

    overhead = supervised_s - bare_s
    budget = bare_s * MAX_RELATIVE_OVERHEAD + ABSOLUTE_SLACK_S
    print(
        f"\nbare pool {bare_s:.2f}s, supervised {supervised_s:.2f}s, "
        f"overhead {overhead:+.2f}s (budget {budget:.2f}s)"
    )
    assert overhead <= budget, (
        f"supervision overhead {overhead:.2f}s exceeds "
        f"{MAX_RELATIVE_OVERHEAD:.0%} + {ABSOLUTE_SLACK_S}s slack "
        f"of the bare pool's {bare_s:.2f}s"
    )
