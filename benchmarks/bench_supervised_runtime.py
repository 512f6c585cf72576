"""Placement overhead: the one multi-process placement vs a bare pool.

Local fabric workers (DESIGN.md §8) buy crash/hang recovery,
re-dispatch and checkpointing — but on the happy path they must cost
nearly nothing.  This benchmark runs the same campaign once as a bare
``multiprocessing.Pool.starmap`` over the shard plan and once through
``run_campaign`` with four workers, asserts the merged datasets are
bit-identical, and asserts the fabric wall time stays within 5% of the
bare pool (plus a small absolute slack so sub-second campaigns don't
fail on scheduler jitter).  Both arms plan and merge: the bare arm
times plan, pool and merge, ``run_campaign`` the same three steps.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.extension.campaign import CampaignConfig
from repro.runtime import merge_shard_results, plan_campaign, run_campaign, run_shard

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


def _config():
    return CampaignConfig(**SCALED, n_workers=N_WORKERS, mp_start_method="fork")


def _bare_pool(config):
    _, planned = plan_campaign(config)
    tasks = [(config, shard_id, indices) for shard_id, indices in planned]
    context = multiprocessing.get_context("fork")
    with context.Pool(processes=min(N_WORKERS, len(tasks))) as pool:
        results = pool.starmap(run_shard, tasks)
    expected = {i for _, indices in planned for i in indices}
    return merge_shard_results(results, expected_indices=expected)


def test_supervision_overhead_within_5pct(benchmark):
    config = _config()

    started = time.perf_counter()
    bare = _bare_pool(config)
    bare_s = time.perf_counter() - started

    def fabric():
        started = time.perf_counter()
        dataset, stats = run_campaign(config)
        return dataset, stats, time.perf_counter() - started

    dataset, stats, fabric_s = benchmark.pedantic(fabric, rounds=1, iterations=1)

    assert stats.failures == []
    assert stats.n_worker_processes == N_WORKERS
    assert dataset.page_loads == bare.page_loads
    assert dataset.speedtests == bare.speedtests

    overhead = fabric_s - bare_s
    budget = bare_s * MAX_RELATIVE_OVERHEAD + ABSOLUTE_SLACK_S
    print(
        f"\nbare pool {bare_s:.2f}s, fabric placement {fabric_s:.2f}s, "
        f"overhead {overhead:+.2f}s (budget {budget:.2f}s)"
    )
    assert overhead <= budget, (
        f"placement overhead {overhead:.2f}s exceeds "
        f"{MAX_RELATIVE_OVERHEAD:.0%} + {ABSOLUTE_SLACK_S}s slack "
        f"of the bare pool's {bare_s:.2f}s"
    )
