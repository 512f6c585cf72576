"""Storage backends: identity always; bounded memory and faster merge.

Three claims:

* **Identity** — a campaign produces bit-identical datasets on both
  backends (``memory`` and ``spill``), with 1 and with 4 workers
  (asserted on every machine).
* **Peak RSS** — at benchmark scale (>= 1.0: several hundred thousand
  records) the spill backend's peak-RSS growth is >= 5x lower than the
  memory backend's, which keeps the same columns in RAM.  Each backend
  is probed in a fresh subprocess (``_storage_rss_probe.py``) because
  ``ru_maxrss`` is a process-wide high-water mark.
* **Merge speed** — reloading and merging checkpointed shards (their
  checksummed ``.ckpt`` columns and one argsort merge) beats the legacy
  path it replaced: shards pickled as record-object lists, merged by
  appending each user's records.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time

from repro.extension import columnar
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.storage import Dataset
from repro.runtime import (
    CheckpointStore,
    merge_shard_results,
    plan_campaign,
    run_shard,
)

#: Record count for the RSS probe — "scale >= 1.0" territory (the
#: paper's full campaign collects ~50k readings; this is ~8x that).
RSS_PROBE_RECORDS = 400_000

RSS_REDUCTION_TARGET = 5.0

SMALL = dict(
    seed=7,
    duration_s=86_400.0,
    request_fraction=0.1,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)

MERGE_CFG = dict(
    seed=3,
    duration_s=4 * 86_400.0,
    request_fraction=0.4,
    cities=("london", "seattle", "sydney"),
    shell_planes=24,
    shell_sats_per_plane=12,
)

MERGE_SHARDS = 6


def test_storage_identity_across_backends(benchmark, tmp_path):
    """Serial memory == serial/sharded memory == serial/sharded spill."""
    reference = ExtensionCampaign(CampaignConfig(**SMALL)).run()

    def all_backends():
        datasets = {}
        for backend in ("memory", "spill"):
            for n_workers in (1, 4):
                config = CampaignConfig(
                    **SMALL,
                    n_workers=n_workers,
                    storage=backend,
                    storage_dir=str(tmp_path / f"{backend}-{n_workers}")
                    if backend == "spill"
                    else None,
                )
                datasets[(backend, n_workers)] = ExtensionCampaign(config).run()
        return datasets

    datasets = benchmark.pedantic(all_backends, rounds=1, iterations=1)
    for key, dataset in datasets.items():
        assert dataset.page_loads == reference.page_loads, key
        assert dataset.speedtests == reference.speedtests, key
    print(
        f"\nidentity: {len(datasets)} backend/worker combinations "
        f"bit-identical to serial memory "
        f"({reference.n_page_loads} page loads, "
        f"{reference.n_speedtests} speedtests)"
    )


def _probe_peak_growth_kib(backend: str, directory: str | None) -> dict:
    probe = os.path.join(os.path.dirname(__file__), "_storage_rss_probe.py")
    argv = [sys.executable, probe, backend, str(RSS_PROBE_RECORDS)]
    if directory is not None:
        argv.append(directory)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(probe))), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        argv, capture_output=True, text=True, check=True, env=env, timeout=600
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["stored"] == RSS_PROBE_RECORDS
    report["growth_kib"] = max(report["peak_kib"] - report["baseline_kib"], 1)
    return report


def test_spill_backend_peak_rss_reduction(benchmark, tmp_path):
    """>= 5x lower peak-RSS growth than the memory backend at scale."""

    def probe_both():
        memory = _probe_peak_growth_kib("memory", None)
        spill = _probe_peak_growth_kib("spill", str(tmp_path / "segments"))
        return memory, spill

    memory, spill = benchmark.pedantic(probe_both, rounds=1, iterations=1)
    reduction = memory["growth_kib"] / spill["growth_kib"]
    print(
        f"\npeak-RSS growth over {RSS_PROBE_RECORDS} records: "
        f"memory {memory['growth_kib'] / 1024:.0f} MiB, "
        f"spill {spill['growth_kib'] / 1024:.0f} MiB "
        f"-> {reduction:.1f}x reduction"
    )
    assert reduction >= RSS_REDUCTION_TARGET, (
        f"spill backend reduced peak RSS only {reduction:.1f}x "
        f"(target {RSS_REDUCTION_TARGET}x)"
    )


def _object_lists(result) -> dict:
    """The legacy shard payload, decoded from a shard's columns:
    ``{user index: (page loads, speedtests)}`` in event order."""
    by_user = {index: ([], []) for index in result.user_indices}
    kinds = (
        (result.page_load_arrays, columnar.decode_page_loads),
        (result.speedtest_arrays, columnar.decode_speedtests),
    )
    for position, (arrays, decode) in enumerate(kinds):
        for index, record in zip(arrays["user_index"].tolist(), decode(arrays)):
            by_user[index][position].append(record)
    return by_user


def test_columnar_checkpoint_merge_faster_than_pickle(benchmark, tmp_path):
    """Load-and-merge from columnar .ckpt segments vs the legacy
    pickled-object spill format, same shards, identical output."""
    config = CampaignConfig(**MERGE_CFG)
    _, planned = plan_campaign(config, MERGE_SHARDS)
    expected = {i for _, idx in planned for i in idx}
    results = [run_shard(config, shard_id, idx) for shard_id, idx in planned]
    n_records = sum(result.stats.n_records for result in results)

    # Legacy format: whole shards as pickled object lists.
    legacy_paths = []
    for result in results:
        path = tmp_path / f"legacy-{result.shard_id:04d}.pkl"
        path.write_bytes(pickle.dumps(_object_lists(result)))
        legacy_paths.append(path)

    # Current format: checksummed columnar segments.
    store = CheckpointStore(str(tmp_path / "ckpt"), config)
    for result in results:
        store.save(result)

    def legacy_load_and_merge():
        by_user = {}
        for path in legacy_paths:
            by_user.update(pickle.loads(path.read_bytes()))
        assert set(by_user) == expected
        dataset = Dataset()
        for index in sorted(by_user):
            page_loads, speedtests = by_user[index]
            dataset.extend_page_loads(page_loads)
            dataset.extend_speedtests(speedtests)
        dataset.flush()
        return dataset

    def columnar_load_and_merge():
        recovered = [store.load(shard_id, idx) for shard_id, idx in planned]
        return merge_shard_results(recovered, expected_indices=expected)

    started = time.perf_counter()
    legacy_dataset = legacy_load_and_merge()
    legacy_s = time.perf_counter() - started

    columnar_dataset = benchmark.pedantic(
        columnar_load_and_merge, rounds=1, iterations=1
    )
    started = time.perf_counter()
    columnar_load_and_merge()
    columnar_s = time.perf_counter() - started

    assert columnar_dataset.page_loads == legacy_dataset.page_loads
    assert columnar_dataset.speedtests == legacy_dataset.speedtests

    speedup = legacy_s / columnar_s if columnar_s > 0 else float("inf")
    print(
        f"\nload+merge of {len(results)} shards ({n_records} records): "
        f"legacy pickle {legacy_s * 1e3:.0f} ms, "
        f"columnar {columnar_s * 1e3:.0f} ms -> {speedup:.2f}x"
    )
    assert speedup > 1.0, (
        f"columnar checkpoint merge slower than the pickle path "
        f"({speedup:.2f}x)"
    )
