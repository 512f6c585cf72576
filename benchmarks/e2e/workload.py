"""One benchmark round: set up, run one workload once, report as JSON.

Started by ``run.py`` as a fresh process per round, with ``src`` on
``PYTHONPATH``, so every round pays its own import (the ``setup_s``
metric) and its peak RSS is its own.  The last line of standard output
is one JSON object with the raw timings, the output digests the caller
checks against the goldens, the program's own run statistics, and with
``--trace`` the per-function span summary.

    python benchmarks/e2e/workload.py --workload serial-canonical --seed 0 \\
        --work-dir .e2e-work/tmp/r0 [--trace SPANS.npz] [--smoke]
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Campaign size and packet-experiment scales.  ``full`` is the canonical
#: campaign (28 users, two days, half the activity); ``smoke`` keeps the
#: same paths but finishes in a few seconds per workload.
SIZES = {
    "full": {
        "duration_s": 172800.0,
        "request_fraction": 0.5,
        "table2_scale": 1.0,
        "figure8_scale": 0.34,
    },
    "smoke": {
        "duration_s": 7200.0,
        "request_fraction": 0.05,
        "table2_scale": 0.1,
        "figure8_scale": 0.1,
    },
}

#: Seeds whose canonical campaign yields 17,500 records within 1 % (16 of
#: seeds 0-79; seed 0 gives 17,396).  ``run.py --seed n`` runs input seed
#: ``INPUT_SEEDS[n % 16]``, so a spread over benchmark seeds measures the
#: program rather than the input size: over seeds 0-79 the record count
#: alone spreads 7.8 % (quartile distance over median).
INPUT_SEEDS = (0, 1, 4, 5, 11, 18, 19, 20, 43, 44, 50, 53, 56, 63, 73, 76)

CAMPAIGN_WORKLOADS = ("serial-canonical", "sharded-spill", "fabric-2w")
WORKLOADS = CAMPAIGN_WORKLOADS + ("rpi-packet",)
TABLE1_CITIES = ("london", "seattle", "sydney")


def dataset_digest(dataset) -> str:
    """sha256 over ``repr`` of every record, page loads then speedtests."""
    digest = hashlib.sha256()
    for record in dataset.page_loads:
        digest.update(repr(record).encode("utf-8"))
    for record in dataset.speedtests:
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


def metrics_digest(metrics: dict) -> str:
    """sha256 over ``repr`` of an experiment's sorted metrics."""
    return hashlib.sha256(repr(sorted(metrics.items())).encode("utf-8")).hexdigest()


def exact_table1(dataset) -> list[list]:
    """Table 1 cells ``[city, starlink, #req, #domain, median PTT]``."""
    return [
        [
            city,
            starlink,
            dataset.request_count(city=city, is_starlink=starlink),
            dataset.unique_domains(city=city, is_starlink=starlink),
            dataset.median_ptt_ms(city=city, is_starlink=starlink),
        ]
        for city in TABLE1_CITIES
        for starlink in (True, False)
    ]


def streamed_table1(dataset) -> list[list]:
    """Table 1 cells folded from column chunks (sketch medians)."""
    from repro.analysis import streaming

    grouped = streaming.stream_table1_stats(dataset)
    return [
        [
            city,
            starlink,
            int(grouped.sketch((city, starlink)).n),
            int(grouped.distinct((city, starlink)).n),
            float(grouped.sketch((city, starlink)).quantile(0.5)),
        ]
        for city in TABLE1_CITIES
        for starlink in (True, False)
    ]


def run_stats(stats) -> dict:
    """The program's own per-shard counters of a campaign run."""
    return {
        "shard_wall_s": [s.wall_s for s in stats.shards],
        "attempts": sum(s.attempts for s in stats.shards),
        "failures": stats.n_failures,
        "geometry_hits": sum(s.geometry_hits for s in stats.shards),
        "geometry_scans": stats.geometry_scans,
        "timeline_hits": stats.timeline_hits,
        "redispatched_shards": getattr(stats, "redispatched_shards", 0),
    }


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _, names in os.walk(path)
        for name in names
    )


def campaign_config(workload: str, seed: int, size: dict, work_dir: str):
    """The workload's ``CampaignConfig``; every float field is a float."""
    from repro.extension.campaign import CampaignConfig

    common = dict(
        seed=seed,
        duration_s=size["duration_s"],
        request_fraction=size["request_fraction"],
    )
    if workload == "sharded-spill":
        return CampaignConfig(
            **common,
            n_workers=2,
            mp_start_method="fork",
            storage="spill",
            storage_dir=os.path.join(work_dir, "spill"),
            checkpoint_dir=os.path.join(work_dir, "checkpoint"),
        )
    if workload == "fabric-2w":
        return CampaignConfig(**common, n_workers=2, mp_start_method="fork")
    return CampaignConfig(**common)


def run_round(args) -> dict:
    """Set up and run one round; the document ``run.py`` checks and times."""
    import repro.experiments  # noqa: F401  (part of set-up by definition)

    size = SIZES["smoke" if args.smoke else "full"]
    out: dict = {"workload": args.workload, "seed": args.seed}
    if args.workload in CAMPAIGN_WORKLOADS:
        from repro.extension.campaign import ExtensionCampaign

        config = campaign_config(args.workload, args.seed, size, args.work_dir)
        if args.workload != "fabric-2w":
            campaign = ExtensionCampaign(config)
    out["setup_s"] = time.perf_counter() - STARTED

    recorder = None
    if args.trace:
        import tracing

        # Modules the workloads import lazily must be loaded before
        # their functions can be wrapped at every lookup site.
        import repro.analysis.streaming  # noqa: F401
        import repro.net.batch  # noqa: F401
        import repro.net.trace  # noqa: F401
        import repro.runtime.fabric  # noqa: F401
        import repro.runtime.pool  # noqa: F401
        import repro.starlink.timeline  # noqa: F401

        recorder = tracing.SpanRecorder()
        recorder.install()

    started = time.perf_counter()
    if args.workload == "rpi-packet":
        from repro.analysis.validation import validate
        from repro.experiments import run_experiment

        results = [
            run_experiment("table2", seed=args.seed, scale=size["table2_scale"]),
            run_experiment(
                "figure8",
                seed=args.seed,
                scale=size["figure8_scale"],
                engine="batch",
            ),
        ]
        out["campaign_s"] = out["artefact_s"] = time.perf_counter() - started
        out["digest"] = {r.experiment_id: metrics_digest(r.metrics) for r in results}
        out["table1"] = None
        out["shape_failures"] = [
            f"{r.experiment_id}: {o.description}"
            for r in results
            for o in validate(r)
            if not o.passed
        ]
        out["n_records"] = sum(len(r.rows) for r in results)
        out["stats"] = None
    else:
        if args.workload == "fabric-2w":
            from repro.runtime.fabric import run_fabric_campaign

            dataset, stats = run_fabric_campaign(
                config, 2, os.path.join(args.work_dir, "fabric"), fabric_store="fs"
            )
        else:
            dataset = campaign.run()
            stats = campaign.last_run_stats
        out["campaign_s"] = time.perf_counter() - started
        if args.workload == "fabric-2w":
            cells = streamed_table1(dataset)
        else:
            cells = exact_table1(dataset)
        out["artefact_s"] = time.perf_counter() - started
        out["table1"] = cells
        out["shape_failures"] = []
        out["n_records"] = dataset.n_page_loads + dataset.n_speedtests
        out["stats"] = run_stats(stats)
        out["stats"]["spill_bytes"] = (
            dir_bytes(config.storage_dir) if config.storage_dir else 0
        )
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + children) / 1024.0
    if recorder is not None:
        recorder.stop()
        out["trace"] = recorder.summary()
        recorder.save(args.trace)
    if args.workload in CAMPAIGN_WORKLOADS:
        out["digest"] = dataset_digest(dataset)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", help="trace the round, write its spans here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_round(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
