"""CLI for the experiment harness.

Usage::

    python -m repro.experiments table1 [--seed N] [--scale F]
    python -m repro.experiments all --scale 0.3
    python -m repro.experiments --list [--json]
    python -m repro.experiments serve --port 8000
    python -m repro.experiments coordinate --fabric-dir DIR [--fabric-workers N]
    python -m repro.experiments worker --fabric-dir DIR
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import knobs
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; the knob flags come from :mod:`repro.knobs`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (e.g. table1, figure6a) or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    knobs.add_flags(parser)
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --list: print the full registry metadata (id, doc "
        "summary, knobs, artifact kind) as JSON instead of plain ids",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8000,
        help="listen port for 'serve' (default 8000; 0 = ephemeral)",
    )
    parser.add_argument(
        "--service-dir",
        metavar="DIR",
        help="working directory for 'serve' (checkpoints and spilled "
        "campaign storage; default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--fabric-dir",
        metavar="DIR",
        help="shared coordination directory for 'coordinate'/'worker' "
        "(every fabric participant must see the same path)",
    )
    parser.add_argument(
        "--fabric-config",
        metavar="FILE",
        help="campaign config JSON (the codec format) for 'coordinate'; "
        "default: a stock CampaignConfig with --seed",
    )
    parser.add_argument(
        "--fabric-workers",
        type=int,
        default=0,
        metavar="N",
        help="local worker processes 'coordinate' spawns alongside the "
        "coordinator (default 0: workers join via 'repro worker')",
    )
    parser.add_argument(
        "--fabric-shards",
        type=int,
        metavar="N",
        help="shard count for 'coordinate' (default: the config's "
        "n_workers, capped by the population size)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        metavar="SECONDS",
        help="shard lease TTL: a lease whose heartbeat is older than "
        "this is revoked and re-dispatched (default 10s)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        metavar="SECONDS",
        help="worker lease heartbeat period (default: TTL / 3)",
    )
    parser.add_argument(
        "--worker-id",
        metavar="ID",
        help="stable identity for 'worker' (default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--dump-series",
        metavar="DIR",
        help="write any figure series (CDFs, time series) as CSV files",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="evaluate the paper's shape checks and exit non-zero on failure",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_runtime_env(args)
    except ConfigurationError as exc:
        parser.error(str(exc))

    if args.list or args.experiment is None:
        if args.json:
            import json

            from repro.experiments import describe_all

            print(json.dumps({"experiments": describe_all()}, indent=2))
        else:
            for experiment_id in EXPERIMENTS:
                print(experiment_id)
        return 0

    if args.experiment == "serve":
        from repro.service import serve

        return serve(
            host=args.host, port=args.port, service_dir=args.service_dir
        )

    if args.experiment == "coordinate":
        return run_coordinate(args)

    if args.experiment == "worker":
        return run_fabric_worker_cli(args)

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    any_failed = False
    for experiment_id in ids:
        started = time.time()
        result = run_experiment(
            experiment_id, seed=args.seed, scale=args.scale, n_workers=args.n_workers
        )
        print(result.render())
        if args.validate:
            from repro.analysis.validation import validate

            for outcome in validate(result):
                marker = "PASS" if outcome.passed else "FAIL"
                print(f"  [{marker}] {outcome.description}")
                if not outcome.passed:
                    any_failed = True
        if args.dump_series:
            written = dump_series(result, args.dump_series)
            for path in written:
                print(f"series -> {path}")
        print(f"[{experiment_id} in {time.time() - started:.1f}s]")
        print()
    return 1 if any_failed else 0


def _fabric_campaign_config(args):
    """The campaign config 'coordinate' publishes in its plan."""
    import json

    from repro.extension.campaign import CampaignConfig

    if getattr(args, "fabric_config", None):
        with open(args.fabric_config, "r", encoding="utf-8") as handle:
            return CampaignConfig.from_json_dict(json.load(handle))
    return CampaignConfig(seed=args.seed)


def run_coordinate(args) -> int:
    """The 'coordinate' verb: plan, watch, recover, merge one campaign."""
    from repro.errors import ReproError
    from repro.runtime.fabric import run_fabric_campaign
    from repro.runtime.lease import DEFAULT_LEASE_TTL_S

    if not args.fabric_dir:
        print("coordinate needs --fabric-dir", file=sys.stderr)
        return 2
    config = _fabric_campaign_config(args)

    def on_event(event) -> None:
        detail = " ".join(
            f"{key}={event[key]}"
            for key in ("shard_id", "worker_id", "attempt", "reason", "detail")
            if event.get(key) is not None
        )
        print(f"[fabric] {event['type']} {detail}".rstrip())

    try:
        dataset, stats = run_fabric_campaign(
            config,
            n_workers=args.fabric_workers,
            fabric_dir=args.fabric_dir,
            n_shards=args.fabric_shards,
            lease_ttl_s=(
                args.lease_ttl
                if args.lease_ttl is not None
                else DEFAULT_LEASE_TTL_S
            ),
            heartbeat_interval_s=args.heartbeat_interval,
            on_event=on_event,
        )
    except ReproError as exc:
        print(f"coordinate failed: {exc}", file=sys.stderr)
        return 1
    print(stats.summary())
    print(
        f"dataset: {dataset.n_page_loads} page loads, "
        f"{dataset.n_speedtests} speedtests"
    )
    return 0


def run_fabric_worker_cli(args) -> int:
    """The 'worker' verb: join a fabric directory and work until done."""
    from repro.errors import ReproError
    from repro.runtime.fabric import run_fabric_worker

    if not args.fabric_dir:
        print("worker needs --fabric-dir", file=sys.stderr)
        return 2
    try:
        summary = run_fabric_worker(
            args.fabric_dir,
            worker_id=args.worker_id,
            heartbeat_interval_s=args.heartbeat_interval,
        )
    except ReproError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"[worker {summary['worker_id']}] "
        f"completed={summary['shards_completed']} "
        f"discarded={summary['manifests_discarded']}"
    )
    return 0


def apply_runtime_env(args) -> None:
    """Hand the parsed knob flags to the runtime.

    ``--workers`` reaches the runners as their ``n_workers`` argument,
    so it is resolved in place (unset: the knob's default).  The runners
    build their own ``CampaignConfig`` behind the uniform ``run(seed,
    scale, n_workers)`` signature, so every other flag that was given
    is exported to its knob's ``REPRO_*`` variable, where the knob's
    resolver finds it (:func:`repro.knobs.export`).  Every value is
    checked before any variable is written.
    """
    n_workers = knobs.resolve("n_workers", getattr(args, "n_workers", None))
    knobs.export({name: getattr(args, name, None) for name in knobs.KNOBS})
    args.n_workers = n_workers


def dump_series(result, directory: str) -> list[str]:
    """Write a result's plottable series as CSV files; returns paths."""
    import csv
    import os
    import re

    series = getattr(result, "series", None)
    samples = getattr(result, "samples", None)
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    if series:
        for name, (xs, ys) in series.items():
            slug = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
            path = os.path.join(directory, f"{result.experiment_id}_{slug}.csv")
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["x", "y"])
                writer.writerows(zip(xs, ys))
            written.append(path)
    if samples:
        path = os.path.join(directory, f"{result.experiment_id}_samples.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerows(samples)
        written.append(path)
    return written


if __name__ == "__main__":
    sys.exit(main())
