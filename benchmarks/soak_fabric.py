"""Bounded-RSS fabric soak: coordinator-less workers, churn, identity.

The scheduled soak behind ``.github/workflows/soak.yml`` — the thing
that keeps "bit-identical to serial" true under sustained load rather
than just at test scale.  One coordinator (this process) plus N
external worker processes that know nothing but the fabric directory;
a churn loop waits until a live worker holds a shard lease, SIGKILLs
it mid-shard and replaces it with a fresh one, exercising lease
expiry, re-dispatch and work stealing.  Four things are asserted:

* **Identity** — the merged dataset's fingerprint equals a serial
  run's, no matter how many workers died (skippable with
  ``--skip-serial`` for overnight scales where the serial floor alone
  would dominate the wall clock).
* **Bounded RSS** — every worker that exits cleanly reports its
  ``ru_maxrss``; each must stay under ``--rss-limit-mb``.  A worker
  that streams shards through the spill path must not accumulate
  memory with campaign size.
* **Liveness** — the campaign completes despite the churn (the
  coordinator's re-dispatch cap turns a wedged fabric into a loud
  failure).
* **Bite** — the churn killed at least one worker before the campaign
  finished, and the coordinator re-dispatched at least one shard.

Scales via ``--preset``: ``ci`` finishes in about a minute on two
cores; ``overnight`` multiplies the simulated duration for a
~1M-record soak.  A JSON merge report (config, churn schedule, worker
RSS, run-log counters, identity verdict) is written to ``--out``;
exit status is non-zero on any violated bound.

Usage::

    python benchmarks/soak_fabric.py --preset ci --mp-start spawn \
        --out soak_report.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import tempfile
import time

#: How often the churn loop looks for a worker that holds a lease.
CHURN_POLL_S = 0.02

#: Simulated-campaign shapes.  ``duration_days`` is the scale axis:
#: records grow linearly with it (the user panel is the paper's fixed
#: 28-browser population).
PRESETS = {
    "ci": dict(duration_days=4.0, request_fraction=0.3, n_shards=8),
    "overnight": dict(
        duration_days=2000.0, request_fraction=1.0, n_shards=64
    ),
}


def _peak_rss_kib() -> int:
    # Linux reports ru_maxrss in KiB (the soak workflow runs Linux).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dataset_fingerprint(dataset) -> str:
    digest = hashlib.sha256()
    for record in dataset.page_loads:
        digest.update(repr(record).encode("utf-8"))
    for record in dataset.speedtests:
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


def _soak_worker_entry(
    fabric_dir: str,
    worker_id: str,
    heartbeat_interval_s: float,
    report_path: str,
) -> None:
    """Worker-process entry (top-level: picklable under spawn).

    Runs the plain fabric worker loop, then writes its peak RSS and
    completion counters next to the fabric directory.  A SIGKILLed
    worker never reaches the report — by design: the soak measures the
    memory of workers that lived, and the *recovery* from the ones
    that did not.
    """
    from repro.runtime.fabric import run_fabric_worker

    summary = run_fabric_worker(
        fabric_dir,
        worker_id=worker_id,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    summary["ru_maxrss_kib"] = _peak_rss_kib()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="ci")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--mp-start",
        choices=("fork", "spawn"),
        default="fork",
        help="start method for the worker processes",
    )
    parser.add_argument(
        "--workers", type=int, default=3, help="concurrent worker count"
    )
    parser.add_argument(
        "--churn-kills",
        type=int,
        default=2,
        help="lease-holding workers SIGKILLed (and replaced) across the run",
    )
    parser.add_argument(
        "--rss-limit-mb",
        type=float,
        default=1024.0,
        help="per-worker peak-RSS ceiling (ru_maxrss)",
    )
    parser.add_argument("--lease-ttl", type=float, default=3.0)
    parser.add_argument("--heartbeat-interval", type=float, default=0.2)
    parser.add_argument(
        "--fabric-dir",
        default=None,
        help="coordination directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--skip-serial",
        action="store_true",
        help="skip the serial identity check (overnight scale)",
    )
    parser.add_argument(
        "--out", default=None, help="merge-report JSON path"
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import multiprocessing

    from repro.extension.campaign import CampaignConfig, ExtensionCampaign
    from repro.runtime.fabric import FabricCoordinator, terminal_marker
    from repro.runtime.shard import plan_campaign

    preset = PRESETS[args.preset]
    config = CampaignConfig(
        seed=args.seed,
        duration_s=preset["duration_days"] * 86_400.0,
        request_fraction=preset["request_fraction"],
        cities=("london", "seattle", "sydney"),
        mp_start_method=args.mp_start,
    )
    fabric_dir = args.fabric_dir or tempfile.mkdtemp(prefix="repro-soak-")
    report_dir = os.path.join(fabric_dir, "soak-reports")
    os.makedirs(report_dir, exist_ok=True)

    serial_fingerprint = None
    if not args.skip_serial:
        print("[soak] serial baseline ...", flush=True)
        serial_fingerprint = _dataset_fingerprint(
            ExtensionCampaign(config).run()
        )
        print(f"[soak] serial fingerprint {serial_fingerprint[:16]}")

    last_echo = [0.0]

    def on_event(event):
        if event["type"] in ("shard_completed", "shard_redispatched"):
            now = time.time()
            if now - last_echo[0] > 0.5:
                last_echo[0] = now
                print(f"[soak] {event['type']} shard={event['shard_id']}")

    coordinator = FabricCoordinator(
        config,
        fabric_dir,
        shards=plan_campaign(config, preset["n_shards"])[1],
        lease_ttl_s=args.lease_ttl,
        straggler_floor_s=max(10.0, 4 * args.lease_ttl),
        on_event=on_event,
    )
    context = multiprocessing.get_context(args.mp_start)
    next_rank = 0
    #: worker id -> process, every worker ever started.
    workers: dict = {}

    def spawn_worker() -> None:
        nonlocal next_rank
        worker_id = f"soak-w{next_rank}"
        next_rank += 1
        process = context.Process(
            target=_soak_worker_entry,
            args=(
                fabric_dir,
                worker_id,
                args.heartbeat_interval,
                os.path.join(report_dir, f"{worker_id}.json"),
            ),
            daemon=True,
        )
        process.start()
        workers[worker_id] = process
        print(f"[soak] worker {worker_id} started (pid {process.pid})")

    for _ in range(args.workers):
        spawn_worker()

    import threading

    churn_log: list[dict] = []
    churn_stop = threading.Event()

    def churn_loop():
        """Churn: SIGKILL a live worker that holds a lease, replace it,
        repeat.  A kill of an idle worker would cost the fabric nothing,
        so the loop waits for a lease holder however fast shards run."""
        for _ in range(args.churn_kills):
            victim = None
            while victim is None:
                if churn_stop.wait(CHURN_POLL_S):
                    return
                for lease in coordinator.leases.read_all():
                    process = workers.get(lease.worker_id)
                    if process is not None and process.is_alive():
                        victim = (lease, process)
                        break
            lease, process = victim
            os.kill(process.pid, signal.SIGKILL)
            churn_log.append(
                {
                    "worker_id": lease.worker_id,
                    "pid": process.pid,
                    "shard_id": lease.shard_id,
                    "t": time.time(),
                }
            )
            print(
                f"[soak] churn: SIGKILL {lease.worker_id} (pid "
                f"{process.pid}) holding shard {lease.shard_id}, replacing"
            )
            spawn_worker()

    churn_thread = threading.Thread(target=churn_loop, daemon=True)
    churn_thread.start()
    started = time.time()
    try:
        dataset, stats = coordinator.run()
    finally:
        churn_stop.set()
        churn_thread.join(timeout=10.0)
    wall_s = time.time() - started
    assert terminal_marker(coordinator.store) == "DONE"

    for process in workers.values():
        process.join(timeout=30.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    worker_reports = []
    for name in sorted(os.listdir(report_dir)):
        with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
            worker_reports.append(json.load(fh))

    rss_limit_kib = args.rss_limit_mb * 1024.0
    rss_violations = [
        report
        for report in worker_reports
        if report["ru_maxrss_kib"] > rss_limit_kib
    ]
    fingerprint = _dataset_fingerprint(dataset)
    identity_ok = (
        serial_fingerprint is None or fingerprint == serial_fingerprint
    )
    completed_by_workers = sum(
        report["shards_completed"] for report in worker_reports
    )

    report = {
        "preset": args.preset,
        "mp_start": args.mp_start,
        "n_shards": stats.n_shards,
        "n_records": dataset.n_page_loads + dataset.n_speedtests,
        "wall_s": wall_s,
        "workers_started": next_rank,
        "workers_killed": len(churn_log),
        "churn": churn_log,
        "worker_reports": worker_reports,
        "rss_limit_mb": args.rss_limit_mb,
        "rss_violations": rss_violations,
        "redispatched_shards": stats.redispatched_shards,
        "stolen_shards": stats.stolen_shards,
        "discarded_manifests": stats.discarded_manifests,
        "fingerprint": fingerprint,
        "serial_fingerprint": serial_fingerprint,
        "identity_ok": identity_ok,
        "log_events": len(stats.events),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"[soak] report written to {args.out}")

    max_rss_kib = max(
        (r["ru_maxrss_kib"] for r in worker_reports), default=0
    )
    print(
        f"[soak] {stats.summary()}\n"
        f"[soak] {len(worker_reports)} workers reported, "
        f"max rss {max_rss_kib / 1024.0:.0f} MiB "
        f"(limit {args.rss_limit_mb:.0f} MiB), "
        f"{len(churn_log)} killed, "
        f"{completed_by_workers} shards completed by workers"
    )

    failed = False
    if rss_violations:
        print(
            f"[soak] FAIL: {len(rss_violations)} worker(s) over the "
            f"{args.rss_limit_mb:.0f} MiB RSS ceiling: "
            + ", ".join(
                f"{r['worker_id']}={r['ru_maxrss_kib'] / 1024.0:.0f}MiB"
                for r in rss_violations
            ),
            file=sys.stderr,
        )
        failed = True
    if not identity_ok:
        print(
            f"[soak] FAIL: merged fingerprint {fingerprint[:16]} != "
            f"serial {serial_fingerprint[:16]}",
            file=sys.stderr,
        )
        failed = True
    if args.churn_kills and not churn_log:
        print(
            "[soak] FAIL: the campaign finished before the churn killed "
            "a worker — no worker was seen holding a lease",
            file=sys.stderr,
        )
        failed = True
    elif args.churn_kills and not stats.redispatched_shards:
        print(
            "[soak] FAIL: churn killed workers but nothing was "
            "re-dispatched — the chaos did not bite",
            file=sys.stderr,
        )
        failed = True
    if not failed:
        print("[soak] PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
