"""End-to-end benchmark: four workloads, machine-normalised timings.

Runs each workload in rounds, every round a fresh process
(``workload.py``), round-robin across workloads until ``--seconds`` is
used up or ``--rounds`` rounds are done.  Each round's output is checked
against the golden digests in ``golden.json``; a round that crashes,
mismatches or fails a paper shape check is counted as failed, never
fatal.  Wall times are normalised to a pure-Python reference loop timed
before, during and after every round (see README.md), and every end-to-end
metric of ``BENCHMARK.json`` is printed by name with its unit as median,
quartiles and n.  With ``--trace 1`` traced rounds alternate with plain
ones and the per-layer metrics are reported instead.  ``--seed n`` runs
input seed ``INPUT_SEEDS[n % 16]`` of ``workload.py``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload serial-canonical --seed 0 \\
        --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --rounds 5 --out result.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import span_names
from workload import CAMPAIGN_WORKLOADS, INPUT_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".e2e-work"
GOLDEN = HERE / "golden.json"

#: Normalised seconds are seconds on a machine where one slice of the
#: reference loop takes exactly this much CPU time.
REF_NOMINAL_S = 0.005
REF_LOOP_N = 100_000
#: Seconds between reference slices while a round runs (~2.5% of a core).
REF_INTERVAL_S = 0.2
ROUND_TIMEOUT_S = 120.0
#: Untraced rounds a ``--trace 0`` run makes even past its time budget,
#: so its median never rests on one or two rounds.
MIN_ROUNDS = 3

LAYERS = (
    "orbits",
    "starlink",
    "weather",
    "web",
    "extension",
    "runtime",
    "analysis",
    "net",
)

#: Per-layer numbers derived from the program's run statistics and the
#: trace as a whole: ``name -> (unit, better)``.
DERIVED = {
    "starlink.geometry_hit_ratio": ("fraction", "higher"),
    "starlink.timeline_hits": ("count", "higher"),
    "extension.spill_bytes": ("bytes", "lower"),
    "runtime.shard_skew": ("ratio", "lower"),
    "runtime.dispatch_overhead_share": ("fraction", "lower"),
    "runtime.attempts": ("count", "lower"),
    "runtime.failures": ("count", "lower"),
    "runtime.redispatched_shards": ("count", "lower"),
    "trace.overhead": ("fraction", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the benchmark reports: ``name -> (unit, better)``."""
    spec = {}
    for name in span_names():
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_share"] = ("fraction", "lower")
    for layer in LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.self_share"] = ("fraction", "lower")
    spec.update(DERIVED)
    return spec


def load_spec() -> dict:
    """``BENCHMARK.json``, checked against the metrics this code reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != per_layer_spec():
        raise SystemExit("BENCHMARK.json per_layer does not match run.py")
    names = {m["name"] for m in spec["end_to_end"]}
    if names != {"setup_s", "records_per_s", "artefact_s", "peak_rss_mb"}:
        raise SystemExit("BENCHMARK.json end_to_end does not match run.py")
    return spec


def reference_s(cpu: int) -> float:
    """CPU time of one slice of the fixed pure-Python reference loop on ``cpu``.

    Thread CPU time, not wall time: a slice that waits for a core the
    round's own workers hold is not slower, but one on a host that runs
    that core slower is.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        started = time.thread_time()
        total = 0
        for i in range(REF_LOOP_N):
            total += i % 7
        return time.thread_time() - started
    finally:
        os.sched_setaffinity(0, allowed)


def sample_reference(samples: list[float], stop: threading.Event) -> None:
    """Time a slice on each CPU in turn, every :data:`REF_INTERVAL_S`, until
    stopped; the round's own core is among them whichever it is."""
    for cpu in itertools.cycle(sorted(os.sched_getaffinity(0))):
        samples.append(reference_s(cpu))
        if stop.wait(REF_INTERVAL_S):
            return


def child_env() -> dict:
    """The round's environment: the checkout's ``src``, no ``REPRO_*``
    knobs (the workload fixes every setting), temp files in the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def execute(cmd: list[str]) -> tuple[str | None, str]:
    """Run one round's process to the end: ``(error or None, stdout)``."""
    process = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return f"timed out after {ROUND_TIMEOUT_S:.0f} s", ""
    finally:
        # Worker processes the round left behind die with its group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        lines = stderr.strip().splitlines() or [f"exit {process.returncode}"]
        return lines[-1], stdout
    return None, stdout


def run_round(workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    """Run one round in a fresh process; its JSON plus timing context."""
    work_dir = tempfile.mkdtemp(prefix="round-", dir=WORK / "tmp")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--work-dir", work_dir]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace", str(WORK / "spans" / f"{workload}-{seed}.npz")]
    samples: list[float] = []
    stop = threading.Event()
    sampler = threading.Thread(target=sample_reference, args=(samples, stop))
    sampler.start()
    started = time.perf_counter()
    try:
        error, stdout = execute(cmd)
    finally:
        elapsed = time.perf_counter() - started
        stop.set()
        sampler.join()
        shutil.rmtree(work_dir, ignore_errors=True)
    samples += [reference_s(cpu) for cpu in sorted(os.sched_getaffinity(0))]
    context = {
        "workload": workload,
        "traced": traced,
        "elapsed_s": elapsed,
        "ref_samples_s": samples,
        "scale": REF_NOMINAL_S / statistics.mean(samples),
    }
    if error is None:
        try:
            return {**json.loads(stdout.splitlines()[-1]), **context, "failures": []}
        except (IndexError, ValueError):
            error = "the round printed no result line"
    return {**context, "failures": [error]}


def table1_counts(out: dict) -> list | None:
    cells = out.get("table1")
    return None if cells is None else [cell[:4] for cell in cells]


def golden_entry(out: dict) -> dict:
    """What a round must reproduce: its digest(s) and Table 1 counts."""
    return {"digest": out["digest"], "table1": table1_counts(out)}


def family(workload: str) -> str:
    """The campaign workloads share one reference: the serial oracle's."""
    return "campaign" if workload in CAMPAIGN_WORKLOADS else workload


def golden_key(size: str, workload: str, seed: int) -> str:
    return f"{size}/{family(workload)}/{seed}"


def write_golden(path: str, goldens: dict) -> None:
    """One entry per line, sorted, so a refreshed seed is a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(goldens[k])}" for k in sorted(goldens)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


def check_rounds(rounds: list[dict], expected_for) -> None:
    """Append a failure reason to every round whose output is wrong.

    ``expected_for(workload)`` is the golden entry of the workload and
    seed, or None.  Without one the reference is the family's first
    completed round of this run, which round-robin order makes
    serial-canonical's when it ran.
    """
    completed = [r for r in rounds if not r["failures"]]
    for out in rounds:
        for reason in out.get("shape_failures", []):
            out["failures"].append(f"shape check failed: {reason}")
    for out in completed:
        expected = expected_for(out["workload"])
        if expected is None:
            first = next(
                r for r in completed if family(r["workload"]) == family(out["workload"])
            )
            expected = golden_entry(first)
        if out["digest"] != expected["digest"]:
            out["failures"].append("output digest differs from the reference")
        if table1_counts(out) != expected["table1"]:
            out["failures"].append("Table 1 counts differ from the reference")


def summarise(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and n."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": []}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def end_to_end(out: dict) -> dict[str, float]:
    """The end-to-end metrics of one completed round, normalised."""
    scale = out["scale"]
    return {
        "setup_s": out["setup_s"] * scale,
        "records_per_s": out["n_records"] / (out["campaign_s"] * scale),
        "artefact_s": out["artefact_s"] * scale,
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(out: dict, overhead: float) -> dict[str, float]:
    """The per-layer metrics of one completed traced round."""
    trace = out["trace"]
    wall = trace["wall_s"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_share"] = 0.0
    for name, fn in trace["functions"].items():
        layer = name.split(".", 1)[0]
        metrics[f"{name}.calls"] = fn["calls"]
        metrics[f"{name}.self_share"] = fn["self_s"] / wall
        metrics[f"{layer}.calls"] += fn["calls"]
        metrics[f"{layer}.self_share"] += fn["self_s"] / wall
    stats = out["stats"] or {}
    hits = stats.get("geometry_hits", 0) + stats.get("timeline_hits", 0)
    lookups = hits + stats.get("geometry_scans", 0)
    shard_walls = stats.get("shard_wall_s", [])
    functions = trace["functions"]
    dispatch = max(
        functions["runtime.supervise_shards"]["total_s"],
        functions["runtime.FabricCoordinator.run"]["total_s"],
    )
    metrics.update(
        {
            "starlink.geometry_hit_ratio": hits / lookups if lookups else 0.0,
            "starlink.timeline_hits": stats.get("timeline_hits", 0),
            "extension.spill_bytes": stats.get("spill_bytes", 0),
            "runtime.shard_skew": (
                max(shard_walls) / statistics.median(shard_walls)
                if shard_walls
                else 0.0
            ),
            "runtime.dispatch_overhead_share": (
                (dispatch - max(shard_walls)) / wall if dispatch else 0.0
            ),
            "runtime.attempts": stats.get("attempts", 0),
            "runtime.failures": stats.get("failures", 0),
            "runtime.redispatched_shards": stats.get("redispatched_shards", 0),
            "trace.overhead": overhead,
        }
    )
    return metrics


def run_rounds(args, workloads: list[str]) -> list[dict]:
    """Round-robin rounds until the time budget or round count is used.

    Without ``--rounds`` a round starts only if the median of its kind's
    earlier rounds still fits in ``--seconds``, after a minimum of
    :data:`MIN_ROUNDS` (``--trace 0``) or one round (``--trace 1``) of
    each kind.
    """
    kinds = (False, True) if args.trace else (False,)
    least = 1 if args.trace else MIN_ROUNDS
    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        ran = False
        for workload in workloads:
            for traced in kinds:
                done = [
                    r["elapsed_s"]
                    for r in rounds
                    if r["workload"] == workload and r["traced"] == traced
                ]
                if args.rounds is not None:
                    if len(done) >= args.rounds:
                        continue
                elif len(done) >= least:
                    elapsed = time.perf_counter() - started
                    if elapsed + statistics.median(done) > args.seconds:
                        continue
                rounds.append(run_round(workload, args.input_seed, traced, args.smoke))
                ran = True
        if not ran:
            return rounds


def report_workload(workload: str, rounds: list[dict], spec: dict, trace: bool) -> dict:
    """Summaries of one workload's rounds; prints the human-readable table."""
    mine = [r for r in rounds if r["workload"] == workload]
    good = [r for r in mine if not r["failures"]]
    plain = [end_to_end(r) for r in good if not r["traced"]]
    metrics = {
        m["name"]: {"unit": m["unit"], **summarise([p[m["name"]] for p in plain])}
        for m in spec["end_to_end"]
    }
    raw = {
        "artefact_s": summarise([r["artefact_s"] for r in good if not r["traced"]]),
        "setup_s": summarise([r["setup_s"] for r in good if not r["traced"]]),
    }
    failed = sum(1 for r in mine if r["failures"])
    print(f"== {workload}: {len(mine)} rounds, {failed} failed")
    for reason in sorted({f for r in mine for f in r["failures"]}):
        print(f"   failure: {reason}")
    for name, m in metrics.items():
        if m["n"]:
            print(
                f"   {name:<14} [{m['unit']}] median {m['median']:.6g}"
                f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}"
            )
    print(f"   failed_ratio   [fraction] {failed / len(mine):.6g}")
    result = {
        "attempted": len(mine),
        "failed": failed,
        "failed_ratio": failed / len(mine),
        "metrics": metrics,
        "raw": raw,
        "records_per_s": metrics["records_per_s"]["median"],
        "rounds": mine,
    }
    traced = [r for r in good if r["traced"]]
    if trace and traced and plain:
        overhead = (
            statistics.median(end_to_end(r)["artefact_s"] for r in traced)
            / metrics["artefact_s"]["median"]
            - 1.0
        )
        layer_rounds = [per_layer(r, overhead) for r in traced]
        layer_metrics = {
            name: {"unit": unit, **summarise([lr[name] for lr in layer_rounds])}
            for name, (unit, _) in per_layer_spec().items()
        }
        result["per_layer"] = layer_metrics
        result["layers"] = {
            layer: layer_metrics[f"{layer}.self_share"]["median"] for layer in LAYERS
        }
        print_trace(traced[0], layer_metrics)
    return result


def print_trace(out: dict, layer_metrics: dict) -> None:
    trace = out["trace"]
    print(
        f"   traced wall {trace['wall_s']:.3f} s raw, {trace['spans']} spans,"
        f" overhead {layer_metrics['trace.overhead']['median']:+.1%}"
    )
    print(f"   {'function':<48} {'calls':>9} {'self_s':>9} {'share':>7} {'p50_s':>9}")
    for name, fn in trace["functions"].items():
        if fn["calls"]:
            print(
                f"   {name:<48} {fn['calls']:>9} {fn['self_s']:>9.4f}"
                f" {fn['self_s'] / trace['wall_s']:>7.1%} {fn['p50_s']:>9.2e}"
            )
    for name in DERIVED:
        print(f"   {name:<48} {layer_metrics[name]['median']:.6g}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        default="all",
        help="one workload, or all four round-robin (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="time budget (default: BENCHMARK.json)"
    )
    parser.add_argument("--rounds", type=int, help="rounds per workload instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result file here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--golden", default=str(GOLDEN), help="golden digests")
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's outputs as the golden entries of its input seed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    args.input_seed = INPUT_SEEDS[args.seed % len(INPUT_SEEDS)]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    size = "smoke" if args.smoke else "full"
    with open(args.golden, encoding="utf-8") as handle:
        goldens = json.load(handle)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    try:
        rounds = run_rounds(args, workloads)
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    if args.record_golden:
        for workload in workloads:
            goldens.pop(golden_key(size, workload, args.input_seed), None)
    check_rounds(rounds, lambda w: goldens.get(golden_key(size, w, args.input_seed)))
    if args.record_golden:
        for out in rounds:
            if not out["failures"]:
                key = golden_key(size, out["workload"], args.input_seed)
                goldens.setdefault(key, golden_entry(out))
        write_golden(args.golden, goldens)

    results = {w: report_workload(w, rounds, spec, bool(args.trace)) for w in workloads}
    if args.out:
        document = {
            "schema": 1,
            "seed": args.seed,
            "input_seed": args.input_seed,
            "size": size,
            "trace": args.trace,
            "ref_nominal_s": REF_NOMINAL_S,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")

    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, m in result.get(key, {}).items():
            metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    missing = args.trace and any("per_layer" not in r for r in results.values())
    line = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
