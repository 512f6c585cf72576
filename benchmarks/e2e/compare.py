"""Compare two sets of end-to-end benchmark result files.

Each side is one or more ``run.py --out`` files; the rounds of a side are
pooled.  For every workload and end-to-end metric the table shows each
side's median, quartiles and n, the change of the median, and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``unresolved``: the spread (quartile distance over median) of either
  side is wider than the bound, and not every new round beats every base
  round;
* ``worse beyond bound``: the new median is worse by more than the bound;
* ``improved``: the new median is better by more than the base spread;
* ``within bound``: anything else.

The exit status is 1 when a metric is worse beyond its bound or a larger
share of rounds failed.  ``--repeat-check`` compares two sets of runs of
the same code: it also fails when the medians differ by more than a
bound in either direction, or when a spread other than ``setup_s``'s is
wider than its bound.

    python3 benchmarks/e2e/compare.py --base a.json --new b.json
    python3 benchmarks/e2e/compare.py --repeat-check --base s1.json --new s2.json
"""

from __future__ import annotations

import argparse
import json
import sys

from run import load_spec, summarise


def pooled(paths: list[str]) -> dict:
    """``{workload: {"failed": n, "attempted": n, metric: [values]}}``."""
    sides: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, result in document["workloads"].items():
            side = sides.setdefault(workload, {"failed": 0, "attempted": 0})
            side["failed"] += result["failed"]
            side["attempted"] += result["attempted"]
            for name, metric in result["metrics"].items():
                side.setdefault(name, []).extend(metric["values"])
    return sides


def spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(base: list[float], new: list[float], metric: dict) -> tuple[float, str]:
    """The signed change of the median (positive = worse) and its verdict."""
    b, n = summarise(base), summarise(new)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (n["median"] - b["median"]) / b["median"]
    if max(spread(b), spread(n)) > metric["bound"]:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return change, "improved"
        return change, "unresolved"
    if change > metric["bound"]:
        return change, "worse beyond bound"
    if -change > spread(b):
        return change, "improved"
    return change, "within bound"


def fmt(values: list[float]) -> str:
    s = summarise(values)
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files")
    parser.add_argument("--new", nargs="+", required=True, help="result files")
    parser.add_argument(
        "--repeat-check",
        action="store_true",
        help="fail when two sets of the same code disagree beyond a bound",
    )
    args = parser.parse_args(argv)
    metrics = load_spec()["end_to_end"]
    base, new = pooled(args.base), pooled(args.new)
    problems = []
    for workload in base:
        if workload not in new:
            print(f"== {workload}: only in --base")
            continue
        b, n = base[workload], new[workload]
        print(
            f"== {workload}: failed {b['failed']}/{b['attempted']} base,"
            f" {n['failed']}/{n['attempted']} new"
        )
        if n["failed"] / n["attempted"] > b["failed"] / b["attempted"]:
            problems.append(f"{workload}: more failed rounds")
        for metric in metrics:
            name = metric["name"]
            if not b.get(name) or not n.get(name):
                problems.append(f"{workload} {name}: no completed rounds")
                continue
            change, word = verdict(b[name], n[name], metric)
            print(
                f"   {name:<14} [{metric['unit']}] base {fmt(b[name])}"
                f"  new {fmt(n[name])}  change {change:+.1%}  {word}"
            )
            if word == "worse beyond bound":
                problems.append(f"{workload} {name}: {word}")
            if args.repeat_check:
                sb, sn = summarise(b[name]), summarise(n[name])
                if abs(change) > metric["bound"]:
                    problems.append(f"{workload} {name}: medians differ {change:+.1%}")
                if name != "setup_s" and max(spread(sb), spread(sn)) > metric["bound"]:
                    problems.append(f"{workload} {name}: spread beyond bound")
    for problem in problems:
        print(f"!! {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
