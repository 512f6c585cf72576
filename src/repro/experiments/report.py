"""EXPERIMENTS.md generator: paper-vs-measured for every artefact.

Run::

    python -m repro.experiments.report [--out EXPERIMENTS.md] [--seed 0]
                                       [--workers N] [knob flags]

Executes every registered experiment at its benchmark scale and writes
a markdown report pairing the measured metrics with the paper's
reference values.  ``--workers`` shards the campaign-backed experiments
over worker processes (datasets are bit-identical to ``--workers 1``;
only the wall-clock changes).  The knob flags are the experiments
CLI's (``--storage``, ``--engine``, ...; see :mod:`repro.knobs`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import knobs
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_experiment

#: Scale used per experiment (matched to the benchmark suite).
REPORT_SCALES: dict[str, float] = {
    "table1": 0.3,
    "figure3": 0.5,
    "figure8": 0.4,
    "extension_transport": 0.4,
}

_HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.experiments.report`` (seed {seed}).
Every table and figure of the paper's evaluation, regenerated on the
synthetic substrate described in DESIGN.md.  Absolute values are
calibrated; *shape* findings (orderings, ratios, crossovers,
distribution anchors) are the reproduction targets and are asserted by
``pytest benchmarks/ --benchmark-only``.

Pass ``--workers N`` to shard the campaign-backed experiments over N
worker processes: the datasets (and this report's numbers) are
bit-identical to ``--workers 1`` — only the wall-clock changes.
Sharded runs are supervised (DESIGN.md §8): crashed/hung workers are
retried with backoff (``--max-retries``, ``--shard-timeout``), and with
``--checkpoint-dir DIR`` completed shards spill to disk so an
interrupted run restarted with ``--resume`` re-runs only the missing
shards — recovery is bit-identical by the determinism contract.

Pass ``--storage spill --storage-dir DIR`` to stream the dataset to
checksummed on-disk segments instead of holding it in memory
(DESIGN.md §9): peak RSS stays bounded by one segment regardless of
campaign length, and the resulting dataset — and every number in this
report — is bit-identical to the default, which keeps the same
typed numpy columns in RAM.

Packet-level experiments build their paths through
``repro.starlink.access.Scenario`` (tunables in ``AccessConfig``).
Each bent pipe keeps one link state per 15 s scheduler epoch, batch-filled
for the simulated window; the fill is bit-identical to scanning each
epoch on first use, so it changes wall-clock only.

Pass ``--engine batch`` (or set ``REPRO_ENGINE=batch``) to run the
packet-level paths on the vectorised batch engine instead of the
heap-driven event oracle: bit-identical per link, statistically
pinned end-to-end, ≥10x faster (DESIGN.md §10).

Tables 1 and 3 and Figures 3 and 4 are computed exactly on every
backend, each in one grouped pass over the dataset's column chunks
(DESIGN.md §11): the pass holds one storage segment of the columns it
needs at a time, plus each group's values, and builds no record
object.  Over 1M spill records Table 1 takes about 2 s and grows peak
RSS by about 21 MiB (2-core x86_64 container).

Each of these knob flags has a ``REPRO_*`` variable as well; the flag
wins over the variable, which wins over the default (DESIGN.md §5).

"""


def _render_markdown(experiment_id: str, result, elapsed_s: float) -> str:
    from repro.analysis.validation import validate

    lines = [f"## {experiment_id}: {result.title}", ""]
    outcomes = validate(result)
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"**Shape checks: {passed}/{len(outcomes)} pass**")
    for outcome in outcomes:
        marker = "x" if outcome.passed else " "
        suffix = "" if outcome.passed else f"  *(failed: {outcome.detail})*"
        lines.append(f"- [{marker}] {outcome.description}{suffix}")
    lines.append("")
    if result.rows:
        lines.append("| " + " | ".join(result.headers) + " |")
        lines.append("|" + "---|" * len(result.headers))
        for row in result.rows[:40]:
            cells = [
                f"{cell:.1f}" if isinstance(cell, float) else str(cell) for cell in row
            ]
            lines.append("| " + " | ".join(cells) + " |")
        if len(result.rows) > 40:
            lines.append(f"| ... ({len(result.rows) - 40} more rows) |")
        lines.append("")
    if result.metrics:
        lines.append("**Measured:**")
        lines.append("")
        for key, value in result.metrics.items():
            rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
            lines.append(f"- `{key}` = {rendered}")
        lines.append("")
    if result.paper_reference:
        lines.append("**Paper:**")
        lines.append("")
        for key, value in result.paper_reference.items():
            lines.append(f"- `{key}` = {value}")
        lines.append("")
    if result.notes:
        lines.append(f"*Notes: {result.notes}*")
        lines.append("")
    lines.append(f"*(ran in {elapsed_s:.1f}s)*")
    lines.append("")
    return "\n".join(lines)


def generate(
    path: str = "EXPERIMENTS.md", seed: int = 0, n_workers: int = 1
) -> None:
    """Run all experiments and write the markdown report to ``path``.

    ``n_workers`` is forwarded to every experiment run; campaign-backed
    experiments shard their user population across that many worker
    processes and still produce the exact ``n_workers=1`` dataset.
    """
    chunks = [_HEADER.format(seed=seed)]
    for experiment_id in EXPERIMENTS:
        scale = REPORT_SCALES.get(experiment_id, 1.0)
        started = time.time()
        result = run_experiment(
            experiment_id, seed=seed, scale=scale, n_workers=n_workers
        )
        elapsed = time.time() - started
        chunks.append(_render_markdown(experiment_id, result, elapsed))
        print(f"[{experiment_id}] done in {elapsed:.1f}s", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(chunks))


def build_parser() -> argparse.ArgumentParser:
    """The report's parser: the experiments CLI's knob flags."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--seed", type=int, default=0)
    knobs.add_flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.__main__ import apply_runtime_env

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_runtime_env(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    generate(args.out, args.seed, n_workers=args.n_workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
