"""Artefact digests: every registered experiment, bit for bit.

``tests/artefact_digests.json`` holds, for every id in
:data:`repro.experiments.EXPERIMENTS` at seeds 0 and 1 and one fixed
scale, the sha256 of the result's metrics and of its rows (the file's
``fixed_parameters`` block defines both).  Tier-1 recomputes the seed-0
digests, names each experiment that moved, and runs its shape checks; a
second test keeps the file's ids equal to the registry's.

A change that moves a result on purpose rewrites the file and lists
every old → new digest in CHANGES.md.  Run from the repository root::

    PYTHONPATH=src python -m tests.test_artefact_digests --write
    PYTHONPATH=src python -m tests.test_artefact_digests --seed 1

``--write`` recomputes every seed and refuses to write while any result
fails its shape checks; ``--seed N`` checks one seed against the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.validation import validate
from repro.experiments import EXPERIMENTS, run_experiment

DIGEST_FILE = Path(__file__).with_name("artefact_digests.json")
SEEDS = (0, 1)
SCALE = 0.35
#: Run-timing metrics of the campaign-backed experiments (wall time and
#: throughput), which no two runs share; every other metric is digested.
TIMING_METRICS = frozenset({"campaign_wall_s", "campaign_records_per_s"})


def digests(result) -> dict[str, str]:
    """The ``metrics`` and ``rows`` digests of one experiment result."""
    metrics = sorted(
        (key, value)
        for key, value in result.metrics.items()
        if key not in TIMING_METRICS
    )
    return {
        "metrics": hashlib.sha256(repr(metrics).encode()).hexdigest(),
        "rows": hashlib.sha256(repr(result.rows).encode()).hexdigest(),
    }


def shape_failures(result) -> list[str]:
    """The result's failed shape checks."""
    return [
        f"{outcome.description} ({outcome.detail})"
        for outcome in validate(result)
        if not outcome.passed
    ]


def fixed_parameters() -> dict:
    """The header of the digest file, for this interpreter."""
    return {
        "seeds": list(SEEDS),
        "scale": SCALE,
        "metrics": (
            "sha256 of repr(sorted(metrics.items())), without the "
            f"run-timing metrics {sorted(TIMING_METRICS)}"
        ),
        "rows": "sha256 of repr(rows)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "regenerate": "PYTHONPATH=src python -m tests.test_artefact_digests --write",
    }


def load() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _moved(experiment_id: str, seed: int, expected: dict, actual: dict) -> str:
    written = load()["fixed_parameters"]
    return (
        f"{experiment_id} moved at seed {seed}, scale {SCALE}: "
        f"{expected} -> {actual} (file written on Python {written['python']}, "
        f"numpy {written['numpy']}; this run: Python "
        f"{platform.python_version()}, numpy {np.__version__})"
    )


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_seed0_digest(experiment_id):
    expected = load()["digests"]["0"][experiment_id]
    result = run_experiment(experiment_id, seed=0, scale=SCALE)
    actual = digests(result)
    assert actual == expected, _moved(experiment_id, 0, expected, actual)
    failures = shape_failures(result)
    assert not failures, f"{experiment_id} seed 0: {failures}"


def test_digest_file_covers_every_experiment():
    recorded = load()["digests"]
    assert set(recorded) == {str(seed) for seed in SEEDS}
    for seed in SEEDS:
        assert set(recorded[str(seed)]) == set(EXPERIMENTS), seed


def _run(seed: int):
    for experiment_id in EXPERIMENTS:
        result = run_experiment(experiment_id, seed=seed, scale=SCALE)
        print(f"[{experiment_id} seed {seed}]", file=sys.stderr)
        yield experiment_id, result


def write() -> int:
    """Recompute every digest; write the file only if every shape
    check passes."""
    recorded, failed = {}, []
    for seed in SEEDS:
        recorded[str(seed)] = {}
        for experiment_id, result in _run(seed):
            recorded[str(seed)][experiment_id] = digests(result)
            failed += [
                f"{experiment_id} seed {seed}: {failure}"
                for failure in shape_failures(result)
            ]
    if failed:
        print("not written; failed shape checks:", *failed, sep="\n  ")
        return 1
    payload = {"fixed_parameters": fixed_parameters(), "digests": recorded}
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {DIGEST_FILE}")
    return 0


def check(seed: int) -> int:
    """Compare one seed's digests and shape checks with the file."""
    recorded = load()["digests"][str(seed)]
    problems = []
    for experiment_id, result in _run(seed):
        actual = digests(result)
        expected = recorded.get(experiment_id)
        if actual != expected:
            problems.append(_moved(experiment_id, seed, expected, actual))
        problems += [
            f"{experiment_id} seed {seed}: {failure}"
            for failure in shape_failures(result)
        ]
    for problem in problems:
        print(problem)
    if not problems:
        print(f"seed {seed}: all {len(EXPERIMENTS)} digests match")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the file")
    mode.add_argument("--seed", type=int, choices=SEEDS, help="check one seed")
    args = parser.parse_args(argv)
    return write() if args.write else check(args.seed)


if __name__ == "__main__":
    sys.exit(main())
