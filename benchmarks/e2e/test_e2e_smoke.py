"""Smoke test of the end-to-end benchmark at ``--smoke`` size (~30 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("serial-canonical", "sharded-spill", "fabric-2w", "rpi-packet")


def bench(*args: str) -> str:
    """Run the benchmark at smoke size, one round per kind; its stdout."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--rounds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    stdout = bench("--trace", "1", "--out", str(out))
    return stdout, json.loads(out.read_text(encoding="utf-8"))


def test_every_metric_is_printed_with_its_unit(traced, spec):
    stdout, result = traced
    for metric in spec["end_to_end"]:
        pattern = rf"^ +{metric['name']} +\[{re.escape(metric['unit'])}\] median "
        assert len(re.findall(pattern, stdout, re.M)) == len(WORKLOADS)
    line = json.loads(stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in spec["per_layer"]:
            printed = line["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
        assert result["workloads"][workload]["failed_ratio"] == 0
        assert set(result["workloads"][workload]["layers"]) >= {"starlink", "net"}


def test_traced_self_times_fit_in_the_round_wall(traced):
    _, result = traced
    for workload in WORKLOADS:
        (round_,) = [r for r in result["workloads"][workload]["rounds"] if r["traced"]]
        trace = round_["trace"]
        assert trace["spans"] > 0
        self_s = sum(fn["self_s"] for fn in trace["functions"].values())
        assert self_s <= trace["wall_s"] <= round_["elapsed_s"]


def test_a_corrupted_golden_digest_counts_as_failed(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden["smoke/campaign/0"]["digest"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden), encoding="utf-8")
    out = tmp_path / "result.json"
    stdout = bench(
        "--workload", "serial-canonical", "--golden", str(corrupted), "--out", str(out)
    )
    line = json.loads(stdout.splitlines()[-1])
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 1
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["workloads"]["serial-canonical"]["failed_ratio"] > 0
