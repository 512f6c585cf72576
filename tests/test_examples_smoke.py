"""Smoke tests: the runnable examples must stay runnable.

Each fast example is executed in a subprocess exactly as a user would
run it; slow ones (campaign-scale studies, full ASCII figures) are not
run here; the experiments behind them are checked by
``test_experiments.py::test_findings_hold`` and the report instead.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "isl_routing.py",
    "measurement_node_day.py",
    "handover_loss_timeline.py",
    "congestion_control_shootout.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"


def test_quickstart_reports_table1_shape():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "Table-1-style summary" in completed.stdout
    assert "Dishy API snapshot" in completed.stdout


def test_all_examples_exist():
    expected = {
        "quickstart.py",
        "weather_impact.py",
        "congestion_control_shootout.py",
        "handover_loss_timeline.py",
        "measurement_node_day.py",
        "isl_routing.py",
        "as_migration_study.py",
        "paper_figures_ascii.py",
    }
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present
