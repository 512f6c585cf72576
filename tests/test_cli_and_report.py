"""CLI (`python -m repro.experiments`) and report-generator tests."""

import csv
import subprocess
import sys

import pytest

from repro.experiments.__main__ import dump_series, main
from repro.experiments import EXPERIMENTS, run_experiment


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "figure8" in out
    assert "extension_isl" in out


def test_cli_list_json(capsys):
    import json

    from repro.experiments import describe_all

    assert main(["--list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiments"] == describe_all()
    by_id = {entry["id"]: entry for entry in payload["experiments"]}
    assert by_id["table1"]["artifact"] == "table"
    assert {"id", "summary", "artifact", "knobs"} <= set(by_id["table1"])


def test_describe_unknown_experiment():
    from repro.errors import ConfigurationError
    from repro.experiments import describe

    with pytest.raises(ConfigurationError):
        describe("figure99")


def test_cli_runs_cheap_experiment(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "figure1" in out
    assert "paper reference" in out


def test_cli_validate_pass(capsys):
    assert main(["figure1", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_unknown_experiment():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main(["figure99"])


def test_cli_dump_series(tmp_path, capsys):
    assert main(["figure7", "--dump-series", str(tmp_path)]) == 0
    files = list(tmp_path.glob("figure7_*.csv"))
    assert files
    with files[0].open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y"]
    assert len(rows) > 10


def test_dump_series_handles_samples(tmp_path):
    result = run_experiment("figure6b", seed=0)
    written = dump_series(result, str(tmp_path))
    assert any(path.endswith("_samples.csv") for path in written)


def test_dump_series_no_series(tmp_path):
    result = run_experiment("figure1", seed=0)
    assert dump_series(result, str(tmp_path)) == []


def test_cli_entrypoint_subprocess():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "table1" in completed.stdout


def test_report_renderer_marks_checks():
    from repro.analysis.validation import validate
    from repro.experiments.report import _render_markdown

    result = run_experiment("figure1", seed=0)
    text = _render_markdown("figure1", result, validate(result), 0.1)
    assert "Shape checks: 3/3 pass" in text
    assert "- [x]" in text
    assert "| city |" in text or "| city " in text


def test_report_exits_1_naming_each_failed_check(tmp_path, monkeypatch, capsys):
    """The report is written either way; a failed shape check makes
    ``main`` return 1 and is named on stderr."""
    from repro.analysis.validation import SHAPE_EXPECTATIONS, Check
    from repro.experiments import report

    monkeypatch.setattr(report, "EXPERIMENTS", {"figure1": EXPERIMENTS["figure1"]})
    out = tmp_path / "report.md"
    assert report.main(["--out", str(out)]) == 0
    assert "Shape checks: 3/3 pass" in out.read_text(encoding="utf-8")

    never = Check("never holds", lambda metrics: False)
    checks = [*SHAPE_EXPECTATIONS["figure1"], never]
    monkeypatch.setitem(SHAPE_EXPECTATIONS, "figure1", checks)
    assert report.main(["--out", str(out)]) == 1
    assert "- [ ] never holds" in out.read_text(encoding="utf-8")
    assert "figure1: never holds (violated)" in capsys.readouterr().err


def test_report_scales_name_registered_experiments():
    # A mistyped key would silently run its experiment at scale 1.0.
    from repro.experiments.report import REPORT_SCALES

    assert set(REPORT_SCALES) <= set(EXPERIMENTS)


def test_experiments_md_header_is_the_generators():
    """EXPERIMENTS.md is generated, header included: the file starts
    with the report's header at seed 0, so regenerating it drops no
    paragraph (no experiment runs here)."""
    from pathlib import Path

    from repro.experiments.report import _HEADER

    path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    assert path.read_text(encoding="utf-8").startswith(_HEADER.format(seed=0))
