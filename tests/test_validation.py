"""Shape-validation DSL tests."""

import pytest

from repro.analysis.validation import (
    Check,
    SHAPE_EXPECTATIONS,
    validate,
    validate_or_raise,
)
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult


def test_every_experiment_has_expectations():
    assert set(SHAPE_EXPECTATIONS) == set(EXPERIMENTS)


def test_check_descriptions_unique_per_experiment():
    # A finding merged into the table twice shows up as a repeated line.
    for experiment_id, checks in SHAPE_EXPECTATIONS.items():
        descriptions = [check.description for check in checks]
        assert len(set(descriptions)) == len(descriptions), experiment_id


def _fake_result(experiment_id, metrics):
    return ExperimentResult(experiment_id=experiment_id, title="t", metrics=metrics)


def test_check_passes_and_fails():
    check = Check("a < b", lambda m: m["a"] < m["b"])
    assert check.evaluate({"a": 1.0, "b": 2.0}).passed
    outcome = check.evaluate({"a": 3.0, "b": 2.0})
    assert not outcome.passed
    assert outcome.detail == "violated"


def test_check_missing_metric_fails_gracefully():
    check = Check("needs x", lambda m: m["x"] > 0)
    outcome = check.evaluate({})
    assert not outcome.passed
    assert "missing metric" in outcome.detail


def test_validate_unknown_experiment():
    with pytest.raises(ConfigurationError):
        validate(_fake_result("figure99", {}))


def test_validate_or_raise_reports_all_failures():
    result = _fake_result(
        "figure1", {"total_users": 27.0, "starlink_users": 18.0, "cities": 10.0}
    )
    with pytest.raises(AssertionError, match="1 shape check"):
        validate_or_raise(result)
