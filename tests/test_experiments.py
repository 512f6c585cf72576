"""Experiment-harness tests: the registry, and the paper's findings.

The findings live in one table,
:data:`repro.analysis.validation.SHAPE_EXPECTATIONS`; this module runs
the experiments at small scales and checks each result against it.
The *shape* findings (orderings, ratios, qualitative effects) must
hold at any reasonable sample size.
"""

import pytest

from repro.analysis.validation import validate_or_raise
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_experiment


def test_registry_covers_every_paper_artefact():
    expected = {
        "table1",
        "table2",
        "table3",
        "figure1",
        "figure3",
        "figure4",
        "figure5",
        "figure6a",
        "figure6b",
        "figure6c",
        "figure7",
        "figure8",
    }
    assert expected <= set(EXPERIMENTS)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment("figure99")


#: Experiments whose findings tier-1 checks at seeds 0, 1 and 2, with the
#: scale of each.  Several seeds: a finding must not depend on RNG luck,
#: which guards the calibration against overfitting to one random stream.
ACROSS_SEEDS = {
    "table1": 0.2,
    "figure2": 1.0,
    "figure5": 0.5,
    "table3": 0.5,
    "figure6a": 0.5,
    "figure6b": 1.0,
    "figure6c": 0.5,
    "figure7": 1.0,
    "ablation_cell": 0.5,
    "extension_isl": 0.4,
}

#: Every (experiment, seed, scale) point at which tier-1 checks the
#: paper's findings (``repro.analysis.validation.SHAPE_EXPECTATIONS``).
#: The report checks each experiment at its reference scale.
POINTS = [
    *(
        (experiment_id, seed, scale)
        for experiment_id, scale in ACROSS_SEEDS.items()
        for seed in (0, 1, 2)
    ),
    ("table1", 1, 0.12),
    ("figure1", 0, 1.0),
    ("figure4", 1, 0.5),
    ("table2", 1, 0.4),
    ("figure6a", 1, 0.4),
    ("figure6c", 1, 0.4),
    ("ablation_loss", 0, 1.0),
    ("ablation_loss", 1, 1.0),
    ("ablation_cdn", 1, 0.4),
    ("ablation_queueing", 1, 0.5),
    ("ablation_ptt", 0, 0.3),
    ("ablation_ptt", 0, 0.5),
    ("extension_geo", 0, 0.5),
    ("extension_quic", 0, 0.4),
]


@pytest.mark.parametrize(("experiment_id", "seed", "scale"), POINTS)
def test_findings_hold(experiment_id, seed, scale):
    result = run_experiment(experiment_id, seed=seed, scale=scale)
    validate_or_raise(result)
    text = result.render()
    assert experiment_id in text
    assert "paper reference" in text


# Headline findings with a test of their own name, each at one point of
# POINTS; Figure 2 and Figure 7 also check structure that no finding reads.


def test_figure2_setup_instantiated():
    result = run_experiment("figure2", seed=1, scale=1.0)
    validate_or_raise(result)
    assert len(result.rows) == 3  # one row per volunteer node


def test_figure5_access_technology_ordering():
    validate_or_raise(run_experiment("figure5", seed=1, scale=0.5))


def test_table3_throughput_ordering():
    validate_or_raise(run_experiment("table3", seed=1, scale=0.5))


def test_figure6b_diurnal():
    validate_or_raise(run_experiment("figure6b", seed=1, scale=1.0))


def test_figure7_handover_correlation():
    result = run_experiment("figure7", seed=1, scale=1.0)
    validate_or_raise(result)
    assert "loss_pct" in result.series


def test_every_runner_has_uniform_signature():
    import inspect

    from repro.experiments.base import REQUIRED_RUN_PARAMS

    for experiment_id, runner in EXPERIMENTS.items():
        params = inspect.signature(runner).parameters
        for name in REQUIRED_RUN_PARAMS:
            assert name in params, f"{experiment_id} is missing {name!r}"


def test_register_rejects_nonuniform_runner():
    from repro.experiments.base import register

    with pytest.raises(ConfigurationError, match="uniform"):
        @register("bogus_experiment")
        def run(seed=0, scale=1.0):  # no n_workers
            raise AssertionError("never runs")
    assert "bogus_experiment" not in EXPERIMENTS


def test_register_rejects_duplicate_id():
    from repro.experiments.base import register

    with pytest.raises(ConfigurationError, match="twice"):
        @register("table1")
        def run(seed=0, scale=1.0, n_workers=1):
            raise AssertionError("never runs")
