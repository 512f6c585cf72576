"""Experiment registry: every table and figure of the paper.

``EXPERIMENTS`` (defined in :mod:`repro.experiments.base`) maps
experiment id to its uniform ``run(seed, scale, n_workers)`` callable;
each module below registers itself with ``@register(id)`` at import
time, and this package imports them in canonical artefact order so the
registry (and ``--list``) is stable.  Run one from Python::

    from repro.experiments import run_experiment
    print(run_experiment("table1", scale=0.3, n_workers=2).render())

or from the command line::

    python -m repro.experiments table1 --scale 0.3 --workers 2
    python -m repro.experiments all
"""

from __future__ import annotations

from repro.experiments.base import (
    EXPERIMENTS,
    ExperimentResult,
    describe,
    describe_all,
    register,
    run_experiment,
)

# Import order defines registry order: the paper's artefact order,
# then ablations and extensions.
from repro.experiments import (  # noqa: F401  (registration imports)
    table1,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table2,
    table3,
    figure6a,
    figure6b,
    figure6c,
    figure7,
    figure8,
    ablations,
    extensions,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "describe",
    "describe_all",
    "register",
    "run_experiment",
]
