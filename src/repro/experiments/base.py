"""Experiment framework: one runnable unit per paper table/figure.

Each experiment module registers its runner with :func:`register`;
every runner has the uniform signature ``run(seed=0, scale=1.0,
n_workers=1) -> ExperimentResult``.  ``scale`` shrinks sample counts
for quick runs (benchmarks use ~0.3, tests less); the *shape* targets
hold at any reasonable scale.  ``n_workers`` shards campaign-backed
experiments over worker processes (bit-identical datasets, less
wall-clock); experiments without campaign work accept and ignore it.
Results carry both the measured rows and the paper's reference values
so the harness prints them side by side, and a ``metrics`` dict that
tests and EXPERIMENTS.md key on.

:data:`EXPERIMENTS` is the central registry — ``python -m
repro.experiments <id>``, :func:`run_experiment`, :func:`run_all` and
the report generator all resolve through it.  (Importing
``repro.experiments`` populates it: the package ``__init__`` imports
every experiment module in canonical artefact order.)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.knobs import scoped

REQUIRED_RUN_PARAMS = ("seed", "scale", "n_workers")
"""Parameters every registered experiment runner must accept."""

EXPERIMENTS: dict[str, Callable[..., "ExperimentResult"]] = {}
"""All runnable experiments, keyed by paper artefact id, in
registration (= canonical artefact) order."""


def register(experiment_id: str):
    """Decorator registering an experiment runner in :data:`EXPERIMENTS`.

    Enforces the uniform ``run(seed, scale, n_workers)`` signature at
    import time — a registered runner missing one of
    :data:`REQUIRED_RUN_PARAMS` (or reusing a taken id) is a
    configuration error, not a latent CLI crash.
    """

    def decorate(runner: Callable[..., "ExperimentResult"]):
        params = inspect.signature(runner).parameters
        missing = [name for name in REQUIRED_RUN_PARAMS if name not in params]
        if missing:
            raise ConfigurationError(
                f"experiment {experiment_id!r} runner is missing the uniform "
                f"parameters {missing}; every runner takes "
                f"{REQUIRED_RUN_PARAMS}"
            )
        if experiment_id in EXPERIMENTS:
            raise ConfigurationError(
                f"experiment id {experiment_id!r} registered twice"
            )
        EXPERIMENTS[experiment_id] = runner
        return runner

    return decorate


def _artifact_kind(experiment_id: str) -> str:
    """Which paper-artifact family an experiment id belongs to."""
    for prefix, kind in (
        ("table", "table"),
        ("figure", "figure"),
        ("ablation", "ablation"),
        ("extension", "extension"),
    ):
        if experiment_id.startswith(prefix):
            return kind
    return "other"


def _doc_summary(runner) -> str:
    """First sentence-line of the runner's (or its module's) docstring."""
    doc = inspect.getdoc(runner) or inspect.getdoc(
        inspect.getmodule(runner)
    )
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def describe(experiment_id: str) -> dict:
    """Machine-readable metadata of one registered experiment.

    Returns a JSON-safe dict with the experiment's ``id``, its doc
    ``summary``, the ``artifact`` kind (``table``/``figure``/
    ``ablation``/``extension``), and the ``knobs`` the uniform runner
    signature accepts (name + default each).  This is what
    ``GET /v1/experiments`` serves and ``--list --json`` prints.

    Raises:
        ConfigurationError: for an unknown experiment id.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    knobs = []
    for name, parameter in inspect.signature(runner).parameters.items():
        default = parameter.default
        knobs.append(
            {
                "name": name,
                "default": None
                if default is inspect.Parameter.empty
                else default,
            }
        )
    return {
        "id": experiment_id,
        "summary": _doc_summary(runner),
        "artifact": _artifact_kind(experiment_id),
        "knobs": knobs,
    }


def describe_all() -> list[dict]:
    """:func:`describe` for every experiment, in registry order."""
    return [describe(experiment_id) for experiment_id in EXPERIMENTS]


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    scale: float = 1.0,
    n_workers: int = 1,
    engine: str | None = None,
    analytics: str | None = None,
) -> "ExperimentResult":
    """Run one experiment by id.

    ``n_workers`` is forwarded to every runner (the registry enforces
    the uniform signature); experiments without campaign work ignore it.
    ``engine`` (``"event"``/``"batch"``) and ``analytics``
    (``"exact"``/``"streaming"``) set those knobs for the duration of
    the run: experiments build their own configs behind the uniform
    signature, so the values are handed over through the knobs'
    ``REPRO_*`` variables (:func:`repro.knobs.scoped`), like the CLI's
    flags.  Exact analytics is bit-identical to the historical
    pipeline; streaming folds backend segments through mergeable
    sketches in O(segment) memory (quantile cells within a 1%
    rank-error bound, counts exact).

    Raises:
        ConfigurationError: for unknown ids, engines or analytics modes.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    with scoped({"engine": engine, "analytics": analytics}):
        return runner(seed=seed, scale=scale, n_workers=n_workers)


def run_all(
    seed: int = 0,
    scale: float = 1.0,
    n_workers: int = 1,
    engine: str | None = None,
    analytics: str | None = None,
) -> dict[str, "ExperimentResult"]:
    """Run every experiment; returns id -> result."""
    return {
        experiment_id: run_experiment(
            experiment_id,
            seed=seed,
            scale=scale,
            n_workers=n_workers,
            engine=engine,
            analytics=analytics,
        )
        for experiment_id in EXPERIMENTS
    }


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes:
        experiment_id: e.g. ``table1`` / ``figure6a``.
        title: Human-readable description.
        headers: Column names of the result table.
        rows: Result rows (mixed str/float cells).
        metrics: Named scalar results for assertions and EXPERIMENTS.md.
        paper_reference: The corresponding values reported in the paper.
        notes: Substitutions/caveats worth surfacing with the result.
    """

    experiment_id: str
    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    paper_reference: dict[str, float | str] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """Printable report: table, metrics, and paper reference."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.metrics:
            parts.append("metrics:")
            for key, value in self.metrics.items():
                parts.append(
                    f"  {key} = {value:.4g}"
                    if isinstance(value, float)
                    else f"  {key} = {value}"
                )
        if self.paper_reference:
            parts.append("paper reference:")
            for key, value in self.paper_reference.items():
                parts.append(f"  {key} = {value}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def scaled(value: float, scale: float, minimum: float = 1) -> int:
    """Scale a sample count, clamped below at ``minimum``."""
    return max(int(minimum), int(round(value * scale)))


def campaign_metrics(campaign) -> dict[str, float]:
    """Throughput metrics of a campaign's last run, for result reports.

    Surfaces the :class:`repro.runtime.shard.CampaignRunStats` counters
    (worker count, wall time, records/s) so sharded experiment runs
    show their per-shard timing next to the paper numbers.
    """
    stats = getattr(campaign, "last_run_stats", None)
    if stats is None:
        return {}
    return {
        "campaign_n_workers": float(stats.n_workers),
        "campaign_wall_s": float(stats.wall_s),
        "campaign_records_per_s": float(stats.records_per_s),
    }
