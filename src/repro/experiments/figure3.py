"""Figure 3: PTT CDFs, popular vs unpopular, Google AS vs SpaceX AS.

For London and Sydney (the cities whose Starlink exit AS migrated from
AS36492/Google to AS14593/SpaceX during the campaign), compare the PTT
distribution of popular (Tranco top 200) and unpopular sites before and
after the switch.  Paper findings: (a) popular sites have a small but
consistent PTT advantage, (b) PTT increased slightly for both classes
after the move off Google's AS.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import ecdf, median
from repro.analysis.streaming import group_columns
from repro.constants import AS_GOOGLE, AS_SPACEX
from repro.errors import DatasetError
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.timeline import LONDON_AS_SWITCH_T, SYDNEY_AS_SWITCH_T

CITIES = ("london", "sydney")

#: Where each city's split falls when the data shows no AS switch.
EXPECTED_SWITCH_T = {"london": LONDON_AS_SWITCH_T, "sydney": SYDNEY_AS_SWITCH_T}

#: Page-load columns the Figure 3 fold reads.
COLUMNS = ("city", "is_starlink", "exit_asn", "t_s", "is_popular", "ptt_ms")

#: Fewest PTT samples a (class, era) curve needs to be drawn.
MIN_SAMPLES = 5


def _switch_time(exit_asn: np.ndarray, t_s: np.ndarray) -> float | None:
    """:func:`~repro.analysis.aschange.detect_as_switch_time` over one
    city's Starlink columns: the first SpaceX-AS timestamp, if a
    Google-AS record precedes it."""
    spacex = t_s[exit_asn == AS_SPACEX]
    if not spacex.size:
        return None
    first = float(spacex.min())
    google_before = np.any((exit_asn == AS_GOOGLE) & (t_s < first))
    return first if google_before else None


def fold(dataset, cities=CITIES) -> dict[str, tuple]:
    """Each city's AS switch and Figure 3 PTT curves, from one column pass.

    Returns ``{city: (switch time or None, {(class, era): ptt_ms})}``.
    Each chunk keeps the Starlink page loads of ``cities``, grouped by
    city; a city's columns give its switch time, and the split at it
    (or at :data:`EXPECTED_SWITCH_T` without one) gives the eras.  Each
    curve holds its PTTs in append order; curves under
    :data:`MIN_SAMPLES` are dropped.

    Raises:
        DatasetError: for a city without Starlink page loads.
    """

    def chunks():
        for chunk in dataset.iter_page_load_column_chunks(COLUMNS):
            keep = chunk["is_starlink"] & np.isin(chunk["city"], list(cities))
            yield {name: chunk[name][keep] for name in COLUMNS}

    groups = group_columns(chunks(), keys=("city",), values=COLUMNS[2:])
    folded = {}
    for city in cities:
        if (city,) not in groups:
            raise DatasetError("no Starlink records to detect an AS switch in")
        columns = groups[(city,)]
        t_s, popular = columns["t_s"], columns["is_popular"]
        switch_t = _switch_time(columns["exit_asn"], t_s)
        split_t = switch_t if switch_t else EXPECTED_SWITCH_T[city]
        curves = {}
        for era, in_era in (("google", t_s < split_t), ("spacex", t_s >= split_t)):
            for klass, in_class in (("popular", popular), ("unpopular", ~popular)):
                ptts = columns["ptt_ms"][in_era & in_class]
                if len(ptts) >= MIN_SAMPLES:
                    curves[(klass, era)] = ptts
        folded[city] = (switch_t, curves)
    return folded


@register("figure3")
def run(seed: int = 0, scale: float = 1.0, n_workers: int = 1) -> ExperimentResult:
    """Run a campaign spanning both AS migrations and split the CDFs."""
    duration_s = 130 * 86_400.0  # Dec 1 -> ~Apr 10, covers both switches
    config = CampaignConfig(
        seed=seed,
        duration_s=duration_s,
        request_fraction=0.12 * scale,
        cities=CITIES,
        n_workers=n_workers,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()

    headers = ["city", "class", "AS era", "n", "median PTT (ms)", "p90 (ms)"]
    rows = []
    metrics: dict[str, float] = {}
    series: dict[str, tuple] = {}
    for city_name, (switch_t, curves) in fold(dataset).items():
        metrics[f"{city_name}_detected_switch_day"] = (
            switch_t / 86_400.0 if switch_t is not None else float("nan")
        )
        metrics[f"{city_name}_expected_switch_day"] = (
            EXPECTED_SWITCH_T[city_name] / 86_400.0
        )
        for (klass, label), ptts in curves.items():
            med = median(ptts)
            p90 = float(np.percentile(ptts, 90))
            rows.append([city_name, klass, label, len(ptts), med, p90])
            metrics[f"{city_name}_{klass}_{label}_median_ptt_ms"] = med
            series[f"{city_name}_{klass}_{label}"] = ecdf(ptts)

    for city_name in CITIES:
        for klass in ("popular", "unpopular"):
            google = metrics.get(f"{city_name}_{klass}_google_median_ptt_ms")
            spacex = metrics.get(f"{city_name}_{klass}_spacex_median_ptt_ms")
            if google and spacex:
                metrics[f"{city_name}_{klass}_spacex_over_google"] = spacex / google

    metrics.update(campaign_metrics(campaign))
    result = ExperimentResult(
        experiment_id="figure3",
        title="PTT CDFs: popular vs unpopular, before/after the AS switch",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "popular_vs_unpopular": "small gap, popular slightly faster",
            "after_switch": "PTT increases slightly for both classes",
            "london_switch_window": "2022-02-16 .. 2022-02-24",
            "sydney_switch_window": "2022-04-01 .. 2022-04-02",
        },
        notes="CDF series available via run_with_series().",
    )
    result.series = series  # full ECDFs for plotting
    return result


def run_with_series(seed: int = 0, scale: float = 1.0):
    """(result, ecdf-series) convenience wrapper."""
    result = run(seed=seed, scale=scale)
    return result, result.series
