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

from repro.analysis.aschange import detect_as_switch_time, split_around
from repro.analysis.stats import ecdf, median
from repro.analysis.streaming import (
    stream_as_switch_times,
    stream_city_class_era_ptt,
)
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.knobs import resolve
from repro.timeline import LONDON_AS_SWITCH_T, SYDNEY_AS_SWITCH_T

CITIES = ("london", "sydney")


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
    mode = resolve("analytics", config.analytics)
    expected_by_city = {
        "london": LONDON_AS_SWITCH_T,
        "sydney": SYDNEY_AS_SWITCH_T,
    }
    if mode == "streaming":
        switch_times = stream_as_switch_times(dataset, CITIES)
        split_times = {
            city: switch_times[city]
            if switch_times[city]
            else expected_by_city[city]
            for city in CITIES
        }
        grouped = stream_city_class_era_ptt(dataset, split_times)
        for city_name in CITIES:
            switch_t = switch_times[city_name]
            metrics[f"{city_name}_detected_switch_day"] = (
                switch_t / 86_400.0 if switch_t is not None else float("nan")
            )
            metrics[f"{city_name}_expected_switch_day"] = (
                expected_by_city[city_name] / 86_400.0
            )
            for label in ("google", "spacex"):
                for klass in ("popular", "unpopular"):
                    key = (city_name, klass, label)
                    if key not in grouped:
                        continue
                    sketch = grouped.sketch(key)
                    if sketch.n < 5:
                        continue
                    med, p90 = (float(x) for x in sketch.quantiles([0.5, 0.9]))
                    rows.append([city_name, klass, label, sketch.n, med, p90])
                    metrics[f"{city_name}_{klass}_{label}_median_ptt_ms"] = med
                    series[f"{city_name}_{klass}_{label}"] = sketch.cdf_series()
    else:
        for city_name in CITIES:
            records = dataset.select(city=city_name, is_starlink=True)
            switch_t = detect_as_switch_time(records)
            expected = expected_by_city[city_name]
            metrics[f"{city_name}_detected_switch_day"] = (
                switch_t / 86_400.0 if switch_t is not None else float("nan")
            )
            metrics[f"{city_name}_expected_switch_day"] = expected / 86_400.0
            before, after = split_around(records, switch_t if switch_t else expected)
            for label, subset in (("google", before), ("spacex", after)):
                for popular in (True, False):
                    ptts = [r.ptt_ms for r in subset if r.is_popular == popular]
                    if len(ptts) < 5:
                        continue
                    klass = "popular" if popular else "unpopular"
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
        notes=f"CDF series available via run_with_series(). Analytics: {mode}.",
    )
    result.series = series  # full ECDFs for plotting
    return result


def run_with_series(seed: int = 0, scale: float = 1.0):
    """(result, ecdf-series) convenience wrapper."""
    result = run(seed=seed, scale=scale)
    return result, result.series
