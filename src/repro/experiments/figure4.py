"""Figure 4: weather conditions vs Page Transit Time (London).

For Google services accessed by London Starlink users, bucket PTT by
the OpenWeatherMap condition at each record's timestamp.  Paper
findings: lowest median under clear skies (470.5 ms), highest under
moderate rain (931.5 ms) — roughly 2x — with medians increasing along
the cloud-cover ordering and 'moderate rain' clearly above all cloud
conditions (rain-fade physics: raindrop size matters).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import Summary, summarize
from repro.analysis.streaming import group_columns
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.weather.conditions import WEATHER_CONDITIONS, WeatherCondition
from repro.weather.history import WeatherHistory
from repro.web.tranco import GOOGLE_SERVICE_DOMAINS

CITY = "london"

#: Page-load columns the Figure 4 fold reads.
COLUMNS = ("city", "is_starlink", "domain", "t_s", "ptt_ms")

#: Fewest PTT samples a weather condition needs to be reported.
MIN_SAMPLES = 3


def fold(dataset, weather: WeatherHistory) -> dict[WeatherCondition, Summary]:
    """Google-service PTT summaries per weather condition, in one pass.

    Keeps London's Starlink page loads of the Google service domains,
    maps each one's timestamp to its hourly weather condition, and
    groups the PTTs by condition in append order (so each
    :class:`Summary`, ``mean`` included, equals
    :func:`~repro.analysis.weatherjoin.ptt_by_condition` over the same
    records).  Conditions iterate in severity order; those under
    :data:`MIN_SAMPLES` are dropped.

    Raises:
        ConfigurationError: for a page load outside the weather history,
            as ``condition_at`` does.
    """
    domains = list(GOOGLE_SERVICE_DOMAINS)

    def chunks():
        for chunk in dataset.iter_page_load_column_chunks(COLUMNS):
            keep = (chunk["city"] == CITY) & chunk["is_starlink"]
            keep &= np.isin(chunk["domain"], domains)
            yield {
                "condition": weather.condition_codes(CITY, chunk["t_s"][keep]),
                "ptt_ms": chunk["ptt_ms"][keep],
            }

    groups = group_columns(chunks(), keys=("condition",), values=("ptt_ms",))
    return {
        condition: summarize(groups[(code,)]["ptt_ms"])
        for code, condition in enumerate(WEATHER_CONDITIONS)
        if (code,) in groups and len(groups[(code,)]["ptt_ms"]) >= MIN_SAMPLES
    }


@register("figure4")
def run(seed: int = 0, scale: float = 1.0, n_workers: int = 1) -> ExperimentResult:
    """Run a London campaign and bucket Google-service PTT by weather."""
    config = CampaignConfig(
        seed=seed,
        duration_s=60 * 86_400.0,
        request_fraction=0.5 * scale,
        cities=(CITY,),
        n_workers=n_workers,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()
    summaries = fold(dataset, campaign.weather)

    headers = ["condition", "n", "p25 (ms)", "median (ms)", "p75 (ms)"]
    rows = []
    metrics: dict[str, float] = {}
    for condition, summary in summaries.items():
        rows.append(
            [
                condition.display_name,
                summary.n,
                summary.p25,
                summary.median,
                summary.p75,
            ]
        )
        key = condition.name.lower()
        metrics[f"{key}_median_ptt_ms"] = summary.median
    clear = metrics.get("clear_sky_median_ptt_ms")
    rain = metrics.get("moderate_rain_median_ptt_ms")
    if clear and rain:
        metrics["moderate_rain_over_clear"] = rain / clear

    metrics.update(campaign_metrics(campaign))
    return ExperimentResult(
        experiment_id="figure4",
        title="Weather conditions vs PTT (Google services, London Starlink)",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "clear_sky_median_ptt_ms": 470.5,
            "moderate_rain_median_ptt_ms": 931.5,
            "moderate_rain_over_clear": "~2x",
            "ordering": "medians rise with cloud cover; moderate rain worst",
        },
        notes=(
            "Absolute medians depend on the calibrated access model; the "
            "reproduction targets the ~2x clear-sky -> moderate-rain ratio "
            "and the severity ordering."
        ),
    )
