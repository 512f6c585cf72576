"""Figure 4: weather conditions vs Page Transit Time (London).

For Google services accessed by London Starlink users, bucket PTT by
the OpenWeatherMap condition at each record's timestamp.  Paper
findings: lowest median under clear skies (470.5 ms), highest under
moderate rain (931.5 ms) — roughly 2x — with medians increasing along
the cloud-cover ordering and 'moderate rain' clearly above all cloud
conditions (rain-fade physics: raindrop size matters).
"""

from __future__ import annotations

from repro.analysis.streaming import stream_ptt_by_condition
from repro.analysis.weatherjoin import ptt_by_condition
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.knobs import resolve
from repro.web.tranco import GOOGLE_SERVICE_DOMAINS


@register("figure4")
def run(seed: int = 0, scale: float = 1.0, n_workers: int = 1) -> ExperimentResult:
    """Run a London campaign and bucket Google-service PTT by weather."""
    config = CampaignConfig(
        seed=seed,
        duration_s=60 * 86_400.0,
        request_fraction=0.5 * scale,
        cities=("london",),
        n_workers=n_workers,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()
    mode = resolve("analytics", config.analytics)
    if mode == "streaming":
        summaries = stream_ptt_by_condition(
            dataset,
            campaign.weather,
            "london",
            domains=set(GOOGLE_SERVICE_DOMAINS),
        )
    else:
        records = dataset.select(
            city="london", is_starlink=True, domain_in=set(GOOGLE_SERVICE_DOMAINS)
        )
        summaries = ptt_by_condition(records, campaign.weather, "london")

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
            f"and the severity ordering. Analytics: {mode}."
        ),
    )
