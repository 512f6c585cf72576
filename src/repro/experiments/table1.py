"""Table 1: city-wise extension data (#req, #domain, median PTT).

Paper values (Starlink | non-Starlink):

===========  ==================  ==================
City         #req/#dom/med PTT   #req/#dom/med PTT
===========  ==================  ==================
London       12933/1302/327 ms   4006/730/443 ms
Seattle      3597/579/395 ms     765/222/566 ms
Sydney       3482/390/622 ms     843/260/675 ms
===========  ==================  ==================

Shape targets: Starlink medians below non-Starlink in each city;
Sydney's medians well above (roughly 2x) London's.
"""

from __future__ import annotations

from repro.analysis.streaming import stream_table1_stats
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.knobs import resolve

CITIES = ("london", "seattle", "sydney")

PAPER = {
    "london": {"starlink": (12_933, 1_302, 327.0), "non": (4_006, 730, 443.0)},
    "seattle": {"starlink": (3_597, 579, 395.0), "non": (765, 222, 566.0)},
    "sydney": {"starlink": (3_482, 390, 622.0), "non": (843, 260, 675.0)},
}


@register("table1")
def run(seed: int = 0, scale: float = 1.0, n_workers: int = 1) -> ExperimentResult:
    """Run the campaign and compute the Table 1 cells.

    ``scale=1.0`` uses a ~6-week window with proportionally boosted
    activity, statistically equivalent to the full six months for these
    time-stationary aggregates but much faster.  ``n_workers`` shards
    the campaign across processes without changing the dataset.
    """
    duration_s = 42 * 86_400.0
    fraction = 0.35 * scale
    config = CampaignConfig(
        seed=seed,
        duration_s=duration_s,
        request_fraction=fraction,
        cities=CITIES,
        n_workers=n_workers,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()

    headers = [
        "city",
        "SL #req",
        "SL #dom",
        "SL med PTT (ms)",
        "non #req",
        "non #dom",
        "non med PTT (ms)",
    ]
    rows = []
    metrics: dict[str, float] = {}
    mode = resolve("analytics", config.analytics)
    grouped = stream_table1_stats(dataset) if mode == "streaming" else None
    for city_name in CITIES:
        if grouped is None:
            sl_n = dataset.request_count(city=city_name, is_starlink=True)
            sl_dom = dataset.unique_domains(city=city_name, is_starlink=True)
            sl_med = dataset.median_ptt_ms(city=city_name, is_starlink=True)
            non_n = dataset.request_count(city=city_name, is_starlink=False)
            non_dom = dataset.unique_domains(city=city_name, is_starlink=False)
            non_med = dataset.median_ptt_ms(city=city_name, is_starlink=False)
        else:
            # Counts and #domain are exact even in streaming mode; only
            # the medians carry the sketch's bounded rank error.
            sl_n = grouped.sketch((city_name, True)).n
            sl_dom = grouped.distinct((city_name, True)).n
            sl_med = grouped.sketch((city_name, True)).quantile(0.5)
            non_n = grouped.sketch((city_name, False)).n
            non_dom = grouped.distinct((city_name, False)).n
            non_med = grouped.sketch((city_name, False)).quantile(0.5)
        rows.append([city_name, sl_n, sl_dom, sl_med, non_n, non_dom, non_med])
        metrics[f"{city_name}_starlink_median_ptt_ms"] = sl_med
        metrics[f"{city_name}_non_starlink_median_ptt_ms"] = non_med
    metrics["sydney_over_london_starlink"] = (
        metrics["sydney_starlink_median_ptt_ms"]
        / metrics["london_starlink_median_ptt_ms"]
    )
    metrics.update(campaign_metrics(campaign))

    paper_reference = {
        f"{c}_{k}": f"#req={v[0]} #dom={v[1]} median={v[2]}ms"
        for c, cell in PAPER.items()
        for k, v in cell.items()
    }
    return ExperimentResult(
        experiment_id="table1",
        title="City-wise extension data: requests, domains, median PTT",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference=paper_reference,
        notes=(
            "Synthetic campaign (see DESIGN.md); request counts scale with "
            "the scale parameter, medians are the calibrated quantities. "
            f"Analytics: {mode}. Run: {campaign.last_run_stats.summary()}"
        ),
    )
