"""Table 3: browser-speedtest median throughput of Starlink users.

In-browser Librespeed runs to the Iowa server.  Paper medians:

=========  ==========  ==========
City       DL (Mbps)   UL (Mbps)
=========  ==========  ==========
London     123.2       11.3
Seattle    90.3        6.6
Toronto    65.8        6.9
Warsaw     44.9        7.7
=========  ==========  ==========

Shape targets: London > Seattle > Toronto > Warsaw on DL despite Iowa
being farthest from London (DL ratios ~1.4x Seattle, ~1.9x Toronto);
London UL roughly twice Seattle/Toronto.
"""

from __future__ import annotations

from repro.analysis.streaming import stream_speedtest_medians
from repro.errors import DatasetError
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.knobs import resolve

CITIES = ("london", "seattle", "toronto", "warsaw")

PAPER = {
    "london": (123.2, 11.3),
    "seattle": (90.3, 6.6),
    "toronto": (65.8, 6.9),
    "warsaw": (44.9, 7.7),
}


@register("table3")
def run(seed: int = 0, scale: float = 1.0, n_workers: int = 1) -> ExperimentResult:
    """Collect in-browser speedtests in the four cities."""
    config = CampaignConfig(
        seed=seed,
        duration_s=90 * 86_400.0,
        request_fraction=0.02,  # page loads are irrelevant here
        cities=CITIES,
        speedtest_boost=60.0 * max(scale, 0.1),
        n_workers=n_workers,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()

    headers = ["city", "n tests", "DL median (Mbps)", "UL median (Mbps)"]
    rows = []
    metrics: dict[str, float] = {}
    mode = resolve("analytics", config.analytics)
    streamed = stream_speedtest_medians(dataset) if mode == "streaming" else None
    for city_name in CITIES:
        if streamed is None:
            tests = dataset.select_speedtests(city=city_name, is_starlink=True)
            if not tests:
                raise DatasetError(
                    f"campaign produced no speedtests for {city_name}"
                )
            n_tests = len(tests)
            dl, ul = dataset.median_speedtest_mbps(city_name, is_starlink=True)
        else:
            if city_name not in streamed:
                raise DatasetError(
                    f"campaign produced no speedtests for {city_name}"
                )
            cell = streamed[city_name]
            n_tests = cell["n"]
            dl = cell["dl"].quantile(0.5)
            ul = cell["ul"].quantile(0.5)
        rows.append([city_name, n_tests, dl, ul])
        metrics[f"{city_name}_dl_mbps"] = dl
        metrics[f"{city_name}_ul_mbps"] = ul
    metrics["london_over_seattle_dl"] = (
        metrics["london_dl_mbps"] / metrics["seattle_dl_mbps"]
    )
    metrics["london_over_toronto_dl"] = (
        metrics["london_dl_mbps"] / metrics["toronto_dl_mbps"]
    )

    metrics.update(campaign_metrics(campaign))
    return ExperimentResult(
        experiment_id="table3",
        title="Browser speedtest medians (Starlink users, to Iowa)",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            f"{c}": f"DL={v[0]} UL={v[1]} Mbps" for c, v in PAPER.items()
        }
        | {"ratios": "London/Seattle ~1.4x DL, London/Toronto ~1.9x DL"},
        notes=f"Analytics: {mode}.",
    )
