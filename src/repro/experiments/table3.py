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

from repro.analysis.streaming import group_columns
from repro.errors import DatasetError
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.storage import _median

CITIES = ("london", "seattle", "toronto", "warsaw")

#: Speedtest columns the Table 3 fold reads.
COLUMNS = ("city", "is_starlink", "download_mbps", "upload_mbps")

PAPER = {
    "london": (123.2, 11.3),
    "seattle": (90.3, 6.6),
    "toronto": (65.8, 6.9),
    "warsaw": (44.9, 7.7),
}


def fold(dataset, cities=CITIES) -> dict[str, tuple[int, float, float]]:
    """Table 3's cells, ``city -> (n tests, DL median, UL median)``.

    One pass over the speedtest column chunks, grouped by city and
    connection class; the cells read the Starlink groups.

    Raises:
        DatasetError: for a city without Starlink speedtests.
    """
    groups = group_columns(
        dataset.iter_speedtest_column_chunks(COLUMNS),
        keys=("city", "is_starlink"),
        values=("download_mbps", "upload_mbps"),
    )
    cells = {}
    for city in cities:
        tests = groups.get((city, True))
        if tests is None:
            raise DatasetError(f"campaign produced no speedtests for {city}")
        cells[city] = (
            len(tests["download_mbps"]),
            _median(tests["download_mbps"]),
            _median(tests["upload_mbps"]),
        )
    return cells


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
    cells = fold(dataset)
    for city_name in CITIES:
        n_tests, dl, ul = cells[city_name]
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
    )
