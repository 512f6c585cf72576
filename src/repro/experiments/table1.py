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

import numpy as np

from repro.analysis.streaming import group_columns
from repro.experiments.base import ExperimentResult, campaign_metrics, register
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.storage import _median

CITIES = ("london", "seattle", "sydney")

#: Page-load columns the Table 1 fold reads.
COLUMNS = ("city", "is_starlink", "domain", "ptt_ms")

PAPER = {
    "london": {"starlink": (12_933, 1_302, 327.0), "non": (4_006, 730, 443.0)},
    "seattle": {"starlink": (3_597, 579, 395.0), "non": (765, 222, 566.0)},
    "sydney": {"starlink": (3_482, 390, 622.0), "non": (843, 260, 675.0)},
}


def fold(dataset, cities=CITIES) -> dict[tuple[str, bool], tuple[int, int, float]]:
    """Table 1's cells, ``(city, is_starlink) -> (#req, #domain, median PTT)``.

    One pass over the page-load column chunks, grouped by city and
    connection class: each group keeps its PTT column and its set of
    distinct domains.

    Raises:
        DatasetError: if a cell is empty (its median is undefined).
    """
    groups = group_columns(
        dataset.iter_page_load_column_chunks(COLUMNS),
        keys=("city", "is_starlink"),
        values=("ptt_ms",),
        distinct=("domain",),
    )
    empty = {"ptt_ms": np.empty(0), "domain": set()}
    cells = {}
    for city in cities:
        for starlink in (True, False):
            group = groups.get((city, starlink), empty)
            cells[(city, starlink)] = (
                len(group["ptt_ms"]),
                len(group["domain"]),
                _median(group["ptt_ms"]),
            )
    return cells


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
    cells = fold(dataset)
    for city_name in CITIES:
        sl_n, sl_dom, sl_med = cells[(city_name, True)]
        non_n, non_dom, non_med = cells[(city_name, False)]
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
            f"Run: {campaign.last_run_stats.summary()}"
        ),
    )
