"""Incremental campaign aggregates: the exact Table 1/3 cells as JSON.

The service keeps running Table 1 / Table 3 cells while shards
complete: the runner folds each accepted shard's
columns (a :class:`~repro.runtime.shard.ShardResult`, fresh or
recovered from a checkpoint) into a :class:`CampaignAggregates`
through :func:`~repro.analysis.streaming.group_columns`, the fold
Tables 1/3 use.  Per ``(city, is_starlink)`` cell it keeps only the
PTT, download and upload values and the set of distinct domains.

:meth:`CampaignAggregates.payload` renders the cells the SSE stream
and the results endpoint serve.  Counts and medians are exact (medians
through :func:`~repro.extension.storage._median`, as Tables 1/3 take
them), and a median depends only on the values folded, not their
order: every partial is the exact aggregate of the users covered so
far, and the final cells equal the merged dataset's for any worker
count and shard completion order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.streaming import group_columns
from repro.extension.columnar import derived_page_load_column
from repro.extension.storage import _median

#: Every cell is one city and connection class.
KEYS = ("city", "is_starlink")

#: The speedtest columns a cell keeps.
SPEEDTEST_VALUES = ("download_mbps", "upload_mbps")


class CampaignAggregates:
    """The exact Table 1/3 cells of the shards folded so far."""

    def __init__(self) -> None:
        #: ``(city, is_starlink) -> {"ptt_ms": [arrays], "domain": set}``
        self.page_loads: dict[tuple, dict] = {}
        #: ``(city, is_starlink) -> {speedtest value: [arrays]}``
        self.speedtests: dict[tuple, dict] = {}

    def fold(self, result) -> None:
        """Fold one accepted shard result into the cells."""
        page_load_arrays = result.page_load_arrays
        speedtest_arrays = result.speedtest_arrays
        page_loads = {
            **page_load_arrays,
            "ptt_ms": derived_page_load_column("ptt_ms", page_load_arrays.__getitem__),
        }
        groups = group_columns(
            [page_loads], KEYS, values=("ptt_ms",), distinct=("domain",)
        )
        for key, group in groups.items():
            cell = self.page_loads.setdefault(key, {"ptt_ms": [], "domain": set()})
            cell["ptt_ms"].append(group["ptt_ms"])
            cell["domain"] |= group["domain"]
        groups = group_columns([speedtest_arrays], KEYS, values=SPEEDTEST_VALUES)
        for key, group in groups.items():
            cell = self.speedtests.setdefault(
                key, {name: [] for name in SPEEDTEST_VALUES}
            )
            for name in SPEEDTEST_VALUES:
                cell[name].append(group[name])

    def payload(self) -> dict:
        """The JSON cells of every shard folded so far.

        Returns ``{"page_loads": [...], "speedtests": [...]}`` with one
        cell per ``(city, is_starlink)`` key in sorted key order.
        """
        page_cells = []
        for (city, is_starlink), cell in sorted(self.page_loads.items()):
            ptt_ms = np.concatenate(cell["ptt_ms"])
            page_cells.append(
                {
                    "city": city,
                    "is_starlink": is_starlink,
                    "n_requests": len(ptt_ms),
                    "n_domains": len(cell["domain"]),
                    "median_ptt_ms": _median(ptt_ms),
                }
            )
        speed_cells = []
        for (city, is_starlink), cell in sorted(self.speedtests.items()):
            downloads = np.concatenate(cell["download_mbps"])
            speed_cells.append(
                {
                    "city": city,
                    "is_starlink": is_starlink,
                    "n_tests": len(downloads),
                    "median_download_mbps": _median(downloads),
                    "median_upload_mbps": _median(np.concatenate(cell["upload_mbps"])),
                }
            )
        return {"page_loads": page_cells, "speedtests": speed_cells}
