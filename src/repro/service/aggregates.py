"""Incremental campaign aggregates: partial sketch merges as JSON.

Every execution mode of the service keeps a running partial merge of
the Table 1 / Table 3 shapes while shards complete: the runner folds
each accepted shard into the accumulators with
:func:`~repro.runtime.merge.fold_shard` — sketch-task shards merge
their states, record shards fold their columns through the same
:func:`~repro.analysis.streaming.fold_table_columns` the sketch task
uses.

:func:`aggregate_payload` renders the accumulators as the JSON cells
the SSE stream and the results endpoint serve: request/test counts and
distinct-domain counts are exact, medians carry the sketches' bounded
rank error (exact below the compression threshold).  Because sketch
merges are commutative, every partial is the true aggregate of the
users covered so far — the cells *converge* to the final values as
shards land, they never oscillate from fold order.
"""

from __future__ import annotations

from repro.analysis.streaming import GroupedAccumulator


def aggregate_payload(
    page: GroupedAccumulator | None,
    speed: dict[str, GroupedAccumulator] | None,
) -> dict:
    """The JSON cells of the current partial merge.

    Returns ``{"page_loads": [...], "speedtests": [...]}`` with one
    cell per ``(city, is_starlink)`` key in sorted key order
    (deterministic across replays of the same fold sequence).
    """
    page_cells = []
    if page is not None:
        for key, sketch in page.items():
            city, is_starlink = key
            page_cells.append(
                {
                    "city": city,
                    "is_starlink": bool(is_starlink),
                    "n_requests": sketch.n,
                    "n_domains": page.distinct(key).n,
                    "median_ptt_ms": sketch.quantile(0.5),
                }
            )
    speed_cells = []
    if speed:
        downloads = speed.get("download_mbps")
        uploads = speed.get("upload_mbps")
        if downloads is not None:
            for key, sketch in downloads.items():
                city, is_starlink = key
                cell = {
                    "city": city,
                    "is_starlink": bool(is_starlink),
                    "n_tests": sketch.n,
                    "median_download_mbps": sketch.quantile(0.5),
                }
                if uploads is not None and key in uploads:
                    cell["median_upload_mbps"] = uploads.sketch(key).quantile(
                        0.5
                    )
                speed_cells.append(cell)
    return {"page_loads": page_cells, "speedtests": speed_cells}
