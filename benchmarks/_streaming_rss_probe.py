"""Peak-RSS probe for the streaming-analytics benchmark (subprocess helper).

Two subcommands, each run in a fresh interpreter so the ``ru_maxrss``
high-water mark of one phase cannot pollute another:

``python benchmarks/_streaming_rss_probe.py build <dir> <n_records>``
    Writes ``n_records`` synthetic page loads into a spill backend at
    ``dir`` via chunked array-level ingest (fast, and the build's own
    RSS is irrelevant — it happens outside the analysis probes).

``python benchmarks/_streaming_rss_probe.py analyze <dir> <mode>``
    Reopens the spill dataset and computes the Table 1 aggregates per
    (city, connection type) with the ``exact`` fold (``table1.fold``,
    the one pass over column chunks that ``table1`` itself runs) or the
    ``streaming`` one (``stream_table1_stats``: sketches folded one
    segment at a time).  Prints a JSON line with the peak-RSS
    growth over the post-open baseline, the analysis wall time and the
    computed cells, so the parent can assert the memory bound, the
    wall-time ratio and the numeric agreement.

Underscore-prefixed so pytest does not collect it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

CITIES = ("london", "seattle", "sydney")
CHUNK = 50_000


def _peak_rss_kib() -> int:
    # Linux reports ru_maxrss in KiB (macOS in bytes; CI runs Linux).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _synthetic_chunk(start: int, n: int) -> dict[str, np.ndarray]:
    index = np.arange(start, start + n)
    phases = (
        "redirect",
        "dns",
        "connect",
        "tls",
        "request",
        "response",
        "dom",
        "render",
    )
    timing = {
        f"timing_{phase}_s": 1e-4 * ((index + shift) % 997)
        for shift, phase in enumerate(phases)
    }
    return {
        "user_id": np.char.add("user-", (index % 997).astype(str)),
        "city": np.asarray(CITIES)[index % len(CITIES)],
        "region": np.full(n, "region"),
        "isp": np.where(index % 4 != 0, "starlink", "cable-co"),
        "is_starlink": index % 4 != 0,
        "exit_asn": np.full(n, 14593, dtype=np.int64),
        "t_s": index.astype(float),
        "domain": np.char.add("site-", (index % 4096).astype(str)),
        "rank": (index % 100_000).astype(np.int64),
        "is_popular": index % 3 == 0,
        **timing,
    }


def build(directory: str, n_records: int) -> dict:
    from repro.extension.backends import SpillBackend

    backend = SpillBackend(directory=directory)
    written = 0
    while written < n_records:
        n = min(CHUNK, n_records - written)
        backend.extend_page_load_arrays(_synthetic_chunk(written, n))
        written += n
    backend.flush()
    return {"built": backend.n_page_loads}


def analyze(directory: str, mode: str) -> dict:
    from repro.analysis.streaming import stream_table1_stats
    from repro.experiments import table1
    from repro.extension.backends import SpillBackend
    from repro.extension.storage import Dataset

    dataset = Dataset(backend=SpillBackend.open(directory))
    baseline_kib = _peak_rss_kib()
    started = time.perf_counter()
    cells: dict[str, dict] = {}
    if mode == "exact":
        for (city, starlink), cell in table1.fold(dataset, CITIES).items():
            n, domains, median = cell
            cells[f"{city}_{starlink}"] = {
                "n": n,
                "domains": domains,
                "median": median,
            }
    elif mode == "streaming":
        grouped = stream_table1_stats(dataset)
        for city in CITIES:
            for starlink in (True, False):
                sketch = grouped.sketch((city, starlink))
                cells[f"{city}_{starlink}"] = {
                    "n": sketch.n,
                    "domains": grouped.distinct((city, starlink)).n,
                    "median": sketch.quantile(0.5),
                }
    else:
        raise SystemExit(f"unknown analyze mode {mode!r}")
    return {
        "mode": mode,
        "n_records": dataset.n_page_loads,
        "baseline_kib": baseline_kib,
        "peak_kib": _peak_rss_kib(),
        "wall_s": time.perf_counter() - started,
        "cells": cells,
    }


def main(argv: list[str]) -> int:
    command = argv[1]
    if command == "build":
        report = build(argv[2], int(argv[3]))
    elif command == "analyze":
        report = analyze(argv[2], argv[3])
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
