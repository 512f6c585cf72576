"""Table 1 analysis at 1M records: bounded memory, wall time, sketch accuracy.

Three claims:

* **Bounded analysis RSS** — computing the Table 1 aggregates over a
  million-record spill dataset grows peak RSS by at most
  ``ANALYSIS_RSS_CEILING_MIB`` in either mode: ``exact`` is
  ``table1.fold``, one grouped pass over column chunks (loading four
  columns per segment and keeping each group's PTT column and distinct
  domains), ``streaming`` is ``stream_table1_stats``, which folds
  quantile sketches one segment at a time.  A regression back to
  decoding record objects (255 MiB at 1M records on a 2-core x86_64
  container) trips the ceiling 8 times over.  Each mode runs in a
  fresh subprocess (``_streaming_rss_probe.py``) because ``ru_maxrss``
  is a process-wide high-water mark.
* **Exact wall time** — the exact fold takes at most
  ``EXACT_OVER_STREAMING_MAX`` times the sketch fold's wall time, so
  the sketch path buys no speed for the paper's artefacts.
* **Sketch accuracy** — on that same dataset the streaming counts and
  distinct-domain cells equal the exact ones, and every streaming
  median lands within 2 % of the exact one (the e2e benchmark's
  ``fabric-2w`` workload reads these sketches).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: Record count for the RSS probe — the issue's "1M records" regime.
RSS_PROBE_RECORDS = 1_000_000

#: Ceiling on either mode's analysis peak-RSS growth at 1M records.
ANALYSIS_RSS_CEILING_MIB = 32

#: Most the exact fold's wall time may be, as a multiple of streaming's.
EXACT_OVER_STREAMING_MAX = 2.0


def _run_probe(args: list[str]) -> dict:
    probe = os.path.join(os.path.dirname(__file__), "_streaming_rss_probe.py")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(probe))), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, probe, *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=900,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_analysis_peak_rss_bounded(benchmark, tmp_path):
    """Both modes' analysis peak-RSS growth stays under the ceiling at
    1M records, exact takes at most twice streaming's wall time, and
    their Table 1 cells agree."""
    directory = str(tmp_path / "segments")
    built = _run_probe(["build", directory, str(RSS_PROBE_RECORDS)])
    assert built["built"] == RSS_PROBE_RECORDS

    def probe_both():
        exact = _run_probe(["analyze", directory, "exact"])
        streaming = _run_probe(["analyze", directory, "streaming"])
        return exact, streaming

    exact, streaming = benchmark.pedantic(probe_both, rounds=1, iterations=1)
    for report in (exact, streaming):
        assert report["n_records"] == RSS_PROBE_RECORDS
        report["growth_kib"] = max(report["peak_kib"] - report["baseline_kib"], 1)

    # Counts and #domain cells are exact even in streaming mode; the
    # medians must agree within a generous value tolerance (the rank
    # bound is far tighter than 2 % of the value on this distribution).
    for key, cell in exact["cells"].items():
        streamed = streaming["cells"][key]
        assert streamed["n"] == cell["n"], key
        assert streamed["domains"] == cell["domains"], key
        assert abs(streamed["median"] - cell["median"]) <= 0.02 * abs(
            cell["median"]
        ), key

    print(
        f"\nanalysis over {RSS_PROBE_RECORDS} records: "
        f"exact +{exact['growth_kib'] / 1024:.1f} MiB in {exact['wall_s']:.1f} s, "
        f"streaming +{streaming['growth_kib'] / 1024:.1f} MiB in "
        f"{streaming['wall_s']:.1f} s (ceiling {ANALYSIS_RSS_CEILING_MIB} MiB)"
    )
    for report in (exact, streaming):
        assert report["growth_kib"] <= ANALYSIS_RSS_CEILING_MIB * 1024, (
            f"{report['mode']} analysis grew peak RSS by "
            f"{report['growth_kib'] / 1024:.1f} MiB "
            f"(ceiling {ANALYSIS_RSS_CEILING_MIB} MiB)"
        )
    assert exact["wall_s"] <= EXACT_OVER_STREAMING_MAX * streaming["wall_s"], (
        f"exact fold took {exact['wall_s']:.2f} s, more than "
        f"{EXACT_OVER_STREAMING_MAX}x streaming's {streaming['wall_s']:.2f} s"
    )

