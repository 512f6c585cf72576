"""Timeline-backed packet-level paths: identity with on-demand scans.

Builds the Figure 5-style Starlink access path for three cities two
ways — on demand (the link state behind the link delay provider scans
each epoch on first use) and timeline-backed
(``Scenario.precompute`` runs the batched kernel once, queries become
O(1) lookups) — then samples link rates and propagation delays across
a 12-hour window.  The samples must be bit-identical (attaching a
timeline never changes a built path); on machines with at least 2
cores the precomputed arm must also be >= 3x faster.  On constrained
runners the speedup is reported but not asserted; identity always is.
"""

from __future__ import annotations

import os
import time

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.access import AccessConfig, Scenario
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.pop import pop_for_city

CITIES = ("london", "seattle", "sydney")
SWEEP_S = 12 * 3600.0
SPEEDUP_TARGET = 3.0
MIN_CORES_FOR_TARGET = 2


def _scenarios(shell):
    server = city("n_virginia").location
    return {
        name: Scenario.starlink(
            BentPipeModel(
                shell, city(name).location, pop_for_city(name).gateway, name
            ),
            server,
            AccessConfig(seed=0),
        )
        for name in CITIES
    }


def _sample_paths(scenarios, n_epochs):
    """Per-city (rates, delay series) fingerprints over the sweep."""
    samples = {}
    for name, scenario in scenarios.items():
        path = scenario.build()
        delays = [
            path.access_reverse.propagation_delay_s(
                epoch * STARLINK_RESCHEDULE_INTERVAL_S
            )
            for epoch in range(n_epochs)
        ]
        samples[name] = (
            path.access_forward.rate_bps,
            path.access_reverse.rate_bps,
            delays,
        )
    return samples


def test_access_path_timeline_identity_and_speedup(benchmark):
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    n_epochs = int(SWEEP_S / STARLINK_RESCHEDULE_INTERVAL_S)

    # Warm both arms (lazy imports, allocator pools) before timing; the
    # on-demand arm warms on throwaway scenarios so its timed sweep
    # scans every epoch.
    _sample_paths(_scenarios(shell), 4)
    on_demand = _scenarios(shell)
    precomputed = _scenarios(shell)
    _sample_paths(precomputed, 4)

    started = time.perf_counter()
    scan_samples = _sample_paths(on_demand, n_epochs)
    scan_s = time.perf_counter() - started

    def sweep():
        for scenario in precomputed.values():
            scenario.precompute(duration_s=SWEEP_S)
        return _sample_paths(precomputed, n_epochs)

    started = time.perf_counter()
    timeline_samples = benchmark.pedantic(sweep, rounds=1, iterations=1)
    timeline_s = time.perf_counter() - started

    # Identity: the acceptance criterion that holds on any machine —
    # rates and delay floats compare exactly, no tolerance.
    for name in CITIES:
        assert timeline_samples[name] == scan_samples[name]

    speedup = scan_s / timeline_s if timeline_s > 0 else float("inf")
    print(
        f"\n{len(CITIES)} paths x {n_epochs} epochs (12 h): "
        f"on-demand {scan_s:.2f}s, timeline-backed {timeline_s:.2f}s, "
        f"speedup {speedup:.2f}x on {os.cpu_count()} core(s)"
    )
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_TARGET:
        assert speedup >= SPEEDUP_TARGET, (
            f"timeline-backed speedup {speedup:.2f}x below the "
            f"{SPEEDUP_TARGET}x target on a {os.cpu_count()}-core machine"
        )
