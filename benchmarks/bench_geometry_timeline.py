"""Batch geometry kernel: identity with the scan path plus speedup.

Sweeps 24 hours of scheduler epochs for four cities two ways — the
per-epoch scan (``BentPipeModel._scan_epoch``, what a link-state table
miss runs) and the batched kernel
(:func:`repro.starlink.timeline.compute_serving_timeline`) — asserts
the :class:`ServingGeometry` sequences are bit-identical (the
determinism contract), and on machines with at least 2 cores asserts
the >= 5x speedup target.  On constrained runners the speedup is
reported but not asserted; identity always is.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.pop import pop_for_city
from repro.starlink.timeline import compute_serving_timeline

CITIES = ("london", "seattle", "sydney", "barcelona")
SWEEP_S = 24 * 3600.0
SPEEDUP_TARGET = 5.0
MIN_CORES_FOR_TARGET = 2


def _models():
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    return {
        name: BentPipeModel(
            shell, city(name).location, pop_for_city(name).gateway, name
        )
        for name in CITIES
    }


def _scan_sweep(models, n_epochs):
    sequences = {}
    for name, model in models.items():
        sequences[name] = [model._scan_epoch(epoch) for epoch in range(n_epochs)]
    return sequences


def _timeline_sweep(models, n_epochs):
    sequences = {}
    for name, model in models.items():
        sequences[name] = compute_serving_timeline(
            model.shell,
            model.terminal,
            model.gateway,
            np.arange(n_epochs),
            min_elevation_deg=model.min_elevation_deg,
            obstruction=model.obstruction,
        )
    return sequences


def test_timeline_sweep_identity_and_speedup(benchmark):
    models = _models()
    n_epochs = int(SWEEP_S / STARLINK_RESCHEDULE_INTERVAL_S)
    # Warm both paths (lazy imports, allocator pools) before timing.
    _scan_sweep(models, 4)
    _timeline_sweep(models, 4)

    started = time.perf_counter()
    scan = _scan_sweep(models, n_epochs)
    scan_s = time.perf_counter() - started

    def sweep():
        return _timeline_sweep(models, n_epochs)

    started = time.perf_counter()
    timeline = benchmark.pedantic(sweep, rounds=1, iterations=1)
    timeline_s = time.perf_counter() - started

    # Identity: the acceptance criterion that holds on any machine.
    # ServingGeometry is a frozen dataclass, so == compares the
    # satellite name and the float ranges/elevation exactly.
    for name in CITIES:
        assert len(timeline[name]) == n_epochs
        assert timeline[name] == scan[name]

    speedup = scan_s / timeline_s if timeline_s > 0 else float("inf")
    print(
        f"\n{len(CITIES)} cities x {n_epochs} epochs (24 h): "
        f"scan {scan_s:.2f}s, timeline {timeline_s:.2f}s, "
        f"speedup {speedup:.2f}x on {os.cpu_count()} core(s)"
    )
    if (os.cpu_count() or 1) >= MIN_CORES_FOR_TARGET:
        assert speedup >= SPEEDUP_TARGET, (
            f"timeline speedup {speedup:.2f}x below the {SPEEDUP_TARGET}x "
            f"target on a {os.cpu_count()}-core machine"
        )
