"""In-memory span recorder that wraps layer functions from outside.

The benchmark traces the program without editing it: every target is
replaced, at the place callers look it up, by a wrapper that records one
span (name, start, end, parent) per call.  A method is replaced on its
class; a module-level function is replaced in every ``repro`` module that
holds it, so ``from x import f`` sites are covered too.  Spans live in
four flat arrays while the round runs and are summarised (and optionally
saved) once it ends; a span's self time is its duration minus the
durations of its direct children.

Only the thread that installed the recorder is traced, and a forked child
process restores the original functions, so worker processes run the
program untraced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from array import array

import numpy as np

#: ``(layer, "module:qualname")``.  ``Class.*`` traces every public method
#: the class itself defines, under one span name.  The layers are the
#: program's packages; the functions are their public entry points.
TARGETS = (
    ("orbits", "repro.orbits.constellation:WalkerShell.positions_ecef"),
    ("orbits", "repro.orbits.constellation:WalkerShell.positions_ecef_batch"),
    ("orbits", "repro.orbits.tracking:SatelliteTracker.track"),
    ("starlink", "repro.starlink.bentpipe:BentPipeModel.serving_geometry"),
    ("starlink", "repro.starlink.bentpipe:BentPipeModel.sample_rtt_to_pop_s"),
    ("starlink", "repro.starlink.bentpipe:BentPipeModel.impairment_at"),
    ("starlink", "repro.starlink.bentpipe:BentPipeModel.base_one_way_delay_s"),
    ("starlink", "repro.starlink.bentpipe:BentPipeModel.capacity_bps"),
    ("starlink", "repro.starlink.timeline:compute_serving_timeline"),
    ("weather", "repro.weather.impairment:impairment_for"),
    ("weather", "repro.weather.history:WeatherHistory.condition_at"),
    ("web", "repro.web.browser:PageLoadSimulator.load"),
    ("web", "repro.web.hosting:HostingModel.resolve"),
    ("web", "repro.web.page:PageProfileGenerator.draw"),
    ("web", "repro.web.speedtest:run_browser_speedtest"),
    ("extension", "repro.extension.campaign:ExtensionCampaign.run_user"),
    ("extension", "repro.extension.sessions:SessionGenerator.events"),
    ("extension", "repro.extension.storage:Dataset.extend_page_loads"),
    ("extension", "repro.extension.storage:Dataset.extend_speedtests"),
    ("extension", "repro.extension.storage:Dataset.flush"),
    ("runtime", "repro.runtime.supervision:supervise_shards"),
    ("runtime", "repro.runtime.merge:merge_shard_results"),
    ("runtime", "repro.runtime.fabric:FabricCoordinator.run"),
    ("runtime", "repro.runtime.store:FsStore.*"),
    ("analysis", "repro.extension.storage:Dataset.request_count"),
    ("analysis", "repro.extension.storage:Dataset.unique_domains"),
    ("analysis", "repro.extension.storage:Dataset.median_ptt_ms"),
    ("analysis", "repro.analysis.streaming:stream_table1_stats"),
    ("net", "repro.net.simulator:Simulator.run"),
    ("net", "repro.net.trace:traceroute"),
    ("net", "repro.net.batch:run_iperf_tcp_batch"),
    ("net", "repro.net.batch:run_udp_burst_batch"),
)


def span_name(layer: str, target: str) -> str:
    """``layer.qualname`` with a trailing ``.*`` dropped."""
    return f"{layer}.{target.split(':', 1)[1].removesuffix('.*')}"


def span_names() -> list[str]:
    """Every span name :data:`TARGETS` produces, in order."""
    return [span_name(layer, target) for layer, target in TARGETS]


class SpanRecorder:
    """Records spans of the wrapped functions on the installing thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self.started = self.stopped = 0.0

    def _wrap(self, name_id: int, fn):
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        thread, get_ident, clock = self._thread, threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, original, name_id: int) -> None:
        setattr(owner, attr, self._wrap(name_id, original))
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target wherever callers look it up."""
        for layer, target in TARGETS:
            module_name, qualname = target.split(":", 1)
            module = importlib.import_module(module_name)
            name_id = len(self.names)
            self.names.append(span_name(layer, target))
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                attrs = (
                    [a for a, v in vars(cls).items() if callable(v) and a[0] != "_"]
                    if attr == "*"
                    else [attr]
                )
                for each in attrs:
                    self._replace(cls, each, vars(cls)[each], name_id)
                continue
            original = getattr(module, attr)
            holders = [
                (held, key)
                for mod_name, held in list(sys.modules.items())
                if mod_name.split(".", 1)[0] == "repro"
                for key, value in list(vars(held).items())
                if value is original
            ]
            for held, key in holders:
                self._replace(held, key, original, name_id)
        os.register_at_fork(after_in_child=self.uninstall)
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def stop(self) -> None:
        """End the traced window and restore the program."""
        self.stopped = time.perf_counter()
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans and their names to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-span-name calls, self/total seconds and call percentiles.

        ``total_s`` sums inclusive durations, so a recursive call counts
        at every level; ``self_s`` never double-counts, and the self
        times of all names sum to at most :attr:`wall_s`.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        functions = {}
        for name_id, name in enumerate(self.names):
            mine = spans["name"] == name_id
            calls = int(mine.sum())
            p50, p95 = np.percentile(duration[mine], [50, 95]) if calls else (0, 0)
            functions[name] = {
                "calls": calls,
                "self_s": float(own[mine].sum()),
                "total_s": float(duration[mine].sum()),
                "p50_s": float(p50),
                "p95_s": float(p95),
            }
        return {
            "wall_s": self.stopped - self.started,
            "spans": int(len(duration)),
            "functions": functions,
        }
