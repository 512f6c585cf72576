"""Figure 5: per-hop RTT for Starlink vs broadband vs cellular.

Traceroute (20 runs) from one London vantage point to a server in
N. Virginia over three access technologies.  Paper findings: broadband
(university Wi-Fi) fastest; Starlink in between, paying a large jump on
the hop that crosses the bent pipe to the Starlink PoP; cellular
slowest with a high first (radio) hop; all three pay the transatlantic
hop.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult, register, scaled
from repro.geo.cities import city
from repro.net.trace import traceroute
from repro.orbits.constellation import starlink_shell1
from repro.starlink.access import AccessConfig, Scenario
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.pop import pop_for_city
from repro.weather.history import WeatherHistory


@register("figure5")
def run(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """Traceroute the three access paths and tabulate per-hop medians."""
    runs = scaled(20, scale, minimum=5)
    london = city("london")
    virginia = city("n_virginia")
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    weather = WeatherHistory(seed=seed, duration_s=2 * 86_400.0)
    bentpipe = BentPipeModel(
        shell,
        london.location,
        pop_for_city("london").gateway,
        "london",
        weather=weather,
        seed=seed,
    )
    t_offset = 12 * 3600.0  # midday local

    config = AccessConfig(time_offset_s=t_offset, seed=seed)
    starlink = Scenario.starlink(bentpipe, virginia.location, config)
    # Traceroute probes land in the first simulated minutes; fill that
    # window's link states in one batch pass so per-probe delay queries
    # hit the bent pipe's table.
    starlink.precompute(duration_s=600.0)
    paths = {
        "starlink": starlink.build(),
        "broadband": Scenario.broadband(
            london.location, virginia.location, AccessConfig(seed=seed)
        ).build(),
        "cellular": Scenario.cellular(
            london.location, virginia.location, AccessConfig(seed=seed)
        ).build(),
    }

    headers = ["technology", "hop", "responder", "median RTT (ms)"]
    rows = []
    metrics: dict[str, float] = {}
    for name, path in paths.items():
        per_hop: dict[int, list[float]] = {}
        responders: dict[int, str] = {}
        for _ in range(runs):
            trace = traceroute(path.network, path.client, path.server, probes_per_hop=1)
            for hop in trace.hops:
                if hop.rtts_s:
                    per_hop.setdefault(hop.ttl, []).extend(hop.rtts_s)
                    responders[hop.ttl] = hop.responder or "?"
        last_median = float("nan")
        first_median = float("nan")
        for ttl in sorted(per_hop):
            med = float(np.median(per_hop[ttl])) * 1000.0
            rows.append([name, ttl, responders[ttl], med])
            if ttl == 1:
                first_median = med
            last_median = med
        metrics[f"{name}_first_hop_ms"] = first_median
        metrics[f"{name}_final_rtt_ms"] = last_median
        if name == "starlink":
            pop_hops = [t for t, r in responders.items() if r == "starlink-pop"]
            if pop_hops:
                metrics["starlink_pop_hop_ms"] = float(
                    np.median(per_hop[pop_hops[0]])
                ) * 1000.0

    return ExperimentResult(
        experiment_id="figure5",
        title="Per-hop RTT, London -> N. Virginia, three access technologies",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "ordering_final": "broadband < starlink < cellular",
            "starlink_jump": "large RTT step at the Starlink PoP (bent pipe)",
            "cellular_first_hop": "high (~40+ ms) radio hop",
            "shared": "all pay the transatlantic segment",
        },
    )
