"""Beyond-the-paper experiments: the paper's own future-work items.

* ``extension_isl`` — quantifies the §4 takeaway that inter-satellite
  links would offset the bent-pipe latency on long paths: latency-
  optimal routing over a +grid ISL constellation vs terrestrial fibre
  vs the measured bent-pipe + fibre path.
* ``extension_geo`` — quantifies the introduction's LEO-vs-GEO claim:
  a geostationary bent pipe pays ~480 ms of physics before anything
  else happens.
* ``extension_transport`` — implements and evaluates the §5 takeaway
  ("new transport protocols specially adapted to LEO"): BBR-LEO keeps
  its model across blackout timeouts and recovers at full rate.
* ``ablation_ptt`` — demonstrates why the paper defines PTT at all:
  with heterogeneous user devices, PLT comparisons invert the true
  network ordering while PTT preserves it.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult, register, scaled
from repro.geo.cities import city
from repro.rng import stream


@register("extension_isl")
def run_isl_extension(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """ISL space paths vs terrestrial fibre vs bent pipe + fibre."""
    from repro.orbits.constellation import starlink_shell1
    from repro.orbits.isl import IslNetwork
    from repro.starlink.access import terrestrial_delay_s
    from repro.starlink.bentpipe import BentPipeModel
    from repro.starlink.pop import pop_for_city

    n_times = scaled(8, scale, minimum=3)
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    isl = IslNetwork(shell)
    pairs = [
        ("london", "gcp_london"),  # short: fibre should win
        ("london", "n_virginia"),  # transatlantic
        ("london", "sydney"),  # antipodal-ish: ISL should win big
        ("seattle", "n_virginia"),  # transcontinental
    ]
    times = np.linspace(0.0, 900.0, n_times)
    headers = ["pair", "fibre (ms)", "ISL (ms)", "bent pipe+fibre (ms)", "ISL hops"]
    rows = []
    metrics: dict[str, float] = {"n_isls": float(isl.n_isls)}
    for src_name, dst_name in pairs:
        src = city(src_name).location
        dst = city(dst_name).location
        fibre_ms = terrestrial_delay_s(src, dst) * 1000.0
        isl_paths = [isl.route(src, dst, float(t)) for t in times]
        isl_ms = float(np.median([p.latency_s for p in isl_paths])) * 1000.0
        hops = float(np.median([p.n_isl_hops for p in isl_paths]))
        # Measured-architecture path: bent pipe to the local PoP, then fibre.
        bentpipe = BentPipeModel(
            shell,
            src,
            pop_for_city(src_name if src_name != "gcp_london" else "london").gateway,
            src_name if src_name != "gcp_london" else "london",
            seed=seed,
        )
        bent_ms = float(
            np.median(
                [
                    bentpipe.base_one_way_delay_s(float(t))
                    + terrestrial_delay_s(bentpipe.gateway, dst)
                    for t in times
                    if not bentpipe.is_outage(float(t))
                ]
            )
        ) * 1000.0
        key = f"{src_name}_to_{dst_name}"
        rows.append([f"{src_name}->{dst_name}", fibre_ms, isl_ms, bent_ms, hops])
        metrics[f"{key}_fibre_ms"] = fibre_ms
        metrics[f"{key}_isl_ms"] = isl_ms
        metrics[f"{key}_bentpipe_ms"] = bent_ms
    metrics["isl_beats_fibre_london_sydney"] = float(
        metrics["london_to_sydney_isl_ms"] < metrics["london_to_sydney_fibre_ms"]
    )
    metrics["fibre_beats_isl_short_path"] = float(
        metrics["london_to_gcp_london_fibre_ms"]
        < metrics["london_to_gcp_london_isl_ms"]
    )
    return ExperimentResult(
        experiment_id="extension_isl",
        title="Inter-satellite-link routing vs fibre vs bent pipe (one-way)",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "takeaway_s4": (
                "distant endpoints may not see Starlink's full benefits "
                "until ISLs offset the bent pipe with faster-than-fibre "
                "crossings [8, 24, 25]"
            ),
        },
        notes=(
            "Vacuum light beats fibre by 3/2: the space path wins on long "
            "routes despite the up/down legs, and loses on metro routes."
        ),
    )


@register("extension_geo")
def run_geo_extension(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """GEO vs Starlink vs broadband RTT (the introduction's contrast)."""
    from repro.net.ping import ping
    from repro.orbits.constellation import starlink_shell1
    from repro.starlink.access import AccessConfig, Scenario
    from repro.starlink.bentpipe import BentPipeModel
    from repro.starlink.pop import pop_for_city

    count = scaled(10, scale, minimum=5)
    london = city("london").location
    virginia = city("n_virginia").location
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    bentpipe = BentPipeModel(
        shell, london, pop_for_city("london").gateway, "london", seed=seed
    )

    starlink = Scenario.starlink(
        bentpipe, virginia, AccessConfig(time_offset_s=3600.0, seed=seed)
    )
    starlink.precompute(duration_s=60.0)  # ping window
    paths = {
        "broadband": Scenario.broadband(
            london, virginia, AccessConfig(seed=seed)
        ).build(),
        "starlink": starlink.build(),
        "geo": Scenario.geo(london, virginia, AccessConfig(seed=seed)).build(),
    }
    headers = ["technology", "median RTT (ms)"]
    rows = []
    metrics: dict[str, float] = {}
    for name, path in paths.items():
        result = ping(
            path.network, path.client, path.server, count=count, timeout_s=3.0
        )
        rtts = sorted(result.rtts_s)
        median_ms = rtts[len(rtts) // 2] * 1000.0
        rows.append([name, median_ms])
        metrics[f"{name}_rtt_ms"] = median_ms
    metrics["geo_over_starlink"] = metrics["geo_rtt_ms"] / metrics["starlink_rtt_ms"]
    return ExperimentResult(
        experiment_id="extension_geo",
        title="GEO vs Starlink vs broadband RTT, London -> N. Virginia",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "intro": (
                "GEO satellites sit ~35,000 km away; LEO's 550 km allows "
                "latencies comparable to traditional broadband"
            ),
            "geo_physics_floor_ms": "~480 RTT before queueing/transit",
        },
    )


@register("extension_transport")
def run_transport_extension(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """BBR vs BBR-LEO on the Figure 8 blackout-heavy Starlink link."""
    from repro.experiments.figure8 import LINK_RATE_BPS, _starlink_path
    from repro.nodes.iperf import run_iperf_tcp, run_udp_burst
    from repro.nodes.rpi import MeasurementNode
    from repro.orbits.constellation import starlink_shell1
    from repro.weather.history import WeatherHistory

    duration_s = max(20.0, 60.0 * scale)
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    weather = WeatherHistory(seed=seed, duration_s=2 * 86_400.0)
    node = MeasurementNode("wiltshire", shell=shell, weather=weather, seed=seed)
    t_start = 4 * 3600.0
    # Same schedule as figure8: one fill of the node's link states
    # covers every CCA run.
    node.precompute_geometry([t_start], horizon_s=duration_s + 30.0)

    udp = run_udp_burst(
        _starlink_path(node, t_start, duration_s, seed, with_epoch_gaps=False),
        rate_bps=LINK_RATE_BPS,
        duration_s=min(20.0, duration_s),
    )
    headers = ["cc", "goodput (Mbps)", "normalised", "timeouts"]
    rows = []
    metrics: dict[str, float] = {"udp_achievable_mbps": udp.achieved_mbps}
    for cc in ("bbr", "bbr-leo"):
        result = run_iperf_tcp(
            _starlink_path(node, t_start, duration_s, seed),
            cc=cc,
            duration_s=duration_s,
        )
        norm = result.goodput_mbps / udp.achieved_mbps
        rows.append([cc, result.goodput_mbps, norm, result.timeouts])
        metrics[f"{cc.replace('-', '_')}_norm"] = norm
    metrics["leo_gain"] = metrics["bbr_leo_norm"] / metrics["bbr_norm"]
    return ExperimentResult(
        experiment_id="extension_transport",
        title="A LEO-adapted transport (BBR-LEO) vs stock BBR",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "takeaway_s5": (
                "it may be possible to develop new transport protocols "
                "specially adapted to LEO connections, delivering full "
                "capacity despite regular periods of high packet loss"
            ),
        },
        notes="BBR-LEO keeps its bandwidth model across blackout RTOs.",
    )


@register("ablation_ptt")
def run_ptt_ablation(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """Why PTT exists: PLT comparisons are confounded by device speed."""
    from repro.web.browser import PageLoadSimulator, StaticConnectionModel
    from repro.web.hosting import HostingModel
    from repro.web.page import PageProfileGenerator
    from repro.web.tranco import TrancoList

    n_visits = scaled(1500, scale, minimum=300)
    tranco = TrancoList()
    hosting = HostingModel(seed=seed)
    pages = PageProfileGenerator()

    # Group A: the faster network, but users on old laptops (4x device
    # cost).  Group B: slower network, fast desktops.
    group_a = PageLoadSimulator(
        StaticConnectionModel(0.035, 0.008, 120e6, 0.002, stream(seed, "net-a"))
    )
    group_b = PageLoadSimulator(
        StaticConnectionModel(0.065, 0.015, 60e6, 0.004, stream(seed, "net-b"))
    )
    device_multiplier = {"a": 4.0, "b": 0.6}

    ptts: dict[str, list[float]] = {"a": [], "b": []}
    plts: dict[str, list[float]] = {"a": [], "b": []}
    rng = stream(seed, "ptt-ablation")
    for group, simulator in (("a", group_a), ("b", group_b)):
        for _ in range(n_visits):
            site = tranco.organic_site(rng)
            resolved = hosting.resolve(site.domain, site.rank, "UK")
            profile = pages.draw(site, rng)
            timing = simulator.load(
                profile,
                resolved,
                3600.0,
                rng,
                device_multiplier=device_multiplier[group],
            )
            ptts[group].append(timing.ptt_ms)
            plts[group].append(timing.plt_ms)

    metrics = {
        "group_a_median_ptt_ms": float(np.median(ptts["a"])),
        "group_b_median_ptt_ms": float(np.median(ptts["b"])),
        "group_a_median_plt_ms": float(np.median(plts["a"])),
        "group_b_median_plt_ms": float(np.median(plts["b"])),
    }
    metrics["ptt_ranks_networks_correctly"] = float(
        metrics["group_a_median_ptt_ms"] < metrics["group_b_median_ptt_ms"]
    )
    metrics["plt_inverts_ranking"] = float(
        metrics["group_a_median_plt_ms"] > metrics["group_b_median_plt_ms"]
    )
    return ExperimentResult(
        experiment_id="ablation_ptt",
        title="PTT vs PLT under heterogeneous devices (why PTT exists)",
        headers=["group", "network", "device", "median PTT (ms)", "median PLT (ms)"],
        rows=[
            ["A", "fast (35 ms RTT)", "slow laptop (4x)",
             metrics["group_a_median_ptt_ms"], metrics["group_a_median_plt_ms"]],
            ["B", "slow (65 ms RTT)", "fast desktop (0.6x)",
             metrics["group_b_median_ptt_ms"], metrics["group_b_median_plt_ms"]],
        ],
        metrics=metrics,
        paper_reference={
            "s3_1": (
                "users may have machines with very different hardware "
                "capabilities ... therefore our analysis focuses mostly "
                "on the PTT"
            ),
        },
    )


@register("extension_quic")
def run_quic_extension(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """HTTP/3 (QUIC) vs HTTP/2 (TCP+TLS) page loads on Starlink.

    The paper's related work notes QUIC was investigated for GEO
    satellite links [18]; on Starlink the win is the handshake round
    trips: QUIC folds transport+crypto into one RTT and 0-RTT resumption
    removes it entirely — worth ~1-2 x the ~50 ms access RTT per cold
    navigation.
    """
    from repro.orbits.constellation import starlink_shell1
    from repro.starlink.asn import AsPlan
    from repro.starlink.bentpipe import BentPipeModel
    from repro.starlink.pop import pop_for_city
    from repro.extension.connection import StarlinkConnectionModel
    from repro.web.browser import PageLoadSimulator
    from repro.web.hosting import HostingModel
    from repro.web.page import PageProfileGenerator
    from repro.web.tranco import TrancoList

    n_visits = scaled(1200, scale, minimum=300)
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    london = city("london")
    bentpipe = BentPipeModel(
        shell, london.location, pop_for_city("london").gateway, "london", seed=seed
    )
    connection = StarlinkConnectionModel(
        bentpipe=bentpipe,
        as_plan=AsPlan(),
        city_name="london",
        rng=stream(seed, "quic-conn"),
    )
    tranco = TrancoList()
    hosting = HostingModel(seed=seed)
    pages = PageProfileGenerator()
    simulators = {
        "http2_tcp_tls": PageLoadSimulator(connection, connection_reuse_rate=0.0),
        "http3_quic": PageLoadSimulator(
            connection, connection_reuse_rate=0.0, use_quic=True
        ),
    }
    headers = ["protocol", "median PTT (ms)", "p90 PTT (ms)"]
    rows = []
    metrics: dict[str, float] = {}
    for name, simulator in simulators.items():
        rng = stream(seed, "quic-visits", name)
        ptts = []
        for _ in range(n_visits):
            site = tranco.organic_site(rng)
            resolved = hosting.resolve(site.domain, site.rank, "UK")
            profile = pages.draw(site, rng)
            ptts.append(simulator.load(profile, resolved, 3600.0, rng).ptt_ms)
        median = float(np.median(ptts))
        p90 = float(np.percentile(ptts, 90))
        rows.append([name, median, p90])
        metrics[f"{name}_median_ptt_ms"] = median
        metrics[f"{name}_p90_ptt_ms"] = p90
    metrics["quic_speedup"] = (
        metrics["http2_tcp_tls_median_ptt_ms"] / metrics["http3_quic_median_ptt_ms"]
    )
    return ExperimentResult(
        experiment_id="extension_quic",
        title="HTTP/3 (QUIC) vs HTTP/2 cold-connection PTT on Starlink",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "related_work": "QUIC benefits were investigated for satellite links [18]",
        },
        notes="Cold connections only (reuse disabled) to isolate handshakes.",
    )


@register("ablation_cell")
def run_cell_ablation(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """Closed-form capacity plan vs emergent cell contention.

    The calibrated per-city plans encode the paper's density hypothesis
    as a formula; the cell scheduler derives per-user throughput from
    an actual population sharing airtime.  If the hypothesis is a
    sufficient mechanism, the emergent model must reproduce the same
    geographic ordering and diurnal swing without being calibrated to
    them.
    """
    from repro.nodes.cron import cron_times
    from repro.starlink.capacity import ServiceCapacityModel
    from repro.starlink.cell import NODE_CELLS, node_cell_scheduler

    days = max(2.0, 6.0 * scale)
    times = cron_times(0.0, days * 86_400.0, 1800.0)
    headers = [
        "node",
        "subscribers",
        "plan median (Mbps)",
        "emergent median (Mbps)",
        "emergent night/evening",
    ]
    rows = []
    metrics: dict[str, float] = {}
    for city_name in ("north_carolina", "wiltshire", "barcelona"):
        plan_model = ServiceCapacityModel(city_name, seed=seed)
        plan_series = np.array(
            [plan_model.capacity_bps(float(t)) / 1e6 for t in times]
        )
        scheduler = node_cell_scheduler(city_name, seed=seed)
        emergent_series = scheduler.throughput_series_mbps(times)
        local_hours = np.array([scheduler.city.local_hour(float(t)) for t in times])
        night = emergent_series[(local_hours >= 0) & (local_hours < 6)]
        evening = emergent_series[(local_hours >= 18) & (local_hours < 24)]
        swing = float(np.median(night) / np.median(evening))
        rows.append(
            [
                city_name,
                NODE_CELLS[city_name].n_subscribers,
                float(np.median(plan_series)),
                float(np.median(emergent_series)),
                swing,
            ]
        )
        metrics[f"{city_name}_plan_median_mbps"] = float(np.median(plan_series))
        metrics[f"{city_name}_emergent_median_mbps"] = float(np.median(emergent_series))
        metrics[f"{city_name}_emergent_diurnal_swing"] = swing
    metrics["emergent_ordering_matches"] = float(
        metrics["barcelona_emergent_median_mbps"]
        > metrics["wiltshire_emergent_median_mbps"]
        > metrics["north_carolina_emergent_median_mbps"]
    )
    metrics["emergent_barcelona_over_nc"] = (
        metrics["barcelona_emergent_median_mbps"]
        / metrics["north_carolina_emergent_median_mbps"]
    )
    return ExperimentResult(
        experiment_id="ablation_cell",
        title="Capacity plan vs emergent subscriber contention",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "s5_hypothesis": (
                "more subscribers in a region -> congestion -> lower "
                "throughput for all; density estimates as low as ~6 "
                "users/km^2 [16, 46]"
            ),
            "figure6a_gap": "Barcelona/NC median ratio ~4.3x",
        },
        notes=(
            "The emergent model is calibrated only by subscriber counts "
            "(availability timeline), not by the throughput targets."
        ),
    )
