"""Figure 8: congestion-control performance, Starlink vs campus Wi-Fi.

Stress test of the five congestion-control algorithms available on the
RPi's Debian image (BBR, CUBIC, Reno, Veno, Vegas), each normalised by
the maximum achievable rate measured with UDP bursts.  Paper findings:
BBR clearly ahead on Starlink but still only ~half the UDP-achievable
rate; on campus Wi-Fi (a low/no-loss regime) BBR exceeds 90% — i.e.
Starlink's handover loss is heavy even for loss-tolerant designs.

Every flow runs on the batch packet engine (:mod:`repro.net.batch`),
within its DESIGN.md §10 fidelity limits; the result's ``notes`` say
so.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register
from repro.geo.cities import city
from repro.nodes.rpi import MeasurementNode
from repro.orbits.constellation import starlink_shell1
from repro.starlink.access import AccessConfig, Scenario
from repro.units import mbps_to_bps
from repro.weather.history import WeatherHistory

CCAS = ("bbr", "cubic", "reno", "veno", "vegas")
LINK_RATE_BPS = mbps_to_bps(30.0)

# Handover-burst severity for the stress window.  Heavier than the
# steady-state Figure 6(c)/7 parameters: the paper's stress test ran for
# long stretches and its normalised BBR throughput (~0.5) implies
# sustained severe bursts; see DESIGN.md's ablation notes.
BURST = dict(burst_duration_s=6.0, burst_loss=0.5, outage_loss=0.9, residual_loss=0.01)

# Beyond per-handover bursts, the 2021/22-era terminal briefly blanked
# at every 15-second scheduler reconfiguration.  These micro-outages
# are what cap even BBR around half the UDP-achievable rate: the gap
# itself loses ~10% of wall-clock, and the retransmission/RTO recovery
# after each gap loses more.
EPOCH_GAP_S = 2.5
EPOCH_GAP_LOSS = 0.97


def _starlink_path(
    node: MeasurementNode,
    t_s: float,
    duration_s: float,
    seed: int,
    with_epoch_gaps: bool = True,
):
    from repro.net.loss import HandoverBurstLoss
    from repro.rng import stream

    loss_dl, _, _ = node.bentpipe.handover_loss_model(
        t_s, t_s + duration_s + 15.0, seed=seed, time_offset_s=t_s, **BURST
    )
    if with_epoch_gaps:
        epoch_windows = [
            (float(t), float(t) + EPOCH_GAP_S, EPOCH_GAP_LOSS)
            for t in range(0, int(duration_s + 15.0), 15)
        ]
        merged = sorted(loss_dl.burst_windows + epoch_windows, key=lambda w: w[0])
        loss_dl = HandoverBurstLoss(
            burst_windows=merged,
            residual_loss=loss_dl.residual_loss,
            rng=stream(seed, "figure8-loss"),
        )
    config = AccessConfig(
        dl_rate_bps=LINK_RATE_BPS,
        ul_rate_bps=mbps_to_bps(12.0),
        loss_dl=loss_dl,
        time_offset_s=t_s,
        stochastic_wireless_queueing=False,
        seed=seed,
    )
    return Scenario.starlink(
        node.bentpipe, node.server_city.location, config
    ).build()


def _wifi_path(seed: int):
    london = city("london")
    config = AccessConfig(
        dl_rate_bps=LINK_RATE_BPS,
        ul_rate_bps=mbps_to_bps(12.0),
        seed=seed,
        transit_queue_mean_s=0.0001,  # campus network to a metro GCP site
    )
    return Scenario.broadband(
        london.location, city("gcp_london").location, config
    ).build()


@register("figure8")
def run(
    seed: int = 0, scale: float = 1.0, n_workers: int = 1
) -> ExperimentResult:
    """Run the CCA matrix on both environments."""
    from repro.net.batch import run_iperf_tcp_batch, run_udp_burst_batch

    duration_s = max(20.0, 60.0 * scale)
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    weather = WeatherHistory(seed=seed, duration_s=2 * 86_400.0)
    node = MeasurementNode("wiltshire", shell=shell, weather=weather, seed=seed)
    t_start = 4 * 3600.0
    # Every CCA run replays the same [t_start, t_start + duration) window;
    # fill its link states in one batch pass instead of scanning per epoch.
    node.precompute_geometry([t_start], horizon_s=duration_s + 30.0)

    # Normalisation: UDP-burst achievable rate per environment.  The
    # paper's UDP burst measures the *maximum achievable* rate, i.e. a
    # best-case window — so the Starlink normaliser excludes the
    # reconfiguration gaps (handover residual loss only).
    udp_starlink = run_udp_burst_batch(
        _starlink_path(node, t_start, duration_s, seed, with_epoch_gaps=False),
        rate_bps=LINK_RATE_BPS,
        duration_s=min(20.0, duration_s),
    )
    udp_wifi = run_udp_burst_batch(
        _wifi_path(seed), rate_bps=LINK_RATE_BPS, duration_s=min(20.0, duration_s)
    )

    headers = ["cc", "Starlink (norm)", "Wi-Fi (norm)", "Starlink Mbps", "Wi-Fi Mbps"]
    rows = []
    metrics: dict[str, float] = {
        "udp_achievable_starlink_mbps": udp_starlink.achieved_mbps,
        "udp_achievable_wifi_mbps": udp_wifi.achieved_mbps,
    }
    for cc in CCAS:
        starlink_result = run_iperf_tcp_batch(
            _starlink_path(node, t_start, duration_s, seed),
            cc=cc,
            duration_s=duration_s,
        )
        wifi_result = run_iperf_tcp_batch(
            _wifi_path(seed), cc=cc, duration_s=duration_s
        )
        norm_starlink = starlink_result.goodput_mbps / udp_starlink.achieved_mbps
        norm_wifi = wifi_result.goodput_mbps / udp_wifi.achieved_mbps
        rows.append(
            [
                cc,
                norm_starlink,
                norm_wifi,
                starlink_result.goodput_mbps,
                wifi_result.goodput_mbps,
            ]
        )
        metrics[f"{cc}_starlink_norm"] = norm_starlink
        metrics[f"{cc}_wifi_norm"] = norm_wifi

    best_other = max(metrics[f"{cc}_starlink_norm"] for cc in CCAS if cc != "bbr")
    metrics["bbr_advantage_on_starlink"] = metrics["bbr_starlink_norm"] / best_other

    return ExperimentResult(
        experiment_id="figure8",
        title="Normalised TCP throughput per CCA: Starlink vs campus Wi-Fi",
        headers=headers,
        rows=rows,
        metrics=metrics,
        paper_reference={
            "bbr_starlink_norm": "~0.5 (best, yet only half the UDP rate)",
            "others_starlink_norm": "~0.1-0.2 (CUBIC/Reno/Veno/Vegas)",
            "bbr_wifi_norm": "> 0.9",
        },
        notes=(
            "Link rate scaled to 30 Mbps for simulation tractability; the "
            "normalised comparison is rate-invariant.  Every flow runs on "
            "the batch packet engine, whose round model has two known "
            "limits (DESIGN.md §10): Vegas biases high, and the no-SACK "
            "Reno/Veno slow-start overshoot is not reproduced."
        ),
    )
