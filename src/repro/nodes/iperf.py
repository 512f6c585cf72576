"""iperf3-style throughput and loss tests.

Two fidelities, mirroring how the experiments use them:

* **Packet-level** (:func:`run_iperf_tcp`, :func:`run_udp_burst`): real
  TCP flows / UDP packet trains over an :class:`AccessPath`'s simulated
  network.  Used where transport dynamics are the object of study
  (Figure 8's congestion-control comparison, validation tests).
* **Analytic** (:func:`analytic_udp_loss_fraction`): expected loss over
  a test window from the handover-burst loss process, with binomial
  sampling at the probe rate.  Used for the hundreds of cron-driven
  tests behind Figures 6(c) and 7, where packet-simulating tens of
  millions of packets would add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.knobs import resolve
from repro.net.packet import Packet, Protocol
from repro.starlink.access import AccessPath
from repro.tcp.flow import TcpFlow
from repro.units import bps_to_mbps


@dataclass(frozen=True)
class IperfResult:
    """One iperf3 TCP test.

    Attributes:
        cc: Congestion-control algorithm used.
        duration_s: Configured test length.
        goodput_mbps: Application-level goodput.
        retransmits: Retransmitted segments (iperf3's Retr column).
        timeouts: RTO events.
        min_rtt_ms: Connection minimum RTT observed.
    """

    cc: str
    duration_s: float
    goodput_mbps: float
    retransmits: int
    timeouts: int
    min_rtt_ms: float


@dataclass(frozen=True)
class UdpBurstResult:
    """One UDP burst test (iperf3 -u style)."""

    offered_mbps: float
    achieved_mbps: float
    loss_fraction: float
    packets_sent: int
    packets_received: int


def run_iperf_tcp(
    path: AccessPath,
    cc: str = "cubic",
    duration_s: float = 10.0,
    download: bool = True,
    drain_s: float = 3.0,
    engine: str | None = None,
) -> IperfResult:
    """Run a TCP throughput test over a built access path.

    ``download=True`` sends server->client (the usual iperf3 -R
    direction for the paper's downlink measurements).  ``engine``
    overrides the path's resolved packet engine (``"event"`` runs the
    heap-driven oracle, ``"batch"`` the vectorised engine of
    :mod:`repro.net.batch`).
    """
    if resolve("engine", engine or path.engine) == "batch":
        from repro.net.batch import run_iperf_tcp_batch

        return run_iperf_tcp_batch(
            path, cc=cc, duration_s=duration_s, download=download, drain_s=drain_s
        )
    src, dst = (path.server, path.client) if download else (path.client, path.server)
    flow = TcpFlow(path.network, src, dst, cc=cc, duration_s=duration_s,
                   start_s=path.network.sim.now)
    path.network.sim.run(until=flow.stats.start_s + duration_s + drain_s)
    goodput = flow.stats.delivered_bytes * 8.0 / duration_s
    min_rtt = flow.rtt.min_rtt_s
    return IperfResult(
        cc=cc,
        duration_s=duration_s,
        goodput_mbps=bps_to_mbps(goodput),
        retransmits=flow.stats.retransmits,
        timeouts=flow.stats.timeouts,
        min_rtt_ms=(min_rtt * 1000.0) if min_rtt != float("inf") else float("nan"),
    )


def run_udp_burst(
    path: AccessPath,
    rate_bps: float,
    duration_s: float = 5.0,
    packet_bytes: int = 1472,
    download: bool = True,
    drain_s: float = 3.0,
    engine: str | None = None,
) -> UdpBurstResult:
    """Blast UDP at a fixed rate and measure delivery (iperf3 -u).

    The paper uses UDP bursts to estimate the maximum achievable link
    rate, normalising Figure 8's TCP results against it.  ``engine``
    overrides the path's resolved packet engine.
    """
    if resolve("engine", engine or path.engine) == "batch":
        from repro.net.batch import run_udp_burst_batch

        return run_udp_burst_batch(
            path,
            rate_bps,
            duration_s=duration_s,
            packet_bytes=packet_bytes,
            download=download,
            drain_s=drain_s,
        )
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive: {rate_bps}")
    network = path.network
    src, dst = (path.server, path.client) if download else (path.client, path.server)
    source = network.node(src)
    sink = network.node(dst)
    flow_id = f"udp-burst-{id(path)}-{network.sim.now}"
    received = [0]

    def on_packet(packet: Packet, now: float) -> None:
        received[0] += 1

    sink.register_handler(flow_id, on_packet)
    interval = packet_bytes * 8.0 / rate_bps
    n_packets = int(duration_s / interval)
    base = network.sim.now

    def send(seq: int) -> None:
        source.send(
            Packet(
                src=src,
                dst=dst,
                protocol=Protocol.UDP,
                size_bytes=packet_bytes + 28,
                flow_id=flow_id,
                seq=seq,
                created_s=network.sim.now,
            )
        )

    for seq in range(n_packets):
        network.sim.schedule_at(base + seq * interval, send, seq)
    network.sim.run(until=base + duration_s + drain_s)
    sink.unregister_handler(flow_id)
    achieved = received[0] * packet_bytes * 8.0 / duration_s
    loss = 1.0 - received[0] / n_packets if n_packets else 0.0
    return UdpBurstResult(
        offered_mbps=bps_to_mbps(rate_bps),
        achieved_mbps=bps_to_mbps(achieved),
        loss_fraction=loss,
        packets_sent=n_packets,
        packets_received=received[0],
    )


def analytic_udp_loss_fraction(
    loss_probability_at,
    start_s: float,
    end_s: float,
    rate_pps: float,
    rng: np.random.Generator,
    step_s: float = 0.5,
) -> float:
    """Expected-loss measurement of a UDP test window, with sampling noise.

    Args:
        loss_probability_at: ``f(t) -> probability`` (e.g. the handover
            burst model's :meth:`loss_probability_at`).
        start_s / end_s: Test window.
        rate_pps: Probe rate, packets/second.
        rng: Sampling-noise source (binomial per step).
        step_s: Integration step.

    Returns:
        The measured loss fraction for the window.
    """
    if end_s <= start_s:
        raise ConfigurationError("end must exceed start")
    steps = np.arange(start_s, end_s, step_s)
    sent_total = 0
    lost_total = 0
    per_step = max(1, int(rate_pps * step_s))
    for t in steps:
        probability = float(loss_probability_at(float(t)))
        lost_total += int(rng.binomial(per_step, min(1.0, max(0.0, probability))))
        sent_total += per_step
    return lost_total / sent_total if sent_total else 0.0
