"""Batch packet engine: statistical identity with the oracle plus speedup.

Times a campaign-shaped packet workload — UDP bursts (the paper's loss
tests) and TCP iperf flows (Figure 6(b)/Figure 8) over the broadband
access path — under the heap-driven event engine and the vectorised
batch engine, asserts the batch results stay inside the statistical
equivalence bands (DESIGN.md §10), and asserts the >= 10x speedup the
engine exists for.  The workload is UDP-heavy like the real campaigns.
TCP flows whose windows stay small see a lower ratio: a batch round
pays a fixed count of numpy calls per hop however few packets it
carries (about 40x on Figure 8's campus Wi-Fi path against about 90x on
this broadband one, DESIGN.md §10).
"""

from __future__ import annotations

import time

from repro.geo.cities import city
from repro.net.batch import run_iperf_tcp_batch, run_udp_burst_batch
from repro.nodes.iperf import run_iperf_tcp, run_udp_burst
from repro.starlink.access import AccessConfig, Scenario

SPEEDUP_TARGET = 10.0
SEEDS = (1, 2)
#: Each engine's UDP-burst and TCP runners, called directly.
ENGINES = {
    "event": (run_udp_burst, run_iperf_tcp),
    "batch": (run_udp_burst_batch, run_iperf_tcp_batch),
}


def _path(seed: int):
    return Scenario.broadband(
        city("london").location,
        city("n_virginia").location,
        AccessConfig(seed=seed),
    ).build()


def _workload(engine: str) -> dict:
    """One campaign-shaped packet pass; returns summary statistics."""
    udp, tcp = ENGINES[engine]
    udp_received = 0
    udp_sent = 0
    tcp_goodput = 0.0
    for seed in SEEDS:
        burst = udp(_path(seed), rate_bps=90e6, duration_s=8.0)
        udp_received += burst.packets_received
        udp_sent += burst.packets_sent
        for cc in ("cubic", "reno"):
            flow = tcp(_path(seed), cc=cc, duration_s=5.0)
            tcp_goodput += flow.goodput_mbps
    return {
        "udp_sent": udp_sent,
        "udp_received": udp_received,
        "tcp_goodput_mbps": tcp_goodput,
    }


def test_packet_engine_equivalence_and_speedup(benchmark):
    started = time.perf_counter()
    event = _workload("event")
    event_s = time.perf_counter() - started

    def batched():
        started = time.perf_counter()
        result = _workload("batch")
        return result, time.perf_counter() - started

    batch, batch_s = benchmark.pedantic(batched, rounds=1, iterations=1)

    # Statistical equivalence: same offered load, near-identical UDP
    # delivery, pooled TCP goodput inside the DESIGN.md §10 band.
    assert batch["udp_sent"] == event["udp_sent"]
    assert abs(batch["udp_received"] - event["udp_received"]) <= (
        0.01 * event["udp_received"]
    )
    ratio = batch["tcp_goodput_mbps"] / event["tcp_goodput_mbps"]
    assert 0.7 <= ratio <= 1.45, (
        f"pooled TCP goodput ratio {ratio:.3f} outside the equivalence band "
        f"(event={event['tcp_goodput_mbps']:.1f}, "
        f"batch={batch['tcp_goodput_mbps']:.1f} Mbps)"
    )

    speedup = event_s / batch_s if batch_s > 0 else float("inf")
    print(
        f"\nevent engine {event_s:.2f}s, batch engine {batch_s:.3f}s, "
        f"speedup {speedup:.1f}x (target >= {SPEEDUP_TARGET}x)"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"batch engine speedup {speedup:.1f}x below the "
        f"{SPEEDUP_TARGET}x target"
    )
