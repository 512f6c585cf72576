"""Congestion control on Starlink vs clean Wi-Fi (Figure 8 scenario).

Runs the five CCAs the paper tested (BBR, CUBIC, Reno, Veno, Vegas) as
packet-level TCP flows on the batch packet engine: once over a bent pipe
with handover burst loss and 15 s reconfiguration gaps, once over a
clean fixed-broadband path, each normalised by the UDP-burst achievable
rate.

Run (takes under 10 seconds):
    python examples/congestion_control_shootout.py
"""

from repro.analysis.tables import format_table
from repro.experiments import run_experiment


def main() -> None:
    print("Running TCP stress tests (5 CCAs x 2 environments, packet level)...")
    result = run_experiment("figure8", seed=0, scale=0.4)
    print()
    print(
        format_table(
            result.headers,
            result.rows,
            title="Normalised throughput (paper: BBR ~0.5 on Starlink, "
            ">0.9 on Wi-Fi; others ~0.1-0.2 on Starlink)",
            float_format="{:.2f}",
        )
    )
    m = result.metrics
    print(f"\nUDP-achievable: Starlink {m['udp_achievable_starlink_mbps']:.1f} Mbps, "
          f"Wi-Fi {m['udp_achievable_wifi_mbps']:.1f} Mbps")
    print(f"BBR advantage over the best loss-based CCA on Starlink: "
          f"{m['bbr_advantage_on_starlink']:.1f}x")


if __name__ == "__main__":
    main()
