"""ICMP echo (ping) over the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import Packet, Protocol
from repro.net.topology import Network


@dataclass
class PingResult:
    """Outcome of a ping run.

    Attributes:
        src: Source node name.
        dst: Destination node name.
        sent: Echo requests sent.
        rtts_s: RTTs of answered requests, seconds, in send order.
    """

    src: str
    dst: str
    sent: int
    rtts_s: list[float] = field(default_factory=list)


def ping(
    network: Network,
    src: str,
    dst: str,
    count: int = 10,
    interval_s: float = 0.2,
    size_bytes: int = 64,
    timeout_s: float = 2.0,
) -> PingResult:
    """Send ``count`` ICMP echoes and collect RTTs (drives the simulator)."""
    sim = network.sim
    source = network.node(src)
    flow_id = sim.flow_id("ping")
    send_times: dict[int, float] = {}
    rtts: dict[int, float] = {}

    def on_reply(packet: Packet, now: float) -> None:
        seq = packet.payload.get("probe_seq")
        if seq in send_times and seq not in rtts:
            rtts[seq] = now - send_times[seq]

    source.register_handler(flow_id, on_reply)

    def send_echo(seq: int) -> None:
        packet = Packet(
            src=src,
            dst=dst,
            protocol=Protocol.ICMP,
            size_bytes=size_bytes,
            flow_id=flow_id,
            seq=seq,
            created_s=sim.now,
        )
        packet.payload["type"] = "echo"
        send_times[seq] = sim.now
        source.send(packet)

    base = sim.now
    for seq in range(count):
        sim.schedule_at(base + seq * interval_s, send_echo, seq)
    sim.run(until=base + count * interval_s + timeout_s)
    source.unregister_handler(flow_id)

    ordered = [rtts[seq] for seq in sorted(rtts)]
    return PingResult(src=src, dst=dst, sent=count, rtts_s=ordered)
