"""Traceroute over the simulated network.

Classic UDP traceroute: probes with increasing TTL elicit ICMP
time-exceeded replies from successive routers and a port-unreachable
reply from the destination.  Matches the paper's methodology for
Figure 5 (20 repetitions per access technology) and Table 2 (30 probes
of 60-byte UDP packets for the max-min queueing-delay estimation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import Packet, Protocol
from repro.net.topology import Network

DEFAULT_PROBE_SIZE_BYTES = 60  # the paper uses 60-byte UDP probes


@dataclass
class HopResult:
    """Replies collected for one TTL value.

    Attributes:
        ttl: Probe TTL.
        responder: Name of the replying node (None if all probes lost).
        rtts_s: Round-trip times of answered probes, seconds.
        sent: Number of probes sent at this TTL.
    """

    ttl: int
    responder: str | None
    rtts_s: list[float] = field(default_factory=list)
    sent: int = 0


@dataclass
class TracerouteResult:
    """A complete traceroute run."""

    src: str
    dst: str
    hops: list[HopResult]
    destination_reached: bool


class _ProbeChain:
    """The probes of one traceroute and the replies they drew.

    Probe ``seq`` (TTL ``seq // probes_per_hop + 1``) is sent at
    ``base_s + (seq + 1) * gap_s``, and each send schedules the next
    one, so one send is pending instead of the whole schedule.  The
    chain is a bound method, not a closure that refers to itself: such
    a cycle would leave every call's tables to the cyclic garbage
    collector.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        probes_per_hop: int,
        n_probes: int,
        size_bytes: int,
        gap_s: float,
    ) -> None:
        self.sim = network.sim
        self.source = network.node(src)
        self.src = src
        self.dst = dst
        self.flow_id = self.sim.flow_id("traceroute")
        self.probes_per_hop = probes_per_hop
        self.n_probes = n_probes
        self.size_bytes = size_bytes
        self.gap_s = gap_s
        self.base_s = self.sim.now
        self.send_times: dict[int, float] = {}
        # seq -> (responder, rtt, ICMP type)
        self.replies: dict[int, tuple[str, float, str]] = {}

    def schedule(self, seq: int) -> None:
        """Schedule the send of probe ``seq``."""
        self.sim.schedule_at(self.base_s + (seq + 1) * self.gap_s, self.send, seq)

    def send(self, seq: int) -> None:
        """Send probe ``seq``, after scheduling the next one."""
        if seq + 1 < self.n_probes:
            self.schedule(seq + 1)
        ttl = seq // self.probes_per_hop + 1
        now = self.sim.now
        packet = Packet(
            src=self.src,
            dst=self.dst,
            protocol=Protocol.UDP,
            size_bytes=self.size_bytes,
            ttl=ttl,
            flow_id=self.flow_id,
            seq=seq,
            payload={"sent_ttl": ttl},
            created_s=now,
        )
        self.send_times[seq] = now
        self.source.send(packet)

    def on_reply(self, packet: Packet, now: float) -> None:
        """Record the first reply to each probe."""
        seq = packet.payload.get("probe_seq")
        if seq in self.send_times and seq not in self.replies:
            self.replies[seq] = (
                packet.payload.get("responder", packet.src),
                now - self.send_times[seq],
                packet.payload.get("type", ""),
            )


def traceroute(
    network: Network,
    src: str,
    dst: str,
    probes_per_hop: int = 3,
    max_ttl: int = 30,
    probe_size_bytes: int = DEFAULT_PROBE_SIZE_BYTES,
    probe_gap_s: float = 0.02,
    timeout_s: float = 2.0,
) -> TracerouteResult:
    """Run a traceroute inside the simulation and return per-hop RTTs.

    Drives ``network.sim`` until all probes are answered or timed out.
    Probes for successive TTLs are spaced ``probe_gap_s`` apart (as real
    traceroute does), so one run samples the path over a short interval.
    """
    n_probes = max_ttl * probes_per_hop
    probes = _ProbeChain(
        network, src, dst, probes_per_hop, n_probes, probe_size_bytes, probe_gap_s
    )
    probes.source.register_handler(probes.flow_id, probes.on_reply)
    if n_probes > 0:
        probes.schedule(0)
    deadline = probes.base_s + n_probes * probe_gap_s + timeout_s
    network.sim.run(until=deadline)
    probes.source.unregister_handler(probes.flow_id)

    hops: list[HopResult] = []
    destination_reached = False
    for ttl in range(1, max_ttl + 1):
        seqs = range((ttl - 1) * probes_per_hop, ttl * probes_per_hop)
        hop = HopResult(ttl=ttl, responder=None, sent=len(seqs))
        reached_here = False
        for seq in seqs:
            reply = probes.replies.get(seq)
            if reply is None:
                continue
            responder, rtt, icmp_type = reply
            hop.responder = responder
            hop.rtts_s.append(rtt)
            if icmp_type == "port-unreachable" and responder == dst:
                reached_here = True
        hops.append(hop)
        if reached_here:
            destination_reached = True
            break

    return TracerouteResult(
        src=src, dst=dst, hops=hops, destination_reached=destination_reached
    )
