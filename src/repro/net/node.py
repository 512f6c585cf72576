"""Store-and-forward nodes with ICMP-style behaviour.

Nodes forward packets along static routes, decrementing TTL and emitting
time-exceeded replies when it expires — which is all traceroute needs.
UDP packets arriving for a flow id with no registered handler trigger a
port-unreachable reply (how classic UDP traceroute detects the final
hop), and ICMP echoes are answered with echo replies (ping).

A router's processing delay is applied by the incoming link, not here:
a link whose packet the router will forward (:meth:`Node.forwards`)
delivers it that delay late, and :meth:`Node.receive` sends it on at
once, so a forwarding hop costs no extra event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import RoutingError
from repro.net.packet import UNASSIGNED_PACKET_ID, Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.net.link import Link
    from repro.net.simulator import Simulator

ICMP_SIZE_BYTES = 56

PacketHandler = Callable[[Packet, float], None]


class Node:
    """A host or router.

    Attributes:
        name: Unique node name (used as the address).
        links: Outgoing links keyed by neighbour name.
        routes: Next-hop neighbour name keyed by destination name.
        processing_delay_s: Fixed per-packet forwarding latency (router
            lookup cost); zero for hosts.  Read-only: incoming links read
            it when they are built and apply it to the packets this node
            forwards.
    """

    def __init__(
        self, sim: "Simulator", name: str, processing_delay_s: float = 0.0
    ) -> None:
        self.sim = sim
        self.name = name
        self._processing_delay_s = processing_delay_s
        self.links: dict[str, Link] = {}
        self.routes: dict[str, str] = {}
        self._handlers: dict[str, PacketHandler] = {}
        self.received = 0
        self.forwarded = 0
        self.ttl_expired = 0

    def __repr__(self) -> str:
        return f"Node({self.name!r})"

    @property
    def processing_delay_s(self) -> float:
        """Fixed per-packet forwarding latency, seconds."""
        return self._processing_delay_s

    # -- wiring -----------------------------------------------------------

    def attach_link(self, link: "Link") -> None:
        """Register an outgoing link (called by Network.connect)."""
        self.links[link.dst.name] = link

    def register_handler(self, flow_id: str, handler: PacketHandler) -> None:
        """Deliver packets with ``flow_id`` to ``handler(packet, now)``."""
        self._handlers[flow_id] = handler

    def unregister_handler(self, flow_id: str) -> None:
        """Remove a flow handler (no-op if absent)."""
        self._handlers.pop(flow_id, None)

    # -- sending ------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Originate or forward a packet toward its destination."""
        if packet.packet_id == UNASSIGNED_PACKET_ID:
            packet.packet_id = self.sim.packet_ids.next_id()
        if packet.dst == self.name:
            # Loopback: deliver immediately.
            self._deliver_local(packet)
            return
        next_hop = self.routes.get(packet.dst)
        if next_hop is None:
            raise RoutingError(f"{self.name} has no route to {packet.dst}")
        link = self.links.get(next_hop)
        if link is None:
            raise RoutingError(f"{self.name} has no link to next hop {next_hop}")
        link.send(packet)

    # -- receive path ---------------------------------------------------------

    def forwards(self, packet: Packet) -> bool:
        """Whether :meth:`receive` will send ``packet`` on: it is
        addressed elsewhere and its TTL survives the decrement."""
        return packet.dst != self.name and packet.ttl > 1

    def receive(self, packet: Packet, link: "Link") -> None:
        """Entry point for packets delivered by an incoming link.

        The forwarding branch is the one :meth:`forwards` predicts (keep
        the two in step); it sends at once, because the link delivered
        the packet this node's processing delay late.
        """
        self.received += 1
        if packet.dst == self.name:
            self._deliver_local(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_expired += 1
            self._send_time_exceeded(packet)
            return
        self.forwarded += 1
        self.send(packet)

    def _deliver_local(self, packet: Packet) -> None:
        if packet.protocol is Protocol.ICMP and packet.payload.get("type") == "echo":
            self._send_echo_reply(packet)
            return
        handler = self._handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet, self.sim.now)
            return
        if packet.protocol is Protocol.UDP:
            # Closed port: classic traceroute termination signal.
            self._send_port_unreachable(packet)
        # TCP to a closed port would RST; measurement flows always register
        # handlers, so unsolicited TCP is silently dropped like a firewall.

    # -- ICMP generation -----------------------------------------------------

    def _icmp_reply(self, original: Packet, icmp_type: str) -> Packet:
        reply = Packet(
            src=self.name,
            dst=original.src,
            protocol=Protocol.ICMP,
            size_bytes=ICMP_SIZE_BYTES,
            flow_id=original.flow_id,
            seq=original.seq,
            created_s=self.sim.now,
        )
        reply.payload = {
            "type": icmp_type,
            "responder": self.name,
            "probe_seq": original.seq,
            "probe_ttl": original.payload.get("sent_ttl"),
        }
        return reply

    def _send_time_exceeded(self, original: Packet) -> None:
        self.send(self._icmp_reply(original, "time-exceeded"))

    def _send_port_unreachable(self, original: Packet) -> None:
        self.send(self._icmp_reply(original, "port-unreachable"))

    def _send_echo_reply(self, original: Packet) -> None:
        reply = self._icmp_reply(original, "echo-reply")
        reply.size_bytes = original.size_bytes
        self.send(reply)
