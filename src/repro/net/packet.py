"""Packets and protocol tags.

Packet ids are **per-run**, not per-process: a packet is created
unassigned (``packet_id == 0``) and receives its id from the simulator
it first enters (see :class:`PacketIdAllocator` and
``Simulator.packet_ids``).  The previous process-global counter leaked
state across simulators and test runs — the ids a run produced depended
on what ran earlier in the process, violating the "simulator carries no
global state" contract in :mod:`repro.net.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

UNASSIGNED_PACKET_ID = 0
"""Sentinel id of a packet that has not entered a simulator yet."""

DEFAULT_TTL = 64
MTU_BYTES = 1500
TCP_HEADER_BYTES = 40  # IPv4 + TCP, no options
UDP_HEADER_BYTES = 28  # IPv4 + UDP
ACK_SIZE_BYTES = TCP_HEADER_BYTES


class PacketIdAllocator:
    """Monotonic per-run packet-id source.

    One allocator per :class:`repro.net.simulator.Simulator`; ids start
    at 1 for every fresh simulator, so two runs of the same scenario in
    one process (or across processes) produce identical id sequences.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def next_id(self) -> int:
        """Allocate the next id."""
        value = self._next
        self._next += 1
        return value


class Protocol(Enum):
    """Transport/network protocol of a packet."""

    UDP = "udp"
    TCP = "tcp"
    ICMP = "icmp"


@dataclass
class Packet:
    """A simulated packet.

    Attributes:
        src: Name of the originating node.
        dst: Name of the destination node.
        protocol: Transport protocol tag.
        size_bytes: Total on-the-wire size, headers included.
        ttl: Remaining hop count; decremented at each forwarding node.
        flow_id: Identifier used to demultiplex to transport flows/apps.
        seq: Sequence number (meaning is flow-specific).
        payload: Arbitrary flow-specific metadata (e.g. ICMP type,
            original probe info in a time-exceeded reply).
        created_s: Simulation time the packet entered the network.
        queueing_s: Accumulated queueing delay across traversed links
            (written by links; the max-min estimator validates against it).
        hops: Number of links traversed so far.
        packet_id: Per-run id, assigned by the first simulator the
            packet enters (:data:`UNASSIGNED_PACKET_ID` until then).
    """

    src: str
    dst: str
    protocol: Protocol
    size_bytes: int
    ttl: int = DEFAULT_TTL
    flow_id: str = ""
    seq: int = 0
    payload: dict[str, Any] = field(default_factory=dict)
    created_s: float = 0.0
    queueing_s: float = 0.0
    hops: int = 0
    packet_id: int = UNASSIGNED_PACKET_ID

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive: {self.size_bytes}")
        if self.ttl < 0:
            raise ValueError(f"ttl must be non-negative: {self.ttl}")

    def copy(self) -> "Packet":
        """Deep-enough copy, unassigned until it enters a simulator
        (payload dict is copied)."""
        return replace(
            self, payload=dict(self.payload), packet_id=UNASSIGNED_PACKET_ID
        )
