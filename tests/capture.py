"""Link taps for tests: pcap-style observation of simulated traffic.

Wraps a :class:`~repro.net.link.Link` so every delivery and loss is
recorded with its timestamp — the simulated analogue of running tcpdump
on an interface.  Tests use it to check traffic patterns (e.g. that
loss really clusters inside handover windows).

A delivery is recorded when the link hands the packet to its receiver.
A packet the receiver keeps (a local delivery or a TTL expiry) is
handed over at its delivery time.  A packet the receiver forwards is
handed over its processing delay later, because the link applies a
router's processing delay: the tap records it at delivery plus that
delay, the batch engine's ``handoff_s``.  On a link into a node without
a processing delay the two times agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import Packet, Protocol


class CaptureEvent(Enum):
    """What happened to a packet at the tap point."""

    DELIVERED = "delivered"
    LOST = "lost"


@dataclass(frozen=True)
class CaptureRecord:
    """One captured packet event."""

    t_s: float
    event: CaptureEvent
    protocol: Protocol
    flow_id: str
    seq: int
    size_bytes: int


@dataclass
class LinkTap:
    """Attachable capture on one link direction.

    Install with :func:`tap_link`; the tap interposes on the link's
    delivery and loss paths without altering timing.
    """

    link: Link
    records: list[CaptureRecord] = field(default_factory=list)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def delivered(self, flow_id: str | None = None) -> list[CaptureRecord]:
        """Delivered packets (optionally one flow's)."""
        return [
            r
            for r in self.records
            if r.event is CaptureEvent.DELIVERED
            and (flow_id is None or r.flow_id == flow_id)
        ]

    def lost(self, flow_id: str | None = None) -> list[CaptureRecord]:
        """Lost packets (optionally one flow's)."""
        return [
            r
            for r in self.records
            if r.event is CaptureEvent.LOST
            and (flow_id is None or r.flow_id == flow_id)
        ]

    def loss_fraction(self, flow_id: str | None = None) -> float:
        """Observed loss fraction at this tap."""
        n_lost = len(self.lost(flow_id))
        n_total = n_lost + len(self.delivered(flow_id))
        return n_lost / n_total if n_total else 0.0


def tap_link(link: Link) -> LinkTap:
    """Install a tap on a link; returns the tap.

    The link's ``_deliver`` and loss accounting are wrapped in place;
    multiple taps on one link are not supported (the second call
    raises).
    """
    if getattr(link, "_tap", None) is not None:
        raise ConfigurationError(f"link {link.name} already has a tap")
    tap = LinkTap(link)
    link._tap = tap

    original_deliver = link._deliver
    original_loss_model = link.loss

    def tapped_deliver(packet: Packet) -> None:
        tap.records.append(
            CaptureRecord(
                t_s=link.sim.now,
                event=CaptureEvent.DELIVERED,
                protocol=packet.protocol,
                flow_id=packet.flow_id,
                seq=packet.seq,
                size_bytes=packet.size_bytes,
            )
        )
        original_deliver(packet)

    class _TappedLoss:
        def should_drop(self, packet: Packet, now_s: float) -> bool:
            dropped = original_loss_model.should_drop(packet, now_s)
            if dropped:
                tap.records.append(
                    CaptureRecord(
                        t_s=now_s,
                        event=CaptureEvent.LOST,
                        protocol=packet.protocol,
                        flow_id=packet.flow_id,
                        seq=packet.seq,
                        size_bytes=packet.size_bytes,
                    )
                )
            return dropped

    link._deliver = tapped_deliver
    link.loss = _TappedLoss()
    return tap
