"""Unidirectional links: serialisation, propagation, queueing, loss.

A link models one direction of a physical hop.  Packets offered while
the transmitter is busy wait in a drop-tail queue; each packet then takes
``size/rate`` to serialise and ``delay(now)`` to propagate.  Propagation
delay may be a callable of simulation time — the Starlink bent pipe uses
this to follow the moving serving satellite — and an optional
``extra_delay`` sampler models queueing experienced inside an abstracted
multi-router segment (used for transit hops whose internal routers we do
not simulate individually).

A hop costs two scheduled events: the end of serialisation, then the
packet's delivery to the receiver.  A router's processing delay is
applied here, not by the router: when the receiver will forward the
packet (:meth:`Node.forwards`), its delivery is scheduled that delay
late and the router sends it on at once, so forwarding costs no third
event.  The batch engine's ``BatchHop`` applies the delay the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.net.node import Node

from repro.errors import ConfigurationError
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import UNASSIGNED_PACKET_ID, Packet
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator

DelayProvider = float | Callable[[float], float]


class Link:
    """One direction of a network hop.

    Attributes:
        name: Diagnostic label (``src->dst`` by default).
        rate_bps: Serialisation rate, bits/s.
        queue: Drop-tail queue for packets awaiting transmission.
        loss: Loss model evaluated at transmission start.
        delivered: Count of packets handed to the destination.
        lost: Count of packets destroyed by the loss model.
    """

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: DelayProvider,
        queue: DropTailQueue | None = None,
        loss: LossModel | None = None,
        extra_delay: Callable[[float], float] | None = None,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"link rate must be positive: {rate_bps}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self._delay = delay
        # The receiver's forwarding latency, read once as
        # ``BatchPath.from_access_path`` reads it (``Node`` keeps it
        # read-only); a receiver without one (a bare sink) has none.
        processing_s = getattr(dst, "processing_delay_s", 0.0)
        self._processing_s = processing_s if processing_s > 0 else 0.0
        self.queue = queue if queue is not None else DropTailQueue()
        self.loss = loss if loss is not None else NoLoss()
        self.extra_delay = extra_delay
        self.name = name or f"{src.name}->{dst.name}"
        self._transmitting = False
        self.delivered = 0
        self.lost = 0
        self.offered = 0
        self.cleared = 0
        self._propagating = 0
        self._enqueue_times: dict[int, float] = {}
        self._last_delivery_s = 0.0

    # -- delay ------------------------------------------------------------

    def propagation_delay_s(self, now_s: float) -> float:
        """Current one-way propagation delay, seconds."""
        if callable(self._delay):
            delay = self._delay(now_s)
        else:
            delay = self._delay
        if delay < 0:
            raise ConfigurationError(
                f"negative propagation delay on {self.name}: {delay}"
            )
        return delay

    # -- send path ----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (called by the source node)."""
        if packet.packet_id == UNASSIGNED_PACKET_ID:
            packet.packet_id = self.sim.packet_ids.next_id()
        self.offered += 1
        if self._transmitting:
            if self.queue.offer(packet):
                self._enqueue_times[packet.packet_id] = self.sim.now
            return
        self._begin_transmission(packet, self.sim.now)

    def clear_queue(self) -> list[Packet]:
        """Drop every queued packet and release its tracked state.

        The counterpart to calling ``self.queue.clear()`` directly —
        which would leak the per-packet enqueue times this link keeps
        for queueing-delay accounting.  Cleared packets are counted in
        :attr:`cleared` (not as tail drops).
        """
        removed = self.queue.clear()
        for packet in removed:
            self._enqueue_times.pop(packet.packet_id, None)
        self.cleared += len(removed)
        return removed

    @property
    def in_flight(self) -> int:
        """Packets currently owned by the link: queued, in
        transmission, or propagating toward the destination."""
        return len(self.queue) + (1 if self._transmitting else 0) + self._propagating

    def check_conservation(self) -> None:
        """Assert the link's packet-conservation invariant.

        Every offered packet must be delivered, lost to the loss model,
        tail-dropped by the queue, cleared via :meth:`clear_queue`, or
        still in flight.  Raises :class:`ConfigurationError` on
        violation (which would indicate leaked per-packet state).
        """
        accounted = (
            self.delivered
            + self.lost
            + self.queue.drops
            + self.cleared
            + self.in_flight
        )
        if self.offered != accounted:
            raise ConfigurationError(
                f"packet conservation violated on {self.name}: offered="
                f"{self.offered} != delivered={self.delivered} + lost="
                f"{self.lost} + drops={self.queue.drops} + cleared="
                f"{self.cleared} + in_flight={self.in_flight}"
            )
        stale = set(self._enqueue_times) - {
            p.packet_id for p in self.queue._items
        }
        if stale:
            raise ConfigurationError(
                f"{self.name} leaked enqueue-time entries for packets "
                f"{sorted(stale)[:10]}"
            )

    def _begin_transmission(self, packet: Packet, now: float) -> None:
        self._transmitting = True
        if self._enqueue_times:
            queued_at = self._enqueue_times.pop(packet.packet_id, None)
            if queued_at is not None:
                packet.queueing_s += now - queued_at
        self.sim.schedule_at(
            now + packet.size_bytes * 8.0 / self.rate_bps,
            self._finish_transmission,
            packet,
        )

    def _finish_transmission(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        if self.loss.should_drop(packet, now):
            self.lost += 1
        else:
            total_delay = self.propagation_delay_s(now)
            if self.extra_delay is not None:
                extra = self.extra_delay(now)
                if extra < 0:
                    raise ConfigurationError(
                        f"extra_delay sampler on {self.name} returned {extra}"
                    )
                packet.queueing_s += extra
                total_delay += extra
            # A link is FIFO: stochastic extra delay (abstracted
            # queueing) must never reorder packets, so delivery is
            # clamped to be monotone.
            delivery_at = max(now + total_delay, self._last_delivery_s)
            self._last_delivery_s = delivery_at
            self._propagating += 1
            # ``now + (delivery_at - now)`` can differ from
            # ``delivery_at`` in the last bit; the delivery is timed by
            # its delay from now, so keep that sum.
            deliver_at = now + (delivery_at - now)
            if self._processing_s and self.dst.forwards(packet):
                # The receiver sends it on when it arrives, so it
                # arrives once the receiver's processing is done.
                deliver_at += self._processing_s
            sim.schedule_at(deliver_at, self._deliver, packet)
        next_packet = self.queue.poll()
        if next_packet is not None:
            self._begin_transmission(next_packet, now)
        else:
            self._transmitting = False
            if self._enqueue_times:
                # The queue is empty, so any remaining entries belong to
                # packets removed behind the link's back (a direct
                # ``queue.clear()``): purge instead of leaking them.
                self._enqueue_times.clear()

    def _deliver(self, packet: Packet) -> None:
        self._propagating -= 1
        self.delivered += 1
        packet.hops += 1
        self.dst.receive(packet, self)
