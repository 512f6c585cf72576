"""A packet-level TCP flow (sender + receiver) over the simulation.

Models what iperf3 exercises on the paper's measurement nodes:

* cumulative ACKs carrying SACK blocks; the sender keeps an RFC 6675
  style scoreboard with FACK loss marking (a hole more than 3 segments
  below the highest SACKed segment is lost),
* one multiplicative decrease per recovery episode (NewReno semantics),
* RFC 6298 RTO with exponential backoff and go-back-N on expiry,
* Karn's algorithm for RTT sampling (no samples from retransmits),
* optional pacing, driven by the congestion controller (BBR paces; the
  loss-based algorithms are window-limited),
* per-ACK delivery-rate estimation feeding the controller.

The receiver side is created automatically on the destination node and
acknowledges every arrival with the cumulative ACK plus SACK ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import FlowError
from repro.net.packet import ACK_SIZE_BYTES, Packet, Protocol, TCP_HEADER_BYTES
from repro.net.topology import Network
from repro.tcp.cc import make_cc
from repro.tcp.cc.base import AckSample, CongestionControl
from repro.tcp.rtt import RttEstimator

DEFAULT_MSS_BYTES = 1448  # 1500-byte wire size with headers and options
_DUP_THRESHOLD = 3  # FACK reordering tolerance, segments


@dataclass
class FlowStats:
    """Counters exposed by a flow.

    Attributes:
        start_s: When the first segment was sent.
        end_s: When the flow completed (None while running).
        delivered_bytes: Unique payload bytes cumulatively acknowledged.
        segments_sent: Data segments transmitted (including retransmits).
        retransmits: Retransmitted segments.
        recoveries: Fast-recovery episodes entered.
        timeouts: RTO expiries.
        rtt_samples: Number of RTT measurements taken.
    """

    start_s: float = 0.0
    end_s: float | None = None
    delivered_bytes: int = 0
    segments_sent: int = 0
    retransmits: int = 0
    recoveries: int = 0
    timeouts: int = 0
    rtt_samples: int = 0


class _Receiver:
    """Reassembly state on the destination node."""

    def __init__(self) -> None:
        self.expected_seq = 0
        self.out_of_order: set[int] = set()

    def on_data(self, seq: int) -> tuple[int, list[tuple[int, int]]]:
        """Register an arrival; returns (cumulative ack, SACK ranges)."""
        if seq == self.expected_seq:
            self.expected_seq += 1
            while self.expected_seq in self.out_of_order:
                self.out_of_order.remove(self.expected_seq)
                self.expected_seq += 1
        elif seq > self.expected_seq:
            self.out_of_order.add(seq)
        return self.expected_seq, self._sack_ranges()

    def _sack_ranges(self) -> list[tuple[int, int]]:
        if not self.out_of_order:
            return []
        ordered = sorted(self.out_of_order)
        ranges: list[tuple[int, int]] = []
        start = previous = ordered[0]
        for seq in ordered[1:]:
            if seq == previous + 1:
                previous = seq
                continue
            ranges.append((start, previous))
            start = previous = seq
        ranges.append((start, previous))
        return ranges


class TcpFlow:
    """One TCP transfer between two nodes of a :class:`Network`.

    Args:
        network: The network (routes must already be computed).
        src: Sending node name.
        dst: Receiving node name.
        cc: Congestion-control algorithm name or instance.
        total_bytes: Transfer size; flow completes when fully acked.
        duration_s: Alternatively, send continuously for this long
            (iperf3 style).  Exactly one of ``total_bytes`` /
            ``duration_s`` must be given.
        mss_bytes: Sender maximum segment size (payload bytes).
        start_s: Simulation time to start sending.
        on_complete: Optional callback ``(flow) -> None``.
        max_window_segments: Receive-window analogue bounding the
            sender's outstanding data (segments).
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        cc: str | CongestionControl = "cubic",
        total_bytes: int | None = None,
        duration_s: float | None = None,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        start_s: float = 0.0,
        on_complete: Callable[["TcpFlow"], None] | None = None,
        max_window_segments: int = 2000,
    ) -> None:
        if (total_bytes is None) == (duration_s is None):
            raise FlowError("specify exactly one of total_bytes / duration_s")
        if total_bytes is not None and total_bytes <= 0:
            raise FlowError(f"total_bytes must be positive: {total_bytes}")
        if duration_s is not None and duration_s <= 0:
            raise FlowError(f"duration_s must be positive: {duration_s}")
        self.network = network
        self.sim = network.sim
        self.src = network.node(src)
        self.dst = network.node(dst)
        self.cc = make_cc(cc) if isinstance(cc, str) else cc
        self.mss_bytes = mss_bytes
        self.flow_id = self.sim.flow_id("tcp")
        self.total_segments = (
            None if total_bytes is None else max(1, math.ceil(total_bytes / mss_bytes))
        )
        self.stop_s = None if duration_s is None else start_s + duration_s
        self.on_complete = on_complete
        self.max_window_segments = max_window_segments
        self.stats = FlowStats(start_s=start_s)
        self.rtt = RttEstimator()
        self.done = False

        # Sender scoreboard.
        self._next_seq = 0
        self._cum_ack = 0
        self._sacked: set[int] = set()
        self._lost: set[int] = set()  # marked lost, not yet retransmitted
        self._highest_sacked = -1
        self._loss_scanned_to = -1  # highest seq already scanned for loss
        self._recovery_high = 0  # recovery active while cum_ack < this
        self._sent_meta: dict[int, tuple[float, int, bool]] = {}
        self._retx_time: dict[int, float] = {}
        self._delivered_segments = 0  # cum + sacked, for rate estimation
        self._rto_event = None
        self._pacing_event = None
        self._next_send_s = start_s

        self._receiver = _Receiver()

        self.src.register_handler(self.flow_id, self._on_sender_packet)
        self.dst.register_handler(self.flow_id, self._on_receiver_packet)
        self.sim.schedule_at(start_s, self._try_send)

    # -- scoreboard helpers --------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Segments sent and not cumulatively acknowledged."""
        return self._next_seq - self._cum_ack

    @property
    def pipe(self) -> int:
        """Estimate of segments currently in the network (RFC 6675)."""
        return max(0, self.outstanding - len(self._sacked) - len(self._lost))

    @property
    def in_recovery(self) -> bool:
        """Whether a fast-recovery episode is active."""
        return self._cum_ack < self._recovery_high

    def _has_more_data(self) -> bool:
        if self.total_segments is not None:
            return self._next_seq < self.total_segments
        assert self.stop_s is not None
        return self.sim.now < self.stop_s

    def _app_limited(self) -> bool:
        return not self._has_more_data()

    # -- sending ------------------------------------------------------------

    def _wire_size(self) -> int:
        return self.mss_bytes + TCP_HEADER_BYTES + 12  # headers + options

    def _send_segment(self, seq: int, retransmit: bool) -> None:
        packet = Packet(
            src=self.src.name,
            dst=self.dst.name,
            protocol=Protocol.TCP,
            size_bytes=self._wire_size(),
            flow_id=self.flow_id,
            seq=seq,
            created_s=self.sim.now,
        )
        packet.payload["kind"] = "data"
        self._sent_meta[seq] = (self.sim.now, self._delivered_segments, retransmit)
        self.stats.segments_sent += 1
        if retransmit:
            self.stats.retransmits += 1
            self._retx_time[seq] = self.sim.now
        self.src.send(packet)
        self._arm_rto()

    def _pace_gate(self, pacing_rate: float | None) -> bool:
        """Returns True when sending must wait for the pacing clock."""
        if pacing_rate is None:
            return False
        if self.sim.now < self._next_send_s:
            self._schedule_pacing_wakeup()
            return True
        self._next_send_s = (
            max(self.sim.now, self._next_send_s) + self._wire_size() * 8.0 / pacing_rate
        )
        return False

    def _try_send(self) -> None:
        if self.done:
            return
        pacing_rate = self.cc.pacing_rate_bps(self.mss_bytes)
        while self.pipe < self.cc.cwnd:
            if self._lost:
                if self._pace_gate(pacing_rate):
                    return
                hole = min(self._lost)
                self._lost.discard(hole)
                self._send_segment(hole, retransmit=True)
            elif self._has_more_data() and self.outstanding < self.max_window_segments:
                # The receive-window cap applies to new data only —
                # retransmissions must never be blocked by it.
                if self._pace_gate(pacing_rate):
                    return
                self._send_segment(self._next_seq, retransmit=False)
                self._next_seq += 1
            else:
                break
        if (
            self.stop_s is not None
            and not self._has_more_data()
            and self.outstanding == 0
        ):
            self._finish()

    def _schedule_pacing_wakeup(self) -> None:
        if self._pacing_event is not None:
            return
        delay = max(0.0, self._next_send_s - self.sim.now)

        def wake() -> None:
            self._pacing_event = None
            self._try_send()

        self._pacing_event = self.sim.schedule(delay, wake)

    # -- RTO -------------------------------------------------------------

    def _arm_rto(self) -> None:
        self._cancel_rto()
        self._rto_event = self.sim.schedule(self.rtt.rto_s, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.done or self.outstanding == 0:
            return
        self.stats.timeouts += 1
        self.rtt.on_timeout()
        self.cc.on_timeout(self.sim.now)
        # Mark every unsacked outstanding segment lost and retransmit
        # (SACK state is trusted; unlike classic go-back-N this never
        # resends data the receiver holds, and Karn's rule is preserved
        # because hole retransmissions carry the retransmit flag).
        self._retx_time.clear()
        self._recovery_high = self._next_seq
        for seq in range(self._cum_ack, self._next_seq):
            if seq not in self._sacked:
                self._lost.add(seq)
        self._loss_scanned_to = max(self._loss_scanned_to, self._next_seq - 1)
        self._try_send()

    # -- receiver node handler ------------------------------------------------

    def _on_receiver_packet(self, packet: Packet, now: float) -> None:
        if packet.payload.get("kind") != "data":
            return
        ack_no, sack_ranges = self._receiver.on_data(packet.seq)
        ack = Packet(
            src=self.dst.name,
            dst=self.src.name,
            protocol=Protocol.TCP,
            size_bytes=ACK_SIZE_BYTES,
            flow_id=self.flow_id,
            seq=packet.seq,
            created_s=now,
        )
        ack.payload["kind"] = "ack"
        ack.payload["ack"] = ack_no
        ack.payload["sack"] = sack_ranges
        self.dst.send(ack)

    # -- sender side -----------------------------------------------------------

    def _on_sender_packet(self, packet: Packet, now: float) -> None:
        if self.done or packet.payload.get("kind") != "ack":
            return
        ack_no: int = packet.payload["ack"]
        sack_ranges: list[tuple[int, int]] = packet.payload.get("sack", [])

        old_cum = self._cum_ack
        newly_cum = 0
        if ack_no > self._cum_ack:
            newly_cum = ack_no - self._cum_ack
            self._cum_ack = ack_no

        newly_sacked = self._apply_sack(sack_ranges)
        if newly_cum == 0 and newly_sacked == 0:
            # Pure duplicate: no accounting to do, but give the sender a
            # chance to (re)transmit — the window may have freed, or a
            # lost retransmission may be waiting on its re-mark timer.
            self._mark_lost(now)
            self._try_send()
            return

        # The receiver echoes the seq of the data packet that triggered
        # this ACK (TCP-timestamps analogue): RTT must be sampled from
        # that segment, never from ``ack_no - 1`` — a cumulative jump
        # over long-delivered SACKed data would otherwise produce wildly
        # inflated samples.
        rtt_sample, delivery_rate = self._take_rtt_sample(
            packet.seq, now, newly_cum + newly_sacked
        )

        # Clean scoreboard below the new cumulative ack.
        if newly_cum:
            for seq in range(old_cum, ack_no):
                self._sent_meta.pop(seq, None)
                self._sacked.discard(seq)
                self._lost.discard(seq)
                self._retx_time.pop(seq, None)
            self.stats.delivered_bytes += newly_cum * self.mss_bytes

        self._delivered_segments = self._cum_ack + len(self._sacked)

        newly_lost = self._mark_lost(now)
        if newly_lost and not self.in_recovery:
            self._recovery_high = self._next_seq
            self.stats.recoveries += 1
            self.cc.on_loss(now, self.outstanding)

        self.cc.on_ack(
            AckSample(
                now_s=now,
                rtt_s=rtt_sample,
                min_rtt_s=self.rtt.min_rtt_s,
                newly_acked=newly_cum + newly_sacked,
                delivered_bytes=self._delivered_segments * self.mss_bytes,
                delivery_rate_bps=delivery_rate,
                in_flight=self.pipe,
                mss_bytes=self.mss_bytes,
                is_app_limited=self._app_limited(),
                in_recovery=self.in_recovery,
            )
        )

        if self.total_segments is not None and self._cum_ack >= self.total_segments:
            self._finish()
            return
        if self.outstanding > 0:
            if newly_cum:
                self._arm_rto()
        else:
            self._cancel_rto()
        self._try_send()

    def _apply_sack(self, ranges: list[tuple[int, int]]) -> int:
        newly = 0
        for start, end in ranges:
            for seq in range(max(start, self._cum_ack), end + 1):
                if seq not in self._sacked:
                    self._sacked.add(seq)
                    self._lost.discard(seq)
                    newly += 1
                    if seq > self._highest_sacked:
                        self._highest_sacked = seq
        return newly

    def _take_rtt_sample(
        self, echo_seq: int, now: float, newly_acked: int
    ) -> tuple[float | None, float | None]:
        """(rtt sample, delivery-rate sample) from the ack, Karn-safe."""
        meta = self._sent_meta.get(echo_seq)
        if meta is None:
            return None, None
        sent_time, delivered_at_send, was_retransmit = meta
        if was_retransmit or now <= sent_time:
            return None, None
        rtt = now - sent_time
        self.rtt.on_measurement(rtt)
        self.stats.rtt_samples += 1
        delivered_now = self._delivered_segments + newly_acked
        rate = (delivered_now - delivered_at_send) * self.mss_bytes * 8.0 / rtt
        return rtt, rate

    def _mark_lost(self, now: float) -> int:
        """FACK marking: unsacked holes well below the SACK frontier.

        Incremental: fresh sequence numbers are scanned once as the SACK
        frontier advances; already-retransmitted holes are re-checked
        separately (a retransmission may itself be lost) after a
        conservative timer.
        """
        frontier = self._highest_sacked - _DUP_THRESHOLD
        newly = 0
        scan_from = max(self._cum_ack, self._loss_scanned_to + 1)
        for seq in range(scan_from, frontier + 1):
            if seq not in self._sacked and seq not in self._lost:
                self._lost.add(seq)
                newly += 1
        self._loss_scanned_to = max(self._loss_scanned_to, frontier)
        # Re-mark retransmitted holes whose repair looks lost too.  The
        # full RTO is used as the re-mark timer: anything shorter risks
        # spurious retransmission cascades when queueing inflates the RTT
        # above its smoothed estimate.
        rearm_after = self.rtt.rto_s
        for seq, retx_at in list(self._retx_time.items()):
            if seq < self._cum_ack or seq in self._sacked:
                self._retx_time.pop(seq, None)
                continue
            if seq in self._lost or seq > frontier:
                continue
            if now >= retx_at + rearm_after:
                self._retx_time.pop(seq, None)
                self._lost.add(seq)
                newly += 1
        return newly

    # -- completion -----------------------------------------------------------

    def _finish(self) -> None:
        if self.done:
            return
        self.done = True
        self.stats.end_s = self.sim.now
        self._cancel_rto()
        if self._pacing_event is not None:
            self.sim.cancel(self._pacing_event)
            self._pacing_event = None
        self.src.unregister_handler(self.flow_id)
        self.dst.unregister_handler(self.flow_id)
        if self.on_complete is not None:
            self.on_complete(self)
