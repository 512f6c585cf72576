"""Vectorised packet-path engine (the ``batch`` engine).

The heap-driven :class:`repro.net.simulator.Simulator` walks every
packet through ~4 Python callbacks per hop — after PR 2 batched the
orbital side, that per-event loop dominates figure8/speedtest/campaign
wall-clock.  This module advances whole flows in numpy chunks instead:

* **Chunked event horizons per link** — a link's FIFO service is the
  Lindley recursion ``start_i = max(arrival_i, finish_{i-1})``; with
  ``C = cumsum(tx)`` it closes to ``finish_i = C_i + max_{j<=i}(a_j -
  C_{j-1})``, one ``cumsum`` + ``maximum.accumulate`` per link per
  chunk.  Tail drops are resolved iteratively: drop the first violator,
  recompute the suffix (drops are rare outside overload, so the common
  path is a single vector pass).
* **Vectorised loss/queue draws** — loss models expose ``drop_mask``
  (see :mod:`repro.net.loss`), consuming their per-user RNG streams in
  exactly the per-packet call order, so single-link decisions are
  bit-identical to the oracle.
* **CCA state stepped per-batch** — the TCP runner sends one
  congestion window per round, pushes the batch through the link chain,
  and feeds the congestion controller one aggregate
  :class:`repro.tcp.cc.base.AckSample` per round (the ``newly_acked``
  scaling in every CCA makes per-batch stepping natural).

The event engine remains the bit-exact oracle: single-link behaviour is
identity-tested against it, end-to-end paths are pinned statistically
(DESIGN.md §10 states the equivalence contract).  Select engines with
``AccessConfig(engine=...)``, ``run_experiment(..., engine=...)``,
``--engine {event,batch}`` on the CLI, or ``REPRO_ENGINE`` — the
``engine`` row of the knob table (:mod:`repro.knobs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.net.loss import LossModel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.starlink.access import AccessPath


# -- vectorised link primitives ---------------------------------------------


def fifo_horizon(
    arrival_s: np.ndarray, tx_s: np.ndarray, busy_until_s: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Service start/finish times of a FIFO server (no drops).

    Closed form of the Lindley recursion for sorted arrivals:
    ``finish_i = C_i + max(busy, max_{j<=i}(a_j - C_{j-1}))`` with ``C``
    the cumulative transmission time and ``busy`` the initial workload
    (the time the server is busy until from earlier chunks).
    """
    cumulative = np.cumsum(tx_s)
    horizon = np.maximum.accumulate(arrival_s - (cumulative - tx_s))
    finish = cumulative + np.maximum(horizon, busy_until_s)
    return finish - tx_s, finish


def transmit_fifo(
    arrival_s: np.ndarray,
    size_bytes: np.ndarray,
    rate_bps: float,
    capacity_bytes: int | None = None,
    busy_until_s: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIFO serialisation with drop-tail admission.

    Mirrors :class:`repro.net.link.Link` + ``DropTailQueue`` exactly: a
    packet arriving while the server is busy is dropped when the queued
    bytes (excluding the packet in transmission) plus its own size
    exceed ``capacity_bytes``; a packet arriving at an idle server is
    always admitted.  ``busy_until_s`` carries the server's residual
    workload from earlier chunks: it delays service starts and its
    remaining bytes (``rate * (busy - arrival)``) count against queue
    capacity, so backlog persists across chunk boundaries.

    Returns:
        ``(accepted, start_s, finish_s)`` — a boolean mask over the
        input and per-packet service times (NaN where dropped).
    """
    arrival_s = np.asarray(arrival_s, dtype=float)
    size_bytes = np.asarray(size_bytes, dtype=float)
    n = len(arrival_s)
    tx_s = size_bytes * 8.0 / rate_bps
    accepted = np.ones(n, dtype=bool)
    start_all = np.full(n, np.nan)
    finish_all = np.full(n, np.nan)
    if n == 0:
        return accepted, start_all, finish_all
    start, finish = fifo_horizon(arrival_s, tx_s, busy_until_s)
    if capacity_bytes is not None:
        # Queued bytes at each packet's arrival: predecessors whose
        # service has not started yet (the packet in transmission has
        # start <= arrival and is excluded, matching the queue's
        # capacity model), plus the residual carried workload still
        # unserved at the arrival instant.
        cumulative = np.cumsum(size_bytes)
        not_started = np.searchsorted(start, arrival_s, side="right")
        ordinal = np.arange(n)
        queued_bytes = np.where(ordinal > 0, cumulative[ordinal - 1], 0.0)
        queued_bytes -= np.where(not_started > 0, cumulative[not_started - 1], 0.0)
        queued_bytes += np.clip(busy_until_s - arrival_s, 0.0, None) * rate_bps / 8.0
        violates = (start > arrival_s) & (
            queued_bytes + size_bytes > capacity_bytes
        )
        if violates.any():
            # Drops change the dynamics of everything after them, so
            # the drop-free schedule above is only a fast path; resolve
            # admission exactly with one O(n) sequential scan.
            accepted, start, finish = _admit_sequential(
                arrival_s, size_bytes, tx_s, rate_bps, capacity_bytes, busy_until_s
            )
            start_all[accepted] = start[accepted]
            finish_all[accepted] = finish[accepted]
            return accepted, start_all, finish_all
    start_all[:] = start
    finish_all[:] = finish
    return accepted, start_all, finish_all


def _admit_sequential(
    arrival_s: np.ndarray,
    size_bytes: np.ndarray,
    tx_s: np.ndarray,
    rate_bps: float,
    capacity_bytes: int,
    busy_until_s: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact drop-tail admission in one sequential pass.

    Replays the per-packet FIFO recursion with a deque of
    not-yet-started packets, so queued-bytes accounting is O(1)
    amortised per packet — the slow path behind :func:`transmit_fifo`
    when the drop-free schedule violates capacity.
    """
    from collections import deque

    n = len(arrival_s)
    accepted = np.zeros(n, dtype=bool)
    start_all = np.full(n, np.nan)
    finish_all = np.full(n, np.nan)
    pending: deque[tuple[float, float]] = deque()  # (start_s, size_bytes)
    pending_bytes = 0.0
    prev_finish = busy_until_s
    for i in range(n):
        arrival = float(arrival_s[i])
        while pending and pending[0][0] <= arrival:
            pending_bytes -= pending.popleft()[1]
        queued = pending_bytes + max(0.0, busy_until_s - arrival) * rate_bps / 8.0
        size = float(size_bytes[i])
        begin = arrival if arrival > prev_finish else prev_finish
        if begin > arrival and queued + size > capacity_bytes:
            continue  # tail drop
        accepted[i] = True
        start_all[i] = begin
        prev_finish = begin + float(tx_s[i])
        finish_all[i] = prev_finish
        if begin > arrival:
            pending.append((begin, size))
            pending_bytes += size
    return accepted, start_all, finish_all


def _delay_at(delay, times_s: np.ndarray) -> np.ndarray:
    """Evaluate a Link ``DelayProvider`` over a time vector."""
    if not callable(delay):
        return np.full(len(times_s), float(delay))
    batched = getattr(delay, "batch", None)
    if batched is not None:
        values = np.asarray(batched(times_s), dtype=float)
    else:
        values = np.fromiter(
            (float(delay(float(t))) for t in times_s), float, count=len(times_s)
        )
    if len(values) and float(values.min()) < 0:
        raise ConfigurationError(
            f"negative propagation delay from provider: {values.min()}"
        )
    return values


def _extra_at(extra, times_s: np.ndarray, name: str) -> np.ndarray:
    """Evaluate an ``extra_delay`` sampler over a time vector, in order."""
    if extra is None:
        return np.zeros(len(times_s))
    batched = getattr(extra, "batch", None)
    if batched is not None:
        values = np.asarray(batched(times_s), dtype=float)
    else:
        values = np.fromiter(
            (float(extra(float(t))) for t in times_s), float, count=len(times_s)
        )
    if len(values) and float(values.min()) < 0:
        raise ConfigurationError(
            f"extra_delay sampler on {name} returned {values.min()}"
        )
    return values


@dataclass
class BatchHop:
    """One unidirectional link of a batched path.

    Attributes mirror :class:`repro.net.link.Link`; counters accumulate
    across :meth:`traverse` calls for conservation/accounting tests.
    """

    rate_bps: float
    delay: float | Callable[[float], float]
    queue_capacity_bytes: int | None
    loss: LossModel | None
    extra_delay: Callable[[float], float] | None
    rx_processing_delay_s: float = 0.0
    name: str = ""
    offered: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)
    drops: int = field(default=0, init=False)
    _last_delivery_s: float = field(default=0.0, init=False)
    _busy_until_s: float = field(default=0.0, init=False)

    def traverse(
        self, arrival_s: np.ndarray, size_bytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push a sorted chunk of packets through this hop.

        Returns ``(delivered_mask, handoff_s, queueing_s)`` over the
        input chunk: who survived queue admission and the loss model,
        when each survivor reaches the next node's input (delivery plus
        the receiving node's processing delay), and the queueing delay
        accumulated on this hop (waiting + abstracted extra delay).
        """
        n = len(arrival_s)
        self.offered += n
        accepted, start, finish = transmit_fifo(
            arrival_s,
            size_bytes,
            self.rate_bps,
            self.queue_capacity_bytes,
            busy_until_s=self._busy_until_s,
        )
        self.drops += int(n - accepted.sum())
        finish_accepted = finish[accepted]
        if len(finish_accepted):
            self._busy_until_s = float(finish_accepted[-1])
        if self.loss is not None:
            drop_mask = getattr(self.loss, "drop_mask", None)
            if drop_mask is not None:
                lost = drop_mask(finish_accepted)
            else:
                lost = np.fromiter(
                    (
                        bool(self.loss.should_drop(None, float(t)))
                        for t in finish_accepted
                    ),
                    bool,
                    count=len(finish_accepted),
                )
        else:
            lost = np.zeros(len(finish_accepted), dtype=bool)
        self.lost += int(lost.sum())
        delivered_mask = accepted.copy()
        delivered_mask[accepted] = ~lost
        finish_delivered = finish[delivered_mask]
        propagation = _delay_at(self.delay, finish_delivered)
        extra = _extra_at(self.extra_delay, finish_delivered, self.name)
        raw_delivery = finish_delivered + propagation + extra
        # FIFO monotone-delivery clamp, continuing across chunks.
        delivery = np.maximum.accumulate(
            np.concatenate(([self._last_delivery_s], raw_delivery))
        )[1:]
        if len(delivery):
            self._last_delivery_s = float(delivery[-1])
        self.delivered += len(delivery)
        queueing = np.zeros(n)
        queueing[accepted] = start[accepted] - arrival_s[accepted]
        queueing[delivered_mask] += extra
        handoff = np.full(n, np.nan)
        handoff[delivered_mask] = delivery + self.rx_processing_delay_s
        return delivered_mask, handoff, queueing

    def check_conservation(self) -> None:
        """Assert offered == delivered + lost + drops (no in-flight
        state survives a traverse call in the batch engine)."""
        if self.offered != self.delivered + self.lost + self.drops:
            raise ConfigurationError(
                f"batch conservation violated on {self.name}: offered="
                f"{self.offered} != delivered={self.delivered} + lost="
                f"{self.lost} + drops={self.drops}"
            )


@dataclass
class BatchPath:
    """A unidirectional chain of :class:`BatchHop` between two nodes."""

    hops: list[BatchHop]
    src: str
    dst: str

    @classmethod
    def from_access_path(
        cls, path: "AccessPath", src: str, dst: str
    ) -> "BatchPath":
        """Extract the routed ``src -> dst`` link chain of a built
        :class:`repro.starlink.access.AccessPath`."""
        names = path.network.path(src, dst)
        hops: list[BatchHop] = []
        for a, b in zip(names, names[1:]):
            link = path.network.node(a).links[b]
            receiver = path.network.node(b)
            hops.append(
                BatchHop(
                    rate_bps=link.rate_bps,
                    delay=link._delay,
                    queue_capacity_bytes=link.queue.capacity_bytes,
                    loss=link.loss,
                    extra_delay=link.extra_delay,
                    rx_processing_delay_s=(
                        receiver.processing_delay_s if b != dst else 0.0
                    ),
                    name=link.name,
                )
            )
        return cls(hops=hops, src=src, dst=dst)

    def propagate(
        self, departure_s: np.ndarray, size_bytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Push a sorted batch end-to-end through every hop.

        Returns ``(delivered_mask, arrival_s, queueing_s)`` over the
        departures; arrivals are NaN where the packet died en route.
        """
        departure_s = np.asarray(departure_s, dtype=float)
        size_bytes = np.broadcast_to(
            np.asarray(size_bytes, dtype=float), departure_s.shape
        ).copy()
        n = len(departure_s)
        alive = np.ones(n, dtype=bool)
        times = departure_s.copy()
        queueing = np.zeros(n)
        for hop in self.hops:
            if not alive.any():
                break
            survived, handoff, hop_queueing = hop.traverse(
                times[alive], size_bytes[alive]
            )
            live_indices = np.flatnonzero(alive)
            queueing[live_indices] += hop_queueing
            alive[live_indices[~survived]] = False
            times[alive] = handoff[survived]
        arrivals = np.where(alive, times, np.nan)
        return alive, arrivals, queueing


# -- batched UDP burst ------------------------------------------------------


def run_udp_burst_batch(
    path: "AccessPath",
    rate_bps: float,
    duration_s: float = 5.0,
    packet_bytes: int = 1472,
    download: bool = True,
    drain_s: float = 3.0,
):
    """Batched equivalent of :func:`repro.nodes.iperf.run_udp_burst`."""
    from repro.nodes.iperf import UdpBurstResult
    from repro.units import bps_to_mbps

    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive: {rate_bps}")
    src, dst = (
        (path.server, path.client) if download else (path.client, path.server)
    )
    chain = BatchPath.from_access_path(path, src, dst)
    interval = packet_bytes * 8.0 / rate_bps
    n_packets = int(duration_s / interval)
    base = path.network.sim.now
    departures = base + np.arange(n_packets) * interval
    delivered, arrivals, _ = chain.propagate(departures, packet_bytes + 28)
    deadline = base + duration_s + drain_s
    in_time = np.nan_to_num(arrivals, nan=np.inf) <= deadline
    received = int((delivered & in_time).sum())
    achieved = received * packet_bytes * 8.0 / duration_s
    loss = 1.0 - received / n_packets if n_packets else 0.0
    return UdpBurstResult(
        offered_mbps=bps_to_mbps(rate_bps),
        achieved_mbps=bps_to_mbps(achieved),
        loss_fraction=loss,
        packets_sent=n_packets,
        packets_received=received,
    )


# -- batched TCP ------------------------------------------------------------


def run_iperf_tcp_batch(
    path: "AccessPath",
    cc: str = "cubic",
    duration_s: float = 10.0,
    download: bool = True,
    drain_s: float = 3.0,
    mss_bytes: int = 1448,
    max_window_segments: int = 2000,
):
    """Batched equivalent of :func:`repro.nodes.iperf.run_iperf_tcp`.

    Round-based flow advancement: each round sends one congestion
    window (retransmissions first), pushes the batch through the
    forward chain, returns ACKs over the reverse chain, and steps the
    congestion controller once with an aggregate
    :class:`~repro.tcp.cc.base.AckSample`.  A round with no surviving
    ACK is an RTO (backoff via :class:`repro.tcp.rtt.RttEstimator`,
    ``cc.on_timeout``).  Statistically pinned — not bit-identical —
    against the event-loop oracle (DESIGN.md §10).
    """
    from repro.net.packet import ACK_SIZE_BYTES, TCP_HEADER_BYTES
    from repro.nodes.iperf import IperfResult
    from repro.tcp.cc import make_cc
    from repro.tcp.cc.base import AckSample, CongestionControl
    from repro.tcp.rtt import RttEstimator
    from repro.units import bps_to_mbps

    src, dst = (
        (path.server, path.client) if download else (path.client, path.server)
    )
    forward = BatchPath.from_access_path(path, src, dst)
    reverse = BatchPath.from_access_path(path, dst, src)
    controller: CongestionControl = make_cc(cc) if isinstance(cc, str) else cc
    rtt = RttEstimator()
    wire_bytes = mss_bytes + TCP_HEADER_BYTES + 12

    start_s = path.network.sim.now
    stop_s = start_s + duration_s
    deadline_s = stop_s + drain_s
    now = start_s
    next_seq = 0
    lost_pool: list[int] = []
    delivered_segments = 0
    segments_sent = 0
    retransmits = 0
    timeouts = 0
    recoveries = 0
    min_rtt_s = float("inf")
    recovery_until_s = -float("inf")
    ack_spacing_s: float | None = None
    prev_acked = 0

    while now < stop_s:
        cwnd = int(max(1.0, min(controller.cwnd, float(max_window_segments))))
        resend = lost_pool[:cwnd]
        n_new = cwnd - len(resend)
        seqs = resend + list(range(next_seq, next_seq + n_new))
        lost_pool = lost_pool[cwnd:]
        next_seq += n_new
        retransmits += len(resend)
        segments_sent += len(seqs)
        pacing = controller.pacing_rate_bps(mss_bytes)
        if pacing:
            spacing = wire_bytes * 8.0 / pacing
        elif ack_spacing_s is not None and prev_acked:
            # Ack-clock emulation for window-limited CCAs: acks of the
            # previous round arrived at the bottleneck's delivery rate;
            # each ack releases cwnd_new/cwnd_old segments, so the send
            # rate is that multiple of the ack rate.  Window growth
            # (slow start's 2x) therefore outpaces the bottleneck and
            # builds real queue in the FIFO schedule, which is where
            # RTT inflation and overflow drops come from.
            spacing = ack_spacing_s * prev_acked / len(seqs)
        else:
            spacing = 0.0  # first round: initial-window burst
        departures = now + np.arange(len(seqs)) * spacing
        data_ok, data_arrivals, _ = forward.propagate(departures, wire_bytes)
        ack_ok = np.zeros(len(seqs), dtype=bool)
        ack_arrivals = np.full(len(seqs), np.nan)
        if data_ok.any():
            ok, arrivals, _ = reverse.propagate(
                data_arrivals[data_ok], ACK_SIZE_BYTES
            )
            indices = np.flatnonzero(data_ok)
            ack_ok[indices[ok]] = True
            ack_arrivals[indices[ok]] = arrivals[ok]
        acked = ack_ok & (np.nan_to_num(ack_arrivals, nan=np.inf) <= deadline_s)
        n_acked = int(acked.sum())
        if n_acked == 0:
            # Whole window lost: retransmission timeout.
            timeouts += 1
            lost_pool = sorted(set(lost_pool) | set(seqs))
            rto = rtt.rto_s
            rtt.on_timeout()
            controller.on_timeout(now + rto)
            now += rto
            continue
        ack_times = np.sort(ack_arrivals[acked])
        if n_acked >= 2:
            ack_spacing_s = float(ack_times[-1] - ack_times[0]) / (n_acked - 1)
        prev_acked = n_acked
        round_rtts = ack_arrivals[acked] - departures[acked]
        round_end = float(np.max(ack_arrivals[acked]))
        sample_rtt = float(np.mean(round_rtts))
        rtt.on_measurement(sample_rtt)
        min_rtt_s = min(min_rtt_s, float(np.min(round_rtts)))
        delivered_segments += n_acked
        n_lost = len(seqs) - n_acked
        in_recovery = now < recovery_until_s
        # Delivery rate from the ack train's spacing — the bottleneck
        # drain rate, as real BBR measures it.  Dividing by the whole
        # round span (RTT + send time) instead would systematically
        # under-report the bottleneck, decaying BBR's windowed-max
        # filter into a pacing death spiral.
        if n_acked >= 2 and ack_times[-1] > ack_times[0]:
            delivery_rate_bps = (
                (n_acked - 1) * mss_bytes * 8.0 / float(ack_times[-1] - ack_times[0])
            )
        else:
            delivery_rate_bps = n_acked * mss_bytes * 8.0 / max(
                round_end - now, 1e-9
            )
        # Ack processing precedes loss detection, as in the oracle: by
        # the time dup-acks signal a drop, one more round of acks has
        # already grown the window — halving therefore acts on the
        # grown window, which is what lets slow start settle near
        # BDP + queue instead of half the overshoot round.
        controller.on_ack(
            AckSample(
                now_s=round_end,
                rtt_s=sample_rtt,
                min_rtt_s=min_rtt_s,
                newly_acked=n_acked,
                delivered_bytes=delivered_segments * mss_bytes,
                delivery_rate_bps=delivery_rate_bps,
                in_flight=0,
                mss_bytes=mss_bytes,
                is_app_limited=False,
                in_recovery=in_recovery,
            )
        )
        if n_lost:
            lost_seqs = [seq for seq, ok in zip(seqs, acked) if not ok]
            lost_pool = sorted(set(lost_pool) | set(lost_seqs))
            if not in_recovery:
                recoveries += 1
                controller.on_loss(round_end, len(seqs))
                recovery_until_s = round_end
        # Rounds overlap like the real self-clocked pipe: the sender
        # starts the next window as soon as acks begin arriving (window
        # limited, duration ~ RTT) or as soon as it finishes
        # transmitting (rate limited, duration ~ W*tx), whichever is
        # later — the classic max(RTT, W*tx) round model.
        now = max(float(departures[-1]) + spacing, float(ack_times[0]))
    goodput = delivered_segments * mss_bytes * 8.0 / duration_s
    return IperfResult(
        cc=cc if isinstance(cc, str) else controller.name,
        duration_s=duration_s,
        goodput_mbps=bps_to_mbps(goodput),
        retransmits=retransmits,
        timeouts=timeouts,
        min_rtt_ms=(min_rtt_s * 1000.0) if math.isfinite(min_rtt_s) else float("nan"),
    )
