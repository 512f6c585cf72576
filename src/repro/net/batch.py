"""Vectorised packet-path engine (the ``batch`` engine).

The heap-driven :class:`repro.net.simulator.Simulator` walks every
packet through two scheduled events per hop (end of serialisation, and
arrival at the receiver, which a forwarding router's link schedules a
processing delay late), each a Python callback, so a many-flow packet
experiment such as Figure 8's CCA matrix spends its time in that
per-event loop (campaign page loads and speedtests are analytic and run
neither engine).  This module advances whole flows in numpy chunks
instead:

* **Chunked event horizons per link** — a link's FIFO service is the
  Lindley recursion ``start_i = max(arrival_i, finish_{i-1})``; with
  ``C = cumsum(tx)`` it closes to ``finish_i = C_i + max_{j<=i}(a_j -
  C_{j-1})``, one ``cumsum`` + ``maximum.accumulate`` per link per
  chunk.  Tail drops: a chunk whose bytes cannot fill the queue skips
  admission, otherwise one vector pass finds whether any packet
  violates capacity, and only then does an exact sequential scan
  resolve the drops (rare outside overload; it walks Python floats in
  blocks of ``_SCAN_BLOCK`` packets).
* **Numpy calls only where a result needs them** — a chunk's packets
  share one scalar size, so a hop slices its cumulative service sums
  from a prefix it keeps for that size (chunks of up to
  ``_PREFIX_MAX`` packets; ``cumsum`` adds in order, so the first
  ``n`` sums of a longer run are the sums of ``n`` packets, to the
  bit) and bounds its queue by ``n * size``.  A chunk that loses
  nothing builds no drop or loss mask: a loss model's ``drop_mask``
  may answer ``None`` (no drops), :meth:`BatchHop.traverse` and
  :meth:`BatchPath.propagate` return ``None`` for an all-delivered
  mask, and the runners pass whole arrays on.  Every such path is
  decided from the data (a chunk's size, the mask a model returns),
  never from a loss model's type, and gives the full path's values
  bit for bit.
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
(DESIGN.md §10 states the equivalence contract).  There is no engine
switch: a caller picks an engine by calling it — Figure 8 calls
:func:`run_udp_burst_batch` and :func:`run_iperf_tcp_batch`, while
:mod:`repro.nodes.iperf` runs the event engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.net.loss import LossModel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.starlink.access import AccessPath


# -- vectorised link primitives ---------------------------------------------


_PREFIX_MAX = 2048
"""Longest chunk a hop serves from its cached service sums; longer
chunks (the UDP bursts' thousands of packets) compute their own, so no
burst-sized array outlives its call."""


def fifo_horizon(
    arrival_s: np.ndarray,
    tx_s: float | np.ndarray,
    busy_until_s: float = 0.0,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Service finish times of a FIFO server (no drops).

    Closed form of the Lindley recursion for sorted arrivals:
    ``finish_i = C_i + max(busy, max_{j<=i}(a_j - C_{j-1}))`` with ``C``
    the cumulative transmission time and ``busy`` the initial workload
    (the time the server is busy until from earlier chunks).  ``tx_s``
    is one transmission time for every packet or one per packet; a
    scalar builds ``C`` as ``np.full(n, tx).cumsum()``, the values the
    per-packet ``cumsum`` gives.  ``sums``, when given, is ``(C, C -
    tx)`` for these packets, already built (a hop's cached prefix).
    Packet ``i`` starts service at ``finish_i - tx_i``.
    """
    if sums is not None:
        cumulative, before = sums
    else:
        if isinstance(tx_s, np.ndarray):
            cumulative = np.cumsum(tx_s)
        else:
            cumulative = np.full(len(arrival_s), tx_s).cumsum()
        before = cumulative - tx_s
    horizon = np.maximum.accumulate(arrival_s - before)
    return cumulative + np.maximum(horizon, busy_until_s)


def _serve(
    arrival_s: np.ndarray,
    size_bytes: float | np.ndarray,
    rate_bps: float,
    capacity_bytes: int | None,
    busy_until_s: float,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Drop-tail admission and FIFO service of one sorted chunk.

    Mirrors :class:`repro.net.link.Link` + ``DropTailQueue``: a packet
    arriving while the server is busy is dropped when the queued bytes
    (excluding the packet in transmission) plus its own size exceed
    ``capacity_bytes``; a packet arriving at an idle server is always
    admitted.  ``busy_until_s`` carries the server's residual workload
    from earlier chunks: it delays service starts and its remaining
    bytes (``rate * (busy - arrival)``) count against queue capacity,
    so backlog persists across chunk boundaries.  ``size_bytes`` is one
    size for every packet or one per packet; ``sums`` goes to
    :func:`fifo_horizon`.

    Returns ``(accepted, finish_s)``: ``accepted`` is ``None`` when
    every packet is admitted (the common case), else a mask with NaN
    finish times where dropped.
    """
    tx_s = size_bytes * 8.0 / rate_bps
    finish = fifo_horizon(arrival_s, tx_s, busy_until_s, sums)
    if capacity_bytes is None:
        return None, finish
    # Queued bytes at each packet's arrival: predecessors whose service
    # has not started yet (the packet in transmission has start <=
    # arrival and is excluded, matching the queue's capacity model),
    # plus the residual carried workload still unserved at the arrival
    # instant.
    start = finish - tx_s
    if isinstance(size_bytes, np.ndarray):
        cumulative = np.cumsum(size_bytes)
    else:
        cumulative = np.full(len(arrival_s), size_bytes, dtype=float).cumsum()
    not_started = np.searchsorted(start, arrival_s, side="right")
    ordinal = np.arange(len(arrival_s))
    queued_bytes = np.where(ordinal > 0, cumulative[ordinal - 1], 0.0)
    queued_bytes -= np.where(not_started > 0, cumulative[not_started - 1], 0.0)
    queued_bytes += np.clip(busy_until_s - arrival_s, 0.0, None) * rate_bps / 8.0
    violates = (start > arrival_s) & (queued_bytes + size_bytes > capacity_bytes)
    if violates.any():
        # Drops change the dynamics of everything after them, so the
        # drop-free schedule above is only a fast path; resolve
        # admission exactly with one O(n) sequential scan.  The scan
        # may still admit every packet: a start that rounds past its
        # arrival looks like a wait above.
        accepted, finish = _admit_sequential(
            arrival_s, size_bytes, tx_s, rate_bps, capacity_bytes, busy_until_s
        )
        return (None if accepted.all() else accepted), finish
    return None, finish


_FIT_MARGIN = 1e-9
"""Relative rounding margin on :func:`_cannot_overflow`'s bound."""


def _cannot_overflow(
    arrival_s: np.ndarray,
    size_bytes: float | np.ndarray,
    rate_bps: float,
    capacity_bytes: int,
    busy_until_s: float,
) -> bool:
    """Whether no packet of a sorted chunk can violate queue capacity.

    A packet's queued bytes are some of its predecessors' plus the
    carried residual, which shrinks as arrivals advance, so no packet
    sees more than the chunk's bytes plus the residual at the first
    arrival.  Kept under capacity with a margin far above the rounding
    of :func:`_serve`'s ``cumsum``, the bound lets a chunk skip that
    per-packet pass.
    """
    n = len(arrival_s)
    if not n:
        return True
    residual_bytes = max(0.0, busy_until_s - float(arrival_s[0])) * rate_bps / 8.0
    if isinstance(size_bytes, np.ndarray):
        chunk_bytes = float(size_bytes.sum())
    else:
        chunk_bytes = n * size_bytes
    return (chunk_bytes + residual_bytes) * (1.0 + _FIT_MARGIN) < capacity_bytes


_SCAN_BLOCK = 1024
"""Packets :func:`_admit_sequential` converts to Python floats at once."""


def _admit_sequential(
    arrival_s: np.ndarray,
    size_bytes: float | np.ndarray,
    tx_s: float | np.ndarray,
    rate_bps: float,
    capacity_bytes: int,
    busy_until_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact drop-tail admission in one sequential pass.

    Replays the per-packet FIFO recursion with a deque of
    not-yet-started packets, so queued-bytes accounting is O(1)
    amortised per packet — the slow path behind :func:`_serve` when
    the drop-free schedule violates capacity.  Returns ``(accepted,
    finish_s)`` like :func:`_serve`.

    The loop reads Python floats, converted ``_SCAN_BLOCK`` packets at
    a time with ``tolist()``: a numpy scalar per packet costs several
    times the arithmetic, and converting a whole chunk at once would
    hold a Python float per packet (a UDP burst chunk has thousands)
    for the length of the scan.  A packet that finds the server idle
    is admitted without counting queued bytes; the not-yet-started
    packets it leaves in the deque have all started by then, and the
    next packet that waits pops them in the same order before any
    other packet joins, so every sum is taken as in the per-packet
    recursion.
    """
    n = len(arrival_s)
    accepted = np.zeros(n, dtype=bool)
    finish_all = np.full(n, np.nan)
    per_packet = isinstance(size_bytes, np.ndarray)
    if not per_packet:
        size = float(size_bytes)
        tx = float(tx_s)
    pending: deque[tuple[float, float]] = deque()  # (start_s, size_bytes)
    pending_bytes = 0.0
    prev_finish = busy_until_s
    for lo in range(0, n, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, n)
        arrivals = arrival_s[lo:hi].tolist()
        if per_packet:
            sizes = size_bytes[lo:hi].tolist()
            txs = tx_s[lo:hi].tolist()
        admitted = [False] * len(arrivals)
        finishes = [math.nan] * len(arrivals)
        for j, arrival in enumerate(arrivals):
            if per_packet:
                size = sizes[j]
                tx = txs[j]
            if arrival >= prev_finish:  # idle server: service starts now
                prev_finish = arrival + tx
            else:  # waits until prev_finish
                while pending and pending[0][0] <= arrival:
                    pending_bytes -= pending.popleft()[1]
                queued = pending_bytes
                if arrival < busy_until_s:
                    queued += (busy_until_s - arrival) * rate_bps / 8.0
                if queued + size > capacity_bytes:
                    continue  # tail drop
                pending.append((prev_finish, size))
                pending_bytes += size
                prev_finish += tx
            admitted[j] = True
            finishes[j] = prev_finish
        accepted[lo:hi] = admitted
        finish_all[lo:hi] = finishes
    return accepted, finish_all


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
    _prefix_tx_s: float = field(default=math.nan, init=False, repr=False)
    _prefix: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def traverse(
        self, arrival_s: np.ndarray, size_bytes: float | np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Push a sorted chunk of packets through this hop.

        ``size_bytes`` is one size for every packet (what the runners
        pass) or one per packet.  Returns ``(delivered_mask,
        handoff_s)`` over the input chunk: who survived queue admission
        and the loss model, and when each survivor reaches the next
        node's input (delivery plus the receiving node's processing
        delay; NaN where the packet died).  ``delivered_mask`` is
        ``None`` when every packet was delivered.

        Most chunks lose nothing, so the masks and scatters over the
        chunk are built only when a packet was dropped or lost.
        """
        arrival_s = np.asarray(arrival_s, dtype=float)
        n = len(arrival_s)
        self.offered += n
        capacity = self.queue_capacity_bytes
        if capacity is not None and _cannot_overflow(
            arrival_s, size_bytes, self.rate_bps, capacity, self._busy_until_s
        ):
            capacity = None
        sums = None
        if n <= _PREFIX_MAX and not isinstance(size_bytes, np.ndarray):
            sums = self._service_sums(n, size_bytes * 8.0 / self.rate_bps)
        accepted, finish = _serve(
            arrival_s, size_bytes, self.rate_bps, capacity, self._busy_until_s, sums
        )
        served = finish if accepted is None else finish[accepted]
        self.drops += n - len(served)
        if len(served):
            self._busy_until_s = float(served[-1])
        lost = self._draw_losses(served)
        if lost is None:
            delivered_mask = accepted
        elif accepted is None:
            delivered_mask = ~lost
        else:
            delivered_mask = accepted.copy()
            delivered_mask[accepted] = ~lost
        finish_delivered = finish if delivered_mask is None else finish[delivered_mask]
        if callable(self.delay):
            delay = self._evaluate(self.delay, finish_delivered, "delay")
        else:
            delay = float(self.delay)
        delivery = finish_delivered + delay
        if self.extra_delay is not None:
            delivery += self._evaluate(
                self.extra_delay, finish_delivered, "extra_delay"
            )
        # FIFO monotone-delivery clamp, continuing across chunks: the
        # running maximum is non-decreasing, so the carried delivery
        # can only bind when the first delivery precedes it.
        np.maximum.accumulate(delivery, out=delivery)
        if len(delivery):
            if delivery[0] < self._last_delivery_s:
                np.maximum(delivery, self._last_delivery_s, out=delivery)
            self._last_delivery_s = float(delivery[-1])
        self.delivered += len(delivery)
        if self.rx_processing_delay_s:
            delivery += self.rx_processing_delay_s
        if delivered_mask is None:
            return None, delivery
        handoff = np.full(n, np.nan)
        handoff[delivered_mask] = delivery
        return delivered_mask, handoff

    def _service_sums(self, n: int, tx_s: float) -> tuple[np.ndarray, np.ndarray]:
        """``(C, C - tx)`` of ``n`` packets of one transmission time,
        sliced from the hop's prefix of ``_PREFIX_MAX`` packets.

        The prefix is rebuilt when ``tx_s`` changes (the runners send
        one size per path, so it is built once).  ``cumsum`` adds in
        order, so the first ``n`` sums of the prefix are, bit for bit,
        the sums :func:`fifo_horizon` would build for ``n`` packets.
        """
        if tx_s != self._prefix_tx_s:
            cumulative = np.full(_PREFIX_MAX, tx_s).cumsum()
            self._prefix = (cumulative, cumulative - tx_s)
            self._prefix_tx_s = tx_s
        cumulative, before = self._prefix
        return cumulative[:n], before[:n]

    def _evaluate(self, provider, times_s: np.ndarray, what: str) -> np.ndarray:
        """Evaluate a per-packet time function (the ``delay`` provider or
        the ``extra_delay`` sampler) over a time vector, in order,
        through its ``.batch`` evaluator when it has one."""
        batched = getattr(provider, "batch", None)
        if batched is not None:
            values = np.asarray(batched(times_s), dtype=float)
        else:
            values = np.fromiter(
                (float(provider(float(t))) for t in times_s), float, count=len(times_s)
            )
        if len(values) and float(values.min()) < 0:
            raise ConfigurationError(f"{what} on {self.name} returned {values.min()}")
        return values

    def _draw_losses(self, finish_s: np.ndarray) -> np.ndarray | None:
        """Draw and count the loss model's decisions over the served
        packets, in the event engine's per-packet order; ``None`` when
        none was lost (a ``drop_mask`` answer of ``None`` means so)."""
        if self.loss is None:
            return None
        drop_mask = getattr(self.loss, "drop_mask", None)
        if drop_mask is not None:
            lost = drop_mask(finish_s)
            if lost is None:
                return None
        else:
            lost = np.fromiter(
                (bool(self.loss.should_drop(None, float(t))) for t in finish_s),
                bool,
                count=len(finish_s),
            )
        n_lost = int(np.count_nonzero(lost))
        if not n_lost:
            return None
        self.lost += n_lost
        return lost

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
        self, departure_s: np.ndarray, size_bytes: float
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Push a sorted batch of ``size_bytes`` packets end-to-end
        through every hop.

        Returns ``(delivered_mask, arrival_s)`` over the departures;
        arrivals are NaN where the packet died en route, and the mask
        is ``None`` when every packet arrived.  The index and mask
        arrays are built only after a hop lost a packet.
        """
        departure_s = np.asarray(departure_s, dtype=float)
        live = None  # departure indices in flight, once a packet died
        times = departure_s
        for hop in self.hops:
            if not len(times):
                break
            survived, times = hop.traverse(times, size_bytes)
            if survived is not None:
                live = np.flatnonzero(survived) if live is None else live[survived]
                times = times[survived]
        if live is None:
            return None, times
        n = len(departure_s)
        alive = np.zeros(n, dtype=bool)
        alive[live] = True
        arrivals = np.full(n, np.nan)
        arrivals[live] = times
        return alive, arrivals


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
    _, arrivals = chain.propagate(departures, packet_bytes + 28)
    # A packet that died en route arrives at NaN, which compares false.
    received = int(np.count_nonzero(arrivals <= base + duration_s + drain_s))
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
        data_ok, data_arrivals = forward.propagate(departures, wire_bytes)
        if data_ok is None:  # every segment arrived: each one is acked
            _, ack_arrivals = reverse.propagate(data_arrivals, ACK_SIZE_BYTES)
        else:
            ack_arrivals = np.full(len(seqs), np.nan)
            if data_ok.any():
                ack_arrivals[data_ok] = reverse.propagate(
                    data_arrivals[data_ok], ACK_SIZE_BYTES
                )[1]
        # A segment or ack that died arrives at NaN, which compares false.
        acked = ack_arrivals <= deadline_s
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
