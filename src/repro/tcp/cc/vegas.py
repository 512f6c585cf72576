"""TCP Vegas (delay-based congestion avoidance).

Vegas estimates the number of packets queued in the network as
``diff = cwnd * (rtt - base_rtt) / rtt`` and holds it between ``alpha``
and ``beta`` by +-1 segment adjustments once per RTT.  Because any RTT
inflation (including the satellite scheduler's) reads as queueing, Vegas
is very conservative on Starlink — the behaviour Figure 8 shows.
"""

from __future__ import annotations

from repro.tcp.cc.base import AckSample, CongestionControl


class Vegas(CongestionControl):
    """Vegas congestion control."""

    name = "vegas"

    def __init__(
        self, initial_cwnd: float = 10.0, alpha: float = 2.0, beta: float = 4.0
    ) -> None:
        super().__init__(initial_cwnd)
        self.alpha = alpha
        self.beta = beta
        self.ssthresh = float("inf")
        self.base_rtt_s = float("inf")
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._next_adjust_delivered = 0

    def on_ack(self, sample: AckSample) -> None:
        if sample.in_recovery:
            return  # window frozen during fast recovery
        if sample.rtt_s is not None:
            self.base_rtt_s = min(self.base_rtt_s, sample.rtt_s)
            self._rtt_sum += sample.rtt_s
            self._rtt_count += 1
        if self._cwnd < self.ssthresh:
            # Vegas slow start: grow every other RTT; approximate with
            # half-rate exponential growth.
            self._cwnd += sample.newly_acked / 2.0
        # Once-per-RTT adjustment, keyed on delivered bytes.
        if sample.delivered_bytes < self._next_adjust_delivered or self._rtt_count == 0:
            return
        self._next_adjust_delivered = sample.delivered_bytes + int(
            self._cwnd * sample.mss_bytes
        )
        avg_rtt = self._rtt_sum / self._rtt_count
        self._rtt_sum = 0.0
        self._rtt_count = 0
        if self.base_rtt_s == float("inf") or avg_rtt <= 0:
            return
        diff = self._cwnd * (avg_rtt - self.base_rtt_s) / avg_rtt
        if self._cwnd < self.ssthresh:
            if diff > self.alpha:
                self.ssthresh = self._cwnd  # leave slow start
            return
        if diff < self.alpha:
            self._cwnd += 1.0
        elif diff > self.beta:
            self._cwnd = max(2.0, self._cwnd - 1.0)

    def on_loss(self, now_s: float, in_flight: int) -> None:
        self.ssthresh = max(2.0, self._cwnd / 2.0)
        self._cwnd = max(2.0, self._cwnd * 0.75)

    def on_timeout(self, now_s: float) -> None:
        self.ssthresh = max(2.0, self._cwnd / 2.0)
        self._cwnd = 2.0
