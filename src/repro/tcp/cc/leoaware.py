"""BBR-LEO: a blackout-tolerant BBR variant (the paper's future work).

The paper's §5 takeaway suggests "new transport protocols that are
specially adapted to LEO satellite connections and are able to deliver
the full theoretical bandwidth capacity despite regular periods of high
packet loss".  This class is a minimal such adaptation of BBRv1, built
on one observation about Starlink's loss process: severe loss arrives
as short *blackouts* (handover bursts and the 15-second reconfiguration
gaps), not as congestion.  Collapsing the window on RTO therefore
throws away a correct network model: after the blackout the path is
exactly as it was.  BBR-LEO keeps its bandwidth/RTT model and its cwnd
across timeouts, so the instant the link returns it transmits at full
rate instead of slow-starting from 4 segments.  It does not model the
blackouts' period: every timeout is handled the same way.

The `extension_transport` experiment quantifies the gain over stock
BBR on the Figure 8 stress link.
"""

from __future__ import annotations

from repro.tcp.cc.bbr import Bbr, _MIN_CWND


class LeoBbr(Bbr):
    """BBR with blackout-resilient timeout handling."""

    name = "bbr-leo"

    def on_timeout(self, now_s: float) -> None:
        """Keep the model: a blackout is not congestion.

        The cwnd stays at the model-derived value (bounded below by the
        stock minimum), so retransmission after the blackout proceeds at
        full rate.  Stock BBR collapses to 4 segments here.
        """
        if self.btlbw_bps > 0:
            # Trust the pre-blackout model.
            target = self.cwnd_gain * self._bdp_packets(1448)
            self._cwnd = max(_MIN_CWND, target)
        else:
            self._cwnd = _MIN_CWND
