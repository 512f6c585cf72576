"""Integration tests for the packet-level TCP flow."""

import numpy as np
import pytest

from repro.errors import FlowError
from repro.net.loss import BernoulliLoss, HandoverBurstLoss
from repro.net.queues import DropTailQueue
from repro.net.topology import Network
from repro.tcp.flow import TcpFlow


def _link_net(rate_mbps=20.0, rtt_ms=40.0, queue_packets=128, loss=None):
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.connect(
        "c",
        "s",
        rate_bps=rate_mbps * 1e6,
        delay=rtt_ms / 2000.0,
        queue=DropTailQueue(queue_packets * 1500),
        loss=loss,
    )
    net.compute_routes()
    return net


def test_requires_exactly_one_size_spec():
    net = _link_net()
    with pytest.raises(FlowError):
        TcpFlow(net, "c", "s")
    with pytest.raises(FlowError):
        TcpFlow(net, "c", "s", total_bytes=1000, duration_s=1.0)


def test_small_transfer_completes():
    net = _link_net()
    flow = TcpFlow(net, "c", "s", cc="cubic", total_bytes=50_000)
    net.sim.run(until=10.0)
    assert flow.done
    assert flow.stats.delivered_bytes >= 50_000
    assert flow.stats.end_s is not None


def test_transfer_time_reasonable():
    # 1 MB at 20 Mbps with 40 ms RTT: slow start + transfer, under 2 s.
    net = _link_net()
    flow = TcpFlow(net, "c", "s", total_bytes=1_000_000)
    net.sim.run(until=10.0)
    assert flow.done
    assert flow.stats.end_s < 2.0


def test_clean_link_high_utilisation_all_ccas():
    for cc in ("reno", "cubic", "bbr", "vegas", "veno"):
        net = _link_net()
        flow = TcpFlow(net, "c", "s", cc=cc, duration_s=10.0)
        net.sim.run(until=14.0)
        goodput_mbps = flow.stats.delivered_bytes * 8 / 10.0 / 1e6
        assert goodput_mbps > 15.0, f"{cc} only reached {goodput_mbps:.1f} Mbps"


def test_no_retransmits_without_loss_for_bbr_vegas():
    for cc in ("bbr", "vegas"):
        net = _link_net()
        flow = TcpFlow(net, "c", "s", cc=cc, duration_s=5.0)
        net.sim.run(until=8.0)
        assert flow.stats.retransmits == 0, cc


def test_flow_survives_heavy_random_loss():
    net = _link_net(loss=BernoulliLoss(0.1, np.random.default_rng(1)))
    flow = TcpFlow(net, "c", "s", cc="cubic", duration_s=8.0)
    net.sim.run(until=13.0)
    assert flow.done
    assert flow.stats.delivered_bytes > 0
    assert flow.stats.retransmits > 0


def test_bbr_beats_loss_based_under_random_loss():
    goodputs = {}
    for cc in ("bbr", "cubic"):
        net = _link_net(loss=BernoulliLoss(0.05, np.random.default_rng(2)))
        flow = TcpFlow(net, "c", "s", cc=cc, duration_s=10.0)
        net.sim.run(until=15.0)
        goodputs[cc] = flow.stats.delivered_bytes
    assert goodputs["bbr"] > 2.0 * goodputs["cubic"]


def test_flow_recovers_after_burst_outage():
    loss = HandoverBurstLoss(
        burst_windows=[(2.0, 4.0, 1.0)],
        residual_loss=0.0,
        rng=np.random.default_rng(3),
    )
    net = _link_net(loss=loss)
    flow = TcpFlow(net, "c", "s", cc="cubic", duration_s=10.0)
    net.sim.run(until=15.0)
    assert flow.done
    # Still moves serious data despite losing 2 s outright and paying
    # RTO backoff + slow-start recovery afterwards.
    goodput_mbps = flow.stats.delivered_bytes * 8 / 10.0 / 1e6
    assert goodput_mbps > 2.5
    assert flow.stats.timeouts >= 1


def test_rtt_estimate_matches_path():
    net = _link_net(rtt_ms=60.0)
    flow = TcpFlow(net, "c", "s", duration_s=5.0)
    net.sim.run(until=8.0)
    assert flow.rtt.min_rtt_s == pytest.approx(0.060, rel=0.15)


def test_handlers_released_after_completion():
    net = _link_net()
    flow = TcpFlow(net, "c", "s", total_bytes=10_000)
    net.sim.run(until=5.0)
    assert flow.done
    assert flow.flow_id not in net.node("c")._handlers
    assert flow.flow_id not in net.node("s")._handlers


def test_two_flows_share_bottleneck():
    net = _link_net(rate_mbps=20.0)
    flow_a = TcpFlow(net, "c", "s", cc="cubic", duration_s=10.0)
    flow_b = TcpFlow(net, "c", "s", cc="cubic", duration_s=10.0)
    net.sim.run(until=14.0)
    total = flow_a.stats.delivered_bytes + flow_b.stats.delivered_bytes
    total_mbps = total * 8 / 10.0 / 1e6
    assert total_mbps > 15.0  # link still well used
    share_a = flow_a.stats.delivered_bytes / total
    assert 0.2 < share_a < 0.8  # neither flow starved


def test_asymmetric_path_download():
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.connect(
        "c",
        "s",
        rate_bps=5e6,  # uplink (acks)
        delay=0.02,
        rate_bps_reverse=50e6,  # downlink (data)
        queue=DropTailQueue(128 * 1500),
        queue_reverse=DropTailQueue(128 * 1500),
    )
    net.compute_routes()
    flow = TcpFlow(net, "s", "c", cc="cubic", duration_s=8.0)
    net.sim.run(until=12.0)
    goodput_mbps = flow.stats.delivered_bytes * 8 / 8.0 / 1e6
    assert goodput_mbps > 35.0
