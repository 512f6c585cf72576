"""Link-tap capture tests (the tap lives in ``tests/capture.py``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.loss import BernoulliLoss, HandoverBurstLoss
from repro.net.packet import Packet, Protocol
from repro.net.ping import ping
from repro.net.topology import Network
from repro.net.trace import traceroute
from repro.nodes.iperf import run_udp_burst
from repro.tcp.flow import TcpFlow
from tests.capture import CaptureEvent, tap_link


def _two_node_net(loss=None, rate=10e6):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    forward, _ = net.connect("a", "b", rate_bps=rate, delay=0.005, loss=loss)
    net.compute_routes()
    return net, forward


def _blast(net, n=100, flow_id="f"):
    base = net.sim.now
    for seq in range(n):
        net.sim.schedule_at(
            base + seq * 0.002,
            net.node("a").send,
            Packet(
                src="a", dst="b", protocol=Protocol.UDP, size_bytes=1000,
                flow_id=flow_id, seq=seq,
            ),
        )
    net.sim.run()


def test_tap_records_deliveries():
    net, link = _two_node_net()
    tap = tap_link(link)
    _blast(net, n=50)
    assert len(tap.delivered()) == 50
    assert tap.loss_fraction() == 0.0
    assert all(r.event is CaptureEvent.DELIVERED for r in tap.records)


def test_tap_records_losses():
    net, link = _two_node_net(loss=BernoulliLoss(1.0, np.random.default_rng(0)))
    tap = tap_link(link)
    _blast(net, n=30)
    assert len(tap.lost()) == 30
    assert tap.loss_fraction() == 1.0


def test_tap_partial_loss_statistics():
    net, link = _two_node_net(loss=BernoulliLoss(0.3, np.random.default_rng(1)))
    tap = tap_link(link)
    _blast(net, n=2000)
    assert 0.25 < tap.loss_fraction() < 0.35
    assert len(tap.delivered()) + len(tap.lost()) == 2000


def test_tap_filters_by_flow():
    net, link = _two_node_net()
    tap = tap_link(link)
    _blast(net, n=20, flow_id="one")
    _blast(net, n=10, flow_id="two")
    assert len(tap.delivered("one")) == 20
    assert len(tap.delivered("two")) == 10


def test_tap_throughput_series():
    """The delivered records carry the blast's rate: 4 Mb/s in the
    first half second."""
    net, link = _two_node_net()
    tap = tap_link(link)
    _blast(net, n=500)  # 1000 B every 2 ms = 4 Mbps for 1 s
    delivered = tap.delivered()
    start = delivered[0].t_s
    first_bin = [r.size_bytes for r in delivered if r.t_s - start < 0.5]
    assert delivered[-1].t_s - start >= 0.5
    assert sum(first_bin) * 8.0 / 0.5 / 1e6 == pytest.approx(4.0, rel=0.15)


def test_tap_empty_series():
    net, link = _two_node_net()
    tap = tap_link(link)
    assert len(tap) == 0
    assert tap.delivered() == [] and tap.lost() == []
    assert tap.loss_fraction() == 0.0


def test_double_tap_rejected():
    net, link = _two_node_net()
    tap_link(link)
    with pytest.raises(ConfigurationError):
        tap_link(link)


def test_tap_confirms_loss_clumping():
    """End-to-end: the tap sees losses clustered in burst windows."""
    loss = HandoverBurstLoss(
        burst_windows=[(0.4, 0.6, 0.95)], residual_loss=0.0,
        rng=np.random.default_rng(2),
    )
    net, link = _two_node_net(loss=loss)
    tap = tap_link(link)
    _blast(net, n=500)
    loss_times = np.array([r.t_s for r in tap.lost()])
    assert loss_times.size > 10
    assert loss_times.min() >= 0.39
    assert loss_times.max() <= 0.61


def test_tap_does_not_change_timing():
    reference_net, _ = _two_node_net()
    arrivals_ref = []
    reference_net.node("b").register_handler("f", lambda p, t: arrivals_ref.append(t))
    _blast(reference_net, n=20)

    tapped_net, tapped_link = _two_node_net()
    tap = tap_link(tapped_link)
    arrivals_tapped = []
    tapped_net.node("b").register_handler("f", lambda p, t: arrivals_tapped.append(t))
    _blast(tapped_net, n=20)
    assert arrivals_ref == arrivals_tapped


def _apps_once():
    """Traceroute, ping, a UDP burst and a TCP flow on a fresh network,
    captured on both directions of the client's access link."""
    net = Network()
    for name in ("client", "router", "server"):
        net.add_node(name)
    up, down = net.connect("client", "router", rate_bps=20e6, delay=0.002)
    net.connect("router", "server", rate_bps=50e6, delay=0.01)
    net.compute_routes()
    taps = [tap_link(up), tap_link(down)]
    path = SimpleNamespace(network=net, client="client", server="server")
    traceroute(net, "client", "server", probes_per_hop=2, max_ttl=4)
    ping(net, "client", "server", count=3)
    run_udp_burst(path, rate_bps=5e6, duration_s=0.05, drain_s=0.5)
    flow = TcpFlow(net, "server", "client", total_bytes=30_000, start_s=net.sim.now)
    net.sim.run()
    assert flow.done
    return [tap.records for tap in taps]


def test_flow_ids_and_captures_repeat_within_a_process():
    """Flow ids come from the run's simulator, not from process-wide
    counters (or an object's address), so a second run of the same
    apps in one process carries the same ids and captures the same
    records."""
    first = _apps_once()
    second = _apps_once()
    assert first == second
    flow_ids = {r.flow_id for records in first for r in records}
    assert flow_ids == {"traceroute-1", "ping-2", "udp-burst-3", "tcp-4"}


def test_tap_records_a_forwarded_packet_at_its_handoff():
    """On a link into a router with a processing delay, a packet the
    router forwards is recorded at delivery plus that delay (the batch
    engine's ``handoff_s``, when the router sends it on), and a packet
    whose TTL expires there at the bare delivery time."""
    net = Network()
    net.add_node("a")
    net.add_node("r", processing_delay_s=0.001)
    net.add_node("b")
    link, _ = net.connect("a", "r", rate_bps=10e6, delay=0.005)
    net.connect("r", "b", rate_bps=10e6, delay=0.005)
    net.compute_routes()
    tap = tap_link(link)
    for seq, ttl in enumerate((2, 1)):
        net.sim.schedule_at(
            seq * 0.1,
            net.node("a").send,
            Packet(
                src="a", dst="b", protocol=Protocol.UDP, size_bytes=1000,
                ttl=ttl, flow_id="f", seq=seq,
            ),
        )
    net.sim.run()
    forwarded, expired = tap.delivered()
    delivery = 1000 * 8.0 / 10e6 + 0.005
    assert forwarded.seq == 0 and forwarded.t_s == pytest.approx(delivery + 0.001)
    assert expired.seq == 1 and expired.t_s == pytest.approx(0.1 + delivery)
    # r forwards the first packet and b's port-unreachable reply to it.
    assert net.node("r").forwarded == 2 and net.node("r").ttl_expired == 1
