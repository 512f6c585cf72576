"""Traceroute and ping tests."""

import gc

import numpy as np
import pytest

from repro.analysis.stats import median
from repro.net.loss import BernoulliLoss
from repro.net.ping import ping
from repro.net.topology import Network
from repro.net.trace import traceroute


def _chain(n=4, hop_delay=0.005, loss_on_first=None):
    net = Network()
    names = [f"h{i}" for i in range(n)]
    for name in names:
        net.add_node(name)
    for index, (a, b) in enumerate(zip(names, names[1:])):
        loss = loss_on_first if index == 0 else None
        net.connect(a, b, rate_bps=1e9, delay=hop_delay, loss=loss)
    net.compute_routes()
    return net, names


def test_traceroute_discovers_all_hops():
    net, names = _chain(5)
    result = traceroute(net, "h0", "h4")
    assert result.destination_reached
    assert [hop.responder for hop in result.hops] == names[1:]


def test_traceroute_rtts_increase_along_path():
    net, _ = _chain(5, hop_delay=0.01)
    result = traceroute(net, "h0", "h4", probes_per_hop=3)
    medians = [median(hop.rtts_s) for hop in result.hops]
    assert all(b > a for a, b in zip(medians, medians[1:]))


def test_traceroute_hop_rtt_matches_topology():
    net, _ = _chain(3, hop_delay=0.01)
    result = traceroute(net, "h0", "h2")
    assert median(result.hops[0].rtts_s) == pytest.approx(0.02, rel=0.05)
    assert median(result.hops[1].rtts_s) == pytest.approx(0.04, rel=0.05)


def test_traceroute_counts_losses():
    net, _ = _chain(3, loss_on_first=BernoulliLoss(1.0, np.random.default_rng(0)))
    result = traceroute(net, "h0", "h2", probes_per_hop=4, timeout_s=0.5)
    assert not result.destination_reached
    assert all(hop.sent == 4 and hop.rtts_s == [] for hop in result.hops)


def test_traceroute_partial_loss():
    net, _ = _chain(3, loss_on_first=BernoulliLoss(0.5, np.random.default_rng(1)))
    result = traceroute(net, "h0", "h2", probes_per_hop=40, timeout_s=0.5)
    hop = result.hops[0]
    assert hop.sent == 40
    assert 0.2 < 1.0 - len(hop.rtts_s) / hop.sent < 0.8


def test_traceroute_stops_at_destination():
    net, _ = _chain(4)
    result = traceroute(net, "h0", "h3", max_ttl=30)
    assert len(result.hops) == 3  # not 30


def test_hop_result_statistics():
    net, _ = _chain(3)
    result = traceroute(net, "h0", "h2", probes_per_hop=5)
    hop = result.hops[0]
    assert hop.sent == 5 and len(hop.rtts_s) == 5
    assert min(hop.rtts_s) <= median(hop.rtts_s) <= max(hop.rtts_s)


def test_ping_measures_rtt():
    net, _ = _chain(3, hop_delay=0.01)
    result = ping(net, "h0", "h2", count=5)
    assert result.sent == 5 and len(result.rtts_s) == 5
    assert median(result.rtts_s) == pytest.approx(0.04, rel=0.05)


def test_ping_with_total_loss():
    net, _ = _chain(2, loss_on_first=BernoulliLoss(1.0, np.random.default_rng(2)))
    result = ping(net, "h0", "h1", count=4, timeout_s=0.5)
    assert result.sent == 4
    assert result.rtts_s == []


def test_two_traceroutes_do_not_interfere():
    net, _ = _chain(4)
    first = traceroute(net, "h0", "h3")
    second = traceroute(net, "h0", "h3")
    assert first.destination_reached and second.destination_reached
    assert len(first.hops) == len(second.hops)


def test_traceroute_leaves_no_cyclic_garbage():
    """A run's probe chain, reply tables and packets die by reference
    counting: a chain that referred to itself (a closure scheduling
    itself) would leave every call's tables to the cyclic collector."""
    from repro.nodes.rpi import MeasurementNode
    from repro.orbits.constellation import starlink_shell1

    node = MeasurementNode(
        "wiltshire", shell=starlink_shell1(n_planes=24, sats_per_plane=12), seed=3
    )
    path = node.build_path(8 * 3600.0, seed=3)
    gc.collect()
    gc.disable()
    try:
        result = traceroute(
            path.network,
            path.client,
            path.server,
            probes_per_hop=30,
            probe_size_bytes=60,
        )
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert result.destination_reached
    assert unreachable == 0
