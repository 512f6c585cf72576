"""Measurement-node (RPi) tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nodes.rpi import NODE_CITIES, MeasurementNode
from repro.orbits.constellation import starlink_shell1
from repro.weather.history import WeatherHistory


@pytest.fixture(scope="module")
def shell():
    return starlink_shell1(n_planes=24, sats_per_plane=12)


@pytest.fixture(scope="module")
def node(shell):
    weather = WeatherHistory(seed=6, duration_s=3 * 86_400.0)
    return MeasurementNode("wiltshire", shell=shell, weather=weather, seed=6)


def test_three_paper_nodes_constructible(shell):
    for city_name in NODE_CITIES:
        node = MeasurementNode(city_name, shell=shell, seed=1)
        assert node.server_city.is_datacentre


def test_unknown_city_rejected(shell):
    with pytest.raises(ConfigurationError):
        MeasurementNode("atlantis", shell=shell)


def test_speedtest_sample_realistic(node):
    sample = node.speedtest(3600.0)
    assert 5.0 < sample.download_mbps < 350.0
    assert 0.5 < sample.upload_mbps < 30.0
    assert sample.download_mbps > sample.upload_mbps


def test_speedtest_diurnal_pattern(node):
    # Medians over several days: night (03:00 local) beats evening (20:30).
    nights = [
        node.speedtest(2.0 * 3600.0 + d * 86_400.0).download_mbps for d in range(3)
    ]
    evenings = [
        node.speedtest(19.5 * 3600.0 + d * 86_400.0).download_mbps for d in range(3)
    ]
    assert np.median(nights) > np.median(evenings)


def test_udp_loss_test_bounded(node):
    losses = [node.udp_loss_test(float(t)) for t in np.linspace(0, 86_400, 24)]
    assert all(0.0 <= loss <= 1.0 for loss in losses)
    assert np.median(losses) < 0.05  # most tests are quiet


def test_udp_loss_occasionally_heavy(node):
    losses = [node.udp_loss_test(float(t)) for t in np.linspace(0, 2 * 86_400, 120)]
    assert max(losses) > 0.03  # some windows hit handovers


def test_mtr_reaches_server(node):
    report = node.mtr(7200.0, cycles=8)
    assert report.cycles == 8
    responders = [h.responder for h in report.hops]
    assert "starlink-pop" in responders
    assert report.hops[-1].responder == "server"


def test_mtr_hop_stats_consistent(node):
    report = node.mtr(10_800.0, cycles=10)
    pop = report.hop_by_responder("starlink-pop")
    assert pop.min_ms <= pop.median_ms <= pop.max_ms
    assert pop.received <= pop.sent
    with pytest.raises(KeyError):
        report.hop_by_responder("nonexistent")


def test_iperf_download_works(node):
    result = node.iperf(4 * 3600.0, cc="cubic", duration_s=4.0)
    assert result.goodput_mbps > 3.0
    assert result.duration_s == 4.0


def test_dishy_status_from_node(node):
    status = node.dishy_status(5000.0)
    assert status.serving_satellite is not None


def test_precompute_geometry_fills_the_schedule_epochs(shell):
    """The precompute puts exactly the epochs the schedule touches into
    the bent pipe's link-state table, and the samples then hit it."""
    from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S

    node = MeasurementNode("wiltshire", shell=shell, seed=1)
    times = np.arange(0.0, 1800.0, 300.0) + 7.0
    node.precompute_geometry(times, horizon_s=30.0)
    touched = {
        int(t // STARLINK_RESCHEDULE_INTERVAL_S)
        for start in times
        for t in (start, start + 15.0, start + 30.0)
    }
    assert len(touched) == 3 * len(times)
    assert node.bentpipe.link_states.computed == len(touched)
    for t in times:
        node.speedtest(float(t))
        node.bentpipe.loss_rate(float(t) + 30.0)
    assert node.bentpipe.link_states.computed == len(touched)


def test_precompute_geometry_matches_on_demand_scan(shell):
    from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S

    node = MeasurementNode("wiltshire", shell=shell, seed=3)
    times = np.arange(0.0, 900.0, 150.0)
    node.precompute_geometry(times, horizon_s=15.0)
    fresh = MeasurementNode("wiltshire", shell=shell, seed=3)
    for t in times:
        epoch = int(t // STARLINK_RESCHEDULE_INTERVAL_S)
        t_epoch = epoch * STARLINK_RESCHEDULE_INTERVAL_S
        assert (
            node.bentpipe.serving_geometry(t_epoch)
            == fresh.bentpipe.serving_geometry(t_epoch)
        )
