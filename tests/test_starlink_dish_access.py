"""Dishy API and access-path builder tests."""

import numpy as np
import pytest

from repro.geo.cities import city
from repro.net.trace import traceroute
from repro.orbits.constellation import starlink_shell1
from repro.starlink.access import (
    AccessConfig,
    AccessTechnology,
    Scenario,
    terrestrial_delay_s,
)
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.dish import Dish, DishState
from repro.starlink.pop import pop_for_city


@pytest.fixture(scope="module")
def bentpipe():
    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    return BentPipeModel(
        shell,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        seed=4,
    )


def test_dishy_status_connected(bentpipe):
    status = Dish(bentpipe).status(100.0)
    assert status.state is DishState.CONNECTED
    assert status.serving_satellite is not None
    assert status.elevation_deg >= 25.0
    assert status.pop_ping_latency_ms > 10.0
    assert status.downlink_throughput_mbps > status.uplink_throughput_mbps
    assert status.weather == "clear sky"


def test_dishy_status_searching_during_outage():
    sparse = starlink_shell1(n_planes=3, sats_per_plane=2)
    model = BentPipeModel(
        sparse,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        seed=5,
    )
    dish = Dish(model)
    statuses = [dish.status(float(t)) for t in np.arange(0, 7200, 60.0)]
    searching = [s for s in statuses if s.state is DishState.SEARCHING]
    assert searching
    assert searching[0].serving_satellite is None
    assert searching[0].downlink_throughput_mbps == 0.0


def test_terrestrial_delay_transatlantic():
    delay = terrestrial_delay_s(city("london").location, city("n_virginia").location)
    assert 0.030 < delay < 0.050  # one-way, inflated fibre path


def test_starlink_path_traceroute_shape(bentpipe):
    path = Scenario.starlink(
        bentpipe, city("n_virginia").location, AccessConfig(time_offset_s=3600.0)
    ).build()
    assert path.technology is AccessTechnology.STARLINK
    trace = traceroute(path.network, path.client, path.server, probes_per_hop=3)
    assert trace.destination_reached
    names = trace.hop_names()
    assert names[0] == "dish"
    assert names[1] == "starlink-pop"
    # The bent-pipe hop dominates: big jump from hop 1 to hop 2.
    jump = trace.hops[1].median_rtt_s() - trace.hops[0].median_rtt_s()
    assert jump > 0.015


def test_access_orientation_download_bottleneck(bentpipe):
    """The reverse (server->client) direction must carry the DL rate."""
    rates = AccessConfig(dl_rate_bps=50e6, ul_rate_bps=5e6)
    for scenario in (Scenario.broadband, Scenario.cellular):
        path = scenario(
            city("london").location, city("gcp_london").location, rates
        ).build()
        from repro.nodes.iperf import run_udp_burst

        result = run_udp_burst(path, rate_bps=40e6, duration_s=2.0)
        assert result.loss_fraction < 0.05, path.technology


def test_cellular_first_hop_slow():
    path = Scenario.cellular(
        city("london").location, city("n_virginia").location
    ).build()
    trace = traceroute(path.network, path.client, path.server, probes_per_hop=5)
    first_hop = trace.hops[0].median_rtt_s()
    assert first_hop > 0.030


def test_broadband_first_hop_fast():
    path = Scenario.broadband(
        city("london").location, city("n_virginia").location
    ).build()
    trace = traceroute(path.network, path.client, path.server, probes_per_hop=5)
    assert trace.hops[0].median_rtt_s() < 0.015


def test_figure5_ordering(bentpipe):
    """Final RTT: broadband < starlink < cellular (paper Figure 5)."""
    virginia = city("n_virginia").location
    london = city("london").location
    finals = {}
    for name, path in (
        ("broadband", Scenario.broadband(london, virginia).build()),
        (
            "starlink",
            Scenario.starlink(
                bentpipe, virginia, AccessConfig(time_offset_s=7200.0)
            ).build(),
        ),
        ("cellular", Scenario.cellular(london, virginia).build()),
    ):
        trace = traceroute(path.network, path.client, path.server, probes_per_hop=7)
        finals[name] = trace.hops[-1].median_rtt_s()
    assert finals["broadband"] < finals["starlink"] < finals["cellular"]
