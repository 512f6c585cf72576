"""Property-based invariants across subsystems (hypothesis)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.queues import DropTailQueue
from repro.net.packet import Packet, Protocol
from repro.net.simulator import Simulator


# --- simulator: causality ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
def test_simulator_executes_in_nondecreasing_time(delays):
    sim = Simulator()
    executed = []
    for delay in delays:
        sim.schedule(delay, lambda: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(delays)


# --- queue: conservation -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=40, max_value=9000), min_size=1, max_size=60),
    st.integers(min_value=1500, max_value=30_000),
)
def test_queue_conserves_packets(sizes, capacity):
    queue = DropTailQueue(capacity_bytes=capacity)
    accepted = 0
    for size in sizes:
        packet = Packet(src="a", dst="b", protocol=Protocol.UDP, size_bytes=size)
        if queue.offer(packet):
            accepted += 1
    drained = 0
    while queue.poll() is not None:
        drained += 1
    assert drained == accepted
    assert queue.drops == len(sizes) - accepted
    # Drained to zero bytes: a packet of the whole capacity fits.
    assert queue.offer(
        Packet(src="a", dst="b", protocol=Protocol.UDP, size_bytes=capacity)
    )


# --- TCP: stream integrity under arbitrary loss --------------------------------


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    loss_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_tcp_delivers_contiguous_stream_under_loss(loss_rate, seed):
    """Whatever the loss process, the receiver's cumulative stream is
    contiguous and the flow completes a bounded transfer."""
    from repro.net.loss import BernoulliLoss
    from repro.net.topology import Network
    from repro.tcp.flow import TcpFlow

    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.connect(
        "c",
        "s",
        rate_bps=20e6,
        delay=0.01,
        loss=BernoulliLoss(loss_rate, np.random.default_rng(seed)),
    )
    net.compute_routes()
    flow = TcpFlow(net, "c", "s", cc="cubic", total_bytes=80_000)
    net.sim.run(until=60.0)
    assert flow.done, f"flow wedged at loss={loss_rate}"
    # Receiver got everything, exactly once, in order.
    assert flow._receiver.expected_seq >= flow.total_segments
    assert flow._receiver.out_of_order == set() or min(
        flow._receiver.out_of_order
    ) >= flow.total_segments
    assert flow.stats.delivered_bytes >= 80_000


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_tcp_cum_ack_monotone(seed):
    from repro.net.loss import BernoulliLoss
    from repro.net.topology import Network
    from repro.tcp.flow import TcpFlow

    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.connect(
        "c", "s", rate_bps=10e6, delay=0.02,
        loss=BernoulliLoss(0.05, np.random.default_rng(seed)),
    )
    net.compute_routes()
    flow = TcpFlow(net, "c", "s", cc="reno", total_bytes=60_000)
    observed = []

    def sample():
        observed.append(flow._cum_ack)
        if not flow.done:
            net.sim.schedule(0.01, sample)

    net.sim.schedule(0.01, sample)
    net.sim.run(until=60.0)
    assert observed == sorted(observed)
    assert observed[-1] >= flow.total_segments


# --- orbits: geometry invariants ------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-55.0, max_value=55.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=0.0, max_value=5700.0),
)
def test_visible_satellites_within_geometry_bounds(lat, lon, t):
    from repro.geo.coordinates import GeoPoint
    from repro.orbits.constellation import starlink_shell1
    from repro.orbits.visibility import visible_satellites

    shell = starlink_shell1(n_planes=12, sats_per_plane=8)
    for sample in visible_satellites(shell, GeoPoint(lat, lon), t):
        assert sample.elevation_deg >= 25.0
        assert 540e3 <= sample.slant_range_m <= 1.2e6


# --- weather: taxonomy closure ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=300)
)
def test_weather_sequence_stays_in_taxonomy(seed, hours):
    from repro.weather.conditions import WeatherCondition
    from repro.weather.generator import MarkovWeatherGenerator

    sequence = MarkovWeatherGenerator("london", seed=seed).hourly_sequence(hours)
    assert len(sequence) == hours
    assert all(isinstance(c, WeatherCondition) for c in sequence)


# --- dataset: JSONL fuzz ----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e7),
            st.integers(min_value=1, max_value=999_999),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_dataset_jsonl_roundtrip_property(entries):
    import tempfile
    from pathlib import Path

    from repro.extension.records import PageLoadRecord
    from repro.extension.storage import Dataset
    from repro.web.timing import NavigationTiming

    dataset = Dataset()
    for t, rank, starlink in entries:
        dataset.add_page_load(
            PageLoadRecord(
                user_id="u-property",
                city="london",
                region="UK",
                isp="starlink" if starlink else "cellular",
                is_starlink=starlink,
                exit_asn=14593,
                t_s=t,
                domain=f"site-{rank}.example",
                rank=rank,
                is_popular=rank <= 200,
                timing=NavigationTiming(0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.1),
            )
        )
    with tempfile.TemporaryDirectory() as tmpdir:
        path = Path(tmpdir) / "ds.jsonl"
        dataset.to_jsonl(path)
        loaded = Dataset.from_jsonl(path)
    assert len(loaded.page_loads) == len(dataset.page_loads)
    assert [r.t_s for r in loaded.page_loads] == [r.t_s for r in dataset.page_loads]
