"""Tests for BBR-LEO, the ISL extension and HTTP/3 page loads.

These are the models behind the beyond-the-paper extension experiments;
``tests/test_experiments.py::test_findings_hold`` checks those
experiments' findings.
"""

from repro.analysis.validation import validate_or_raise
from repro.experiments import run_experiment
from repro.tcp.cc import make_cc
from repro.tcp.cc.leoaware import LeoBbr


# --- BBR-LEO unit behaviour --------------------------------------------------


def test_bbr_leo_registered():
    assert isinstance(make_cc("bbr-leo"), LeoBbr)


def test_bbr_leo_keeps_cwnd_on_timeout():
    from repro.tcp.cc.base import AckSample

    leo = LeoBbr()
    delivered = 0
    for i in range(30):
        delivered += 144_800
        leo.on_ack(
            AckSample(
                now_s=i * 0.05,
                rtt_s=0.05,
                min_rtt_s=0.05,
                newly_acked=10,
                delivered_bytes=delivered,
                delivery_rate_bps=20e6,
                in_flight=20,
                mss_bytes=1448,
            )
        )
    before = leo.cwnd
    leo.on_timeout(10.0)
    assert leo.cwnd > 0.5 * before  # model kept, no collapse to 4


def test_stock_bbr_collapses_on_timeout():
    from repro.tcp.cc.bbr import Bbr

    bbr = Bbr(initial_cwnd=50)
    bbr.on_timeout(1.0)
    assert bbr.cwnd == 4.0


def test_bbr_leo_without_model_stays_minimal():
    leo = LeoBbr()
    leo.on_timeout(1.0)
    assert leo.cwnd == 4.0  # no bandwidth estimate yet: be conservative


# --- extension experiments -----------------------------------------------------


def test_extension_isl_crossover():
    # Long paths: space wins.  Short paths: fibre wins.
    validate_or_raise(run_experiment("extension_isl", seed=0, scale=0.4))


# --- HTTP/3 page loads ---------------------------------------------------------


def test_quic_simulator_zero_connect():
    from repro.rng import stream
    from repro.web.browser import PageLoadSimulator, StaticConnectionModel
    from repro.web.hosting import ServerKind, SiteHosting
    from repro.web.page import PageProfile
    from repro.web.tranco import Site

    connection = StaticConnectionModel(0.05, 0.0, 100e6, 0.0, stream(0, "q"))
    simulator = PageLoadSimulator(
        connection, connection_reuse_rate=0.0, use_quic=True, quic_0rtt_rate=0.0
    )
    hosting = SiteHosting(ServerKind.CDN_EDGE, 0.002, 0.02, False)
    page = PageProfile(Site(1, "google.com"), 30_000, 0, 0.2, 0.1)
    timing = simulator.load(page, hosting, 0.0, stream(1, "q"))
    assert timing.connect_s == 0.0  # QUIC has no separate TCP handshake
    assert timing.tls_s > 0.04  # but pays one combined round trip


def test_quic_0rtt_removes_handshake():
    from repro.rng import stream
    from repro.web.browser import PageLoadSimulator, StaticConnectionModel
    from repro.web.hosting import ServerKind, SiteHosting
    from repro.web.page import PageProfile
    from repro.web.tranco import Site

    connection = StaticConnectionModel(0.05, 0.0, 100e6, 0.0, stream(2, "q"))
    simulator = PageLoadSimulator(
        connection, connection_reuse_rate=0.0, use_quic=True, quic_0rtt_rate=1.0
    )
    hosting = SiteHosting(ServerKind.CDN_EDGE, 0.002, 0.02, False)
    page = PageProfile(Site(1, "google.com"), 30_000, 0, 0.2, 0.1)
    timing = simulator.load(page, hosting, 0.0, stream(3, "q"))
    assert timing.connect_s == 0.0
    assert timing.tls_s < 0.01
