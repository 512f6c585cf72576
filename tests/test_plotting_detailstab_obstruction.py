"""Tests for ASCII plotting, the details tab, and obstruction model."""

import numpy as np
import pytest

from repro.analysis.plotting import ascii_cdf, sparkline, timeseries_plot
from repro.analysis.stats import ecdf
from repro.errors import ConfigurationError, DatasetError


# --- plotting -----------------------------------------------------------------


def test_sparkline_length_and_range():
    line = sparkline(np.sin(np.linspace(0, 6, 200)), width=40)
    assert len(line) == 40
    assert "█" in line  # the maximum appears
    assert " " in line or "▁" in line  # the minimum appears


def test_sparkline_short_series():
    assert len(sparkline([1, 2, 3])) == 3


def test_sparkline_constant_series():
    line = sparkline([5.0] * 10)
    assert len(set(line)) == 1


def test_sparkline_empty_raises():
    with pytest.raises(DatasetError):
        sparkline([])


def test_ascii_cdf_renders_axes():
    xs, ps = ecdf([1, 2, 3, 4, 5])
    plot = ascii_cdf({"demo": (xs, ps)}, width=40, height=8, label="ms")
    assert "1.00" in plot
    assert "(ms)" in plot
    assert "* demo" in plot
    assert plot.count("\n") >= 8


def test_ascii_cdf_multiple_series_glyphs():
    a = ecdf([1, 2, 3])
    b = ecdf([10, 20, 30])
    plot = ascii_cdf({"a": a, "b": b})
    assert "* a" in plot and "o b" in plot


def test_ascii_cdf_empty_raises():
    with pytest.raises(DatasetError):
        ascii_cdf({})


def test_timeseries_plot_shape():
    ts = np.linspace(0, 100, 60)
    vs = np.sin(ts / 10) * 50 + 100
    plot = timeseries_plot(ts, vs, width=50, height=10)
    assert "*" in plot
    assert plot.count("\n") >= 10


def test_timeseries_plot_validation():
    with pytest.raises(DatasetError):
        timeseries_plot([], [])
    with pytest.raises(DatasetError):
        timeseries_plot([1, 2], [1])


# --- details tab -----------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_and_dataset():
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign

    config = CampaignConfig(
        seed=21, duration_s=5 * 86_400.0, request_fraction=0.4, cities=("london",)
    )
    campaign = ExtensionCampaign(config)
    return campaign, campaign.run()


def test_details_tab_comparison(campaign_and_dataset):
    from repro.extension.detailstab import DetailsTabView

    campaign, dataset = campaign_and_dataset
    view = DetailsTabView(dataset)
    user = next(
        u
        for u in campaign.population.users
        if u.isp.is_starlink and any(r.user_id == u.user_id for r in dataset.page_loads)
    )
    summary = view.comparison(user)
    assert summary.city == "london"
    assert summary.your_records > 0
    assert summary.your_median_ptt_ms > 0
    assert summary.starlink_median_ptt_ms is not None
    assert summary.non_starlink_median_ptt_ms is not None
    assert summary.faster_than_non_starlink in (True, False)


def test_details_tab_breakdown_rows(campaign_and_dataset):
    from repro.extension.detailstab import DetailsTabView

    campaign, dataset = campaign_and_dataset
    view = DetailsTabView(dataset)
    user = campaign.population.starlink_users[0]
    rows = view.page_breakdown(user, limit=10)
    assert 0 < len(rows) <= 10
    for row in rows:
        components = (
            row.dns_ms + row.connect_ms + row.tls_ms + row.request_ms + row.response_ms
        )
        assert (
            row.ptt_ms == pytest.approx(components, rel=0.05, abs=1.0)
            or row.ptt_ms >= components
        )
        assert row.plt_ms >= row.ptt_ms


def test_details_tab_render(campaign_and_dataset):
    from repro.extension.detailstab import DetailsTabView

    campaign, dataset = campaign_and_dataset
    text = DetailsTabView(dataset).render(campaign.population.starlink_users[0])
    assert "Your connection in london" in text
    assert "Recent page loads" in text


def test_details_tab_unknown_user(campaign_and_dataset):
    from repro.extension.detailstab import DetailsTabView
    from repro.extension.users import IspKind, User

    _, dataset = campaign_and_dataset
    ghost = User("u-ghostghost12", "london", IspKind.STARLINK, 1.0, 1.0)
    with pytest.raises(DatasetError):
        DetailsTabView(dataset).comparison(ghost)


def test_details_tab_median_of_two_loads_averages_them():
    """An even count averages the two middle loads, like the city
    medians the user is judged against (not the slower of the two)."""
    from repro.extension.detailstab import DetailsTabView
    from repro.extension.records import PageLoadRecord
    from repro.extension.storage import Dataset
    from repro.extension.users import IspKind, User
    from repro.web.timing import NavigationTiming

    user = User("u-twoloads0001", "london", IspKind.STARLINK, 1.0, 1.0)
    dataset = Dataset()
    for response_s in (0.1, 0.3):
        dataset.add_page_load(
            PageLoadRecord(
                user_id=user.user_id,
                city="london",
                region="UK",
                isp="starlink",
                is_starlink=True,
                exit_asn=14593,
                t_s=0.0,
                domain="site.example",
                rank=1,
                is_popular=True,
                timing=NavigationTiming(0.0, 0.0, 0.0, 0.0, 0.0, response_s, 0.0, 0.0),
            )
        )
    summary = DetailsTabView(dataset).comparison(user)
    fast, slow = sorted(r.ptt_ms for r in dataset.page_loads)
    assert summary.your_median_ptt_ms == 0.5 * (fast + slow)
    assert summary.your_median_ptt_ms == summary.starlink_median_ptt_ms


# --- obstruction ------------------------------------------------------------------


def test_wedge_contains_azimuth():
    from repro.starlink.obstruction import ObstructionWedge

    wedge = ObstructionWedge(350.0, 20.0, 40.0)  # wraps north
    assert wedge.contains_azimuth(355.0)
    assert wedge.contains_azimuth(10.0)
    assert not wedge.contains_azimuth(180.0)
    assert wedge.width_deg == pytest.approx(30.0)


def test_wedge_validation():
    from repro.starlink.obstruction import ObstructionWedge

    with pytest.raises(ConfigurationError):
        ObstructionWedge(0.0, 30.0, 120.0)


def test_mask_blocks_only_below_horizon():
    from repro.starlink.obstruction import ObstructionMask, ObstructionWedge

    mask = ObstructionMask([ObstructionWedge(80.0, 120.0, 45.0)])
    assert mask.blocks(100.0, 30.0)
    assert not mask.blocks(100.0, 60.0)
    assert not mask.blocks(200.0, 30.0)


def test_clear_mask_blocks_nothing():
    from repro.starlink.obstruction import ObstructionMask

    mask = ObstructionMask.generate(seed=1, severity="clear")
    assert mask.sky_fraction_obstructed() == 0.0


def test_bad_install_worse_than_typical():
    from repro.starlink.obstruction import ObstructionMask

    typical = ObstructionMask.generate(seed=2, severity="typical")
    bad = ObstructionMask.generate(seed=2, severity="bad")
    assert bad.sky_fraction_obstructed() > typical.sky_fraction_obstructed()


def test_generate_rejects_unknown_severity():
    from repro.starlink.obstruction import ObstructionMask

    with pytest.raises(ConfigurationError):
        ObstructionMask.generate(seed=0, severity="apocalyptic")


def test_filter_visible_drops_blocked():
    from repro.geo.cities import city
    from repro.orbits.constellation import starlink_shell1
    from repro.orbits.visibility import visible_satellites
    from repro.starlink.obstruction import ObstructionMask, ObstructionWedge

    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    samples = visible_satellites(shell, city("london").location, 0.0)
    everything_blocked = ObstructionMask([ObstructionWedge(0.0, 359.99, 90.0)])
    assert everything_blocked.filter_visible(samples) == []
    assert ObstructionMask([]).filter_visible(samples) == samples


# --- world map --------------------------------------------------------------------


def test_world_map_places_markers():
    from repro.analysis.worldmap import MapMarker, render_world_map

    rendered = render_world_map(
        [MapMarker("X", 51.5, -0.13), MapMarker("Y", -33.9, 151.2)], width=76, height=22
    )
    lines = rendered.splitlines()
    # London in the northern half, Sydney in the southern half.
    x_row = next(i for i, line in enumerate(lines) if "X" in line)
    y_row = next(i for i, line in enumerate(lines) if "Y" in line)
    assert x_row < y_row
    x_col = lines[x_row].index("X")
    y_col = lines[y_row].index("Y")
    assert x_col < y_col  # London is west of Sydney


def test_world_map_requires_markers():
    from repro.analysis.worldmap import render_world_map
    from repro.errors import DatasetError

    with pytest.raises(DatasetError):
        render_world_map([])


def test_user_population_map_legend():
    from repro.analysis.worldmap import user_population_map

    rendered = user_population_map(seed=0)
    assert "M" in rendered  # the deep-dive cities are mixed
    assert "Starlink-only city" in rendered


def test_figure1_carries_map():
    from repro.experiments import run_experiment

    result = run_experiment("figure1", seed=0)
    assert hasattr(result, "map")
    assert "+--" in result.map


def test_obstructed_bentpipe_degrades_service():
    """An ObstructionMask wired into the bent pipe causes outages and
    worse geometry than a clear install at the same site."""
    import numpy as np

    from repro.geo.cities import city
    from repro.orbits.constellation import starlink_shell1
    from repro.starlink.bentpipe import BentPipeModel
    from repro.starlink.obstruction import ObstructionMask, ObstructionWedge
    from repro.starlink.pop import pop_for_city

    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    london = city("london").location
    gateway = pop_for_city("london").gateway

    clear = BentPipeModel(shell, london, gateway, "london", seed=7)
    # Everything except a narrow slot blocked up to 60 degrees.
    walled = BentPipeModel(
        shell,
        london,
        gateway,
        "london",
        seed=7,
        obstruction=ObstructionMask([ObstructionWedge(0.0, 320.0, 60.0)]),
    )
    times = np.arange(0.0, 3600.0, 15.0)
    clear_outages = sum(clear.is_outage(float(t)) for t in times)
    walled_outages = sum(walled.is_outage(float(t)) for t in times)
    assert walled_outages > clear_outages
    # When connected, the obstructed install's serving satellite is
    # never inside the blocked wedge.
    for t in times[:60]:
        geometry = walled.serving_geometry(float(t))
        if geometry is None:
            continue
        from repro.geo.coordinates import elevation_azimuth_range

        satellite = shell.satellite(geometry.satellite)
        elevation, azimuth, _ = elevation_azimuth_range(
            london, satellite.position_ecef(float(t) // 15 * 15)
        )
        assert not walled.obstruction.blocks(azimuth, elevation)
