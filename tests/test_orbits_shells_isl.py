"""Multi-shell constellation and ISL-routing tests."""

import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError, VisibilityError
from repro.geo.cities import city
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import starlink_shell1
from repro.orbits.isl import IslNetwork
from repro.orbits.shells import (
    STARLINK_GEN1_SHELLS,
    MultiShellConstellation,
)
from repro.starlink.access import terrestrial_delay_s


# --- shells ----------------------------------------------------------------


def test_five_gen1_shells():
    assert len(STARLINK_GEN1_SHELLS) == 5
    assert STARLINK_GEN1_SHELLS[0].altitude_km == 550.0
    assert STARLINK_GEN1_SHELLS[0].total_satellites == 1584


def test_polar_shells_present():
    polar = [s for s in STARLINK_GEN1_SHELLS if s.inclination_deg > 90.0]
    assert len(polar) == 2


def test_multishell_density_scaling():
    full = MultiShellConstellation(density=1.0)
    thin = MultiShellConstellation(density=0.25)
    assert len(full) == sum(s.total_satellites for s in STARLINK_GEN1_SHELLS)
    assert len(thin) < len(full) / 4


def test_multishell_rejects_bad_density():
    with pytest.raises(ConfigurationError):
        MultiShellConstellation(density=0.0)
    with pytest.raises(ConfigurationError):
        MultiShellConstellation(density=1.5)


def test_multishell_names_carry_shell_id():
    constellation = MultiShellConstellation(density=0.1)
    prefixes = {sat.name.split("-")[1][:2] for sat in constellation.satellites}
    assert "S1" in prefixes and "S5" in prefixes


def test_multishell_catalog_numbers_unique():
    constellation = MultiShellConstellation(density=0.15)
    numbers = [sat.catalog_number for sat in constellation.satellites]
    assert len(set(numbers)) == len(numbers)


def test_polar_shells_cover_high_latitudes():
    # A 53-degree-only constellation cannot serve 75N; shells 4/5 can.
    polar_only = MultiShellConstellation(
        specs=tuple(s for s in STARLINK_GEN1_SHELLS if s.inclination_deg > 90),
        density=1.0,
    )
    arctic = GeoPoint(75.0, 20.0)
    coverage = polar_only.coverage_fraction(arctic, duration_s=1800.0, step_s=60.0)
    assert coverage > 0.3


def test_inclined_shells_cover_midlatitudes_better():
    mid = MultiShellConstellation(
        specs=(STARLINK_GEN1_SHELLS[0],), density=0.5
    )
    london_coverage = mid.coverage_fraction(
        city("london").location, duration_s=1800.0, step_s=60.0
    )
    assert london_coverage > 0.9


def test_multishell_visible_sorted():
    constellation = MultiShellConstellation(density=0.3)
    samples = constellation.visible(city("london").location, 0.0)
    elevations = [s.elevation_deg for s in samples]
    assert elevations == sorted(elevations, reverse=True)


# --- ISL -------------------------------------------------------------------


@pytest.fixture(scope="module")
def isl():
    return IslNetwork(starlink_shell1(n_planes=24, sats_per_plane=12))


def test_grid_has_two_isls_per_satellite(isl):
    assert isl.n_isls == 2 * len(isl.shell)


def test_isl_graph_connected(isl):
    import networkx as nx

    graph = isl.graph_at(0.0)
    assert nx.is_connected(graph)


def test_isl_edge_weights_physical(isl):
    graph = isl.graph_at(100.0)
    for _, _, data in graph.edges(data=True):
        assert data["weight"] > 0
        # Neighbouring satellites are at most a few thousand km apart.
        assert data["distance"] < 8e6


def test_route_transatlantic_beats_fibre(isl):
    london = city("london").location
    virginia = city("n_virginia").location
    path = isl.route(london, virginia, 0.0)
    fibre = terrestrial_delay_s(london, virginia)
    assert path.latency_s < fibre
    assert path.n_isl_hops >= 1
    assert path.hops  # satellites named


def test_route_short_path_loses_to_fibre(isl):
    london = city("london").location
    nearby = city("gcp_london").location
    path = isl.route(london, nearby, 0.0)
    # Up 550 km and back down cannot beat a metro fibre run.
    assert path.latency_s > terrestrial_delay_s(london, nearby)


def test_route_latency_includes_all_segments(isl):
    london = city("london").location
    sydney = city("sydney").location
    path = isl.route(london, sydney, 0.0)
    # Pure geometry floor: straight-line distance over c.
    from repro.constants import SPEED_OF_LIGHT_M_S
    from repro.geo.coordinates import ecef_distance_m

    chord = ecef_distance_m(london.ecef(), sydney.ecef())
    assert path.latency_s > chord / SPEED_OF_LIGHT_M_S
    assert path.distance_m > chord


def test_route_fails_without_visibility():
    sparse = IslNetwork(starlink_shell1(n_planes=3, sats_per_plane=2))
    south_pole = GeoPoint(-89.0, 0.0)
    with pytest.raises(VisibilityError):
        sparse.route(south_pole, city("london").location, 0.0)


def test_latency_series_stable(isl):
    london = city("london").location
    virginia = city("n_virginia").location
    series = [
        isl.route(london, virginia, float(t)).latency_s for t in np.linspace(0, 600, 5)
    ]
    assert max(series) < 2 * min(series)  # path wobbles, doesn't explode


def test_networkx_loads_only_for_isl_routing():
    """networkx is imported by ISL routing alone: the campaign, service
    and fabric entry points (and so every fabric worker) start without
    it."""
    code = (
        "import sys\n"
        "import repro.experiments, repro.extension.campaign\n"
        "import repro.service, repro.runtime.fabric\n"
        "print('networkx' in sys.modules)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "False"
