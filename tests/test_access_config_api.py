"""AccessConfig / Scenario API tests.

Covers the two contracts of the access-layer redesign:

* attaching a precomputed :class:`ServingTimeline` never changes a
  built path — link rates and sampled propagation delays stay bitwise
  identical, including for obstructed terminals;
* :class:`Scenario` validates its inputs and dispatches per
  technology.
"""

import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.access import (
    AccessConfig,
    AccessTechnology,
    Scenario,
)
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.obstruction import ObstructionMask
from repro.starlink.pop import pop_for_city


@pytest.fixture(scope="module")
def shell():
    return starlink_shell1(n_planes=24, sats_per_plane=12)


def _bentpipe(shell, city_name="london", seed=0, obstruction=None):
    return BentPipeModel(
        shell,
        city(city_name).location,
        pop_for_city(city_name).gateway,
        city_name,
        seed=seed,
        obstruction=obstruction,
    )


def _fingerprint(path):
    """Everything geometry influences: rates, delays over time, hops."""
    samples = [k * 5.0 for k in range(24)]  # spans 8 scheduler epochs
    return (
        path.access_forward.rate_bps,
        path.access_reverse.rate_bps,
        [path.access_forward.propagation_delay_s(t) for t in samples],
        [path.access_reverse.propagation_delay_s(t) for t in samples],
        tuple(path.hop_names),
    )


# -- timeline-backed bit-identity -------------------------------------------


@pytest.mark.parametrize("city_name", ["london", "seattle", "sydney"])
@pytest.mark.parametrize("seed", [0, 7])
def test_timeline_backed_path_bit_identical(shell, city_name, seed):
    server = city("n_virginia").location
    config = AccessConfig(time_offset_s=6 * 3600.0, seed=seed)

    on_demand = Scenario.starlink(_bentpipe(shell, city_name, seed), server, config)
    baseline = _fingerprint(on_demand.build())

    precomputed = Scenario.starlink(_bentpipe(shell, city_name, seed), server, config)
    timeline = precomputed.precompute(duration_s=180.0)
    assert timeline is not None
    assert precomputed.bentpipe.timeline is timeline
    assert _fingerprint(precomputed.build()) == baseline
    assert timeline.hits > 0  # the lookups actually took the fast path


def test_timeline_backed_path_bit_identical_obstructed(shell):
    server = city("n_virginia").location
    config = AccessConfig(time_offset_s=6 * 3600.0, seed=1)

    def obstructed():
        return _bentpipe(
            shell, "seattle", seed=1,
            obstruction=ObstructionMask.generate(seed=3, severity="bad"),
        )

    baseline = _fingerprint(
        Scenario.starlink(obstructed(), server, config).build()
    )
    scenario = Scenario.starlink(obstructed(), server, config)
    assert scenario.precompute(duration_s=180.0) is not None
    assert _fingerprint(scenario.build()) == baseline


def test_explicit_timeline_is_attached(shell):
    bentpipe = _bentpipe(shell)
    timeline = bentpipe.build_timeline(0.0, 300.0)
    fresh = _bentpipe(shell)
    Scenario.starlink(fresh, city("n_virginia").location, timeline=timeline)
    assert fresh.timeline is timeline


def test_precompute_reuses_covering_timeline(shell):
    bentpipe = _bentpipe(shell)
    scenario = Scenario.starlink(bentpipe, city("n_virginia").location)
    first = scenario.precompute(duration_s=600.0)
    assert scenario.precompute(duration_s=300.0) is first  # covered: no rebuild
    assert bentpipe.ensure_timeline(0.0, 450.0) is first


# -- Scenario validation and dispatch ---------------------------------------


def test_scenario_starlink_requires_bentpipe():
    scenario = Scenario(
        technology=AccessTechnology.STARLINK,
        server_location=city("n_virginia").location,
    )
    with pytest.raises(ConfigurationError, match="bentpipe"):
        scenario.build()


def test_scenario_terrestrial_requires_client_location():
    scenario = Scenario(
        technology=AccessTechnology.BROADBAND,
        server_location=city("n_virginia").location,
    )
    with pytest.raises(ConfigurationError, match="client_location"):
        scenario.build()


def test_scenario_precompute_noop_for_terrestrial():
    scenario = Scenario.broadband(
        city("london").location, city("n_virginia").location
    )
    assert scenario.precompute(duration_s=60.0) is None
    assert scenario.timeline is None


def test_scenario_builds_every_technology(shell):
    london = city("london").location
    virginia = city("n_virginia").location
    built = {
        AccessTechnology.STARLINK: Scenario.starlink(
            _bentpipe(shell), virginia
        ).build(),
        AccessTechnology.BROADBAND: Scenario.broadband(london, virginia).build(),
        AccessTechnology.CELLULAR: Scenario.cellular(london, virginia).build(),
        AccessTechnology.GEO_SATELLITE: Scenario.geo(london, virginia).build(),
    }
    for technology, path in built.items():
        assert path.technology is technology
        assert path.hop_names[-1] == "server"


def test_access_config_frozen():
    config = AccessConfig()
    with pytest.raises(AttributeError):
        config.seed = 3
