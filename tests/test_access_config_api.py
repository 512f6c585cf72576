"""AccessConfig / Scenario API tests.

Covers the two contracts of the access-layer redesign:

* ``Scenario.precompute`` batch-fills the bent pipe's link-state table,
  its only geometry cache, and never changes a built path — link rates
  and sampled propagation delays stay bitwise identical, including for
  obstructed terminals;
* :class:`Scenario` validates its inputs and dispatches per
  technology.
"""

import pytest

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
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


# -- precomputed bit-identity ---------------------------------------------


@pytest.mark.parametrize("city_name", ["london", "seattle", "sydney"])
@pytest.mark.parametrize("seed", [0, 7])
def test_timeline_backed_path_bit_identical(shell, city_name, seed):
    server = city("n_virginia").location
    config = AccessConfig(time_offset_s=6 * 3600.0, seed=seed)

    on_demand = Scenario.starlink(_bentpipe(shell, city_name, seed), server, config)
    baseline = _fingerprint(on_demand.build())

    precomputed = Scenario.starlink(_bentpipe(shell, city_name, seed), server, config)
    precomputed.precompute(duration_s=180.0)
    table = precomputed.bentpipe.link_states
    computed = table.computed
    assert computed > 0
    assert _fingerprint(precomputed.build()) == baseline
    assert table.computed == computed  # every lookup was a table hit
    assert table.hits > 0


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
    scenario.precompute(duration_s=180.0)
    assert scenario.bentpipe.link_states.computed > 0
    assert _fingerprint(scenario.build()) == baseline


def test_precompute_fills_every_epoch_the_path_reads(shell):
    """After a precompute, building the path and reading its delay at
    every epoch of the window computes no further epoch."""
    bentpipe = _bentpipe(shell)
    config = AccessConfig(time_offset_s=6 * 3600.0)
    scenario = Scenario.starlink(bentpipe, city("n_virginia").location, config)
    scenario.precompute(duration_s=600.0)
    computed = bentpipe.link_states.computed
    assert computed >= 600.0 / STARLINK_RESCHEDULE_INTERVAL_S
    path = scenario.build()
    for epoch in range(int(600.0 // STARLINK_RESCHEDULE_INTERVAL_S)):
        t_s = epoch * STARLINK_RESCHEDULE_INTERVAL_S
        path.access_forward.propagation_delay_s(t_s)
        path.access_reverse.propagation_delay_s(t_s + 7.5)
    assert bentpipe.link_states.computed == computed


def test_precompute_reuses_covering_timeline(shell):
    """A second precompute over a covered window computes no epoch."""
    bentpipe = _bentpipe(shell)
    scenario = Scenario.starlink(bentpipe, city("n_virginia").location)
    scenario.precompute(duration_s=600.0)
    computed = bentpipe.link_states.computed
    scenario.precompute(duration_s=300.0)
    scenario.precompute(duration_s=450.0, start_s=150.0)
    assert bentpipe.link_states.computed == computed


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
