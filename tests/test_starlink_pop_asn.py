"""PoP placement and AS-plan tests."""

import pytest

from repro.constants import AS_GOOGLE, AS_SPACEX
from repro.geo.coordinates import great_circle_distance_m
from repro.geo.cities import city
from repro.starlink.asn import AsPlan
from repro.starlink.pop import pop_for_city
from repro.timeline import LONDON_AS_SWITCH_T, SYDNEY_AS_SWITCH_T


def test_every_user_city_has_a_pop():
    for name in (
        "london",
        "wiltshire",
        "seattle",
        "sydney",
        "toronto",
        "warsaw",
        "barcelona",
        "north_carolina",
    ):
        pop = pop_for_city(name)
        assert pop.name.startswith("pop-")


def test_unknown_city_raises():
    with pytest.raises(KeyError):
        pop_for_city("gotham")


def test_pop_reasonably_close_to_city():
    # A serving PoP is within ~1500 km of its users (regional homing).
    for name in ("london", "seattle", "barcelona", "north_carolina"):
        pop = pop_for_city(name)
        distance = great_circle_distance_m(city(name).location, pop.location)
        assert distance < 1.5e6, name


def test_gateway_near_pop():
    from repro.starlink.pop import _CITY_TO_POP, _POPS

    for name in set(_CITY_TO_POP.values()):
        pop = _POPS[name]
        assert great_circle_distance_m(pop.location, pop.gateway) < 200e3


def test_as_plan_default_schedule():
    plan = AsPlan()
    assert plan.exit_as("london", LONDON_AS_SWITCH_T - 1) == AS_GOOGLE
    assert plan.exit_as("london", LONDON_AS_SWITCH_T + 1) == AS_SPACEX
    assert plan.exit_as("sydney", SYDNEY_AS_SWITCH_T - 1) == AS_GOOGLE
    assert plan.exit_as("sydney", SYDNEY_AS_SWITCH_T + 1) == AS_SPACEX


def test_seattle_always_spacex():
    plan = AsPlan()
    for t in (0.0, LONDON_AS_SWITCH_T, SYDNEY_AS_SWITCH_T + 86_400):
        assert plan.exit_as("seattle", t) == AS_SPACEX


def test_penalty_applies_only_after_switch():
    plan = AsPlan()
    assert plan.transit_penalty_s("london", 0.0) == 0.0
    assert plan.transit_penalty_s("london", LONDON_AS_SWITCH_T + 1) > 0.0


def test_on_google_as_flag():
    plan = AsPlan()
    assert plan.on_google_as("london", 0.0)
    assert not plan.on_google_as("seattle", 0.0)
