"""User-population and session-generation tests."""

import pytest

from repro.extension.sessions import EventKind, SessionGenerator, browsing_intensity
from repro.extension.users import IspKind, User, UserPopulation


def test_population_matches_paper_counts():
    population = UserPopulation(seed=0)
    assert len(population) == 28
    assert len(population.starlink_users) == 18
    assert len(population.cities) == 10


def test_deep_dive_cities_have_all_isp_kinds():
    population = UserPopulation(seed=0)
    for city_name in ("london", "seattle", "sydney"):
        kinds = {u.isp for u in population.in_city(city_name)}
        assert kinds == {IspKind.STARLINK, IspKind.BROADBAND, IspKind.CELLULAR}


def test_user_ids_unique_and_anonymous():
    population = UserPopulation(seed=0)
    ids = [u.user_id for u in population.users]
    assert len(set(ids)) == len(ids)
    for user_id in ids:
        assert user_id.startswith("u-")
        assert len(user_id) == 14


def test_population_deterministic():
    a = UserPopulation(seed=5)
    b = UserPopulation(seed=5)
    assert [u.user_id for u in a.users] == [u.user_id for u in b.users]


def test_activity_rates_scale_with_duration():
    short = UserPopulation(seed=0, duration_s=7 * 86_400.0)
    long = UserPopulation(seed=0, duration_s=183 * 86_400.0)
    # Same request targets over less time -> higher daily rates.
    assert short.users[0].pages_per_day > long.users[0].pages_per_day


def test_is_starlink_property():
    assert IspKind.STARLINK.is_starlink
    assert not IspKind.BROADBAND.is_starlink


def test_browsing_intensity_diurnal():
    assert browsing_intensity(20.5) > browsing_intensity(13.0) > browsing_intensity(4.0)
    assert browsing_intensity(4.0) < 0.1


def _user(rate=20.0):
    return User(
        user_id="u-testtesttest",
        city_name="london",
        isp=IspKind.STARLINK,
        pages_per_day=rate,
        device_multiplier=1.0,
    )


def test_session_event_volume_matches_rate():
    generator = SessionGenerator(_user(rate=30.0), seed=1)
    events = generator.events(0.0, 14 * 86_400.0)
    organic = [e for e in events if e.kind is EventKind.ORGANIC_VISIT]
    expected = 30.0 * 14
    assert 0.7 * expected < len(organic) < 1.3 * expected


def test_session_events_sorted():
    events = SessionGenerator(_user(), seed=2).events(0.0, 5 * 86_400.0)
    times = [e.t_s for e in events]
    assert times == sorted(times)


def test_sessions_night_sparse():
    from repro.geo.cities import city

    london = city("london")
    events = SessionGenerator(_user(rate=60.0), seed=3).events(0.0, 30 * 86_400.0)
    hours = [london.local_hour(e.t_s) for e in events]
    night = sum(1 for h in hours if 1.0 <= h < 6.0)
    evening = sum(1 for h in hours if 18.0 <= h < 23.0)
    assert evening > 4 * max(night, 1)


def test_speedtests_much_rarer_than_visits():
    events = SessionGenerator(_user(rate=40.0), seed=4).events(0.0, 60 * 86_400.0)
    speedtests = [e for e in events if e.kind is EventKind.SPEEDTEST]
    organic = [e for e in events if e.kind is EventKind.ORGANIC_VISIT]
    assert len(speedtests) < 0.05 * len(organic)


def test_invalid_window_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SessionGenerator(_user(), seed=5).events(100.0, 100.0)
