"""Markov weather generator and history tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.weather.conditions import WeatherCondition
from repro.weather.generator import MarkovWeatherGenerator, climate_for_city
from repro.weather.history import WeatherHistory


def test_climates_assigned():
    assert climate_for_city("london") == "maritime"
    assert climate_for_city("barcelona") == "mediterranean"
    assert climate_for_city("nowheresville") == "continental"


def test_generator_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        MarkovWeatherGenerator("london", persistence=0.9, drift=0.5)
    with pytest.raises(ConfigurationError):
        MarkovWeatherGenerator("london", persistence=-0.1)


def test_generator_rejects_unknown_climate():
    with pytest.raises(ConfigurationError):
        MarkovWeatherGenerator("london", climate="lunar")


def test_generator_deterministic_per_seed():
    a = MarkovWeatherGenerator("london", seed=3)
    b = MarkovWeatherGenerator("london", seed=3)
    assert a.hourly_sequence(100) == b.hourly_sequence(100)


def test_generator_differs_across_cities():
    a = MarkovWeatherGenerator("london", seed=3).hourly_sequence(200)
    b = MarkovWeatherGenerator("barcelona", seed=3).hourly_sequence(200)
    assert a != b


def test_persistence_makes_weather_sticky():
    sequence = MarkovWeatherGenerator("london", seed=1).hourly_sequence(2000)
    stays = sum(1 for a, b in zip(sequence, sequence[1:]) if a is b)
    assert stays / len(sequence) > 0.55


def test_mediterranean_clearer_than_maritime():
    n = 5000
    barcelona = MarkovWeatherGenerator("barcelona", seed=5).hourly_sequence(n)
    london = MarkovWeatherGenerator("london", seed=5).hourly_sequence(n)
    clear_barcelona = sum(1 for c in barcelona if c is WeatherCondition.CLEAR_SKY)
    clear_london = sum(1 for c in london if c is WeatherCondition.CLEAR_SKY)
    assert clear_barcelona > clear_london


def test_negative_hours_rejected():
    with pytest.raises(ConfigurationError):
        MarkovWeatherGenerator("london").hourly_sequence(-1)


def test_history_point_queries_consistent():
    history = WeatherHistory(seed=2, duration_s=5 * 86400.0)
    # Two queries within the same hour agree.
    assert history.condition_at("london", 3600.0) is history.condition_at(
        "london", 3600.0 + 1800.0
    )


def test_history_rejects_out_of_range():
    history = WeatherHistory(seed=2, duration_s=86400.0)
    with pytest.raises(ConfigurationError):
        history.condition_at("london", -1.0)
    with pytest.raises(ConfigurationError):
        history.condition_at("london", 2 * 86400.0)


def test_history_condition_codes_match_condition_at():
    history = WeatherHistory(seed=2, duration_s=86400.0 + 1800.0)
    t_s = np.array([0.0, 3599.9, 3600.0, 86400.0, 87000.0, 86400.0 + 1800.0])
    codes = history.condition_codes("london", t_s)
    timeline = history.hourly_timeline("london")
    assert codes.tolist() == [timeline[k].severity for k in (0, 0, 1, 24, 24, 24)]
    assert codes.tolist() == [
        history.condition_at("london", t).severity for t in t_s.tolist()
    ]
    assert history.condition_codes("london", np.empty(0)).size == 0
    for outside in (-1.0, 86400.0 + 1801.0, float("nan")):
        with pytest.raises(ConfigurationError) as expected:
            history.condition_at("london", outside)
        with pytest.raises(ConfigurationError) as raised:
            history.condition_codes("london", np.array([5.0, outside]))
        assert str(raised.value) == str(expected.value)


def test_history_rejects_bad_duration():
    with pytest.raises(ConfigurationError):
        WeatherHistory(duration_s=0.0)


def test_history_fractions_sum_to_one():
    history = WeatherHistory(seed=2, duration_s=10 * 86400.0)
    fractions = history.condition_fractions("seattle")
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_history_covers_all_conditions_eventually():
    history = WeatherHistory(seed=2, duration_s=60 * 86400.0)
    fractions = history.condition_fractions("london")
    present = [c for c, f in fractions.items() if f > 0]
    assert len(present) >= 6  # maritime London sees nearly everything


def test_history_timeline_cached():
    history = WeatherHistory(seed=2, duration_s=86400.0)
    first = history.hourly_timeline("london")
    second = history.hourly_timeline("london")
    assert first == second
