"""Queryable weather history, mirroring the OpenWeatherMap history API.

The paper joins each Page-Transit-Time sample with the historical weather
at its timestamp via the OWM API.  :class:`WeatherHistory` plays that
role offline: it lazily materialises an hourly condition timeline per
city (from :class:`~repro.weather.generator.MarkovWeatherGenerator`) and
answers point queries at any campaign timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.timeline import CAMPAIGN_DURATION_S
from repro.weather.conditions import WeatherCondition
from repro.weather.generator import MarkovWeatherGenerator

_HOUR_S = 3600.0


@dataclass
class WeatherHistory:
    """Hourly weather timelines for all cities of a campaign.

    Attributes:
        seed: Root seed shared with the rest of the campaign.
        duration_s: Length of the covered period, seconds from t=0.
    """

    seed: int = 0
    duration_s: float = CAMPAIGN_DURATION_S
    _timelines: dict[str, list[WeatherCondition]] = field(
        default_factory=dict, init=False
    )
    _severities: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration must be positive: {self.duration_s}")

    @property
    def n_hours(self) -> int:
        """Number of hourly slots covered."""
        return int(self.duration_s // _HOUR_S) + 1

    def _timeline(self, city_name: str) -> list[WeatherCondition]:
        if city_name not in self._timelines:
            generator = MarkovWeatherGenerator(city_name, seed=self.seed)
            self._timelines[city_name] = [generator.state] + generator.hourly_sequence(
                self.n_hours - 1
            )
        return self._timelines[city_name]

    def require_covered(self, t_s: float) -> None:
        """Raise unless ``t_s`` is inside the covered period.

        Raises:
            ConfigurationError: if ``t_s`` is outside ``[0, duration_s]``.
        """
        if not 0.0 <= t_s <= self.duration_s:
            raise ConfigurationError(
                f"t={t_s} outside weather history [0, {self.duration_s}]"
            )

    def _hour_slot(self, t_s):
        """The timeline slot of a covered time, or of an array of them:
        its hour.  A covered time is at most ``duration_s``, whose hour
        is the last of the :attr:`n_hours` slots, so none overflows."""
        return t_s // _HOUR_S

    def condition_at(self, city_name: str, t_s: float) -> WeatherCondition:
        """Weather condition in a city at campaign time ``t_s``.

        Raises:
            ConfigurationError: if ``t_s`` is outside the covered period.
        """
        self.require_covered(t_s)
        return self._timeline(city_name)[int(self._hour_slot(t_s))]

    def condition_codes(self, city_name: str, t_s) -> np.ndarray:
        """:meth:`condition_at` over an array of times, each condition
        given as its :attr:`~WeatherCondition.severity` (its index in
        ``WEATHER_CONDITIONS``).

        Raises:
            ConfigurationError: if a time is outside the covered period;
                the message names the earliest or the latest time.
        """
        t_s = np.asarray(t_s, dtype=np.float64)
        if t_s.size:
            self.require_covered(float(t_s.min()))
            self.require_covered(float(t_s.max()))
        if city_name not in self._severities:
            self._severities[city_name] = np.array(
                [condition.severity for condition in self._timeline(city_name)]
            )
        return self._severities[city_name][self._hour_slot(t_s).astype(np.int64)]

    def hourly_timeline(self, city_name: str) -> list[WeatherCondition]:
        """The full hourly timeline for a city (generated on first use)."""
        return list(self._timeline(city_name))

    def condition_fractions(self, city_name: str) -> dict[WeatherCondition, float]:
        """Fraction of hours spent in each condition, for sanity checks."""
        timeline = self._timeline(city_name)
        total = len(timeline)
        return {
            condition: sum(1 for c in timeline if c is condition) / total
            for condition in WeatherCondition
        }
