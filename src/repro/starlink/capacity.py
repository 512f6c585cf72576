"""Regional capacity, diurnal contention and queueing scales.

Starlink shares each cell's capacity among nearby subscribers, so
per-user throughput depends on (a) the cell capacity allotted to the
region, (b) how many subscribers contend (the paper hypothesises this
explains the 2.6x Barcelona/North-Carolina gap — Starlink availability
was recent in Spain, so few contenders), and (c) the local time of day
(Figure 6(b)'s diurnal swing: night-time maxima over twice the evening
minima).

The numeric plans below are the calibration targets for the
reproduction, chosen so medians land near the paper's Table 3 /
Figure 6(a) values; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.cities import City, city
from repro.rng import stream
from repro.units import mbps_to_bps

DIURNAL_PEAK_HOUR = 20.5
"""Local hour of peak residential demand (the 18:00-24:00 trough in
Figure 6(b) is centred here)."""

DIURNAL_TROUGH_HOUR = 3.5
"""Local hour of minimum demand (00:00-06:00 maxima in Figure 6(b))."""


def diurnal_utilization(local_hour: float) -> float:
    """Cell utilisation in [0, 1] as a function of local hour.

    A smooth two-Gaussian daily demand curve: a broad evening peak and a
    smaller midday shoulder, with the overnight trough.  Normalised so
    the evening peak reaches ~1.0 and the 03:30 trough ~0.2.
    """
    hour = local_hour % 24.0

    def wrapped_gauss(centre: float, width: float) -> float:
        distance = min(abs(hour - centre), 24.0 - abs(hour - centre))
        return math.exp(-0.5 * (distance / width) ** 2)

    activity = wrapped_gauss(DIURNAL_PEAK_HOUR, 2.8) + 0.55 * wrapped_gauss(13.0, 3.5)
    return min(1.0, 0.2 + 0.8 * min(1.0, activity / 1.05))


@dataclass(frozen=True)
class CityServicePlan:
    """Capacity/contention profile for a city's Starlink cell.

    Attributes:
        cell_dl_mbps: Per-user share of downlink capacity at zero load.
        cell_ul_mbps: Per-user share of uplink capacity at zero load.
        load_sensitivity: Fraction of capacity lost at full utilisation
            (contention from other subscribers in the cell).
        throughput_sigma: Lognormal sigma of per-test throughput noise
            (scheduler grants, SNR variation, cross traffic).
        wireless_queue_mean_ms: Mean queueing delay on the bent-pipe
            (Earth-satellite-Earth) segment at median load.  Drives
            Table 2's wireless-link column.
        transit_queue_mean_ms: Mean additional queueing on the
            terrestrial PoP-to-server segment.  Drives the whole-path
            minus wireless gap in Table 2.
        peak_multiplier: Ceiling on throughput draws, as a multiple of
            the cell capacity.  Congested cells (North Carolina) show
            rare night-time spikes far above their median, so their
            ceiling is loose; lightly loaded cells sit near theirs.
    """

    cell_dl_mbps: float
    cell_ul_mbps: float
    load_sensitivity: float = 0.62
    throughput_sigma: float = 0.35
    wireless_queue_mean_ms: float = 24.0
    transit_queue_mean_ms: float = 9.0
    peak_multiplier: float = 1.15


#: Calibrated per-city plans.  DL medians target Table 3 (browser cities)
#: and Figure 6(a) (volunteer nodes); queueing targets Table 2.
#: Wireless queue means are *per direction*; the Table 2 estimator sees
#: the up+down sum (Gamma(2, m), median ~1.68 m) at the load factor in
#: effect, so a per-direction mean of ~13 ms yields the paper's ~24 ms
#: median wireless queueing for London.
DEFAULT_PLANS: dict[str, CityServicePlan] = {
    # Extension cities (Table 1 / Table 3).
    "london": CityServicePlan(265.0, 25.5, 0.62, 0.30, 8.5, 5.0),
    "seattle": CityServicePlan(195.0, 14.0, 0.62, 0.32, 7.5, 7.0),
    "sydney": CityServicePlan(180.0, 15.0, 0.62, 0.32, 11.0, 8.0),
    "toronto": CityServicePlan(142.0, 14.5, 0.62, 0.32, 11.0, 7.0),
    "warsaw": CityServicePlan(98.0, 16.5, 0.62, 0.32, 9.5, 6.0),
    "berlin": CityServicePlan(150.0, 16.0, 0.62, 0.32, 9.5, 6.0),
    "amsterdam": CityServicePlan(170.0, 17.0, 0.62, 0.32, 8.5, 5.0),
    "austin": CityServicePlan(120.0, 11.0, 0.66, 0.34, 12.0, 8.0),
    "denver": CityServicePlan(130.0, 11.5, 0.66, 0.34, 11.5, 8.0),
    "melbourne": CityServicePlan(175.0, 15.0, 0.62, 0.32, 11.0, 8.0),
    # Volunteer measurement nodes (Figure 6(a), Table 2).
    #  - Barcelona: recent availability, few subscribers -> high share,
    #    low queueing (Table 2: 16.5 ms median wireless queueing).
    #  - Wiltshire/UK: mid (24.3 ms).
    #  - North Carolina: dense subscriber base -> low share, heavy
    #    queueing (48.3 ms) and a long throughput tail up to ~196 Mbps.
    "barcelona": CityServicePlan(255.0, 24.0, 0.50, 0.28, 8.8, 1.2, 1.15),
    "wiltshire": CityServicePlan(235.0, 14.5, 0.72, 0.34, 13.0, 5.0, 1.25),
    "north_carolina": CityServicePlan(78.0, 13.0, 0.85, 0.55, 26.0, 13.0, 2.6),
}


class ServiceCapacityModel:
    """Time-varying per-user capacity and queueing for one city.

    Args:
        city_name: City whose plan and timezone to use.
        seed: Root RNG seed (noise draws come from a city-keyed stream).
        plan: Override the default plan.
        user_key: Extra stream label isolating noise draws to one user.
            City-keyed streams are shared by every consumer in a city,
            so the draw a user sees depends on who drew before them;
            per-user keying makes each user's draw sequence a pure
            function of (seed, city, user), which the sharded campaign
            engine relies on for order-independent determinism.
    """

    def __init__(
        self,
        city_name: str,
        seed: int = 0,
        plan: CityServicePlan | None = None,
        user_key: str | None = None,
    ) -> None:
        if plan is None:
            try:
                plan = DEFAULT_PLANS[city_name]
            except KeyError:
                raise ConfigurationError(
                    f"no default service plan for {city_name!r}; pass plan="
                ) from None
        self.city: City = city(city_name)
        self.plan = plan
        labels = ("capacity", city_name) + ((user_key,) if user_key is not None else ())
        self._rng = stream(seed, *labels)
        self._last_t: float | None = None
        self._last_utilization = 0.0

    def utilization(self, t_s: float) -> float:
        """Cell utilisation at campaign time ``t_s`` (local diurnal).

        Remembers the last time asked: one RTT sample draws two queue
        samples at the same ``t``, and one page load several samples.
        """
        if t_s != self._last_t:
            self._last_t = t_s
            self._last_utilization = diurnal_utilization(self.city.local_hour(t_s))
        return self._last_utilization

    def _base_capacity_mbps(self, t_s: float, downlink: bool) -> float:
        cell = self.plan.cell_dl_mbps if downlink else self.plan.cell_ul_mbps
        return cell * max(
            0.05, 1.0 - self.plan.load_sensitivity * self.utilization(t_s)
        )

    def capacity_bps(
        self, t_s: float, downlink: bool = True, noisy: bool = True
    ) -> float:
        """Achievable per-user rate at ``t_s``, bits/s.

        ``noisy`` adds the lognormal per-test variation; deterministic
        callers (e.g. link provisioning) can disable it.
        """
        base = self._base_capacity_mbps(t_s, downlink)
        if noisy:
            base *= float(
                self._rng.lognormal(mean=0.0, sigma=self.plan.throughput_sigma)
            )
        ceiling = self.plan.cell_dl_mbps if downlink else self.plan.cell_ul_mbps
        return mbps_to_bps(min(base, self.plan.peak_multiplier * ceiling))

    def wireless_queueing_sampler(self, load_coupled: bool = True):
        """Sampler ``f(t) -> seconds`` of bent-pipe queueing delay.

        Exponentially distributed with a mean that scales with current
        utilisation (so Table 2's max-min estimator sees load-dependent
        variation).
        """
        mean_s = self.plan.wireless_queue_mean_ms / 1000.0

        def sample(t_s: float) -> float:
            scale = (0.4 + 1.2 * self.utilization(t_s)) if load_coupled else 1.0
            return float(self._rng.exponential(mean_s * scale))

        return sample

    def transit_queueing_sampler(self):
        """Sampler ``f(t) -> seconds`` of terrestrial-segment queueing."""
        mean_s = self.plan.transit_queue_mean_ms / 1000.0

        def sample(t_s: float) -> float:
            return float(self._rng.exponential(mean_s))

        return sample
