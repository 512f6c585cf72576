"""Starlink service model: bent pipe, capacity plans, PoPs, dishy API.

Composes the orbital, weather and network substrates into the service a
Starlink subscriber experiences:

* :mod:`repro.starlink.capacity` — per-region cell capacity, diurnal
  contention and queueing scales (the knobs behind Tables 2/3 and
  Figure 6).
* :mod:`repro.starlink.pop` — point-of-presence / gateway placement.
* :mod:`repro.starlink.asn` — the exit-AS plan, including the observed
  Google-AS -> SpaceX-AS migration per city.
* :mod:`repro.starlink.bentpipe` — the Earth-satellite-Earth link model
  (propagation that follows the serving satellite, scheduler delay,
  weather impairment, handover-gated loss).
* :mod:`repro.starlink.dish` — the user terminal and its status
  ("dishy") API.
* :mod:`repro.starlink.access` — topology builders for Starlink,
  broadband and cellular access paths used by the comparisons.
"""

from repro.starlink.access import (
    AccessConfig,
    AccessPath,
    AccessTechnology,
    Scenario,
)
from repro.starlink.asn import AS_GOOGLE, AS_SPACEX, AsPlan
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.capacity import (
    DIURNAL_PEAK_HOUR,
    CityServicePlan,
    ServiceCapacityModel,
)
from repro.starlink.dish import Dish, DishyStatus
from repro.starlink.pop import PoP, pop_for_city

__all__ = [
    "AS_GOOGLE",
    "AS_SPACEX",
    "AccessConfig",
    "AccessPath",
    "AccessTechnology",
    "AsPlan",
    "BentPipeModel",
    "CityServicePlan",
    "DIURNAL_PEAK_HOUR",
    "Dish",
    "DishyStatus",
    "PoP",
    "Scenario",
    "ServiceCapacityModel",
    "pop_for_city",
]
