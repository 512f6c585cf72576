"""Starlink points of presence (PoPs) and gateway placement.

Traffic from the dish goes up to the serving satellite and bends back
down to a gateway ground station, which backhauls to a regional PoP —
typically colocated with a Google Cloud site (the paper's §3.2 and its
ref [38]).  We place one gateway+PoP per region, near the real Starlink
PoP cities of 2022 (London, Frankfurt, Madrid, Seattle, Dallas, Atlanta,
New York, Sydney, Toronto).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.cities import City
from repro.geo.coordinates import GeoPoint


@dataclass(frozen=True)
class PoP:
    """A Starlink point of presence with its gateway ground station.

    Attributes:
        name: PoP identifier (e.g. ``pop-london``).
        location: PoP (and internet-exchange) position.
        gateway: Gateway ground-station position; the bent pipe lands
            here.  Usually tens of km from the PoP itself.
    """

    name: str
    location: GeoPoint
    gateway: GeoPoint


_POPS: dict[str, PoP] = {
    "london": PoP("pop-london", GeoPoint(51.51, -0.08), GeoPoint(51.27, 0.52)),
    "frankfurt": PoP("pop-frankfurt", GeoPoint(50.11, 8.68), GeoPoint(50.47, 9.95)),
    "madrid": PoP("pop-madrid", GeoPoint(40.42, -3.70), GeoPoint(40.50, -3.35)),
    "seattle": PoP("pop-seattle", GeoPoint(47.61, -122.33), GeoPoint(47.30, -122.20)),
    "dallas": PoP("pop-dallas", GeoPoint(32.78, -96.80), GeoPoint(32.60, -96.50)),
    "atlanta": PoP("pop-atlanta", GeoPoint(33.75, -84.39), GeoPoint(33.90, -84.10)),
    "denver": PoP("pop-denver", GeoPoint(39.74, -104.99), GeoPoint(39.90, -104.70)),
    "sydney": PoP("pop-sydney", GeoPoint(-33.87, 151.21), GeoPoint(-34.05, 150.80)),
    "toronto": PoP("pop-toronto", GeoPoint(43.65, -79.38), GeoPoint(43.85, -79.10)),
}

#: User city -> serving PoP, approximating Starlink's 2022 homing.
_CITY_TO_POP: dict[str, str] = {
    "london": "london",
    "wiltshire": "london",
    "seattle": "seattle",
    "sydney": "sydney",
    "melbourne": "sydney",
    "toronto": "toronto",
    "warsaw": "frankfurt",
    "berlin": "frankfurt",
    "amsterdam": "london",
    "austin": "dallas",
    "denver": "denver",
    "barcelona": "madrid",
    "north_carolina": "atlanta",
}


def pop_for_city(user_city: City | str) -> PoP:
    """The PoP serving a user city.

    Raises:
        KeyError: if the city has no assigned PoP.
    """
    name = user_city if isinstance(user_city, str) else user_city.name
    try:
        return _POPS[_CITY_TO_POP[name]]
    except KeyError:
        known = ", ".join(sorted(_CITY_TO_POP))
        raise KeyError(f"no PoP assignment for city {name!r}; known: {known}") from None

