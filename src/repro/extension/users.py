"""The extension's user population.

28 users installed the extension and shared data: 18 Starlink and 10
non-Starlink, across 10 cities in the UK, USA, EU, Australia (plus
Toronto).  The three deep-dive cities carry most of the data, with
per-city ISP mixes matching Table 1 (each has Starlink, traditional
broadband and cellular users).  Activity rates are calibrated so a
full-length campaign lands near Table 1's request counts
(London 12933/4006, Seattle 3597/765, Sydney 3482/843 Starlink/other).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.extension.privacy import anonymous_user_id
from repro.rng import stream
from repro.timeline import CAMPAIGN_DURATION_S


class IspKind(Enum):
    """Coarse ISP classification (what IPinfo's org field yields)."""

    STARLINK = "starlink"
    BROADBAND = "broadband"
    CELLULAR = "cellular"

    @property
    def is_starlink(self) -> bool:
        """Convenience flag for the Starlink / non-Starlink split."""
        return self is IspKind.STARLINK


@dataclass(frozen=True)
class User:
    """One extension user.

    Attributes:
        user_id: Random anonymous identifier (never linked to an IP).
        city_name: Home city.
        isp: Access-technology class.
        pages_per_day: Mean organic page visits per day.
        device_multiplier: Hardware speed factor scaling DOM/render
            times — the confounder PTT removes.
        shares_data: Whether the user opted into sharing (only sharing
            users contribute records, per the paper's ethics setup).
    """

    user_id: str
    city_name: str
    isp: IspKind
    pages_per_day: float
    device_multiplier: float
    shares_data: bool = True


#: (city, ISP kind, user count, total requests over the campaign targeted
#: at that city/ISP cell).  Table 1 cells for the three deep-dive cities;
#: plausible small counts for the rest of the 10-city population.
_POPULATION_SPEC: list[tuple[str, IspKind, int, float]] = [
    ("london", IspKind.STARLINK, 5, 12_933),
    ("london", IspKind.BROADBAND, 2, 2_800),
    ("london", IspKind.CELLULAR, 1, 1_206),
    ("seattle", IspKind.STARLINK, 3, 3_597),
    ("seattle", IspKind.BROADBAND, 1, 265),
    ("seattle", IspKind.CELLULAR, 1, 500),
    ("sydney", IspKind.STARLINK, 3, 3_482),
    ("sydney", IspKind.BROADBAND, 1, 560),
    ("sydney", IspKind.CELLULAR, 1, 283),
    ("toronto", IspKind.STARLINK, 2, 2_400),
    ("warsaw", IspKind.STARLINK, 1, 1_400),
    ("berlin", IspKind.STARLINK, 1, 1_100),
    ("amsterdam", IspKind.BROADBAND, 1, 700),
    ("austin", IspKind.STARLINK, 1, 1_200),
    ("denver", IspKind.STARLINK, 1, 900),
    ("denver", IspKind.BROADBAND, 1, 400),
    ("melbourne", IspKind.STARLINK, 1, 800),
    ("melbourne", IspKind.CELLULAR, 1, 300),
]


class UserPopulation:
    """Generates and holds the 28-user population.

    Args:
        seed: Root seed (user attributes come from a dedicated stream).
        duration_s: Campaign length the request targets are spread over.
    """

    def __init__(self, seed: int = 0, duration_s: float = CAMPAIGN_DURATION_S) -> None:
        self.seed = seed
        self.duration_s = duration_s
        self.users: list[User] = self._generate()

    def _generate(self) -> list[User]:
        rng = stream(self.seed, "users")
        users: list[User] = []
        days = self.duration_s / 86_400.0
        for city_name, isp, count, total_requests in _POPULATION_SPEC:
            per_user_daily = total_requests / max(days, 1e-9) / count
            for _ in range(count):
                users.append(
                    User(
                        user_id=anonymous_user_id(rng),
                        city_name=city_name,
                        isp=isp,
                        pages_per_day=float(
                            per_user_daily * rng.lognormal(0.0, 0.25)
                        ),
                        device_multiplier=float(rng.lognormal(0.0, 0.45)),
                    )
                )
        return users

    def __len__(self) -> int:
        return len(self.users)

    @property
    def starlink_users(self) -> list[User]:
        """Users on Starlink."""
        return [u for u in self.users if u.isp.is_starlink]

    def in_city(self, city_name: str) -> list[User]:
        """Users living in a city."""
        return [u for u in self.users if u.city_name == city_name]

    @property
    def cities(self) -> list[str]:
        """Cities with at least one user, in first-appearance order."""
        seen: list[str] = []
        for user in self.users:
            if user.city_name not in seen:
                seen.append(user.city_name)
        return seen
