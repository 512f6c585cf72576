"""Where a site is served from: CDN presence by popularity.

Popular sites are overwhelmingly fronted by CDNs with edges near every
metro; unpopular sites increasingly sit on regional hosting or a single
distant origin.  This is the mechanism the paper probes with its
popular/unpopular split in Figure 3 ("more popular websites are more
likely to have a more geographically distributed presence closer to
users and therefore able to sustain lower PTTs").

The model maps (domain, rank, user region) deterministically to a
server class and an extra server-side RTT beyond the user's access
network, using a domain-keyed hash so every user sees the same hosting
for the same site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.rng import CategoricalSampler, stream


class ServerKind(Enum):
    """Hosting class of a site, as seen from a given user region."""

    CDN_EDGE = "cdn_edge"  # metro-local edge cache
    REGIONAL = "regional"  # same-continent hosting
    ORIGIN = "origin"  # single distant origin


#: One-way latency from the user's internet exchange to the server,
#: (mean_s, jitter_sigma) per server kind for a same-region server.
_BASE_ONE_WAY_S = {
    ServerKind.CDN_EDGE: (0.0020, 0.3),
    ServerKind.REGIONAL: (0.0120, 0.4),
    ServerKind.ORIGIN: (0.0450, 0.4),
}

#: Extra one-way latency to a "nearby" CDN edge / regional host, by user
#: region.  Australia's sparser edge footprint (and Starlink's PoP
#: homing) puts even CDN'd content further from AU users, which is the
#: main driver of Sydney's ~2x Table 1 medians.
_REGION_EDGE_EXTRA_S = {"AU": 0.018}

#: Extra one-way latency when the origin sits on another continent,
#: keyed by the user's region.  AU pays the most (trans-Pacific), which
#: is what pushes Sydney's Table 1 medians ~2x above London's.
_INTERCONTINENT_ONE_WAY_S = {
    "UK": 0.038,
    "EU": 0.042,
    "USA": 0.040,
    "NA": 0.040,
    "AU": 0.105,
}

#: Probability a foreign-hosted site's origin is on each continent
#: (US-heavy, like the real web).
_ORIGIN_CONTINENTS = {"USA": 0.55, "EU": 0.30, "AU": 0.03, "NA": 0.12}
_ORIGIN_REGIONS = tuple(_ORIGIN_CONTINENTS)
_ORIGIN_WEIGHTS = np.array(list(_ORIGIN_CONTINENTS.values()))
_ORIGIN_DRAW = CategoricalSampler(_ORIGIN_WEIGHTS / _ORIGIN_WEIGHTS.sum())

#: Resolutions a model memoises; beyond this the oldest are dropped, so
#: a bounded-memory campaign stays bounded (a six-month campaign
#: resolves about 12,700 distinct sites).
_RESOLVED_MAX = 16_384


def cdn_probability(rank: int) -> float:
    """Probability a site of this rank is served from a metro CDN edge.

    Smoothly declining in log-rank: ~0.95 at rank 1, ~0.75 at rank 200,
    ~0.5 around rank 20k, ~0.3 for the deep tail.
    """
    return 0.28 + 0.67 / (1.0 + (math.log10(rank + 1) / 3.4) ** 4)


@dataclass(frozen=True)
class SiteHosting:
    """Resolved hosting of a site for a user region.

    Attributes:
        kind: Server class.
        server_one_way_s: One-way latency from the user's exchange to
            the server (excludes the user's access network).
        server_think_s: Server processing time before the first response
            byte (TTFB minus one RTT).
        cross_continent: Whether the server is on another continent.
    """

    kind: ServerKind
    server_one_way_s: float
    server_think_s: float
    cross_continent: bool


class HostingModel:
    """Deterministic per-(domain, region) hosting resolution."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._resolved: dict[tuple[str, int, str], SiteHosting] = {}

    def _site_rng(self, domain: str, region: str) -> np.random.Generator:
        return stream(self.seed, "hosting", domain, region)

    def resolve(self, domain: str, rank: int, region: str) -> SiteHosting:
        """Hosting of ``domain`` (at ``rank``) as seen from ``region``.

        A pure function of its arguments and the seed, so answers are
        memoised: a campaign resolves its popular sites many times.
        """
        key = (domain, rank, region)
        hosting = self._resolved.get(key)
        if hosting is None:
            if len(self._resolved) >= _RESOLVED_MAX:
                del self._resolved[next(iter(self._resolved))]
            hosting = self._resolved[key] = self._resolve(domain, rank, region)
        return hosting

    def _resolve(self, domain: str, rank: int, region: str) -> SiteHosting:
        rng = self._site_rng(domain, region)
        roll = float(rng.random())
        p_cdn = cdn_probability(rank)
        cross_continent = False
        if roll < p_cdn:
            kind = ServerKind.CDN_EDGE
        elif roll < p_cdn + 0.6 * (1.0 - p_cdn):
            kind = ServerKind.REGIONAL
            # Regional hosting may still be a neighbouring continent for
            # small regions (AU especially).
            cross_continent = bool(rng.random() < (0.65 if region == "AU" else 0.15))
        else:
            kind = ServerKind.ORIGIN
            origin_region = _ORIGIN_REGIONS[_ORIGIN_DRAW(rng)]
            cross_continent = origin_region != region and not (
                {origin_region, region} <= {"USA", "NA"}
            )
        mean_s, sigma = _BASE_ONE_WAY_S[kind]
        one_way = float(mean_s * rng.lognormal(0.0, sigma))
        one_way += _REGION_EDGE_EXTRA_S.get(region, 0.0)
        if cross_continent:
            one_way += _INTERCONTINENT_ONE_WAY_S.get(region, 0.045)
        think = float(0.024 * rng.lognormal(0.0, 0.5))
        if kind is ServerKind.ORIGIN:
            think *= 2.0  # no edge cache: origin renders the page
        return SiteHosting(
            kind=kind,
            server_one_way_s=one_way,
            server_think_s=think,
            cross_continent=cross_continent,
        )
