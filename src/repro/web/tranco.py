"""A deterministic synthetic Tranco-style ranked site list.

The real Tranco list [32] ranks the top million sites.  The synthetic
list reproduces what the pipeline needs from it: a stable rank->domain
mapping, recognisable head-of-list domains, and the paper's sampling
recipe for the extension details tab (five sites from the top 500,
three from the top 10k, two from the remaining top 1M — chosen to
diversify CDN/hosting exposure).

Organic browsing popularity follows a Zipf law over ranks, the standard
model for web-site visit frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Recognisable head of the list (ranks 1..len), matching the kind of
#: domains a real Tranco head contains.  Everything beyond is synthetic.
_HEAD_DOMAINS = [
    "google.com",
    "youtube.com",
    "facebook.com",
    "microsoft.com",
    "twitter.com",
    "instagram.com",
    "apple.com",
    "wikipedia.org",
    "amazon.com",
    "cloudflare.com",
    "netflix.com",
    "linkedin.com",
    "live.com",
    "reddit.com",
    "office.com",
    "zoom.us",
    "github.com",
    "whatsapp.com",
    "bing.com",
    "tiktok.com",
]

#: Domains treated as Google services for the Figure 4 weather analysis.
GOOGLE_SERVICE_DOMAINS = frozenset(
    {"google.com", "youtube.com", "gmail.com", "google.co.uk", "googleapis.com"}
)

DEFAULT_LIST_SIZE = 1_000_000
POPULAR_CUTOFF_RANK = 200
"""Figure 3's (arbitrary, per the paper) popular/unpopular cutoff."""


@dataclass(frozen=True)
class Site:
    """One ranked site."""

    rank: int
    domain: str

    @property
    def is_popular(self) -> bool:
        """Tranco-top-200 'popular' classification used by Figure 3."""
        return self.rank <= POPULAR_CUTOFF_RANK


class TrancoList:
    """Rank -> domain mapping plus the paper's sampling recipes.

    Args:
        size: Number of ranked sites (default one million).
        zipf_exponent: Exponent of the organic-visit Zipf law.
    """

    def __init__(
        self, size: int = DEFAULT_LIST_SIZE, zipf_exponent: float = 1.15
    ) -> None:
        if size < len(_HEAD_DOMAINS):
            raise ConfigurationError(f"list size {size} smaller than named head")
        if zipf_exponent <= 1.0:
            raise ConfigurationError("zipf exponent must exceed 1 for a proper law")
        self.size = size
        self.zipf_exponent = zipf_exponent

    def site(self, rank: int) -> Site:
        """The site at a 1-based rank."""
        if not 1 <= rank <= self.size:
            raise ConfigurationError(f"rank {rank} outside [1, {self.size}]")
        if rank <= len(_HEAD_DOMAINS):
            return Site(rank, _HEAD_DOMAINS[rank - 1])
        return Site(rank, f"site-{rank:07d}.example.com")

    def details_tab_sample(self, rng: np.random.Generator) -> list[Site]:
        """The extension's 10-site sample: 5 / 3 / 2 across rank bands."""
        top500 = rng.choice(np.arange(1, 501), size=5, replace=False)
        top10k = rng.choice(np.arange(501, 10_001), size=3, replace=False)
        rest = rng.integers(10_001, self.size + 1, size=2)
        return [self.site(int(rank)) for rank in (*top500, *top10k, *rest)]

    def organic_rank(self, rng: np.random.Generator) -> int:
        """Draw the rank of an organically visited site (Zipf)."""
        while True:
            rank = int(rng.zipf(self.zipf_exponent))
            if rank <= self.size:
                return rank

    def organic_site(self, rng: np.random.Generator) -> Site:
        """Draw an organically visited site."""
        return self.site(self.organic_rank(rng))
