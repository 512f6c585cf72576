"""Per-page profiles: sizes, redirects, and device render cost."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import CategoricalSampler
from repro.web.tranco import Site


@dataclass(frozen=True)
class PageProfile:
    """Static properties of one page visit.

    Attributes:
        site: The site being visited.
        document_bytes: Main-document transfer size (what PTT's
            response component downloads).
        n_redirects: HTTP redirects before the final URL.
        dom_work_s: DOM/script execution cost on a reference device.
        render_work_s: Layout/paint cost on a reference device.
    """

    site: Site
    document_bytes: int
    n_redirects: int
    dom_work_s: float
    render_work_s: float


class PageProfileGenerator:
    """Draws page profiles with realistic web-page statistics.

    Document sizes are lognormal around ~60 KB (HTTP-Archive-like for
    main documents); ~25% of visits involve one redirect and ~6% two
    (http->https->www chains); device work is lognormal around ~350 ms,
    scaled later by the per-user device-speed multiplier (the PLT
    confounder PTT is designed to remove).
    """

    MEDIAN_DOCUMENT_BYTES = 60_000
    DOCUMENT_SIGMA = 0.9
    REDIRECT_PROBABILITIES = (0.69, 0.25, 0.06)  # 0, 1, 2 redirects
    _REDIRECTS = CategoricalSampler(REDIRECT_PROBABILITIES)
    MEDIAN_DOM_S = 0.25
    MEDIAN_RENDER_S = 0.10
    DEVICE_SIGMA = 0.5

    def draw(self, site: Site, rng: np.random.Generator) -> PageProfile:
        """Draw a profile for one visit to ``site``."""
        document = int(
            self.MEDIAN_DOCUMENT_BYTES * rng.lognormal(0.0, self.DOCUMENT_SIGMA)
        )
        document = max(2_000, min(document, 4_000_000))
        return PageProfile(
            site=site,
            document_bytes=document,
            n_redirects=self._REDIRECTS(rng),
            dom_work_s=float(self.MEDIAN_DOM_S * rng.lognormal(0.0, self.DEVICE_SIGMA)),
            render_work_s=float(
                self.MEDIAN_RENDER_S * rng.lognormal(0.0, self.DEVICE_SIGMA)
            ),
        )
