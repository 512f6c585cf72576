"""The extension's details tab: what a participating user sees.

§3.1: "If they choose to [share], then we compare their data with the
web performance experienced by other Starlink and non-Starlink users in
their city/geographic region and present a summary in the extension's
details page", and the icon "always displays the PLT of the page just
loaded" while the details tab shows PLT components for the ten sampled
pages across the popularity spectrum.

:class:`DetailsTabView` computes exactly that summary from the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatasetError
from repro.extension.storage import Dataset, _median
from repro.extension.users import User


@dataclass(frozen=True)
class ComparisonSummary:
    """The city comparison shown to a sharing user.

    Attributes:
        city: The user's city.
        your_median_ptt_ms: Median PTT across the user's own records.
        starlink_median_ptt_ms: City-wide Starlink median (None if the
            city has no sharing Starlink users yet).
        non_starlink_median_ptt_ms: City-wide non-Starlink median.
        your_records: How many of the user's loads back the summary.
        faster_than_non_starlink: Convenience verdict for the UI.
    """

    city: str
    your_median_ptt_ms: float
    starlink_median_ptt_ms: float | None
    non_starlink_median_ptt_ms: float | None
    your_records: int
    faster_than_non_starlink: bool | None


@dataclass(frozen=True)
class PageBreakdownRow:
    """One row of the details tab's per-page component table."""

    domain: str
    rank: int
    dns_ms: float
    connect_ms: float
    tls_ms: float
    request_ms: float
    response_ms: float
    ptt_ms: float
    plt_ms: float


class DetailsTabView:
    """Computes the details-tab content for one user."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def comparison(self, user: User) -> ComparisonSummary:
        """The city comparison summary for ``user``.

        Raises:
            DatasetError: if the user has no shared records.
        """
        own = [r for r in self.dataset.page_loads if r.user_id == user.user_id]
        if not own:
            raise DatasetError(f"user {user.user_id} has no shared records")
        # The same median as the city cells it is compared against.
        your_median = _median([r.ptt_ms for r in own])

        def city_median(is_starlink: bool) -> float | None:
            try:
                return self.dataset.median_ptt_ms(
                    city=user.city_name, is_starlink=is_starlink
                )
            except DatasetError:
                return None

        starlink_median = city_median(True)
        non_median = city_median(False)
        verdict = None
        if non_median is not None:
            verdict = your_median < non_median
        return ComparisonSummary(
            city=user.city_name,
            your_median_ptt_ms=your_median,
            starlink_median_ptt_ms=starlink_median,
            non_starlink_median_ptt_ms=non_median,
            your_records=len(own),
            faster_than_non_starlink=verdict,
        )

    def page_breakdown(self, user: User, limit: int = 10) -> list[PageBreakdownRow]:
        """The latest ``limit`` page loads decomposed PLT-component-wise."""
        own = sorted(
            (r for r in self.dataset.page_loads if r.user_id == user.user_id),
            key=lambda r: r.t_s,
            reverse=True,
        )[:limit]
        rows = []
        for record in own:
            timing = record.timing
            rows.append(
                PageBreakdownRow(
                    domain=record.domain,
                    rank=record.rank,
                    dns_ms=timing.dns_s * 1000.0,
                    connect_ms=timing.connect_s * 1000.0,
                    tls_ms=timing.tls_s * 1000.0,
                    request_ms=timing.request_s * 1000.0,
                    response_ms=timing.response_s * 1000.0,
                    ptt_ms=record.ptt_ms,
                    plt_ms=record.plt_ms,
                )
            )
        return rows

    def render(self, user: User) -> str:
        """Plain-text rendering of the whole details tab."""
        summary = self.comparison(user)
        lines = [
            f"Your connection in {summary.city} "
            f"({summary.your_records} shared page loads)",
            f"  your median PTT:          {summary.your_median_ptt_ms:7.1f} ms",
        ]
        if summary.starlink_median_ptt_ms is not None:
            lines.append(
                f"  city Starlink median:     {summary.starlink_median_ptt_ms:7.1f} ms"
            )
        if summary.non_starlink_median_ptt_ms is not None:
            lines.append(
                f"  city non-Starlink median: {summary.non_starlink_median_ptt_ms:7.1f} ms"
            )
        if summary.faster_than_non_starlink is not None:
            verdict = "faster" if summary.faster_than_non_starlink else "slower"
            lines.append(f"  you are {verdict} than the city's non-Starlink users")
        lines.append("")
        lines.append("Recent page loads (ms):")
        lines.append(
            "  domain                      rank   dns  conn   tls   req  resp    PTT    PLT"
        )
        for row in self.page_breakdown(user):
            lines.append(
                f"  {row.domain[:26]:26s} {row.rank:6d} {row.dns_ms:5.0f} "
                f"{row.connect_ms:5.0f} {row.tls_ms:5.0f} {row.request_ms:5.0f} "
                f"{row.response_ms:5.0f} {row.ptt_ms:6.0f} {row.plt_ms:6.0f}"
            )
        return "\n".join(lines)
