"""Campaign timeline: mapping between simulation time and calendar dates.

The paper's data collection ran for six months starting December 2021.
All timestamps in this library are *campaign seconds*: seconds elapsed
since 2021-12-01 00:00:00 UTC.  Calendar-anchored events from the paper —
the exit-AS migration windows (London: 16-24 Feb 2022, Sydney: 1-2 Apr
2022) and the Figure 6(b) window (11-13 Apr 2022) — are converted through
these helpers.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

CAMPAIGN_START = datetime(2021, 12, 1, tzinfo=timezone.utc)
"""Calendar instant corresponding to campaign time t=0."""

CAMPAIGN_DURATION_S = 183 * 86_400.0
"""Nominal six-month campaign length (Dec 2021 - May 2022), seconds."""

def date_to_t(year: int, month: int, day: int, hour: int = 0, minute: int = 0) -> float:
    """Campaign seconds for a UTC calendar instant.

    >>> date_to_t(2021, 12, 1)
    0.0
    >>> date_to_t(2021, 12, 2) == 86400.0
    True
    """
    instant = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
    return (instant - CAMPAIGN_START).total_seconds()


def t_to_datetime(t_s: float) -> datetime:
    """UTC datetime for a campaign timestamp."""
    return CAMPAIGN_START + timedelta(seconds=t_s)


def t_to_isoformat(t_s: float) -> str:
    """ISO-8601 string (minute resolution) for a campaign timestamp."""
    return t_to_datetime(t_s).strftime("%Y-%m-%d %H:%M")


# Calendar-anchored events from the paper, in campaign seconds.
LONDON_AS_SWITCH_T = date_to_t(2022, 2, 20)
"""Midpoint of the observed London exit-AS migration window (16-24 Feb)."""

SYDNEY_AS_SWITCH_T = date_to_t(2022, 4, 1, 12)
"""Midpoint of the observed Sydney exit-AS migration window (1-2 Apr)."""

FIGURE_6B_START_T = date_to_t(2022, 4, 11)
"""Start of the 3-day throughput-over-time window shown in Figure 6(b)."""
