"""Shape validation: the paper's findings as checkable expectations.

A reproduction against a simulator cannot (and should not) match the
paper's absolute numbers; what it must match are the *shape* findings —
orderings, ratios, crossovers, distribution anchors.  This module
encodes every such finding as a declarative expectation over an
experiment's metrics, providing one source of truth that the test
suite, the benchmark suite and EXPERIMENTS.md all consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class Check:
    """One shape expectation.

    Attributes:
        description: What the paper claims, in one line.
        predicate: Metrics dict -> bool.
    """

    description: str
    predicate: Callable[[dict[str, float]], bool]

    def evaluate(self, metrics: dict[str, float]) -> "CheckOutcome":
        """Evaluate against measured metrics (missing keys = failure).

        Numpy scalars (column-sourced metrics) are coerced to Python
        floats first, so predicates see one numeric type regardless of
        which storage backend produced the experiment's dataset.
        """
        metrics = {
            key: float(value) if isinstance(value, np.number) else value
            for key, value in metrics.items()
        }
        try:
            passed = bool(self.predicate(metrics))
        except KeyError as exc:
            return CheckOutcome(self.description, False, f"missing metric {exc}")
        return CheckOutcome(self.description, passed, "" if passed else "violated")


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one check."""

    description: str
    passed: bool
    detail: str = ""


def _less(a: str, b: str) -> Check:
    return Check(f"{a} < {b}", lambda m: m[a] < m[b])


def _greater(a: str, b: str) -> Check:
    return Check(f"{a} > {b}", lambda m: m[a] > m[b])


def _between(key: str, low: float, high: float) -> Check:
    return Check(f"{low} <= {key} <= {high}", lambda m: low <= m[key] <= high)


def _flag(key: str) -> Check:
    return Check(f"{key} holds", lambda m: m[key] == 1.0)


#: The paper's shape findings, keyed by experiment id.
SHAPE_EXPECTATIONS: dict[str, list[Check]] = {
    "table1": [
        _less("london_starlink_median_ptt_ms", "london_non_starlink_median_ptt_ms"),
        _less("sydney_starlink_median_ptt_ms", "sydney_non_starlink_median_ptt_ms"),
        _between("sydney_over_london_starlink", 1.3, 2.6),
        _between("london_starlink_median_ptt_ms", 150.0, 700.0),
    ],
    "figure1": [
        _between("total_users", 28, 28),
        _between("starlink_users", 18, 18),
        _between("cities", 10, 10),
    ],
    "figure2": [
        _between("n_nodes", 3, 3),
        Check(
            "every node connected, gateway within regional range (<800 km)",
            lambda m: all(
                m[f"{n}_connected"] == 1.0 and m[f"{n}_gateway_km"] < 800.0
                for n in ("north_carolina", "wiltshire", "barcelona")
            ),
        ),
        Check(
            "pop pings in the Starlink regime at every node",
            lambda m: all(
                20.0 < m[f"{n}_pop_ping_ms"] < 170.0
                for n in ("north_carolina", "wiltshire", "barcelona")
            ),
        ),
    ],
    "figure3": [
        Check(
            "popular sites faster than unpopular (Google-AS era, London)",
            lambda m: m["london_popular_google_median_ptt_ms"]
            < m["london_unpopular_google_median_ptt_ms"],
        ),
        Check(
            "PTT rises after the SpaceX-AS switch (London popular)",
            lambda m: m["london_popular_spacex_over_google"] > 1.0,
        ),
        Check(
            "detected London switch within 12 days of the observed window",
            lambda m: abs(
                m["london_detected_switch_day"] - m["london_expected_switch_day"]
            )
            < 12.0,
        ),
    ],
    "figure4": [
        Check(
            "moderate rain roughly doubles the clear-sky PTT median",
            lambda m: m["moderate_rain_over_clear"] > 1.4,
        ),
        _greater("moderate_rain_median_ptt_ms", "light_rain_median_ptt_ms"),
        _greater("light_rain_median_ptt_ms", "clear_sky_median_ptt_ms"),
    ],
    "figure5": [
        _less("broadband_final_rtt_ms", "starlink_final_rtt_ms"),
        _less("starlink_final_rtt_ms", "cellular_final_rtt_ms"),
        _between("starlink_pop_hop_ms", 20.0, 120.0),
        _between("cellular_first_hop_ms", 30.0, 120.0),
    ],
    "table2": [
        _greater("north_carolina_wireless_median_ms", "wiltshire_wireless_median_ms"),
        _greater("wiltshire_wireless_median_ms", "barcelona_wireless_median_ms"),
        _between("north_carolina_wireless_fraction", 0.35, 1.6),
        _between("wiltshire_wireless_fraction", 0.35, 1.6),
    ],
    "table3": [
        _greater("london_dl_mbps", "seattle_dl_mbps"),
        _greater("seattle_dl_mbps", "toronto_dl_mbps"),
        _greater("toronto_dl_mbps", "warsaw_dl_mbps"),
        _between("london_over_seattle_dl", 1.1, 1.8),
        _between("london_over_toronto_dl", 1.5, 2.5),
    ],
    "figure6a": [
        _greater("barcelona_median_mbps", "wiltshire_median_mbps"),
        _greater("wiltshire_median_mbps", "north_carolina_median_mbps"),
        _between("barcelona_over_nc", 2.5, 7.0),
        _between("north_carolina_max_mbps", 50.0, 230.0),
    ],
    "figure6b": [
        _between("night_over_evening", 1.6, 5.0),
        _between("dl_max_mbps", 200.0, 340.0),
        _between("ul_median_mbps", 3.0, 16.0),
    ],
    "figure6c": [
        _between("p_loss_ge_5pct", 0.04, 0.3),
        _less("p_loss_ge_10pct", "p_loss_ge_5pct"),
        _between("max_loss_pct", 15.0, 70.0),
        _between("median_loss_pct", 0.0, 3.0),
    ],
    "figure7": [
        _between("clump_handover_association", 0.8, 1.0),
        _between("n_handovers", 3.0, 40.0),
        _between("serving_satellites", 2.0, 40.0),
    ],
    "figure8": [
        Check(
            "BBR far ahead of loss-based CCAs on Starlink",
            lambda m: m["bbr_advantage_on_starlink"] > 2.0,
        ),
        _between("bbr_starlink_norm", 0.3, 0.9),
        _between("bbr_wifi_norm", 0.85, 1.05),
        Check(
            "every CCA better on Wi-Fi than on Starlink",
            lambda m: all(
                m[f"{cc}_wifi_norm"] > m[f"{cc}_starlink_norm"]
                for cc in ("bbr", "cubic", "reno", "veno", "vegas")
            ),
        ),
    ],
    "ablation_loss": [
        Check(
            "burst loss is clumpier than i.i.d. at equal mean",
            lambda m: m["burst_clumpiness"] > 2.0 * m["iid_clumpiness"],
        ),
    ],
    "ablation_cdn": [
        Check(
            "popularity-aware hosting produces the Figure 3 gap",
            lambda m: m["aware_gap_ms"] > 2.0 * abs(m["uniform_gap_ms"]),
        ),
    ],
    "ablation_queueing": [
        Check(
            "bent-pipe queueing dominates only when modelled there",
            lambda m: m["bentpipe_model_wireless_fraction"]
            > m["transit_model_wireless_fraction"] + 0.2,
        ),
    ],
    "ablation_ptt": [
        _flag("ptt_ranks_networks_correctly"),
        _flag("plt_inverts_ranking"),
    ],
    "ablation_cell": [
        _flag("emergent_ordering_matches"),
        _between("emergent_barcelona_over_nc", 2.0, 9.0),
        _between("north_carolina_emergent_diurnal_swing", 1.5, 5.0),
        _between("wiltshire_emergent_diurnal_swing", 1.2, 4.0),
    ],
    "extension_isl": [
        _flag("isl_beats_fibre_london_sydney"),
        _flag("fibre_beats_isl_short_path"),
        _less("london_to_n_virginia_isl_ms", "london_to_n_virginia_bentpipe_ms"),
    ],
    "extension_geo": [
        _less("broadband_rtt_ms", "starlink_rtt_ms"),
        _less("starlink_rtt_ms", "geo_rtt_ms"),
        _between("geo_rtt_ms", 480.0, 1200.0),
    ],
    "extension_transport": [
        Check(
            "BBR-LEO is at least as good as stock BBR on blackouts",
            lambda m: m["bbr_leo_norm"] >= 0.98 * m["bbr_norm"],
        ),
    ],
    "extension_quic": [
        _between("quic_speedup", 1.1, 2.0),
    ],
}


def validate(result: ExperimentResult) -> list[CheckOutcome]:
    """Evaluate an experiment result against the paper's shape findings.

    Raises:
        ConfigurationError: if no expectations exist for the experiment.
    """
    try:
        checks = SHAPE_EXPECTATIONS[result.experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"no shape expectations registered for {result.experiment_id!r}"
        ) from None
    return [check.evaluate(result.metrics) for check in checks]


def validate_or_raise(result: ExperimentResult) -> None:
    """Raise AssertionError listing every violated expectation."""
    outcomes = validate(result)
    failures = [o for o in outcomes if not o.passed]
    if failures:
        details = "; ".join(f"{o.description} ({o.detail})" for o in failures)
        raise AssertionError(
            f"{result.experiment_id}: {len(failures)} shape check(s) failed: {details}"
        )


def summary_line(result: ExperimentResult) -> str:
    """`experiment: k/n shape checks pass` one-liner."""
    outcomes = validate(result)
    passed = sum(1 for o in outcomes if o.passed)
    return f"{result.experiment_id}: {passed}/{len(outcomes)} shape checks pass"
