"""Shape validation: the paper's findings as checkable expectations.

A reproduction against a simulator cannot (and should not) match the
paper's absolute numbers; what it must match are the *shape* findings —
orderings, ratios, crossovers, distribution anchors.  This module
encodes every such finding, with its bound, as a declarative
expectation over an experiment's metrics.  :data:`SHAPE_EXPECTATIONS`
is the only place a finding is written; every runner reads it:

- tier-1 tests: ``tests/test_experiments.py::test_findings_hold`` at
  its list of (experiment, seed, scale) points, and the artefact-digest
  tests at seeds 0 and 1;
- the report, ``python -m repro.experiments.report``, which runs every
  experiment at its reference scale, writes EXPERIMENTS.md and exits 1
  on a failed check;
- the experiments CLI's ``--validate``;
- the end-to-end benchmark's ``rpi-packet`` workload, whose round fails
  on a failed Table 2 or Figure 8 check.
"""

from __future__ import annotations

import operator
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


def _operand(metrics: dict[str, float], operand: str | float) -> float:
    return metrics[operand] if isinstance(operand, str) else operand


def _less(a: str, b: str | float) -> Check:
    """``a < b``, where ``b`` is another metric or a constant."""
    return Check(f"{a} < {b}", lambda m: m[a] < _operand(m, b))


def _greater(a: str, b: str | float) -> Check:
    """``a > b``, where ``b`` is another metric or a constant."""
    return Check(f"{a} > {b}", lambda m: m[a] > _operand(m, b))


_BOUND_OPS = {"<": operator.lt, "<=": operator.le}


def _between(low: float, low_op: str, key: str, high_op: str, high: float) -> Check:
    """``low low_op key high_op high``; each op is ``<`` or ``<=``."""
    above, below = _BOUND_OPS[low_op], _BOUND_OPS[high_op]
    return Check(
        f"{low} {low_op} {key} {high_op} {high}",
        lambda m: above(low, m[key]) and below(m[key], high),
    )


def _flag(key: str) -> Check:
    return Check(f"{key} holds", lambda m: m[key] == 1.0)


#: The paper's shape findings, keyed by experiment id: the one place a
#: finding and its bound are written.
SHAPE_EXPECTATIONS: dict[str, list[Check]] = {
    "table1": [
        _less("london_starlink_median_ptt_ms", "london_non_starlink_median_ptt_ms"),
        _less("sydney_starlink_median_ptt_ms", "sydney_non_starlink_median_ptt_ms"),
        _between(1.3, "<", "sydney_over_london_starlink", "<=", 2.6),
        _between(150.0, "<", "london_starlink_median_ptt_ms", "<", 700.0),
    ],
    "figure1": [
        _between(28, "<=", "total_users", "<=", 28),
        _between(18, "<=", "starlink_users", "<=", 18),
        _between(10, "<=", "cities", "<=", 10),
    ],
    "figure2": [
        _between(3, "<=", "n_nodes", "<=", 3),
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
        Check(
            "detected Sydney switch within 12 days of the observed window",
            lambda m: abs(
                m["sydney_detected_switch_day"] - m["sydney_expected_switch_day"]
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
        _less("starlink_first_hop_ms", 5.0),
        _between(20.0, "<", "starlink_pop_hop_ms", "<=", 120.0),
        _between(30.0, "<", "cellular_first_hop_ms", "<=", 120.0),
    ],
    "table2": [
        _greater("north_carolina_wireless_median_ms", "wiltshire_wireless_median_ms"),
        _greater("wiltshire_wireless_median_ms", "barcelona_wireless_median_ms"),
        _between(0.35, "<", "north_carolina_wireless_fraction", "<=", 1.6),
        _between(0.35, "<", "wiltshire_wireless_fraction", "<=", 1.6),
        _greater("barcelona_wireless_fraction", 0.35),
    ],
    "table3": [
        _greater("london_dl_mbps", "seattle_dl_mbps"),
        _greater("seattle_dl_mbps", "toronto_dl_mbps"),
        _greater("toronto_dl_mbps", "warsaw_dl_mbps"),
        _between(1.1, "<", "london_over_seattle_dl", "<", 1.8),
        _between(1.5, "<", "london_over_toronto_dl", "<", 2.5),
        Check(
            "London's uplink above 1.4x Seattle's (paper: roughly double)",
            lambda m: m["london_ul_mbps"] > 1.4 * m["seattle_ul_mbps"],
        ),
    ],
    "figure6a": [
        _greater("barcelona_median_mbps", "wiltshire_median_mbps"),
        _greater("wiltshire_median_mbps", "north_carolina_median_mbps"),
        _between(2.5, "<", "barcelona_over_nc", "<", 7.0),
        _between(50.0, "<=", "north_carolina_max_mbps", "<", 230.0),
    ],
    "figure6b": [
        _between(1.6, "<", "night_over_evening", "<=", 5.0),
        _between(200.0, "<", "dl_max_mbps", "<=", 340.0),
        _between(3.0, "<", "ul_median_mbps", "<", 16.0),
        Check(
            "download peak above 1.8x the evening median",
            lambda m: m["dl_max_mbps"] > 1.8 * m["evening_median_dl_mbps"],
        ),
    ],
    "figure6c": [
        _between(0.05, "<", "p_loss_ge_5pct", "<", 0.25),
        _between(0.02, "<", "p_loss_ge_10pct", "<", 0.15),
        _less("p_loss_ge_10pct", "p_loss_ge_5pct"),
        _between(20.0, "<", "max_loss_pct", "<=", 70.0),
        _between(0.0, "<=", "median_loss_pct", "<", 3.0),
    ],
    "figure7": [
        _between(0.8, "<", "clump_handover_association", "<=", 1.0),
        _between(3.0, "<=", "n_handovers", "<=", 40.0),
        _between(2.0, "<=", "serving_satellites", "<=", 40.0),
    ],
    "figure8": [
        Check(
            "BBR far ahead of loss-based CCAs on Starlink",
            lambda m: m["bbr_advantage_on_starlink"] > 2.0,
        ),
        _between(0.3, "<=", "bbr_starlink_norm", "<", 0.9),
        _between(0.85, "<", "bbr_wifi_norm", "<=", 1.05),
        Check(
            "CUBIC, Reno and Veno above 0.9 on Wi-Fi",
            lambda m: all(
                m[f"{cc}_wifi_norm"] > 0.9 for cc in ("cubic", "reno", "veno")
            ),
        ),
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
        Check(
            "burst and i.i.d. loss differ in seconds over 5 % loss",
            lambda m: m["iid_seconds_over_5pct"] != m["burst_seconds_over_5pct"],
        ),
    ],
    "ablation_cdn": [
        _greater("aware_gap_ms", 30.0),
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
        _greater("bentpipe_model_wireless_fraction", 0.3),
        _less("transit_model_wireless_fraction", 0.1),
    ],
    "ablation_ptt": [
        _flag("ptt_ranks_networks_correctly"),
        _flag("plt_inverts_ranking"),
    ],
    "ablation_cell": [
        _flag("emergent_ordering_matches"),
        _between(2.0, "<=", "emergent_barcelona_over_nc", "<=", 9.0),
        _between(1.5, "<=", "north_carolina_emergent_diurnal_swing", "<=", 5.0),
        _between(1.2, "<=", "wiltshire_emergent_diurnal_swing", "<=", 4.0),
    ],
    "extension_isl": [
        _flag("isl_beats_fibre_london_sydney"),
        _flag("fibre_beats_isl_short_path"),
        _less("london_to_n_virginia_isl_ms", "london_to_n_virginia_bentpipe_ms"),
        _less("london_to_sydney_isl_ms", "london_to_sydney_bentpipe_ms"),
        _between(15.0, "<", "london_to_n_virginia_isl_ms", "<", 45.0),
    ],
    "extension_geo": [
        _less("broadband_rtt_ms", "starlink_rtt_ms"),
        _less("starlink_rtt_ms", "geo_rtt_ms"),
        _between(480.0, "<", "geo_rtt_ms", "<=", 1200.0),
        _greater("geo_over_starlink", 3.0),
    ],
    "extension_transport": [
        Check(
            "BBR-LEO is at least as good as stock BBR on blackouts",
            lambda m: m["bbr_leo_norm"] >= 0.98 * m["bbr_norm"],
        ),
    ],
    "extension_quic": [
        _between(1.1, "<", "quic_speedup", "<=", 2.0),
        _less("http3_quic_median_ptt_ms", "http2_tcp_tls_median_ptt_ms"),
        _less("http3_quic_p90_ptt_ms", "http2_tcp_tls_p90_ptt_ms"),
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

