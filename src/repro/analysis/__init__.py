"""Analysis: the statistical machinery behind the paper's figures.

* :mod:`repro.analysis.stats` — empirical CDF/CCDF, percentiles.
* :mod:`repro.analysis.queueing` — the max-min queueing-delay estimator
  of Table 2 (methodology of the paper's ref [12]).
* :mod:`repro.analysis.weatherjoin` — timestamp-joining PTT records
  with weather history (Figure 4).
* :mod:`repro.analysis.aschange` — detecting the exit-AS migration in
  the dataset and splitting distributions around it (Figure 3).
* :mod:`repro.analysis.streaming` — mergeable quantile sketches and
  O(segment)-memory streaming builders for the same figures/tables
  (``--analytics streaming``).
* :mod:`repro.analysis.tables` — plain-text table rendering for the
  experiment harness output.
"""

from repro.analysis.aschange import detect_as_switch_time, split_around
from repro.analysis.queueing import QueueingEstimate, max_min_queueing
from repro.analysis.stats import ccdf, ecdf, median, percentile, summarize
from repro.analysis.streaming import GroupedAccumulator, QuantileSketch
from repro.analysis.tables import format_table
from repro.analysis.weatherjoin import ptt_by_condition

__all__ = [
    "GroupedAccumulator",
    "QuantileSketch",
    "QueueingEstimate",
    "ccdf",
    "detect_as_switch_time",
    "ecdf",
    "format_table",
    "max_min_queueing",
    "median",
    "percentile",
    "ptt_by_condition",
    "split_around",
    "summarize",
]
