"""Streaming analytics: mergeable sketches folded over segment streams.

The paper's headline artifacts (the PTT CDFs of Figure 3, the weather
medians of Figure 4, the per-city cells of Tables 1 and 3) are all
order statistics over page-load and speedtest records.  The exact
pipeline materialises full columns (or record lists) and sorts them —
O(dataset) memory, which re-inflates everything the spill backend
(DESIGN.md §9) keeps off the heap.  This module provides the
O(segment) alternative:

* :class:`QuantileSketch` — a mergeable t-digest (pure numpy, k1 scale
  function) with ``update(array)`` / ``merge(other)`` / ``quantile(q)``
  / ``cdf(xs)``.  Rank error is bounded by the compression parameter:
  with the default :data:`DEFAULT_COMPRESSION` the mid-distribution
  error stays well under the 1 % the streaming builders assert.
* :class:`MomentsAccumulator` — exact mergeable count/sum/min/max (so
  ``n``, ``mean``, ``min`` and ``max`` never carry sketch error).
* :class:`DistinctAccumulator` — exact mergeable distinct counting for
  small domains (the Tranco list bounds ``#domain`` cells).
* :class:`GroupedAccumulator` — per-key sketches, fed column chunks
  one backend segment at a time (keys are tuples such as
  ``(city, weather condition, connection type)``).
* ``stream_*`` builders — incremental versions of the Figure 3/4 and
  Table 1/3 aggregations that fold
  ``Dataset.iter_page_load_column_chunks`` streams and never hold more
  than one segment of columns.

Sketch states are plain dicts of numpy arrays/scalars: picklable
across the supervision pipe (the campaign executor's sketch task, see
:mod:`repro.runtime.pool`) and mergeable in any order — merge is
associative and commutative up to the rank-error bound, which is what
makes the sketch the natural reduce step for sharded campaigns.

Mode selection (``--analytics {exact,streaming}``) threads through
:func:`resolve_analytics` exactly like the packet engine's
``REPRO_ENGINE``; ``auto`` picks streaming only for spill-backed
datasets big enough (:data:`STREAMING_AUTO_RECORDS`) that exact
materialisation would dominate peak RSS.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.stats import Summary
from repro.constants import AS_GOOGLE, AS_SPACEX
from repro.errors import ConfigurationError, DatasetError
from repro.weather.conditions import WEATHER_CONDITIONS

#: t-digest compression (number of k-units across the distribution).
#: Mid-distribution rank error of a compressed digest is ~pi/delta
#: (~0.4 % at 800); doubled-span clusters after deep merges stay under
#: the 1 % bound the builders and benchmarks assert.
DEFAULT_COMPRESSION = 800

#: Buffered points a sketch accumulates before recompressing.
_BUFFER_FACTOR = 16

#: Environment variable the CLI uses to thread ``--analytics`` through
#: the uniform experiment-runner signature (like ``REPRO_ENGINE``).
ANALYTICS_ENV = "REPRO_ANALYTICS"

#: Analytics modes a config / ``REPRO_ANALYTICS`` may request.
VALID_ANALYTICS = ("exact", "streaming", "auto")

#: ``auto`` switches to streaming only at or above this many records
#: (and only for spill-backed datasets) — below it, exact
#: materialisation is cheap and keeps outputs bit-identical to the
#: historical pipeline.
STREAMING_AUTO_RECORDS = 100_000


def resolve_analytics(requested: str | None = None, config=None) -> str:
    """The analytics mode an experiment will use.

    Precedence: explicit ``requested``, then ``CampaignConfig.analytics``,
    then the ``REPRO_ANALYTICS`` environment variable, then ``auto``.

    Raises:
        ConfigurationError: for an unknown mode name.
    """
    if not requested and config is not None:
        requested = getattr(config, "analytics", None)
    if not requested:
        requested = os.environ.get(ANALYTICS_ENV) or None
    if not requested:
        return "auto"
    if requested not in VALID_ANALYTICS:
        raise ConfigurationError(
            f"unknown analytics mode {requested!r}; valid: {VALID_ANALYTICS}"
        )
    return requested


def analytics_mode_for(dataset, requested: str | None = None, config=None) -> str:
    """Concrete mode (``exact``/``streaming``) for one dataset.

    An explicit request always wins.  ``auto`` selects streaming only
    when the dataset lives on the spill backend *and* is at least
    :data:`STREAMING_AUTO_RECORDS` records — the regime where exact
    materialisation costs O(dataset) RSS for no accuracy the shape
    checks can use.  Everything smaller stays exact (bit-identical to
    the historical outputs).
    """
    mode = resolve_analytics(requested, config)
    if mode != "auto":
        return mode
    n_records = dataset.n_page_loads + dataset.n_speedtests
    if dataset.storage == "spill" and n_records >= STREAMING_AUTO_RECORDS:
        return "streaming"
    return "exact"


# -- exact mergeable accumulators ---------------------------------------


class MomentsAccumulator:
    """Exact mergeable count/sum/min/max (mean derived).

    These moments are closed under concatenation, so folding segment
    streams and merging per-shard states are both exact — only the
    quantiles of a :class:`QuantileSketch` carry approximation error.
    """

    __slots__ = ("n", "sum", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def update(self, values) -> "MomentsAccumulator":
        array = np.asarray(values, dtype=float)
        if array.size:
            self.n += int(array.size)
            self.sum += float(array.sum())
            self.min = min(self.min, float(array.min()))
            self.max = max(self.max, float(array.max()))
        return self

    def merge(self, other: "MomentsAccumulator") -> "MomentsAccumulator":
        self.n += other.n
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise DatasetError("mean of an empty accumulator")
        return self.sum / self.n

    def to_state(self) -> dict:
        return {"n": self.n, "sum": self.sum, "min": self.min, "max": self.max}

    @classmethod
    def from_state(cls, state: dict) -> "MomentsAccumulator":
        acc = cls()
        acc.n = int(state["n"])
        acc.sum = float(state["sum"])
        acc.min = float(state["min"])
        acc.max = float(state["max"])
        return acc


class DistinctAccumulator:
    """Exact mergeable distinct-value counting (small label domains).

    The campaign's label columns (domains, cities, conditions) come
    from fixed generators — the Tranco list bounds the domain universe
    — so an exact set is tiny and keeps ``#domain`` cells identical to
    the exact pipeline, where a probabilistic counter would not.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: set = set()

    def update(self, values) -> "DistinctAccumulator":
        array = np.asarray(values)
        if array.size:
            self._values.update(np.unique(array).tolist())
        return self

    def merge(self, other: "DistinctAccumulator") -> "DistinctAccumulator":
        self._values |= other._values
        return self

    @property
    def n(self) -> int:
        return len(self._values)

    def to_state(self) -> dict:
        return {"values": sorted(self._values)}

    @classmethod
    def from_state(cls, state: dict) -> "DistinctAccumulator":
        acc = cls()
        acc._values = set(state["values"])
        return acc


# -- the mergeable quantile sketch --------------------------------------


class QuantileSketch:
    """A mergeable t-digest over float samples (pure numpy).

    Centroids live as parallel ``(mean, weight)`` arrays; incoming
    samples (and merged-in centroids) buffer until
    ``_BUFFER_FACTOR * compression`` points accumulate, then one
    vectorised compression pass sorts everything, assigns clusters by
    the quantised k1 scale function ``k(q) = d/(2*pi) * asin(2q - 1)``
    and reduces each cluster to its weighted mean with
    ``np.add.reduceat``.  The k1 function concentrates resolution at
    the tails, which is what keeps *rank* error (the quantity the
    paper's medians/p90s care about) bounded by ~pi/compression.

    Exact moments ride along in :attr:`moments`, so ``n``/``min``/
    ``max``/``mean`` are never approximate and quantiles clamp into
    the true value range.

    Merging feeds the other sketch's centroids in as weighted points:
    associative and commutative up to the rank-error bound (the
    property tests pin this), which makes per-shard sketches safe to
    reduce in completion order.
    """

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        if compression < 20:
            raise ConfigurationError(
                f"compression must be >= 20, got {compression}"
            )
        self.compression = int(compression)
        self.moments = MomentsAccumulator()
        self._means = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._buf_values: list[np.ndarray] = []
        self._buf_weights: list[np.ndarray] = []
        self._buffered = 0

    @property
    def n(self) -> int:
        """Exact number of samples folded in."""
        return self.moments.n

    @property
    def n_centroids(self) -> int:
        """Current compressed size (the memory bound)."""
        self._compress()
        return int(self._means.size)

    # -- ingest --------------------------------------------------------

    def update(self, values) -> "QuantileSketch":
        """Fold an array of samples in (any shape; flattened)."""
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return self
        self.moments.update(array)
        self._buf_values.append(array)
        self._buf_weights.append(np.ones(array.size, dtype=float))
        self._buffered += int(array.size)
        if self._buffered >= _BUFFER_FACTOR * self.compression:
            self._compress()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch in (``other`` is left unchanged)."""
        if other.moments.n == 0:
            return self
        other._compress()
        self.moments.merge(other.moments)
        self._buf_values.append(other._means.copy())
        self._buf_weights.append(other._weights.copy())
        self._buffered += int(other._means.size)
        if self._buffered >= _BUFFER_FACTOR * self.compression:
            self._compress()
        return self

    def _compress(self) -> None:
        if not self._buf_values:
            return
        values = np.concatenate([self._means] + self._buf_values)
        weights = np.concatenate([self._weights] + self._buf_weights)
        self._buf_values = []
        self._buf_weights = []
        self._buffered = 0
        if values.size == 0:
            return
        order = np.argsort(values, kind="stable")
        values = values[order]
        weights = weights[order]
        total = weights.sum()
        cumulative = np.cumsum(weights)
        q_mid = (cumulative - 0.5 * weights) / total
        k = (self.compression / (2.0 * np.pi)) * np.arcsin(
            np.clip(2.0 * q_mid - 1.0, -1.0, 1.0)
        )
        cluster_ids = np.floor(k).astype(np.int64)
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(cluster_ids)) + 1)
        )
        cluster_weights = np.add.reduceat(weights, starts)
        cluster_sums = np.add.reduceat(weights * values, starts)
        self._means = cluster_sums / cluster_weights
        self._weights = cluster_weights

    # -- queries -------------------------------------------------------

    def _interp_axes(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(ranks, values, total weight) anchors for interpolation."""
        self._compress()
        if self.moments.n == 0:
            raise DatasetError("quantile of an empty sketch")
        total = float(self._weights.sum())
        mid_ranks = np.cumsum(self._weights) - 0.5 * self._weights
        ranks = np.concatenate(([0.0], mid_ranks, [total]))
        anchors = np.concatenate(
            ([self.moments.min], self._means, [self.moments.max])
        )
        return ranks, anchors, total

    def quantile(self, q: float) -> float:
        """Approximate quantile, ``q`` in [0, 1] (rank error bounded)."""
        return float(self.quantiles(np.asarray([q]))[0])

    def quantiles(self, qs) -> np.ndarray:
        """Vectorised :meth:`quantile` for an array of ``q`` values."""
        qs = np.asarray(qs, dtype=float)
        if np.any((qs < 0.0) | (qs > 1.0)):
            raise ConfigurationError(f"quantiles must be in [0, 1], got {qs}")
        ranks, anchors, total = self._interp_axes()
        return np.interp(qs * total, ranks, anchors)

    def cdf(self, xs) -> np.ndarray:
        """Approximate P[X <= x] for an array of thresholds."""
        ranks, anchors, total = self._interp_axes()
        return np.interp(np.asarray(xs, dtype=float), anchors, ranks / total)

    def cdf_series(self, n_points: int = 256) -> tuple[np.ndarray, np.ndarray]:
        """An ecdf-shaped ``(values, P[X <= x])`` series for plotting.

        Same shape contract as :func:`repro.analysis.stats.ecdf`, so
        sketch-backed figures feed ``ascii_cdf``/CSV dumps unchanged.
        """
        ps = np.linspace(0.0, 1.0, n_points + 1)[1:]
        return self.quantiles(ps), ps

    def summary(self) -> Summary:
        """A :class:`~repro.analysis.stats.Summary` of the sketch.

        ``n``/``min``/``max``/``mean`` are exact (from
        :attr:`moments`); the quartiles carry the sketch's bounded
        rank error.
        """
        if self.moments.n == 0:
            raise DatasetError("summary of an empty sketch")
        p25, p50, p75 = self.quantiles(np.asarray([0.25, 0.5, 0.75]))
        return Summary(
            n=self.moments.n,
            min=self.moments.min,
            p25=float(p25),
            median=float(p50),
            p75=float(p75),
            max=self.moments.max,
            mean=self.moments.mean,
        )

    # -- transport -----------------------------------------------------

    def to_state(self) -> dict:
        """A picklable/npz-able snapshot (compressed centroids only)."""
        self._compress()
        return {
            "compression": self.compression,
            "means": self._means.copy(),
            "weights": self._weights.copy(),
            "moments": self.moments.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        sketch = cls(compression=int(state["compression"]))
        sketch._means = np.asarray(state["means"], dtype=float).copy()
        sketch._weights = np.asarray(state["weights"], dtype=float).copy()
        sketch.moments = MomentsAccumulator.from_state(state["moments"])
        return sketch


# -- grouped folding ----------------------------------------------------


def _group_slices(key_columns: list[np.ndarray]):
    """Yield ``(key tuple, row indices)`` per distinct key combination.

    Vectorised: per-column ``np.unique`` codes combined with
    ``ravel_multi_index``, one stable argsort, contiguous slices.  Keys
    come out as Python scalars in sorted order.
    """
    codes = []
    uniques = []
    for column in key_columns:
        unique, inverse = np.unique(np.asarray(column), return_inverse=True)
        uniques.append(unique)
        codes.append(inverse)
    dims = tuple(len(unique) for unique in uniques)
    combined = codes[0] if len(codes) == 1 else np.ravel_multi_index(codes, dims)
    order = np.argsort(combined, kind="stable")
    sorted_codes = combined[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_codes)) + 1))
    ends = np.concatenate((starts[1:], [order.size]))
    for start, end in zip(starts, ends):
        multi = np.unravel_index(sorted_codes[start], dims)
        key = tuple(
            unique[index].item() for unique, index in zip(uniques, multi)
        )
        yield key, order[start:end]


class GroupedAccumulator:
    """Per-key quantile sketches fed one column chunk at a time.

    Keys are tuples of the grouping columns' values — e.g.
    ``(city, weather condition, connection type)`` — and each key owns
    one :class:`QuantileSketch` (plus, optionally, one exact
    :class:`DistinctAccumulator` for a label column).  One ``update``
    call folds one backend segment; peak memory is the segment's
    columns plus the (tiny) per-key sketch states.
    """

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        self.compression = int(compression)
        self._sketches: dict[tuple, QuantileSketch] = {}
        self._distinct: dict[tuple, DistinctAccumulator] = {}

    def update(self, keys, values, distinct=None) -> "GroupedAccumulator":
        """Fold one chunk: group rows by ``keys`` and feed each group.

        Args:
            keys: Sequence of equal-length key columns (arrays).
            values: The float column the sketches fold.
            distinct: Optional label column folded into each key's
                exact distinct counter.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return self
        key_columns = [np.asarray(column) for column in keys]
        distinct_column = None if distinct is None else np.asarray(distinct)
        for key, indices in _group_slices(key_columns):
            self.sketch(key).update(values[indices])
            if distinct_column is not None:
                self.distinct(key).update(distinct_column[indices])
        return self

    def sketch(self, key: tuple) -> QuantileSketch:
        """The key's sketch, created empty on first access."""
        key = tuple(key)
        if key not in self._sketches:
            self._sketches[key] = QuantileSketch(compression=self.compression)
        return self._sketches[key]

    def distinct(self, key: tuple) -> DistinctAccumulator:
        """The key's exact distinct counter, created on first access."""
        key = tuple(key)
        if key not in self._distinct:
            self._distinct[key] = DistinctAccumulator()
        return self._distinct[key]

    def __contains__(self, key) -> bool:
        return tuple(key) in self._sketches

    def keys(self) -> list[tuple]:
        """All keys seen so far, in sorted order (deterministic)."""
        return sorted(self._sketches)

    def items(self):
        """``(key, sketch)`` pairs in sorted key order."""
        return [(key, self._sketches[key]) for key in self.keys()]

    def merge(self, other: "GroupedAccumulator") -> "GroupedAccumulator":
        """Fold another grouped accumulator in, key by key."""
        for key, sketch in other._sketches.items():
            self.sketch(key).merge(sketch)
        for key, distinct in other._distinct.items():
            self.distinct(key).merge(distinct)
        return self

    def to_state(self) -> dict:
        """Picklable snapshot: sorted ``(key, state)`` pairs."""
        return {
            "compression": self.compression,
            "sketches": [
                (key, self._sketches[key].to_state()) for key in self.keys()
            ],
            "distinct": [
                (key, self._distinct[key].to_state())
                for key in sorted(self._distinct)
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GroupedAccumulator":
        grouped = cls(compression=int(state["compression"]))
        for key, sketch_state in state["sketches"]:
            grouped._sketches[tuple(key)] = QuantileSketch.from_state(
                sketch_state
            )
        for key, distinct_state in state["distinct"]:
            grouped._distinct[tuple(key)] = DistinctAccumulator.from_state(
                distinct_state
            )
        return grouped


# -- the Table 1/3 fold --------------------------------------------------

#: Speedtest value columns the Table 3 fold sketches per key.
SPEEDTEST_VALUES = ("download_mbps", "upload_mbps")


def new_table_accumulators() -> tuple[
    GroupedAccumulator, dict[str, GroupedAccumulator]
]:
    """Empty ``(page loads, {speedtest value: accumulator})`` of the fold."""
    return (
        GroupedAccumulator(),
        {value: GroupedAccumulator() for value in SPEEDTEST_VALUES},
    )


def fold_table_columns(page, speed, page_load_arrays, speedtest_arrays) -> None:
    """Fold record columns into the Table 1/3 accumulators.

    Every cell is keyed ``(city, is_starlink)``: page loads feed a PTT
    sketch plus an exact distinct-domain count, speedtests feed one
    sketch per :data:`SPEEDTEST_VALUES` column.  The campaign's sketch
    task folds each user's columns through here, and the service folds
    each accepted shard's columns, so both produce the same cells.
    """
    from repro.extension.columnar import derived_page_load_column

    if page_load_arrays["city"].size:
        page.update(
            (page_load_arrays["city"], page_load_arrays["is_starlink"]),
            derived_page_load_column("ptt_ms", page_load_arrays.__getitem__),
            distinct=page_load_arrays["domain"],
        )
    if speedtest_arrays["city"].size:
        keys = (speedtest_arrays["city"], speedtest_arrays["is_starlink"])
        for value, grouped in speed.items():
            grouped.update(keys, speedtest_arrays[value])


# -- streaming figure/table builders ------------------------------------

#: Page-load columns the grouped table builders fold.
_TABLE1_COLUMNS = ("city", "is_starlink", "domain", "ptt_ms")


def stream_table1_stats(dataset) -> GroupedAccumulator:
    """Fold the Table 1 aggregation: sketches keyed ``(city, starlink)``.

    Request counts and distinct-domain counts are exact; only the
    median PTT carries the sketch's bounded rank error.  Peak memory is
    one segment of four columns.
    """
    grouped = GroupedAccumulator()
    for chunk in dataset.iter_page_load_column_chunks(_TABLE1_COLUMNS):
        grouped.update(
            (chunk["city"], chunk["is_starlink"]),
            chunk["ptt_ms"],
            distinct=chunk["domain"],
        )
    return grouped


def stream_as_switch_times(dataset, cities) -> dict[str, float | None]:
    """Mergeable re-statement of :func:`detect_as_switch_time` per city.

    The exact detector needs only two mergeable minima per city: the
    first Starlink timestamp on the SpaceX AS and the first on the
    Google AS.  A switch exists iff some Google-AS record precedes the
    first SpaceX-AS record — i.e. ``min_google < min_spacex`` — and the
    switch time is then ``min_spacex`` exactly (no sketch error).

    Raises:
        DatasetError: if a requested city has no Starlink records
            (mirrors the exact detector's contract).
    """
    cities = tuple(cities)
    first = {
        city: {"google": np.inf, "spacex": np.inf, "any": False}
        for city in cities
    }
    columns = ("city", "is_starlink", "exit_asn", "t_s")
    for chunk in dataset.iter_page_load_column_chunks(columns):
        starlink = chunk["is_starlink"]
        for city in cities:
            mask = starlink & (chunk["city"] == city)
            if not mask.any():
                continue
            first[city]["any"] = True
            asn = chunk["exit_asn"][mask]
            t_s = chunk["t_s"][mask]
            for label, target_asn in (("google", AS_GOOGLE), ("spacex", AS_SPACEX)):
                hits = asn == target_asn
                if hits.any():
                    first[city][label] = min(
                        first[city][label], float(t_s[hits].min())
                    )
    switches: dict[str, float | None] = {}
    for city in cities:
        if not first[city]["any"]:
            raise DatasetError("no Starlink records to detect an AS switch in")
        spacex_t = first[city]["spacex"]
        if np.isinf(spacex_t) or not first[city]["google"] < spacex_t:
            switches[city] = None
        else:
            switches[city] = spacex_t
    return switches


def stream_city_class_era_ptt(
    dataset, split_times: dict[str, float]
) -> GroupedAccumulator:
    """Fold the Figure 3 buckets: sketches keyed ``(city, class, era)``.

    ``split_times`` maps city to its AS-switch timestamp (from
    :func:`stream_as_switch_times` or the expected timeline value);
    each Starlink record lands in the ``google`` era when
    ``t_s < split`` else ``spacex``, and in class ``popular``/
    ``unpopular`` by its Tranco flag — the same partition the exact
    path builds from materialised record lists.
    """
    grouped = GroupedAccumulator()
    columns = ("city", "is_starlink", "is_popular", "t_s", "ptt_ms")
    for chunk in dataset.iter_page_load_column_chunks(columns):
        starlink = chunk["is_starlink"]
        for city, split_t in split_times.items():
            mask = starlink & (chunk["city"] == city)
            if not mask.any():
                continue
            era = np.where(chunk["t_s"][mask] < split_t, "google", "spacex")
            klass = np.where(chunk["is_popular"][mask], "popular", "unpopular")
            city_keys = np.full(int(mask.sum()), city)
            grouped.update((city_keys, klass, era), chunk["ptt_ms"][mask])
    return grouped


def stream_ptt_by_condition(
    dataset,
    weather,
    city_name: str,
    domains=None,
    min_samples: int = 3,
) -> dict:
    """Streaming sibling of :func:`~repro.analysis.weatherjoin.ptt_by_condition`.

    Joins each page-load chunk against the city's hourly weather
    timeline vectorised (hour index lookup, identical bucketing to the
    scalar ``condition_at``) and folds per-condition PTT sketches.
    ``domains`` optionally restricts to a domain set (Figure 4 uses the
    Google service domains).  Returns ``{condition: Summary}`` in
    severity order, omitting conditions with fewer than ``min_samples``
    records; ``n``/``min``/``max``/``mean`` are exact, quartiles carry
    the sketch's bounded rank error.
    """
    timeline = weather.hourly_timeline(city_name)
    condition_index = {
        condition: index for index, condition in enumerate(WEATHER_CONDITIONS)
    }
    timeline_codes = np.fromiter(
        (condition_index[condition] for condition in timeline),
        dtype=np.int64,
        count=len(timeline),
    )
    domain_list = None if domains is None else np.asarray(sorted(domains))
    grouped = GroupedAccumulator()
    columns = ("city", "is_starlink", "t_s", "ptt_ms", "domain")
    for chunk in dataset.iter_page_load_column_chunks(columns):
        mask = chunk["is_starlink"] & (chunk["city"] == city_name)
        if domain_list is not None:
            mask &= np.isin(chunk["domain"], domain_list)
        if not mask.any():
            continue
        t_s = chunk["t_s"][mask]
        hours = np.minimum(
            (t_s // 3600.0).astype(np.int64), len(timeline_codes) - 1
        )
        grouped.update((timeline_codes[hours],), chunk["ptt_ms"][mask])
    summaries = {}
    for code, condition in enumerate(WEATHER_CONDITIONS):
        if (code,) in grouped and grouped.sketch((code,)).n >= min_samples:
            summaries[condition] = grouped.sketch((code,)).summary()
    return summaries


def stream_speedtest_medians(dataset) -> dict[str, dict]:
    """Fold the Table 3 aggregation one speedtest segment at a time.

    Returns ``{city: {"n": exact count, "dl": sketch, "ul": sketch}}``
    for Starlink users; medians come off the sketches with bounded
    rank error, counts are exact.
    """
    downloads = GroupedAccumulator()
    uploads = GroupedAccumulator()
    columns = ("city", "is_starlink", "download_mbps", "upload_mbps")
    for chunk in dataset.iter_speedtest_column_chunks(columns):
        mask = chunk["is_starlink"]
        if not mask.any():
            continue
        city = chunk["city"][mask]
        downloads.update((city,), chunk["download_mbps"][mask])
        uploads.update((city,), chunk["upload_mbps"][mask])
    return {
        key[0]: {
            "n": sketch.n,
            "dl": sketch,
            "ul": uploads.sketch(key),
        }
        for key, sketch in downloads.items()
    }
