"""Column folds over segment streams: exact groups and quantile sketches.

The paper's dataset artefacts (the per-city cells of Tables 1 and 3,
the PTT CDFs of Figure 3, the weather medians of Figure 4) are exact
counts and order statistics over page-load and speedtest records.
Each is computed in one pass over ``Dataset.iter_*_column_chunks``,
which on the spill backend (DESIGN.md §9) holds one segment of the
requested columns at a time and builds no record object:

* :func:`group_columns` — the exact fold every artefact uses, and the
  service's live aggregates (:mod:`repro.service.aggregates`) too.  It
  groups each chunk's rows by key columns and returns each group's
  value columns in append order (plus exact distinct-label sets), so
  medians, percentiles, ECDFs and means come out bit for bit as a
  record scan would give them.

:func:`stream_table1_stats` folds Table 1 into bounded-memory sketches
instead; the e2e benchmark's ``fabric-2w`` workload and
``benchmarks/bench_streaming_analysis.py`` read it.  No paper artefact
reads a sketch: their cells are always exact.

* :class:`QuantileSketch` — a t-digest (pure numpy, k1 scale function)
  with ``update(array)`` / ``quantile(q)``.  Rank error is bounded by
  the compression parameter: with the default
  :data:`DEFAULT_COMPRESSION` the mid-distribution error stays well
  under the 1 % the tests assert.
* :class:`MomentsAccumulator` — exact count/sum/min/max (so ``n``,
  ``mean``, ``min`` and ``max`` never carry sketch error).
* :class:`DistinctAccumulator` — exact distinct counting for small
  domains (the Tranco list bounds ``#domain`` cells).
* :class:`GroupedAccumulator` — per-key sketches, fed column chunks
  one backend segment at a time (keys are tuples such as
  ``(city, connection type)``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DatasetError

#: t-digest compression (number of k-units across the distribution).
#: Mid-distribution rank error of a compressed digest is ~pi/delta
#: (~0.4 % at 800), under the 1 % bound the tests and benchmarks
#: assert.
DEFAULT_COMPRESSION = 800

#: Buffered points a sketch accumulates before recompressing.
_BUFFER_FACTOR = 16

# -- exact accumulators -------------------------------------------------


class MomentsAccumulator:
    """Exact count/sum/min/max (mean derived).

    These moments are closed under concatenation, so folding segment
    streams is exact — only the quantiles of a :class:`QuantileSketch`
    carry approximation error.
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

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise DatasetError("mean of an empty accumulator")
        return self.sum / self.n

class DistinctAccumulator:
    """Exact distinct-value counting (small label domains).

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

    @property
    def n(self) -> int:
        return len(self._values)


# -- the quantile sketch -------------------------------------------------


class QuantileSketch:
    """A t-digest over float samples (pure numpy).

    Centroids live as parallel ``(mean, weight)`` arrays; incoming
    samples buffer until ``_BUFFER_FACTOR * compression`` points
    accumulate, then one vectorised compression pass sorts everything,
    assigns clusters by the quantised k1 scale function
    ``k(q) = d/(2*pi) * asin(2q - 1)`` and reduces each cluster to its
    weighted mean with ``np.add.reduceat``.  The k1 function concentrates resolution at
    the tails, which is what keeps *rank* error (the quantity the
    paper's medians/p90s care about) bounded by ~pi/compression.

    Exact moments ride along in :attr:`moments`, so ``n``/``min``/
    ``max``/``mean`` are never approximate and quantiles clamp into
    the true value range.
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


def group_columns(chunks, keys, values, distinct=()) -> dict[tuple, dict]:
    """Group column chunks by key in one pass, exactly.

    ``chunks`` is a column-chunk stream (``Dataset.iter_*_column_chunks``
    or a generator over one).  Each chunk's rows are grouped by the
    ``keys`` columns through :func:`_group_slices`, whose stable sort
    keeps a group's rows in chunk order.  Returns ``{key: {column:
    ...}}`` in sorted key order: each ``values`` column as one array in
    the dataset's append order, and each ``distinct`` column as the set
    of its distinct values, which holds labels rather than rows.
    """
    groups: dict[tuple, dict] = {}
    for chunk in chunks:
        if not len(chunk[keys[0]]):
            continue
        for key, rows in _group_slices([chunk[name] for name in keys]):
            if key not in groups:
                groups[key] = {name: [] for name in values}
                groups[key].update({name: set() for name in distinct})
            group = groups[key]
            for name in values:
                group[name].append(chunk[name][rows])
            for name in distinct:
                group[name].update(np.unique(chunk[name][rows]).tolist())
    folded = {}
    for key in sorted(groups):
        # Pop as we go: peak memory is the pieces plus one group's copy.
        group = groups.pop(key)
        for name in values:
            group[name] = np.concatenate(group[name])
        folded[key] = group
    return folded


class GroupedAccumulator:
    """Per-key quantile sketches fed one column chunk at a time.

    Keys are tuples of the grouping columns' values — e.g.
    ``(city, connection type)`` — and each key owns one
    :class:`QuantileSketch` (plus, optionally, one exact
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


# -- the Table 1 sketch fold ----------------------------------------------

#: Page-load columns :func:`stream_table1_stats` folds.
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
