"""Column folds over segment streams: exact groups and mergeable sketches.

The paper's dataset artefacts (the per-city cells of Tables 1 and 3,
the PTT CDFs of Figure 3, the weather medians of Figure 4) are exact
counts and order statistics over page-load and speedtest records.
Each is computed in one pass over ``Dataset.iter_*_column_chunks``,
which on the spill backend (DESIGN.md §9) holds one segment of the
requested columns at a time and builds no record object:

* :func:`group_columns` — the exact fold every artefact uses.  It
  groups each chunk's rows by key columns and returns each group's
  value columns in append order (plus exact distinct-label sets), so
  medians, percentiles, ECDFs and means come out bit for bit as a
  record scan would give them.

Callers that must merge partial results without holding the rows use
mergeable sketches instead: the campaign executor's sketch task (see
:mod:`repro.runtime.pool`) and the service's live aggregates
(:mod:`repro.service.aggregates`), both through
:func:`fold_table_columns`.

* :class:`QuantileSketch` — a mergeable t-digest (pure numpy, k1 scale
  function) with ``update(array)`` / ``merge(other)`` / ``quantile(q)``
  / ``cdf(xs)``.  Rank error is bounded by the compression parameter:
  with the default :data:`DEFAULT_COMPRESSION` the mid-distribution
  error stays well under the 1 % the tests assert.
* :class:`MomentsAccumulator` — exact mergeable count/sum/min/max (so
  ``n``, ``mean``, ``min`` and ``max`` never carry sketch error).
* :class:`DistinctAccumulator` — exact mergeable distinct counting for
  small domains (the Tranco list bounds ``#domain`` cells).
* :class:`GroupedAccumulator` — per-key sketches, fed column chunks
  one backend segment at a time (keys are tuples such as
  ``(city, connection type)``).

Sketch states are plain dicts of numpy arrays/scalars: picklable
across the supervision pipe and mergeable in any order — merge is
associative and commutative up to the rank-error bound, which is what
makes the sketch the natural reduce step for sharded campaigns.  No
paper artefact reads a sketch: their cells are always exact.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import Summary
from repro.errors import ConfigurationError, DatasetError

#: t-digest compression (number of k-units across the distribution).
#: Mid-distribution rank error of a compressed digest is ~pi/delta
#: (~0.4 % at 800); doubled-span clusters after deep merges stay under
#: the 1 % bound the tests and benchmarks assert.
DEFAULT_COMPRESSION = 800

#: Buffered points a sketch accumulates before recompressing.
_BUFFER_FACTOR = 16

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
