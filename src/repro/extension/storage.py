"""The queryable measurement dataset (and its JSONL persistence).

Plays the role of the study's server-side store: holds page-load and
speedtest records, supports the slices the analysis needs (city, ISP
class, time window, popularity), computes the aggregates that appear in
the paper's tables, honours user data-deletion requests, and
round-trips to JSON Lines.

Since PR 5 the actual record storage is pluggable: :class:`Dataset` is
a facade over a :class:`~repro.extension.backends.DatasetBackend`
(in-memory lists by default; numpy-columnar and spill-to-disk backends
for bounded-memory campaigns — see DESIGN.md §9).  The query API is
backend-agnostic and the dataset's contents are bit-identical across
backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.extension.backends import DatasetBackend, InMemoryBackend
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.web.timing import NavigationTiming


def page_load_to_dict(record: PageLoadRecord) -> dict:
    """JSON-safe dict form of one page-load record (the JSONL line and
    the service's results-endpoint row share this shape)."""
    timing = record.timing
    return {
        "type": "page_load",
        "user_id": record.user_id,
        "city": record.city,
        "region": record.region,
        "isp": record.isp,
        "is_starlink": record.is_starlink,
        "exit_asn": record.exit_asn,
        "t_s": record.t_s,
        "domain": record.domain,
        "rank": record.rank,
        "is_popular": record.is_popular,
        "timing": {k: getattr(timing, k) for k in timing.__dataclass_fields__}
        if hasattr(timing, "__dataclass_fields__")
        else vars(timing),
    }


def speedtest_to_dict(record: SpeedtestRecord) -> dict:
    """JSON-safe dict form of one speedtest record."""
    return {
        "type": "speedtest",
        "user_id": record.user_id,
        "city": record.city,
        "isp": record.isp,
        "is_starlink": record.is_starlink,
        "t_s": record.t_s,
        "download_mbps": record.download_mbps,
        "upload_mbps": record.upload_mbps,
        "ping_ms": record.ping_ms,
    }


def _median(values) -> float:
    """The middle value, or ``0.5*(a+b)`` of the two middle values, of
    the sorted float64 ``values`` (a list or an array: same bits)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if not ordered.size:
        raise DatasetError("median of an empty selection")
    middle = ordered.size // 2
    if ordered.size % 2 == 1:
        return float(ordered[middle])
    return float(0.5 * (ordered[middle - 1] + ordered[middle]))


#: The page-load column each :meth:`Dataset.select` filter reads.
_FILTER_COLUMNS = {
    "city": "city",
    "is_starlink": "is_starlink",
    "isp": "isp",
    "popular": "is_popular",
    "t_min": "t_s",
    "t_max": "t_s",
    "domain_in": "domain",
}


def _selection_mask(chunk: dict[str, np.ndarray], filters: dict) -> np.ndarray:
    """The rows of one column chunk that :meth:`Dataset.select` keeps.

    Each test is the negation of the record path's skip test, so NaNs
    and boundaries fall the same way (``t_max`` stays exclusive), and
    ``domain_in`` becomes a list first: ``np.isin`` takes a set as one
    scalar and matches nothing.
    """
    keep = np.ones(len(next(iter(chunk.values()))), dtype=bool)
    for name, value in filters.items():
        column = chunk[_FILTER_COLUMNS[name]]
        if name == "t_min":
            keep &= ~(column < value)
        elif name == "t_max":
            keep &= ~(column >= value)
        elif name == "domain_in":
            keep &= np.isin(column, list(value))
        else:
            keep &= ~(column != value)
    return keep


class Dataset:
    """All records collected by a campaign.

    ``Dataset()`` keeps today's behaviour exactly (everything in two
    Python lists); pass any other backend to change where the records
    live without changing what they are.
    """

    def __init__(self, backend: DatasetBackend | None = None) -> None:
        self._backend = backend if backend is not None else InMemoryBackend()

    @property
    def backend(self) -> DatasetBackend:
        """The storage backend holding this dataset's records."""
        return self._backend

    @property
    def storage(self) -> str:
        """The backend's registry name (``memory``/``columnar``/``spill``)."""
        return self._backend.name

    # -- record views ------------------------------------------------------

    @property
    def page_loads(self) -> list[PageLoadRecord]:
        """All page-load records, in append order.

        For the in-memory backend this is the live list (mutating it
        mutates the dataset, as before); other backends materialise a
        fresh equal list — prefer :meth:`iter_page_loads` to stream.
        """
        if isinstance(self._backend, InMemoryBackend):
            return self._backend.page_loads
        return list(self._backend.iter_page_loads())

    @property
    def speedtests(self) -> list[SpeedtestRecord]:
        """All speedtest records, in append order (see :attr:`page_loads`)."""
        if isinstance(self._backend, InMemoryBackend):
            return self._backend.speedtests
        return list(self._backend.iter_speedtests())

    def iter_page_loads(self):
        """Stream page-load records without materialising them all."""
        return self._backend.iter_page_loads()

    def iter_speedtests(self):
        """Stream speedtest records without materialising them all."""
        return self._backend.iter_speedtests()

    @property
    def n_page_loads(self) -> int:
        return self._backend.n_page_loads

    @property
    def n_speedtests(self) -> int:
        return self._backend.n_speedtests

    def page_load_column(self, name: str):
        """One page-load column as a numpy array (O(1) amortised on
        columnar backends); ``ptt_ms``/``plt_ms`` are derived exactly."""
        return self._backend.page_load_column(name)

    def speedtest_column(self, name: str):
        """One speedtest column as a numpy array."""
        return self._backend.speedtest_column(name)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns one backend chunk/segment at a time.

        Yields ``{name: array}`` dicts holding only the requested
        columns of one chunk; derived columns (``ptt_ms``/``plt_ms``)
        are computed per chunk, bitwise equal to a full-column read.
        On the spill backend this is the O(segment)-memory read path
        the artefact folds and sketches of
        :mod:`repro.analysis.streaming` read.
        """
        return self._backend.iter_page_load_column_chunks(columns)

    def iter_speedtest_column_chunks(self, columns):
        """Stream speedtest columns one backend chunk/segment at a time."""
        return self._backend.iter_speedtest_column_chunks(columns)

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]:
        """Page-load records ``[offset, offset + limit)`` in append
        order — the pagination primitive behind the service's results
        endpoint; backends touch only the overlapping chunks/segments."""
        return self._backend.page_load_slice(offset, limit)

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]:
        """Speedtest records ``[offset, offset + limit)`` in append order."""
        return self._backend.speedtest_slice(offset, limit)

    # -- ingest ----------------------------------------------------------

    def add_page_load(self, record: PageLoadRecord) -> None:
        """Store a page-load record."""
        self._backend.append_page_load(record)

    def add_speedtest(self, record: SpeedtestRecord) -> None:
        """Store a speedtest record."""
        self._backend.append_speedtest(record)

    def extend_page_loads(self, records) -> None:
        """Store many page-load records (append order preserved)."""
        self._backend.extend_page_loads(records)

    def extend_speedtests(self, records) -> None:
        """Store many speedtest records (append order preserved)."""
        self._backend.extend_speedtests(records)

    def flush(self) -> None:
        """Push staged records down to the backend's durable form."""
        self._backend.flush()

    # -- selection ---------------------------------------------------------

    def select(
        self,
        city: str | None = None,
        is_starlink: bool | None = None,
        isp: str | None = None,
        popular: bool | None = None,
        t_min: float | None = None,
        t_max: float | None = None,
        domain_in: set[str] | None = None,
    ) -> list[PageLoadRecord]:
        """Page loads matching all given filters."""
        out = []
        for record in self._backend.iter_page_loads():
            if city is not None and record.city != city:
                continue
            if is_starlink is not None and record.is_starlink != is_starlink:
                continue
            if isp is not None and record.isp != isp:
                continue
            if popular is not None and record.is_popular != popular:
                continue
            if t_min is not None and record.t_s < t_min:
                continue
            if t_max is not None and record.t_s >= t_max:
                continue
            if domain_in is not None and record.domain not in domain_in:
                continue
            out.append(record)
        return out

    def select_speedtests(
        self, city: str | None = None, is_starlink: bool | None = None
    ) -> list[SpeedtestRecord]:
        """Speedtests matching the filters."""
        return [
            r
            for r in self._backend.iter_speedtests()
            if (city is None or r.city == city)
            and (is_starlink is None or r.is_starlink == is_starlink)
        ]

    # -- aggregates (the paper's table cells) ---------------------------------

    def _masked(self, column: str, filters: dict):
        """One page-load column's values over a :meth:`select` selection,
        one column chunk at a time, on backends that store columns.

        Loads only the filter columns plus ``column`` and builds no
        record object (DESIGN.md §9, "Exact aggregates").  The
        ``memory`` backend's aggregates scan its resident records
        instead: encoding them to columns costs more than it saves.
        """
        unknown = sorted(set(filters) - set(_FILTER_COLUMNS))
        if unknown:
            raise TypeError(f"unknown selection filter(s) {unknown}")
        active = {name: value for name, value in filters.items() if value is not None}
        load = dict.fromkeys([*(_FILTER_COLUMNS[name] for name in active), column])
        for chunk in self._backend.iter_page_load_column_chunks(tuple(load)):
            yield chunk[column][_selection_mask(chunk, active)]

    def median_ptt_ms(self, **filters) -> float:
        """Median PTT over a selection (Table 1 cells)."""
        if isinstance(self._backend, InMemoryBackend):
            return _median([r.ptt_ms for r in self.select(**filters)])
        return _median(np.concatenate([np.empty(0), *self._masked("ptt_ms", filters)]))

    def request_count(self, **filters) -> int:
        """Number of requests in a selection (#req column)."""
        if not filters:
            return self._backend.n_page_loads
        if isinstance(self._backend, InMemoryBackend):
            return len(self.select(**filters))
        return sum(len(values) for values in self._masked("is_starlink", filters))

    def unique_domains(self, **filters) -> int:
        """Distinct domains in a selection (#domain column)."""
        if isinstance(self._backend, InMemoryBackend):
            return len({r.domain for r in self.select(**filters)})
        domains: set[str] = set()
        for values in self._masked("domain", filters):
            domains.update(values)
        return len(domains)

    # -- privacy -----------------------------------------------------------

    def delete_user(self, user_id: str) -> int:
        """Remove all records for a user ("remove my data" button)."""
        return self._backend.delete_user(user_id)

    # -- persistence ----------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        """Write the dataset as JSON Lines (one record per line)."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for record in self._backend.iter_page_loads():
                handle.write(json.dumps(page_load_to_dict(record)) + "\n")
            for test in self._backend.iter_speedtests():
                handle.write(json.dumps(speedtest_to_dict(test)) + "\n")

    @classmethod
    def from_jsonl(
        cls, path: str | Path, backend: DatasetBackend | None = None
    ) -> "Dataset":
        """Load a dataset written by :meth:`to_jsonl`."""
        dataset = cls(backend=backend)
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                payload = json.loads(line)
                kind = payload.pop("type", None)
                if kind == "page_load":
                    timing = NavigationTiming(**payload.pop("timing"))
                    dataset.add_page_load(PageLoadRecord(timing=timing, **payload))
                elif kind == "speedtest":
                    dataset.add_speedtest(SpeedtestRecord(**payload))
                else:
                    raise DatasetError(f"unknown record type {kind!r}")
        return dataset
