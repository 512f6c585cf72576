"""The queryable measurement dataset (and its JSONL persistence).

Plays the role of the study's server-side store: holds page-load and
speedtest records, supports the slices the analysis needs (city, ISP
class, time window, popularity), computes the aggregates that appear in
the paper's tables, honours user data-deletion requests, and
round-trips to JSON Lines.

The records themselves live in a column store
(:mod:`repro.extension.backends`, DESIGN.md §9): typed numpy columns
in RAM by default, or the same segments spilled to disk for
bounded-memory campaigns.  :class:`Dataset` is the facade over it; the
query API and the dataset's contents are the same on both backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.extension import columnar
from repro.extension.backends import ColumnStore, DatasetBackend
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

    ``Dataset()`` keeps its records as columns in RAM (the ``memory``
    backend); pass a :class:`~repro.extension.backends.SpillBackend` to
    keep them on disk instead without changing what they are.
    """

    def __init__(self, backend: DatasetBackend | None = None) -> None:
        self._backend = backend if backend is not None else ColumnStore()

    @property
    def backend(self) -> DatasetBackend:
        """The storage backend holding this dataset's records."""
        return self._backend

    @property
    def storage(self) -> str:
        """The backend's registry name (``memory``/``spill``)."""
        return self._backend.name

    # -- record views ------------------------------------------------------

    @property
    def page_loads(self) -> list[PageLoadRecord]:
        """All page-load records, in append order: a fresh list decoded
        from the columns — prefer :meth:`iter_page_loads` to stream."""
        return list(self._backend.iter_page_loads())

    @property
    def speedtests(self) -> list[SpeedtestRecord]:
        """All speedtest records, in append order (see :attr:`page_loads`)."""
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
        """One page-load column as a numpy array (cached until the next
        write); ``ptt_ms``/``plt_ms`` are derived exactly."""
        return self._backend.page_load_column(name)

    def speedtest_column(self, name: str):
        """One speedtest column as a numpy array."""
        return self._backend.speedtest_column(name)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns one backend chunk/segment at a time.

        Yields ``{name: array}`` dicts holding only the requested
        columns of one chunk; derived columns (``ptt_ms``/``plt_ms``)
        are computed per chunk, bitwise equal to a full-column read.
        This is the O(segment)-memory read path the artefact folds and
        sketches of :mod:`repro.analysis.streaming` read.
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
        one column chunk at a time.

        Loads only the filter columns plus ``column`` and builds no
        record object (DESIGN.md §9, "Exact aggregates").
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
        return _median(np.concatenate([np.empty(0), *self._masked("ptt_ms", filters)]))

    def request_count(self, **filters) -> int:
        """Number of requests in a selection (#req column)."""
        if not filters:
            return self._backend.n_page_loads
        return sum(len(values) for values in self._masked("is_starlink", filters))

    def unique_domains(self, **filters) -> int:
        """Distinct domains in a selection (#domain column)."""
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
        """Load a dataset written by :meth:`to_jsonl`.

        Every field must have its column's kind, or the column codec
        would store a different value (:mod:`repro.extension.columnar`):
        a string without NUL, ``true``/``false`` for a flag, an integer
        (not a flag) within int64, and any number for a float.  A line
        that breaks this, misses a field or has an extra one raises
        :class:`DatasetError` naming the line number and the field.
        """
        dataset = cls(backend=backend)
        with Path(path).open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as exc:
                    raise DatasetError(f"line {number}: not JSON: {exc}") from exc
                kind = payload.pop("type", None) if isinstance(payload, dict) else None
                if kind == "page_load":
                    fields = _checked_fields(payload, columnar.PAGE_LOAD_SCHEMA, number)
                    timing = [fields.pop(f"timing_{n}") for n in columnar.TIMING_FIELDS]
                    dataset.add_page_load(
                        PageLoadRecord(timing=NavigationTiming(*timing), **fields)
                    )
                elif kind == "speedtest":
                    fields = _checked_fields(payload, columnar.SPEEDTEST_SCHEMA, number)
                    dataset.add_speedtest(SpeedtestRecord(**fields))
                else:
                    raise DatasetError(f"line {number}: unknown record type {kind!r}")
        return dataset


#: The JSON values a column of each kind stores exactly; a flag
#: (``true``/``false``) is no number.
_KIND_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}


def _kind_problem(kind: str, value) -> str | None:
    """Why a column of ``kind`` would not store ``value`` exactly."""
    is_flag = isinstance(value, bool)
    if not isinstance(value, _KIND_TYPES[kind]) or (is_flag and kind != "bool"):
        return f"expected {kind}, got {value!r}"
    if kind == "str" and "\x00" in value:
        return f"string contains NUL: {value!r}"
    if kind == "int" and not -(2**63) <= value < 2**63:
        return f"integer outside int64: {value!r}"
    return None


def _checked_fields(payload: dict, schema, number: int) -> dict:
    """A JSONL record's fields by column name, each of its schema kind.

    ``timing_*`` columns read the nested ``timing`` object; a JSON
    integer in a float column becomes a float.
    """
    fields = {name: value for name, value in payload.items() if name != "timing"}
    timing = payload.get("timing", {})
    if not isinstance(timing, dict):
        raise DatasetError(f"line {number}: field 'timing' is not an object")
    fields.update({f"timing_{name}": value for name, value in timing.items()})

    def label(name: str) -> str:
        return name.replace("timing_", "timing.", 1)

    kinds = dict(schema)
    for name in fields:
        if name not in kinds:
            raise DatasetError(f"line {number}: unknown field {label(name)!r}")
    for name, kind in schema:
        if name not in fields:
            raise DatasetError(f"line {number}: missing field {label(name)!r}")
        problem = _kind_problem(kind, fields[name])
        if problem is not None:
            raise DatasetError(f"line {number}: field {label(name)!r}: {problem}")
        if kind == "float":
            fields[name] = float(fields[name])
    return fields
