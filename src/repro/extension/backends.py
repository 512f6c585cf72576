"""Dataset storage backends: one column store, in RAM or on disk.

A finished record has one layout, the typed columns of
:mod:`repro.extension.columnar`, and both backends hold records that
way, bit-identical through the :class:`~repro.extension.storage.Dataset`
facade:

* ``memory`` (:class:`ColumnStore`) — segments of numpy columns in RAM.
* ``spill`` (:class:`SpillBackend`) — the same segments as checksummed
  container files (:func:`~repro.extension.columnar.write_checksummed_npz`,
  the format of a checkpoint segment) plus a small JSON manifest, so
  only the staged records and the segment being read are ever resident.

Both share one implementation.  Record appends stage up to
``segment_records`` records and compact them into one segment; array
extends (the shard merge) adopt their columns in segment-sized pieces
without building a record.  Record iteration and slices decode one
segment at a time; full-column reads concatenate one column, and
chunk reads yield one segment's requested columns.  Counts come from
the segments' record counts, and ``delete_user`` rewrites only the
segments that hold the user.  ``SpillBackend`` changes only where a
segment lives, and adds the manifest and :meth:`SpillBackend.open`.

The backend choice is an execution detail — it never changes the
dataset's bits — so it is excluded from the campaign checkpoint
fingerprint, and ``serial ≡ sharded ≡ resumed`` holds for both.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.extension import columnar
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.knobs import KNOBS, resolve

#: Default records per segment, in RAM or on disk.
DEFAULT_SEGMENT_RECORDS = KNOBS["storage_segment_records"].default

_KINDS = ("page_loads", "speedtests")

_CODECS = {
    "page_loads": (
        columnar.PAGE_LOAD_COLUMNS,
        columnar.encode_page_loads,
        columnar.decode_page_loads,
    ),
    "speedtests": (
        columnar.SPEEDTEST_COLUMNS,
        columnar.encode_speedtests,
        columnar.decode_speedtests,
    ),
}


#: Stored columns each derived page-load column is computed from; chunk
#: reads load only these plus the stored columns actually requested.
_DERIVED_INPUTS = {
    "ptt_ms": tuple(
        f"timing_{field}"
        for field in (
            "redirect_s",
            "dns_s",
            "connect_s",
            "tls_s",
            "request_s",
            "response_s",
        )
    ),
    "plt_ms": tuple(f"timing_{field}" for field in columnar.TIMING_FIELDS),
}


def _split_chunk_columns(kind: str, columns) -> tuple[tuple, tuple, tuple]:
    """(stored columns to load, derived columns, requested order) for a
    chunk-iteration request; unknown names raise up front."""
    requested = tuple(columns)
    if not requested:
        raise DatasetError("column chunk request needs at least one column")
    all_columns, _, _ = _CODECS[kind]
    derived_names = columnar.PAGE_LOAD_DERIVED if kind == "page_loads" else ()
    derived = tuple(name for name in requested if name in derived_names)
    unknown = [
        name
        for name in requested
        if name not in all_columns and name not in derived_names
    ]
    if unknown:
        raise DatasetError(f"unknown {kind} column(s) {unknown}")
    load = dict.fromkeys(
        name for name in requested if name not in derived_names
    )
    for name in derived:
        load.update(dict.fromkeys(_DERIVED_INPUTS[name]))
    return tuple(load), derived, requested


def _check_slice(offset: int, limit: int) -> None:
    """Reject malformed pagination windows up front."""
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
        raise DatasetError(f"slice offset must be an integer >= 0, got {offset!r}")
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise DatasetError(f"slice limit must be an integer >= 0, got {limit!r}")


def _finish_chunk(
    arrays: dict[str, np.ndarray], requested: tuple, derived: tuple
) -> dict[str, np.ndarray]:
    """Assemble one yielded chunk: stored columns pass through, derived
    ones are computed per chunk (bitwise equal to full-column reads —
    the derivation is elementwise)."""
    return {
        name: columnar.derived_page_load_column(name, arrays.__getitem__)
        if name in derived
        else arrays[name]
        for name in requested
    }


def make_backend(
    name: str,
    directory: str | None = None,
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
) -> "DatasetBackend":
    """Instantiate a backend by name (``directory`` is spill-only)."""
    name = KNOBS["storage"].check(name)
    if name == "spill":
        return SpillBackend(directory=directory, segment_records=segment_records)
    return ColumnStore(segment_records=segment_records)


def backend_for_config(config) -> "DatasetBackend":
    """The backend of a campaign config's ``storage``, ``storage_dir``
    and ``storage_segment_records`` knobs (DESIGN.md §5)."""
    return make_backend(
        resolve("storage", config.storage),
        directory=resolve("storage_dir", config.storage_dir),
        segment_records=config.storage_segment_records,
    )


@runtime_checkable
class DatasetBackend(Protocol):
    """What a dataset storage backend must provide."""

    #: Registry name (``memory``/``spill``).
    name: str

    def append_page_load(self, record: PageLoadRecord) -> None: ...

    def append_speedtest(self, record: SpeedtestRecord) -> None: ...

    def extend_page_loads(self, records) -> None: ...

    def extend_speedtests(self, records) -> None: ...

    def extend_page_load_arrays(self, arrays: dict[str, np.ndarray]) -> None: ...

    def extend_speedtest_arrays(self, arrays: dict[str, np.ndarray]) -> None: ...

    def iter_page_loads(self) -> Iterator[PageLoadRecord]: ...

    def iter_speedtests(self) -> Iterator[SpeedtestRecord]: ...

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]: ...

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]: ...

    def page_load_column(self, name: str) -> np.ndarray: ...

    def speedtest_column(self, name: str) -> np.ndarray: ...

    def iter_page_load_column_chunks(
        self, columns
    ) -> Iterator[dict[str, np.ndarray]]: ...

    def iter_speedtest_column_chunks(
        self, columns
    ) -> Iterator[dict[str, np.ndarray]]: ...

    @property
    def n_page_loads(self) -> int: ...

    @property
    def n_speedtests(self) -> int: ...

    def delete_user(self, user_id: str) -> int: ...

    def flush(self) -> None: ...


class ColumnStore:
    """The ``memory`` backend: segments of typed columns in RAM.

    Each segment is ``{"n": records, ...}``; here the rest of the entry
    is the segment's ``arrays``.  :class:`SpillBackend` keeps the same
    entries with a file name instead, and overrides only the four
    methods that store, load, discard and commit segments.
    """

    name = "memory"

    def __init__(self, segment_records: int = DEFAULT_SEGMENT_RECORDS) -> None:
        if segment_records < 1:
            raise ConfigurationError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.segment_records = segment_records
        #: Per kind: the segment entries, in append order.
        self._segments: dict[str, list[dict]] = {kind: [] for kind in _KINDS}
        #: Per kind: appended records not yet compacted into a segment.
        self._staging: dict[str, list] = {kind: [] for kind in _KINDS}
        self._column_cache: dict[tuple[str, str], np.ndarray] = {}

    # -- where a segment lives -------------------------------------------

    def _store(self, kind: str, arrays: dict[str, np.ndarray]) -> dict:
        """Keep one segment's columns; returns its entry."""
        columns, _, _ = _CODECS[kind]
        return {"n": int(len(arrays[columns[0]])), "arrays": arrays}

    def _load(self, kind: str, entry: dict, columns) -> dict[str, np.ndarray]:
        """The ``columns`` of one segment."""
        return {name: entry["arrays"][name] for name in columns}

    def _discard(self, kind: str, entry: dict) -> None:
        """Forget a segment that a rewrite replaced."""

    def _commit(self) -> None:
        """Make the segment lists durable (nothing to do in RAM)."""

    # -- ingest --------------------------------------------------------

    def _stage(self, kind: str, records) -> None:
        staged = self._staging[kind]
        staged.extend(records)
        self._column_cache.clear()
        if len(staged) >= self.segment_records:
            self._compact(kind, partial=False)

    def _compact(self, kind: str, partial: bool = True) -> None:
        """Encode staged records into segments of ``segment_records``;
        a short last segment only when ``partial``."""
        staged = self._staging[kind]
        size = self.segment_records
        stop = len(staged) if partial else len(staged) - len(staged) % size
        if not stop:
            return
        _, encode, _ = _CODECS[kind]
        for start in range(0, stop, size):
            piece = encode(staged[start : min(start + size, stop)])
            self._segments[kind].append(self._store(kind, piece))
        self._staging[kind] = staged[stop:]
        self._commit()

    def append_page_load(self, record: PageLoadRecord) -> None:
        self._stage("page_loads", (record,))

    def append_speedtest(self, record: SpeedtestRecord) -> None:
        self._stage("speedtests", (record,))

    def extend_page_loads(self, records) -> None:
        self._stage("page_loads", records)

    def extend_speedtests(self, records) -> None:
        self._stage("speedtests", records)

    def _extend_arrays(self, kind: str, arrays: dict[str, np.ndarray]) -> None:
        columns, _, _ = _CODECS[kind]
        missing = [name for name in columns if name not in arrays]
        if missing:
            raise DatasetError(f"{kind} array chunk missing columns {missing}")
        n = len(arrays[columns[0]])
        if n == 0:
            return
        # Preserve global append order: anything staged before this
        # chunk must be compacted first.
        self._compact(kind)
        for start in range(0, n, self.segment_records):
            piece = {
                name: arrays[name][start : start + self.segment_records]
                for name in columns
            }
            self._segments[kind].append(self._store(kind, piece))
        self._column_cache.clear()
        self._commit()

    def extend_page_load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt page-load columns (extra columns are ignored)."""
        self._extend_arrays("page_loads", arrays)

    def extend_speedtest_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt speedtest columns (extra columns are ignored)."""
        self._extend_arrays("speedtests", arrays)

    # -- reads ---------------------------------------------------------

    def _iter(self, kind: str) -> Iterator:
        columns, _, decode = _CODECS[kind]
        for entry in list(self._segments[kind]):
            yield from decode(self._load(kind, entry, columns))
        yield from list(self._staging[kind])

    def iter_page_loads(self) -> Iterator[PageLoadRecord]:
        return self._iter("page_loads")

    def iter_speedtests(self) -> Iterator[SpeedtestRecord]:
        return self._iter("speedtests")

    def _slice(self, kind: str, offset: int, limit: int) -> list:
        """Decode only the segments overlapping ``[offset, offset+limit)``
        — the entries' record counts make the seek free."""
        _check_slice(offset, limit)
        columns, _, decode = _CODECS[kind]
        start, stop = offset, offset + limit
        out: list = []
        pos = 0
        for entry in list(self._segments[kind]):
            if pos >= stop:
                break
            n = entry["n"]
            lo, hi = max(start - pos, 0), min(stop - pos, n)
            if lo < hi:
                arrays = self._load(kind, entry, columns)
                out.extend(decode({name: arrays[name][lo:hi] for name in columns}))
            pos += n
        staged = self._staging[kind]
        lo, hi = max(start - pos, 0), min(stop - pos, len(staged))
        if lo < hi:
            out.extend(staged[lo:hi])
        return out

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]:
        """Records ``[offset, offset + limit)``; a page read decodes only
        the overlapping segments, so it is O(limit + segment)."""
        return self._slice("page_loads", offset, limit)

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]:
        return self._slice("speedtests", offset, limit)

    def _stored_column(self, kind: str, name: str) -> np.ndarray:
        key = (kind, name)
        if key not in self._column_cache:
            chunks = [
                self._load(kind, entry, (name,)) for entry in self._segments[kind]
            ]
            if self._staging[kind] or not chunks:
                chunks.append(columnar.encode_columns(self._staging[kind], (name,)))
            self._column_cache[key] = columnar.concat_columns(chunks, (name,))[name]
        return self._column_cache[key]

    def page_load_column(self, name: str) -> np.ndarray:
        if name in columnar.PAGE_LOAD_DERIVED:
            return columnar.derived_page_load_column(
                name, lambda c: self._stored_column("page_loads", c)
            )
        if name not in columnar.PAGE_LOAD_COLUMNS:
            raise DatasetError(f"unknown page-load column {name!r}")
        return self._stored_column("page_loads", name)

    def speedtest_column(self, name: str) -> np.ndarray:
        if name not in columnar.SPEEDTEST_COLUMNS:
            raise DatasetError(f"unknown speedtest column {name!r}")
        return self._stored_column("speedtests", name)

    def _iter_column_chunks(self, kind: str, columns):
        load, derived, requested = _split_chunk_columns(kind, columns)
        # One segment's requested columns at a time: a fold holds one
        # chunk of its own columns, never the whole record schema.
        for entry in list(self._segments[kind]):
            yield _finish_chunk(self._load(kind, entry, load), requested, derived)
        if self._staging[kind]:
            staged = columnar.encode_columns(self._staging[kind], load)
            yield _finish_chunk(staged, requested, derived)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns one segment at a time."""
        return self._iter_column_chunks("page_loads", columns)

    def iter_speedtest_column_chunks(self, columns):
        """Stream speedtest columns one segment at a time."""
        return self._iter_column_chunks("speedtests", columns)

    def _count(self, kind: str) -> int:
        stored = sum(entry["n"] for entry in self._segments[kind])
        return stored + len(self._staging[kind])

    @property
    def n_page_loads(self) -> int:
        return self._count("page_loads")

    @property
    def n_speedtests(self) -> int:
        return self._count("speedtests")

    # -- mutation ------------------------------------------------------

    def delete_user(self, user_id: str) -> int:
        removed = 0
        for kind in _KINDS:
            columns, _, _ = _CODECS[kind]
            kept_entries = []
            for entry in self._segments[kind]:
                arrays = self._load(kind, entry, columns)
                keep = arrays["user_id"] != user_id
                dropped = int(keep.size - np.count_nonzero(keep))
                if not dropped:
                    kept_entries.append(entry)
                    continue
                removed += dropped
                self._discard(kind, entry)
                if np.count_nonzero(keep):
                    kept = {name: arrays[name][keep] for name in columns}
                    kept_entries.append(self._store(kind, kept))
            self._segments[kind] = kept_entries
            staged = [r for r in self._staging[kind] if r.user_id != user_id]
            removed += len(self._staging[kind]) - len(staged)
            self._staging[kind] = staged
        self._column_cache.clear()
        self._commit()
        return removed

    def flush(self) -> None:
        """Compact staged records (possibly a short final segment) and
        commit the segment lists."""
        for kind in _KINDS:
            self._compact(kind)
        self._commit()


class SpillBackend(ColumnStore):
    """The ``spill`` backend: segments on disk plus a JSON manifest.

    Layout (see DESIGN.md §9)::

        <directory>/manifest.json
        <directory>/pl-00000.seg     # page-load segment 0
        <directory>/st-00000.seg     # speedtest segment 0

    Each segment is a checksummed container of
    :mod:`repro.extension.columnar` (one member per schema column),
    written atomically; the manifest records every segment's file
    name, record count and the digest its container embeds, and is
    itself rewritten atomically after each change.  Reads load only
    the requested members of one segment at a time.
    """

    name = "spill"

    MANIFEST = "manifest.json"
    #: 2: segments are checksummed containers (1: bare npz archives).
    MANIFEST_VERSION = 2
    _PREFIX = {"page_loads": "pl", "speedtests": "st"}

    def __init__(
        self,
        directory: str | None = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        super().__init__(segment_records)
        self.directory = directory or tempfile.mkdtemp(prefix="repro-dataset-")
        os.makedirs(self.directory, exist_ok=True)
        self._next_segment: dict[str, int] = {kind: 0 for kind in _KINDS}

    @classmethod
    def open(cls, directory: str, verify: bool = False) -> "SpillBackend":
        """Reopen a previously flushed spill directory for reading and
        further appends.

        With ``verify=True`` every manifest-listed segment is read and
        checked against its recorded digest up front, so a truncated,
        bit-flipped, stale or swapped segment raises a
        :class:`DatasetError` naming the bad file at open rather than
        mid-stream, from whichever read happens to touch it first.
        """
        manifest_path = os.path.join(directory, cls.MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise DatasetError(
                f"unreadable spill manifest at {manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != cls.MANIFEST_VERSION:
            raise DatasetError(
                f"unsupported spill manifest version "
                f"{manifest.get('version')!r} at {manifest_path}"
            )
        backend = cls(
            directory=directory,
            segment_records=int(
                manifest.get("segment_records", DEFAULT_SEGMENT_RECORDS)
            ),
        )
        for kind in _KINDS:
            entries = manifest.get("kinds", {}).get(kind, [])
            backend._segments[kind] = list(entries)
            backend._next_segment[kind] = len(entries)
        if verify:
            for kind in _KINDS:
                columns, _, _ = _CODECS[kind]
                for entry in backend._segments[kind]:
                    backend._load(kind, entry, columns)
        return backend

    # -- segment files and the manifest ------------------------------------

    def _segment_path(self, entry: dict) -> str:
        return os.path.join(self.directory, entry["file"])

    def _commit(self) -> None:
        """Rewrite the manifest atomically."""
        manifest = {
            "version": self.MANIFEST_VERSION,
            "segment_records": self.segment_records,
            "kinds": {kind: self._segments[kind] for kind in _KINDS},
        }
        columnar.write_atomic(
            os.path.join(self.directory, self.MANIFEST),
            json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8"),
        )

    def _store(self, kind: str, arrays: dict[str, np.ndarray]) -> dict:
        index = self._next_segment[kind]
        self._next_segment[kind] += 1
        columns, _, _ = _CODECS[kind]
        n = int(len(arrays[columns[0]]))
        file_name = f"{self._PREFIX[kind]}-{index:05d}.seg"
        digest = columnar.write_checksummed_npz(
            os.path.join(self.directory, file_name), arrays, {"n": n}
        )
        return {"file": file_name, "n": n, "sha256": digest}

    def _load(self, kind: str, entry: dict, columns) -> dict[str, np.ndarray]:
        """One segment's ``columns``, checked against its manifest entry.

        The container refuses a torn, bit-flipped, stale or swapped
        file with a :class:`DatasetError` naming it; a segment whose
        columns disagree with the entry's record count is refused too.
        """
        path = self._segment_path(entry)
        arrays, _ = columnar.read_checksummed_npz(path, columns, entry["sha256"])
        if any(len(arrays[name]) != entry["n"] for name in columns):
            raise DatasetError(
                f"spill segment {entry['file']} length disagrees with "
                f"its manifest (expected {entry['n']} records)"
            )
        return arrays

    def _discard(self, kind: str, entry: dict) -> None:
        os.unlink(self._segment_path(entry))
