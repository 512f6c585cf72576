"""Pluggable dataset storage backends.

The campaign dataset can be held three ways, all bit-identical through
the :class:`~repro.extension.storage.Dataset` facade:

* ``memory`` — the classic two Python lists.  Zero overhead for small
  campaigns; every record stays resident.
* ``columnar`` — numpy column chunks with the typed schemas of
  :mod:`repro.extension.columnar`.  Records are staged in a small
  buffer and compacted into immutable array chunks; column reads are
  O(1) amortised (cached concatenation), record reads decode on demand.
* ``spill`` — bounded-memory columnar segments on disk (``.npz`` files
  plus a small JSON manifest).  Appends stage up to ``segment_records``
  records and then spill one segment; iteration streams one segment at
  a time, so peak memory is independent of dataset size.

Every backend implements the same :class:`DatasetBackend` protocol:
append/extend for ingest (including array-level ``extend_*_arrays``
used by the vectorised shard merge), streaming iteration, column
access, per-user deletion and counts.  The backend choice is an
execution detail — it never changes the dataset's bits — so it is
excluded from the campaign checkpoint fingerprint, and
``serial ≡ sharded ≡ resumed`` holds for any backend.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.extension import columnar
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.knobs import KNOBS, resolve

#: Default records per columnar chunk / on-disk spill segment.
DEFAULT_SEGMENT_RECORDS = KNOBS["storage_segment_records"].default

_KINDS = ("page_loads", "speedtests")

_CODECS = {
    "page_loads": (
        columnar.PAGE_LOAD_COLUMNS,
        columnar.encode_page_loads,
        columnar.decode_page_loads,
        columnar.empty_page_load_arrays,
    ),
    "speedtests": (
        columnar.SPEEDTEST_COLUMNS,
        columnar.encode_speedtests,
        columnar.decode_speedtests,
        columnar.empty_speedtest_arrays,
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
    all_columns, _, _, _ = _CODECS[kind]
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
    if name == "memory":
        return InMemoryBackend(segment_records=segment_records)
    if name == "columnar":
        return ColumnarBackend(segment_records=segment_records)
    return SpillBackend(directory=directory, segment_records=segment_records)


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

    #: Registry name (``memory``/``columnar``/``spill``).
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


class InMemoryBackend:
    """The classic backend: two Python lists, records stay resident.

    Column-chunk reads encode ``segment_records`` records at a time,
    like a columnar chunk or spill segment, and keep nothing.
    """

    name = "memory"

    def __init__(self, segment_records: int = DEFAULT_SEGMENT_RECORDS) -> None:
        if segment_records < 1:
            raise ConfigurationError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.segment_records = segment_records
        self.page_loads: list[PageLoadRecord] = []
        self.speedtests: list[SpeedtestRecord] = []
        self._column_cache: dict[tuple[str, str], np.ndarray] = {}

    # -- ingest --------------------------------------------------------

    def append_page_load(self, record: PageLoadRecord) -> None:
        self.page_loads.append(record)
        self._column_cache.clear()

    def append_speedtest(self, record: SpeedtestRecord) -> None:
        self.speedtests.append(record)
        self._column_cache.clear()

    def extend_page_loads(self, records) -> None:
        self.page_loads.extend(records)
        self._column_cache.clear()

    def extend_speedtests(self, records) -> None:
        self.speedtests.extend(records)
        self._column_cache.clear()

    def extend_page_load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.extend_page_loads(columnar.decode_page_loads(arrays))

    def extend_speedtest_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.extend_speedtests(columnar.decode_speedtests(arrays))

    # -- reads ---------------------------------------------------------

    def iter_page_loads(self) -> Iterator[PageLoadRecord]:
        return iter(self.page_loads)

    def iter_speedtests(self) -> Iterator[SpeedtestRecord]:
        return iter(self.speedtests)

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]:
        """Records ``[offset, offset + limit)`` in append order (the
        result-pagination primitive; O(limit) here)."""
        _check_slice(offset, limit)
        return self.page_loads[offset : offset + limit]

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]:
        _check_slice(offset, limit)
        return self.speedtests[offset : offset + limit]

    def _stored_column(self, kind: str, name: str) -> np.ndarray:
        key = (kind, name)
        if key not in self._column_cache:
            records = self.page_loads if kind == "page_loads" else self.speedtests
            _, encode, _, empty = _CODECS[kind]
            arrays = encode(records) if records else empty()
            for column, values in arrays.items():
                self._column_cache[(kind, column)] = values
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
        records = self.page_loads if kind == "page_loads" else self.speedtests
        # Encode only the loaded columns of one segment's records at a
        # time and cache nothing: a fold holds one chunk of its own
        # columns, never the whole record schema.
        for start in range(0, len(records), self.segment_records):
            arrays = columnar.encode_columns(
                records[start : start + self.segment_records], load
            )
            yield _finish_chunk(arrays, requested, derived)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns, ``segment_records`` records a chunk."""
        return self._iter_column_chunks("page_loads", columns)

    def iter_speedtest_column_chunks(self, columns):
        """Stream speedtest columns, ``segment_records`` records a chunk."""
        return self._iter_column_chunks("speedtests", columns)

    @property
    def n_page_loads(self) -> int:
        return len(self.page_loads)

    @property
    def n_speedtests(self) -> int:
        return len(self.speedtests)

    # -- mutation ------------------------------------------------------

    def delete_user(self, user_id: str) -> int:
        before = len(self.page_loads) + len(self.speedtests)
        self.page_loads = [r for r in self.page_loads if r.user_id != user_id]
        self.speedtests = [r for r in self.speedtests if r.user_id != user_id]
        self._column_cache.clear()
        return before - len(self.page_loads) - len(self.speedtests)

    def flush(self) -> None:
        """Nothing staged; present for protocol symmetry."""


class ColumnarBackend:
    """Typed numpy column chunks with a small staging buffer.

    Appends stage record objects; once ``segment_records`` accumulate
    they are encoded into one immutable column chunk and the staging
    buffer is dropped.  Array-level extends adopt the caller's chunk
    wholesale (no per-record object work) — the fast path the shard
    merge uses.
    """

    name = "columnar"

    def __init__(self, segment_records: int = DEFAULT_SEGMENT_RECORDS) -> None:
        if segment_records < 1:
            raise ConfigurationError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.segment_records = segment_records
        self._chunks: dict[str, list[dict[str, np.ndarray]]] = {
            kind: [] for kind in _KINDS
        }
        self._staging: dict[str, list] = {kind: [] for kind in _KINDS}
        self._column_cache: dict[tuple[str, str], np.ndarray] = {}

    # -- ingest --------------------------------------------------------

    def _append(self, kind: str, record) -> None:
        self._staging[kind].append(record)
        self._column_cache.clear()
        if len(self._staging[kind]) >= self.segment_records:
            self._compact(kind)

    def _compact(self, kind: str) -> None:
        staged = self._staging[kind]
        if not staged:
            return
        _, encode, _, _ = _CODECS[kind]
        self._chunks[kind].append(encode(staged))
        self._staging[kind] = []

    def append_page_load(self, record: PageLoadRecord) -> None:
        self._append("page_loads", record)

    def append_speedtest(self, record: SpeedtestRecord) -> None:
        self._append("speedtests", record)

    def extend_page_loads(self, records) -> None:
        for record in records:
            self._append("page_loads", record)

    def extend_speedtests(self, records) -> None:
        for record in records:
            self._append("speedtests", record)

    def _extend_arrays(self, kind: str, arrays: dict[str, np.ndarray]) -> None:
        columns, _, _, _ = _CODECS[kind]
        missing = [name for name in columns if name not in arrays]
        if missing:
            raise DatasetError(f"{kind} array chunk missing columns {missing}")
        n = len(arrays[columns[0]])
        if n == 0:
            return
        # Preserve global append order: anything staged before this
        # chunk must be compacted first.
        self._compact(kind)
        self._chunks[kind].append({name: arrays[name] for name in columns})
        self._column_cache.clear()

    def extend_page_load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._extend_arrays("page_loads", arrays)

    def extend_speedtest_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._extend_arrays("speedtests", arrays)

    # -- reads ---------------------------------------------------------

    def _iter(self, kind: str) -> Iterator:
        _, _, decode, _ = _CODECS[kind]
        for chunk in self._chunks[kind]:
            yield from decode(chunk)
        yield from self._staging[kind]

    def iter_page_loads(self) -> Iterator[PageLoadRecord]:
        return self._iter("page_loads")

    def iter_speedtests(self) -> Iterator[SpeedtestRecord]:
        return self._iter("speedtests")

    def _slice(self, kind: str, offset: int, limit: int) -> list:
        """Decode only the chunks overlapping ``[offset, offset+limit)``."""
        _check_slice(offset, limit)
        columns, _, decode, _ = _CODECS[kind]
        start, stop = offset, offset + limit
        out: list = []
        pos = 0
        for chunk in self._chunks[kind]:
            if pos >= stop:
                break
            n = len(chunk[columns[0]])
            lo, hi = max(start - pos, 0), min(stop - pos, n)
            if lo < hi:
                out.extend(
                    decode({name: chunk[name][lo:hi] for name in columns})
                )
            pos += n
        staged = self._staging[kind]
        lo, hi = max(start - pos, 0), min(stop - pos, len(staged))
        if lo < hi:
            out.extend(staged[lo:hi])
        return out

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]:
        """Records ``[offset, offset + limit)``; only overlapping
        chunks are decoded, so a page read is O(limit + chunk)."""
        return self._slice("page_loads", offset, limit)

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]:
        return self._slice("speedtests", offset, limit)

    def _stored_column(self, kind: str, name: str) -> np.ndarray:
        key = (kind, name)
        if key not in self._column_cache:
            columns, encode, _, empty = _CODECS[kind]
            chunks = list(self._chunks[kind])
            if self._staging[kind]:
                chunks.append(encode(self._staging[kind]))
            if not chunks:
                chunks = [empty()]
            merged = columnar.concat_columns(chunks, columns)
            for column in columns:
                self._column_cache[(kind, column)] = merged[column]
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
        for chunk in self._chunks[kind]:
            arrays = {name: chunk[name] for name in load}
            yield _finish_chunk(arrays, requested, derived)
        if self._staging[kind]:
            staged = columnar.encode_columns(self._staging[kind], load)
            yield _finish_chunk(staged, requested, derived)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns one stored chunk at a time."""
        return self._iter_column_chunks("page_loads", columns)

    def iter_speedtest_column_chunks(self, columns):
        """Stream speedtest columns one stored chunk at a time."""
        return self._iter_column_chunks("speedtests", columns)

    def _count(self, kind: str) -> int:
        columns, _, _, _ = _CODECS[kind]
        stored = sum(len(chunk[columns[0]]) for chunk in self._chunks[kind])
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
            columns, _, _, _ = _CODECS[kind]
            kept_chunks = []
            for chunk in self._chunks[kind]:
                keep = chunk["user_id"] != user_id
                dropped = int(keep.size - np.count_nonzero(keep))
                if dropped:
                    removed += dropped
                    if np.count_nonzero(keep):
                        kept_chunks.append(
                            {name: chunk[name][keep] for name in columns}
                        )
                else:
                    kept_chunks.append(chunk)
            self._chunks[kind] = kept_chunks
            staged = [r for r in self._staging[kind] if r.user_id != user_id]
            removed += len(self._staging[kind]) - len(staged)
            self._staging[kind] = staged
        self._column_cache.clear()
        return removed

    def flush(self) -> None:
        """Compact any staged records into chunks."""
        for kind in _KINDS:
            self._compact(kind)


class SpillBackend:
    """Bounded-memory columnar segments on disk plus a JSON manifest.

    Layout (see DESIGN.md §9)::

        <directory>/manifest.json
        <directory>/pl-00000.npz     # page-load segment 0
        <directory>/st-00000.npz     # speedtest segment 0

    Segments are plain ``np.savez`` archives (one member per schema
    column), written atomically; the manifest records every segment's
    file name, record count and sha256, and is itself rewritten
    atomically after each spill.  Only up to ``segment_records``
    staged records are ever resident; iteration streams one segment at
    a time and column reads load only the requested member from each
    archive.
    """

    name = "spill"

    MANIFEST = "manifest.json"
    MANIFEST_VERSION = 1
    _PREFIX = {"page_loads": "pl", "speedtests": "st"}

    def __init__(
        self,
        directory: str | None = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        if segment_records < 1:
            raise ConfigurationError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.directory = directory or tempfile.mkdtemp(prefix="repro-dataset-")
        os.makedirs(self.directory, exist_ok=True)
        self.segment_records = segment_records
        #: Per kind: list of ``{"file", "n", "sha256"}`` manifest entries.
        self._segments: dict[str, list[dict]] = {kind: [] for kind in _KINDS}
        self._staging: dict[str, list] = {kind: [] for kind in _KINDS}
        self._next_segment: dict[str, int] = {kind: 0 for kind in _KINDS}
        self._column_cache: dict[tuple[str, str], np.ndarray] = {}

    #: Subdirectory bad segments are moved into by :meth:`quarantine`.
    QUARANTINE_DIR = "quarantine"

    @classmethod
    def open(cls, directory: str, verify: bool = False) -> "SpillBackend":
        """Reopen a previously flushed spill directory for reading and
        further appends.

        With ``verify=True`` every manifest-listed segment is read and
        checked against its recorded sha256 up front; a truncated or
        bit-flipped segment raises a precise :class:`DatasetError`
        naming the bad file (rather than surfacing later, mid-stream,
        from whichever read happens to touch it first).  Callers that
        want to *recover* instead of fail — the fabric's re-dispatch
        path — catch the error and hand the named segment to
        :meth:`quarantine`.
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
                for entry in backend._segments[kind]:
                    backend._load_segment(kind, entry)
        return backend

    # -- persistence helpers -------------------------------------------

    def _segment_path(self, entry: dict) -> str:
        return os.path.join(self.directory, entry["file"])

    def _write_atomic(self, path: str, data: bytes) -> None:
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            # fsync before the rename: os.replace is atomic in the
            # namespace only, so without it a crash can promote an
            # empty temp file to the segment's final name.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)

    def _write_manifest(self) -> None:
        manifest = {
            "version": self.MANIFEST_VERSION,
            "segment_records": self.segment_records,
            "kinds": {kind: self._segments[kind] for kind in _KINDS},
        }
        self._write_atomic(
            os.path.join(self.directory, self.MANIFEST),
            json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8"),
        )

    def _save_segment(self, kind: str, arrays: dict[str, np.ndarray]) -> dict:
        index = self._next_segment[kind]
        self._next_segment[kind] += 1
        file_name = f"{self._PREFIX[kind]}-{index:05d}.npz"
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        data = buffer.getvalue()
        self._write_atomic(os.path.join(self.directory, file_name), data)
        columns, _, _, _ = _CODECS[kind]
        return {
            "file": file_name,
            "n": int(len(arrays[columns[0]])),
            "sha256": hashlib.sha256(data).hexdigest(),
        }

    def _load_segment(
        self, kind: str, entry: dict, columns=None
    ) -> dict[str, np.ndarray]:
        """One segment's (requested) columns, checksum-verified.

        The whole file is read and hashed against the manifest's
        sha256 *before* npz decoding, so truncation and bit flips both
        fail with a precise error naming the bad segment — never a
        cryptic zipfile traceback from deep inside numpy.
        """
        path = self._segment_path(entry)
        all_columns, _, _, _ = _CODECS[kind]
        wanted = tuple(columns) if columns is not None else all_columns
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise DatasetError(
                f"unreadable spill segment {entry['file']} (manifest "
                f"says {entry['n']} records): {exc}"
            ) from exc
        expected = entry.get("sha256")
        if expected:
            digest = hashlib.sha256(data).hexdigest()
            if digest != expected:
                raise DatasetError(
                    f"spill segment {entry['file']} failed its checksum "
                    f"(manifest sha256 {expected[:12]}…, file on disk "
                    f"{digest[:12]}…, {len(data)} bytes) — torn write "
                    f"or bit flip"
                )
        try:
            with np.load(io.BytesIO(data)) as npz:
                arrays = {name: npz[name] for name in wanted}
        except (OSError, ValueError, KeyError) as exc:
            raise DatasetError(
                f"torn spill segment {entry['file']} (manifest says "
                f"{entry['n']} records): {exc}"
            ) from exc
        if any(len(arrays[name]) != entry["n"] for name in wanted):
            raise DatasetError(
                f"spill segment {entry['file']} length disagrees with "
                f"its manifest (expected {entry['n']} records)"
            )
        return arrays

    def quarantine(self, kind: str, file_name: str, reason: str) -> dict:
        """Move a bad segment aside and drop it from the manifest.

        The recovery half of the torn-write story: after a
        :class:`DatasetError` names a segment, callers (the fabric's
        re-dispatch path, or an operator) quarantine it — the file
        moves into ``<directory>/quarantine/`` for post-mortem, the
        manifest is rewritten without it, and the returned report says
        exactly what was lost (``kind``, ``file``, ``n_records_lost``,
        ``reason``, the quarantine ``path``) so the caller knows what
        to recompute.  Unknown file names report without mutating.
        """
        if kind not in _KINDS:
            raise DatasetError(f"unknown record kind {kind!r}")
        entries = self._segments[kind]
        match = next((e for e in entries if e["file"] == file_name), None)
        report = {
            "kind": kind,
            "file": file_name,
            "reason": reason,
            "quarantined": False,
            "n_records_lost": 0,
            "path": None,
        }
        if match is None:
            return report
        quarantine_dir = os.path.join(self.directory, self.QUARANTINE_DIR)
        os.makedirs(quarantine_dir, exist_ok=True)
        target = os.path.join(quarantine_dir, file_name)
        try:
            os.replace(self._segment_path(match), target)
        except FileNotFoundError:
            report["reason"] = f"{reason} (segment file already missing)"
        else:
            report["quarantined"] = True
            report["path"] = target
        self._segments[kind] = [e for e in entries if e is not match]
        self._write_manifest()
        self._column_cache.clear()
        report["n_records_lost"] = int(match["n"])
        return report

    # -- ingest --------------------------------------------------------

    def _append(self, kind: str, record) -> None:
        self._staging[kind].append(record)
        self._column_cache.clear()
        if len(self._staging[kind]) >= self.segment_records:
            self._spill(kind)

    def _spill(self, kind: str) -> None:
        staged = self._staging[kind]
        if not staged:
            return
        _, encode, _, _ = _CODECS[kind]
        self._segments[kind].append(self._save_segment(kind, encode(staged)))
        self._staging[kind] = []
        self._write_manifest()

    def append_page_load(self, record: PageLoadRecord) -> None:
        self._append("page_loads", record)

    def append_speedtest(self, record: SpeedtestRecord) -> None:
        self._append("speedtests", record)

    def extend_page_loads(self, records) -> None:
        for record in records:
            self._append("page_loads", record)

    def extend_speedtests(self, records) -> None:
        for record in records:
            self._append("speedtests", record)

    def _extend_arrays(self, kind: str, arrays: dict[str, np.ndarray]) -> None:
        columns, _, _, _ = _CODECS[kind]
        missing = [name for name in columns if name not in arrays]
        if missing:
            raise DatasetError(f"{kind} array chunk missing columns {missing}")
        n = len(arrays[columns[0]])
        if n == 0:
            return
        self._spill(kind)  # keep global append order
        # Bounded memory even for bulk adoption: slice the incoming
        # chunk into segment-sized pieces.
        for start in range(0, n, self.segment_records):
            piece = {
                name: arrays[name][start : start + self.segment_records]
                for name in columns
            }
            self._segments[kind].append(self._save_segment(kind, piece))
        self._write_manifest()
        self._column_cache.clear()

    def extend_page_load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._extend_arrays("page_loads", arrays)

    def extend_speedtest_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._extend_arrays("speedtests", arrays)

    # -- reads ---------------------------------------------------------

    def _iter(self, kind: str) -> Iterator:
        _, _, decode, _ = _CODECS[kind]
        for entry in list(self._segments[kind]):
            yield from decode(self._load_segment(kind, entry))
        yield from list(self._staging[kind])

    def iter_page_loads(self) -> Iterator[PageLoadRecord]:
        return self._iter("page_loads")

    def iter_speedtests(self) -> Iterator[SpeedtestRecord]:
        return self._iter("speedtests")

    def _slice(self, kind: str, offset: int, limit: int) -> list:
        """Load (and decode) only the on-disk segments overlapping
        ``[offset, offset + limit)`` — the manifest's per-segment
        record counts make the seek free."""
        _check_slice(offset, limit)
        columns, _, decode, _ = _CODECS[kind]
        start, stop = offset, offset + limit
        out: list = []
        pos = 0
        for entry in list(self._segments[kind]):
            if pos >= stop:
                break
            n = entry["n"]
            lo, hi = max(start - pos, 0), min(stop - pos, n)
            if lo < hi:
                arrays = self._load_segment(kind, entry)
                out.extend(
                    decode({name: arrays[name][lo:hi] for name in columns})
                )
            pos += n
        staged = self._staging[kind]
        lo, hi = max(start - pos, 0), min(stop - pos, len(staged))
        if lo < hi:
            out.extend(staged[lo:hi])
        return out

    def page_load_slice(self, offset: int, limit: int) -> list[PageLoadRecord]:
        """Records ``[offset, offset + limit)``; a page read touches
        only the overlapping segments, never the whole dataset."""
        return self._slice("page_loads", offset, limit)

    def speedtest_slice(self, offset: int, limit: int) -> list[SpeedtestRecord]:
        return self._slice("speedtests", offset, limit)

    def _stored_column(self, kind: str, name: str) -> np.ndarray:
        key = (kind, name)
        if key not in self._column_cache:
            columns, encode, _, empty = _CODECS[kind]
            chunks = [
                self._load_segment(kind, entry, columns=(name,))
                for entry in self._segments[kind]
            ]
            if self._staging[kind]:
                chunks.append(encode(self._staging[kind]))
            if not chunks:
                chunks = [empty()]
            self._column_cache[key] = columnar.concat_columns(chunks, (name,))[
                name
            ]
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
        # One segment resident at a time, and only the needed members
        # of each .npz — the O(segment) primitive streaming analytics
        # folds over.
        for entry in list(self._segments[kind]):
            arrays = self._load_segment(kind, entry, columns=load)
            yield _finish_chunk(arrays, requested, derived)
        if self._staging[kind]:
            staged = columnar.encode_columns(self._staging[kind], load)
            yield _finish_chunk(staged, requested, derived)

    def iter_page_load_column_chunks(self, columns):
        """Stream page-load columns one on-disk segment at a time."""
        return self._iter_column_chunks("page_loads", columns)

    def iter_speedtest_column_chunks(self, columns):
        """Stream speedtest columns one on-disk segment at a time."""
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
            columns, _, _, _ = _CODECS[kind]
            kept_entries = []
            for entry in self._segments[kind]:
                arrays = self._load_segment(kind, entry)
                keep = arrays["user_id"] != user_id
                dropped = int(keep.size - np.count_nonzero(keep))
                if not dropped:
                    kept_entries.append(entry)
                    continue
                removed += dropped
                os.unlink(self._segment_path(entry))
                if np.count_nonzero(keep):
                    kept_entries.append(
                        self._save_segment(
                            kind, {name: arrays[name][keep] for name in columns}
                        )
                    )
            self._segments[kind] = kept_entries
            staged = [r for r in self._staging[kind] if r.user_id != user_id]
            removed += len(self._staging[kind]) - len(staged)
            self._staging[kind] = staged
        self._write_manifest()
        self._column_cache.clear()
        return removed

    def flush(self) -> None:
        """Spill staged records (possibly a short final segment) and
        write the manifest, making the directory self-describing."""
        for kind in _KINDS:
            self._spill(kind)
        self._write_manifest()
