"""Columnar codec for measurement records (arrays ⇄ record objects).

The dataset's record types (:class:`~repro.extension.records.PageLoadRecord`
and :class:`~repro.extension.records.SpeedtestRecord`) are flat bundles of
floats, ints, bools and short strings — exactly the shape large measurement
datasets (WetLinks, the IPv6 Starlink corpus) publish as on-disk columnar
tables.  This module is the single source of truth for that columnar view:

* **Typed schemas** — one ``(name, kind)`` tuple per record field, with
  the 8 navigation-timing components flattened to ``timing_*`` columns.
* **Exact encode/decode** — floats are stored as float64 (a Python float
  round-trips bit-for-bit), ints as int64, bools as bool, strings as numpy
  unicode arrays sized to the batch.  ``decode(encode(records)) ==
  records`` holds exactly for records whose fields have their schema
  kind: a ``str`` without NUL characters (numpy drops trailing NULs), a
  ``bool``, an ``int`` within int64, a ``float``.  Anything else is
  coerced, not rejected (``None`` becomes ``'None'``, ``1.5`` in an int
  column ``1``, ``'no'`` in a bool column ``True``), so records from
  outside the campaign are checked against the schema first
  (:meth:`~repro.extension.storage.Dataset.from_jsonl`).  This is what
  lets both storage backends and the checkpoint spill keep the repo's
  bit-identity contract.
* **Derived columns** — ``ptt_ms``/``plt_ms`` computed vectorised in the
  same operation order as the scalar properties, so column reads match
  per-record arithmetic bit-for-bit.
* **A checksummed container** — the one file format for a block of
  record columns (magic + sha256 + npz payload): a checkpoint or fabric
  shard segment and a spill segment are both containers, so truncated
  or bit-flipped files are detected instead of half-loaded.  A reader
  may load a few members only, and may check the embedded digest
  against one it recorded (the spill manifest binds each entry to one
  version of its file this way).
* **One atomic write** — :func:`write_atomic` (temp file, fsync,
  ``os.replace``) for every file the backends and the checkpoint store
  write; a failed write leaves the old file and no temp behind.

Backends (:mod:`repro.extension.backends`) and the shard checkpoint store
(:mod:`repro.runtime.checkpoint`) both build on these primitives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import os

import numpy as np

from repro.errors import DatasetError
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.units import MS_PER_S
from repro.web.timing import NavigationTiming

#: Navigation-timing components, flattened to ``timing_<name>`` columns.
TIMING_FIELDS = (
    "redirect_s",
    "dns_s",
    "connect_s",
    "tls_s",
    "request_s",
    "response_s",
    "dom_s",
    "render_s",
)

#: Page-load schema: ``(column, kind)`` with kind in str/bool/int/float.
PAGE_LOAD_SCHEMA = (
    ("user_id", "str"),
    ("city", "str"),
    ("region", "str"),
    ("isp", "str"),
    ("is_starlink", "bool"),
    ("exit_asn", "int"),
    ("t_s", "float"),
    ("domain", "str"),
    ("rank", "int"),
    ("is_popular", "bool"),
) + tuple((f"timing_{name}", "float") for name in TIMING_FIELDS)

#: Speedtest schema.
SPEEDTEST_SCHEMA = (
    ("user_id", "str"),
    ("city", "str"),
    ("isp", "str"),
    ("is_starlink", "bool"),
    ("t_s", "float"),
    ("download_mbps", "float"),
    ("upload_mbps", "float"),
    ("ping_ms", "float"),
)

PAGE_LOAD_COLUMNS = tuple(name for name, _ in PAGE_LOAD_SCHEMA)
SPEEDTEST_COLUMNS = tuple(name for name, _ in SPEEDTEST_SCHEMA)

#: Columns derivable from stored ones (vectorised, bit-identical to the
#: scalar record properties).
PAGE_LOAD_DERIVED = ("ptt_ms", "plt_ms")

_EMPTY_DTYPES = {
    "str": "<U1",
    "bool": np.bool_,
    "int": np.int64,
    "float": np.float64,
}


def _column(kind: str, values: list) -> np.ndarray:
    if not values:
        return np.empty(0, dtype=_EMPTY_DTYPES[kind])
    if kind == "str":
        return np.array(values, dtype=np.str_)
    return np.array(values, dtype=_EMPTY_DTYPES[kind])


#: Each stored column's kind; the columns both schemas share agree.
_COLUMN_KINDS = dict(SPEEDTEST_SCHEMA) | dict(PAGE_LOAD_SCHEMA)

#: The record attribute a stored column reads, where the names differ.
_COLUMN_ATTRIBUTES = {f"timing_{name}": f"timing.{name}" for name in TIMING_FIELDS}


def encode_columns(records: list, columns) -> dict[str, np.ndarray]:
    """Encode ``columns`` of a list of page-load or speedtest records.

    Each array depends only on its own column's values (strings are
    sized to the longest), so a subset of columns equals the same
    columns of a full encode and the other columns are never built.
    """
    getters = {
        name: operator.attrgetter(_COLUMN_ATTRIBUTES.get(name, name))
        for name in columns
    }
    return {
        name: _column(_COLUMN_KINDS[name], list(map(getter, records)))
        for name, getter in getters.items()
    }


def encode_page_loads(records) -> dict[str, np.ndarray]:
    """Encode page-load records into per-field columns."""
    return encode_columns(list(records), PAGE_LOAD_COLUMNS)


def decode_page_loads(arrays: dict[str, np.ndarray]) -> list[PageLoadRecord]:
    """Decode page-load columns back into record objects (exact)."""
    columns = {name: arrays[name].tolist() for name in PAGE_LOAD_COLUMNS}
    timing_columns = [columns[f"timing_{name}"] for name in TIMING_FIELDS]
    return [
        PageLoadRecord(
            user_id=columns["user_id"][i],
            city=columns["city"][i],
            region=columns["region"][i],
            isp=columns["isp"][i],
            is_starlink=columns["is_starlink"][i],
            exit_asn=columns["exit_asn"][i],
            t_s=columns["t_s"][i],
            domain=columns["domain"][i],
            rank=columns["rank"][i],
            is_popular=columns["is_popular"][i],
            timing=NavigationTiming(
                *(timing_columns[j][i] for j in range(len(TIMING_FIELDS)))
            ),
        )
        for i in range(len(columns["user_id"]))
    ]


def encode_speedtests(records) -> dict[str, np.ndarray]:
    """Encode speedtest records into per-field columns."""
    return encode_columns(list(records), SPEEDTEST_COLUMNS)


def decode_speedtests(arrays: dict[str, np.ndarray]) -> list[SpeedtestRecord]:
    """Decode speedtest columns back into record objects (exact)."""
    columns = [arrays[name].tolist() for name in SPEEDTEST_COLUMNS]
    return [
        SpeedtestRecord(*(column[i] for column in columns))
        for i in range(len(columns[0]))
    ]


def concat_columns(
    chunks: list[dict[str, np.ndarray]], columns
) -> dict[str, np.ndarray]:
    """Concatenate column chunks (numpy promotes string widths)."""
    if not chunks:
        return {}
    if len(chunks) == 1:
        return dict(chunks[0])
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in columns
    }


def derived_page_load_column(name: str, get) -> np.ndarray:
    """Compute a derived page-load column from stored ones.

    ``get(column)`` must return the stored column array.  The arithmetic
    mirrors :class:`~repro.web.timing.NavigationTiming` property order
    exactly (left-to-right float64 additions, then the ms conversion),
    so a derived column is bitwise equal to the per-record properties.
    """
    if name == "ptt_ms":
        total = get("timing_redirect_s")
        for field in ("dns_s", "connect_s", "tls_s", "request_s", "response_s"):
            total = total + get(f"timing_{field}")
        return total * MS_PER_S
    if name == "plt_ms":
        total = get("timing_redirect_s")
        for field in ("dns_s", "connect_s", "tls_s", "request_s", "response_s"):
            total = total + get(f"timing_{field}")
        total = total + get("timing_dom_s") + get("timing_render_s")
        return total * MS_PER_S
    raise DatasetError(f"unknown derived page-load column {name!r}")


# -- checksummed npz container ------------------------------------------

#: Frame magic of the checksummed container (versioned).
CONTAINER_MAGIC = b"RPRSEG1\n"
_HEADER_BYTES = len(CONTAINER_MAGIC) + hashlib.sha256().digest_size
_META_KEY = "__meta_json__"


def _npz_bytes(arrays: dict[str, np.ndarray], meta: dict) -> bytes:
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


def write_atomic(path: str, *parts: bytes) -> None:
    """Replace ``path`` with the concatenated ``parts``, or leave it be.

    Writes ``<path>.tmp.<pid>``, fsyncs it and moves it over ``path``
    with ``os.replace``.  If the write, the fsync or the replace
    raises, the temp file is removed and the error propagates, so
    ``path`` holds its old bytes or the new ones and nothing else is
    left behind.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            for part in parts:
                handle.write(part)
            # Flush to stable storage *before* the rename: os.replace
            # is atomic in the namespace but says nothing about data
            # blocks — a power-loss-style kill between write and
            # rename can otherwise expose an empty file under the
            # final name.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def write_checksummed_npz(
    path: str, arrays: dict[str, np.ndarray], meta: dict
) -> str:
    """Atomically write ``magic + sha256(payload) + npz(arrays, meta)``.

    The embedded digest makes loads self-validating: truncation and bit
    flips anywhere in the payload are detected before any array is
    trusted.  Returns the digest (hex), for a caller that records which
    version of the file it wrote.
    """
    payload = _npz_bytes(arrays, meta)
    digest = hashlib.sha256(payload).digest()
    write_atomic(path, CONTAINER_MAGIC, digest, payload)
    return digest.hex()


def read_checksummed_npz(
    path: str, columns=None, digest: str | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """Load a checksummed container's arrays and metadata.

    ``columns`` names the members to load (default: every one); the
    whole payload is checked either way, so a bit flip in a member not
    asked for still fails the read.  ``digest`` is the hex digest
    :func:`write_checksummed_npz` returned: a container that is valid
    on its own but embeds another digest (a stale or swapped file) is
    refused.

    Raises:
        DatasetError: naming ``path`` on a missing or short file, wrong
            magic, a digest mismatch, an unparsable payload or a
            missing member.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise DatasetError(f"unreadable columnar segment {path}: {exc}") from exc
    if len(blob) < _HEADER_BYTES or not blob.startswith(CONTAINER_MAGIC):
        raise DatasetError(
            f"not a columnar segment: {path} ({len(blob)} bytes) — torn "
            f"write or bit flip"
        )
    embedded = blob[len(CONTAINER_MAGIC) : _HEADER_BYTES]
    if digest is not None and embedded.hex() != digest:
        raise DatasetError(
            f"columnar segment {path} is not the file that was recorded "
            f"(sha256 {embedded.hex()[:12]}…, recorded {digest[:12]}…) — "
            f"stale or swapped segment"
        )
    # Hash and parse the payload in place: the memoryview and the
    # BytesIO share ``blob``'s buffer, and zipfile skips the header.
    if hashlib.sha256(memoryview(blob)[_HEADER_BYTES:]).digest() != embedded:
        raise DatasetError(
            f"columnar segment {path} failed its checksum ({len(blob)} "
            f"bytes) — torn write or bit flip"
        )
    stream = io.BytesIO(blob)
    stream.seek(_HEADER_BYTES)
    try:
        with np.load(stream) as npz:
            if _META_KEY not in npz.files:
                raise DatasetError(f"columnar segment missing metadata: {path}")
            if columns is None:
                columns = [name for name in npz.files if name != _META_KEY]
            arrays = {name: npz[name] for name in columns}
            meta_blob = npz[_META_KEY]
    except (OSError, ValueError, KeyError) as exc:
        raise DatasetError(f"torn columnar segment {path}: {exc}") from exc
    try:
        meta = json.loads(meta_blob.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise DatasetError(f"unreadable segment metadata: {path}") from exc
    return arrays, meta
