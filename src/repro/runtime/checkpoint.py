"""Shard-level campaign checkpointing: spill, fingerprint, resume.

A killed campaign (power loss, OOM, ctrl-C, a supervisor giving up on
a poisoned shard) should not forfeit the shards that already finished.
The supervisor spills every accepted :class:`ShardResult` into a
checkpoint directory as soon as it completes; a later run with
``resume`` enabled reloads the surviving shards and re-runs only the
missing ones.  The determinism contract (DESIGN.md §6) is what makes
this sound: a re-run shard is bit-identical to the one that was lost,
so resumed and fresh campaigns produce the same dataset.

**Spill format.** Shards spill as *columnar segments*, not pickled
object lists: each shard's records are flattened in canonical order
(ascending user index, per-user event order) into the typed column
arrays of :mod:`repro.extension.columnar` plus an ``int64``
``user_index`` column, and written through the checksummed container
(magic + sha256 + npz).  That makes loads self-validating — truncated
or bit-flipped files are detected, not half-trusted — and lets the
merge adopt a recovered shard's arrays wholesale without materialising
record objects (see :mod:`repro.runtime.merge`).

**Fingerprinting.** Checkpoints are only valid for the campaign that
wrote them.  :func:`campaign_fingerprint` hashes every
``CampaignConfig`` field that can influence the *data* (seed,
duration, population, scaling...), deliberately excluding
execution-only knobs (worker count, timeouts, retries, checkpoint
settings, start method, storage backend) — those change how fast or
where the dataset is produced, never its bits.  Each store lives under
a directory named by the fingerprint, and every shard file embeds it
again, so a config change silently invalidates old checkpoints instead
of corrupting the merge.  Per-shard files additionally record the
exact user-index set; a stored shard is adopted only when it matches
the freshly planned partition (so resuming with a different
``n_workers`` falls back to recomputing rather than mixing
partitions).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro.errors import CheckpointError, DatasetError
from repro.extension import columnar
from repro.knobs import EXECUTION_ONLY_FIELDS, resolve
from repro.runtime.shard import ShardResult, ShardStats

_META_FILENAME = "meta.json"

#: Array-key prefixes separating the two record kinds inside one
#: spilled shard file.
_PL_PREFIX = "pl_"
_ST_PREFIX = "st_"

#: Extra per-record column carried alongside the schema columns.
USER_INDEX_COLUMN = "user_index"


def encode_user_records(
    user_records: dict[int, tuple[list, list]],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Flatten a shard's ``{user_index: (page_loads, speedtests)}`` into
    columnar arrays in canonical order (ascending user index, per-user
    event order), each with an ``int64`` ``user_index`` column.

    Returns ``(page_load_arrays, speedtest_arrays)``.
    """
    pl_records: list = []
    pl_index: list[int] = []
    st_records: list = []
    st_index: list[int] = []
    for index in sorted(user_records):
        page_loads, speedtests = user_records[index]
        pl_records.extend(page_loads)
        pl_index.extend([index] * len(page_loads))
        st_records.extend(speedtests)
        st_index.extend([index] * len(speedtests))
    pl_arrays = columnar.encode_page_loads(pl_records)
    pl_arrays[USER_INDEX_COLUMN] = np.asarray(pl_index, dtype=np.int64)
    st_arrays = columnar.encode_speedtests(st_records)
    st_arrays[USER_INDEX_COLUMN] = np.asarray(st_index, dtype=np.int64)
    return pl_arrays, st_arrays


def _records_by_user(
    user_indices, pl_arrays, st_arrays
) -> dict[int, tuple[list, list]]:
    """Invert :func:`encode_user_records` for a known planned index set."""
    page_loads = columnar.decode_page_loads(pl_arrays)
    speedtests = columnar.decode_speedtests(st_arrays)
    indices = np.asarray(sorted(user_indices), dtype=np.int64)
    pl_index = pl_arrays[USER_INDEX_COLUMN]
    st_index = st_arrays[USER_INDEX_COLUMN]
    pl_starts = np.searchsorted(pl_index, indices, side="left")
    pl_stops = np.searchsorted(pl_index, indices, side="right")
    st_starts = np.searchsorted(st_index, indices, side="left")
    st_stops = np.searchsorted(st_index, indices, side="right")
    return {
        int(index): (
            page_loads[pl_starts[i] : pl_stops[i]],
            speedtests[st_starts[i] : st_stops[i]],
        )
        for i, index in enumerate(indices)
    }


@dataclass
class CheckpointedShard:
    """A shard recovered from its columnar spill file.

    Duck-types :class:`~repro.runtime.shard.ShardResult` (``shard_id``,
    ``stats``, lazy ``user_records``) for the object-merge path, while
    exposing the raw column arrays so the vectorised merge can adopt
    them without materialising any record objects.
    """

    shard_id: int
    user_indices: list[int]
    page_load_arrays: dict[str, np.ndarray]
    speedtest_arrays: dict[str, np.ndarray]
    stats: ShardStats

    def __post_init__(self) -> None:
        self._user_records: dict[int, tuple[list, list]] | None = None

    @property
    def user_records(self) -> dict[int, tuple[list, list]]:
        """Record objects per planned user index (decoded on demand)."""
        if self._user_records is None:
            self._user_records = _records_by_user(
                self.user_indices, self.page_load_arrays, self.speedtest_arrays
            )
        return self._user_records


def campaign_fingerprint(config) -> str:
    """Hex digest identifying the dataset a config will produce.

    Hashes every dataclass field except the execution knobs of
    :data:`repro.knobs.EXECUTION_ONLY_FIELDS` (sorted by name, rendered
    with ``repr`` — stable for the numeric / string / tuple field types
    a config holds).  New data-affecting fields are therefore
    fingerprinted by default; a new execution knob is opted out by
    its row in the knob table.
    """
    if not is_dataclass(config):
        raise CheckpointError(
            f"can only fingerprint a dataclass config, got {type(config).__name__}"
        )
    hasher = hashlib.sha256()
    for field in sorted(fields(config), key=lambda f: f.name):
        if field.name in EXECUTION_ONLY_FIELDS:
            continue
        hasher.update(field.name.encode("utf-8"))
        hasher.update(b"=")
        hasher.update(repr(getattr(config, field.name)).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class CheckpointStore:
    """Atomic per-shard spill directory for one campaign fingerprint.

    Layout::

        <root>/campaign-<fingerprint16>/meta.json
        <root>/campaign-<fingerprint16>/shard-0003.ckpt

    Each ``.ckpt`` is a checksummed columnar segment (see
    :func:`repro.extension.columnar.write_checksummed_npz`).  Writes
    are atomic (temp file + ``os.replace``), so a kill mid-spill leaves
    either the previous file or nothing — never a torn segment.  Loads
    are paranoid: wrong fingerprint, wrong index set, wrong magic, a
    failed checksum (truncation, bit flips) or malformed metadata all
    mean "recompute this shard", never an exception into the campaign.
    """

    def __init__(self, root: str, config) -> None:
        self.fingerprint = campaign_fingerprint(config)
        self.directory = os.path.join(
            root, f"campaign-{self.fingerprint[:16]}"
        )
        to_json = getattr(config, "to_json_dict", None)
        self._config_json = to_json() if callable(to_json) else None
        self._ensured = False

    @classmethod
    def from_config(cls, config) -> "CheckpointStore | None":
        """The store a config asks for, or ``None`` when disabled.

        The root is the ``checkpoint_dir`` knob (DESIGN.md §5).
        """
        root = resolve("checkpoint_dir", getattr(config, "checkpoint_dir", None))
        if not root:
            return None
        return cls(root, config)

    def _ensure(self) -> None:
        if self._ensured:
            return
        os.makedirs(self.directory, exist_ok=True)
        meta_path = os.path.join(self.directory, _META_FILENAME)
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint metadata at {meta_path}: {exc}"
                ) from exc
            if meta.get("fingerprint") != self.fingerprint:
                raise CheckpointError(
                    f"checkpoint directory {self.directory} belongs to "
                    f"fingerprint {meta.get('fingerprint')!r}, not "
                    f"{self.fingerprint!r}"
                )
        else:
            # The store is self-describing: alongside the fingerprint
            # it records the canonical JSON form of the config that
            # wrote it (when the config speaks the codec), so tooling
            # can reconstruct the campaign without ad-hoc dict
            # handling.
            meta = {"fingerprint": self.fingerprint}
            if self._config_json is not None:
                meta["config"] = self._config_json
            self._write_atomic(
                meta_path, json.dumps(meta, sort_keys=True).encode("utf-8")
            )
        self._ensured = True

    def stored_config(self) -> dict | None:
        """The codec JSON of the config that created this store, when
        the store's ``meta.json`` recorded one."""
        meta_path = os.path.join(self.directory, _META_FILENAME)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        config = meta.get("config")
        return config if isinstance(config, dict) else None

    def _shard_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_id:04d}.ckpt")

    def _write_atomic(self, path: str, data: bytes) -> None:
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            # fsync before the rename so a crash can never promote an
            # empty/partial temp file to the final name (the rename is
            # only atomic in the namespace, not for data blocks).
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)

    def save(self, result: ShardResult) -> str:
        """Spill one completed shard as a columnar segment; returns the
        file path."""
        self._ensure()
        pl_arrays, st_arrays = encode_user_records(result.user_records)
        arrays = {f"{_PL_PREFIX}{k}": v for k, v in pl_arrays.items()}
        arrays.update({f"{_ST_PREFIX}{k}": v for k, v in st_arrays.items()})
        meta = {
            "fingerprint": self.fingerprint,
            "shard_id": result.shard_id,
            "user_indices": sorted(result.user_records),
            "stats": dataclasses.asdict(result.stats),
        }
        path = self._shard_path(result.shard_id)
        columnar.write_checksummed_npz(path, arrays, meta)
        return path

    def load(self, shard_id: int, user_indices) -> CheckpointedShard | None:
        """A stored shard matching the planned assignment, or ``None``.

        ``None`` (recompute) on: no file, wrong magic (e.g. a legacy
        pickle spill), checksum failure (truncation, bit flips),
        fingerprint mismatch, malformed metadata or arrays, or a stored
        user-index set that differs from the planned one (e.g. the
        partition changed because ``n_workers`` did).
        """
        path = self._shard_path(shard_id)
        try:
            arrays, meta = columnar.read_checksummed_npz(path)
        except DatasetError:
            return None
        if not isinstance(meta, dict):
            return None
        if meta.get("fingerprint") != self.fingerprint:
            return None
        if meta.get("shard_id") != shard_id:
            return None
        if meta.get("user_indices") != sorted(user_indices):
            return None
        pl_columns = columnar.PAGE_LOAD_COLUMNS + (USER_INDEX_COLUMN,)
        st_columns = columnar.SPEEDTEST_COLUMNS + (USER_INDEX_COLUMN,)
        pl_arrays = {}
        st_arrays = {}
        for name in pl_columns:
            key = f"{_PL_PREFIX}{name}"
            if key not in arrays:
                return None
            pl_arrays[name] = arrays[key]
        for name in st_columns:
            key = f"{_ST_PREFIX}{name}"
            if key not in arrays:
                return None
            st_arrays[name] = arrays[key]
        try:
            stats = ShardStats(**meta.get("stats", {}))
        except TypeError:
            return None
        if stats.shard_id != shard_id:
            return None
        return CheckpointedShard(
            shard_id=shard_id,
            user_indices=sorted(int(i) for i in meta["user_indices"]),
            page_load_arrays=pl_arrays,
            speedtest_arrays=st_arrays,
            stats=stats,
        )

    def load_matching(self, planned) -> dict[int, CheckpointedShard]:
        """Stored shards matching a planned ``{shard_id: indices}``-style
        list of ``(shard_id, user_indices)`` pairs."""
        recovered: dict[int, CheckpointedShard] = {}
        for shard_id, user_indices in planned:
            result = self.load(shard_id, user_indices)
            if result is not None:
                recovered[shard_id] = result
        return recovered
