"""Shard-level campaign checkpointing: spill, fingerprint, resume.

A killed campaign (power loss, OOM, ctrl-C, a shard that used up its
re-dispatch budget) should not forfeit the shards that already
finished.  Every finished shard is spilled as soon as it completes —
by an in-process run or by a fabric worker, into the one segment
directory of its campaign — and a later run with ``resume`` enabled
reloads the surviving shards and re-runs only the missing ones.  The
determinism contract (DESIGN.md §6) is what makes this sound: a re-run
shard is bit-identical to the one that was lost, so resumed and fresh
campaigns produce the same dataset.

**Layout.** :func:`campaign_dir` maps a config to its campaign
directory under the ``checkpoint_dir`` knob,
``<checkpoint_dir>/campaign-<fingerprint16>/``, which is also the
fabric directory of a multi-shard run; every shard segment of the
campaign lives in its ``segments/`` subdirectory, whichever placement
wrote it::

    <checkpoint_dir>/campaign-<fingerprint16>/segments/shard-0003.ckpt

**Spill format.** A segment is a shard result as it is: the
:class:`~repro.runtime.shard.ShardResult`'s typed column arrays (the
schema of :mod:`repro.extension.columnar` plus the ``int64``
``user_index`` column, in canonical order), written through the
checksummed container (magic + sha256 + npz) with the full campaign
fingerprint, the shard id, user indices and stats as metadata.
:meth:`CheckpointStore.load` returns the same type, so a recovered
shard and a fresh one are one thing to the merge.  Loads are
self-validating: truncated or bit-flipped files are detected, not
half-trusted.

**Fingerprinting.** Checkpoints are only valid for the campaign that
wrote them.  :func:`campaign_fingerprint` hashes every
``CampaignConfig`` field that can influence the *data* (seed,
duration, population, scaling...), deliberately excluding
execution-only knobs (worker count, timeouts, retries, checkpoint
settings, start method, storage backend) — those change how fast or
where the dataset is produced, never its bits.  The campaign
directory is named by the fingerprint, and every segment embeds it
whole, together with the exact user-index set: a stored shard is
adopted only for the same fingerprint and the freshly planned
partition, so a config change or a resume with another ``n_workers``
(another partition) falls back to recomputing rather than mixing
campaigns or partitions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import fields, is_dataclass

from repro.errors import CheckpointError, DatasetError
from repro.extension import columnar
from repro.knobs import EXECUTION_ONLY_FIELDS, resolve
from repro.runtime.shard import USER_INDEX_COLUMN, ShardResult, ShardStats

#: The subdirectory of a campaign directory that holds its segments.
SEGMENTS_DIR = "segments"

#: Array-key prefixes separating the two record kinds inside one
#: spilled shard file.
_PL_PREFIX = "pl_"
_ST_PREFIX = "st_"


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


def campaign_dir(config) -> str | None:
    """``<checkpoint_dir>/campaign-<fingerprint16>`` for a config, or
    ``None`` when the ``checkpoint_dir`` knob (DESIGN.md §5) is unset.

    The one directory of a campaign under ``checkpoint_dir``: its
    shard segments live in ``SEGMENTS_DIR`` below it, and a multi-shard
    run uses it as its fabric directory.
    """
    root = resolve("checkpoint_dir", getattr(config, "checkpoint_dir", None))
    if not root:
        return None
    return os.path.join(root, f"campaign-{campaign_fingerprint(config)[:16]}")


class CheckpointStore:
    """The shard segments of one campaign, in one directory.

    ``directory`` is used as given — a campaign directory's
    ``segments/`` (:func:`campaign_dir`) — and holds one
    ``shard-NNNN.ckpt`` per shard, each a checksummed columnar segment
    (see :func:`repro.extension.columnar.write_checksummed_npz`).
    Writes are atomic (:func:`repro.extension.columnar.write_atomic`),
    so a kill or a failed write mid-spill leaves either the previous
    file or nothing — never a torn segment or a stray temp file.
    Loads are paranoid: wrong fingerprint, wrong shard id, wrong index
    set, wrong magic, a failed checksum (truncation, bit flips) or
    malformed metadata all mean "recompute this shard", never an
    exception into the campaign.
    """

    def __init__(self, directory: str, config) -> None:
        self.fingerprint = campaign_fingerprint(config)
        self.directory = directory

    def segment_path(self, shard_id: int) -> str:
        """Where shard ``shard_id``'s segment lives."""
        return os.path.join(self.directory, f"shard-{shard_id:04d}.ckpt")

    def save(self, result: ShardResult) -> str:
        """Spill one completed shard as a columnar segment; returns the
        file path."""
        os.makedirs(self.directory, exist_ok=True)
        arrays = {f"{_PL_PREFIX}{k}": v for k, v in result.page_load_arrays.items()}
        arrays.update(
            {f"{_ST_PREFIX}{k}": v for k, v in result.speedtest_arrays.items()}
        )
        meta = {
            "fingerprint": self.fingerprint,
            "shard_id": result.shard_id,
            "user_indices": sorted(result.user_indices),
            "stats": dataclasses.asdict(result.stats),
        }
        path = self.segment_path(result.shard_id)
        columnar.write_checksummed_npz(path, arrays, meta)
        return path

    def load(self, shard_id: int, user_indices) -> ShardResult | None:
        """A stored shard matching the planned assignment, or ``None``.

        ``None`` (recompute) on: no file, wrong magic (e.g. a legacy
        pickle spill), checksum failure (truncation, bit flips),
        fingerprint mismatch, malformed metadata or arrays, or a stored
        user-index set that differs from the planned one (e.g. the
        partition changed because ``n_workers`` did).
        """
        path = self.segment_path(shard_id)
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
        return ShardResult(
            shard_id=shard_id,
            user_indices=sorted(int(i) for i in meta["user_indices"]),
            page_load_arrays=pl_arrays,
            speedtest_arrays=st_arrays,
            stats=stats,
        )
