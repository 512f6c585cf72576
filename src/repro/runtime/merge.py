"""Deterministic recombination of per-shard campaign results.

The serial campaign appends each user's records in population order,
page loads and speedtests in per-user event-time order.  The merge
reproduces exactly that: concatenate every user's record lists by
ascending user index, regardless of which shard produced them or when
the shard finished.

In the supervised/retry world the merge is also the campaign's last
integrity gate: shards may have been retried, recovered in-process, or
adopted from checkpoints, so the merge verifies the recovered user set
against the planned partition — duplicates (overlapping shards),
unplanned users (stale checkpoints), and missing users (a shard lost
without anyone noticing) all raise instead of silently producing a
dataset that is *almost* the serial one.

Two merge paths produce bit-identical datasets:

* **Object path** (memory backend): walk ``user_records`` dicts and
  extend the dataset's lists in sorted-user order, exactly as before.
* **Vectorised path** (columnar/spill backends): every shard —
  a live :class:`~repro.runtime.shard.ShardResult` or a recovered
  :class:`~repro.runtime.checkpoint.CheckpointedShard` — contributes
  column arrays carrying a per-record ``user_index``; one stable
  argsort on the concatenated index column reproduces canonical order
  (each user lives in exactly one shard, per-user order is preserved
  by stability), and the sorted arrays are adopted by the backend
  wholesale.  No record objects are materialised.

:func:`shard_arrays` is the one place a shard becomes columns; the
service's live aggregates (:mod:`repro.service.aggregates`) fold each
accepted shard through it too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.extension import columnar
from repro.extension.backends import DatasetBackend, InMemoryBackend
from repro.extension.storage import Dataset
from repro.runtime.shard import ShardResult, covered_indices


def _validate_partition(covered_per_shard, expected_indices) -> None:
    seen: set[int] = set()
    for covered in covered_per_shard:
        for index in covered:
            if index in seen:
                raise DatasetError(
                    f"user index {index} produced by more than one shard"
                )
            seen.add(index)
    if expected_indices is not None:
        expected = set(expected_indices)
        missing = sorted(expected - seen)
        if missing:
            raise DatasetError(
                f"planned user indices missing from merged shard results: "
                f"{missing} (a shard was lost or its result truncated)"
            )
        surplus = sorted(seen - expected)
        if surplus:
            raise DatasetError(
                f"merged shard results contain user indices outside the "
                f"planned partition: {surplus}"
            )


def shard_arrays(result):
    """A shard's ``(page_load_arrays, speedtest_arrays)`` with the
    ``user_index`` column: a fresh result encoded on demand, a
    checkpointed one as stored."""
    pl = getattr(result, "page_load_arrays", None)
    st = getattr(result, "speedtest_arrays", None)
    if pl is not None and st is not None:
        return pl, st
    from repro.runtime.checkpoint import encode_user_records

    return encode_user_records(result.user_records)


def _merge_vectorised(results, backend: DatasetBackend) -> Dataset:
    from repro.runtime.checkpoint import USER_INDEX_COLUMN

    pl_chunks = []
    st_chunks = []
    for result in results:
        pl, st = shard_arrays(result)
        pl_chunks.append(pl)
        st_chunks.append(st)
    pl_columns = columnar.PAGE_LOAD_COLUMNS + (USER_INDEX_COLUMN,)
    st_columns = columnar.SPEEDTEST_COLUMNS + (USER_INDEX_COLUMN,)
    for chunks, columns, extend in (
        (pl_chunks, pl_columns, backend.extend_page_load_arrays),
        (st_chunks, st_columns, backend.extend_speedtest_arrays),
    ):
        if not chunks:
            continue
        merged = columnar.concat_columns(chunks, columns)
        # Stable sort on user index reproduces canonical serial order:
        # each user lives in exactly one shard, and within a shard the
        # records are already in per-user event order.
        order = np.argsort(merged[USER_INDEX_COLUMN], kind="stable")
        extend({name: merged[name][order] for name in columns[:-1]})
    dataset = Dataset(backend=backend)
    dataset.flush()
    return dataset


def merge_shard_results(
    results: list[ShardResult],
    expected_indices=None,
    backend: DatasetBackend | None = None,
) -> Dataset:
    """Merge shard results into one :class:`Dataset` in user order.

    Args:
        results: The per-shard results, in any order — live
            ``ShardResult`` objects and/or recovered
            ``CheckpointedShard`` segments.
        expected_indices: The planned partition's full user-index set.
            When given, the merged results must cover it *exactly*.
        backend: Destination storage backend (default: a fresh
            in-memory backend).  Columnar/spill backends take the
            vectorised merge path; the dataset is bit-identical either
            way.

    Raises:
        DatasetError: if two shards report records for the same user
            (the partition was not disjoint), or — when
            ``expected_indices`` is given — if a planned user is
            missing from the merged results or an unplanned user
            appears in them.
    """
    _validate_partition(
        (covered_indices(result) for result in results), expected_indices
    )
    if backend is None:
        backend = InMemoryBackend()
    if not isinstance(backend, InMemoryBackend):
        return _merge_vectorised(results, backend)
    by_user: dict[int, tuple[list, list]] = {}
    for result in results:
        by_user.update(result.user_records)
    dataset = Dataset(backend=backend)
    for index in sorted(by_user):
        page_loads, speedtests = by_user[index]
        dataset.extend_page_loads(page_loads)
        dataset.extend_speedtests(speedtests)
    return dataset
