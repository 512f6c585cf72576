"""Deterministic recombination of per-shard campaign results.

The serial campaign appends each user's records in population order,
page loads and speedtests in per-user event-time order.  The merge
reproduces exactly that: concatenate every user's records by
ascending user index, regardless of which shard produced them or when
the shard finished.

In the re-dispatch world the merge is also the campaign's last
integrity gate: shards may have been re-dispatched or adopted from
checkpoints, so the merge verifies the recovered user set
against the planned partition — duplicates (overlapping shards),
unplanned users (stale checkpoints), and missing users (a shard lost
without anyone noticing) all raise instead of silently producing a
dataset that is *almost* the serial one.

Every shard — fresh from a worker or recovered from a checkpoint — is
a :class:`~repro.runtime.shard.ShardResult`: column arrays carrying a
per-record ``user_index``.  One stable argsort on the concatenated
index column reproduces canonical order (each user lives in exactly
one shard, and stability keeps each user's event order), and the
sorted arrays are adopted by the backend wholesale.  No record object
is built.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.extension import columnar
from repro.extension.backends import DatasetBackend
from repro.extension.storage import Dataset
from repro.runtime.shard import USER_INDEX_COLUMN, ShardResult


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


def merge_shard_results(
    results: list[ShardResult],
    expected_indices=None,
    backend: DatasetBackend | None = None,
) -> Dataset:
    """Merge shard results into one :class:`Dataset` in user order.

    Args:
        results: The per-shard results, fresh or recovered from a
            checkpoint, in any order.
        expected_indices: The planned partition's full user-index set.
            When given, the merged results must cover it *exactly*.
        backend: Destination storage backend (default: a fresh
            ``memory`` store).

    Raises:
        DatasetError: if two shards report records for the same user
            (the partition was not disjoint), or — when
            ``expected_indices`` is given — if a planned user is
            missing from the merged results or an unplanned user
            appears in them.
    """
    results = list(results)
    _validate_partition((result.user_indices for result in results), expected_indices)
    dataset = Dataset(backend=backend)
    for columns, arrays, extend in (
        (
            columnar.PAGE_LOAD_COLUMNS,
            [result.page_load_arrays for result in results],
            dataset.backend.extend_page_load_arrays,
        ),
        (
            columnar.SPEEDTEST_COLUMNS,
            [result.speedtest_arrays for result in results],
            dataset.backend.extend_speedtest_arrays,
        ),
    ):
        if not arrays:
            continue
        merged = columnar.concat_columns(arrays, columns + (USER_INDEX_COLUMN,))
        # Stable sort on user index reproduces canonical serial order:
        # each user lives in exactly one shard, and within a shard the
        # records are already in per-user event order.
        order = np.argsort(merged[USER_INDEX_COLUMN], kind="stable")
        extend({name: merged[name][order] for name in columns})
    dataset.flush()
    return dataset
