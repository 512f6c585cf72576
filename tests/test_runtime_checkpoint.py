"""Checkpoint store: fingerprinting, spill/load, kill-and-resume."""

import os
import pickle
from dataclasses import replace

import pytest

from repro.errors import CheckpointError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import (
    CheckpointStore,
    campaign_fingerprint,
    run_campaign,
    run_shard,
)

SMALL = dict(
    seed=11,
    duration_s=2 * 86_400.0,
    request_fraction=0.1,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)


@pytest.fixture(scope="module")
def serial_dataset():
    return ExtensionCampaign(CampaignConfig(**SMALL)).run()


@pytest.fixture(scope="module")
def campaign_users():
    return ExtensionCampaign(CampaignConfig(**SMALL)).population.users


# -- fingerprinting ----------------------------------------------------


def test_fingerprint_stable_and_data_sensitive():
    base = campaign_fingerprint(CampaignConfig(**SMALL))
    assert base == campaign_fingerprint(CampaignConfig(**SMALL))
    changed = campaign_fingerprint(
        CampaignConfig(**SMALL | {"seed": 12})
    )
    assert changed != base
    assert campaign_fingerprint(
        CampaignConfig(**SMALL | {"duration_s": 86_400.0})
    ) != base


def test_fingerprint_ignores_execution_only_fields():
    """Worker counts, timeouts, retries, checkpoint settings and start
    method never change the dataset, so their checkpoints must be
    interchangeable."""
    base = campaign_fingerprint(CampaignConfig(**SMALL))
    variants = [
        CampaignConfig(**SMALL, n_workers=8),
        CampaignConfig(**SMALL, precompute_timelines=True),
        CampaignConfig(**SMALL, mp_start_method="spawn"),
        CampaignConfig(**SMALL, shard_timeout_s=30.0),
        CampaignConfig(**SMALL, max_shard_retries=9),
        CampaignConfig(**SMALL, retry_backoff_s=1.0),
        CampaignConfig(**SMALL, checkpoint_dir="/tmp/x"),
        CampaignConfig(**SMALL, resume=True),
        CampaignConfig(**SMALL, storage="spill"),
        CampaignConfig(**SMALL, storage_dir="/tmp/y"),
        CampaignConfig(**SMALL, storage_segment_records=64),
    ]
    assert all(campaign_fingerprint(v) == base for v in variants)


def test_fingerprint_requires_dataclass():
    with pytest.raises(CheckpointError):
        campaign_fingerprint(object())


# -- store round trip --------------------------------------------------


def test_store_round_trip(tmp_path, campaign_users):
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    result = run_shard(config, 0, [0, 1])
    path = store.save(result)
    assert os.path.exists(path)
    loaded = store.load(0, [0, 1])
    assert loaded is not None
    assert loaded.user_records == result.user_records
    assert loaded.stats.n_users == 2


def test_store_rejects_mismatched_assignments(tmp_path):
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    store.save(run_shard(config, 0, [0, 1]))
    assert store.load(1, [0, 1]) is None  # wrong shard id
    assert store.load(0, [0, 1, 2]) is None  # partition changed
    assert store.load(0, [0]) is None


def test_store_ignores_torn_files(tmp_path):
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    path = store.save(run_shard(config, 0, [0]))
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 torn pickle")
    assert store.load(0, [0]) is None  # recompute, never raise


def test_store_detects_truncated_segments(tmp_path):
    """A kill mid-write (or a torn filesystem) must mean "recompute",
    at every possible truncation point: inside the magic, inside the
    digest, mid-payload, one byte short."""
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    path = store.save(run_shard(config, 0, [0, 1]))
    with open(path, "rb") as handle:
        blob = handle.read()
    for cut in (0, 4, 20, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        assert store.load(0, [0, 1]) is None, f"truncated at {cut}"
    # The intact file still loads (the store never deletes on failure).
    with open(path, "wb") as handle:
        handle.write(blob)
    assert store.load(0, [0, 1]) is not None


def test_store_detects_bit_flips(tmp_path):
    """Single flipped bits anywhere — magic, digest, npz payload —
    must fail the checksum (or frame check) and mean "recompute"."""
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    path = store.save(run_shard(config, 0, [0, 1]))
    with open(path, "rb") as handle:
        blob = handle.read()
    for offset in (0, 9, 45, len(blob) // 2, len(blob) - 1):
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(corrupted))
        assert store.load(0, [0, 1]) is None, f"bit flip at {offset}"
    with open(path, "wb") as handle:
        handle.write(blob)
    assert store.load(0, [0, 1]) is not None


def test_store_fsyncs_before_rename(tmp_path, monkeypatch):
    """The atomic spill must reach the platter before the rename makes
    it visible, or a power cut can promote an empty file.  Guard the
    fsync-then-replace ordering against regression."""
    import repro.runtime.checkpoint as checkpoint_mod

    synced: list[int] = []
    replaced_after_sync: list[bool] = []
    real_fsync = os.fsync
    real_replace = os.replace

    def spy_fsync(fd):
        synced.append(fd)
        return real_fsync(fd)

    def spy_replace(src, dst):
        replaced_after_sync.append(bool(synced))
        return real_replace(src, dst)

    monkeypatch.setattr(checkpoint_mod.os, "fsync", spy_fsync)
    monkeypatch.setattr(checkpoint_mod.os, "replace", spy_replace)
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    store.save(run_shard(config, 0, [0]))
    assert synced, "save() must fsync the temp file"
    assert replaced_after_sync and all(replaced_after_sync)


def test_store_survives_zero_length_promoted_file(tmp_path):
    """The torn-state shape the fsync fix prevents — a promoted but
    empty segment — must still read as "recompute", never crash."""
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    path = store.save(run_shard(config, 0, [0]))
    with open(path, "wb"):
        pass  # truncate to zero bytes
    assert os.path.getsize(path) == 0
    assert store.load(0, [0]) is None


def test_store_ignores_legacy_pickle_spills(tmp_path):
    """Spill files from the pickled-object era fail the frame check and
    are recomputed, never unpickled."""
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    result = run_shard(config, 0, [0])
    path = store.save(result)
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "fingerprint": store.fingerprint,
                "shard_id": 0,
                "user_indices": [0],
                "result": result,
            },
            handle,
        )
    assert store.load(0, [0]) is None


def test_store_round_trips_stats_and_arrays(tmp_path):
    """The columnar spill preserves per-shard stats and exposes raw
    column arrays for the vectorised merge."""
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    result = run_shard(config, 0, [0, 1, 2])
    store.save(result)
    loaded = store.load(0, [0, 1, 2])
    assert loaded is not None
    assert loaded.stats.n_page_loads == result.stats.n_page_loads
    assert loaded.stats.n_speedtests == result.stats.n_speedtests
    n_pl = sum(len(pl) for pl, _ in result.user_records.values())
    assert len(loaded.page_load_arrays["user_index"]) == n_pl
    assert len(loaded.page_load_arrays["t_s"]) == n_pl


def test_store_rejects_foreign_fingerprint_dir(tmp_path):
    config = CampaignConfig(**SMALL)
    store = CheckpointStore(str(tmp_path), config)
    store.save(run_shard(config, 0, [0]))
    meta = os.path.join(store.directory, "meta.json")
    with open(meta, "w", encoding="utf-8") as handle:
        handle.write('{"fingerprint": "somebody-else"}')
    fresh = CheckpointStore(str(tmp_path), config)
    with pytest.raises(CheckpointError):
        fresh.save(run_shard(config, 0, [0]))


def test_stale_checkpoints_invisible_to_other_configs(tmp_path):
    """A different data config hashes to a different directory, so its
    shards can never leak into this campaign."""
    config_a = CampaignConfig(**SMALL)
    config_b = CampaignConfig(**SMALL | {"seed": 99})
    store_a = CheckpointStore(str(tmp_path), config_a)
    store_a.save(run_shard(config_a, 0, [0]))
    store_b = CheckpointStore(str(tmp_path), config_b)
    assert store_b.directory != store_a.directory
    assert store_b.load(0, [0]) is None


# -- kill and resume ---------------------------------------------------


def test_resume_with_complete_checkpoints_runs_nothing(
    tmp_path, serial_dataset
):
    config = CampaignConfig(**SMALL, n_workers=4)
    store = CheckpointStore(str(tmp_path), config)
    run_campaign(config, checkpoint=store)
    dataset, stats = run_campaign(config, checkpoint=store, resume=True)
    assert stats.resumed_shards == len(stats.shards)
    assert stats.n_worker_processes == 0
    assert dataset.page_loads == serial_dataset.page_loads


def test_checkpoints_ignored_without_resume(
    tmp_path, serial_dataset
):
    """Without ``resume`` the run recomputes (and re-spills) everything."""
    config = CampaignConfig(**SMALL, n_workers=4)
    store = CheckpointStore(str(tmp_path), config)
    run_campaign(config, checkpoint=store)
    dataset, stats = run_campaign(config, checkpoint=store, resume=False)
    assert stats.resumed_shards == 0
    assert dataset.page_loads == serial_dataset.page_loads


def test_resume_across_worker_counts_recomputes_safely(
    tmp_path, serial_dataset
):
    """Checkpoints from a different partition (other n_workers) are
    rejected per shard, so the resumed run recomputes instead of
    mixing partitions — and still matches the serial dataset."""
    config = CampaignConfig(**SMALL, n_workers=4)
    store = CheckpointStore(str(tmp_path), config)
    run_campaign(config, checkpoint=store)
    dataset, stats = run_campaign(
        replace(config, n_workers=3), checkpoint=store, resume=True
    )
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests


def test_serial_run_checkpoints_and_resumes(tmp_path, serial_dataset):
    """A serial run is the one-shard case of the executor, so it spills
    its shard and a resumed serial run adopts it instead of re-running."""
    config = CampaignConfig(**SMALL, checkpoint_dir=str(tmp_path))
    ExtensionCampaign(config).run()
    store = CheckpointStore(str(tmp_path), config)
    assert os.path.exists(os.path.join(store.directory, "shard-0000.ckpt"))
    again = ExtensionCampaign(replace(config, resume=True))
    dataset = again.run()
    assert again.last_run_stats.resumed_shards == 1
    assert dataset.page_loads == serial_dataset.page_loads
    assert dataset.speedtests == serial_dataset.speedtests


def test_campaign_config_checkpoint_fields_flow_through(
    tmp_path, serial_dataset
):
    """End-to-end through ExtensionCampaign.run(): checkpoint_dir and
    resume on the config, no explicit store objects anywhere."""
    first = ExtensionCampaign(
        CampaignConfig(**SMALL, n_workers=4, checkpoint_dir=str(tmp_path))
    )
    first.run()
    again = ExtensionCampaign(
        CampaignConfig(
            **SMALL, n_workers=4, checkpoint_dir=str(tmp_path), resume=True
        )
    )
    dataset = again.run()
    assert again.last_run_stats.resumed_shards == len(
        again.last_run_stats.shards
    )
    assert dataset.page_loads == serial_dataset.page_loads
