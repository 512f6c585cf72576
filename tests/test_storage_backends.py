"""Storage backends: bit-identity across backends × execution modes.

The tentpole contract: the dataset is a pure function of the campaign
config — serial ≡ sharded ≡ kill-and-resume, on every storage backend
(in-memory lists, numpy-columnar chunks, spill-to-disk segments),
bit-for-bit after canonical ordering.  Plus unit coverage of the
backend mechanics: segment rollover, streaming iteration, manifest
reopen, column access exactness, deletion.
"""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError, ShardFailedError
from repro.extension.backends import (
    ColumnarBackend,
    InMemoryBackend,
    SpillBackend,
    backend_for_config,
    make_backend,
)
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset
from repro.runtime import (
    CheckpointStore,
    SupervisorPolicy,
    crash_plan,
    run_campaign,
)
from repro.web.timing import NavigationTiming

BACKENDS = ("memory", "columnar", "spill")
SEEDS = (11, 23)

CFG = dict(
    duration_s=86_400.0,
    request_fraction=0.03,
    speedtest_boost=50.0,  # a few speedtests per backend too
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
)


def storage_config(seed, backend, tmp_path, **extra):
    return CampaignConfig(
        **CFG,
        seed=seed,
        storage=backend,
        storage_dir=str(tmp_path / "segments") if backend == "spill" else None,
        storage_segment_records=64,  # force multi-segment rollover
        **extra,
    )


@pytest.fixture(scope="module", params=SEEDS)
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def reference(seed):
    """The serial in-memory dataset — the bits every combination must
    reproduce exactly."""
    return ExtensionCampaign(CampaignConfig(**CFG, seed=seed)).run()


# -- campaign bit-identity ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_serial_identity(backend, seed, reference, tmp_path):
    dataset = ExtensionCampaign(storage_config(seed, backend, tmp_path)).run()
    assert dataset.storage == backend
    assert dataset.page_loads == reference.page_loads
    assert dataset.speedtests == reference.speedtests


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_identity(backend, seed, reference, tmp_path):
    dataset = ExtensionCampaign(
        storage_config(seed, backend, tmp_path, n_workers=4)
    ).run()
    assert dataset.storage == backend
    assert dataset.page_loads == reference.page_loads
    assert dataset.speedtests == reference.speedtests


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_and_resume_identity(backend, seed, reference, tmp_path):
    """A campaign killed after k of n shards resumes from columnar
    checkpoints into any storage backend, bit-identically."""
    config = storage_config(seed, backend, tmp_path, n_workers=4)
    store = CheckpointStore(str(tmp_path / "ckpt"), config)
    policy = SupervisorPolicy(
        max_retries=1, backoff_base_s=0.01, in_process_fallback=False
    )
    with pytest.raises(ShardFailedError):
        run_campaign(
            config,
            policy=policy,
            fault_plan=crash_plan([1], attempts=(0, 1)),
            checkpoint=store,
        )
    dataset, stats = run_campaign(config, checkpoint=store, resume=True)
    assert stats.resumed_shards == 3
    assert dataset.storage == backend
    assert dataset.page_loads == reference.page_loads
    assert dataset.speedtests == reference.speedtests


# -- backend unit coverage ---------------------------------------------


def _page_load(i: int, user: str = "u-0") -> PageLoadRecord:
    return PageLoadRecord(
        user_id=user,
        city="london",
        region="europe",
        isp="starlink",
        is_starlink=True,
        exit_asn=14593,
        t_s=float(i),
        domain=f"site-{i % 5}.example",
        rank=i,
        is_popular=i % 2 == 0,
        timing=NavigationTiming(*(0.001 * (i + j) for j in range(8))),
    )


def _speedtest(i: int, user: str = "u-0") -> SpeedtestRecord:
    return SpeedtestRecord(
        user_id=user,
        city="london",
        isp="starlink",
        is_starlink=True,
        t_s=float(i),
        download_mbps=100.0 + i,
        upload_mbps=10.0 + i,
        ping_ms=40.0 + i,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_append_order_and_columns_exact(backend, tmp_path):
    records = [_page_load(i, user=f"u-{i % 3}") for i in range(23)]
    tests = [_speedtest(i) for i in range(7)]
    dataset = Dataset(
        backend=make_backend(backend, directory=str(tmp_path), segment_records=8)
    )
    for record in records:
        dataset.add_page_load(record)
    dataset.extend_speedtests(tests)
    assert dataset.page_loads == records
    assert list(dataset.iter_speedtests()) == tests
    assert dataset.n_page_loads == 23 and dataset.n_speedtests == 7
    np.testing.assert_array_equal(
        dataset.page_load_column("t_s"), [r.t_s for r in records]
    )
    np.testing.assert_array_equal(
        dataset.page_load_column("ptt_ms"), [r.ptt_ms for r in records]
    )
    np.testing.assert_array_equal(
        dataset.page_load_column("plt_ms"), [r.plt_ms for r in records]
    )
    np.testing.assert_array_equal(
        dataset.speedtest_column("download_mbps"),
        [t.download_mbps for t in tests],
    )
    with pytest.raises(DatasetError):
        dataset.page_load_column("no_such_column")
    with pytest.raises(DatasetError):
        dataset.speedtest_column("no_such_column")


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_user_across_backends(backend, tmp_path):
    dataset = Dataset(
        backend=make_backend(backend, directory=str(tmp_path), segment_records=4)
    )
    dataset.extend_page_loads([_page_load(i, user=f"u-{i % 2}") for i in range(10)])
    dataset.extend_speedtests([_speedtest(i, user=f"u-{i % 2}") for i in range(4)])
    removed = dataset.delete_user("u-1")
    assert removed == 5 + 2
    assert all(r.user_id == "u-0" for r in dataset.iter_page_loads())
    assert dataset.n_page_loads == 5 and dataset.n_speedtests == 2
    # Appends after deletion keep working (segments were rewritten).
    dataset.add_page_load(_page_load(99))
    assert dataset.n_page_loads == 6


def test_spill_segment_rollover_and_reopen(tmp_path):
    backend = SpillBackend(directory=str(tmp_path), segment_records=8)
    records = [_page_load(i) for i in range(30)]
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads(records)
    # 30 records / 8 per segment -> 3 full segments + 6 staged.
    assert len(backend._segments["page_loads"]) == 3
    dataset.flush()
    assert len(backend._segments["page_loads"]) == 4
    reopened = Dataset(backend=SpillBackend.open(str(tmp_path)))
    assert reopened.page_loads == records
    assert reopened.n_page_loads == 30


def test_spill_bounded_staging(tmp_path):
    """No more than segment_records records are ever staged in memory."""
    backend = SpillBackend(directory=str(tmp_path), segment_records=16)
    for i in range(100):
        backend.append_page_load(_page_load(i))
        assert len(backend._staging["page_loads"]) < 16


def test_spill_open_rejects_bad_manifest(tmp_path):
    with pytest.raises(DatasetError):
        SpillBackend.open(str(tmp_path))  # no manifest at all
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(DatasetError):
        SpillBackend.open(str(tmp_path))


def test_spill_torn_segment_named_precisely(tmp_path):
    """A truncated segment fails with a DatasetError that names the
    bad file and the torn-write diagnosis — not a numpy traceback."""
    backend = SpillBackend(directory=str(tmp_path), segment_records=8)
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads([_page_load(i) for i in range(20)])
    dataset.flush()
    entry = backend._segments["page_loads"][1]
    path = tmp_path / entry["file"]
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    reopened = SpillBackend.open(str(tmp_path))
    with pytest.raises(DatasetError) as excinfo:
        Dataset(backend=reopened).page_loads
    message = str(excinfo.value)
    assert entry["file"] in message
    assert "torn write or bit flip" in message
    # A flipped bit is caught the same way, by checksum not by zipfile.
    corrupted = bytearray(blob)
    corrupted[len(blob) // 3] ^= 0x01
    path.write_bytes(bytes(corrupted))
    with pytest.raises(DatasetError, match=entry["file"]):
        Dataset(backend=SpillBackend.open(str(tmp_path))).page_loads


def test_spill_open_verify_fails_fast(tmp_path):
    backend = SpillBackend(directory=str(tmp_path), segment_records=4)
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads([_page_load(i) for i in range(8)])
    dataset.flush()
    bad = backend._segments["page_loads"][0]["file"]
    (tmp_path / bad).write_bytes(b"not an npz")
    SpillBackend.open(str(tmp_path))  # lazy open still succeeds ...
    with pytest.raises(DatasetError, match=bad):
        SpillBackend.open(str(tmp_path), verify=True)  # ... verify doesn't


def test_spill_quarantine_and_report(tmp_path):
    """The recovery path: quarantine the named segment, get a report of
    exactly what was lost, and keep working with the survivors."""
    backend = SpillBackend(directory=str(tmp_path), segment_records=8)
    dataset = Dataset(backend=backend)
    records = [_page_load(i) for i in range(20)]
    dataset.extend_page_loads(records)
    dataset.flush()
    entry = backend._segments["page_loads"][1]
    path = tmp_path / entry["file"]
    path.write_bytes(path.read_bytes()[:10])
    report = backend.quarantine(
        "page_loads", entry["file"], "checksum mismatch"
    )
    assert report["quarantined"] is True
    assert report["n_records_lost"] == 8
    assert report["kind"] == "page_loads"
    assert os.path.exists(report["path"])
    assert report["path"].endswith(
        os.path.join(SpillBackend.QUARANTINE_DIR, entry["file"])
    )
    # The manifest no longer lists the segment: the reopened backend
    # verifies clean and serves the surviving records.
    reopened = Dataset(backend=SpillBackend.open(str(tmp_path), verify=True))
    survivors = records[:8] + records[16:]
    assert reopened.page_loads == survivors
    # Quarantining an unknown file reports without mutating anything.
    noop = backend.quarantine("page_loads", "no-such-file.npz", "test")
    assert noop["quarantined"] is False
    assert noop["n_records_lost"] == 0
    with pytest.raises(DatasetError):
        backend.quarantine("bogus_kind", entry["file"], "test")


def test_jsonl_round_trip_across_backends(tmp_path):
    source = Dataset(
        backend=make_backend("spill", directory=str(tmp_path / "a"), segment_records=4)
    )
    source.extend_page_loads([_page_load(i) for i in range(9)])
    source.extend_speedtests([_speedtest(i) for i in range(3)])
    path = tmp_path / "dataset.jsonl"
    source.to_jsonl(path)
    loaded = Dataset.from_jsonl(
        path, backend=make_backend("columnar", segment_records=4)
    )
    assert loaded.page_loads == source.page_loads
    assert loaded.speedtests == source.speedtests


def test_backend_for_config_kinds(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    monkeypatch.delenv("REPRO_STORAGE_DIR", raising=False)
    assert isinstance(backend_for_config(CampaignConfig(**CFG)), InMemoryBackend)
    assert isinstance(
        backend_for_config(CampaignConfig(**CFG, storage="columnar")),
        ColumnarBackend,
    )
    spill = backend_for_config(
        CampaignConfig(**CFG, storage="spill", storage_dir=str(tmp_path))
    )
    assert isinstance(spill, SpillBackend)
    assert spill.directory == str(tmp_path)


def test_config_rejects_bad_storage():
    with pytest.raises(ConfigurationError):
        CampaignConfig(**CFG, storage="bogus")
    with pytest.raises(ConfigurationError):
        CampaignConfig(**CFG, storage_segment_records=0)
    with pytest.raises(ConfigurationError):
        make_backend("bogus")


# -- pagination slices (the service's results endpoint) ----------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_slices_match_list_slicing(backend, tmp_path):
    """``page_load_slice``/``speedtest_slice`` equal list slicing on
    every backend, including windows that straddle segment boundaries
    and staged (unflushed) spill records."""
    records = [_page_load(i, user=f"u-{i % 3}") for i in range(23)]
    tests = [_speedtest(i) for i in range(9)]
    dataset = Dataset(
        backend=make_backend(backend, directory=str(tmp_path), segment_records=8)
    )
    dataset.extend_page_loads(records)
    dataset.extend_speedtests(tests)
    windows = [(0, 5), (5, 8), (6, 4), (8, 100), (21, 5), (23, 5), (0, 0)]
    for offset, limit in windows:
        assert (
            dataset.page_load_slice(offset, limit)
            == records[offset : offset + limit]
        )
    for offset, limit in [(0, 4), (2, 4), (8, 3), (9, 1)]:
        assert (
            dataset.speedtest_slice(offset, limit)
            == tests[offset : offset + limit]
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_slice_rejects_malformed_windows(backend, tmp_path):
    dataset = Dataset(
        backend=make_backend(backend, directory=str(tmp_path), segment_records=8)
    )
    dataset.extend_page_loads([_page_load(i) for i in range(3)])
    for offset, limit in [(-1, 5), (0, -1), (0.5, 5), (0, "ten"), (True, 2)]:
        with pytest.raises(DatasetError):
            dataset.page_load_slice(offset, limit)
        with pytest.raises(DatasetError):
            dataset.speedtest_slice(offset, limit)
