"""Storage backends: bit-identity across backends × execution modes.

The tentpole contract: the dataset is a pure function of the campaign
config — serial ≡ sharded ≡ kill-and-resume, on both storage backends
(column segments in RAM, the same segments spilled to disk),
bit-for-bit after canonical ordering.  Plus unit coverage of the
backend mechanics: segment rollover, streaming iteration, manifest
reopen, column access exactness, deletion.
"""

import errno
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError, ShardFailedError
from repro.extension import columnar
from repro.extension.backends import (
    ColumnStore,
    SpillBackend,
    backend_for_config,
    make_backend,
)
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset
from repro.runtime import (
    CheckpointStore,
    ShardStats,
    crash_plan,
    run_campaign,
)
from repro.runtime.shard import ShardColumns
from repro.web.timing import NavigationTiming

BACKENDS = ("memory", "spill")
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
    config = replace(
        storage_config(seed, backend, tmp_path, n_workers=4),
        checkpoint_dir=str(tmp_path / "ckpt"),
        max_shard_retries=1,
        retry_backoff_s=0.01,
    )
    with pytest.raises(ShardFailedError):
        run_campaign(config, fault_plan=crash_plan([1], attempts=(0, 1)))
    dataset, stats = run_campaign(config, resume=True)
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


def test_spill_manifest_binds_each_segment_to_its_file(tmp_path):
    """A segment that is valid on its own but is not the file its
    manifest entry recorded (stale or swapped, same record count) is
    refused, naming the overwritten file."""
    backend = SpillBackend(directory=str(tmp_path), segment_records=8)
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads([_page_load(i) for i in range(16)])
    dataset.flush()
    first, second = backend._segments["page_loads"]
    assert first["n"] == second["n"] == 8
    (tmp_path / second["file"]).write_bytes((tmp_path / first["file"]).read_bytes())
    with pytest.raises(DatasetError, match=second["file"]) as excinfo:
        Dataset(backend=SpillBackend.open(str(tmp_path))).page_loads
    assert "stale or swapped" in str(excinfo.value)
    with pytest.raises(DatasetError, match=second["file"]):
        SpillBackend.open(str(tmp_path), verify=True)


def test_spill_segments_are_checksummed_containers(tmp_path):
    """A spill segment is the container a checkpoint segment is: it
    reads back through ``columnar.read_checksummed_npz`` against the
    digest its manifest entry recorded."""
    backend = SpillBackend(directory=str(tmp_path), segment_records=8)
    records = [_page_load(i) for i in range(8)]
    backend.extend_page_loads(records)
    backend.flush()
    (entry,) = backend._segments["page_loads"]
    assert set(entry) == {"file", "n", "sha256"}
    assert not entry["file"].endswith(".npz")
    arrays, meta = columnar.read_checksummed_npz(
        str(tmp_path / entry["file"]), ("t_s",), entry["sha256"]
    )
    assert list(arrays) == ["t_s"] and meta == {"n": 8}
    np.testing.assert_array_equal(arrays["t_s"], [r.t_s for r in records])


def test_spill_open_refuses_a_version_1_manifest(tmp_path):
    """Version 1 manifests listed bare npz segments; opening one fails
    with the unsupported-version error naming the version."""
    (tmp_path / "manifest.json").write_text(
        '{"version": 1, "segment_records": 4, "kinds": {}}', encoding="utf-8"
    )
    with pytest.raises(DatasetError, match="unsupported spill manifest version 1"):
        SpillBackend.open(str(tmp_path))


def test_jsonl_round_trip_across_backends(tmp_path):
    source = Dataset(
        backend=make_backend("spill", directory=str(tmp_path / "a"), segment_records=4)
    )
    source.extend_page_loads([_page_load(i) for i in range(9)])
    source.extend_speedtests([_speedtest(i) for i in range(3)])
    path = tmp_path / "dataset.jsonl"
    source.to_jsonl(path)
    loaded = Dataset.from_jsonl(
        path, backend=make_backend("memory", segment_records=4)
    )
    assert loaded.page_loads == source.page_loads
    assert loaded.speedtests == source.speedtests


def test_backend_for_config_kinds(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    monkeypatch.delenv("REPRO_STORAGE_DIR", raising=False)
    memory = backend_for_config(CampaignConfig(**CFG))
    assert type(memory) is ColumnStore and memory.name == "memory"
    spill = backend_for_config(
        CampaignConfig(**CFG, storage="spill", storage_dir=str(tmp_path))
    )
    assert isinstance(spill, SpillBackend)
    assert spill.directory == str(tmp_path)


def test_config_rejects_bad_storage():
    for name in ("bogus", "columnar"):
        with pytest.raises(ConfigurationError):
            CampaignConfig(**CFG, storage=name)
    with pytest.raises(ConfigurationError):
        CampaignConfig(**CFG, storage_segment_records=0)
    with pytest.raises(ConfigurationError):
        make_backend("bogus")


# -- atomic writes ------------------------------------------------------


class _TornWriter:
    """A file handle whose first write stores half its bytes and fails."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)

    def write(self, data: bytes) -> int:
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "injected: no space left on device")


def _fail_atomic_write(monkeypatch, step: str, target: str) -> None:
    """Make the ``write``, ``fsync`` or ``replace`` step of the atomic
    write of ``target`` raise; every other file is written normally."""
    real_open, real_fsync, real_replace = open, os.fsync, os.replace
    temp_fds: set[int] = set()

    def fake_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if str(path).startswith(f"{target}.tmp."):
            temp_fds.add(handle.fileno())
            if step == "write":
                return _TornWriter(handle)
        return handle

    def fake_fsync(fd):
        if step == "fsync" and fd in temp_fds:
            raise OSError(errno.EIO, "injected: fsync failed")
        return real_fsync(fd)

    def fake_replace(src, dst):
        if step == "replace" and dst == target:
            raise OSError(errno.EXDEV, "injected: replace failed")
        return real_replace(src, dst)

    monkeypatch.setattr(columnar, "open", fake_open, raising=False)
    monkeypatch.setattr(os, "fsync", fake_fsync)
    monkeypatch.setattr(os, "replace", fake_replace)


def _rewrite(writer: str, tmp_path):
    """``(target, rewrite)``: a file ``writer`` already wrote, and a call
    that rewrites it with different bytes."""
    if writer == "container":
        path = str(tmp_path / "segment.ckpt")
        columnar.write_checksummed_npz(path, {"x": np.arange(3)}, {"v": 1})
        arrays = {"x": np.arange(5)}
        return path, lambda: columnar.write_checksummed_npz(path, arrays, {"v": 2})
    if writer == "checkpoint":
        shard = ShardColumns()
        shard.add(0, [_page_load(0)], [_speedtest(0)])
        result = shard.result(0, ShardStats(shard_id=0, n_users=1))
        store = CheckpointStore(str(tmp_path), CampaignConfig(**CFG, seed=11))
        path = store.save(result)
        retried = replace(result, stats=replace(result.stats, attempts=2))
        return path, lambda: store.save(retried)
    backend = SpillBackend(directory=str(tmp_path), segment_records=4)
    backend.extend_page_loads([_page_load(i) for i in range(6)])
    backend.flush()
    backend.extend_page_loads([_page_load(i) for i in range(6, 9)])
    return os.path.join(str(tmp_path), SpillBackend.MANIFEST), backend.flush


@pytest.mark.parametrize("step", ("write", "fsync", "replace"))
@pytest.mark.parametrize("writer", ("container", "checkpoint", "spill"))
def test_failed_atomic_write_leaves_old_file_and_no_temp(
    writer, step, tmp_path, monkeypatch
):
    """The checksummed container, the checkpoint store and the spill
    manifest share one atomic write: when its write, fsync or replace
    raises, the error propagates, the file already at the path keeps
    its bytes and no ``.tmp.`` file remains."""
    target, rewrite = _rewrite(writer, tmp_path)
    before = Path(target).read_bytes()
    _fail_atomic_write(monkeypatch, step, target)
    with pytest.raises(OSError, match="injected"):
        rewrite()
    monkeypatch.undo()
    assert Path(target).read_bytes() == before
    assert [p.name for p in tmp_path.rglob("*.tmp.*")] == []


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


# -- exact aggregates: column fold vs the record scan --------------------

MATRIX_CITIES = ("london", "seattle", "sydney")
MATRIX_ISPS = ("starlink", "broadband", "cellular")

#: Every ``select`` filter alone, two combinations, no filter, and an
#: empty selection.  ``t_max=120.0`` meets a record at exactly 120 s,
#: which must stay out; ``domain_in`` comes as a set and a frozenset.
MATRIX_FILTERS = (
    {"city": "london"},
    {"is_starlink": False},
    {"isp": "cellular"},
    {"popular": True},
    {"t_min": 50.0},
    {"t_max": 120.0},
    {"domain_in": {"site-1.example", "site-4.example"}},
    {"city": "seattle", "is_starlink": True, "popular": False},
    {
        "isp": "broadband",
        "t_min": 30.0,
        "t_max": 200.0,
        "domain_in": frozenset({"site-1.example", "site-3.example"}),
    },
    {},
    {"city": "warsaw"},
)


def _matrix_record(i: int) -> PageLoadRecord:
    isp = MATRIX_ISPS[i % 3]
    return PageLoadRecord(
        user_id=f"u-{i % 4}",
        city=MATRIX_CITIES[(i // 2) % 3],
        region="region",
        isp=isp,
        is_starlink=isp == "starlink",
        exit_asn=14593,
        # A NaN timestamp falls on the keep side of both time bounds.
        t_s=float("nan") if i == 7 else 10.0 * i,
        domain=f"site-{i % 6}.example",
        rank=i,
        is_popular=i % 4 < 2,
        # (7 i mod 23) permutes 0..22: every PTT differs, out of t order.
        timing=NavigationTiming(
            *(0.001 * ((7 * i) % 23 + 1) * (j + 1) for j in range(8))
        ),
    )


def _record_scan(records, **filters) -> tuple:
    """(#req, #domain, median PTT or None) by a plain scan of records."""
    city = filters.get("city")
    is_starlink = filters.get("is_starlink")
    isp = filters.get("isp")
    popular = filters.get("popular")
    t_min = filters.get("t_min")
    t_max = filters.get("t_max")
    domain_in = filters.get("domain_in")
    kept = [
        r
        for r in records
        if (city is None or r.city == city)
        and (is_starlink is None or r.is_starlink == is_starlink)
        and (isp is None or r.isp == isp)
        and (popular is None or r.is_popular == popular)
        and (t_min is None or not r.t_s < t_min)
        and (t_max is None or not r.t_s >= t_max)
        and (domain_in is None or r.domain in domain_in)
    ]
    ptts = sorted(r.ptt_ms for r in kept)
    middle = len(ptts) // 2
    if not ptts:
        median = None
    elif len(ptts) % 2:
        median = ptts[middle]
    else:
        median = 0.5 * (ptts[middle - 1] + ptts[middle])
    return len(kept), len({r.domain for r in kept}), median


def _matrix_dataset(kind: str, records, tmp_path) -> Dataset:
    """``kind``'s dataset of ``records`` in segments of 4: memory and
    spill keep 3 staged records; ``spill-reopened`` is flushed and read
    back through ``SpillBackend.open``."""
    backend = make_backend(
        kind.split("-")[0], directory=str(tmp_path / "segments"), segment_records=4
    )
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads(records)
    if kind == "spill-reopened":
        dataset.flush()
        return Dataset(backend=SpillBackend.open(str(tmp_path / "segments")))
    return dataset


@pytest.mark.parametrize("kind", BACKENDS + ("spill-reopened",))
def test_exact_aggregates_match_record_scan(kind, tmp_path):
    """#req, #domain and median PTT equal a plain record scan, value and
    Python type, for every filter on every backend (each folds masked
    column chunks, including the staged tail)."""
    records = [_matrix_record(i) for i in range(23)]
    dataset = _matrix_dataset(kind, records, tmp_path)
    staged = dataset.backend._staging["page_loads"]
    assert len(staged) == (3 if kind in ("memory", "spill") else 0)
    sizes = []
    for filters in MATRIX_FILTERS:
        n, domains, median = _record_scan(records, **filters)
        sizes.append(n)
        count = dataset.request_count(**filters)
        distinct = dataset.unique_domains(**filters)
        assert (count, distinct) == (n, domains), filters
        assert type(count) is int and type(distinct) is int, filters
        if median is None:
            with pytest.raises(DatasetError):
                dataset.median_ptt_ms(**filters)
            continue
        value = dataset.median_ptt_ms(**filters)
        assert value == median and type(value) is float, filters
    # The matrix itself covers what it claims to.
    assert sizes[-1] == 0 and all(sizes[:-1])
    assert any(n % 2 == 0 for n in sizes[:-1])
    assert any(r.t_s == MATRIX_FILTERS[5]["t_max"] for r in records)
