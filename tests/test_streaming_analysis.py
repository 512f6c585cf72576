"""Streaming analytics tests: sketches, segment folds, sketch-reduce.

Covers the tentpole contracts of DESIGN.md §11:

* t-digest rank error stays under 1 % across seeds and distributions;
* merge is associative/commutative within the error bound (property
  tests), so per-shard sketches reduce safely in any order;
* chunked column iteration is bitwise identical to full-column reads
  on every backend, including the derived ``ptt_ms``;
* the ``stream_*`` builders agree with the exact pipeline;
* the sharded sketch-reduce path matches a single-pass fold;
* ``run_experiment(..., analytics="streaming")`` selects the sketch
  path for one run only (the knob's precedence is pinned in
  ``tests/test_knobs.py``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import (
    DistinctAccumulator,
    GroupedAccumulator,
    MomentsAccumulator,
    QuantileSketch,
    stream_as_switch_times,
    stream_ptt_by_condition,
    stream_speedtest_medians,
    stream_table1_stats,
)
from repro.errors import ConfigurationError, DatasetError
from repro.extension.backends import make_backend
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset
from repro.web.timing import NavigationTiming

RANK_TOLERANCE = 0.01  # the 1 % bound the issue and DESIGN.md assert

BACKENDS = ("memory", "columnar", "spill")


def rank_error(sketch: QuantileSketch, exact: np.ndarray, q: float) -> float:
    """Distance from q to the empirical rank of the sketch's q-quantile.

    With ties the estimate's rank is an interval, so the error is the
    distance from q to that interval (zero when q falls inside it).
    """
    estimate = sketch.quantile(q)
    exact = np.sort(exact)
    lo = np.searchsorted(exact, estimate, side="left") / exact.size
    hi = np.searchsorted(exact, estimate, side="right") / exact.size
    if lo <= q <= hi:
        return 0.0
    return min(abs(q - lo), abs(q - hi))


# -- sketch accuracy ----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("distribution", ["normal", "lognormal", "uniform"])
def test_sketch_rank_error_under_one_percent(seed, distribution):
    rng = np.random.default_rng(seed)
    sample = {
        "normal": lambda: rng.normal(500.0, 120.0, 200_000),
        "lognormal": lambda: rng.lognormal(6.0, 0.8, 200_000),
        "uniform": lambda: rng.uniform(0.0, 1000.0, 200_000),
    }[distribution]()
    sketch = QuantileSketch()
    for chunk in np.array_split(sample, 37):  # uneven chunked ingest
        sketch.update(chunk)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert rank_error(sketch, sample, q) <= RANK_TOLERANCE
    # Exact moments never carry sketch error.
    assert sketch.n == sample.size
    assert sketch.moments.min == sample.min()
    assert sketch.moments.max == sample.max()
    assert sketch.moments.mean == pytest.approx(sample.mean(), rel=1e-12)


def test_sketch_quantiles_clamped_to_range_and_validated():
    sketch = QuantileSketch().update(np.arange(1000.0))
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == 999.0
    with pytest.raises(ConfigurationError):
        sketch.quantile(1.5)
    with pytest.raises(DatasetError):
        QuantileSketch().quantile(0.5)
    with pytest.raises(ConfigurationError):
        QuantileSketch(compression=5)


def test_sketch_cdf_inverts_quantiles():
    rng = np.random.default_rng(3)
    sample = rng.normal(0.0, 1.0, 50_000)
    sketch = QuantileSketch().update(sample)
    xs, ps = sketch.cdf_series(n_points=64)
    assert np.all(np.diff(xs) >= 0) and ps[-1] == 1.0
    # cdf(quantile(q)) ~ q
    for q in (0.1, 0.5, 0.9):
        assert float(sketch.cdf([sketch.quantile(q)])[0]) == pytest.approx(
            q, abs=0.01
        )


def test_sketch_memory_stays_bounded():
    sketch = QuantileSketch(compression=200)
    rng = np.random.default_rng(1)
    for _ in range(50):
        sketch.update(rng.normal(0, 1, 10_000))
    assert sketch.n == 500_000
    assert sketch.n_centroids <= 2 * 200  # O(compression), not O(n)


def test_sketch_state_roundtrip_preserves_queries():
    sketch = QuantileSketch().update(np.random.default_rng(2).normal(0, 1, 20_000))
    clone = QuantileSketch.from_state(sketch.to_state())
    for q in (0.05, 0.5, 0.95):
        assert clone.quantile(q) == sketch.quantile(q)
    assert clone.n == sketch.n


# -- merge properties (S4) ----------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(finite_floats, min_size=1, max_size=500),
    st.lists(finite_floats, min_size=1, max_size=500),
)
def test_sketch_merge_commutative_within_bound(a, b):
    a, b = np.asarray(a), np.asarray(b)
    combined = np.concatenate([a, b])
    # The 1 % bound is asymptotic; at tiny n the interpolation between
    # adjacent points dominates, adding at most ~one data gap (1/n).
    tolerance = max(RANK_TOLERANCE, 2.0 / combined.size)
    ab = QuantileSketch().update(a).merge(QuantileSketch().update(b))
    ba = QuantileSketch().update(b).merge(QuantileSketch().update(a))
    for q in (0.25, 0.5, 0.75):
        assert rank_error(ab, combined, q) <= tolerance
        assert rank_error(ba, combined, q) <= tolerance


@settings(max_examples=25, deadline=None)
@given(
    st.lists(finite_floats, min_size=1, max_size=300),
    st.lists(finite_floats, min_size=1, max_size=300),
    st.lists(finite_floats, min_size=1, max_size=300),
)
def test_sketch_merge_associative_within_bound(a, b, c):
    arrays = [np.asarray(x) for x in (a, b, c)]
    combined = np.concatenate(arrays)

    def sketch_of(x):
        return QuantileSketch().update(x)

    left = sketch_of(arrays[0]).merge(sketch_of(arrays[1])).merge(sketch_of(arrays[2]))
    right = sketch_of(arrays[0]).merge(
        sketch_of(arrays[1]).merge(sketch_of(arrays[2]))
    )
    assert left.n == right.n == combined.size
    tolerance = max(RANK_TOLERANCE, 2.0 / combined.size)
    for q in (0.25, 0.5, 0.75):
        assert rank_error(left, combined, q) <= tolerance
        assert rank_error(right, combined, q) <= tolerance


def test_moments_and_distinct_merge_exact():
    a = MomentsAccumulator().update([1.0, 2.0])
    b = MomentsAccumulator().update([3.0, -1.0])
    merged = a.merge(b)
    assert (merged.n, merged.sum, merged.min, merged.max) == (4, 5.0, -1.0, 3.0)
    with pytest.raises(DatasetError):
        MomentsAccumulator().mean
    d = DistinctAccumulator().update(["x", "y"])
    d.merge(DistinctAccumulator().update(["y", "z"]))
    assert d.n == 3
    assert DistinctAccumulator.from_state(d.to_state()).n == 3


def test_grouped_accumulator_update_merge_state():
    grouped = GroupedAccumulator()
    cities = np.array(["london", "sydney", "london", "sydney"])
    starlink = np.array([True, True, False, True])
    values = np.array([1.0, 2.0, 3.0, 4.0])
    domains = np.array(["a.com", "b.com", "a.com", "b.com"])
    grouped.update((cities, starlink), values, distinct=domains)
    assert grouped.keys() == [
        ("london", False),
        ("london", True),
        ("sydney", True),
    ]
    assert grouped.sketch(("sydney", True)).n == 2
    assert grouped.distinct(("sydney", True)).n == 1
    other = GroupedAccumulator()
    other.update((cities[:1], starlink[:1]), values[:1], distinct=domains[:1])
    grouped.merge(other)
    assert grouped.sketch(("london", True)).n == 2
    restored = GroupedAccumulator.from_state(grouped.to_state())
    assert restored.keys() == grouped.keys()
    assert restored.sketch(("sydney", True)).quantile(0.5) == grouped.sketch(
        ("sydney", True)
    ).quantile(0.5)


# -- chunked column iteration (the O(segment) read path) ----------------


def _page_load(i: int) -> PageLoadRecord:
    return PageLoadRecord(
        user_id=f"u-{i % 3}",
        city=("london", "sydney")[i % 2],
        region="r",
        isp="starlink",
        is_starlink=i % 3 != 0,
        exit_asn=14593,
        t_s=float(i),
        domain=f"site-{i % 5}.example",
        rank=i,
        is_popular=i % 2 == 0,
        timing=NavigationTiming(*(0.001 * (i + j) for j in range(8))),
    )


def _speedtest(i: int) -> SpeedtestRecord:
    return SpeedtestRecord(
        user_id="u-0",
        city="london",
        isp="starlink",
        is_starlink=True,
        t_s=float(i),
        download_mbps=100.0 + i,
        upload_mbps=10.0 + i,
        ping_ms=40.0 + i,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_chunk_iteration_bitwise_identical_to_columns(backend, tmp_path):
    dataset = Dataset(
        backend=make_backend(backend, directory=str(tmp_path), segment_records=8)
    )
    dataset.extend_page_loads([_page_load(i) for i in range(37)])
    dataset.extend_speedtests([_speedtest(i) for i in range(11)])
    columns = ("city", "t_s", "ptt_ms", "plt_ms")
    chunks = list(dataset.iter_page_load_column_chunks(columns))
    if backend == "spill":
        assert len(chunks) > 1  # actually segmented
    for name in columns:
        np.testing.assert_array_equal(
            np.concatenate([chunk[name] for chunk in chunks]),
            dataset.page_load_column(name),
        )
    speed_chunks = list(dataset.iter_speedtest_column_chunks(("download_mbps",)))
    np.testing.assert_array_equal(
        np.concatenate([c["download_mbps"] for c in speed_chunks]),
        dataset.speedtest_column("download_mbps"),
    )
    with pytest.raises(DatasetError):
        next(iter(dataset.iter_page_load_column_chunks(("nope",))))
    with pytest.raises(DatasetError):
        next(iter(dataset.iter_page_load_column_chunks(())))


def test_chunk_iteration_empty_dataset_yields_nothing():
    dataset = Dataset()
    assert list(dataset.iter_page_load_column_chunks(("t_s",))) == []
    assert list(dataset.iter_speedtest_column_chunks(("t_s",))) == []


# -- streaming builders vs the exact pipeline ---------------------------


@pytest.fixture(scope="module")
def campaign_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("spill")
    config = CampaignConfig(
        seed=11,
        duration_s=42 * 86_400.0,
        request_fraction=0.1,
        storage="spill",
        storage_dir=str(directory),
        storage_segment_records=256,
    )
    campaign = ExtensionCampaign(config)
    return campaign, campaign.run()


def test_stream_table1_matches_exact(campaign_dataset):
    _, dataset = campaign_dataset
    grouped = stream_table1_stats(dataset)
    for city in ("london", "seattle"):
        for starlink in (True, False):
            records = dataset.select(city=city, is_starlink=starlink)
            if not records:
                continue
            sketch = grouped.sketch((city, starlink))
            assert sketch.n == len(records)
            assert grouped.distinct((city, starlink)).n == len(
                {r.domain for r in records}
            )
            exact = np.sort([r.ptt_ms for r in records])
            estimate = sketch.quantile(0.5)
            rank = np.searchsorted(exact, estimate, side="right") / exact.size
            assert abs(rank - 0.5) <= RANK_TOLERANCE


def test_stream_as_switch_times_matches_exact(campaign_dataset):
    from repro.analysis.aschange import detect_as_switch_time

    _, dataset = campaign_dataset
    cities = sorted(
        {r.city for r in dataset.iter_page_loads() if r.is_starlink}
    )
    switches = stream_as_switch_times(dataset, cities)
    for city in cities:
        records = dataset.select(city=city, is_starlink=True)
        assert switches[city] == detect_as_switch_time(records)
    with pytest.raises(DatasetError):
        stream_as_switch_times(dataset, ["no-such-city"])


def test_stream_ptt_by_condition_matches_exact(campaign_dataset):
    from repro.analysis.weatherjoin import ptt_by_condition

    campaign, dataset = campaign_dataset
    records = dataset.select(city="london", is_starlink=True)
    exact = ptt_by_condition(records, campaign.weather, "london")
    streamed = stream_ptt_by_condition(dataset, campaign.weather, "london")
    assert list(streamed) == list(exact)  # same conditions, severity order
    for condition, summary in streamed.items():
        assert summary.n == exact[condition].n
        assert summary.min == exact[condition].min
        assert summary.max == exact[condition].max
        assert summary.mean == pytest.approx(exact[condition].mean, rel=1e-12)
        if summary.n >= 20:
            assert summary.median == pytest.approx(
                exact[condition].median, rel=0.05
            )


def test_stream_speedtest_medians_matches_exact(campaign_dataset):
    _, dataset = campaign_dataset
    streamed = stream_speedtest_medians(dataset)
    for city, cell in streamed.items():
        tests = dataset.select_speedtests(city=city, is_starlink=True)
        assert cell["n"] == len(tests)
        dl, ul = dataset.median_speedtest_mbps(city, is_starlink=True)
        assert cell["dl"].quantile(0.5) == pytest.approx(dl, rel=0.02)
        assert cell["ul"].quantile(0.5) == pytest.approx(ul, rel=0.02)


# -- sharded sketch-reduce ----------------------------------------------


def test_sketch_reduce_matches_single_pass():
    from repro.runtime import (
        merge_shard_sketches,
        run_campaign,
        run_shard,
        validate_shard_result,
    )

    config = CampaignConfig(
        seed=5,
        duration_s=4 * 86_400.0,
        request_fraction=0.08,
        shell_planes=24,
        shell_sats_per_plane=12,
        precompute_timelines=False,
    )
    (serial, _), _ = run_campaign(config, "sketch")
    (sharded, _), stats = run_campaign(replace(config, n_workers=2), "sketch")
    assert serial.keys() == sharded.keys()
    for key, sketch in serial.items():
        other = sharded.sketch(key)
        assert other.n == sketch.n  # counts exact across sharding
        if sketch.n >= 20:
            assert other.quantile(0.5) == pytest.approx(
                sketch.quantile(0.5), rel=0.02
            )
        assert sharded.distinct(key).n == serial.distinct(key).n
    assert len(stats.shards) == 2

    # The supervisor's validator rejects wrong shapes; the reduce
    # enforces the exactly-once partition.
    result = run_shard(config, 0, [0, 1], task="sketch")
    assert validate_shard_result(result, 0, [0, 1]) is None
    assert validate_shard_result(result, 1, [0, 1]) is not None
    assert validate_shard_result(result, 0, [0, 2]) is not None
    assert validate_shard_result("junk", 0, [0, 1]) is not None
    with pytest.raises(DatasetError):
        merge_shard_sketches([result], expected_indices={0, 1, 2})


# -- mode selection ------------------------------------------------------


def test_run_experiment_scopes_analytics_env(monkeypatch):
    import os

    from repro.experiments import run_experiment

    monkeypatch.delenv("REPRO_ANALYTICS", raising=False)
    result = run_experiment(
        "table1", scale=0.05, analytics="streaming"
    )
    assert "Analytics: streaming" in result.notes
    assert "REPRO_ANALYTICS" not in os.environ  # restored after the run
