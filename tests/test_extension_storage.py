"""Dataset storage, querying and persistence tests."""

import pytest

from repro.errors import DatasetError
from repro.experiments import table3
from repro.extension.backends import make_backend
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset
from repro.web.timing import NavigationTiming


def _timing(scale=1.0):
    return NavigationTiming(
        redirect_s=0.0,
        dns_s=0.01 * scale,
        connect_s=0.03 * scale,
        tls_s=0.03 * scale,
        request_s=0.05 * scale,
        response_s=0.08 * scale,
        dom_s=0.2,
        render_s=0.1,
    )


def _record(user="u-1", city="london", starlink=True, t=100.0, rank=50, scale=1.0):
    return PageLoadRecord(
        user_id=user,
        city=city,
        region="UK",
        isp="starlink" if starlink else "broadband",
        is_starlink=starlink,
        exit_asn=14593,
        t_s=t,
        domain=f"site-{rank}.example",
        rank=rank,
        is_popular=rank <= 200,
        timing=_timing(scale),
    )


def _fill(ds):
    ds.add_page_load(_record(user="u-1", t=10.0, rank=50, scale=1.0))
    ds.add_page_load(_record(user="u-1", t=20.0, rank=5000, scale=2.0))
    ds.add_page_load(_record(user="u-2", city="seattle", t=30.0, scale=1.5))
    ds.add_page_load(_record(user="u-3", starlink=False, t=40.0, scale=3.0))
    ds.add_speedtest(
        SpeedtestRecord(
            user_id="u-1",
            city="london",
            isp="starlink",
            is_starlink=True,
            t_s=50.0,
            download_mbps=120.0,
            upload_mbps=11.0,
            ping_ms=140.0,
        )
    )
    return ds


@pytest.fixture()
def dataset():
    return _fill(Dataset())


def test_select_by_city(dataset):
    assert len(dataset.select(city="london")) == 3
    assert len(dataset.select(city="seattle")) == 1


def test_select_by_starlink(dataset):
    assert len(dataset.select(is_starlink=True)) == 3
    assert len(dataset.select(is_starlink=False)) == 1


def test_select_by_popularity(dataset):
    assert len(dataset.select(popular=True)) == 3
    assert len(dataset.select(popular=False)) == 1


def test_select_time_window(dataset):
    assert len(dataset.select(t_min=15.0, t_max=35.0)) == 2


def test_select_by_domain(dataset):
    assert len(dataset.select(domain_in={"site-50.example"})) == 3


def test_median_ptt(dataset):
    values = sorted(r.ptt_ms for r in dataset.select(city="london"))
    assert dataset.median_ptt_ms(city="london") == values[1]


def test_median_of_empty_selection_raises(dataset):
    with pytest.raises(DatasetError):
        dataset.median_ptt_ms(city="warsaw")


def test_unique_domains(dataset):
    assert dataset.unique_domains(city="london") == 2


def test_speedtest_medians(dataset):
    assert table3.fold(dataset, ("london",)) == {"london": (1, 120.0, 11.0)}
    with pytest.raises(DatasetError):
        table3.fold(dataset, ("seattle",))


def test_delete_user(dataset):
    removed = dataset.delete_user("u-1")
    assert removed == 3  # 2 page loads + 1 speedtest
    assert all(r.user_id != "u-1" for r in dataset.page_loads)
    assert all(r.user_id != "u-1" for r in dataset.speedtests)


def test_jsonl_roundtrip(dataset, tmp_path):
    path = tmp_path / "records.jsonl"
    dataset.to_jsonl(path)
    loaded = Dataset.from_jsonl(path)
    assert len(loaded.page_loads) == len(dataset.page_loads)
    assert len(loaded.speedtests) == len(dataset.speedtests)
    original = dataset.page_loads[0]
    restored = loaded.page_loads[0]
    assert restored.user_id == original.user_id
    assert restored.ptt_ms == pytest.approx(original.ptt_ms)
    assert restored.timing == original.timing


def test_jsonl_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "mystery"}\n')
    with pytest.raises(DatasetError):
        Dataset.from_jsonl(path)


def test_stored_records_contain_no_forbidden_fields(dataset, tmp_path):
    import json

    from repro.extension.privacy import contains_forbidden_fields

    path = tmp_path / "records.jsonl"
    dataset.to_jsonl(path)
    for line in path.read_text().splitlines():
        assert not contains_forbidden_fields(json.loads(line))


#: Records per chunk/segment: columnar holds one compacted chunk plus a
#: staged page load, spill two flushed segments plus a staged speedtest.
SEGMENT_RECORDS = {"columnar": 3, "spill": 2}


class TestColumnStoredBackends:
    """The tests above on the backends that store columns, where the
    aggregates fold column chunks instead of scanning records (the
    module-level runs are the ``memory`` backend's, ids unchanged)."""

    @pytest.fixture(params=sorted(SEGMENT_RECORDS))
    def dataset(self, request, tmp_path):
        backend = make_backend(
            request.param,
            directory=str(tmp_path / "segments"),
            segment_records=SEGMENT_RECORDS[request.param],
        )
        return _fill(Dataset(backend=backend))

    test_select_by_city = staticmethod(test_select_by_city)
    test_select_by_starlink = staticmethod(test_select_by_starlink)
    test_select_by_popularity = staticmethod(test_select_by_popularity)
    test_select_time_window = staticmethod(test_select_time_window)
    test_select_by_domain = staticmethod(test_select_by_domain)
    test_median_ptt = staticmethod(test_median_ptt)
    test_median_of_empty_selection_raises = staticmethod(
        test_median_of_empty_selection_raises
    )
    test_unique_domains = staticmethod(test_unique_domains)
    test_speedtest_medians = staticmethod(test_speedtest_medians)
    test_delete_user = staticmethod(test_delete_user)
    test_jsonl_roundtrip = staticmethod(test_jsonl_roundtrip)
    test_stored_records_contain_no_forbidden_fields = staticmethod(
        test_stored_records_contain_no_forbidden_fields
    )
