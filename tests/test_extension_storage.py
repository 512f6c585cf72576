"""Dataset storage, querying and persistence tests."""

import json
import re

import pytest

from repro.errors import DatasetError
from repro.experiments import table3
from repro.extension.backends import make_backend
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset, page_load_to_dict
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


#: Values the column codec would coerce instead of storing: ``None`` in
#: a string field (``'None'``), a float in an int field (``1``), a
#: string in a bool field (``True``), a trailing NUL (dropped), and JSON
#: booleans or strings in number fields.
UNSTORABLE = (
    ("user_id", None),
    ("rank", 1.5),
    ("is_popular", "no"),
    ("user_id", "u\x00"),
    ("rank", True),
    ("t_s", False),
    ("timing.dns_s", "0.01"),
)


@pytest.mark.parametrize("backend", ("memory", "spill"))
@pytest.mark.parametrize("field, value", UNSTORABLE)
def test_jsonl_rejects_values_the_columns_would_coerce(backend, field, value, tmp_path):
    row = page_load_to_dict(_record(user="u-2"))
    if field.startswith("timing."):
        row["timing"][field.removeprefix("timing.")] = value
    else:
        row[field] = value
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(page_load_to_dict(_record())), json.dumps(row)]
    path.write_text("\n".join(lines) + "\n")
    backend = make_backend(backend, directory=str(tmp_path / "segments"))
    with pytest.raises(DatasetError, match=rf"line 2: field '{re.escape(field)}'"):
        Dataset.from_jsonl(path, backend=backend)


def test_jsonl_accepts_an_integer_for_a_float_field(tmp_path):
    row = page_load_to_dict(_record(t=100.0))
    row["t_s"] = 100
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(row) + "\n")
    (loaded,) = Dataset.from_jsonl(path).page_loads
    assert loaded == _record(t=100.0) and type(loaded.t_s) is float


def test_jsonl_names_missing_and_unknown_fields(tmp_path):
    path = tmp_path / "records.jsonl"
    row = page_load_to_dict(_record())
    del row["timing"]["tls_s"]
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DatasetError, match="line 1: missing field 'timing.tls_s'"):
        Dataset.from_jsonl(path)
    row = page_load_to_dict(_record())
    row["ip"] = "192.0.2.1"
    path.write_text("\n" + json.dumps(row) + "\n")
    with pytest.raises(DatasetError, match="line 2: unknown field 'ip'"):
        Dataset.from_jsonl(path)


#: Records per segment: memory holds one compacted segment plus a
#: staged page load, spill two flushed segments plus a staged speedtest.
SEGMENT_RECORDS = {"memory": 3, "spill": 2}


class TestColumnStoredBackends:
    """The tests above with segments smaller than the dataset, so the
    aggregates fold compacted segments and a staged tail (the
    module-level runs hold every record staged in one ``memory``
    segment)."""

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
