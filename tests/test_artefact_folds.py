"""The dataset artefacts' column folds against the record path.

Tables 1 and 3 and Figures 3 and 4 each compute their cells in one
grouped pass over column chunks (``repro.analysis.streaming.
group_columns``).  These tests hold each fold to an oracle built from
records: ``Dataset.select``/``select_speedtests`` plus
``detect_as_switch_time``, ``split_around``, ``ptt_by_condition`` and
``_median``.  Values and Python types must be equal on every backend,
including column-stored chunks with a staged tail and a reopened spill
directory, and so must the order of each group's values (Figure 3's
ECDF bytes, Figure 4's ``mean``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.aschange import detect_as_switch_time, split_around
from repro.analysis.stats import ecdf
from repro.analysis.weatherjoin import ptt_by_condition
from repro.constants import AS_GOOGLE, AS_SPACEX
from repro.errors import ConfigurationError, DatasetError
from repro.experiments import figure3, figure4, table1, table3
from repro.extension.backends import SpillBackend, make_backend
from repro.extension.records import PageLoadRecord, SpeedtestRecord
from repro.extension.storage import Dataset, _median
from repro.timeline import LONDON_AS_SWITCH_T, SYDNEY_AS_SWITCH_T
from repro.weather.conditions import WEATHER_CONDITIONS
from repro.weather.history import WeatherHistory
from repro.web.timing import NavigationTiming
from repro.web.tranco import GOOGLE_SERVICE_DOMAINS

DAY = 86_400.0
#: London's first SpaceX-AS page load: nine days before the expected one,
#: so a fold that skipped detection would split elsewhere.
LONDON_SWITCH_T = LONDON_AS_SWITCH_T - 9 * DAY
#: The weather history Figure 4 joins against; it covers every record.
HISTORY_S = 140 * DAY
DOMAINS = (*sorted(GOOGLE_SERVICE_DOMAINS), "bbc.co.uk", "example.org")
TERRESTRIAL_ASN = 2856
SEGMENT_RECORDS = 16
KINDS = ("memory", "spill", "spill-reopened")


def _spread(start: float, end: float, n: int) -> list[float]:
    return [start + (end - start) * (k + 0.5) / n for k in range(n)]


def _page_loads() -> list[PageLoadRecord]:
    """Page loads of five cities, shuffled out of time and city order.

    London (Starlink) switches AS at ``LONDON_SWITCH_T`` and has only 3
    unpopular loads after it; Sydney (Starlink) never leaves SpaceX's
    AS; Warsaw has no Starlink loads at all.
    """
    specs = []  # (city, is_starlink, exit_asn, t_s, is_popular)
    for popular, n in ((True, 12), (False, 7)):
        for t_s in _spread(0.0, LONDON_SWITCH_T, n):
            specs.append(("london", True, AS_GOOGLE, t_s, popular))
    specs.append(("london", True, AS_SPACEX, LONDON_SWITCH_T, True))
    for popular, n in ((True, 8), (False, 3)):
        for t_s in _spread(LONDON_SWITCH_T, 130 * DAY, n):
            specs.append(("london", True, AS_SPACEX, t_s, popular))
    for popular, before, after in ((True, 6, 5), (False, 2, 5)):
        for t_s in _spread(0.0, SYDNEY_AS_SWITCH_T, before):
            specs.append(("sydney", True, AS_SPACEX, t_s, popular))
        for t_s in _spread(SYDNEY_AS_SWITCH_T, 130 * DAY, after):
            specs.append(("sydney", True, AS_SPACEX, t_s, popular))
    for city, n_starlink, n_other in (
        ("london", 0, 8),
        ("seattle", 7, 4),
        ("sydney", 0, 3),
        ("warsaw", 0, 3),
    ):
        for k, t_s in enumerate(_spread(0.0, 130 * DAY, n_starlink + n_other)):
            starlink = k < n_starlink
            asn = AS_SPACEX if starlink else TERRESTRIAL_ASN
            specs.append((city, starlink, asn, t_s, k % 2 == 0))
    order = np.random.default_rng(16).permutation(len(specs))
    records = []
    for i, index in enumerate(order):
        city, starlink, asn, t_s, popular = specs[index]
        records.append(
            PageLoadRecord(
                user_id=f"u-{i % 5}",
                city=city,
                region="region",
                isp="starlink" if starlink else "broadband",
                is_starlink=starlink,
                exit_asn=asn,
                t_s=t_s,
                domain=DOMAINS[i % len(DOMAINS)],
                rank=i,
                is_popular=popular,
                timing=NavigationTiming(
                    *np.random.default_rng(i).uniform(0.001, 0.3, 8).tolist()
                ),
            )
        )
    return records


def _speedtests() -> list[SpeedtestRecord]:
    """London and Seattle Starlink tests (9 and an even 6), plus
    non-Starlink tests in London and Toronto."""
    specs = [("london", True)] * 9 + [("seattle", True)] * 6
    specs += [("london", False)] * 2 + [("toronto", False)] * 3
    order = np.random.default_rng(3).permutation(len(specs))
    draws = np.random.default_rng(4).uniform(1.0, 200.0, (len(specs), 3))
    return [
        SpeedtestRecord(
            user_id=f"u-{i % 5}",
            city=specs[index][0],
            isp="starlink" if specs[index][1] else "broadband",
            is_starlink=specs[index][1],
            t_s=1000.0 * i,
            download_mbps=float(draws[i, 0]),
            upload_mbps=float(draws[i, 1]),
            ping_ms=float(draws[i, 2]),
        )
        for i, index in enumerate(order)
    ]


PAGE_LOADS = _page_loads()
SPEEDTESTS = _speedtests()


def _dataset(kind: str, tmp_path) -> Dataset:
    """``kind``'s dataset in column chunks of 16 records: memory and
    spill keep a staged tail of each record kind; ``spill-reopened`` is
    flushed and read back through ``SpillBackend.open``."""
    backend = make_backend(
        kind.split("-")[0],
        directory=str(tmp_path / "segments"),
        segment_records=SEGMENT_RECORDS,
    )
    dataset = Dataset(backend=backend)
    dataset.extend_page_loads(PAGE_LOADS)
    dataset.extend_speedtests(SPEEDTESTS)
    if kind == "spill-reopened":
        dataset.flush()
        return Dataset(backend=SpillBackend.open(str(tmp_path / "segments")))
    return dataset


def _typed(value) -> tuple:
    """A value with its Python type, element by element."""
    if isinstance(value, tuple):
        return tuple(_typed(item) for item in value)
    return (type(value), value)


def _figure3_oracle(records, city: str) -> tuple:
    """Figure 3's (switch time, curves) by the record path."""
    switch_t = detect_as_switch_time(records)
    split_t = switch_t if switch_t else figure3.EXPECTED_SWITCH_T[city]
    before, after = split_around(records, split_t)
    curves = {}
    for era, subset in (("google", before), ("spacex", after)):
        for klass, popular in (("popular", True), ("unpopular", False)):
            ptts = [r.ptt_ms for r in subset if r.is_popular == popular]
            if len(ptts) >= figure3.MIN_SAMPLES:
                curves[(klass, era)] = ptts
    return switch_t, curves


@pytest.mark.parametrize("kind", KINDS)
def test_artefact_folds_match_record_path(kind, tmp_path):
    dataset = _dataset(kind, tmp_path)
    assert len(list(dataset.iter_page_load_column_chunks(("t_s",)))) > 1
    if kind in ("memory", "spill"):
        staged = dataset.backend._staging
        assert staged["page_loads"] and staged["speedtests"]

    # Table 1: (#req, #domain, median PTT) per city and class.
    cells = table1.fold(dataset)
    assert list(cells) == [(c, s) for c in table1.CITIES for s in (True, False)]
    for (city, starlink), cell in cells.items():
        records = dataset.select(city=city, is_starlink=starlink)
        expected = (
            len(records),
            len({r.domain for r in records}),
            _median([r.ptt_ms for r in records]),
        )
        assert _typed(cell) == _typed(expected), (city, starlink)
    assert any(cell[0] % 2 == 0 for cell in cells.values())  # an even median
    assert not dataset.select(city="warsaw", is_starlink=True)
    with pytest.raises(DatasetError):
        table1.fold(dataset, ("warsaw",))

    # Table 3: (n, DL median, UL median) of each city's Starlink tests.
    cities = ("london", "seattle")
    for city, cell in table3.fold(dataset, cities).items():
        tests = dataset.select_speedtests(city=city, is_starlink=True)
        expected = (
            len(tests),
            _median([t.download_mbps for t in tests]),
            _median([t.upload_mbps for t in tests]),
        )
        assert _typed(cell) == _typed(expected), city
    assert dataset.select_speedtests(city="toronto")
    with pytest.raises(DatasetError, match="toronto"):
        table3.fold(dataset, ("toronto",))

    # Figure 3: the detected switch, the era split and each curve's
    # PTTs in append order, so the ECDF arrays match byte for byte.
    folded = figure3.fold(dataset)
    assert list(folded) == list(figure3.CITIES)
    for city, (switch_t, curves) in folded.items():
        records = dataset.select(city=city, is_starlink=True)
        expected_switch, expected_curves = _figure3_oracle(records, city)
        assert _typed(switch_t) == _typed(expected_switch), city
        assert list(curves) == list(expected_curves), city
        for key, ptts in expected_curves.items():
            assert curves[key].tolist() == ptts, (city, key)
            for got, want in zip(ecdf(curves[key]), ecdf(ptts)):
                assert got.tobytes() == want.tobytes(), (city, key)
    assert folded["london"][0] == LONDON_SWITCH_T
    # Three unpopular London loads after the switch: under the floor.
    assert ("unpopular", "spacex") not in folded["london"][1]
    # Sydney never switches, so its curves split at the expected time.
    assert folded["sydney"][0] is None
    assert {era for _, era in folded["sydney"][1]} == {"google", "spacex"}
    with pytest.raises(DatasetError):
        figure3.fold(dataset, ("warsaw",))

    # Figure 4: per-condition Summary, mean included (order-dependent).
    weather = WeatherHistory(seed=3, duration_s=HISTORY_S)
    summaries = figure4.fold(dataset, weather)
    records = dataset.select(
        city="london", is_starlink=True, domain_in=set(GOOGLE_SERVICE_DOMAINS)
    )
    expected = ptt_by_condition(records, weather, "london")
    assert list(summaries) == list(expected)
    for condition, summary in summaries.items():
        fields = summary.__dataclass_fields__
        got = [_typed(getattr(summary, name)) for name in fields]
        want = [_typed(getattr(expected[condition], name)) for name in fields]
        assert got == want, condition
    counts = {c: 0 for c in WEATHER_CONDITIONS}
    for record in records:
        counts[weather.condition_at("london", record.t_s)] += 1
    dropped = [c for c, n in counts.items() if 0 < n < figure4.MIN_SAMPLES]
    assert dropped and not set(dropped) & set(summaries)


@pytest.mark.parametrize("t_s", [-1.0, HISTORY_S + 1.0], ids=["negative", "past-end"])
def test_figure4_fold_rejects_uncovered_page_loads(t_s):
    """A page load outside the weather history raises, as
    ``condition_at`` does, instead of reading a wrapped or clamped hour."""
    weather = WeatherHistory(seed=3, duration_s=HISTORY_S)
    with pytest.raises(ConfigurationError) as expected:
        weather.condition_at("london", t_s)
    dataset = Dataset()
    dataset.extend_page_loads(PAGE_LOADS)
    dataset.add_page_load(
        replace(
            PAGE_LOADS[0],
            city="london",
            is_starlink=True,
            domain="google.com",
            t_s=t_s,
        )
    )
    with pytest.raises(ConfigurationError) as raised:
        figure4.fold(dataset, weather)
    assert str(raised.value) == str(expected.value)
