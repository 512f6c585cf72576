"""Campaign-timeline tests."""

from repro import timeline


def test_campaign_start_is_zero():
    assert timeline.date_to_t(2021, 12, 1) == 0.0


def test_one_day_is_86400():
    assert timeline.date_to_t(2021, 12, 2) == 86_400.0


def test_roundtrip_datetime():
    t = timeline.date_to_t(2022, 3, 15, 12, 30)
    dt = timeline.t_to_datetime(t)
    assert (dt.year, dt.month, dt.day, dt.hour, dt.minute) == (2022, 3, 15, 12, 30)


def test_isoformat():
    assert timeline.t_to_isoformat(0.0) == "2021-12-01 00:00"


def test_as_switch_ordering():
    # London switched (Feb) before Sydney (Apr).
    assert timeline.LONDON_AS_SWITCH_T < timeline.SYDNEY_AS_SWITCH_T


def test_figure_6b_window_is_april():
    dt = timeline.t_to_datetime(timeline.FIGURE_6B_START_T)
    assert (dt.year, dt.month, dt.day) == (2022, 4, 11)


def test_campaign_duration_covers_switches():
    assert timeline.SYDNEY_AS_SWITCH_T < timeline.CAMPAIGN_DURATION_S
