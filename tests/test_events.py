"""Event selection, sign/origin classification and label handling."""

import io
import warnings

import numpy as np
import pytest

from volrelax import (
    CRASH,
    RALLY,
    EventLabel,
    EventSet,
    LabelDateUnmatched,
    MalformedRow,
    ReturnSeries,
    VolatilitySeries,
    ZeroReturnEvent,
    apply_labels,
    classify_sign,
    decluster,
    filter_events,
    load_packaged_labels,
    mean_volatility,
    packaged_label_names,
    parse_label_file,
    read_label_file,
    select_events,
)
from volrelax.events import sign_label

from _reference import brute_mean, brute_select_events


def _vol(values, timestamps=None):
    return VolatilitySeries(
        values=np.asarray(values, dtype=np.float64),
        slot_index=np.zeros(len(values), dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
        timestamps=timestamps,
    )


def _returns(values):
    return ReturnSeries(
        values=np.asarray(values, dtype=np.float64),
        slot_index=np.zeros(len(values), dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )


def test_selection_threshold_is_strict():
    # sigma = 2, so m = 2.5 puts the threshold exactly at the largest value.
    vol = _vol([1.0, 1.0, 1.0, 5.0])
    assert len(select_events(vol, 2.5)) == 0
    events = select_events(vol, 2.4)
    np.testing.assert_array_equal(events.indices, [3])
    assert events.zeta_abs == pytest.approx(4.8)
    assert bool(events)
    assert not bool(select_events(vol, 2.5))


def test_selection_requires_multiple_above_one():
    vol = _vol([1.0, 2.0, 3.0])
    for bad in (1.0, 0.5, 0.0):
        with pytest.raises(ValueError):
            select_events(vol, bad)


def test_selection_matches_brute_force():
    rng = np.random.default_rng(21)
    values = rng.exponential(0.01, 5000)
    vol = _vol(values)
    sigma = mean_volatility(vol)
    events = select_events(vol, 2.0)
    expected = brute_select_events(values.tolist(), sigma, 2.0)
    np.testing.assert_array_equal(events.indices, expected)
    np.testing.assert_array_equal(events.magnitudes, values[expected])
    # The independent mean agrees too (different summation order).
    assert brute_mean(values.tolist()) == pytest.approx(sigma, rel=1e-12)


def test_classify_sign():
    returns = _returns([0.5, -0.2, 0.1, -0.9, 0.3])
    vol = _vol(np.abs(returns.values))
    events = classify_sign(select_events(vol, 1.2), returns)
    np.testing.assert_array_equal(events.indices, [0, 3])
    np.testing.assert_array_equal(events.signs, [RALLY, CRASH])
    assert sign_label(events.signs[0]) == "rally"
    assert sign_label(events.signs[1]) == "crash"


def test_classify_rejects_zero_return():
    events = EventSet(
        indices=np.array([1]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([5.0]),
        signs=np.zeros(1, dtype=np.int8),
        origins=np.array(["unlabeled"]),
    )
    with pytest.raises(ZeroReturnEvent):
        classify_sign(events, _returns([0.1, 0.0, 0.2]))


def test_event_set_validation():
    kwargs = dict(
        zeta_multiple=2.0,
        zeta_abs=1.0,
        signs=np.zeros(2, dtype=np.int8),
        origins=np.array(["unlabeled", "unlabeled"]),
    )
    with pytest.raises(ValueError):
        EventSet(indices=np.array([3, 1]), magnitudes=np.array([2.0, 2.0]), **kwargs)
    with pytest.raises(ValueError):
        EventSet(indices=np.array([1, 3]), magnitudes=np.array([2.0, 0.5]), **kwargs)


def test_filter_by_sign_and_origin():
    events = EventSet(
        indices=np.array([0, 4, 9, 12]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([2.0, 3.0, 4.0, 5.0]),
        signs=np.array([CRASH, RALLY, CRASH, RALLY], dtype=np.int8),
        origins=np.array(["endogenous", "endogenous", "exogenous", "exogenous"]),
    )
    np.testing.assert_array_equal(filter_events(events, sign="crash").indices, [0, 9])
    np.testing.assert_array_equal(filter_events(events, origin="exogenous").indices, [9, 12])
    np.testing.assert_array_equal(
        filter_events(events, sign="rally", origin="exogenous").indices, [12]
    )
    # With no filter the events come back as they are, not as a copy.
    assert filter_events(events) is events
    with pytest.raises(ValueError):
        filter_events(events, sign="up")
    with pytest.raises(ValueError):
        filter_events(events, origin="external")


def test_decluster_keeps_first_of_each_cluster():
    events = EventSet(
        indices=np.array([0, 5, 9, 30]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.full(4, 3.0),
        signs=np.zeros(4, dtype=np.int8),
        origins=np.full(4, "unlabeled"),
    )
    thinned = decluster(events, 10)
    np.testing.assert_array_equal(thinned.indices, [0, 30])
    # Separation <= 1 is a no-op.
    np.testing.assert_array_equal(decluster(events, 0).indices, events.indices)
    np.testing.assert_array_equal(decluster(events, 1).indices, events.indices)


def test_parse_label_file():
    text = """\
# comment line
2008-09-19,exogenous,crisis response, with a comma in the note

1997-05-22,Endogenous
"""
    labels = parse_label_file(io.StringIO(text))
    assert len(labels) == 2
    assert labels[0].date == np.datetime64("2008-09-19")
    assert labels[0].origin == "exogenous"
    assert labels[0].note == "crisis response, with a comma in the note"
    assert labels[1].origin == "endogenous"
    assert labels[1].note == ""


def test_parse_label_file_rejects_bad_rows():
    with pytest.raises(MalformedRow):
        parse_label_file(io.StringIO("2008-09-19\n"))
    with pytest.raises(MalformedRow):
        parse_label_file(io.StringIO("not-a-date,exogenous\n"))
    with pytest.raises(MalformedRow):
        parse_label_file(io.StringIO("2008-09-19,mysterious\n"))


_LABELS = "# note\n2008-09-19,exogenous,crisis\n1997-05-22,endogenous\n"


@pytest.mark.parametrize("kind", ["str", "bytes", "file"])
def test_label_file_byte_order_mark_is_dropped(kind, tmp_path):
    def parse(text):
        if kind == "str":
            return parse_label_file(io.StringIO(text))
        if kind == "bytes":
            return parse_label_file(io.BytesIO(text.encode("utf-8")))
        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
        return read_label_file(str(path))

    assert parse("\ufeff" + _LABELS) == parse(_LABELS)
    assert [lab.date for lab in parse("\ufeff" + _LABELS[7:])] == [
        np.datetime64("2008-09-19"), np.datetime64("1997-05-22")
    ]


# Characters str.splitlines() ends a line at, but text mode does not.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
@pytest.mark.parametrize("kind", ["str", "bytes", "file"])
def test_label_note_holding_a_character_text_mode_does_not_end_a_line_at(kind, char, tmp_path):
    text = f"# note\n2008-09-19,exogenous,a{char}b\n"
    if kind == "str":
        labels = parse_label_file(io.StringIO(text))
    elif kind == "bytes":
        labels = parse_label_file(io.BytesIO(text.encode("utf-8")))
    else:
        path = tmp_path / "labels.csv"
        path.write_bytes(text.encode("utf-8"))
        labels = read_label_file(str(path))
    assert labels == [EventLabel(np.datetime64("2008-09-19"), "exogenous", f"a{char}b")]


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_label_file_that_is_not_utf8_names_its_line(eol, tmp_path):
    raw = eol.join([b"# r\xc3\xa9sum\xc3\xa9", b"2008-09-19,exogenous,caf\xe9", b""])
    message = r"^label line 2: byte 0xe9 is not UTF-8$"
    # A byte stream counts lines as a text-mode read does: a lone "\r" ends one too.
    with pytest.raises(MalformedRow, match=message):
        parse_label_file(io.BytesIO(raw))
    with pytest.raises(MalformedRow, match=message):
        parse_label_file(io.BytesIO(b"# a\r2008-09-19,exogenous,caf\xe9\r"))
    path = tmp_path / "labels.csv"
    path.write_bytes(raw)
    with pytest.raises(MalformedRow, match=message):
        read_label_file(str(path))


def test_label_stream_read_partway_names_the_line_from_where_the_parse_began(tmp_path):
    # A bad byte on file line 1501, after one line was read: line 1500 of what
    # the parse read, as parse_price_csv counts.  Counted in the bytes the text
    # stream's decoder held, it was "label line 1224".
    rows = ["# date,origin,note"] + [f"2008-09-{1 + i % 28:02d},exogenous,note {i}" for i in range(2000)]
    rows[1500] += "\udcff"
    path = tmp_path / "labels.csv"
    path.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape"))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        with pytest.raises(MalformedRow, match=r"^label line 1500: byte 0xff is not UTF-8$"):
            parse_label_file(fh)


def test_apply_labels_matches_dates():
    days = (np.datetime64("2001-10-20") + np.arange(6)).astype("datetime64[s]")
    events = EventSet(
        indices=np.array([1, 3]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([3.0, 4.0]),
        signs=np.zeros(2, dtype=np.int8),
        origins=np.full(2, "unlabeled"),
    )
    labels = [EventLabel(date=np.datetime64("2001-10-23"), origin="exogenous")]
    tagged = apply_labels(events, labels, days)
    np.testing.assert_array_equal(tagged.origins, ["endogenous", "exogenous"])


def test_apply_labels_warns_on_unmatched_date():
    days = (np.datetime64("2000-01-03") + np.arange(4)).astype("datetime64[s]")
    events = EventSet(
        indices=np.array([0]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([3.0]),
        signs=np.zeros(1, dtype=np.int8),
        origins=np.full(1, "unlabeled"),
    )
    labels = [EventLabel(date=np.datetime64("1999-12-31"), origin="exogenous")]
    with pytest.warns(LabelDateUnmatched):
        tagged = apply_labels(events, labels, days)
    np.testing.assert_array_equal(tagged.origins, ["endogenous"])


def test_apply_labels_last_one_wins():
    days = (np.datetime64("2000-01-03") + np.arange(2)).astype("datetime64[s]")
    events = EventSet(
        indices=np.array([0]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([3.0]),
        signs=np.zeros(1, dtype=np.int8),
        origins=np.full(1, "unlabeled"),
    )
    labels = [
        EventLabel(date=np.datetime64("2000-01-03"), origin="exogenous"),
        EventLabel(date=np.datetime64("2000-01-03"), origin="endogenous"),
    ]
    tagged = apply_labels(events, labels, days)
    np.testing.assert_array_equal(tagged.origins, ["endogenous"])


def test_apply_labels_requires_calendar():
    events = EventSet(
        indices=np.array([0]),
        zeta_multiple=2.0,
        zeta_abs=1.0,
        magnitudes=np.array([3.0]),
        signs=np.zeros(1, dtype=np.int8),
        origins=np.full(1, "unlabeled"),
    )
    with pytest.raises(ValueError):
        apply_labels(events, [], None)


def test_packaged_label_tables():
    names = packaged_label_names()
    assert "shanghai_composite_daily" in names
    assert "dax_daily" in names
    shanghai = load_packaged_labels("shanghai_composite_daily")
    dax = load_packaged_labels("dax_daily")
    assert len(shanghai) == 9
    assert len(dax) == 16
    assert all(lab.origin == "exogenous" for lab in shanghai + dax)
    with pytest.raises(KeyError):
        load_packaged_labels("nonexistent_table")


def test_labeled_scenario_split():
    """16 daily events, 9 on dates from the packaged table: 9 exo / 7 endo."""
    shanghai = load_packaged_labels("shanghai_composite_daily")
    start = np.datetime64("1992-01-01")
    n = int((np.datetime64("2009-01-01") - start) / np.timedelta64(1, "D"))
    days = (start + np.arange(n)).astype("datetime64[s]")
    values = np.ones(n)
    label_pos = [int((lab.date - start) / np.timedelta64(1, "D")) for lab in shanghai]
    extra_pos = [200, 900, 1800, 2700, 3600, 4500, 5400]
    values[label_pos] = 10.0
    values[extra_pos] = 10.0
    vol = _vol(values, timestamps=days)
    events = select_events(vol, 5.0)
    assert len(events) == 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tagged = apply_labels(events, shanghai, days)
    assert int(np.sum(tagged.origins == "exogenous")) == 9
    assert int(np.sum(tagged.origins == "endogenous")) == 7
