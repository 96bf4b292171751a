"""CSV ingestion, log-returns, volatility and surrogate tests."""

import csv
import dataclasses
import io
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrelax import (
    EmptySeries,
    MalformedRow,
    NonMonotoneTimestamp,
    NonPositivePrice,
    PriceSeries,
    SlotMismatch,
    TooShort,
    VolatilitySeries,
    absolute_volatility,
    log_returns,
    mean_volatility,
    parse_price_csv,
    reverse,
    shuffle_surrogate,
)
from volrelax import series

DAILY_CSV = """\
2000-01-03,100.0
2000-01-04,110.0
2000-01-05,121.0
"""

INTRADAY_CSV = """\
timestamp,price
2000-01-03T09:00:00,100.0
2000-01-03T09:01:00,101.0
2000-01-03T09:02:00,102.0
2000-01-04T09:00:00,103.0
2000-01-04T09:01:00,104.0
2000-01-04T09:02:00,105.0
"""


def _parse(text, **keywords):
    return parse_price_csv(io.StringIO(text), **keywords)


def test_parse_daily_basics():
    prices = _parse(DAILY_CSV)
    assert len(prices) == 3
    assert prices.cadence == "daily"
    assert prices.slots_per_day == 1
    np.testing.assert_array_equal(prices.slot_index, [0, 0, 0])
    np.testing.assert_allclose(prices.prices, [100.0, 110.0, 121.0])
    assert prices.timestamps[0] == np.datetime64("2000-01-03T00:00:00")


def test_parse_header_autodetect():
    with_header = "timestamp,price\n" + DAILY_CSV
    assert len(_parse(with_header)) == 3
    assert len(_parse(DAILY_CSV)) == 3


def test_parse_intraday_slot_grid():
    prices = _parse(INTRADAY_CSV)
    assert prices.cadence == "1min"
    assert prices.slots_per_day == 3
    np.testing.assert_array_equal(prices.slot_index, [0, 1, 2, 0, 1, 2])


def _slots_by_sorting(ts):
    """The slot grid as the sorted distinct times of day: the reference."""
    tod = series._times_of_day(ts)
    grid = np.unique(tod)
    return grid.size, np.searchsorted(grid, tod).astype(np.int32)


_TIMES_OF_DAY = st.sampled_from([0, 1, 34200, 34260, 57540, 86399]) | st.integers(0, 86399)


@given(st.lists(st.tuples(st.integers(-40_000, 40_000), _TIMES_OF_DAY), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_slot_grid_matches_sorted_distinct_times_of_day(stamps):
    # Days before 1970 have negative epoch seconds.
    seconds = np.array([day * 86400 + tod for day, tod in stamps], dtype=np.int64)
    ts = seconds.astype("datetime64[s]")
    n_slots, slot_index = series._assign_slots(ts, "1min", None)
    expected_n, expected_index = _slots_by_sorting(ts)
    if expected_n < 2:
        expected_n, expected_index = 1, np.zeros(ts.size, dtype=np.int32)
    assert n_slots == expected_n
    assert slot_index.dtype == np.int32
    np.testing.assert_array_equal(slot_index, expected_index)


def test_parse_slot_count_conflict():
    with pytest.raises(SlotMismatch):
        _parse(INTRADAY_CSV, slots_per_day=5)


def test_parse_rejects_short_row():
    with pytest.raises(MalformedRow):
        _parse("2000-01-03,100.0\n2000-01-04\n")


def test_parse_rejects_bad_price():
    with pytest.raises(MalformedRow):
        _parse("2000-01-03,100.0\n2000-01-04,oops\n")


def test_parse_rejects_bad_timestamp():
    bad = "2000-01-03,100.0\nnot-a-date,101.0\n"
    with pytest.raises(MalformedRow):
        _parse(bad)


@pytest.mark.parametrize(
    "text",
    [
        "timestamp,price\n2000-01-03,100.0\n2000-01-04,oops\n",
        "2000-01-03,100.0\n\n2000-01-04,oops\n2000-01-05,102.0\n",
        "timestamp,price\r\n2000-01-03,100.0\r\n2000-01-04,oops\r\n",
    ],
)
def test_bad_price_names_its_file_line(text):
    with pytest.raises(MalformedRow, match=r"^line 3: unparseable price 'oops'$"):
        _parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "timestamp,price\n2000-01-03,100.0\nnot-a-date,101.0\n",
        "2000-01-03,100.0\n   \nnot-a-date,101.0\n2000-01-05,102.0\n",
    ],
)
def test_bad_timestamp_names_its_file_line(text):
    with pytest.raises(MalformedRow, match=r"^line 3: unparseable timestamp 'not-a-date'$"):
        _parse(text)


def test_bad_timestamp_among_many_records_names_its_line():
    # Cast to datetime64 all at once, more than 500 stamps of which one did
    # not parse crashed the process under numpy 2.4.
    rows = [f"2000-01-03T{9 + i // 60:02d}:{i % 60:02d}:00,{100 + i}" for i in range(600)]
    rows[300] = "not-a-date,101"
    with pytest.raises(MalformedRow, match=r"^line 301: unparseable timestamp 'not-a-date'$"):
        _parse("\n".join(rows) + "\n")


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ('2000-01-03,100.0\n"2000-\n01-04"\n2000-01-05,101.0\n', 2),
        ('2000-01-03,100.0\n"2000-01-04\n",101.0\n2000-01-05\n', 4),
    ],
)
def test_quoted_record_spanning_lines_keeps_file_lines(text, line):
    with pytest.raises(MalformedRow, match=rf"^line {line}: expected >= 2 fields, got 1$"):
        _parse(text)


@pytest.mark.parametrize(
    ("text", "line"),
    [
        (",100\n2000-01-04,101\n2000-01-05,102\n", 1),
        ("2000-01-03,100\nNaT,101\n2000-01-05,102\n", 2),
        ("2000-01-03,100\n2000-01-04,101\n,102\n", 3),
    ],
)
def test_parse_rejects_nat_timestamp(text, line):
    with pytest.raises(MalformedRow, match=rf"^line {line}: missing timestamp"):
        _parse(text)


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ("2000-01-03,1\n99999999999999999999-01-01,2\n", 2),
        ("timestamp,price\n2000-01-03,1\n2000-01-04,2\n20001-01-05,3\n", 4),
        ("-2000-01-03,1\n2000-01-04,2\n", 1),
        ("2000-01-03,1\n999-01-04T09:30:00,2\n", 2),
        ("-200-01-03,1\n2000-01-04,2\n", 1),
        ('2000-01-03,1\n"99999999999999999999-01-01",2\n', 2),
    ],
)
def test_year_not_four_digits_is_malformed_on_both_paths(text, line):
    # numpy wraps such a year instead of refusing it.
    message = rf"^line {line}: timestamp '.*' has no four-digit year$"
    with pytest.raises(MalformedRow, match=message):
        _parse(text)
    with pytest.raises(MalformedRow, match=message):
        _row_path(text)


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ("0999,1\n999,2\n", 2),
        ("1,100\n2,101\n", 1),
        ("2000-01-03,1\n946857600,2\n", 2),
        ("timestamp,price\n20000103,1\n20000104,2\n", 2),
    ],
)
def test_bare_integer_stamp_is_malformed_on_both_paths(text, line):
    # numpy reads the digits as a year; only a four-digit one is taken.
    message = rf"^line {line}: timestamp '[0-9]+' is a bare integer, not an ISO date or time$"
    with pytest.raises(MalformedRow, match=message):
        _parse(text)
    with pytest.raises(MalformedRow, match=message):
        _row_path(text)


def test_year_only_stamps_still_parse():
    prices = _parse("2000,1\n2001,2\n2002,3\n")
    assert prices.timestamps[2] == np.datetime64("2002-01-01T00:00:00")


@pytest.mark.parametrize("record", [0, 1, 2])
def test_price_series_rejects_nat(record):
    stamps = np.array(["2000-01-03", "2000-01-04", "2000-01-05"], dtype="datetime64[s]")
    stamps[record] = np.datetime64("NaT")
    with pytest.raises(NonMonotoneTimestamp, match=rf"^record {record}: timestamp is NaT"):
        PriceSeries(
            timestamps=stamps,
            prices=np.array([100.0, 101.0, 102.0]),
            cadence="daily",
            slots_per_day=1,
            slot_index=np.zeros(3, dtype=np.int32),
        )


def test_parse_rejects_duplicate_timestamp():
    with pytest.raises(NonMonotoneTimestamp):
        _parse("2000-01-03,100.0\n2000-01-03,101.0\n")


def test_parse_rejects_decreasing_timestamp():
    with pytest.raises(NonMonotoneTimestamp):
        _parse("2000-01-04,100.0\n2000-01-03,101.0\n")


def test_parse_rejects_nonpositive_price():
    with pytest.raises(NonPositivePrice):
        _parse("2000-01-03,100.0\n2000-01-04,0.0\n")
    with pytest.raises(NonPositivePrice):
        _parse("2000-01-03,100.0\n2000-01-04,-3.0\n")
    with pytest.raises(NonPositivePrice):
        _parse("2000-01-03,100.0\n2000-01-04,nan\n")


def test_parse_rejects_single_row():
    with pytest.raises(TooShort):
        _parse("2000-01-03,100.0\n")


def test_parse_extra_columns_and_delimiter():
    # The one layout: the stamp and the price are the first two comma-separated
    # fields, and those after them are ignored, on the column path and on the
    # row path a quote sends the text to.
    text = "timestamp,price,volume\n2000-01-03,100.0,7\n2000-01-04,110.0,8\n"
    quoted = text.replace(",7", ',"7"')
    for t, row_path in ((text, False), (quoted, True)):
        with mock.patch.object(series, "_read_rows", wraps=series._read_rows) as read_rows:
            prices = _parse(t)
        assert read_rows.called == row_path
        np.testing.assert_array_equal(prices.prices, [100.0, 110.0])
        assert prices.timestamps[1] == np.datetime64("2000-01-04")
    # Any other separator leaves a record one field.
    for t in (text, quoted):
        with pytest.raises(MalformedRow, match=r"^line 1: expected >= 2 fields, got 1$"):
            _parse(t.replace(",", ";"))


@pytest.mark.parametrize("slots", [0, -2])
def test_parse_rejects_slots_per_day_below_one(slots):
    with pytest.raises(ValueError, match="^slots_per_day must be >= 1"):
        _parse(INTRADAY_CSV, cadence="1min", slots_per_day=slots)


def _whole_text_rows(raw):
    """The csv.reader row path as it read the whole text before the parse went a
    chunk at a time, frozen as the reference: one header rule and one
    :class:`TooShort` for the file, and a wrong field count anywhere in it
    reported before a bad stamp."""
    ts_strs, px_strs, linenos = [], [], []
    rows = csv.reader(io.StringIO(raw))
    next_line = 1
    try:
        for row in rows:
            lineno, next_line = next_line, rows.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise MalformedRow(f"line {lineno}: expected >= 2 fields, got {len(row)}")
            ts_strs.append(row[0].strip())
            px_strs.append(row[1].strip())
            linenos.append(lineno)
    except csv.Error as exc:
        raise MalformedRow(f"line {rows.line_num}: {exc}") from None
    if ts_strs and not series._parses_as_time(ts_strs[0]):
        ts_strs, px_strs, linenos = ts_strs[1:], px_strs[1:], linenos[1:]
    if len(ts_strs) < 2:
        raise TooShort(f"need at least 2 data rows, got {len(ts_strs)}")
    try:
        ts = np.array(ts_strs, dtype="datetime64[s]")
    except ValueError:
        for s, lineno in zip(ts_strs, linenos):
            if not series._parses_as_time(s):
                raise MalformedRow(f"line {lineno}: unparseable timestamp {s!r}") from None
        raise
    nat = np.flatnonzero(np.isnat(ts))
    if nat.size:
        i = int(nat[0])
        raise MalformedRow(f"line {linenos[i]}: missing timestamp {ts_strs[i]!r}")
    for s, lineno in zip(ts_strs, linenos):
        if not re.match(r"[0-9]{4}(?![0-9])", s):
            why = "is a bare integer, not an ISO date or time" if s.isdigit() else "has no four-digit year"
            raise MalformedRow(f"line {lineno}: timestamp {s!r} {why}")
    try:
        px = np.array(px_strs, dtype=np.float64)
    except ValueError:
        for s, lineno in zip(px_strs, linenos):
            try:
                float(s)
            except ValueError:
                raise MalformedRow(f"line {lineno}: unparseable price {s!r}") from None
        raise
    return ts, px


def _as_read(text):
    """``text`` as a file holding it reads: each "\r\n", "\r" or "\n" made "\n"."""
    return io.StringIO(text, newline=None).read()


def _price_series(ts, px):
    """The series the parse makes of its columns, its cadence and slot grid found from the stamps."""
    cadence = series._infer_cadence(ts)
    return PriceSeries(ts, px, cadence, *series._assign_slots(ts, cadence, None))


def _row_path(text):
    """The whole-text row path on its own, of ``text`` as its file reads it: the reference for the parse."""
    return _price_series(*_whole_text_rows(_as_read(text)))


def _outcome(parse, text):
    """What a parse gives, comparable with ``==``: arrays, or the exception."""
    try:
        s = parse(text)
    except Exception as exc:  # both paths must raise alike
        return type(exc), str(exc)
    return (
        s.cadence,
        s.slots_per_day,
        s.timestamps.dtype,
        s.timestamps.tolist(),
        s.prices.tobytes(),
        s.slot_index.tolist(),
    )


# A time of day followed by blanks reads as a local time zone in the
# column path, which warns; the row path strips the blanks first.  The
# parsed values are the same.
_TZ_WARNING = "ignore:no explicit representation of timezones"


def test_plain_csv_takes_the_column_path(monkeypatch):
    def no_row_path(*args):
        raise AssertionError("plain text went through the row path")

    monkeypatch.setattr(series, "_read_rows", no_row_path)
    text = "timestamp,price,note\r\n\r\n2000-01-03T09:00:00, 100.5 ,a\r\n2000-01-03T09:01:00,101,b\r\n"
    prices = _parse(text)
    np.testing.assert_array_equal(prices.prices, [100.5, 101.0])
    assert prices.timestamps[1] == np.datetime64("2000-01-03T09:01:00")
    assert prices.cadence == "1min"


@pytest.mark.parametrize("chunk_chars", [1, 2, 8])
def test_plain_csv_takes_the_column_path_in_tiny_chunks(monkeypatch, chunk_chars):
    # A chunk of blank lines alone is skipped, without loadtxt's warning
    # that its input contained no data.
    monkeypatch.setattr(series, "_CHUNK_CHARS", chunk_chars)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_plain_csv_takes_the_column_path(monkeypatch)


@pytest.mark.filterwarnings(_TZ_WARNING)
@pytest.mark.parametrize(
    "text",
    [
        # Cut to 64 bytes, the second stamp would lose its trailing "x".
        "2000-01-02T09:30:00,1\n2000-01-03T09:30:00" + " " * 45 + "x,2\n2000-01-04T09:30:00,3\n",
        # To csv.reader a line of blanks and a comma is a record, here one without a stamp.
        "\t,\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n",
        # A lone "\r" ends a blank line before the header, as in a file.
        "\rt,p\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n",
        # Parsed unstripped, the second stamp would read as year 1.
        "2000-01-03,1\n\t-01-05,2\n",
        # A bytes stamp would lose its trailing NUL.
        "2000-01-03,1\n2000-01-04\0,2\n2000-01-05,3\n",
    ],
)
def test_row_path_decides_what_loadtxt_would_misread(text):
    assert _outcome(_parse, text) == _outcome(_row_path, text)


def test_header_only_csv_is_too_short_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooShort, match="got 0"):
            _parse("timestamp,price\n\n")


def test_quoted_delimiter_is_one_field():
    # loadtxt would split the quoted price and read 5.0.
    with pytest.raises(MalformedRow, match=r"^line 1: unparseable price '5.0,3.0'$"):
        _parse('2000-01-03,"5.0,3.0"\n2000-01-04,6.0\n')
    # A quoted comma after the price is in a field that is ignored.
    prices = _parse('2000-01-03,5.0,"a,3.0,x"\n2000-01-04,6.0,b\n')
    np.testing.assert_array_equal(prices.prices, [5.0, 6.0])


# A quote inside an unquoted field is a character, so the quotes before a
# newline tell nothing: 2"x then "3<newline>4" are the third and fourth
# fields of the second record, whose quotes on its first line are even.
# In the third record, a quote after a quote is a doubled one, not the
# closing quote: "d ""<newline>e"" f" is one field of two lines.  The
# quoted first stamp is data, not a header.
_STRAY_QUOTE_CSV = (
    '"2000-01-03",1,a,b\n2000-01-04,5,2"x,"3\n4"\n2000-01-05,6,c,"d ""\ne"" f"\n2000-01-06,{},f,g\n'
)


def _parse_in_pieces(text, chunk_chars):
    """What the parse of ``text`` in chunks of ``chunk_chars`` gives (:func:`_outcome`), the
    pieces of the text it takes, each chunk of ``_chunks`` less what goes back to it, and
    the texts its row path reads.  A chunk in which the parse stops is a piece whole."""
    pieces, chunks = [], series._chunks

    def taken(blocks, back):
        for chunk, last in chunks(blocks, back):
            pieces.append(chunk)
            yield chunk, last
            if back:
                pieces[-1] = chunk[: len(chunk) - len(back[-1])]

    with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
        series, "_chunks", taken
    ), mock.patch.object(series, "_read_rows", wraps=series._read_rows) as read_rows:
        got = _outcome(_parse, text)
    return got, pieces, [call.args[0] for call in read_rows.call_args_list]


@pytest.mark.parametrize("chunk_chars", [1, 2, 3, 4, 5, 6, 7, 8, 1 << 20])
def test_chunks_end_where_csv_reader_ends_a_record(chunk_chars):
    text = _STRAY_QUOTE_CSV.format(7)
    _, pieces, _ = _parse_in_pieces(text, chunk_chars)
    with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars):
        prices = _parse(text)
        with pytest.raises(MalformedRow, match=r"^line 6: unparseable price 'x'$"):
            _parse(_STRAY_QUOTE_CSV.format("x"))
    assert "".join(pieces) == text
    assert [row for piece in pieces for row in csv.reader(io.StringIO(piece))] == list(csv.reader(io.StringIO(text)))
    np.testing.assert_array_equal(prices.prices, [1, 5, 6, 7])
    assert prices.timestamps[0] == np.datetime64("2000-01-03")


@pytest.mark.parametrize("chunk_chars", [1 << 12, 1 << 16])
@pytest.mark.parametrize("extra", [0, 1])
def test_field_at_the_size_limit_across_cuts_reads_as_in_one_text(chunk_chars, extra):
    # A quoted note of exactly csv.field_size_limit() characters, its lines
    # across chunk cuts, is read; one more character is refused where
    # csv.reader refuses it in the whole text.  Nothing the parse adds to
    # find the end of a chunk's last record may go into the field.
    limit = csv.field_size_limit()
    note = ("x" * 99 + "\n") * (limit // 100) + "y" * (limit % 100 + extra)
    text = f'2000-01-03,1,a\n2000-01-04,2,"{note}"\n2000-01-05,3,b\n'
    with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars):
        got = _outcome(_parse, text)
    assert got == _outcome(_row_path, text)
    assert got[0] == ("daily" if not extra else MalformedRow)


def test_faults_in_two_chunks_report_the_earlier_chunks():
    # A bad stamp on line 3 and too few fields on line 21.  The row path
    # checks field counts as it reads the records and stamps after, so in
    # one chunk line 21 is reported; a chunk at a time, line 3's chunk
    # comes first.
    rows = [f"2000-01-{day:02d},{day}" for day in range(3, 31)]
    rows[2], rows[20] = "2000-13-05,5", "2000-01-23"
    text = "\n".join(rows) + "\n"
    with pytest.raises(MalformedRow, match=r"^line 21: expected >= 2 fields, got 1$"):
        _parse(text)
    assert _outcome(_parse, text) == _outcome(_row_path, text)
    with mock.patch.object(series, "_CHUNK_CHARS", 64):
        with pytest.raises(MalformedRow, match=r"^line 3: unparseable timestamp '2000-13-05'$"):
            _parse(text)


def test_the_stream_is_read_once_by_read_alone():
    # The reader has no method but read, so the parse cannot seek or tell;
    # the late quote sends its chunk alone to the row path, and every byte
    # is read once.
    text = "timestamp,price\n" + "".join(f"2000-01-{day:02d},{day}\n" for day in range(3, 31))
    data = (text + '2000-01-31,"31"\n').encode()
    stream, sizes = io.BytesIO(data), []

    class Reader:
        def read(self, size):
            sizes.append(len(block := stream.read(size)))
            return block

    with mock.patch.object(series, "_CHUNK_CHARS", 64):
        prices = parse_price_csv(Reader())
    np.testing.assert_array_equal(prices.prices, np.arange(3, 32))
    # Every byte once, and one read past the end.
    assert sum(sizes) == len(data) and sizes.index(0) == len(sizes) - 1


def test_quote_never_closed_is_refused_without_a_copy_of_the_rest():
    # The record on line 2 never ends.  csv.reader refuses its field at the
    # size limit, in the first chunk, which the row path reads in pieces: one
    # io.StringIO of it would take 4 bytes a character.
    rows = "".join(f"2000-01-{5 + i % 20:02d},{i}\n" for i in range(100_000))
    text = '2000-01-03,1\n2000-01-04,"2\n' + rows
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedRow, match=r"^line \d+: field larger than field limit"):
            parse_price_csv(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
    assert _outcome(_parse, text) == _outcome(_row_path, text)


def test_quote_never_closed_is_refused_before_the_rest_is_read():
    # 200k minute rows with a quote opened on line 2 and never closed.  The
    # parse reads the field up to csv.reader's size limit and a chunk either
    # side of it, not the rest of the stream, and refuses it on the line the
    # whole-text row path names.
    lines = _minute_text(200_000).split("\n")
    lines[1] = lines[1].replace(",", ',"')
    text = "\n".join(lines)
    stream, handed = io.StringIO(text), []

    class Reader:
        def read(self, size):
            handed.append(len(block := stream.read(size)))
            return block

    with pytest.raises(MalformedRow, match=r"^line \d+: field larger than field limit") as refused:
        parse_price_csv(Reader())
    assert (MalformedRow, str(refused.value)) == _outcome(_row_path, text)
    assert sum(handed) <= csv.field_size_limit() + 2 * series._CHUNK_CHARS


_ODD_PRICES = ["1_0", "inf", "nan", "1e400", "+1.5", "0x10", "-2", "0", "", "abc", "1e-400", "\xa01"]
_ODD_STAMPS = [
    "", "NaT", "oops", "2000-13-01", "2000-01-03T09:00:00.5", " 2000-01-09",
    # Years numpy reads but the parser refuses: not exactly four digits.
    "99999999999999999999-01-01", "20001-01-03", "-2000-01-03", "-200-01-03", "999-01-03",
    "999", "2000",
]
_EXTRA_FIELDS = ["x", "", "1.5", "2000-01-01"]


@st.composite
def _csv_cases(draw):
    """Small CSVs, mostly well formed, with every oddity the row path must decide."""

    def rarely(one_in):
        return draw(st.integers(0, one_in - 1)) == 0

    ncols = draw(st.integers(2, 4))
    intraday = draw(st.booleans())
    unit = np.timedelta64(1, "m" if intraday else "D")
    t = np.datetime64("2000-01-03T09:00:00" if intraday else "2000-01-03")
    sep = draw(st.sampled_from(["T", " "]))
    pad = st.sampled_from(["", " ", "  "])
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(["timestamp", "price"] + [f"c{i}" for i in range(2, ncols)]))
    for _ in range(draw(st.integers(0, 1) if rarely(4) else st.integers(2, 3))):
        t = t + draw(st.integers(-1, 3) if rarely(5) else st.integers(1, 3)) * unit
        stamp = str(t).replace("T", sep)
        if rarely(12):
            stamp = draw(st.sampled_from(_ODD_STAMPS))
        if rarely(10):
            price = draw(st.sampled_from(_ODD_PRICES))
        else:
            price = draw(st.floats(1e-3, 1e6).map(repr) | st.floats(1e-3, 1e6).map("{:.2f}".format))
        fields = [draw(st.sampled_from(_EXTRA_FIELDS)) for _ in range(ncols)]
        if rarely(8):
            fields[draw(st.integers(0, ncols - 1))] = '"q,1"'
        if rarely(8):  # a record across lines, which a chunk cut may split
            fields[draw(st.integers(0, ncols - 1))] = draw(st.sampled_from(['"a\nb"', '"a""\n""b"', '"\n\n"']))
        fields[0] = draw(pad) + stamp + (" " if rarely(10) else "")
        fields[1] = draw(pad) + price + draw(pad)
        if rarely(20):
            fields = fields[: draw(st.integers(1, ncols))]
        lines.append(",".join(fields))
        if rarely(5):
            lines.append(draw(st.sampled_from(["", "", "   ", " \t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_csv_cases())
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path(text):
    assert _outcome(_parse, text) == _outcome(_row_path, text)


# Chunk sizes small enough that records straddle the nominal chunk ends.
_SMALL_CHUNKS = st.integers(1, 64)


def _csv_rows(texts):
    """The rows csv.reader reads from each of ``texts`` in turn, up to the first
    it refuses, and whether it refused one."""
    rows = []
    try:
        for text in texts:
            rows.extend(csv.reader(io.StringIO(text)))
    except csv.Error:
        return rows, True
    return rows, False


def _doubted(chunk):
    """Whether the column path leaves ``chunk`` to the row path."""
    return '"' in chunk or "\0" in chunk or series._read_chunk(chunk.split("\n")) is None


def _record_ends(text):
    """The offsets in ``text`` at which csv.reader ends a record, up to one it refuses."""
    line_ends = [m.end() for m in re.finditer("\n", text)] + [len(text)]
    rows, ends = csv.reader(io.StringIO(text)), [0]
    try:
        for _ in rows:
            ends.append(line_ends[rows.line_num - 1])
    except csv.Error:
        pass
    return ends


def _check_small_chunks(text, chunk_chars):
    """In one chunk and in small ones, the parse gives what the whole text gives,
    but for a fault: there it reports the fault of the first piece it takes to hold
    one, which is what the text up to the end of that piece gives, read to the end
    of the record the piece ends in.  The pieces, each chunk less what goes back,
    join to the text unless a fault stops the parse, and each but the last ends
    where csv.reader ends a record.  Only chunks that hold a doubt reach the row
    path, and none if the text in one chunk did not.  The text is what its file reads."""
    read = _as_read(text)
    calls, records = [], _record_ends(read)
    for size in (1 << 20, chunk_chars):
        got, pieces, doubted = _parse_in_pieces(text, size)
        calls.append(doubted)
        joined = "".join(pieces)
        assert joined == read or got[0] is MalformedRow and read.startswith(joined)
        assert _csv_rows(pieces) == _csv_rows([joined])
        ends = list(itertools.accumulate(map(len, pieces)))
        assert set(ends[:-1]) <= set(records)
        ends = [next((r for r in records if r >= end), len(read)) for end in ends]
        faults = (o for end in ends if (o := _outcome(_row_path, read[:end]))[0] is MalformedRow)
        assert got == next(faults, _outcome(_row_path, read))
    assert all(_doubted(chunk) for chunk in calls[1])
    if not calls[0]:
        assert not calls[1]


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_csv_cases(), _SMALL_CHUNKS)
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_in_small_chunks(text, chunk_chars):
    _check_small_chunks(text, chunk_chars)


_CLEAN_CSV = "2000-01-03,1.5\n2000-01-04,2\n2000-01-05,2.5\n"
_SPLICES = [
    ",", ";", "\t", " ", "\n", "\r\n", "\r", '"', "\0", "\x0c", "\x85", "\u2028",
    "x", "1", "-", "NaT", "1_0", "T09:00", "2000-01-04,2\n", "99999999999999999999",
]


@st.composite
def _spliced_csvs(draw):
    """A clean CSV with a few characters or fields spliced in anywhere."""
    text = _CLEAN_CSV
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_SPLICES)) + text[at:]
    return text


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_spliced_csvs())
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_on_spliced_text(text):
    assert _outcome(_parse, text) == _outcome(_row_path, text)


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_spliced_csvs(), _SMALL_CHUNKS)
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_on_spliced_text_in_small_chunks(text, chunk_chars):
    _check_small_chunks(text, chunk_chars)


def test_parse_peak_memory_is_bounded_by_the_chunk():
    # 200k one-minute records, 5.4 MB of text.  Under numpy 2.4, reading
    # all of it in one loadtxt call peaked at 39.7 MB (text, line strings
    # and table), and 1 MiB chunks at 15.5 MB (text, output arrays and one
    # chunk's work).  4 MiB chunks, more than half this text, gave 35.1 MB.
    n = 200_000
    stamps = np.datetime64("2000-01-03T09:30:00") + np.arange(n) * np.timedelta64(60, "s")
    prices = 100.0 + np.arange(n) % 997 / 8.0
    text = "".join(f"{s},{p!r}\n" for s, p in zip(stamps.astype(str), prices.tolist()))
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        parsed = parse_price_csv(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == n
    assert peak < 25e6


_BOM_CASES = [
    DAILY_CSV,
    "timestamp,price\n" + DAILY_CSV,
    # A quote sends the text to the row path.
    DAILY_CSV.replace("121.0", '"121.0"'),
    "timestamp,price\n" + DAILY_CSV.replace("121.0", '"121.0"'),
]


@pytest.mark.parametrize("text", _BOM_CASES)
def test_byte_order_mark_is_not_read_as_data(text):
    def parse_bytes(text):
        return parse_price_csv(io.BytesIO(text.encode("utf-8")))

    expected = _outcome(_parse, text)
    assert len(expected[3]) == 3
    for parse in (_parse, parse_bytes):
        assert _outcome(parse, "\ufeff" + text) == expected


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_bytes_that_are_not_utf8_name_their_line(eol):
    raw = eol.join(["timestamp,price", "2000-01-03,1", "2000-01-04,2", "2000-01-05,caf\xe9"]).encode("latin-1")
    with pytest.raises(MalformedRow, match=r"^line 4: byte 0xe9 is not UTF-8$"):
        parse_price_csv(io.BytesIO(raw))


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_file_that_is_not_utf8_names_its_line(tmp_path, eol):
    # The file is read in text mode, where a lone "\r" ends a line too.
    path = tmp_path / "latin1.csv"
    path.write_bytes(eol.join([b"2000-01-03,1", b"2000-01-04,2", b"2000-01-05,2\xff", b""]))
    with pytest.raises(MalformedRow, match=r"^line 3: byte 0xff is not UTF-8$"):
        series.read_price_csv(str(path))
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(MalformedRow, match=r"^line 3: byte 0xff is not UTF-8$"):
            parse_price_csv(fh)


def _cr_csv_with_a_read_ending_on_a_line_end(path):
    """Write a CR-only price CSV whose byte 8,192 (the end of a text file's
    first read) is the ``"\r"`` ending a line, with a byte that is not UTF-8
    on the next line, and return that line's number."""
    rows = [b"timestamp,price"] + [f"{np.datetime64('2000-01-03') + k},1.0".encode() for k in range(700)]
    ends = np.cumsum([len(row) + 1 for row in rows])  # the 1-based byte of each row's "\r"
    k = int(np.searchsorted(ends, 8192, side="right")) - 1
    rows[k] += b"0" * (8192 - int(ends[k]))
    rows[k + 1] += b"\xff"
    path.write_bytes(b"\r".join(rows) + b"\r")
    return k + 2


@pytest.mark.parametrize(
    "opened",
    [
        pytest.param(None, id="path"),
        pytest.param({"mode": "rb"}, id="binary stream"),
        pytest.param(
            {"mode": "r", "encoding": "utf-8"},
            id="text stream",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="a text file loses the line its decoder held back with the undecodable read",
            ),
        ),
    ],
)
def test_bad_byte_after_a_read_ending_on_cr_names_its_line(tmp_path, opened):
    path = tmp_path / "cr.csv"
    line = _cr_csv_with_a_read_ending_on_a_line_end(path)
    with pytest.raises(MalformedRow) as info:
        if opened is None:
            series.read_price_csv(str(path))
        else:
            with open(path, **opened) as fh:
                parse_price_csv(fh)
    assert str(info.value) == f"line {line}: byte 0xff is not UTF-8"


_LINE_ENDS = {
    "LF": b"timestamp,price\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n",
    "CRLF": b"timestamp,price\r\n2000-01-03,1\r\n2000-01-04,2\r\n2000-01-05,3\r\n",
    "CR": b"timestamp,price\r2000-01-03,1\r2000-01-04,2\r2000-01-05,3\r",
    "CRLF, a bad price": b"timestamp,price\r\n2000-01-03,1\r\n2000-01-04,x\r\n2000-01-05,3\r\n",
    "stray CR in a price": b"timestamp,price\n2000-01-03,1\n2000-01-04,2\r5\n2000-01-05,3\n",
    "stray CR in the header": b"time\rstamp,price\n2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n",
}


@pytest.mark.parametrize("name", sorted(_LINE_ENDS))
def test_every_stream_reads_as_its_file_does(name, tmp_path):
    # A line ends at "\r\n", "\r" or "\n" in each, so a stray "\r" splits its line:
    # a str stream, a text file that leaves line ends alone and a byte stream alike.
    data = _LINE_ENDS[name]
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    from_file = _outcome(series.read_price_csv, str(path))
    with open(path, encoding="utf-8", newline="") as text_file:
        streams = [io.StringIO(data.decode()), text_file, io.BytesIO(data)]
        assert [_outcome(parse_price_csv, stream) for stream in streams] == [from_file] * 3
    # A read that ends on a "\r" leaves the "\n" after it to the next: one line end.
    for at in (m.end() for m in re.finditer(b"\r", data)):
        with mock.patch.object(series, "_CHUNK_CHARS", at):
            streams = [io.StringIO(data.decode()), io.BytesIO(data)]
            assert [_outcome(parse_price_csv, stream) for stream in streams] == [from_file] * 2
    if name in ("LF", "CRLF", "CR"):
        assert from_file == _outcome(parse_price_csv, io.BytesIO(_LINE_ENDS["LF"]))
    else:
        assert from_file[0] is MalformedRow


def _whole_text_parse(stream):
    """The parse as it was before it read the stream in blocks, frozen as
    the reference: the whole text read first, as its file reads it, then cut
    into chunks of at least ``_CHUNK_CHARS`` characters."""
    try:
        raw = stream.read()
    except UnicodeDecodeError as exc:
        raise series._not_utf8(_as_read(exc.object.decode("utf-8", "surrogateescape"))) from None
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise series._not_utf8(_as_read(raw.decode("utf-8", "surrogateescape"))) from None
    raw = _as_read(raw).removeprefix("\ufeff")
    columns = None if '"' in raw or "\0" in raw else _whole_text_columns(raw)
    ts, px = columns if columns is not None else _whole_text_rows(raw)
    return _price_series(ts, px)


def _whole_text_columns(raw):
    # The first line that csv.reader does not skip as blank.
    line_start = 0
    while True:
        line_end = raw.find("\n", line_start)
        line_end = len(raw) if line_end < 0 else line_end
        line = raw[line_start:line_end]
        if "," in line or line.strip():
            break
        if line_end == len(raw):
            return None
        line_start = line_end + 1
    fields = raw[line_start:line_end].split(",")
    if len(fields) < 2:
        return None
    pos = 0
    if not series._parses_as_time(fields[0].strip()):
        pos = line_end + 1
    ts_parts, px_parts = [], []
    while pos < len(raw):
        cut = raw.find("\n", pos + series._CHUNK_CHARS)
        end = len(raw) if cut < 0 else cut + 1
        chunk = raw[pos:end]
        pos = end
        if not chunk.strip("\n"):
            continue
        columns = series._read_chunk(chunk.split("\n"))
        if columns is None:
            return None
        ts_parts.append(columns[0])
        px_parts.append(columns[1])
    if sum(part.size for part in ts_parts) < 2:
        return None
    return np.concatenate(ts_parts), np.concatenate(px_parts)


_ROWS = [f"2000-01-03T{9 + i // 60:02d}:{i % 60:02d}:00,{100 + i / 8!r}" for i in range(80)]
# Row 70 of 80, edited to put a doubt or a fault after many streamed chunks.
_LATE_FAULTS = {
    "none": lambda row: row,
    "quote": lambda row: row.replace(",", ',"') + '"',
    "NaT": lambda row: "NaT" + row[row.index(","):],
    "five-digit year": lambda row: "2" + row,
    "stray CR": lambda row: row[:-1] + "\r" + row[-1],
    "bad price": lambda row: row + "x",
    "not UTF-8": lambda row: row + "\udcff",
    "UTF-8 cut at the end": lambda row: row,
}
_NOT_UTF8 = {"not UTF-8", "UTF-8 cut at the end"}
# csv.reader refuses a quoted header of one field, which a split would
# not, and a header a stray "\r" splits into a line of one field.
_FAULTY_PREFIXES = ['"time,stamp"\n', "time\rstamp,price\n"]
_PREFIXES = [
    "", "\ufeff", "timestamp,price\n", "\ufefftimestamp,price\n", *_FAULTY_PREFIXES,
    "\n" * 100, " \n" * 60 + "t,p\n",
]


class _Unseekable:
    """A stream that can only be read, as a pipe: it has no other method."""

    def __init__(self, stream):
        self.read = stream.read


def _open(kind, data, path):
    """A stream over ``data`` (bytes) of the given kind, read partway for the ``partway`` kinds."""
    if kind.startswith("text file"):
        stream = open(path, encoding="utf-8")
    elif kind == "binary file":
        stream = open(path, "rb")
    elif kind.startswith("str"):
        stream = io.StringIO(data.decode("utf-8"))
    else:
        stream = io.BytesIO(data)
    if kind.endswith("partway"):
        stream.readline()
    return _Unseekable(stream) if kind.startswith("unseekable") else stream


_KINDS = [
    "str", "str partway", "bytes", "text file", "text file partway", "binary file",
    "unseekable str", "unseekable bytes",
]


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(
    st.sampled_from(sorted(_LATE_FAULTS)),
    st.sampled_from(_PREFIXES),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.sampled_from(_KINDS),
    st.sampled_from([1, 7, 64, 300, 1 << 20]),
)
@settings(max_examples=300, deadline=None)
def test_streamed_parse_matches_whole_text_parse(
    tmp_path_factory, fault, prefix, eol, last_eol, kind, chunk_chars
):
    rows = list(_ROWS)
    rows[70] = _LATE_FAULTS[fault](rows[70])
    data = (prefix + eol.join(rows) + (eol if last_eol else "")).encode("utf-8", "surrogateescape")
    if fault == "UTF-8 cut at the end":
        data += "\u20ac".encode("utf-8")[:2]
    if "str" in kind and fault in _NOT_UTF8:
        kind = kind.replace("str", "bytes")
    if kind == "text file partway" and fault in _NOT_UTF8:
        kind = "text file"  # counted from where the parse began: see the next test
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_bytes(data)
    reference = data
    # Faults in two chunks: the earlier chunk's, the prefix's, is reported.  A
    # text file's decoder reads 8 KiB ahead and meets a bad byte in the middle
    # of this small file first, and a partway read skips the prefix.
    prefix_first = "partway" not in kind and (kind, fault) != ("text file", "not UTF-8")
    if prefix in _FAULTY_PREFIXES and fault in _NOT_UTF8 and chunk_chars < len(data) and prefix_first:
        reference = (prefix + eol.join(_ROWS) + (eol if last_eol else "")).encode()
    reference_path = path.with_name("reference.csv")
    reference_path.write_bytes(reference)
    outcomes = []
    for parse, text, at in ((_whole_text_parse, reference, reference_path), (parse_price_csv, data, path)):
        stream = _open(kind, text, at)
        with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
            series, "_read_rows", wraps=series._read_rows
        ) as read_rows:
            outcomes.append(_outcome(lambda _text: parse(stream), None))
        getattr(stream, "close", lambda: None)()
    assert outcomes[1] == outcomes[0]
    # Only chunks that hold a doubt reach the row path, and none of a plain file.
    doubted = [call.args[0] for call in read_rows.call_args_list]
    assert all(_doubted(chunk) for chunk in doubted)
    if fault == "none" and '"' not in prefix:
        assert not doubted


def test_text_stream_read_partway_names_the_line_from_where_the_parse_began(tmp_path):
    # A bad byte on file line 801, after one line was read: line 800 of
    # what the parse read.  A whole-text read counted it from where the
    # decoder had buffered to instead ("line 460").
    rows = [f"2000-01-03T{9 + i // 60:02d}:{i % 60:02d}:00,{100 + i}" for i in range(900)]
    rows[800] += "\udcff"
    path = tmp_path / "prices.csv"
    path.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape"))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        with pytest.raises(MalformedRow, match=r"^line 800: byte 0xff is not UTF-8$"):
            parse_price_csv(fh)


def test_parse_peak_memory_holds_no_copy_of_the_file(tmp_path):
    # 200k one-minute records, 5.4 MB of text read in 64 KiB blocks.  Read
    # whole, the text alone was held twice, as bytes and as a string.
    # Streamed, the stamps and prices are written into their columns as
    # the chunks are parsed; the peak is the columns, the slots and the
    # times of day the slots are found from.
    n = 200_000
    stamps = np.datetime64("2000-01-03T09:30:00") + np.arange(n) * np.timedelta64(60, "s")
    prices = 100.0 + np.arange(n) % 997 / 8.0
    path = tmp_path / "prices.csv"
    path.write_text("".join(f"{s},{p!r}\n" for s, p in zip(stamps.astype(str), prices.tolist())))
    with mock.patch.object(series, "_CHUNK_CHARS", 1 << 16):
        tracemalloc.start()
        try:
            parsed = series.read_price_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(parsed) == n
    assert peak < 2 * (parsed.timestamps.nbytes + parsed.prices.nbytes) + 16 * (1 << 16)
    assert peak < 2 * path.stat().st_size


def _minute_text(n):
    stamps = np.datetime64("2000-01-03T09:30:00") + np.arange(n) * np.timedelta64(60, "s")
    prices = 100.0 + np.arange(n) % 997 / 8.0
    return "".join(f"{s},{p!r}\n" for s, p in zip(stamps.astype(str), prices.tolist()))


@pytest.mark.parametrize("form", ["quoted file", "quoted pipe", "plain pipe"])
def test_quoted_and_piped_parses_hold_no_copy_of_the_file(tmp_path, form):
    # The records of the test above, every price quoted or read from a
    # stream with only read, and the bound it sets for a plain file.  With
    # quotes, each chunk takes the row path alone, whose field strings are
    # the chunk's: read whole, they peaked at 41 MB here.  A pipe has no
    # size to size the columns from, and they grow by doubling: read whole
    # first, its text was held twice.
    text = _minute_text(200_000)
    want = parse_price_csv(io.StringIO(text))
    if form.startswith("quoted"):
        text = re.sub(",(.*)\n", ',"\\1"\n', text)
    path = tmp_path / "prices.csv"
    path.write_text(text)
    with mock.patch.object(series, "_CHUNK_CHARS", 1 << 16), open(path, "rb") as fh:
        tracemalloc.start()
        try:
            parsed = series.read_price_csv(str(path)) if form == "quoted file" else parse_price_csv(_Unseekable(fh))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for got, w in ((parsed.timestamps, want.timestamps), (parsed.prices, want.prices), (parsed.slot_index, want.slot_index)):
        assert got.tobytes() == w.tobytes()
    assert peak < 2 * (parsed.timestamps.nbytes + parsed.prices.nbytes) + 16 * (1 << 16)
    assert peak < 2 * path.stat().st_size


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_slots_and_checks_add_no_int64_copy_of_the_stamps():
    # 400k stamps from before 1970 on: 3.2 MB.  The old day floor, order
    # check and cadence each held one to three int64 copies of them.
    n = 400_000
    ts = np.datetime64("1969-12-01T09:30:00") + np.arange(n) * np.timedelta64(60, "s")
    prices = 100.0 + np.arange(n) % 997 / 8.0
    n_slots, slots = series._assign_slots(ts, "1min", None)
    assert n_slots == 1440
    # The times of day (int64) and the slots are the results; the tables
    # of the seconds of a day take 5 bytes a second.
    tables = 5 * 86_400
    assert _traced_peak(series._assign_slots, ts, "1min", None) < ts.nbytes + slots.nbytes + tables + 65_536
    # The cadence takes the steps (int64) and finds their median in place.
    assert _traced_peak(series._infer_cadence, ts) < ts.nbytes + 65_536
    assert series._infer_cadence(ts) == "1min"
    # The checks hold boolean masks only, one byte a record.
    assert _traced_peak(PriceSeries, ts, prices, "1min", n_slots, slots) < ts.nbytes / 2


def test_log_returns_and_pattern_removal_hold_one_new_array_and_one_block():
    # Gathered or differenced whole, the old code held a second float64 array.
    from volrelax.intraday import estimate_pattern, remove_pattern

    n = 200_000
    ts = np.datetime64("2000-01-03T09:30:00") + np.arange(n) * np.timedelta64(60, "s")
    prices = PriceSeries(
        timestamps=ts,
        prices=100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0, 1e-3, n))),
        cadence="1min",
        slots_per_day=1440,
        slot_index=series._assign_slots(ts, "1min", None)[1],
    )
    # One new float64 array, and the larger of one block and the checks of
    # the new series, which hold up to three boolean masks.
    bound = 8 * n + max(8 * series._BLOCK, 3 * n) + 65_536
    assert _traced_peak(log_returns, prices) < bound
    returns = log_returns(prices)
    # The slots and stamps are views of the prices'.
    assert np.shares_memory(returns.slot_index, prices.slot_index)
    assert np.shares_memory(returns.timestamps, prices.timestamps)
    vol = absolute_volatility(returns)
    pattern = estimate_pattern(vol)
    assert _traced_peak(remove_pattern, vol, pattern) < bound


def _copied_returns(prices, include_session_crossing):
    """The returns as they were formed before the slots and stamps became
    views and the differences were taken in place, frozen as the reference."""
    values = np.diff(np.log(prices.prices))
    slots = prices.slot_index[:-1].copy()
    stamps = prices.timestamps[:-1].copy()
    if not include_session_crossing and prices.cadence != "daily":
        days = prices.timestamps.astype("datetime64[D]")
        keep = days[1:] == days[:-1]
        values, slots, stamps = values[keep], slots[keep], stamps[keep]
    return values, slots, stamps


@given(
    st.lists(st.tuples(st.floats(1e-3, 1e6), st.sampled_from([60, 60, 60, 3600, 64_800])), min_size=2, max_size=300),
    st.booleans(),
    st.integers(1, 70),
)
@settings(max_examples=200, deadline=None)
def test_log_returns_equal_the_differences_of_copies(records, include_session_crossing, block):
    steps = np.array([step for _, step in records], dtype=np.int64)
    ts = (np.datetime64("1969-12-31T09:30:00") + np.cumsum(steps).astype("timedelta64[s]")).astype("datetime64[s]")
    prices = _price_series(ts, np.array([p for p, _ in records]))
    want = _copied_returns(prices, include_session_crossing)
    with mock.patch.object(series, "_BLOCK", block):
        try:
            got = log_returns(prices, include_session_crossing)
        except TooShort:
            assert want[0].size == 0
            return
    for g, w in zip((got.values, got.slot_index, got.timestamps), want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@given(
    st.lists(
        st.integers(-4_000_000_000, 4_000_000_000)
        | st.sampled_from([-86_401, -86_400, -86_399, -1, 0, 1, 86_399, 86_400]),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=200, deadline=None)
def test_times_of_day_equal_the_day_floor(seconds):
    ts = np.array(seconds, dtype=np.int64).astype("datetime64[s]")
    want = (ts - ts.astype("datetime64[D]")).astype("timedelta64[s]").astype(np.int64)
    got = series._times_of_day(ts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _grown_text(first, later, n_first, n_later):
    """``n_first`` daily records of the ``first`` form, then ``n_later`` of the ``later`` one."""
    days = (np.datetime64("2000-01-03") + np.arange(n_first + n_later)).astype(str)
    return "".join((first if i < n_first else later).format(day, i + 1) for i, day in enumerate(days))


# Short rows take fewer bytes than their 16-byte record in the columns.
_SHORT, _LONG = "{0},{1}\n", "{0}T09:30:00,{1}.250000000000000000000000000000\n"


@pytest.mark.parametrize(
    "kind", ["str", "bytes", "text file", "text file partway", "binary file", "binary file partway"]
)
@pytest.mark.parametrize(("first", "later"), [(_SHORT, _LONG), (_LONG, _SHORT), (_SHORT, _SHORT)])
@pytest.mark.parametrize("chunk_chars", [64, 1000])
def test_preallocated_parse_matches_whole_text_parse(tmp_path, kind, first, later, chunk_chars):
    # Short rows first: the columns sized from the first chunk would outrun
    # the rows, and the file's size caps them; long rows first: they fall
    # short and grow.  In-memory streams have no file to size them from and
    # grow from the first chunk's rows.
    data = ("timestamp,price\n" + _grown_text(first, later, 40, 400)).encode()
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    results = []
    for parse in (parse_price_csv, _whole_text_parse):
        if kind.startswith("text file"):
            stream = open(path, encoding="utf-8")
        elif kind.startswith("binary file"):
            stream = open(path, "rb")
        else:
            stream = io.StringIO(data.decode()) if kind == "str" else io.BytesIO(data)
        if kind.endswith("partway"):
            stream.readline()
        with stream, mock.patch.object(series, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
            series, "_read_rows", side_effect=AssertionError("the row path read plain text")
        ):
            results.append(parse(stream))
    got, want = results
    assert len(got) == 440
    for g, w in ((got.timestamps, want.timestamps), (got.prices, want.prices), (got.slot_index, want.slot_index)):
        assert g.tobytes() == w.tobytes()
    # The columns hold their rows and no slack.
    for column in (got.timestamps, got.prices):
        while column.base is not None:
            column = column.base
        assert column.size == 440


def test_log_returns_values():
    returns = log_returns(_parse(DAILY_CSV))
    expected = [math.log(1.1), math.log(121.0 / 110.0)]
    np.testing.assert_allclose(returns.values, expected, rtol=1e-13)
    # Left-stamped: the last price contributes no return of its own.
    assert returns.timestamps[-1] == np.datetime64("2000-01-04T00:00:00")


def test_log_returns_session_crossing_drop():
    prices = _parse(INTRADAY_CSV)
    full = log_returns(prices)
    intra = log_returns(prices, include_session_crossing=False)
    assert len(full) == 5
    assert len(intra) == 4
    # The dropped return is the overnight step stamped at the day-1 close.
    np.testing.assert_allclose(intra.values, np.delete(full.values, 2))
    np.testing.assert_array_equal(intra.slot_index, [0, 1, 0, 1])


def test_log_returns_crossing_drop_is_noop_for_daily():
    prices = _parse(DAILY_CSV)
    a = log_returns(prices)
    b = log_returns(prices, include_session_crossing=False)
    np.testing.assert_array_equal(a.values, b.values)


def test_volatility_and_mean():
    returns = log_returns(_parse(DAILY_CSV))
    vol = absolute_volatility(returns)
    assert not vol.adjusted
    np.testing.assert_array_equal(vol.values, np.abs(returns.values))
    assert mean_volatility(vol) == pytest.approx(float(np.abs(returns.values).mean()))


def test_mean_volatility_rejects_empty():
    empty = VolatilitySeries(
        values=np.array([]),
        slot_index=np.array([], dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )
    with pytest.raises(EmptySeries):
        mean_volatility(empty)


def test_reverse_round_trip():
    returns = log_returns(_parse(INTRADAY_CSV))
    rev = reverse(returns)
    assert rev.timestamps is None
    np.testing.assert_array_equal(rev.values, returns.values[::-1])
    np.testing.assert_array_equal(rev.slot_index, returns.slot_index[::-1])
    back = reverse(rev)
    np.testing.assert_array_equal(back.values, returns.values)


@pytest.mark.parametrize("cls", ["ReturnSeries", "VolatilitySeries"])
def test_grid_fields_are_coerced_and_must_align_with_values(cls):
    cls = getattr(series, cls)
    extra = ["adjusted"] if cls is series.VolatilitySeries else []
    assert [f.name for f in dataclasses.fields(cls)] == [
        "values", "slot_index", "slots_per_day", "cadence", *extra, "timestamps",
    ]
    days = np.datetime64("2000-01-03") + np.arange(3)
    grid = {"slots_per_day": 1, "cadence": "daily"}
    made = cls(values=[0.5, 1, 2], slot_index=[0, 0, 0], timestamps=days, **grid)
    assert made.values.dtype == np.float64 and made.slot_index.dtype == np.int32
    assert made.timestamps.dtype == np.dtype("datetime64[s]")
    assert len(made) == 3
    assert cls(values=[0.5, 1, 2], slot_index=[0, 0, 0], **grid).timestamps is None
    with pytest.raises(ValueError, match="^timestamps must align with values$"):
        cls(values=[0.5, 1, 2], slot_index=[0, 0], timestamps=days[:2], **grid)
    with pytest.raises(ValueError, match="^slot_index must align with values$"):
        cls(values=[0.5, 1, 2], slot_index=[0, 0], timestamps=days, **grid)
    with pytest.raises(ValueError, match="^slot_index must align with values$"):
        cls(values=[0.5, 1, 2], slot_index=[0, 0, 0, 0], **grid)
    with pytest.raises(ValueError, match="^slots_per_day must be >= 1$"):
        cls(values=[0.5, 1, 2], slot_index=[0, 0, 0], slots_per_day=0, cadence="daily")


def test_shuffle_surrogate_permutes_deterministically():
    rng = np.random.default_rng(5)
    from volrelax import ReturnSeries

    base = ReturnSeries(
        values=rng.normal(0, 0.01, 500),
        slot_index=np.zeros(500, dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )
    a = shuffle_surrogate(base, seed=3)
    b = shuffle_surrogate(base, seed=3)
    c = shuffle_surrogate(base, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # Same multiset of values, grid untouched.
    np.testing.assert_array_equal(np.sort(a.values), np.sort(base.values))
    np.testing.assert_array_equal(a.slot_index, base.slot_index)


@given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=40))
@settings(max_examples=50, deadline=None)
def test_log_returns_telescope(prices_list):
    """Summed log-returns equal the log of the end-to-start price ratio."""
    n = len(prices_list)
    days = np.datetime64("2000-01-03") + np.arange(n)
    series = PriceSeries(
        timestamps=days.astype("datetime64[s]"),
        prices=np.asarray(prices_list),
        cadence="daily",
        slots_per_day=1,
        slot_index=np.zeros(n, dtype=np.int32),
    )
    returns = log_returns(series)
    total = math.log(prices_list[-1] / prices_list[0])
    assert float(returns.values.sum()) == pytest.approx(total, abs=1e-9)
