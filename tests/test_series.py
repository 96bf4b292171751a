"""CSV ingestion, log-returns, volatility and surrogate tests."""

import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrelax import (
    CsvSchema,
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


def _parse(text, schema=None):
    return parse_price_csv(io.StringIO(text), schema)


def test_parse_daily_basics():
    prices = _parse(DAILY_CSV)
    assert len(prices) == 3
    assert prices.cadence == "daily"
    assert prices.slots_per_day == 1
    np.testing.assert_array_equal(prices.slot_index, [0, 0, 0])
    np.testing.assert_allclose(prices.prices, [100.0, 110.0, 121.0])
    assert prices.timestamps[0] == np.datetime64("2000-01-03T00:00:00")


def test_parse_header_autodetect_and_force():
    with_header = "timestamp,price\n" + DAILY_CSV
    assert len(_parse(with_header)) == 3
    assert len(_parse(DAILY_CSV, CsvSchema(header=False))) == 3
    # Forcing header=True on headerless data drops the first record.
    assert len(_parse(DAILY_CSV, CsvSchema(header=True))) == 2


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
        _parse(INTRADAY_CSV, CsvSchema(slots_per_day=5))


def test_parse_rejects_short_row():
    with pytest.raises(MalformedRow):
        _parse("2000-01-03,100.0\n2000-01-04\n")


def test_parse_rejects_bad_price():
    with pytest.raises(MalformedRow):
        _parse("2000-01-03,100.0\n2000-01-04,oops\n")


def test_parse_rejects_bad_timestamp():
    bad = "2000-01-03,100.0\nnot-a-date,101.0\n"
    with pytest.raises(MalformedRow):
        _parse(bad, CsvSchema(header=False))


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
    text = "2000-01-03;x;100.0\n2000-01-04;y;110.0\n"
    prices = _parse(text, CsvSchema(price_col=2, delimiter=";"))
    np.testing.assert_allclose(prices.prices, [100.0, 110.0])


def test_schema_rejects_multicharacter_delimiter():
    with pytest.raises(ValueError, match="one character"):
        CsvSchema(delimiter=",,")


def _row_path(text, schema=None):
    """The csv.reader path on its own: the reference for the column path."""
    schema = schema or CsvSchema()
    return series._price_series(*series._read_rows(text, schema), schema)


def _outcome(parse, text, schema):
    """What a parse gives, comparable with ``==``: arrays, or the exception."""
    try:
        s = parse(text, schema)
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
    def no_row_path(raw, schema):
        raise AssertionError("plain text went through the row path")

    monkeypatch.setattr(series, "_read_rows", no_row_path)
    text = "price;timestamp;note\r\n\r\n 100.5 ;2000-01-03T09:00:00;a\r\n101;2000-01-03T09:01:00;b\r\n"
    prices = _parse(text, CsvSchema(timestamp_col=1, price_col=0, delimiter=";"))
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
    ("text", "schema"),
    [
        # Cut to 64 bytes, the second stamp would lose its trailing "x".
        (
            "2000-01-02T09:30:00,1\n2000-01-03T09:30:00" + " " * 45 + "x,2\n2000-01-04T09:30:00,3\n",
            CsvSchema(),
        ),
        # To csv.reader a line of blanks and a delimiter is a record, here the header.
        ("\t\n2000-01-03\t1\n2000-01-04\t2\n2000-01-05\t3\n", CsvSchema(delimiter="\t", header=True)),
        # loadtxt never sees a dropped header line, and csv.reader rejects its "\r".
        ("\r2000-01-03,1\n2000-01-04,2\n2000-01-05,3\n", CsvSchema(header=True)),
        # Parsed unstripped, the second stamp would read as year 1.
        ("2000-01-03,1\n\t-01-05,2\n", CsvSchema()),
        # A bytes stamp would lose its trailing NUL.
        ("2000-01-03,1\n2000-01-04\0,2\n2000-01-05,3\n", CsvSchema()),
    ],
)
def test_row_path_decides_what_loadtxt_would_misread(text, schema):
    assert _outcome(_parse, text, schema) == _outcome(_row_path, text, schema)


def test_header_only_csv_is_too_short_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooShort, match="got 0"):
            _parse("timestamp,price\n\n")


def test_quoted_delimiter_is_one_field():
    # loadtxt would split the quoted field and read 3.0 as the price.
    text = '2000-01-03,"a,3.0,x",5.0\n2000-01-04,b,6.0\n'
    prices = _parse(text, CsvSchema(price_col=2))
    np.testing.assert_array_equal(prices.prices, [5.0, 6.0])


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

    delim = draw(st.sampled_from([",", ";", "\t"]))
    ncols = draw(st.integers(2, 4))
    ts_col, px_col = draw(st.permutations(range(ncols)))[:2]
    intraday = draw(st.booleans())
    unit = np.timedelta64(1, "m" if intraday else "D")
    t = np.datetime64("2000-01-03T09:00:00" if intraday else "2000-01-03")
    sep = draw(st.sampled_from(["T", " "]))
    pad = st.sampled_from(["", " ", "  "])
    lines = []
    if draw(st.booleans()):
        names = [f"c{i}" for i in range(ncols)]
        names[ts_col], names[px_col] = "timestamp", "price"
        lines.append(delim.join(names))
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
            fields[draw(st.integers(0, ncols - 1))] = f'"q{delim}1"'
        fields[ts_col] = draw(pad) + stamp + (" " if rarely(10) else "")
        fields[px_col] = draw(pad) + price + draw(pad)
        if rarely(20):
            fields = fields[: draw(st.integers(1, ncols))]
        lines.append(delim.join(fields))
        if rarely(5):
            lines.append(draw(st.sampled_from(["", "", "   ", " \t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    schema = CsvSchema(
        timestamp_col=ts_col,
        price_col=px_col,
        delimiter=delim,
        header=draw(st.sampled_from([None, True, False])),
    )
    return text, schema


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_csv_cases())
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path(case):
    text, schema = case
    assert _outcome(_parse, text, schema) == _outcome(_row_path, text, schema)


# Chunk sizes small enough that records straddle the nominal chunk ends.
_SMALL_CHUNKS = st.integers(1, 64)


def _check_small_chunks(text, schema, chunk_chars):
    """In small chunks both paths still agree, and the column path reads all it read in one."""
    whole = series._read_columns([text], schema)
    with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(_parse, text, schema) == _outcome(_row_path, text, schema)
        chunked = series._read_columns(series._blocks(io.StringIO(text)), schema)
    if whole is not None:
        assert chunked is not None
        assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole]


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(_csv_cases(), _SMALL_CHUNKS)
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_in_small_chunks(case, chunk_chars):
    _check_small_chunks(*case, chunk_chars)


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
@given(_spliced_csvs(), st.sampled_from([",", ";", "\t"]), st.sampled_from([None, True, False]))
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_on_spliced_text(text, delim, header):
    schema = CsvSchema(delimiter=delim, header=header)
    assert _outcome(_parse, text, schema) == _outcome(_row_path, text, schema)


@pytest.mark.filterwarnings(_TZ_WARNING)
@given(
    _spliced_csvs(),
    st.sampled_from([",", ";", "\t"]),
    st.sampled_from([None, True, False]),
    _SMALL_CHUNKS,
)
@settings(max_examples=400, deadline=None)
def test_column_path_matches_row_path_on_spliced_text_in_small_chunks(text, delim, header, chunk_chars):
    _check_small_chunks(text, CsvSchema(delimiter=delim, header=header), chunk_chars)


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
    def parse_bytes(text, schema):
        return parse_price_csv(io.BytesIO(text.encode("utf-8")), schema)

    expected = _outcome(_parse, text, CsvSchema())
    assert len(expected[3]) == 3
    for parse in (_parse, parse_bytes):
        assert _outcome(parse, "\ufeff" + text, CsvSchema()) == expected


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
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


def _whole_text_parse(stream, schema=None):
    """The parse as it was before it read the stream in blocks, frozen as
    the reference: the whole text read first, then cut into chunks of at
    least ``_CHUNK_CHARS`` characters."""
    schema = schema or CsvSchema()
    try:
        raw = stream.read()
    except UnicodeDecodeError as exc:
        text = io.TextIOWrapper(io.BytesIO(exc.object), encoding="utf-8", errors="surrogateescape")
        raise series._not_utf8(text.read()) from None
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise series._not_utf8(raw.decode("utf-8", "surrogateescape")) from None
    raw = raw.removeprefix("\ufeff")
    columns = None if '"' in raw or "\0" in raw else _whole_text_columns(raw, schema)
    ts, px = columns if columns is not None else series._read_rows(raw, schema)
    return series._price_series(ts, px, schema)


def _whole_text_columns(raw, schema):
    first = series._first_record(raw, schema.delimiter)
    if first is None:
        return None
    line_start, line_end = first
    fields = raw[line_start:line_end].split(schema.delimiter)
    if len(fields) <= max(schema.timestamp_col, schema.price_col):
        return None
    skip_header = schema.header
    if skip_header is None:
        skip_header = not series._parses_as_time(fields[schema.timestamp_col].strip())
    pos = 0
    if skip_header:
        if any("\r" in line[:-1] for line in raw[:line_end].split("\n")):
            return None
        pos = line_end + 1
    ts_parts, px_parts = [], []
    while pos < len(raw):
        cut = raw.find("\n", pos + series._CHUNK_CHARS)
        end = len(raw) if cut < 0 else cut + 1
        chunk = raw[pos:end]
        pos = end
        if not chunk.strip("\r\n"):
            continue
        columns = series._read_chunk(chunk, schema)
        if columns is None:
            return None
        ts_parts.append(columns[0])
        px_parts.append(columns[1])
    if sum(part.size for part in ts_parts) < 2:
        return None
    return np.concatenate(ts_parts), np.concatenate(px_parts)


_ROWS = [f"2000-01-03T{9 + i // 60:02d}:{i % 60:02d}:00,{100 + i / 8!r}" for i in range(80)]
# Row 70 of 80, edited to send the parse back after many streamed chunks.
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
# not, and a stray "\r" in a header, which loadtxt never sees.
_PREFIXES = [
    "", "\ufeff", "timestamp,price\n", "\ufefftimestamp,price\n", '"time,stamp"\n',
    "time\rstamp,price\n", "\n" * 100, " \n" * 60 + "t,p\n",
]


class _Unseekable:
    """A stream that can only be read, as a pipe."""

    def __init__(self, stream):
        self.read = stream.read

    def seekable(self):
        return False


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
    results = []
    for parse in (parse_price_csv, _whole_text_parse):
        stream = _open(kind, data, path)
        with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
            series, "_read_rows", wraps=series._read_rows
        ) as read_rows:
            outcome = _outcome(lambda _text, schema: parse(stream, schema), None, CsvSchema())
        # The stream goes back to the row path exactly where the whole text did.
        results.append((outcome, read_rows.call_count))
        getattr(stream, "close", lambda: None)()
    assert results[0] == results[1]


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
    # Streamed, the peak is the stamps and prices twice (the chunks' parts
    # and their concatenation) and a few chunks' work.
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
    stats = mean_volatility(vol)
    assert stats.n_obs == 2
    assert stats.sigma == pytest.approx(float(np.abs(returns.values).mean()))


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
