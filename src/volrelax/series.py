"""Price series ingestion and return/volatility extraction.

The input format is a two-column CSV (``timestamp,price``) with ISO
timestamps, either dates (daily data) or datetimes (intraday data).
The text is UTF-8, with or without a byte-order mark.  ``np.loadtxt``
parses it one chunk of about a mebibyte at a time, read from the stream
as the parse goes: beyond the output arrays, the parse needs memory
bounded by the chunk, not by the file.  Quoted input, and input that
parse rejects, sends the parse back to where it began, to read the
whole text through a ``csv.reader`` row path instead, which gives the
same result and words each error with its file line.
Returns are logarithmic, ``R(t) = ln P(t+1) - ln P(t)``, and volatility
is their absolute value.  Each return carries the slot-within-day index
of its *left* timestamp so that intraday seasonality can be estimated
and removed downstream.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import re
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    EmptySeries,
    MalformedRow,
    NonMonotoneTimestamp,
    NonPositivePrice,
    SlotMismatch,
    TooShort,
)

__all__ = [
    "CsvSchema",
    "PriceSeries",
    "ReturnSeries",
    "VolatilitySeries",
    "SeriesStats",
    "parse_price_csv",
    "read_price_csv",
    "log_returns",
    "absolute_volatility",
    "mean_volatility",
    "reverse",
    "shuffle_surrogate",
]

_SECONDS_PER_DAY = 86400

# The column path reads each stamp as bytes into a fixed-width field at
# the start of each record.
_STAMP_BYTES = 64
_COLUMNS = np.dtype([("timestamp", f"S{_STAMP_BYTES}"), ("price", "f8")])
# numpy reads any number of year digits and wraps years out of its
# range, so a stamp must start with a year of exactly four digits.
_FOUR_DIGIT_YEAR = re.compile(r"[0-9]{4}(?![0-9])")
# The column path reads this many characters (or bytes) at a time and
# hands loadtxt what it read up to the last newline.  Its line strings and
# 72-byte-per-record table then grow with the chunk, not with the file.
_CHUNK_CHARS = 1 << 20
# Where "surrogateescape" decoding puts the bytes that are not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class CsvSchema:
    """How to read a price CSV.

    Parameters
    ----------
    timestamp_col, price_col : int
        Zero-based column positions.
    delimiter : str
        Field separator.
    header : bool or None
        ``True``/``False`` force the first row to be skipped/kept;
        ``None`` auto-detects (a first row whose timestamp field does
        not parse is treated as a header).
    cadence : str or None
        ``'1min'``, ``'5min'``, ``'daily'`` or ``None`` to infer from
        the timestamps.
    slots_per_day : int or None
        Number of intraday slots.  Only consulted when the slot grid
        cannot be derived from the timestamps themselves.
    """

    timestamp_col: int = 0
    price_col: int = 1
    delimiter: str = ","
    header: bool | None = None
    cadence: str | None = None
    slots_per_day: int | None = None

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class PriceSeries:
    """Strictly increasing timestamps with positive prices.

    ``slot_index[i]`` is the intraday slot of record ``i`` on the grid
    of distinct times-of-day seen in the data (or a positional grid
    when the calendar is not derivable).  Daily data has a single slot.
    A ``NaT`` stamp has no place in that order and is rejected as
    :class:`NonMonotoneTimestamp`.
    """

    timestamps: np.ndarray
    prices: np.ndarray
    cadence: str
    slots_per_day: int
    slot_index: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        px = np.asarray(self.prices, dtype=np.float64)
        sl = np.asarray(self.slot_index, dtype=np.int32)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)
        object.__setattr__(self, "slot_index", sl)
        if ts.size < 2:
            raise TooShort(f"need at least 2 records, got {ts.size}")
        if px.shape != ts.shape or sl.shape != ts.shape:
            raise ValueError("timestamps, prices and slot_index must be aligned")
        nat = np.flatnonzero(np.isnat(ts))
        if nat.size:
            raise NonMonotoneTimestamp(f"record {int(nat[0])}: timestamp is NaT, not a time")
        if not np.all(np.diff(ts.astype("int64")) > 0):
            bad = int(np.flatnonzero(np.diff(ts.astype("int64")) <= 0)[0]) + 1
            raise NonMonotoneTimestamp(
                f"timestamps must be strictly increasing (record {bad}: {ts[bad]})"
            )
        if not np.all(np.isfinite(px) & (px > 0)):
            bad = int(np.flatnonzero(~(np.isfinite(px) & (px > 0)))[0])
            raise NonPositivePrice(f"record {bad}: price {px[bad]!r}")
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be >= 1")
        if sl.size and (sl.min() < 0 or sl.max() >= self.slots_per_day):
            raise ValueError("slot_index out of range")

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True)
class ReturnSeries:
    """Log-returns on the grid inherited from the parent price series.

    ``timestamps`` are the left stamps of each return (``None`` for
    derived series that no longer live on a calendar, e.g. reversed
    ones).
    """

    values: np.ndarray
    slot_index: np.ndarray
    slots_per_day: int
    cadence: str
    timestamps: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        sl = np.asarray(self.slot_index, dtype=np.int32)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slot_index", sl)
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps, dtype="datetime64[s]")
            object.__setattr__(self, "timestamps", ts)
            if ts.shape != v.shape:
                raise ValueError("timestamps must align with values")
        if sl.shape != v.shape:
            raise ValueError("slot_index must align with values")
        if not np.all(np.isfinite(v)):
            raise ValueError("returns must be finite")
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be >= 1")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class VolatilitySeries:
    """Absolute returns, optionally intraday-adjusted."""

    values: np.ndarray
    slot_index: np.ndarray
    slots_per_day: int
    cadence: str
    adjusted: bool = False
    timestamps: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        sl = np.asarray(self.slot_index, dtype=np.int32)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slot_index", sl)
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps, dtype="datetime64[s]")
            object.__setattr__(self, "timestamps", ts)
            if ts.shape != v.shape:
                raise ValueError("timestamps must align with values")
        if sl.shape != v.shape:
            raise ValueError("slot_index must align with values")
        if v.size and not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("volatility must be finite and non-negative")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SeriesStats:
    """Summary statistics of a volatility series.

    ``sigma`` is the *mean* volatility ``<|R|>`` over the whole series
    (not the standard deviation); thresholds are expressed as multiples
    of it.
    """

    sigma: float
    n_obs: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise EmptySeries(f"sigma must be finite and > 0, got {self.sigma!r}")


def _times_of_day(ts: np.ndarray) -> np.ndarray:
    return (ts - ts.astype("datetime64[D]")).astype("timedelta64[s]").astype(np.int64)


def _infer_cadence(ts: np.ndarray) -> str:
    step = int(np.median(np.diff(ts.astype("int64"))))
    if step >= _SECONDS_PER_DAY:
        return "daily"
    if step == 60:
        return "1min"
    if step == 300:
        return "5min"
    return f"{step}s"


def _assign_slots(
    ts: np.ndarray, cadence: str, requested: int | None
) -> tuple[int, np.ndarray]:
    if cadence == "daily":
        return 1, np.zeros(ts.size, dtype=np.int32)
    tod = _times_of_day(ts)
    # The grid is the sorted distinct times of day: a table of the seconds
    # of a day that occur, whose running count is each second's slot.
    present = np.zeros(_SECONDS_PER_DAY, dtype=bool)
    present[tod] = True
    slot_of_second = np.cumsum(present, dtype=np.int32) - 1
    n_slots = int(slot_of_second[-1]) + 1
    if n_slots >= 2:
        if requested is not None and requested != n_slots:
            raise SlotMismatch(
                f"data has {n_slots} distinct times of day, "
                f"but slots_per_day={requested} was requested"
            )
        return n_slots, slot_of_second[tod]
    # No usable times of day (e.g. bare dates declared intraday): fall
    # back to a positional grid.
    s = requested if requested is not None else 1
    return int(s), (np.arange(ts.size, dtype=np.int64) % s).astype(np.int32)


def parse_price_csv(stream: IO[str] | IO[bytes], schema: CsvSchema | None = None) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV into a :class:`PriceSeries`.

    Raises
    ------
    MalformedRow
        Wrong field count, an unparseable or missing (``NaT``)
        timestamp or price, a timestamp whose year is not exactly four
        digits (a bare integer other than a year, among them), or a
        stream that is not UTF-8, reported with its 1-based file line.
        For a stream already read from, the line is counted from where
        the parse began reading; for a text stream that cannot tell where
        it stands (one iterated line by line, say), from where its
        decoder had read to, which can lie past the lines it returned.
    NonMonotoneTimestamp, NonPositivePrice, TooShort
        Validation failures, reported with the offending row.
    """
    schema = schema or CsvSchema()
    try:
        start = stream.tell() if stream.seekable() else None
    except (AttributeError, OSError):  # a bare reader, or a text stream iterated by lines
        start = None
    if start is None:
        # The row path may need the text again, and this stream cannot go back to it.
        text = _read_text(stream)
        blocks: Iterable[str] = (text[i : i + _CHUNK_CHARS] for i in range(0, len(text), _CHUNK_CHARS))
    else:
        text, blocks = None, _blocks(stream)
    try:
        columns = _read_columns(blocks, schema)
    except UnicodeDecodeError:
        columns = None
    if columns is None:
        if text is None:
            stream.seek(start)
            text = _read_text(stream)
        columns = _read_rows(text.removeprefix("\ufeff"), schema)
    return _price_series(*columns, schema)


def _blocks(stream: IO[str] | IO[bytes]) -> Iterator[str]:
    """The rest of ``stream`` as text, read ``_CHUNK_CHARS`` characters (or bytes) at a time."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    while block := stream.read(_CHUNK_CHARS):
        yield block if isinstance(block, str) else decode(block)
    yield decode(b"", final=True)


def _read_text(stream: IO[str] | IO[bytes]) -> str:
    """The rest of ``stream`` as text; a byte that is not UTF-8 is :class:`MalformedRow`."""
    try:
        raw = stream.read()
    except UnicodeDecodeError as exc:
        # The error holds the bytes the text stream was decoding, the whole
        # file if unread before; decode them again as a text-mode read does.
        text = io.TextIOWrapper(io.BytesIO(exc.object), encoding="utf-8", errors="surrogateescape")
        raise _not_utf8(text.read()) from None
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _not_utf8(raw.decode("utf-8", "surrogateescape")) from None
    return raw


def _price_series(ts: np.ndarray, px: np.ndarray, schema: CsvSchema) -> PriceSeries:
    cadence = schema.cadence or _infer_cadence(ts)
    slots_per_day, slot_index = _assign_slots(ts, cadence, schema.slots_per_day)
    return PriceSeries(
        timestamps=ts,
        prices=px,
        cadence=cadence,
        slots_per_day=slots_per_day,
        slot_index=slot_index,
    )


def _parses_as_time(field: str) -> bool:
    try:
        np.datetime64(field)
    except ValueError:
        return False
    return True


def _not_utf8(text: str) -> MalformedRow:
    """The error for text decoded with ``surrogateescape`` that holds a byte that is not UTF-8."""
    at = _UNDECODABLE.search(text).start()
    line = text.count("\n", 0, at) + 1
    return MalformedRow(f"line {line}: byte 0x{ord(text[at]) - 0xDC00:02x} is not UTF-8")


def _first_record(raw: str, delimiter: str) -> tuple[int, int] | None:
    """Start and end of the first line that csv.reader does not skip as blank."""
    pos = 0
    while pos <= len(raw):
        end = raw.find("\n", pos)
        if end < 0:
            end = len(raw)
        line = raw[pos:end]
        if delimiter in line or line.strip():
            return pos, end
        pos = end + 1
    return None


def _chunks(blocks: Iterable[str]) -> Iterator[str]:
    """The text of ``blocks``, each cut after its last newline and the rest carried over."""
    rest = ""
    for block in blocks:
        text = rest + block
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def _read_columns(blocks: Iterable[str], schema: CsvSchema) -> tuple[np.ndarray, np.ndarray] | None:
    """Timestamps and prices of unquoted text, read by ``np.loadtxt`` in chunks.

    ``blocks`` gives the text in pieces of any size.  Each chunk is what
    the blocks hold up to their last newline, so that a record never
    straddles two chunks.  The first chunks are held until they show the
    first record, which decides the header.  Each chunk is parsed and
    checked on its own, which bounds the parse's line strings and
    loadtxt table by the chunk.

    Returns ``None`` wherever :func:`_read_rows` could read the text
    differently or would raise, in any chunk, so that the row path
    decides the result and words the error.  Two differences are left.
    csv.reader refuses a field longer than ``csv.field_size_limit()``
    (128 KiB by default) in any column, and this path reads such a file.
    A time of day followed by blanks reads the same on both paths, but
    only here does numpy warn that it took the blanks for a time zone.
    """
    chunks = _chunks(blocks)
    head, first = "", None
    while first is None:
        chunk = next(chunks, None)
        if chunk is None:
            return None
        # A byte-order mark would join the first stamp, and that line
        # would be taken for a header.
        head = head + chunk if head else chunk.removeprefix("\ufeff")
        first = _first_record(head, schema.delimiter)
    line_start, line_end = first
    fields = head[line_start:line_end].split(schema.delimiter)
    if len(fields) <= max(schema.timestamp_col, schema.price_col):
        return None
    skip_header = schema.header
    if skip_header is None:
        skip_header = not _parses_as_time(fields[schema.timestamp_col].strip())
    pos = 0
    if skip_header:
        # loadtxt never sees the dropped lines, so look in them for the
        # stray "\r" that csv.reader rejects.
        if any("\r" in line[:-1] for line in head[:line_end].split("\n")):
            return None
        pos = line_end + 1
    ts_parts: list[np.ndarray] = []
    px_parts: list[np.ndarray] = []
    for chunk in itertools.chain([head], chunks):
        # Quotes move field boundaries in a way only csv.reader follows,
        # and a trailing NUL would vanish from a bytes stamp.  The header
        # leaves the first chunk only once this test has seen it.
        if '"' in chunk or "\0" in chunk:
            return None
        chunk, pos = chunk[pos:], 0
        # Lines of "\r" and "\n" alone are blank to csv.reader, and
        # loadtxt warns on a chunk that holds nothing else.
        if not chunk.strip("\r\n"):
            continue
        columns = _read_chunk(chunk, schema)
        if columns is None:
            return None
        ts_parts.append(columns[0])
        px_parts.append(columns[1])
    if sum(part.size for part in ts_parts) < 2:
        return None
    return np.concatenate(ts_parts), np.concatenate(px_parts)


def _read_chunk(chunk: str, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray] | None:
    """One chunk of :func:`_read_columns`: its stamps and prices, or ``None`` on any doubt."""
    # Without quotes, csv.reader's records are the "\n"-separated lines;
    # loadtxt drops the "\r" of a CRLF line end itself.
    try:
        table = np.loadtxt(
            chunk.split("\n"),
            dtype=_COLUMNS,
            usecols=(schema.timestamp_col, schema.price_col),
            delimiter=schema.delimiter,
            comments=None,
            ndmin=1,
        )
        # Casting more than 500 stamps at once, numpy 2.4 releases the
        # interpreter lock, and a stamp that does not parse then crashes the
        # process (SIGSEGV); 500 at a time, it raises.
        ts = np.empty(table.size, "datetime64[s]")
        for lo in range(0, table.size, 500):
            ts[lo : lo + 500] = table["timestamp"][lo : lo + 500]
    except (ValueError, TypeError):
        return None
    stamp_bytes = table.view(np.uint8).reshape(table.size, _COLUMNS.itemsize)[:, :_STAMP_BYTES]
    # The row path strips a stamp before parsing it, while numpy's own
    # skip of leading blanks loses the sign of a negative year.  A stamp
    # that fills its field to the last byte may have been cut short.
    padded = (stamp_bytes[:, 0] <= ord(" ")).any()
    if np.isnat(ts).any() or padded or stamp_bytes[:, -1].any():
        return None
    # The row path refuses a year that is not four digits (_FOUR_DIGIT_YEAR).
    # Counted one stamp byte at a time, so that no temporary outlives its
    # count.  Bytes below "0" wrap to large values in uint8.
    digits = [np.count_nonzero(stamp_bytes[:, k] - np.uint8(ord("0")) < 10) for k in range(5)]
    if digits != [ts.size] * 4 + [0]:
        return None
    return ts, np.ascontiguousarray(table["price"])


def _read_rows(raw: str, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and prices read row by row through ``csv.reader``.

    This path reads quoted fields and words every parse error, with the
    1-based file line of the offending record.
    """
    width = max(schema.timestamp_col, schema.price_col) + 1
    ts_strs: list[str] = []
    px_strs: list[str] = []
    linenos: list[int] = []
    rows = csv.reader(io.StringIO(raw), delimiter=schema.delimiter)
    next_line = 1
    try:
        for row in rows:
            lineno, next_line = next_line, rows.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < width:
                raise MalformedRow(f"line {lineno}: expected >= {width} fields, got {len(row)}")
            ts_strs.append(row[schema.timestamp_col].strip())
            px_strs.append(row[schema.price_col].strip())
            linenos.append(lineno)
    except csv.Error as exc:
        raise MalformedRow(f"line {rows.line_num}: {exc}") from None

    skip_header = schema.header
    if skip_header is None and ts_strs:
        skip_header = not _parses_as_time(ts_strs[0])
    if skip_header:
        ts_strs, px_strs, linenos = ts_strs[1:], px_strs[1:], linenos[1:]

    if len(ts_strs) < 2:
        raise TooShort(f"need at least 2 data rows, got {len(ts_strs)}")

    try:
        ts = np.array(ts_strs, dtype="datetime64[s]")
    except ValueError:
        for s, lineno in zip(ts_strs, linenos):
            if not _parses_as_time(s):
                raise MalformedRow(f"line {lineno}: unparseable timestamp {s!r}") from None
        raise
    nat = np.flatnonzero(np.isnat(ts))
    if nat.size:
        i = int(nat[0])
        raise MalformedRow(f"line {linenos[i]}: missing timestamp {ts_strs[i]!r}")
    for s, lineno in zip(ts_strs, linenos):
        if not _FOUR_DIGIT_YEAR.match(s):
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


def read_price_csv(path: str, schema: CsvSchema | None = None) -> PriceSeries:
    """Read a price CSV from disk.

    A file that is not UTF-8 is :class:`MalformedRow`, naming the line
    of its first byte that is not.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_price_csv(fh, schema)


def log_returns(prices: PriceSeries, include_session_crossing: bool = True) -> ReturnSeries:
    """Log-returns ``ln P(t+1) - ln P(t)``.

    With ``include_session_crossing=False`` (intraday data only) the
    overnight return between the last record of one day and the first
    of the next is dropped.
    """
    values = np.diff(np.log(prices.prices))
    slots = prices.slot_index[:-1].copy()
    stamps = prices.timestamps[:-1].copy()
    if not include_session_crossing and prices.cadence != "daily":
        days = prices.timestamps.astype("datetime64[D]")
        keep = days[1:] == days[:-1]
        values, slots, stamps = values[keep], slots[keep], stamps[keep]
    if values.size == 0:
        raise TooShort("no returns left after dropping session-crossing steps")
    return ReturnSeries(
        values=values,
        slot_index=slots,
        slots_per_day=prices.slots_per_day,
        cadence=prices.cadence,
        timestamps=stamps,
    )


def absolute_volatility(returns: ReturnSeries) -> VolatilitySeries:
    """Volatility as ``|R(t)|`` on the same grid as the returns."""
    return VolatilitySeries(
        values=np.abs(returns.values),
        slot_index=returns.slot_index,
        slots_per_day=returns.slots_per_day,
        cadence=returns.cadence,
        adjusted=False,
        timestamps=returns.timestamps,
    )


def mean_volatility(vol: VolatilitySeries) -> SeriesStats:
    """Mean volatility ``sigma = <|R|>`` over the full series."""
    if len(vol) == 0:
        raise EmptySeries("cannot average an empty volatility series")
    return SeriesStats(sigma=float(np.mean(vol.values)), n_obs=len(vol))


def reverse(returns: ReturnSeries) -> ReturnSeries:
    """Time-reversed copy (values and slots flipped, calendar dropped)."""
    return ReturnSeries(
        values=returns.values[::-1].copy(),
        slot_index=returns.slot_index[::-1].copy(),
        slots_per_day=returns.slots_per_day,
        cadence=returns.cadence,
        timestamps=None,
    )


def shuffle_surrogate(returns: ReturnSeries, seed: int) -> ReturnSeries:
    """Random permutation of the return values on the fixed slot grid.

    Destroys all temporal structure while keeping the marginal
    distribution; the slot grid (and calendar, if any) stays in place.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(returns))
    return replace(returns, values=returns.values[perm])
