"""Price series ingestion and return/volatility extraction.

The input format is a comma-separated ``timestamp,price`` CSV (later
fields ignored) with ISO timestamps, either dates (daily data) or
datetimes (intraday data).
The text is UTF-8, with or without a byte-order mark.  It is read once,
a chunk of about 256 KiB at a time cut after a newline, and each chunk's
stamps and prices are written straight into the output columns: beyond
them, the parse needs memory bounded by the chunk, not by the file.
``np.loadtxt`` parses a chunk; one it doubts (a quote, a NUL, a field it
refuses) is read by a ``csv.reader`` row path instead, which gives the
same result, words each error with its file line, and alone says where
a record ends: a chunk that ends inside one is read again with more.
Returns are logarithmic, ``R(t) = ln P(t+1) - ln P(t)``, and volatility
is their absolute value; its mean ``sigma = <|R|>`` (:func:`mean_volatility`)
is the scale every layer downstream takes from the series.  Each return
carries the slot-within-day index of its *left* timestamp, a view of the
prices' own, so that intraday seasonality can be estimated and removed
downstream.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import re
import stat
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    EmptySeries,
    MalformedRow,
    NonMonotoneTimestamp,
    NonPositivePrice,
    TooShort,
)

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "VolatilitySeries",
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
# The parse reads this many characters (or bytes) at a time and parses
# what it read up to the last record's end.  Its line strings and 72-byte-
# per-record loadtxt table then grow with the chunk, not with the file.
_CHUNK_CHARS = 1 << 18
_BLOCK = 1 << 16  # values per block of the in-place returns and the pattern removal
# Where "surrogateescape" decoding puts the bytes that are not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class PriceSeries:
    """Strictly increasing timestamps with positive prices.

    ``slot_index[i]`` is the intraday slot of record ``i`` on the grid
    of distinct times-of-day seen in the data.  Daily data has a single slot.
    A ``NaT`` stamp has no place in that order and is rejected as
    :class:`NonMonotoneTimestamp`.
    """

    timestamps: np.ndarray
    prices: np.ndarray
    cadence: str
    slots_per_day: int
    slot_index: np.ndarray

    def __post_init__(self) -> None:
        ts, px, sl = _array_fields(self, timestamps="datetime64[s]", prices=np.float64, slot_index=np.int32)
        if ts.size < 2:
            raise TooShort(f"need at least 2 records, got {ts.size}")
        if px.shape != ts.shape or sl.shape != ts.shape:
            raise ValueError("timestamps, prices and slot_index must be aligned")
        nat = np.flatnonzero(np.isnat(ts))
        if nat.size:
            raise NonMonotoneTimestamp(f"record {int(nat[0])}: timestamp is NaT, not a time")
        if not np.all(ts[1:] > ts[:-1]):
            bad = int(np.flatnonzero(~(ts[1:] > ts[:-1]))[0]) + 1
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
class _OnSlotGrid:
    """Values on an intraday slot grid; each subclass ends its fields with
    ``timestamps``, the left stamps of the values or ``None``."""

    values: np.ndarray
    slot_index: np.ndarray
    slots_per_day: int
    cadence: str

    def __post_init__(self) -> None:
        _array_fields(self, values=np.float64, slot_index=np.int32)
        if self.timestamps is not None:
            _array_fields(self, timestamps="datetime64[s]")
            if self.timestamps.shape != self.values.shape:
                raise ValueError("timestamps must align with values")
        if self.slot_index.shape != self.values.shape:
            raise ValueError("slot_index must align with values")
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be >= 1")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ReturnSeries(_OnSlotGrid):
    """Log-returns on the grid inherited from the parent price series
    (cut after its last occupied slot when the session-crossing returns
    are dropped).

    ``timestamps`` are the left stamps of each return (``None`` for
    derived series that no longer live on a calendar, e.g. reversed
    ones).
    """

    timestamps: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("returns must be finite")


@dataclass(frozen=True)
class VolatilitySeries(_OnSlotGrid):
    """Absolute returns, optionally intraday-adjusted."""

    adjusted: bool = False
    timestamps: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values.size and not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise ValueError("volatility must be finite and non-negative")


def _array_fields(obj, **dtypes) -> list[np.ndarray]:
    """Store each named field of the frozen ``obj`` as an array of its dtype; return the arrays."""
    arrays = []
    for name, dtype in dtypes.items():
        arrays.append(np.asarray(getattr(obj, name), dtype=dtype))
        object.__setattr__(obj, name, arrays[-1])
    return arrays


def _times_of_day(ts: np.ndarray) -> np.ndarray:
    return ts.view(np.int64) % _SECONDS_PER_DAY  # a floor modulo: right before 1970 too


def _infer_cadence(ts: np.ndarray) -> str:
    step = int(np.median(np.diff(ts.view(np.int64)), overwrite_input=True))
    if step >= _SECONDS_PER_DAY:
        return "daily"
    if step == 60:
        return "1min"
    if step == 300:
        return "5min"
    return f"{step}s"


def _assign_slots(ts: np.ndarray, cadence: str) -> tuple[int, np.ndarray]:
    """The slot count and slot index of ``ts``: one slot if ``cadence`` is daily, else the grid of
    its sorted distinct times of day.  Strictly increasing stamps whose median step is under a day
    have a step under a day, so they have at least two times of day."""
    if cadence == "daily":
        return 1, np.zeros(ts.size, dtype=np.int32)
    tod = _times_of_day(ts)
    # A table of the seconds of a day that occur, whose running count is each second's slot.
    present = np.zeros(_SECONDS_PER_DAY, dtype=bool)
    present[tod] = True
    slot_of_second = np.cumsum(present, dtype=np.int32) - 1
    return int(slot_of_second[-1]) + 1, slot_of_second[tod]


def parse_price_csv(stream: IO[str] | IO[bytes]) -> PriceSeries:
    """Parse a price CSV into a :class:`PriceSeries`, reading the stream once, from
    where it stands, by its ``read`` alone.  The layout is fixed: comma-separated
    fields, the stamp first and the price second, later fields ignored, and a first
    record whose stamp does not parse skipped as a header.  Every stream, str or
    bytes, reads as :func:`read_price_csv` reads its file: UTF-8, a line ending at
    ``"\\r\\n"``, ``"\\r"`` or ``"\\n"``.  A text file can name a byte that is not UTF-8
    one line early (when a read ends on the ``"\\r"`` before it): for an exact line, pass
    the path to :func:`read_price_csv` or a binary stream.

    The read takes no settings: the stamps alone give the cadence (``'daily'`` for a
    median step of a day or more, else ``'1min'``, ``'5min'`` or ``'<seconds>s'``) and
    the slot grid (the sorted distinct times of day; one slot for daily data).

    Raises
    ------
    MalformedRow
        Wrong field count, an unparseable or missing (``NaT``)
        timestamp or price, a timestamp whose year is not exactly four
        digits (a bare integer other than a year, among them), or a
        stream that is not UTF-8, reported with its 1-based file line,
        counted from where the parse began reading.  Of faults in two
        chunks, the earlier one's is reported (see :func:`_read_columns`).
    NonMonotoneTimestamp, NonPositivePrice, TooShort
        Validation failures, reported with the offending row.
    """
    try:  # the columns are sized from a regular file's size; a pipe or a memory stream has none
        st = os.fstat(stream.fileno())
    except (AttributeError, OSError):
        st = None
    size = st.st_size if st and stat.S_ISREG(st.st_mode) else None
    ts, px = _read_columns(_blocks(stream), size)
    cadence = _infer_cadence(ts)
    return PriceSeries(ts, px, cadence, *_assign_slots(ts, cadence))


def read_price_csv(path: str) -> PriceSeries:
    """Read a price CSV from a file or a pipe (such as ``/dev/stdin``) as :func:`parse_price_csv`
    reads any stream, in its one layout, its cadence and slot grid from the stamps: a line ends at
    ``"\\r\\n"``, ``"\\r"`` or ``"\\n"``, as in text mode.  A file that is not UTF-8 is
    :class:`MalformedRow`, naming the line of its first byte that is not."""
    with open(path, "rb") as fh:
        return parse_price_csv(fh)


def _blocks(stream: IO[str] | IO[bytes]) -> Iterator[str]:
    """The rest of ``stream`` as text, a block at a time, without the leading byte-order mark
    that would join the first stamp.  Str or bytes, it reads as text mode reads a file: UTF-8,
    each ``"\\r\\n"``, ``"\\r"`` or ``"\\n"`` made ``"\\n"``, the only line end downstream.  A byte
    not UTF-8 ends the text, with its block's bytes before it, as ``surrogateescape`` text."""
    utf8 = codecs.getincrementaldecoder("utf-8")()
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    first = True
    try:
        for block in _reads(stream):
            text = newlines.decode(block if isinstance(block, str) else utf8.decode(block))
            if first and text:
                text, first = text.removeprefix("\ufeff"), False
            yield text
        yield newlines.decode(utf8.decode(b"", final=True), final=True)
    except UnicodeDecodeError as exc:
        yield newlines.decode(exc.object[: exc.end].decode("utf-8", "surrogateescape"), final=True)


def _reads(stream: IO[str] | IO[bytes]) -> Iterator[str | bytes]:
    """``stream`` read ``_CHUNK_CHARS`` characters (or bytes) at a time.  A decode error
    in a text file loses what its decoder read ahead for the read at hand, so it is read
    in lines, joined about as long, and those before the error come out before it."""
    if not isinstance(stream, io.TextIOWrapper):
        while block := stream.read(_CHUNK_CHARS):
            yield block
        return
    lines, size = [], 0
    try:
        for line in stream:
            lines.append(line)
            size += len(line)
            if size >= _CHUNK_CHARS:
                yield "".join(lines)
                lines, size = [], 0
    except UnicodeDecodeError:
        yield "".join(lines)
        raise
    yield "".join(lines)


def _read_lines(stream: IO[str] | IO[bytes], where: str = "") -> list[str]:
    """The lines of the rest of ``stream``, str or bytes, as its file reads them (:func:`_blocks`),
    for the label, config, factors and output table files.  A byte that is not UTF-8 is
    :class:`MalformedRow`, naming its line after ``where``, counted from where the read began."""
    text = "".join(_blocks(stream))
    if not text.isascii() and _UNDECODABLE.search(text):
        raise _not_utf8(text, where)
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines  # a last line end starts no line


def _parses_as_time(field: str) -> bool:
    try:
        np.datetime64(field)
    except ValueError:
        return False
    return True


def _not_utf8(text: str, where: str = "", line: int = 1) -> MalformedRow:
    """The error for a byte not UTF-8 in ``surrogateescape`` text of :func:`_blocks` from line ``line``."""
    at = _UNDECODABLE.search(text).start()
    line += text.count("\n", 0, at)
    return MalformedRow(f"{where}line {line}: byte 0x{ord(text[at]) - 0xDC00:02x} is not UTF-8")


def _chunks(blocks: Iterable[str], back: list[str]) -> Iterator[tuple[str, bool]]:
    """The text of ``blocks``, cut after the last newline once ``_CHUNK_CHARS`` characters came,
    each chunk with whether it is the last.  The end of a chunk put in ``back`` before the next is
    asked for is joined again with the text after it once twice as much is held: linear work."""
    held, size, need = [], 0, _CHUNK_CHARS
    for block in blocks:
        held.append(block)
        size += len(block)
        if size < need or not block.isascii() and _UNDECODABLE.search(block):
            continue  # a chunk's worth is joined before a cut; a byte not UTF-8 ends the text uncut
        text = "".join(held)
        cut = text.rfind("\n") + 1
        held, size = [text[cut:]], size - cut  # the blocks let go before the chunk is parsed
        if cut:
            yield text[:cut], False
            if back:  # the end of the chunk came back, to be joined again with the text after it
                held.insert(0, back.pop())
                size, cut = size + len(held[0]), 0
        need = _CHUNK_CHARS if cut else 2 * size
    if size:
        held[:] = ["".join(held)]  # the blocks let go: one copy of the text while it is parsed
        yield held[0], True


class _Unfinished(Exception):
    """A chunk that ends inside a csv record, or whose rows leave the file short of two."""


def _read_columns(
    blocks: Iterable[str], size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and prices of the text in ``blocks``, parsed a chunk at a time.

    ``np.loadtxt`` reads each chunk of :func:`_chunks` (:func:`_read_chunk`); one
    it doubts is read by the ``csv.reader`` row path alone (:func:`_read_rows`),
    which gives the same result and words each error with its file line.  Both
    write into the first chunk's columns, which one that outruns them sizes anew
    at the rows per character read so far over ``size`` (the text's length, if
    known; doubled if not), capped at ``size`` bytes, as short first rows may be.

    A chunk the row path reads to end inside a record goes back to :func:`_chunks`, as does
    one whose rows leave the file short of two: the header and :class:`TooShort` are whole-file
    decisions.  The first record, read as csv.reader reads it, is a header if its stamp does
    not parse (a quoted ``"2000-01-03"`` is data).  A fault is the first chunk's to hold one,
    found as the row path finds it there: a byte that is not UTF-8, a wrong field count
    anywhere, then a bad stamp.  Unlike csv.reader, loadtxt reads a field longer than
    ``csv.field_size_limit()``, and warns that blanks after a time of day are a time zone
    (both read the same stamp)."""
    line, n, read = 1, 0, 0  # line: the file line the chunk at hand starts on
    header, back = None, []
    for chunk, last in _chunks(blocks, back):
        if not chunk.isascii() and _UNDECODABLE.search(chunk):
            raise _not_utf8(chunk, line=line)
        try:
            if header is None and (first := next(_records(chunk, line, last), None)):
                _, end, stamp, _ = first
                header = not _parses_as_time(stamp)
                if header:
                    chunk, line = "".join(chunk.split("\n", end - line)[end - line :]), end
            # Before the first record all is blank; empty lines are blank to csv.reader,
            # and loadtxt warns on a chunk that holds nothing else (matched, not copied).
            if header is None or re.fullmatch("\n*", chunk):
                line += chunk.count("\n")
                continue
            # Quotes move field boundaries in a way only csv.reader follows,
            # and a trailing NUL would vanish from a bytes stamp.
            lines = None if '"' in chunk or "\0" in chunk else chunk.split("\n")
            columns = _read_chunk(lines) if lines else None
            if columns is None:
                columns = _read_rows(chunk, line, n, last)
        except _Unfinished:
            back.append(chunk)
            continue
        line += len(lines) - 1 if lines else chunk.count("\n")
        del lines  # before the next chunk is read
        k, read = columns[0].size, read + len(chunk)
        if not n:
            (ts, px), n = columns, k
            continue
        if n + k > ts.size:
            rows = min((n + k) * size // read, size // 16) if size else 2 * ts.size
            for column in (ts, px):
                column.resize(max(n + k, rows), refcheck=False)
        ts[n : n + k], px[n : n + k] = columns
        n += k
    if n < 2:
        raise TooShort(f"need at least 2 data rows, got {n}")
    for column in (ts, px):
        column.resize(n, refcheck=False)
    return ts, px


def _read_chunk(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """One chunk's stamps and prices, read by loadtxt from its lines, or ``None`` on any doubt."""
    # Without quotes, csv.reader's records are the "\n"-separated lines.
    try:
        table = np.loadtxt(
            lines,
            dtype=_COLUMNS,
            usecols=(0, 1),
            delimiter=",",
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
    return ts, table["price"].copy()


def _records(text: str, line: int = 1, last: bool = True) -> Iterator[tuple[int, int, str, str]]:
    """Each record of ``text`` csv.reader does not skip as blank: its first file line, the
    line after it, and its stripped stamp and price, ``text`` starting on line ``line``.
    A record csv.reader refuses, or one with too few fields, is :class:`MalformedRow`, and one
    ``text`` ends inside is :class:`_Unfinished` unless ``text`` is the ``last`` chunk."""
    # Lines about _CHUNK_CHARS at a time: one io.StringIO would hold a long chunk at 4 bytes a character.
    pieces = (m[0] for m in re.finditer(rf"(?s:.{{1,{_CHUNK_CHARS}}}[^\n]*\n?)", text))
    lines = itertools.chain.from_iterable(map(io.StringIO, pieces))
    # After a chunk that is not the last, an empty line on file line ``stop``: csv.reader
    # reads it as a blank record of its own, or as nothing more of one the chunk ends inside.
    stop = None if last else line + text.count("\n")
    rows = csv.reader(lines if last else itertools.chain(lines, [""]))
    end = line
    try:
        for row in rows:
            start, end = end, line + rows.line_num
            if stop is not None and start < stop < end:
                raise _Unfinished
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise MalformedRow(f"line {start}: expected >= 2 fields, got {len(row)}")
            yield start, end, row[0].strip(), row[1].strip()
    except csv.Error as exc:
        raise MalformedRow(f"line {line - 1 + rows.line_num}: {exc}") from None


def _read_rows(text: str, line: int = 1, before: int = 0, last: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and prices of the records of ``text`` (:func:`_records`), which words
    every parse error with the file line of its record.  With the ``before`` rows the file held
    ahead of ``text``, fewer than two are found first: :class:`TooShort` if ``last``, else :class:`_Unfinished`."""
    ts_strs, px_strs, linenos = [], [], []
    for lineno, _, stamp, price in _records(text, line, last):
        ts_strs.append(stamp)
        px_strs.append(price)
        linenos.append(lineno)
    if before + len(ts_strs) < 2:
        raise TooShort(f"need at least 2 data rows, got {before + len(ts_strs)}") if last else _Unfinished
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


def log_returns(prices: PriceSeries, include_session_crossing: bool = True) -> ReturnSeries:
    """Log-returns ``ln P(t+1) - ln P(t)``.

    With ``include_session_crossing=False`` (intraday data only) the
    overnight return between the last record of one day and the first
    of the next is dropped; otherwise the slots and stamps view the prices'.
    A return takes the slot of its left stamp, so after the drop the slot
    grid ends at the last slot a kept return occupies: for stamps on a full
    grid, the prices' grid less its last slot, whose returns all cross into
    the next day.
    """
    logs = np.log(prices.prices)
    values = logs[:-1]  # np.diff's subtraction, in blocks so that numpy copies one block of the overlap
    for lo in range(0, values.size, _BLOCK):
        np.subtract(logs[lo + 1 : lo + 1 + _BLOCK], values[lo : lo + _BLOCK], out=values[lo : lo + _BLOCK])
    slots = prices.slot_index[:-1]
    stamps = prices.timestamps[:-1]
    slots_per_day = prices.slots_per_day
    if not include_session_crossing and prices.cadence != "daily":
        days = prices.timestamps.astype("datetime64[D]")
        keep = days[1:] == days[:-1]
        values, slots, stamps = values[keep], slots[keep], stamps[keep]
        if values.size == 0:
            raise TooShort("no returns left after dropping session-crossing steps")
        slots_per_day = int(slots.max()) + 1
    return ReturnSeries(
        values=values,
        slot_index=slots,
        slots_per_day=slots_per_day,
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


def mean_volatility(vol: VolatilitySeries) -> float:
    """Mean volatility ``sigma = <|R|>`` over the full series.

    ``sigma`` is the *mean* of ``|R|``, not the standard deviation: every
    threshold and profile downstream is measured in it, and each takes it
    from the series it is given.  A series whose ``sigma`` is not finite
    and positive (an empty or constant-price one) is :class:`EmptySeries`.
    """
    if len(vol) == 0:
        raise EmptySeries("cannot average an empty volatility series")
    sigma = float(np.mean(vol.values))
    if not 0 < sigma < np.inf:
        raise EmptySeries(f"sigma must be finite and > 0, got {sigma!r}")
    return sigma


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
