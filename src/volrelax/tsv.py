"""Tab-separated output tables: one writer and one reader for every file.

A table is a header row of column names, then one row per record.  Each
column is written by its numpy kind, as ``np.asarray(column)`` gives it:
a float column as ``repr(float)`` of each cell, which reads back bit for
bit (``nan``, ``inf`` and ``-inf`` included), and any other column
(integers, strings) as ``str`` of each cell.  So a column that mixes
integers and floats is written as floats.

Every writer that replaces a whole file, the tables here, ``config.echo``
and the price CSV, opens it with :func:`_open_for_rewrite`.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import MalformedRow
from .series import _read_lines

__all__ = ["write_tsv", "read_tsv"]


@contextmanager
def _open_for_rewrite(path: str, mode: str, **kwargs) -> Iterator[IO]:
    """``open(path, mode, **kwargs)`` as a context, on a new file with the old
    one's mode bits (set by ``fchmod``, which the umask does not touch) when
    ``path`` is a regular file with one link that the effective user owns and
    may write.

    Truncating a file written moments before waits for its write-back; a new
    file does not, and a reader that holds the old one keeps its bytes.  Any
    other path (missing, a symlink, a FIFO or device, hard-linked, another
    user's, read-only, or in a directory that refuses the unlink) is opened
    as it is, keeping its owner and mode.
    """
    bits = None
    try:
        st = os.lstat(path)
        if (
            stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
            and os.access(path, os.W_OK)
        ):
            os.unlink(path)
            bits = stat.S_IMODE(st.st_mode)
    except OSError:
        pass
    with open(path, mode, **kwargs) as fh:
        if bits is not None:
            os.fchmod(fh.fileno(), bits)
        yield fh


def _formatted(column: Iterable) -> Iterable[str]:
    values = np.asarray(column)
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def write_tsv(path: str, header: Iterable[str], columns: Iterable[Iterable]) -> None:
    """Write the ``header`` names, then one tab-joined line per row of the
    equal-length ``columns``."""
    with _open_for_rewrite(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in zip(*map(_formatted, columns), strict=True):
            fh.write("\t".join(row) + "\n")


def read_tsv(path: str, columns: Mapping[str, Callable[[str], object]]) -> dict[str, list]:
    """Read a table back as one list per column.

    ``columns`` maps each expected header name, in file order, to the
    converter of its cells (``int``, ``float`` or ``str``).

    Raises
    ------
    MalformedRow
        The header differs from ``columns`` (after a byte-order mark), a
        row has the wrong number of fields or a cell its converter rejects,
        or a byte is not UTF-8; the message names the file and the 1-based line.
        A line ends as in every file read: at ``"\\r\\n"``, ``"\\r"`` or ``"\\n"`` alone.
    """
    with open(path, "rb") as fh:
        lines = _read_lines(fh, f"{path} ")
    header = "\t".join(columns)
    if not lines or lines[0] != header:
        raise MalformedRow(f"{path} line 1: expected the header {header!r}")
    out: dict[str, list] = {name: [] for name in columns}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise MalformedRow(
                f"{path} line {lineno}: expected {len(columns)} fields, got {len(cells)}"
            )
        for (name, conv), cell in zip(columns.items(), cells):
            try:
                out[name].append(conv(cell))
            except ValueError:
                raise MalformedRow(f"{path} line {lineno}: bad {name} value {cell!r}") from None
    return out
