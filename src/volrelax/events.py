"""Large-volatility event selection, classification and labeling.

An *event* is a time step whose (seasonality-adjusted) volatility
strictly exceeds a threshold ``zeta = m * sigma``, with ``sigma`` the
mean volatility of the whole series (taken from it by
:func:`select_events`) and ``m > 1`` a multiplier.  Events
carry a sign (crash for a negative underlying return, rally for a
positive one) and an origin tag.  Origins start out ``'unlabeled'``;
applying a label file marks the listed dates ``'exogenous'`` or
``'endogenous'`` and defaults every remaining event to
``'endogenous'``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from importlib import resources
from typing import IO, Sequence

import numpy as np

from .errors import LabelDateUnmatched, MalformedRow, ZeroReturnEvent
from .series import ReturnSeries, VolatilitySeries, _array_fields, _read_lines, mean_volatility

__all__ = [
    "CRASH",
    "RALLY",
    "ENDOGENOUS",
    "EXOGENOUS",
    "UNLABELED",
    "EventLabel",
    "EventSet",
    "select_events",
    "classify_sign",
    "apply_labels",
    "filter_events",
    "decluster",
    "parse_label_file",
    "read_label_file",
    "load_packaged_labels",
    "packaged_label_names",
]

CRASH = -1
RALLY = 1

ENDOGENOUS = "endogenous"
EXOGENOUS = "exogenous"
UNLABELED = "unlabeled"

_ORIGINS = (ENDOGENOUS, EXOGENOUS, UNLABELED)


def sign_label(sign: int) -> str:
    """Human-readable name of a sign code."""
    return {CRASH: "crash", RALLY: "rally", 0: "unclassified"}[int(sign)]


@dataclass(frozen=True)
class EventLabel:
    """One dated origin assignment from a label file."""

    date: np.datetime64
    origin: str
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "date", np.datetime64(self.date, "D"))
        if self.origin not in (ENDOGENOUS, EXOGENOUS):
            raise MalformedRow(f"origin must be endogenous or exogenous, got {self.origin!r}")


@dataclass(frozen=True)
class EventSet:
    """Positions of large-volatility events in a parent series.

    ``indices`` are strictly increasing positions into the volatility
    series the events were selected from; ``magnitudes`` are the
    (adjusted) volatilities there, each strictly above ``zeta_abs``.
    """

    indices: np.ndarray
    zeta_multiple: float
    zeta_abs: float
    magnitudes: np.ndarray
    signs: np.ndarray
    origins: np.ndarray

    def __post_init__(self) -> None:
        idx, mag, sgn, org = _array_fields(
            self, indices=np.int64, magnitudes=np.float64, signs=np.int8, origins="U10"
        )
        for name, arr in (("magnitudes", mag), ("signs", sgn), ("origins", org)):
            if arr.shape != idx.shape:
                raise ValueError(f"{name} must align with indices")
        if not (np.isfinite(self.zeta_abs) and self.zeta_abs > 0):
            raise ValueError("zeta_abs must be finite and > 0")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("event indices must be strictly increasing")
            if idx[0] < 0:
                raise ValueError("event indices must be non-negative")
            if not np.all(mag > self.zeta_abs):
                raise ValueError("every event magnitude must strictly exceed zeta_abs")
        # np.isin's small-set test, without its np.unique, which imports numpy.ma (numpy 2).
        if not np.all(np.logical_or.reduce([org == origin for origin in _ORIGINS])):
            raise ValueError(f"origins must be one of {_ORIGINS}")

    def __len__(self) -> int:
        return int(self.indices.size)


def select_events(vol: VolatilitySeries, m: float) -> EventSet:
    """Select steps with volatility strictly above ``m * sigma``, with
    ``sigma`` the mean volatility of ``vol`` (:func:`mean_volatility`).

    An empty :class:`EventSet` is a legitimate outcome (nothing exceeds
    the threshold); downstream profile code rejects it explicitly.
    """
    if not m > 1:
        raise ValueError(f"threshold multiple must be > 1, got {m}")
    zeta = m * mean_volatility(vol)
    idx = np.flatnonzero(vol.values > zeta)
    return EventSet(
        indices=idx,
        zeta_multiple=float(m),
        zeta_abs=float(zeta),
        magnitudes=vol.values[idx],
        signs=np.zeros(idx.size, dtype=np.int8),
        origins=np.full(idx.size, UNLABELED, dtype="U10"),
    )


def classify_sign(events: EventSet, returns: ReturnSeries) -> EventSet:
    """Attach signs from the underlying returns: crash < 0 < rally."""
    r = returns.values[events.indices]
    if np.any(r == 0.0):
        bad = int(events.indices[np.flatnonzero(r == 0.0)[0]])
        raise ZeroReturnEvent(f"return at event index {bad} is exactly zero")
    return replace(events, signs=np.sign(r).astype(np.int8))


def apply_labels(
    events: EventSet,
    labels: Sequence[EventLabel],
    timestamps: np.ndarray,
) -> EventSet:
    """Assign origins from dated labels; unlabeled events become endogenous.

    Events are matched by the calendar date of their (left) timestamp.
    A label whose date matches no event triggers a
    :class:`LabelDateUnmatched` warning.  When several labels share a
    date, the last one wins.
    """
    if timestamps is None:
        raise ValueError("series carries no calendar; cannot match label dates")
    dates = np.asarray(timestamps, dtype="datetime64[s]")[events.indices].astype("datetime64[D]")
    origins = np.full(len(events), ENDOGENOUS, dtype="U10")
    for lab in labels:
        hit = dates == lab.date
        if not np.any(hit):
            warnings.warn(f"label date {lab.date} matched no event", LabelDateUnmatched)
            continue
        origins[hit] = lab.origin
    return replace(events, origins=origins)


def filter_events(
    events: EventSet, sign: str | None = None, origin: str | None = None
) -> EventSet:
    """Subset by sign (``'crash'``/``'rally'``) and/or origin; with neither, ``events`` itself."""
    if sign is None and origin is None:
        return events
    mask = np.ones(len(events), dtype=bool)
    if sign is not None:
        code = {"crash": CRASH, "rally": RALLY}.get(sign)
        if code is None:
            raise ValueError(f"sign must be 'crash' or 'rally', got {sign!r}")
        mask &= events.signs == code
    if origin is not None:
        if origin not in _ORIGINS:
            raise ValueError(f"origin must be one of {_ORIGINS}, got {origin!r}")
        mask &= events.origins == origin
    return _subset(events, mask)


def decluster(events: EventSet, min_separation: int) -> EventSet:
    """Greedy keep-first thinning: drop events closer than
    ``min_separation`` steps to the last kept one."""
    if min_separation <= 1:
        return events
    keep = np.zeros(len(events), dtype=bool)
    last = None
    for i, pos in enumerate(events.indices):
        if last is None or pos - last >= min_separation:
            keep[i] = True
            last = pos
    return _subset(events, keep)


def _subset(events: EventSet, mask: np.ndarray) -> EventSet:
    return replace(
        events,
        indices=events.indices[mask],
        magnitudes=events.magnitudes[mask],
        signs=events.signs[mask],
        origins=events.origins[mask],
    )


def parse_label_file(stream: IO[str] | IO[bytes]) -> list[EventLabel]:
    """Parse ``YYYY-MM-DD,origin[,note]`` rows; ``#`` starts a comment line.

    The text is UTF-8; a leading byte-order mark is dropped, and a byte
    that is not UTF-8 is :class:`MalformedRow`, naming its line.  Every
    stream, str or bytes, reads as :func:`read_label_file` reads its file:
    a line ends at ``"\\r\\n"``, ``"\\r"`` or ``"\\n"`` alone, as in text mode.
    A text file can name a byte that is not UTF-8 one line early (when a read
    ends on the ``"\\r"`` before it): for an exact line, pass the path to
    :func:`read_label_file` or a binary stream.
    """
    labels: list[EventLabel] = []
    for lineno, line in enumerate(_read_lines(stream, "label "), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",", 2)
        if len(parts) < 2:
            raise MalformedRow(f"label line {lineno}: expected 'date,origin[,note]'")
        date_s, origin = parts[0].strip(), parts[1].strip().lower()
        note = parts[2].strip() if len(parts) == 3 else ""
        try:
            date = np.datetime64(date_s, "D")
        except ValueError:
            raise MalformedRow(f"label line {lineno}: bad date {date_s!r}") from None
        if origin not in (ENDOGENOUS, EXOGENOUS):
            raise MalformedRow(f"label line {lineno}: bad origin {origin!r}")
        labels.append(EventLabel(date=date, origin=origin, note=note))
    return labels


def read_label_file(path: str) -> list[EventLabel]:
    """Read a label file from disk, as :func:`parse_label_file` reads its bytes."""
    with open(path, "rb") as fh:
        return parse_label_file(fh)


def packaged_label_names() -> list[str]:
    """Names accepted by :func:`load_packaged_labels`."""
    root = resources.files(__package__).joinpath("labels")
    return sorted(p.name[: -len(".csv")] for p in root.iterdir() if p.name.endswith(".csv"))


def load_packaged_labels(name: str) -> list[EventLabel]:
    """Load one of the label tables shipped with the package."""
    path = resources.files(__package__).joinpath("labels", f"{name}.csv")
    try:
        with path.open("rb") as fh:
            return parse_label_file(fh)
    except FileNotFoundError:
        raise KeyError(
            f"no packaged label table {name!r}; available: {packaged_label_names()}"
        ) from None
