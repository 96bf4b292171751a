"""Deterministic synthetic return generators.

These provide planted ground truth for end-to-end verification, since
the exchange datasets the method is normally applied to cannot be
redistributed.  All generators are pure functions of their arguments:
the same seed gives bit-identical output.

The planted-relaxation generator drops rare large shocks into an
otherwise i.i.d. half-normal-magnitude background and scales the
expected magnitude of every other step by ``1 + B*(d + tau)^(-p)``,
where ``d >= 1`` is the distance to the *nearest* shock.  The kernel
may differ on the two sides of a shock (``*_before`` overrides), which
emulates an asymmetric before/after relaxation.

Synthetic records sit on a positional slot grid: record ``i`` is in slot
``i % slots_per_day``.  The cadence is one minute, or daily when a day
has one slot.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .series import _BLOCK, _SECONDS_PER_DAY, PriceSeries, ReturnSeries, _times_of_day
from .tsv import _open_for_rewrite

__all__ = [
    "PlantedRelaxationSpec",
    "gen_iid_gaussian",
    "gen_planted_relaxation",
    "gen_intraday_modulated",
    "returns_to_prices",
    "write_price_csv",
]

# E|N(0, s)| = s * sqrt(2/pi); dividing out makes sigma0 the mean magnitude.
_HALF_NORMAL_SCALE = float(np.sqrt(np.pi / 2.0))
# (column in "THH:MM:SS", seconds per unit, units per next digit) of each clock digit.
_CLOCK_DIGITS = ((1, 36000, 10), (2, 3600, 10), (4, 600, 6), (5, 60, 10), (7, 10, 6), (8, 1, 10))
# A synthetic series starts on this day; each intraday day's first slot is at 09:00.
_DAY0 = np.datetime64("2000-01-03", "D")
_SESSION_START = _DAY0 + np.timedelta64(9, "h")


@dataclass(frozen=True)
class PlantedRelaxationSpec:
    """Parameters of the planted-relaxation generator.

    ``shock_rate`` is the expected number of mainshocks per 10^5 steps
    (each step is an independent Bernoulli trial, so counts are
    Poisson in the aggregate).  ``boost``, ``p``, ``tau`` shape the
    relaxation kernel after shocks; the ``*_before`` fields override
    them for the approach side (``None`` keeps the kernel symmetric).
    """

    n: int
    sigma0: float
    shock_rate: float
    boost: float
    p: float
    tau: float
    shock_magnitude: float
    seed: int
    slots_per_day: int = 1
    boost_before: float | None = None
    p_before: float | None = None
    tau_before: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if not 0 < self.shock_rate:
            raise ValueError("shock_rate must be positive")
        if self.shock_rate / 1e5 > 0.5:
            raise ValueError("shock_rate implies more than one shock per two steps")
        if not self.boost >= 0:
            raise ValueError("boost must be nonnegative")
        if not 0 < self.p < 1.5:
            raise ValueError("p must lie in (0, 1.5)")
        if not self.tau >= 0:
            raise ValueError("tau must be nonnegative")
        if not self.shock_magnitude > 0:
            raise ValueError("shock_magnitude must be positive")
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be >= 1")
        for name in ("boost_before", "p_before", "tau_before"):
            val = getattr(self, name)
            if val is not None and not (0 < val < 1.5 if name == "p_before" else val >= 0):
                raise ValueError(f"{name}={val} out of range")


def _grid(n: int, slots_per_day: int) -> dict:
    """The grid fields of ``n`` synthetic records: record ``i`` in slot ``i % slots_per_day``,
    one minute apart or daily."""
    if slots_per_day < 1:
        raise ValueError("slots_per_day must be >= 1")
    return dict(
        slot_index=(np.arange(n, dtype=np.int64) % slots_per_day).astype(np.int32),
        slots_per_day=slots_per_day,
        cadence="daily" if slots_per_day == 1 else "1min",
    )


def gen_iid_gaussian(n: int, sigma0: float, seed: int, slots_per_day: int = 1) -> ReturnSeries:
    """i.i.d. zero-mean Gaussian returns with mean magnitude ``sigma0``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, sigma0 * _HALF_NORMAL_SCALE, n)
    return ReturnSeries(values=values, **_grid(n, slots_per_day))


def _nearest_shock_distances(is_shock: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the previous / next shock (inf where there is none)."""
    n = is_shock.size
    pos = np.arange(n)
    last = np.maximum.accumulate(np.where(is_shock, pos, -1))
    d_prev = np.where(last >= 0, pos - last, np.inf)
    rev_last = np.maximum.accumulate(np.where(is_shock[::-1], pos, -1))[::-1]
    d_next = np.where(rev_last >= 0, (n - 1) - rev_last - pos, np.inf)
    return d_prev, d_next


def gen_planted_relaxation(spec: PlantedRelaxationSpec) -> ReturnSeries:
    """Background returns with planted shocks and a relaxation kernel.

    Draw order is fixed (placement uniforms, then background normals,
    then shock signs), so output is reproducible per seed.  Steps whose
    nearest shock lies behind them (ties included) use the after-shock
    kernel; steps approaching their nearest shock use the before-shock
    kernel.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    is_shock = rng.random(n) < spec.shock_rate / 1e5
    z = rng.standard_normal(n)
    n_shocks = int(is_shock.sum())
    signs = rng.integers(0, 2, n_shocks) * 2 - 1

    d_prev, d_next = _nearest_shock_distances(is_shock)
    after = d_prev <= d_next
    d = np.minimum(d_prev, d_next)

    b_before = spec.boost if spec.boost_before is None else spec.boost_before
    p_before = spec.p if spec.p_before is None else spec.p_before
    tau_before = spec.tau if spec.tau_before is None else spec.tau_before

    mu = np.full(n, spec.sigma0)
    near = np.isfinite(d) & ~is_shock
    na, nb = near & after, near & ~after
    mu[na] += spec.sigma0 * spec.boost * (d[na] + spec.tau) ** -spec.p
    mu[nb] += spec.sigma0 * b_before * (d[nb] + tau_before) ** -p_before

    values = z * (mu * _HALF_NORMAL_SCALE)
    values[is_shock] = signs * spec.shock_magnitude * spec.sigma0
    return ReturnSeries(values=values, **_grid(n, spec.slots_per_day))


def gen_intraday_modulated(base: ReturnSeries, factors: np.ndarray) -> ReturnSeries:
    """Multiply each return by the factor of its slot (seed-free)."""
    f = np.asarray(factors, dtype=np.float64)
    if f.ndim != 1 or f.size != base.slots_per_day:
        raise ValueError(
            f"need one factor per slot ({base.slots_per_day}), got shape {f.shape}"
        )
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValueError("factors must be finite and positive")
    return replace(base, values=base.values * f[base.slot_index])


def returns_to_prices(returns: ReturnSeries, p0: float = 100.0) -> PriceSeries:
    """Exponentiate cumulative returns into a price path from ``P(0) = p0``.

    Daily series get consecutive calendar dates from 2000-01-03; intraday
    series get one-minute slots from 09:00, one day per ``slots_per_day``
    records.
    """
    if not p0 > 0:
        raise ValueError("p0 must be positive")
    n = len(returns) + 1
    log_p = np.concatenate(([0.0], np.cumsum(returns.values)))
    prices = p0 * np.exp(log_p)
    s = returns.slots_per_day
    grid = _grid(n, s)
    if s == 1:
        ts = (_DAY0 + np.arange(n)).astype("datetime64[s]")
    else:
        days = np.arange(n) // s
        minutes = grid["slot_index"] * np.timedelta64(60, "s")
        ts = _SESSION_START + days.astype("timedelta64[D]").astype("timedelta64[s]") + minutes
    return PriceSeries(timestamps=ts, prices=prices, **grid)


def write_price_csv(prices: PriceSeries, path: str) -> None:
    """Write a series as a ``timestamp,price`` CSV.

    The file is ASCII with ``\\n`` line ends: the header line
    ``timestamp,price``, then one line per record.  A daily stamp is
    ``YYYY-MM-DD``, any other ``YYYY-MM-DDTHH:MM:SS`` (a year before 0 or
    after 9999 is written as numpy writes it, with a sign or more digits),
    and a price is its shortest round-trip ``repr``.  The records are
    formatted and written ``_BLOCK`` at a time, so memory grows with the
    block, not with the file.

    Where ``os.fork`` exists and works, a series of two blocks or more is
    formatted in two processes: a forked helper formats every other block
    and hands it back through a pipe, so each process still holds about one
    block.  The bytes are the one-process writer's, and the helper is gone
    when this returns or raises.
    """
    daily = prices.cadence == "daily"
    n = len(prices)

    def block(lo: int) -> np.ndarray:
        at = slice(lo, lo + _BLOCK)
        return _csv_lines(prices.timestamps[at], prices.prices[at], daily)

    with _open_for_rewrite(path, "wb") as fh:
        fh.write(b"timestamp,price\n")
        fds, pid = (), None
        if n > _BLOCK and hasattr(os, "fork"):
            fh.flush()  # the helper inherits the buffer and must find it empty
            # The helper only formats blocks and writes its pipe: it imports
            # nothing and takes no lock another thread could hold (glibc resets
            # malloc's at fork), so the multi-threaded fork warning, which would
            # raise here under -W error and lose the pid, is ignored.
            try:
                fds = os.pipe()
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # out of descriptors, processes or memory: no helper
                for fd in fds:
                    os.close(fd)
        if pid is None:
            for lo in range(0, n, _BLOCK):
                fh.write(block(lo))
            return
        r, w = fds
        if pid == 0:
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    for lo in range(_BLOCK, n, 2 * _BLOCK):
                        lines = block(lo)
                        pipe.writelines((lines.size.to_bytes(8, "little"), lines))
            finally:
                os._exit(0)  # flushes no inherited buffer and runs no caller's cleanup
        os.close(w)
        done = False  # once the helper's last block is read, it is exiting
        try:
            with open(r, "rb") as pipe:
                for lo in range(0, n, _BLOCK):
                    head = pipe.read(8) if lo // _BLOCK % 2 else b""  # a helper block's length, then its bytes
                    size = int.from_bytes(head, "little") if len(head) == 8 else 0
                    lines = pipe.read(size)
                    fh.write(lines if size and len(lines) == size else block(lo))
            done = True
        finally:
            try:
                if not done:
                    from signal import SIGKILL  # here, so that no analyze run loads signal
                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already: SIGCHLD ignored, or another thread's waitpid(-1)


def _csv_lines(timestamps: np.ndarray, prices: np.ndarray, daily: bool) -> np.ndarray:
    """The bytes of the CSV lines of ``timestamps`` (``datetime64[s]``) and ``prices``, as uint8."""
    sec = timestamps.view(np.int64)
    day = sec // _SECONDS_PER_DAY  # a floor division: right before 1970 too
    # The stamp of each record, and its comma: one template per distinct
    # day, with the date formatted once, repeated over the day's records.
    first = np.flatnonzero(np.diff(day, prepend=day[0] - 1))
    dates = np.datetime_as_string(day[first].astype("datetime64[D]"))
    dates = dates.view(np.uint32).reshape(first.size, -1)  # code points, NUL-padded
    width = np.count_nonzero(dates.any(axis=0))
    tail = b"," if daily else b"T00:00:00,"
    template = np.empty((first.size, width + len(tail)), np.uint8)
    template[:, :width] = dates[:, :width]
    template[:, width:] = np.frombuffer(tail, np.uint8)
    per_day = np.diff(first, append=sec.size)
    stamps = np.repeat(template, per_day, axis=0)
    if not daily:
        tod = _times_of_day(timestamps).astype(np.int32)
        for col, unit, base in _CLOCK_DIGITS:
            stamps[:, width + col] = tod // unit % base + ord("0")
    stamp_len = np.repeat(np.count_nonzero(dates, axis=1) + len(tail), per_day)
    stamps = stamps[stamps != 0]  # without the padding of the shorter dates
    # The prices' text is one list repr: "[p0, p1, ...]" becomes "p0\np1\n...\n".
    text = repr(prices.tolist()).encode()[1:-1].replace(b", ", b"\n") + b"\n"
    text = np.frombuffer(text, np.uint8)
    text_len = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)
    # Each line is a stamp with its comma, then a price with its line end.
    lengths = np.stack((stamp_len, text_len), axis=1).ravel()
    is_stamp = np.repeat(np.tile([True, False], sec.size), lengths)
    lines = np.empty(is_stamp.size, np.uint8)
    lines[is_stamp] = stamps
    lines[~is_stamp] = text
    return lines
