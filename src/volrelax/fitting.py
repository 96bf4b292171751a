"""Offset power-law fits of cumulative relaxation profiles.

The fitted family comes from integrating a relaxation profile
``v(t) ~ (t+tau)^(-p)`` from 0 to ``t``:

    V(t) = A * [(t+tau)^(1-p) - tau^(1-p)] / (1-p)

which is positive and continuous in ``p`` (the ``1/(1-p)`` factor keeps
it so on both sides of ``p=1``); at ``p = 1`` it degenerates to the
analytic limit ``V(t) = A * ln(1 + t/tau)``.  Fits minimize the mean
squared residual of ``log V`` over about 30 log-spaced lags of the fit
range ``[t_min, t_max]`` (:func:`log_spaced_lags`), so every decade
carries comparable weight.  Every fit, a bootstrap replica's included,
takes the same keywords ``t_min``, ``t_max`` and ``tau_mode``.  The
amplitude ``A`` has a closed form per ``(p, tau)`` candidate.  With ``tau``
pinned to zero, so does ``p``: the fit is log-log least squares
(:func:`_pinned_fit`).  With ``tau`` free, ``p`` and ``tau`` are found by
multistart Nelder-Mead descent from a coarse grid.

All the descents of one fit call (three starts per curve, and ``2B``
curves in :func:`bootstrap_errors`) run in lock step: each is a
:func:`volrelax.optimize.search` over ``(p, sqrt(tau))``, and every round
evaluates the points the live searches ask for in one numpy call per
sample and ``ln g`` formula (:func:`_losses`).  Each search takes exactly
the steps the sequential :func:`volrelax.optimize.minimize` takes on its
own, so the fits are bit for bit those of one curve and one start at a time,
and replica ``r`` draws the events ``default_rng(seed + r)`` would draw,
without loading ``numpy.random`` (:func:`_resample`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import floor, log10
from typing import ClassVar

import numpy as np

from . import optimize
from .errors import (
    BootstrapUnstable,
    InsufficientPositivePoints,
    NoEvents,
    NonConvergence,
    VolrelaxError,
)
from .events import EventSet
from .profiles import CumulativeProfile, _profile_from_indices, cumulative
from .series import VolatilitySeries, mean_volatility
from .tsv import read_tsv, write_tsv

__all__ = [
    "PowerLawFit",
    "BootstrapResult",
    "fit_cumulative",
    "fit_offset_power_law",
    "bootstrap_errors",
    "log_spaced_lags",
    "format_with_stderr",
    "fit_report_row",
    "write_fit_tsv",
    "read_fit_tsv",
    "FIT_COLUMNS",
]

# Column name -> cell type, in file order.
FIT_COLUMNS = {
    "side": str,
    "zeta_multiple": float,
    "origin_filter": str,
    "sign_filter": str,
    "p": float,
    "p_stderr": float,
    "tau": float,
    "A": float,
    "t_min": int,
    "t_max": int,
    "method": str,
    "rms_log_residual": float,
}

# Coarse multistart grid for the (p, tau) search.
_P_GRID = np.linspace(0.05, 1.2, 5)
_TAU_GRID = np.linspace(0.0, 50.0, 5)
_N_STARTS = 3
# Lags each fit samples from its range (log_spaced_lags).
_N_POINTS = 30
_XATOL = 1e-8
_MAX_ITER = 10_000
_PENALTY = 1e12
# p values this close to 1 use the logarithmic limit of the model.
_LOG_LIMIT_EPS = 1e-6


@dataclass(frozen=True)
class PowerLawFit:
    """Result of one fit: ``V(t) ~ A * g(t; p, tau)``."""

    A: float
    p: float
    tau: float
    fit_range: tuple[int, int]
    rms_log_residual: float
    p_stderr: float | None = None
    # The one fit method, named in stdout and in the method column of fits.tsv.
    method: ClassVar[str] = "full_fit"

    def __post_init__(self) -> None:
        if not self.A > 0:
            raise ValueError("amplitude must be positive")
        if not self.tau >= 0:
            raise ValueError("offset tau must be nonnegative")
        if self.fit_range[0] < 1 or self.fit_range[1] < self.fit_range[0]:
            raise ValueError(f"bad fit range {self.fit_range}")
        if not self.rms_log_residual >= 0:
            raise ValueError("rms residual must be nonnegative")
        if self.p_stderr is not None and not self.p_stderr >= 0:
            raise ValueError("p_stderr must be nonnegative")

    def summary(self) -> str:
        """One-line human-readable report, ``p`` with parenthesized error."""
        p_s = format_with_stderr(self.p, self.p_stderr)
        return (
            f"p={p_s} tau={self.tau:.4g} A={self.A:.4g} "
            f"range=[{self.fit_range[0]},{self.fit_range[1]}] "
            f"rms={self.rms_log_residual:.3g} ({self.method})"
        )


@dataclass(frozen=True)
class BootstrapResult:
    """Replica exponents and their spread, per side."""

    p_minus: np.ndarray
    p_plus: np.ndarray
    stderr_minus: float
    stderr_plus: float
    n_failed: int
    n_replicas: int


def format_with_stderr(value: float, stderr: float | None) -> str:
    """Render ``value`` with one error digit in parentheses, e.g. ``0.47(4)``."""
    if stderr is None or not np.isfinite(stderr) or stderr <= 0:
        return f"{value:.3g}"
    exp = floor(log10(stderr))
    digit = round(stderr / 10.0**exp)
    if digit == 10:
        digit = 1
        exp += 1
    decimals = max(0, -exp)
    return f"{value:.{decimals}f}({digit})"


def log_spaced_lags(t_min: int, t_max: int) -> np.ndarray:
    """Approximately log-spaced integer lags covering ``[t_min, t_max]``.

    Returns all lags when the range holds 30 (``_N_POINTS``) or fewer;
    otherwise at least 30 distinct integers including both endpoints.
    """
    if not 1 <= t_min <= t_max:
        raise ValueError(f"need 1 <= t_min <= t_max, got [{t_min}, {t_max}]")
    total = t_max - t_min + 1
    if total <= _N_POINTS:
        return np.arange(t_min, t_max + 1, dtype=np.int64)
    k = _N_POINTS
    while True:
        # np.unique's own sort and mask: np.unique itself imports numpy.ma (numpy 2).
        cand = np.sort(np.rint(np.geomspace(t_min, t_max, k)).astype(np.int64))
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        if cand.size >= _N_POINTS or k > 16 * total:
            return cand
        k *= 2


@lru_cache
def _log_spaced_lags(t_min: int, t_max: int) -> np.ndarray:
    """:func:`log_spaced_lags`, computed once per range and shared, so read-only."""
    lags = log_spaced_lags(t_min, t_max)
    lags.flags.writeable = False
    return lags


# The shapes ln g takes, one formula each; _branch picks one per (p, tau).
_OFFSET, _LOG_LIMIT, _TAU0, _NONE = range(4)
# numpy's power takes a fast path for some exponents given as a scalar (a
# reciprocal for -1, a square root for 0.5, a square for 2; its array
# power's scalar fast path also covers 0 and 1) that can differ in the last
# bit from its general path on arrays.  A one-row fit raises a scalar to a
# scalar, so rows with these exponents are raised one at a time.
_FAST_POWERS = frozenset((-1.0, 0.0, 0.5, 1.0, 2.0))


def _branch(p: float, tau: float) -> int:
    """The shape of ``ln g(t; p, tau)``: offset, log limit, ``tau = 0``, or
    none (``p >= 1`` at ``tau = 0``)."""
    q = 1.0 - p
    if tau > 0.0:
        return _LOG_LIMIT if abs(q) < _LOG_LIMIT_EPS else _OFFSET
    return _NONE if q < _LOG_LIMIT_EPS else _TAU0


def _ln_g(t: np.ndarray, p: np.ndarray, tau: np.ndarray, branch: int) -> np.ndarray | None:
    """``ln g(t; p[k], tau[k])`` in row ``k``, unchecked, for rows that all
    take ``branch``; None for ``_NONE``.

    Entries may be non-finite; the caller decides what overflow means.
    """
    if branch == _NONE:
        return None  # t^q/q is not a positive increasing shape for p >= 1
    q = 1.0 - p[:, None]
    if branch == _TAU0:
        return q * np.log(t) - np.log(q)
    tau = tau[:, None]
    if branch == _LOG_LIMIT:
        return np.log(np.log1p(t / tau))
    if _FAST_POWERS.isdisjoint(q[:, 0].tolist()):
        power = np.power(tau, q)
    else:
        power = np.array([[np.power(a, b)] for a, b in zip(tau[:, 0].tolist(), q[:, 0].tolist())])
    # tau^q * expm1(q*log1p(t/tau)) / q: positive for all q != 0,
    # cancellation-free, and -> log1p(t/tau) as q -> 0.
    return np.log(power * np.expm1(q * np.log1p(t / tau)) / q)


def _losses(
    t: np.ndarray, log_v: np.ndarray, p: np.ndarray, tau: np.ndarray, branch: int
) -> np.ndarray:
    """Mean squared residual of ``log_v[k] - ln g(t; p[k], tau[k])`` about
    its mean, per row ``k``; every row takes ``branch``.

    ``_PENALTY`` wherever the row's ``ln g`` is None or not finite, and
    otherwise bit-identical to computing with its one-row ``ln g`` and
    ``np.mean`` (for a float64 row that is ``sum() / size``).  It is the
    inner loop of every fit, so it enters no ``np.errstate`` (the fit holds
    one) and tests ``ln g`` for non-finite entries only in rows whose loss
    is not finite, which any such entry makes it.
    """
    ln_g = _ln_g(t, p, tau, branch)
    if ln_g is None:
        return np.full(p.size, _PENALTY)
    d = log_v - ln_g
    r = d - d.sum(axis=1, keepdims=True) / t.size
    loss = (r * r).sum(axis=1) / t.size
    bad = ~np.isfinite(loss)
    if bad.any():
        loss[bad & ~np.isfinite(ln_g).all(axis=1)] = _PENALTY
    return loss


def _select_sample(
    lags, values, t_min: int, t_max: int | None, tau_mode: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Log-spaced positive sample ``(t, log V)`` in the fit range, and
    ``t_max``, once ``lags`` and ``values`` are checked to be a curve."""
    lags = np.asarray(lags, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if lags.ndim != 1 or values.ndim != 1:
        raise ValueError(
            f"lags and values must be 1-D, got shapes {lags.shape} and {values.shape}"
        )
    if lags.size == 0:
        raise ValueError("lags is empty")
    if values.size != lags.size:
        raise ValueError(f"lags and values differ in length: {lags.size} and {values.size}")
    if np.any(lags[1:] <= lags[:-1]):
        raise ValueError("lags must be strictly ascending")
    if t_max is None:
        t_max = int(lags[-1])
    if not 1 <= t_min <= t_max <= int(lags[-1]):
        raise ValueError(f"fit range [{t_min}, {t_max}] not within computed lags")
    if tau_mode not in ("free", "fixed_zero"):
        raise ValueError(f"tau_mode must be 'free' or 'fixed_zero', got {tau_mode!r}")
    sample = _log_spaced_lags(t_min, t_max)
    pos = np.searchsorted(lags, sample)
    ok = (pos < lags.size) & (lags[np.minimum(pos, lags.size - 1)] == sample)
    sample, pos = sample[ok], pos[ok]
    if sample.size == 0:
        raise InsufficientPositivePoints("no computed lags in the fit range")
    v = values[pos]
    good = np.isfinite(v) & (v > 0)
    n_bad = int(sample.size - good.sum())
    if n_bad > 0.2 * sample.size:
        raise InsufficientPositivePoints(
            f"{n_bad}/{sample.size} sampled points are nonpositive or undefined"
        )
    if int(good.sum()) < 10:
        raise InsufficientPositivePoints(
            f"need >= 10 positive points in [{t_min}, {t_max}], got {int(good.sum())}"
        )
    return sample[good].astype(np.float64), np.log(v[good]), t_max


def _evaluate(samples: list[tuple[np.ndarray, np.ndarray]], points: list[tuple]) -> list[float]:
    """The loss of each point ``(s, row, p, tau)`` on the curve
    ``samples[s] = (t, log_v)``, ``log_v[row]``: one :func:`_losses` call
    per sample, branch and block of rows."""
    groups: dict[tuple[int, int], list[tuple[int, int, float, float]]] = {}
    for i, (s, row, p, tau) in enumerate(points):
        groups.setdefault((s, _branch(p, tau)), []).append((i, row, p, tau))
    out = [0.0] * len(points)
    for (s, branch), group in groups.items():
        idx, rows, ps, taus = map(list, zip(*group))
        t, log_v = samples[s]
        for lo in range(0, len(idx), 256):  # 256 rows at a time bound the temporaries
            block = slice(lo, lo + 256)
            losses = _losses(t, log_v[rows[block]], np.array(ps[block]), np.array(taus[block]), branch)
            for i, loss in zip(idx[block], losses.tolist()):
                out[i] = loss
    return out


def _descend(
    samples: list[tuple[np.ndarray, np.ndarray]], starts: list[tuple[int, int, np.ndarray]]
) -> list[optimize.MinimizeResult]:
    """One Nelder-Mead search per start ``(s, row, x0)``, all in lock step.

    Search ``i`` minimizes the loss of curve ``row`` of ``samples[s]``
    over ``x = (p, sqrt(tau))``.
    Each round evaluates the point every live search asks for in one
    :func:`_evaluate` call, so a search's result is what
    :func:`volrelax.optimize.minimize` returns for it alone.
    """
    searches = [
        optimize.search(x0, xatol=_XATOL, fatol=_XATOL**2, maxiter=_MAX_ITER, maxfev=_MAX_ITER)
        for _, _, x0 in starts
    ]
    results: list = [None] * len(starts)
    losses: list = [None] * len(starts)
    live = range(len(starts))
    while live:
        asked, points = [], []
        for i in live:
            try:
                x = searches[i].send(losses[i])
            except StopIteration as stop:
                results[i] = stop.value
                continue
            s, row, _ = starts[i]
            asked.append(i)
            points.append((s, row, x[0], x[1] * x[1]))
        for i, loss in zip(asked, _evaluate(samples, points)):
            losses[i] = loss
        live = asked
    return results


def _fit_at(
    p: float, tau: float, t: np.ndarray, log_v: np.ndarray, fit_range: tuple[int, int]
) -> PowerLawFit:
    """The fit of shape ``(p, tau)``, with ``A`` and the rms residual in closed form."""
    ln_g = _ln_g(t, np.array([p]), np.array([tau]), _branch(p, tau))[0]
    ln_a = float(np.mean(log_v - ln_g))
    resid = log_v - ln_g - ln_a
    return PowerLawFit(
        A=float(np.exp(ln_a)),
        p=p,
        tau=tau,
        fit_range=fit_range,
        rms_log_residual=float(np.sqrt(np.mean(resid * resid))),
    )


def _pinned_fit(t: np.ndarray, log_v: np.ndarray, fit_range: tuple[int, int]) -> PowerLawFit:
    """The fit with ``tau = 0``: ``ln q`` (``q = 1 - p``) drops out of the loss
    with the mean, so ``q`` is the least-squares slope of ``log V`` on ``ln t``,
    clamped at ``_LOG_LIMIT_EPS`` (``1 - p`` rounds to no less, so ``p`` keeps
    the ``tau = 0`` shape)."""
    x = np.log(t)
    x = x - np.mean(x)
    y = log_v - np.mean(log_v)
    q = max(float((x * y).sum() / (x * x).sum()), _LOG_LIMIT_EPS)
    return _fit_at(1.0 - q, 0.0, t, log_v, fit_range)


def _best_fit(
    results: list[optimize.MinimizeResult],
    t: np.ndarray,
    log_v: np.ndarray,
    fit_range: tuple[int, int],
) -> PowerLawFit:
    """A curve's fit from its searches over ``(p, sqrt(tau))``, taken in
    start order: the first converged search with the least loss."""
    converged = [res for res in results if res.success and res.fun < _PENALTY / 2]
    if not converged:
        raise NonConvergence(
            f"no start converged within {_MAX_ITER} iterations at tolerance {_XATOL}"
        )
    best = min(converged, key=lambda res: res.fun)
    return _fit_at(float(best.x[0]), float(best.x[1] ** 2), t, log_v, fit_range)


def _fit_many(
    curves: list[tuple[np.ndarray, np.ndarray]],
    t_min: int,
    t_max: int | None,
    tau_mode: str,
) -> list[PowerLawFit | Exception]:
    """Fit each ``(lags, values)`` curve as :func:`fit_offset_power_law`
    does, and return per curve its fit or the error that fit raises.

    With ``tau`` pinned, each curve's fit is :func:`_pinned_fit`.  With
    ``tau`` free, each curve is scored on the coarse grid, and its best
    three starts are searched, once for curves whose samples, ``log V``
    and fit range are equal; every search runs in one :func:`_descend`,
    on one stacked ``log V`` matrix per distinct sample.  A curve's fit is
    chosen from its searches as one curve at a time would (:func:`_best_fit`).
    """
    out: list = [None] * len(curves)
    stacks: dict[bytes, tuple[int, np.ndarray, list[np.ndarray]]] = {}  # t -> (s, t, rows)
    fitted: list[tuple[int, int, int, int]] = []  # curve, sample, row, t_max
    firsts: dict[tuple, int] = {}  # (t, log V, t_max) -> the first curve sampled so
    # One errstate for all the fits, not one per loss evaluation: an
    # overflowing model becomes _PENALTY, and exp(ln A) may overflow to
    # inf, and neither warns.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for c, (lags, values) in enumerate(curves):
            try:
                t, log_v, t_hi = _select_sample(lags, values, t_min, t_max, tau_mode)
            except (ValueError, VolrelaxError) as exc:
                out[c] = exc
                continue
            if tau_mode == "fixed_zero":
                out[c] = _pinned_fit(t, log_v, (int(t_min), int(t_hi)))
                continue
            if (first := firsts.setdefault((t.tobytes(), log_v.tobytes(), t_hi), c)) != c:
                out[c] = first  # its searches would be the first's: it takes that fit at the end
                continue
            s, _, rows = stacks.setdefault(t.tobytes(), (len(stacks), t, []))
            rows.append(log_v)
            fitted.append((c, s, len(rows) - 1, t_hi))
        samples = [(t, np.array(rows)) for _, t, rows in stacks.values()]

        grid = [(p0, tau0) for p0 in _P_GRID for tau0 in _TAU_GRID]
        scores = _evaluate(samples, [(s, row, *x) for _, s, row, _ in fitted for x in grid])
        starts = []
        for k, (_, s, row, _) in enumerate(fitted):
            score = scores[k * len(grid) : (k + 1) * len(grid)]
            for i in sorted(range(len(grid)), key=lambda i: (score[i], i))[:_N_STARTS]:
                p0, tau0 = grid[i]
                starts.append((s, row, np.array([p0, np.sqrt(tau0)])))
        results = _descend(samples, starts)
        for k, (c, s, row, t_hi) in enumerate(fitted):
            mine = results[k * _N_STARTS : (k + 1) * _N_STARTS]
            try:
                out[c] = _best_fit(mine, samples[s][0], samples[s][1][row], (int(t_min), int(t_hi)))
            except (ValueError, VolrelaxError) as exc:
                out[c] = exc
    return [out[fit] if isinstance(fit, int) else fit for fit in out]


def _fit_or_raise(fit: PowerLawFit | Exception) -> PowerLawFit:
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_offset_power_law(
    lags: np.ndarray,
    values: np.ndarray,
    t_min: int = 5,
    t_max: int | None = None,
    tau_mode: str = "free",
) -> PowerLawFit:
    """Fit ``values ~ A*g(t; p, tau)`` over integer ``lags``.

    ``lags`` must be 1-D and strictly ascending; ``values`` is the curve
    to fit (a cumulative profile or an Omori count), one value per lag.
    The optimizer is Nelder-Mead over ``(p, sqrt(tau))`` — the
    square-root transform enforces ``tau >= 0`` — started from the best
    three points of a coarse grid.  The three descents run in lock
    step (:func:`volrelax.optimize.search`), as the many descents of a
    bootstrap do; each is step for step the sequential
    :func:`volrelax.optimize.minimize`.  With ``tau_mode='fixed_zero'``
    nothing is searched: ``1 - p`` is the least-squares slope of ``log V``
    on ``ln t``, clamped at ``1e-6`` (``p = 1 - 1e-6``).

    Raises
    ------
    ValueError
        ``lags`` empty, not 1-D or not strictly ascending, ``values``
        not 1-D or of another length, or the fit range or ``tau_mode``
        invalid.
    InsufficientPositivePoints
        Fewer than 10 usable points, or more than 20% of the sampled
        points nonpositive.
    NonConvergence
        With ``tau`` free, no start reached the optimizer tolerance within
        budget.
    """
    return _fit_or_raise(_fit_many([(lags, values)], t_min, t_max, tau_mode)[0])


def fit_cumulative(
    cum: CumulativeProfile,
    side: str,
    t_min: int = 5,
    t_max: int | None = None,
    tau_mode: str = "free",
) -> PowerLawFit:
    """Fit one side of a cumulative profile (``'-'`` before, ``'+'`` after)."""
    return fit_offset_power_law(cum.lags, cum.side(side), t_min=t_min, t_max=t_max, tau_mode=tau_mode)


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier


def _word_hash(const: int, mult: int):
    """SeedSequence's hash of one 32-bit word; its constant steps by ``mult`` per word."""
    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashed


def _resample(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).integers(0, n, n)`` for ``1 <= n <= 2**31``, bit
    for bit, without loading ``numpy.random`` (it maps OpenSSL through ``secrets``):
    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of 4 and the
    pool into a PCG64 state; each XSL-RR output gives two words, low half first;
    Lemire's multiply-shift draws ``w * n >> 32``, unless ``w * n mod 2**32 < 2**32 mod n``.
    """
    if (seed := operator.index(seed)) < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    mix_hash = _word_hash(0x43B0D7E5, 0x931E8875)
    pool = [mix_hash(word) for word in (entropy + [0, 0, 0])[:4]]
    for i in range(max(4, len(entropy))):  # each pool word, then each seed word past the pool
        for dst in [d for d in range(4) if d != i]:
            y = mix_hash(pool[i] if i < 4 else entropy[i])
            x = (0xCA01F9DD * pool[dst] - 0x4973F715 * y) & _M32
            pool[dst] = x ^ x >> 16
    w = list(map(_word_hash(0x8B51F9DD, 0x58F38DED), pool + pool))  # the state's 8 words
    inc = (w[4] << 64 | w[5] << 96 | w[6] | w[7] << 32) << 1 & _M128 | 1
    state = ((inc + (w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32)) * _PCG_MULT + inc) & _M128
    threshold, drawn = (1 << 32) % n, np.empty(0, dtype=np.int64)
    while drawn.size < n:  # a rejected word's draw is taken from the next word
        raw = b"".join(
            (state := (state * _PCG_MULT + inc) & _M128).to_bytes(16, "little")
            for _ in range((n - drawn.size + 1) // 2)  # outputs of two words each
        )
        lo, hi = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
        x, rot = lo ^ hi, hi >> np.uint64(58)
        x = (x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))).astype("<u8")
        m = x.view("<u4").astype(np.int64) * n
        drawn = np.concatenate([drawn, m[(m & _M32) >= threshold] >> 32])
    return drawn[:n]


def bootstrap_errors(
    vol: VolatilitySeries,
    events: EventSet,
    max_lag: int,
    B: int,
    seed: int,
    t_min: int = 5,
    t_max: int | None = None,
    tau_mode: str = "free",
) -> BootstrapResult:
    """Bootstrap standard errors of ``p`` for both sides.

    Replica ``r`` resamples the ``n`` events with replacement at the indices
    ``default_rng(seed + r).integers(0, n, n)`` gives, computed without
    loading ``numpy.random`` (:func:`_resample`), recomputes the profile over lags
    ``0..max_lag`` (``sigma`` from ``vol``, as :func:`remanent_profile`
    takes it) and refits both sides with :func:`fit_cumulative`'s
    ``t_min``, ``t_max`` and ``tau_mode``; the standard error is the
    sample standard deviation of the replica exponents.  The first ``B``
    replicas are identical regardless of any larger ``B`` requested later
    (seeding is per replica).  All ``2B`` refits run as one lock-step
    :func:`_fit_many`, each equal to its own :func:`fit_cumulative`.
    A replica fails when its profile or a side's fit raises a
    :class:`VolrelaxError`: a failed profile or ``-`` side leaves both
    exponents NaN, a failed ``+`` side keeps ``p_minus[r]``.  No fit gives
    a NaN ``p``, so ``n_failed`` is the number of replicas whose ``p_plus`` is NaN.
    """
    if B < 2:
        raise ValueError("need at least 2 bootstrap replicas")
    if len(events) == 0:
        raise NoEvents("cannot bootstrap an empty event set")
    sigma = mean_volatility(vol)
    cums: dict[int, CumulativeProfile] = {}  # replica -> its profile, if it has one
    for r in range(B):
        idx = events.indices[_resample(seed + r, len(events))]
        try:
            prof = _profile_from_indices(vol.values, idx, max_lag, sigma)
        except VolrelaxError:
            continue
        cums[r] = cumulative(prof)
    curves = [(cum.lags, cum.side(side)) for cum in cums.values() for side in "-+"]
    fits = _fit_many(curves, t_min, t_max, tau_mode)
    p_m = np.full(B, np.nan)
    p_p = np.full(B, np.nan)
    for r, fit_m, fit_p in zip(cums, fits[::2], fits[1::2]):
        try:
            p_m[r] = _fit_or_raise(fit_m).p
            p_p[r] = _fit_or_raise(fit_p).p
        except VolrelaxError:
            pass
    n_failed = int(np.isnan(p_p).sum())
    if n_failed > 0.1 * B:
        raise BootstrapUnstable(f"{n_failed}/{B} bootstrap replicas failed to fit")
    return BootstrapResult(
        p_minus=p_m,
        p_plus=p_p,
        stderr_minus=float(np.std(p_m[~np.isnan(p_m)], ddof=1)),
        stderr_plus=float(np.std(p_p[~np.isnan(p_p)], ddof=1)),
        n_failed=n_failed,
        n_replicas=B,
    )


def fit_report_row(
    side: str,
    zeta_multiple: float,
    origin_filter: str,
    sign_filter: str,
    fit: PowerLawFit | Exception,
) -> tuple:
    """One fit-report row for :func:`write_fit_tsv`: the fit, or a marker row for the error that stopped it."""
    nan = float("nan")
    head = (side, float(zeta_multiple), origin_filter, sign_filter)
    if isinstance(fit, Exception):
        return (*head, nan, nan, nan, nan, 0, 0, f"failed:{type(fit).__name__}", nan)
    stderr = nan if fit.p_stderr is None else fit.p_stderr
    return (*head, fit.p, stderr, fit.tau, fit.A, *fit.fit_range, fit.method, fit.rms_log_residual)


def write_fit_tsv(rows: list[tuple], path: str) -> None:
    """Write fit-report rows under the standard header."""
    write_tsv(path, FIT_COLUMNS, zip(*rows))


def read_fit_tsv(path: str) -> list[dict[str, object]]:
    """Read a fit report back as a list of typed row dicts."""
    cols = read_tsv(path, FIT_COLUMNS)
    return [dict(zip(FIT_COLUMNS, row)) for row in zip(*cols.values())]
