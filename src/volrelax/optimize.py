"""Nelder-Mead minimization for the offset power-law fits.

The algorithm is the Nelder & Mead (1965) simplex search as scipy
implements it (``_minimize_neldermead``, non-adaptive), moved step for
step onto scalar local variables for the one size the fits search: two
parameters, ``p`` and ``sqrt(tau)`` (a fit with ``tau`` pinned to zero has
a closed form); any other size is refused.  :func:`search` is the search
itself, written as a generator that asks its caller for each loss, so that
one caller can advance many searches in lock step and evaluate their points
together; :func:`minimize` drives one search with a function.  A
differential test pins it to scipy bit for bit; scipy itself is needed by
the tests only.  A stalled search (simplex within ``xatol``, values not
within ``fatol``) can cycle to the end of its budget; once a state repeats
bit for bit, all but a period or two are counted, not run.
"""

from __future__ import annotations

from collections.abc import Generator
from math import inf
from struct import pack
from typing import NamedTuple

import numpy as np

__all__ = ["MinimizeResult", "minimize", "search"]

# scipy's rho, chi, psi and sigma, and each update's weights on the centroid
# and on the worst vertex: reflection, expansion, outside and inside contraction.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_WEIGHTS = (1 + _RHO, _RHO, 1 + _RHO * _CHI, _RHO * _CHI, 1 + _PSI * _RHO, _PSI * _RHO, 1 - _PSI, _PSI)


class MinimizeResult(NamedTuple):
    """The best vertex ``x``, its value ``fun`` and the search's counts."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def search(
    x0, *, xatol, fatol, maxiter, maxfev
) -> Generator[list[float], float, MinimizeResult]:
    """Nelder-Mead from the start ``x0`` (two coordinates, else
    ``ValueError``), one loss at a time.

    Yields each point it wants evaluated, as a list of floats; send the
    loss back as a float.  Returns (as ``StopIteration.value``) the
    :class:`MinimizeResult`.  Every step is scipy's: the coefficients,
    the initial simplex, the operand order of each update, a stable sort
    of the vertices with NaN last (numpy's argsort is one on the 3
    vertices of the simplex), the stopping test, and the
    evaluation cut-off, which can stop a shrink partway and does not
    count the interrupted iteration.  ``nfev`` and ``nit`` are scipy's
    counts, skipped periods of a cycle included (a search's future depends
    on its counts only through the budget tests); ``success`` is False when
    the search ran out of ``maxfev`` evaluations or ``maxiter`` iterations.
    """
    x0 = [float(c) for c in x0]
    if len(x0) != 2:
        raise ValueError(f"Nelder-Mead searches 2 parameters, got {len(x0)}")
    return _search_2d(*x0, xatol, fatol, maxiter, maxfev)


def _step(c: float) -> float:
    """A coordinate of the initial simplex, moved from the start's ``c``."""
    return (1 + 0.05) * c if c != 0 else 0.00025


def _skip(cycle: list, bits: bytes, nit: int, nfev: int, maxiter: int, maxfev: int) -> tuple[int, int]:
    """The counts at a stalled head (one that passed its budget tests) of state ``bits``:
    ``cycle`` holds the stalled heads so far and the ``(bits, nit, nfev)`` of the last and
    of the mark; on a repeat of either, all but a period or two of the budget are skipped."""
    heads, last, mark = cycle
    for seen in (last, mark):  # last finds a one-iteration cycle at once, mark any other
        if seen and seen[0] == bits:
            di, df = nit - seen[1], nfev - seen[2]
            k = max(min((maxfev - nfev) // df, (maxiter - nit) // di) - 1, 0)
            nit, nfev = nit + k * di, nfev + k * df
            break
    heads, last = heads + 1, (bits, nit, nfev)
    cycle[:] = heads, last, last if heads & (heads - 1) == 0 else mark  # Brent's: marks at heads 1, 2, 4, ...
    return nit, nfev


# Vertex k is (x{k}, y{k}) with loss f{k}, sorted at the head of each
# iteration: b goes before a when b < a, or when a is NaN and b is not.  A
# refused evaluation (the budget is spent) skips the rest of its iteration
# with `continue`, back to that sort, after which the loop ends.


def _search_2d(x0, y0, xatol, fatol, maxiter, maxfev):
    rb, rw, eb, ew, cb, cw, ib, iw = _WEIGHTS
    x1, y1, x2, y2 = _step(x0), y0, x0, _step(y0)
    nfev = min(3, maxfev)  # the initial simplex's losses are asked for while the budget lasts
    f0 = (yield [x0, y0]) if nfev > 0 else inf
    f1 = (yield [x1, y1]) if nfev > 1 else inf
    f2 = (yield [x2, y2]) if nfev > 2 else inf
    nit, cycle = 1, [0, None, None]
    while True:
        if f1 < f0 or f0 != f0 and f1 == f1:
            x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        if f2 < f1 or f1 != f1 and f2 == f2:
            if f2 < f0 or f0 != f0 and f2 == f2:
                x0, y0, f0, x1, y1, f1, x2, y2, f2 = x2, y2, f2, x0, y0, f0, x1, y1, f1
            else:
                x1, y1, f1, x2, y2, f2 = x2, y2, f2, x1, y1, f1
        if nfev >= maxfev or nit >= maxiter:
            break
        if abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol and abs(x2 - x0) <= xatol and abs(y2 - y0) <= xatol:
            if abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol:
                break
            nit, nfev = _skip(cycle, pack("9d", f0, f1, f2, x0, y0, x1, y1, x2, y2), nit, nfev, maxiter, maxfev)
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr, yr = rb * xb - rw * x2, rb * yb - rw * y2
        fxr = yield [xr, yr]
        nfev += 1
        if fxr < f1 and not fxr < f0:  # keep the reflection
            x2, y2, f2 = xr, yr, fxr
        elif nfev >= maxfev:  # every other branch asks for a second loss
            continue
        elif fxr < f0:  # expand
            xe, ye = eb * xb - ew * x2, eb * yb - ew * y2
            fxe = yield [xe, ye]
            nfev += 1
            x2, y2, f2 = (xe, ye, fxe) if fxe < fxr else (xr, yr, fxr)
        else:  # contract outside or inside, or shrink
            outside = fxr < f2
            xc, yc = (cb * xb - cw * x2, cb * yb - cw * y2) if outside else (ib * xb + iw * x2, ib * yb + iw * y2)
            fxc = yield [xc, yc]
            nfev += 1
            if fxc <= fxr if outside else fxc < f2:
                x2, y2, f2 = xc, yc, fxc
            else:
                x1, y1 = x0 + _SIGMA * (x1 - x0), y0 + _SIGMA * (y1 - y0)
                if nfev >= maxfev:
                    continue  # the vertex moved, its value did not, nit stays
                f1 = yield [x1, y1]
                nfev += 1
                x2, y2 = x0 + _SIGMA * (x2 - x0), y0 + _SIGMA * (y2 - y0)
                if nfev >= maxfev:
                    continue
                f2 = yield [x2, y2]
                nfev += 1
        nit += 1
    fun = f2 if f2 != f2 else f0  # np.min: NaN wins, and sorts last
    return MinimizeResult(np.array([x0, y0]), fun, nit, nfev, nfev < maxfev and nit < maxiter)


def minimize(fun, x0, *, xatol, fatol, maxiter, maxfev) -> MinimizeResult:
    """Minimize ``fun`` by Nelder-Mead from the start ``x0``: :func:`search`
    driven by ``fun``, which receives a list of floats.

    The fits run their searches in lock step instead; this sequential
    loop is what each of those searches is tested against, and the
    benchmark tracer (``perfbench/tracing.py``) still wraps it.
    """
    steps = search(x0, xatol=xatol, fatol=fatol, maxiter=maxiter, maxfev=maxfev)
    try:
        x = next(steps)
        while True:
            x = steps.send(fun(x))
    except StopIteration as stop:
        return stop.value
