"""Nelder-Mead minimization for the offset power-law fits.

The algorithm is the Nelder & Mead (1965) simplex search as scipy
implements it (``_minimize_neldermead``, non-adaptive), moved step for
step onto lists of Python floats, which is cheaper on the fits' small
simplices than scipy's array bookkeeping.  :func:`search` is the search
itself, written as a generator that asks its caller for each loss, so
that one caller can advance many searches in lock step and evaluate
their points together; :func:`minimize` drives one search with a
function.  A differential test pins it to scipy bit for bit; scipy
itself is needed by the tests only.
"""

from __future__ import annotations

from collections.abc import Generator
from math import inf
from typing import NamedTuple

import numpy as np

__all__ = ["MinimizeResult", "minimize", "search"]


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
    """Nelder-Mead from the start ``x0``, one loss at a time.

    Yields each point it wants evaluated, as a list of floats; send the
    loss back as a float.  Returns (as ``StopIteration.value``) the
    :class:`MinimizeResult`.  Every step is scipy's: the coefficients,
    the initial simplex, the operand order of each update, a stable sort
    of the vertices with NaN last (numpy's argsort is one on the <= 3
    vertices of a 1-D or 2-D simplex), the stopping test, and the
    evaluation cut-off, which can stop a shrink partway and does not
    count the interrupted iteration.  ``success`` is False when the
    search ran out of ``maxfev`` evaluations or ``maxiter`` iterations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = [[float(c) for c in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [inf] * (n + 1)
    nfev = 0
    for k in range(min(n + 1, maxfev)):
        fsim[k] = yield sim[k]
        nfev += 1
    nit = 1
    # A refused evaluation (the budget is spent) skips the rest of its
    # iteration with `continue`, back to this sort, after which the loop ends.
    while True:
        order = sorted(range(n + 1), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        if nfev >= maxfev or nit >= maxiter:
            break
        s0, f0 = sim[0], fsim[0]
        x_close = all(abs(c - c0) <= xatol for v in sim[1:] for c, c0 in zip(v, s0))
        if x_close and all(abs(f0 - fv) <= fatol for fv in fsim[1:]):
            break
        xbar = s0
        for v in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        fxr = yield xr
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            if nfev >= maxfev:
                continue
            xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
            fxe = yield xe
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            if nfev >= maxfev:
                continue
            xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
            fxc = yield xc
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            if nfev >= maxfev:
                continue
            xcc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
            fxcc = yield xcc
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [a + sigma * (b - a) for a, b in zip(s0, sim[j])]
                if nfev >= maxfev:
                    break  # the vertex moved, its value did not, nit stays
                fsim[j] = yield sim[j]
                nfev += 1
            else:
                nit += 1
        else:
            nit += 1
    return MinimizeResult(
        x=np.array(sim[0]),
        fun=fsim[-1] if fsim[-1] != fsim[-1] else fsim[0],  # np.min: NaN wins, and sorts last
        nit=nit,
        nfev=nfev,
        success=nfev < maxfev and nit < maxiter,
    )


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
