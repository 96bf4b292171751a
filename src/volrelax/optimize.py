"""Nelder-Mead minimization for the offset power-law fits.

The algorithm is the Nelder & Mead (1965) simplex search as scipy
implements it (``_minimize_neldermead``, non-adaptive), moved step for
step onto lists of Python floats, which is cheaper on the fits' small
simplices than scipy's array bookkeeping.  A differential test pins it
to scipy bit for bit; scipy itself is needed by the tests only.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

__all__ = ["MinimizeResult", "minimize"]


class MinimizeResult(NamedTuple):
    """The best vertex ``x``, its value ``fun`` and the search's counts."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


class _EvaluationsSpent(Exception):
    """The evaluation budget of :func:`minimize` is used up."""


def minimize(fun, x0, *, xatol, fatol, maxiter, maxfev) -> MinimizeResult:
    """Minimize ``fun`` by Nelder-Mead from the start ``x0``.

    ``fun`` receives a list of floats.  Every step is scipy's: the
    coefficients, the initial simplex, the operand order of each update,
    a stable sort of the vertices (numpy's argsort is one on the <= 3
    vertices of a 1-D or 2-D simplex), the stopping test, and the
    evaluation cut-off, which can stop a shrink partway and does not
    count the interrupted iteration.  ``success`` is False when the
    search ran out of ``maxfev`` evaluations or ``maxiter`` iterations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nfev = 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationsSpent
        nfev += 1
        return fun(x)

    def by_value(sim: list, fsim: list) -> tuple[list, list]:
        # Stable, with NaN last, as numpy sorts.
        order = sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        return [sim[i] for i in order], [fsim[i] for i in order]

    n = len(x0)
    sim = [[float(c) for c in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationsSpent:
        pass
    sim, fsim = by_value(sim, fsim)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
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
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [a + sigma * (b - a) for a, b in zip(s0, sim[j])]
                    fsim[j] = f(sim[j])
            nit += 1
        except _EvaluationsSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return MinimizeResult(
        x=np.array(sim[0]),
        fun=fsim[-1] if fsim[-1] != fsim[-1] else fsim[0],  # np.min: NaN wins, and sorts last
        nit=nit,
        nfev=nfev,
        success=nfev < maxfev and nit < maxiter,
    )
