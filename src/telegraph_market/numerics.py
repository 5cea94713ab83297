"""Shared numerical helpers: a quadrature rule, a bracketed root finder,
series tail bounds, log factorials and 2x2 matrix exponential row sums."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


_MAX_EXPAND = 200
_MAX_BRENT_ITER = 200


def geometric_root(
    f: Callable[[float], float],
    start: float,
    factor: float,
    *,
    rtol: float,
    abs_tol: float = 0.0,
    f_start: float | None = None,
) -> float | None:
    """Root of ``f`` beyond ``start``: the first sign change on the points
    start * factor^k (k <= 200), then Brent's method on that bracket.

    ``factor`` > 1 searches upwards, < 1 downwards; ``f_start`` is f(start)
    when the caller already has it. Returns None when ``f`` keeps its sign.
    The bracket is closed to a width of rtol * |x| + abs_tol; a function with
    a jump instead of a root gives the point next to the jump.
    """
    lo = start
    flo = f(lo) if f_start is None else f_start
    if flo == 0.0:
        return lo
    hi = lo * factor
    for _ in range(_MAX_EXPAND):
        fhi = f(hi)
        if fhi == 0.0 or (fhi > 0.0) != (flo > 0.0):
            return _brent(f, lo, hi, flo, fhi, rtol, abs_tol)
        lo, flo = hi, fhi
        hi *= factor
    return None


def _brent(
    f: Callable[[float], float],
    x_pre: float,
    x_cur: float,
    f_pre: float,
    f_cur: float,
    rtol: float,
    abs_tol: float,
) -> float:
    """Brent's method on a bracket with f_pre, f_cur of opposite signs.

    Each step is a secant or inverse quadratic interpolation step when it
    stays well inside the bracket and bisection otherwise (R. P. Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 4).
    """
    if f_cur == 0.0:
        return x_cur
    x_blk = f_blk = 0.0
    s_pre = s_cur = 0.0
    for _ in range(_MAX_BRENT_ITER):
        if (f_pre > 0.0) != (f_cur > 0.0):  # x_blk keeps the sign change
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (abs_tol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    return x_cur


def poisson_tail_bounds(rate_t: float, n_max: int) -> np.ndarray:
    """Upper bounds on sum_{k > n} (rate_t)^k / k! for n = 0..n_max.

    Uses the geometric-ratio bound on the Poisson-type tail, the head term
    rate_t^{n+1} / (n+1)! over 1 - rate_t / (n + 2); valid (and finite) once
    n + 2 > rate_t, else +inf. A bound past the float range is +inf as well.
    """
    k = np.arange(1, n_max + 2)  # n + 1
    if rate_t <= 0.0:
        return np.zeros(k.size)
    ratio = rate_t / (k + 1)
    with np.errstate(over="ignore", divide="ignore"):
        head = np.exp(k * math.log(rate_t) - log_factorial(k))
        return np.where(ratio < 1.0, head / (1.0 - ratio), math.inf)


_LOG_FACTORIALS = np.zeros(1)  # log k! for k < len, grown by log_factorial


def log_factorial(k: np.ndarray | int) -> np.ndarray | float:
    """log k! for a nonnegative integer or integer array k.

    Read from a table of ``math.lgamma`` values, so a call costs one array
    index; the table doubles in length whenever a larger k is asked for.
    Growing it only appends entries, so no caller sees a value change.
    """
    global _LOG_FACTORIALS
    try:
        return _LOG_FACTORIALS[k]
    except IndexError:
        size = len(_LOG_FACTORIALS)
        while size <= np.max(k):
            size *= 2
        table = np.array([math.lgamma(j + 1) for j in range(size)])
        _LOG_FACTORIALS = table
        return table[k]


@lru_cache(maxsize=32)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], solved once per order.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def expm_2x2_row_sums(
    k11: float, k12: float, k21: float, k22: float, t: float
) -> tuple[float, float]:
    """e^{tK}·1 for K = [[k11, k12], [k21, k22]], k12, k21 > 0: real eigenvalues
    m ± rho (m, delta = (k11 ± k22)/2, rho = hypot(delta, sqrt(k12 k21))) give
    e^{(m + rho)t} [(1 + e^{-2 rho t})/2 + row (1 - e^{-2 rho t})/(2 rho)] with
    row = (delta + k12, k21 - delta); e^{mt} cosh(rho t) would give 0 * inf
    when m ~ -rho. Raises ``OverflowError`` when either row sum leaves the
    float range, also when e^{(m + rho)t} fits but row * spread is large."""
    m, delta = 0.5 * (k11 + k22), 0.5 * (k11 - k22)
    rho = math.hypot(delta, math.sqrt(k12 * k21))
    even = 0.5 * (1.0 + math.exp(-2.0 * rho * t))
    spread = -math.expm1(-2.0 * rho * t) / (2.0 * rho) if rho > 0 else t
    scale = math.exp((m + rho) * t)
    rows = (
        scale * (even + (delta + k12) * spread),
        scale * (even + (k21 - delta) * spread),
    )
    if not (math.isfinite(rows[0]) and math.isfinite(rows[1])):
        raise OverflowError("e^{tK} row sum out of float range")
    return rows
