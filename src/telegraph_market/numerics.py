"""Shared numerical helpers: quadrature nodes, bisection, series tail bounds."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    rtol: float = 1e-13,
    abs_tol: float = 0.0,
    max_iter: int = 200,
) -> float:
    """Root of a sign-changing continuous function on [lo, hi] by bisection."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisect_root: no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= rtol * max(abs(lo), abs(hi)) + abs_tol:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def expand_bracket_up(
    f: Callable[[float], float],
    start: float,
    *,
    factor: float = 4.0,
    max_expand: int = 200,
) -> tuple[float, float] | None:
    """Geometric search for a sign change of ``f`` on [start * factor^k] upwards.

    Returns a bracketing pair or None if ``f`` keeps its sign throughout.
    """
    lo = start
    flo = f(lo)
    if flo == 0.0:
        return (lo, lo)
    hi = lo * factor
    for _ in range(max_expand):
        fhi = f(hi)
        if flo * fhi <= 0:
            return (lo, hi)
        lo, flo = hi, fhi
        hi *= factor
    return None


def expand_bracket_down(
    f: Callable[[float], float],
    start: float,
    *,
    factor: float = 4.0,
    max_expand: int = 200,
) -> tuple[float, float] | None:
    """Geometric search for a sign change on [start / factor^k, start]."""
    hi = start
    fhi = f(hi)
    if fhi == 0.0:
        return (hi, hi)
    lo = hi / factor
    for _ in range(max_expand):
        flo = f(lo)
        if flo * fhi <= 0:
            return (lo, hi)
        hi, fhi = lo, flo
        lo /= factor
    return None


def poisson_tail_bound(rate_t: float, n: int) -> float:
    """Upper bound on sum_{k > n} (rate_t)^k / k!.

    Uses the geometric-ratio bound on the Poisson-type tail; valid (and
    finite) once n + 2 > rate_t, else returns +inf.
    """
    if rate_t <= 0.0:
        return 0.0
    ratio = rate_t / (n + 2)
    if ratio >= 1.0:
        return math.inf
    log_head = (n + 1) * math.log(rate_t) - math.lgamma(n + 2)
    return math.exp(log_head) / (1.0 - ratio)


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


def gauss_legendre_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
