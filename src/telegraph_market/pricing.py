"""Closed-form European option pricing for jump telegraph markets.

The call price is a series over the number of regime switches,
price = S0 * U - K * u, where U is the same series as u evaluated at tilted
intensities. Each term u_n is the discounted mass of the closed-form n-switch
density above the kappa-shifted log-strike. Two routes compute the terms:

- ``call_price`` integrates the densities for every switch count in one
  array op (``series_terms``), which takes u, U and the quantile hedge's
  sums from one matrix of the intensity-free density part, built from the
  nodes' distances to the two rays (c_+ = c_- markets: velocities (1, 0));
- ``call_value_surface`` and the hedge path use the transport route: each
  term solves a pair of coupled first-order transport equations with a
  combinatorial solution built from confluent hypergeometric functions
  (``v_n``, ``P_n``): v_n sums kernels phi_{k,n} whose integer coefficients
  beta_{k,j} come from one recurrence table (``_beta_table``). Every order
  of those kernels comes from one table per point set (``_kernel_table``),
  built by a backward recurrence over the order in O(n) array operations,
  with large scales folded into its exponent. ``call_u_U`` sums a whole
  value surface: it fixes one series stop for all its points, and splits
  the points at the rays y = c_- t and y = c_+ t once for u and U
  (``_split``). Terms above the fast ray are 0. Below the slow ray a term
  is the full mass rho_n(t), which depends on t alone, so the below-ray
  part of a sum is read from a cumulative table over the distinct t of the
  whole call (the backtest's grid times repeat across paths), one for each
  of u and U. Only the wedge between the rays evaluates ``v_n``. A hedge
  ratio needs the surface at a state and at its post-jump state
  (x (1 + h_sigma), -sigma), whose n-term sits at the points of the
  state's (n + 1)-term: ``call_value_and_jump`` sums both in one
  ``call_u_U`` pass, with one stop, one split and one kernel table per n
  for both states. On the benchmark's hedge inputs (one round, 155 036
  points, both states counted) 89.9% of the (point, n) pairs lie below,
  8.5% in the wedge and 1.6% above. The wedge stays on the transport
  kernels: its 0.30M pairs at 48 Gauss-Legendre nodes would be 14.6M
  density evaluations for each of u and U, about 0.9 s each at 60 ns per
  node, while the kernels take 0.018 s for all four sums (2 vCPU).
- ``u_n`` gives single terms through the same region split (U_n is u_n
  at the tilted intensities, r = 0); it is the per-term reference the
  tests compare the integrated terms with.

The u and U series take their rates from ``series_rates``. Every
switch-count series stops at the one rule of ``series_length``: the first
n where weighted Poisson-type tail bounds fall below tail_epsilon. The
payoff sum of ``european_price_F`` weights them by the largest discounted
payoff on the slices it has evaluated, and evaluates more slices until
the stop lies among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densities import DensityParams, p_n_continuous
from .errors import NegativePriceError, TruncationError
from .measure import MartingaleIntensities, martingale_intensities
from .model import (
    ModelParams,
    Regime,
    check_finite,
    check_regime,
    linear_transform_coeffs,
    log_kappa_sequence,
)
from .numerics import gauss_legendre_rule, log_factorial, poisson_tail_bounds

_HYP_MAX_TERMS = 500
# points per slice of ``call_u_U``. Each series term makes temporaries of a
# slice's size (the region split, the gathered masses) and a kernel table
# over the slice's wedge points, which the allocator may return to the OS
# and fault back in on every term. On the benchmark's hedge round (2 vCPU)
# 2^14 points fault about a third as many pages as 2^15 but run slower, and
# 2^16 fault more and run no faster
_CHUNK = 1 << 15


@dataclass(frozen=True)
class CallSpec:
    """European call contract: strike and maturity."""

    strike: float
    maturity: float

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.strike > 0:
            raise ValueError("strike must be positive")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")


@dataclass(frozen=True)
class SeriesControls:
    """Truncation policy for the pricing series."""

    tail_epsilon: float = 1e-12
    max_terms: int = 400

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.tail_epsilon > 0:
            raise ValueError("tail_epsilon must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True)
class PriceBreakdown:
    """Call price with its per-switch-count decomposition and diagnostics."""

    y: float
    u_terms: np.ndarray
    U_terms: np.ndarray
    u: float
    U: float
    price: float
    tail_bound: float
    regime_case: str
    idx_minus: int | None
    idx_plus: int | None
    n_used: int


def hyp1f1(alpha: float, beta: float, z: np.ndarray | float) -> np.ndarray | float:
    """Confluent hypergeometric 1F1(alpha; beta; z) by its direct series.

    Vectorized over z; stops when every term drops below 1e-16 relative.
    The pricing routes do not call it: they read every order of their
    kernels from ``_kernel_table``, which has no term budget to exhaust.
    """
    if beta <= 0 and beta == int(beta):
        raise ValueError("beta must not be a nonpositive integer")
    z_arr = np.asarray(z, dtype=float)
    term = np.ones_like(z_arr)
    acc = np.ones_like(z_arr)
    for k in range(_HYP_MAX_TERMS):
        term = term * ((alpha + k) / ((beta + k) * (k + 1))) * z_arr
        acc = acc + term
        if (np.abs(term) <= 1e-16 * np.abs(acc)).all():
            return acc if np.ndim(z) else float(acc)
    raise TruncationError("hyp1f1 series did not converge within the term budget")


def _m_index(n: int, sigma: Regime) -> int:
    return n // 2 if sigma == +1 else (n - 1) // 2


def _kernel_table(
    p: np.ndarray,
    n_max: int,
    a_bar: float,
    row_scale: np.ndarray | float = 0.0,
    point_scale: np.ndarray | float = 0.0,
    n_min: int = 0,
) -> np.ndarray:
    """Rows e^{row_scale + point_scale} P_k^{(-)}(p), k = n_min..n_max, over
    the points p >= 0 (a 1-d array); ``row_scale`` is a scalar or has one
    entry per row, ``point_scale`` a scalar or one entry per point.

    P_k^{(-)}(p) = (p^k / k!) h_k with h_k = M(m_k + 1, k + 1, -z), z = a_bar p
    and m_k = (k - 1) // 2, and for k = 2j+1, 2j+2 it is the integral
    int_0^p e^{-a_bar s} s^j (p - s)^l / (j! l!) ds with l = j, j + 1.
    Integration by parts and s + (p - s) = p give a three-term recurrence in
    k (the contiguous relations of M, DLMF 13.3), whose ratios
    g_k = h_{k+1} / h_k satisfy

        1 / g_k = 1 + z g_{k+1} / (2 (k + 1))   for even k,
        1 / g_k = 1 - z g_{k+1} / (2 (k + 2))   for odd k.

    h_k is the recurrence's minimal solution, so the ratios are run downward
    from g = 1 at order n_max + 16 + 2 max|z| (Miller's algorithm; Gil,
    Segura & Temme, Numerical Methods for Special Functions, ch. 4); against
    mpmath they reach rounding level from a start at 1.5 max|z|. The loop
    carries u_k = e_k / g_k with e_k = k + 1 for even k and 1 for odd k,
    so that a step is the two array operations u_k = e_k +- (z / 2) / u_{k+1}.
    The rows follow from h_0 = 1, h_1 = -expm1(-z) / z and h_{k+1} = g_k h_k.

    Every row k >= 1 is formed as exp(scale + k log p - log k! +
    max(-z, 0)) times h_k e^{-max(-z, 0)}: the first factor carries the
    prefactor and the growth e^{|z|} of h_k for z < 0, the second lies in
    (0, 1], so a large scale times a small kernel neither overflows nor
    turns into inf * 0. The relative error is a few ulps of the largest
    of the scale, k |log p|, log k! and |z|.
    """
    z = a_bar * p
    az = np.abs(z)
    top = n_max + 16 + math.ceil(2.0 * float(np.max(az, initial=0.0)))
    h = np.empty((n_max + 1, p.size))
    e_k = np.where(np.arange(top + 1) % 2 == 0, np.arange(1, top + 2), 1.0)
    half_z = (0.5 * z, -0.5 * z)  # even, odd k
    u, spare = np.full(p.size, e_k[top]), np.empty(p.size)
    for k in range(top - 1, 0, -1):
        dest = h[k + 1] if k < n_max else spare
        np.divide(half_z[k % 2], u, out=dest)
        dest += e_k[k]
        if dest is spare:
            u, spare = spare, u
        else:
            u = dest
    if n_max >= 1:
        with np.errstate(invalid="ignore"):
            h[1] = np.where(az > 0, -np.expm1(-az) / az, 1.0)
        np.divide(e_k[1:n_max, None], h[2:], out=h[2:])
        for row in range(2, n_max + 1):  # np.cumprod along axis 0 is strided
            h[row] *= h[row - 1]
    out = np.empty((n_max + 1 - n_min, p.size))
    body = out[1:] if n_min == 0 else out  # rows k >= 1
    k = np.arange(n_max + 1 - body.shape[0], n_max + 1)
    with np.errstate(divide="ignore"):
        np.multiply(k[:, None], np.log(p), out=body)
    body -= log_factorial(k)[:, None]
    body += np.maximum(-z, 0.0) + point_scale
    if n_min == 0:
        out[0] = point_scale
    out += np.broadcast_to(row_scale, out.shape[:1])[:, None]
    np.exp(out, out=out)
    body *= h[n_max + 1 - k.size :]
    return out


def P_n(
    t: np.ndarray | float, n: int, sigma: Regime, a_bar: float
) -> np.ndarray | float:
    """Time kernel (t^n / n!) 1F1(m+1; n+1; -a_bar t) of the switch-count series.

    Row n of ``_kernel_table``. The (+) regime is its mirror image
    P_n^{(+)}(t; a_bar) = e^{-a_bar t} P_n^{(-)}(t; -a_bar) (substitute
    s -> t - s in the integral form; Kummer's transform of M).
    """
    check_regime(sigma)
    if n < 0:
        raise ValueError("n must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    flat = t_arr.ravel()
    if sigma == -1:
        row = _kernel_table(flat, n, a_bar, n_min=n)[0]
    else:
        row = _kernel_table(flat, n, -a_bar, point_scale=-a_bar * flat, n_min=n)[0]
    return row.reshape(t_arr.shape) if np.ndim(t) else float(row[0])


_BETA = np.array([[0.0], [1.0]])  # beta_{k,j} at [k, j], grown by _beta_table


def _beta_table(k_max: int) -> np.ndarray:
    """Coefficients beta_{k,j} = C(k - j + floor(j/2) - 1, floor(j/2)) at
    [k, j] for 0 <= j < k <= k_max, 0 elsewhere (row 0 is all 0).

    Rows follow the recurrence beta_{k,0} = 1, beta_{k,2m+1} =
    beta_{k-1,2m} and beta_{k,2m} = beta_{k-1,2m-1} + beta_{k-1,2m}, which
    the derivative identity d phi_{k,n} / dp = phi_{k-1,n-1} relies on. Each
    entry is a sum of exact integers, so it is exact while below 2^53 and
    within a few ulps beyond; past the float range it is inf. The table
    doubles in rows whenever a larger k is asked for and only ever appends,
    so no caller sees a value change.
    """
    global _BETA
    if k_max >= len(_BETA):
        size = len(_BETA)
        while size <= k_max:
            size *= 2
        table = np.zeros((size, size - 1))
        table[: len(_BETA), : _BETA.shape[1]] = _BETA
        with np.errstate(over="ignore"):
            for k in range(len(_BETA), size):
                prev, row = table[k - 1], table[k]
                row[0] = 1.0
                row[1:k:2] = prev[0 : k - 1 : 2]
                row[2:k:2] = prev[1 : k - 1 : 2] + prev[2:k:2]
        table.flags.writeable = False  # shared by every caller
        _BETA = table
    return _BETA[: k_max + 1, :k_max]


def _fill_phi(out: np.ndarray, ks: np.ndarray, n: int, a_bar: float) -> None:
    """Write the coefficients of phi_{k,n} for k in ``ks`` over the kernel
    orders into the rows of ``out`` (columns indexed by order):
    a_bar^{k-j-1} beta_{k,j} at order 2n - j for j < k, and 1 at order 2n + 1
    for k = 0, which may only come first in the ascending ``ks``. Raises
    TruncationError when a coefficient overflows."""
    j = np.arange(int(ks.max(initial=0)))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = a_bar ** j  # indexed by the exponent k - j - 1
        coef = powers[np.maximum(ks[:, None] - 1 - j, 0)] * _beta_table(j.size)[ks]
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        raise TruncationError(
            f"transport kernel phi_{{{ks[bad][0]},{n}}} overflowed; the term "
            "budget reaches past the range of the transport route"
        )
    out[:, 2 * n - j] = coef
    if ks.size and ks[0] == 0:
        # odd orders have the same index m in both regimes: P^{(+)} = P^{(-)}
        out[0, 2 * n + 1] = 1.0


def v_n(
    p: np.ndarray | float,
    q: np.ndarray | float,
    n: int,
    sigma: Regime,
    a_bar: float,
) -> np.ndarray | float:
    """Wedge kernels v_n(p, q) of the transport system, p, q >= 0.

    They satisfy d v_n^{(+)}/dq = v_{n-1}^{(-)} and
    d v_n^{(-)}/dp = v_{n-1}^{(+)} with v_0^{(-)} = 0, v_0^{(+)} = e^{-a p}.
    """
    check_regime(sigma)
    scalar = np.ndim(p) == 0 and np.ndim(q) == 0
    p_arr, q_arr = np.broadcast_arrays(
        np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    )
    if np.any(p_arr < 0) or np.any(q_arr < 0):
        raise ValueError("v_n is defined for p, q >= 0")
    out = _scaled_v_n(p_arr.ravel(), q_arr.ravel(), n, sigma, float(a_bar))
    return float(out[0]) if scalar else out.reshape(p_arr.shape)


def _v_coef(n: int, sigma: Regime, a_bar: float) -> tuple[np.ndarray, int]:
    """Coefficients of v_n^{(sigma)}, n >= 1, over the kernel orders 0..top
    (one column per order), and the lowest order lo in use: row 0 holds
    P_n^{(sigma)}, row k >= 1 the kernel that ``_scaled_v_n`` weights by
    q^k / k!."""
    m = n // 2
    if n % 2 == 1:
        ks, m_phi = np.arange(1, m + 1), m
    elif sigma == -1:
        ks, m_phi = np.arange(2, m + 1), m
    else:
        ks, m_phi = np.arange(0, m), m - 1
    top = n + 1 if n % 2 == 0 and sigma == +1 else n
    coef = np.zeros((ks.size + 1, top + 1))
    coef[0, n] = 1.0
    if top > n:
        coef[0, top] = -a_bar
    _fill_phi(coef[1:], ks, m_phi, a_bar)
    return coef, m if n % 2 == 0 and sigma == +1 else m + 1


def _scaled_v_n(
    p: np.ndarray,
    q: np.ndarray,
    n: int,
    sigma: Regime,
    a_bar: float,
    log_lam: float = 0.0,
    rate_q: float = 0.0,
    rate_p: float = 0.0,
    log_lam_jump: float | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """e^{log_lam - rate_q q - rate_p p} v_n(p, q) on 1-d arrays p, q >= 0.

    v_n = P_n^{(sigma)}(p) + sum_k (q^k / k!) phi_k(p), with phi_{k,m} for
    odd n = 2m + 1, phi_{k+1,m} (k < m) for sigma = -1 and phi_{k-1,m-1} for
    sigma = +1 at n = 2m; P_n^{(+)} = P_n^{(-)} - a_bar P_{n+1}^{(-)} at
    even n. Every term is a q-weight times a coefficient times one row of
    a single ``_kernel_table``, so the sum is one (terms x orders) matrix
    product. v_n is homogeneous of degree n in (p, q, 1 / a_bar), so with
    lam = e^{log_lam / n} the weights are (lam q)^k / k! e^{-rate_q q}, the
    rows lam^o P_o(p) e^{-rate_p p} and the coefficients taken at
    a_bar / lam: none of the three overflows where e^{log_lam} alone would.

    With ``log_lam_jump`` (n >= 1) it also returns
    e^{log_lam_jump - rate_q q - rate_p p} v_{n-1}^{(-sigma)}(p, q) from the
    same table, by the transport identities: v_{n-1}^{(-)} = d_q v_n^{(+)}
    is the sum of the same matrix product's rows with the q-weights moved
    down one place, and v_{n-1}^{(+)} = d_p v_n^{(-)} a second coefficient
    matrix over the table, which takes one more row at the low end. Both
    are homogeneous of degree n - 1 at the same lam, so the second sum is
    scaled by e^{log_lam_jump - (n - 1) log lam}.
    """
    if n == 0:
        if sigma == -1:
            return np.zeros(p.size)
        return np.exp(log_lam - rate_q * q - (rate_p + a_bar) * p)
    log_hat = log_lam / n
    a_hat = a_bar * math.exp(-log_hat)
    coef, lo = _v_coef(n, sigma, a_hat)
    top, terms = coef.shape[1] - 1, coef.shape[0]
    if log_lam_jump is not None and sigma == -1 and n > 1:
        jump_coef, lo = _v_coef(n - 1, +1, a_hat)  # as many rows, lo one less
        pad = top + 1 - jump_coef.shape[1]
        coef = np.concatenate((coef, np.pad(jump_coef, ((0, 0), (0, pad)))))
    table = _kernel_table(
        p, top, a_bar, np.arange(lo, top + 1) * log_hat, -rate_p * p, n_min=lo
    )
    k = np.arange(1, terms)
    weights = np.empty((terms, q.size))
    weights[0] = -rate_q * q
    with np.errstate(divide="ignore"):
        np.multiply(k[:, None], log_hat + np.log(q), out=weights[1:])
    weights[1:] -= log_factorial(k)[:, None]
    weights[1:] += weights[0]
    np.exp(weights, out=weights)
    rows = coef[:, lo:] @ table
    value = np.einsum("kp,kp->p", weights, rows[:terms])
    if log_lam_jump is None:
        return value
    if n == 1:  # v_0, with no kernel table
        return value, _scaled_v_n(p, q, 0, -sigma, a_bar, log_lam_jump, rate_q, rate_p)
    if sigma == +1:
        jump = np.einsum("kp,kp->p", weights[:-1], rows[1:])
    else:
        jump = np.einsum("kp,kp->p", weights, rows[terms:])
    return value, jump * math.exp(log_lam_jump - (n - 1) * log_hat)


def _log_lambda_n(
    n: int | np.ndarray, sigma: Regime, lam_p: float, lam_m: float
) -> float | np.ndarray:
    """log of Lambda_n = lam_sigma^{ceil(n/2)} lam_{-sigma}^{floor(n/2)}."""
    lam_s = lam_p if sigma == +1 else lam_m
    lam_o = lam_m if sigma == +1 else lam_p
    return ((n + 1) // 2) * math.log(lam_s) + (n // 2) * math.log(lam_o)


def _rho_rows(
    t: np.ndarray,
    n_max: int,
    sigma: Regime,
    lam_p: float,
    lam_m: float,
    r_p: float,
    r_m: float,
) -> np.ndarray:
    """Full-mass terms rho_k(t), k = 0..n_max, over the 1-d times t: the rows
    of one ``_kernel_table`` with log Lambda_k and the discount in its scale.
    The (+) regime reads the mirror table P_k^{(+)}(t; a_bar) =
    e^{-a_bar t} P_k^{(-)}(t; -a_bar)."""
    a_bar = (lam_p + r_p) - (lam_m + r_m)
    log_lam = _log_lambda_n(np.arange(n_max + 1), sigma, lam_p, lam_m)
    if sigma == -1:
        return _kernel_table(t, n_max, a_bar, log_lam, -(lam_m + r_m) * t)
    return _kernel_table(t, n_max, -a_bar, log_lam, -(lam_p + r_p) * t)


class _Split(NamedTuple):
    """Points (y - b_n, t) of a sequence of log-strike shifts b_n, split at
    the rays y = c_- t and y = c_+ t.

    For a given n a point lies in the wedge where c_- t <= y - b_n <= c_+ t
    (rays included), below the slow ray where y - b_n < c_- t, and above the
    fast ray, where every term is 0, otherwise. With c_+ = c_- the wedge is
    empty and the ray itself counts as below.

    ``wedge[n]`` indexes the points in the wedge for n, at transport
    coordinates ``p[n]`` = (c_+ t - y + b_n) / dc and
    ``q[n]`` = (y - b_n - c_- t) / dc. A point lies below the slow ray for
    the first ``below`` of the n in ``order``, the n by descending b_n.
    """

    wedge: list[np.ndarray]
    p: list[np.ndarray]
    q: list[np.ndarray]
    below: np.ndarray


def _split(
    y: np.ndarray, t: np.ndarray, b: np.ndarray, order: np.ndarray,
    c_p: float, c_m: float,
) -> _Split:
    lo = y - c_p * t  # b_n >= lo: on or below the fast ray
    hi = y - c_m * t  # b_n > hi: below the slow ray
    below = np.searchsorted(-b[order], -hi, side="right" if c_p == c_m else "left")
    if c_p == c_m:
        none = [np.empty(0, dtype=np.intp)] * b.size
        return _Split(none, none, none, below)
    # one comparison per n keeps every temporary at the size of the points
    wedge = [np.flatnonzero((lo <= b_n) & (hi >= b_n)) for b_n in b]
    dc = c_p - c_m
    p = [(b_n - lo[w]) / dc for b_n, w in zip(b, wedge)]
    q = [(hi[w] - b_n) / dc for b_n, w in zip(b, wedge)]
    return _Split(wedge, p, q, below)


def _wedge_term(
    p: np.ndarray,
    q: np.ndarray,
    n: int,
    sigma: Regime,
    lam_p: float,
    lam_m: float,
    r_p: float,
    r_m: float,
    jump: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """u_n at wedge points (p, q): Lambda_n e^{-(lam_+ + r_+) q
    - (lam_- + r_-) p} v_n(p, q); with ``jump`` (n >= 1) also the
    (n - 1)-term of the regime -sigma at the same points."""
    if p.size == 0:
        return (np.empty(0), np.empty(0)) if jump else np.empty(0)
    return _scaled_v_n(
        p, q, n, sigma, (lam_p + r_p) - (lam_m + r_m),
        _log_lambda_n(n, sigma, lam_p, lam_m), lam_p + r_p, lam_m + r_m,
        _log_lambda_n(n - 1, -sigma, lam_p, lam_m) if jump else None,
    )


def u_n(
    y: np.ndarray | float,
    t: np.ndarray | float,
    n: int,
    sigma: Regime,
    lam_p: float,
    lam_m: float,
    c_p: float,
    c_m: float,
    r_p: float,
    r_m: float,
) -> np.ndarray | float:
    """n-switch term of the discounted exercise-probability series.

    Region dispatch (``_split``): 0 above the fast ray (y > c_+ t), the
    full-mass value rho_n below the slow ray (y < c_- t), and the wedge
    kernel in between (boundaries included in the wedge).
    """
    check_regime(sigma)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if lam_p <= 0 or lam_m <= 0:
        raise ValueError("intensities must be positive")
    scalar = np.ndim(y) == 0 and np.ndim(t) == 0
    y_arr, t_arr = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    )
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    t_flat = t_arr.ravel()
    split = _split(y_arr.ravel(), t_flat, np.zeros(1), np.arange(1), c_p, c_m)
    out = np.zeros(t_flat.size)
    out[split.wedge[0]] = _wedge_term(
        split.p[0], split.q[0], n, sigma, lam_p, lam_m, r_p, r_m
    )
    below = split.below > 0
    out[below] = _rho_rows(t_flat[below], n, sigma, lam_p, lam_m, r_p, r_m)[n]
    return float(out[0]) if scalar else out.reshape(y_arr.shape)


def _quad_order(n_max: int, tilt: float) -> int:
    """Gauss-Legendre nodes per term for switch counts up to n_max.

    On [-1, 1] each integrand is a degree n - 1 polynomial times
    e^{-alpha s} with |alpha| <= tilt / 2, tilt = |a_bar| t. For large n the
    polynomial is a bump ~ e^{-n s^2 / 2} whose Legendre coefficients fall
    off like e^{-j^2 / n}, so Q nodes err by ~ e^{-2 Q^2 / n}: below 1e-15
    once Q >= 4 sqrt(n). The exponential needs more nodes as the tilt grows.
    Against 1024 nodes, terms settle to rounding level at 64 nodes for
    lambda* = 25 per regime at T = 10 (n_max = 395) and at 96 for T = 24
    (n_max = 842), where 48 nodes err by 6e-9 and 4e-4 S0. The rule adds a
    margin of 16 nodes and tilt / 3 and rounds up to a multiple of 16.
    """
    need = 16.0 + 4.0 * math.sqrt(n_max) + tilt / 3.0
    return max(32, 16 * math.ceil(need / 16.0))


def series_terms(
    y: np.ndarray,
    t: float,
    sigma: Regime,
    c_p: float,
    c_m: float,
    *rates: tuple[float, float, float, float],
) -> np.ndarray:
    """Terms u_n(y_n, t) for n = 0..N, one lower limit y_n per n, from the
    closed-form switch-count densities: one row per rate tuple
    (lam_+, lam_-, r_+, r_-).

    u_n is the discounted density mass e^{-b_r t} int_{y_n}^inf e^{-a_r x}
    p_n(x, t) dx, where a_r x + b_r t is the accumulated rate integral on
    the regime path. The n = 0 atom at c_s t contributes e^{-(lam_s + r_s) t}
    (boundary conventions as in ``u_n``); each n >= 1 takes a Q-node
    Gauss-Legendre rule on [lo_n, c_+ t], lo_n = max(y_n, c_- t), zero where
    y_n >= c_+ t. Every tuple shares one node set, Q from the largest
    |a_bar| t with a_bar = (lam_+ + r_+) - (lam_- + r_-). The nodes
    x = lo_n + half_n (1 + xi) enter by their distances to the rays,
    c_+ t - x = half_n (1 - xi) and x - c_- t = lo_n - c_- t + half_n (1 + xi),
    both positive: one (N x Q) matrix e_a log(c_+ t - x) + e_b log(x - c_- t)
    plus log half_n - n log dc - log(e_a! e_b!) is log(half_n q_n) at unit
    intensities. As nu + a_r = a_bar / dc and b_r = r_s - a_r c_s, a tuple
    adds -(a_bar / dc) (x - c_s t), with the drift x - c_s t one of the two
    distances, and log Lambda_n - (lam_s + r_s) t: one product, two adds and
    one exp.
    Requires c_+ > c_-; y_n = +inf gives a zero term.
    """
    check_regime(sigma)
    if not t > 0:
        raise ValueError("t must be positive")
    if not c_p > c_m:
        raise ValueError("density formulas require c_plus > c_minus")
    if not all(lam_p > 0 and lam_m > 0 for lam_p, lam_m, _, _ in rates):
        raise ValueError("intensities must be positive")
    own = 0 if sigma == +1 else 1  # lam_s and r_s sit at own and own + 2
    decay = np.array([(r[own] + r[own + 2]) * t for r in rates])
    a_bar = np.array([(lam_p + r_p) - (lam_m + r_m) for lam_p, lam_m, r_p, r_m in rates])
    y = np.asarray(y, dtype=float)
    out = np.zeros((len(rates), y.size))
    lo_ray, hi_ray = c_m * t, c_p * t
    atom_in = y[0] <= hi_ray if sigma == +1 else y[0] < lo_ray
    if atom_in:
        out[:, 0] = np.exp(-decay)
    lo = np.maximum(y[1:], lo_ray)
    live = np.flatnonzero(lo < hi_ray)
    if live.size == 0:
        return out
    n = live + 1
    order = _quad_order(int(n[-1]), float(np.max(np.abs(a_bar))) * t)
    x_ref, w_ref = gauss_legendre_rule(order)
    half = 0.5 * (hi_ray - lo[live])
    to_fast = np.multiply.outer(half, 1.0 - x_ref)  # c_+ t - x
    to_slow = np.multiply.outer(half, 1.0 + x_ref)
    to_slow += (lo[live] - lo_ray)[:, None]  # x - c_- t
    lo_half, hi_half = (n - 1) // 2, n // 2
    e_a, e_b = (lo_half, hi_half) if sigma == +1 else (hi_half, lo_half)
    log_q = e_a[:, None] * np.log(to_fast)
    log_q += e_b[:, None] * np.log(to_slow)
    scale = np.log(half) - n * math.log(c_p - c_m) - log_factorial(e_a) - log_factorial(e_b)
    log_q += scale[:, None]
    # x - c_s t is -(c_+ t - x) for sigma = +1 and x - c_- t for sigma = -1
    drift, slope = (to_fast, a_bar) if sigma == +1 else (to_slow, -a_bar)
    for row, (lam_p, lam_m, _, _), s, d in zip(out, rates, slope / (c_p - c_m), decay):
        expo = drift * s
        expo += log_q
        expo += (_log_lambda_n(n, sigma, lam_p, lam_m) - d)[:, None]
        row[n] = np.exp(expo, out=expo) @ w_ref
    return out


def series_rates(
    params: ModelParams, intens: MartingaleIntensities
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """Rates (lam_+, lam_-, r_+, r_-) of the u and U series of a call: u at
    the martingale intensities, discounted at the market's rates, and U at
    the tilted intensities lambda*_pm (1 + h_pm), undiscounted."""
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    lbp, lbm = lsp * (1.0 + params.h_plus), lsm * (1.0 + params.h_minus)
    if lbp <= 0 or lbm <= 0:
        raise ValueError("tilted intensities must be positive")
    return (lsp, lsm, params.r_plus, params.r_minus), (lbp, lbm, 0.0, 0.0)


def series_length(
    t_min: float,
    t_max: float,
    controls: SeriesControls,
    *series: tuple[float, float, float, float],
) -> tuple[int, float]:
    """Last switch count n of the series over times in [t_min, t_max], and
    their summed tail bound there: the first n <= max_terms where the sum of
    weight e^{-(rate_lo + lam_lo) t_min} times the Poisson-type tail bound at
    lam_hi t_max (``poisson_tail_bounds``) over the series (weight, lam_lo,
    lam_hi, rate_lo) falls below tail_epsilon. Every switch is charged at the
    larger intensity, and no term is evaluated. A series of weight 0 adds
    nothing; a mass that underflows to 0 against an infinite bound counts as
    not below. Raises TruncationError when the budget runs out.
    """
    # most calls stop before n = 64, where a pass costs its per-call overhead
    for n_max in sorted({min(63, controls.max_terms), controls.max_terms}):
        tail = np.zeros(n_max + 1)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, never below
            for weight, lam_lo, lam_hi, rate_lo in series:
                if weight:
                    mass = weight * math.exp(-(rate_lo + lam_lo) * t_min)
                    tail += mass * poisson_tail_bounds(lam_hi * t_max, n_max)
        below = np.flatnonzero(tail < controls.tail_epsilon)
        if below.size:
            return int(below[0]), float(tail[below[0]])
    raise TruncationError(
        f"switch-count series did not meet tail_epsilon within {controls.max_terms} terms"
    )


def _call_series(
    params: ModelParams,
    intens: MartingaleIntensities,
    weight_u: float,
    weight_U: float,
) -> tuple[tuple[float, float, float, float], ...]:
    """The u and U series of a call as ``series_length`` takes them: each
    at the smaller and larger of its intensities (``series_rates``),
    discounted at its smaller rate."""
    return tuple(
        (weight, min(lam_p, lam_m), max(lam_p, lam_m), min(r_p, r_m))
        for weight, (lam_p, lam_m, r_p, r_m) in zip(
            (weight_u, weight_U), series_rates(params, intens)
        )
    )


def call_u_U(
    y: np.ndarray | float,
    t: np.ndarray | float,
    sigma: Regime,
    params: ModelParams,
    intens: MartingaleIntensities,
    controls: SeriesControls,
    weight_u: float,
    weight_U: float,
    jump: bool = False,
) -> tuple[np.ndarray | float, ...]:
    """Sums (u, U) of the u and U series at kappa-shifted arguments y - b_n,
    by the transport route on arrays of points.

    Terms run up to the one stopping index of ``series_length`` over all
    the points' times, with the u and U tails weighted by ``weight_u`` and
    ``weight_U``. Below the slow ray a term is the full mass of the point's
    time to maturity, so the below-ray part of a sum is one read of a
    cumulative full-mass table over t's distinct values, built once per
    call for each of u and U. The points are then taken ``_CHUNK`` at a
    time: one split (``_split``) serves u and U, and only the wedge points
    evaluate the transport kernel, one ``_kernel_table`` per n. Raises
    TruncationError when a sum is not finite.

    With ``jump`` the same pass also returns the sums of the post-jump
    state (y - ln(1 + h_sigma), t, -sigma), as (u, U, u', U'); the weights
    must then cover both states. Its arguments y - ln(1 + h_sigma) -
    b_n^{(-sigma)} are y - b_{n+1}: its n-term sits at the points of the
    (n + 1)-term, so one split runs over b_0..b_{N+1}, and each wedge term
    shares its kernel table with the post-jump term one below it
    (``_scaled_v_n``). The post-jump state has its own full-mass tables.
    Each state's cumulative table adds nothing at the shift it lacks (b_{N+1}
    before the jump, b_0 after it), so both read it at the same count.
    """
    check_regime(sigma)
    y_arr, t_arr = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    )
    y_flat, t_flat = y_arr.ravel(), t_arr.ravel()
    if np.any(t_flat <= 0):
        raise ValueError("t must be positive")
    n_used, _ = series_length(
        float(np.min(t_flat)), float(np.max(t_flat)), controls,
        *_call_series(params, intens, weight_u, weight_U),
    )
    b = log_kappa_sequence(n_used + jump, sigma, params.h_plus, params.h_minus)
    order = np.argsort(-b, kind="stable")
    times, t_pos = np.unique(t_flat, return_inverse=True)
    rates = series_rates(params, intens)
    cums = []
    # each state's regime and the shift of its 0-term
    for sg, first in ((sigma, 0), (-sigma, 1))[: 1 + jump]:
        for rows in (_rho_rows(times, n_used, sg, *r) for r in rates):
            # cum[i] sums the rows of the first i shifts in ``order``
            cum = np.zeros((b.size + 1, times.size))
            for i, j in enumerate(order):  # np.cumsum along axis 0 is strided
                if first <= j <= first + n_used:
                    np.add(cum[i], rows[j - first], out=cum[i + 1])
                else:
                    cum[i + 1] = cum[i]
            cums.append(cum)
    sums = np.empty((len(cums), t_flat.size))
    for lo in range(0, t_flat.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        split = _split(
            y_flat[part], t_flat[part], b, order, params.c_plus, params.c_minus
        )
        block = sums[:, part]
        for total, cum in zip(block, cums):
            total[:] = cum[split.below, t_pos[part]]
        for n, w in enumerate(split.wedge):
            if not w.size:
                continue
            for i, r in enumerate(rates):
                if not (jump and n):  # the post-jump state has no term here
                    block[i, w] += _wedge_term(split.p[n], split.q[n], n, sigma, *r)
                    continue
                before, after = _wedge_term(split.p[n], split.q[n], n, sigma, *r, jump=True)
                if n <= n_used:
                    block[i, w] += before
                block[2 + i, w] += after
    if not np.isfinite(sums).all():
        raise TruncationError(f"transport series overflowed within {n_used + 1} terms")
    sums = sums.reshape(len(sums), *y_arr.shape)
    if y_arr.ndim == 0:
        return tuple(float(s) for s in sums)
    return tuple(sums)


def call_price(
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> PriceBreakdown:
    """European call price S0 * U - K * u with the per-term breakdown.

    The terms integrate the closed-form switch-count densities in one
    ``series_terms`` call, u at the martingale intensities and U at the
    tilted ones. The c_+ = c_- market has no continuous density: there each
    term is the full mass rho_n(T) where the shifted log-strike lies on or
    below the ray y = c T, and 0 above it. As neither the switch-count law
    nor the discount depends on the velocities, ``series_terms`` gives them
    at velocities (1, 0), where x is the time spent in the + regime.
    """
    intens = martingale_intensities(params)
    y = math.log(spec.strike / params.s0)
    T = spec.maturity
    sigma = params.sigma0
    cp, cm = params.c_plus, params.c_minus
    n_used, tail = series_length(
        T, T, controls, *_call_series(params, intens, spec.strike, params.s0)
    )
    shifted = y - log_kappa_sequence(n_used, sigma, params.h_plus, params.h_minus)
    rates = series_rates(params, intens)
    if cp == cm:
        full = series_terms(np.full(n_used + 1, -np.inf), T, sigma, 1.0, 0.0, *rates)
        u_terms, U_terms = np.where(shifted <= cp * T, full, 0.0)
    else:
        u_terms, U_terms = series_terms(shifted, T, sigma, cp, cm, *rates)
    u = float(np.sum(u_terms))
    U = float(np.sum(U_terms))
    price = params.s0 * U - spec.strike * u
    if price < -1e-9 * params.s0:
        raise NegativePriceError(f"negative price {price}; series inconsistency")
    price = max(price, 0.0)

    prod = (1.0 + params.h_plus) * (1.0 + params.h_minus)
    above_slow = shifted > params.c_minus * T
    above_fast = shifted > params.c_plus * T
    idx_minus = idx_plus = None
    if prod < 1.0:
        regime_case = "contracting"
        if np.any(above_slow):
            idx_minus = int(np.argmax(above_slow))
        if np.any(above_fast):
            idx_plus = int(np.argmax(above_fast))
    elif prod > 1.0:
        regime_case = "expanding"
        if np.any(above_slow):
            idx_minus = int(n_used - np.argmax(above_slow[::-1]))
        if np.any(above_fast):
            idx_plus = int(n_used - np.argmax(above_fast[::-1]))
    else:
        regime_case = "boundary"
    return PriceBreakdown(
        y=y,
        u_terms=u_terms,
        U_terms=U_terms,
        u=u,
        U=U,
        price=price,
        tail_bound=tail,
        regime_case=regime_case,
        idx_minus=idx_minus,
        idx_plus=idx_plus,
        n_used=n_used,
    )


def _call_values(
    t: np.ndarray | float,
    x: np.ndarray | float,
    sigma: Regime,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls,
    intens: MartingaleIntensities | None,
    jump: bool,
) -> np.ndarray:
    """F(t, x, sigma) and, with ``jump``, F(t, x (1 + h_sigma), -sigma),
    stacked on a leading axis. The expired points (t = maturity) take the
    payoff; every other point goes to one ``call_u_U`` call, with the U
    tail weighted by the largest price of either state."""
    if intens is None:
        intens = martingale_intensities(params)
    t_arr, x_arr = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    )
    if np.any(t_arr > spec.maturity) or np.any(t_arr < 0):
        raise ValueError("t must lie in [0, maturity]")
    if np.any(x_arr <= 0):
        raise ValueError("stock prices must be positive")
    x_flat = x_arr.ravel()
    prices = [x_flat, x_flat * (1.0 + params.h(sigma))][: 1 + jump]
    s = (spec.maturity - t_arr).ravel()
    out = np.empty((len(prices), s.size))
    expired = s <= 0
    for values, xs in zip(out, prices):
        values[expired] = np.maximum(xs[expired] - spec.strike, 0.0)
    live = np.flatnonzero(~expired)
    if live.size:
        x_live = [xs[live] for xs in prices]
        sums = call_u_U(
            np.log(spec.strike / x_live[0]),
            s[live],
            sigma,
            params,
            intens,
            controls,
            weight_u=spec.strike,
            weight_U=max(float(np.max(xs)) for xs in x_live),
            jump=jump,
        )
        for values, xs, u, U in zip(out, x_live, sums[::2], sums[1::2]):
            values[live] = xs * U - spec.strike * u
    return out.reshape(len(prices), *t_arr.shape)


def call_value_surface(
    t: np.ndarray | float,
    x: np.ndarray | float,
    sigma: Regime,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
    intens: MartingaleIntensities | None = None,
) -> np.ndarray | float:
    """Call value F(t, x, sigma) on arrays of times/prices (used by hedging).

    At t = maturity returns the payoff. Every other point goes to one
    ``call_u_U`` call, with the U tail weighted by the largest of their
    prices, so the whole array shares one series stop.
    """
    out = _call_values(t, x, sigma, params, spec, controls, intens, jump=False)[0]
    return float(out) if np.ndim(t) == 0 and np.ndim(x) == 0 else out


def call_value_and_jump(
    t: np.ndarray | float,
    x: np.ndarray | float,
    sigma: Regime,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
    intens: MartingaleIntensities | None = None,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Call values (F(t, x, sigma), F(t, x (1 + h_sigma), -sigma)) before and
    after a switch from sigma, from one ``call_u_U`` pass with one series
    stop: the two states of a hedge ratio."""
    before, after = _call_values(t, x, sigma, params, spec, controls, intens, jump=True)
    if np.ndim(t) == 0 and np.ndim(x) == 0:
        return float(before), float(after)
    return before, after


def merton_price(
    c: float, r: float, h: float, s0: float, strike: float, maturity: float
) -> float:
    """Closed-form call price for the single-regime market with deterministic
    drift c and downward jump factor (1 - h) at Poisson times.

    Admissible branches: 0 < h < 1 with c > r, or h < 0 with c < r; either
    way lambda* = (c - r)/h > 0. The in-the-money switch-count cutoff is the
    largest n with S0 e^{cT}(1-h)^n > K; for the first branch that is
    ceil(w) - 1 with w = (ln(K/S0) - cT)/ln(1-h), not ceil(w), which
    overcounts by one.
    """
    if s0 <= 0 or strike <= 0 or maturity <= 0:
        raise ValueError("s0, strike, maturity must be positive")
    if not ((0 < h < 1 and c > r) or (h < 0 and c < r)):
        raise ValueError(
            "admissible branches: 0 < h < 1 with c > r, or h < 0 with c < r"
        )
    lam_star = (c - r) / h
    w = (math.log(strike / s0) - c * maturity) / math.log1p(-h)
    m_u, m_big = lam_star * maturity, lam_star * (1.0 - h) * maturity
    # in the money: N <= n0 switches on the first branch, N > n0 on the second
    if 0 < h < 1:
        k_lo, k_hi = 0, math.ceil(w) - 1
    else:
        k_lo, k_hi = math.floor(w) + 1, math.inf
    q_u, q_big = (_poisson_mass(k_lo, k_hi, m) for m in (m_u, m_big))
    return s0 * q_big - strike * math.exp(-r * maturity) * q_u


def _poisson_mass(k_lo: int, k_hi: float, mean: float) -> float:
    """P(k_lo <= N <= k_hi) for N ~ Poisson(mean), summed in log space.

    Counts beyond mean + 40 (sqrt(mean) + 1) carry less than 1e-26 of the
    mass (Bernstein's inequality), so the sum stops there.
    """
    k_hi = min(k_hi, int(mean + 40.0 * (math.sqrt(mean) + 1.0)))
    j = np.arange(max(k_lo, 0), k_hi + 1)
    return float(np.sum(np.exp(j * math.log(mean) - mean - log_factorial(j))))


def symmetric_price_check(
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> float:
    """Call price for the symmetric family lam+ = lam-, r+ = r-, c_pm = r +- c,
    h_pm = -+h with 0 < h < 1, computed through the explicit binomial form
    of the wedge kernels.

    Both halves are independent of ``call_price``, which integrates the
    densities: u comes from the binomial form and U from the transport
    route (``call_u_U``).
    """
    lam = params.lambda_plus
    r = params.r_plus
    h = params.h_minus
    c = params.c_plus - r
    ok = (
        params.lambda_minus == lam
        and params.r_minus == r
        and math.isclose(params.c_minus, r - c, rel_tol=0, abs_tol=1e-14)
        and params.h_plus == -h
        and 0 < h < 1
        and c > 0
    )
    if not ok:
        raise ValueError("parameters outside the symmetric family")
    lam_star = c / h
    sigma = params.sigma0
    T = spec.maturity
    y = math.log(spec.strike / params.s0)
    cp, cm = params.c_plus, params.c_minus
    n_used, _ = series_length(T, T, controls, (spec.strike, lam_star, lam_star, r))
    b = log_kappa_sequence(n_used, sigma, params.h_plus, params.h_minus)
    log_pref = -(lam_star + r) * T

    # u_n = e^{-(lam* + r) T} lam*^n / n! sum_{k <= m} C(n, k) q^k p^{n-k} in
    # the wedge, and p + q = T there, so u_n is the Poisson(lam* T) mass at n,
    # discounted, times P(Binomial(n, q / T) <= m); below the slow ray the
    # probability is 1, above the fast ray 0
    u_total = 0.0
    for n in range(n_used + 1):
        y_n = y - b[n]
        if y_n <= cp * T:
            log_term = log_pref + n * math.log(lam_star * T) - log_factorial(n)
            if y_n < cm * T:
                u_total += math.exp(log_term)
            else:
                p = (cp * T - y_n) / (2.0 * c)
                q = (y_n - cm * T) / (2.0 * c)
                u_total += math.exp(log_term) * _binomial_cdf(
                    _m_index(n, sigma), n, q, p
                )

    intens = martingale_intensities(params)
    _, U = call_u_U(
        y, T, sigma, params, intens, controls,
        weight_u=spec.strike, weight_U=params.s0,
    )
    return params.s0 * U - spec.strike * u_total


def _binomial_cdf(m: int, n: int, q: float, p: float) -> float:
    """P(B <= m) for B ~ Binomial(n, q / (q + p)), q, p >= 0, summed in log
    space."""
    k = np.arange(m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q, log_p = np.log([q / (q + p), p / (q + p)])
        log_pmf = (
            log_factorial(n)
            - log_factorial(k)
            - log_factorial(n - k)
            + np.where(k > 0, k * log_q, 0.0)
            + np.where(k < n, (n - k) * log_p, 0.0)
        )
    return float(np.sum(np.exp(log_pmf)))


def european_price_F(
    t: float,
    x: float,
    sigma: Regime,
    payoff,
    maturity: float,
    params: ModelParams,
    controls: SeriesControls = SeriesControls(),
    quad_order: int = 400,
    payoff_breaks: tuple[float, ...] = (),
) -> float:
    """Arbitrage-free value of a European claim payoff(S(T)) at state
    (t, x, sigma), by the switch-count expansion of the discounted
    risk-neutral expectation.

    The payoff must be continuous, piecewise smooth and polynomially
    bounded; ``payoff_breaks`` lists the positive terminal stock prices of
    its kinks (e.g. a call's strike), where the quadrature panels split.
    Slice n >= 1 integrates the discounted payoff against the n-switch law:
    over ``p_n_continuous`` on Gauss-Legendre panels of ``quad_order``
    nodes, split at the breaks mapped through kappa_n, or for c_+ = c_- as
    the discounted full mass (``series_terms`` at velocities (1, 0), as in
    ``call_price``) times the payoff. Slices are evaluated once each, in
    ranges that grow until the stop of ``series_length`` lies inside them,
    weighted by the envelope: the largest |discounted payoff| on the atom
    and the slices so far (at least 1 for the first range). The stop
    assumes no later slice exceeds it: a payoff that is zero on every slice
    up to the first stop is priced from those slices. Raises
    TruncationError when the stop exceeds the term budget."""
    check_regime(sigma)
    if not 0 <= t <= maturity:
        raise ValueError("t must lie in [0, maturity]")
    if x <= 0:
        raise ValueError("x must be positive")
    if not all(sb > 0 for sb in payoff_breaks):
        raise ValueError("payoff_breaks must be positive")
    s = maturity - t
    if s == 0:
        return float(payoff(x))
    intens = martingale_intensities(params)
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    log_kap = log_kappa_sequence(controls.max_terms, sigma, params.h_plus, params.h_minus)
    c_sig, equal_c = params.c(sigma), params.c_plus == params.c_minus
    pay = np.vectorize(payoff, otypes=[float])
    atom = float(payoff(x * math.exp(c_sig * s)))
    if equal_c:  # every path's discount lies in [e^{-r_max s}, e^{-r_min s}]
        scale = math.exp(-min(params.r_plus, params.r_minus) * s)
        rows = lambda n: pay(x * np.exp(c_sig * s + log_kap[n]))  # noqa: E731
    else:
        a_r, b_r = linear_transform_coeffs(
            params.c_plus, params.c_minus, params.r_plus, params.r_minus
        )
        scale, atom = math.exp(-b_r * s), atom * math.exp(-a_r * c_sig * s)
        lo, hi = params.c_minus * s, params.c_plus * s
        x_ref, w_ref = gauss_legendre_rule(quad_order)
        log_breaks = np.sort(np.log(np.asarray(payoff_breaks, dtype=float) / x))

        def panels(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(n x panel x node) log-returns and weights; a break outside
            the support is clipped to it, leaving an empty panel."""
            inner = np.clip(log_breaks - log_kap[n][:, None], lo, hi)
            edges = np.column_stack((np.full(n.size, lo), inner, np.full(n.size, hi)))
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None]
            half = 0.5 * np.diff(edges, axis=1)[..., None]
            return mid + half * x_ref, half * w_ref

        def rows(n: np.ndarray) -> np.ndarray:
            y = panels(n)[0]
            return np.exp(-a_r * y) * pay(x * np.exp(y + log_kap[n][:, None, None]))

    stop = lambda weight: series_length(  # noqa: E731
        s, s, controls, (weight, min(lsp, lsm), max(lsp, lsm), 0.0)
    )[0]
    envelope, parts, n_next = scale * abs(atom), [], 1
    n_stop = max(stop(max(envelope, 1.0)), 1)
    while n_stop >= n_next:
        parts.append(rows(np.arange(n_next, n_stop + 1)))
        envelope = max(envelope, scale * float(np.max(np.abs(parts[-1]))))
        n_next, n_stop = n_stop + 1, stop(envelope)
    g = np.concatenate(parts)
    if equal_c:
        masses = series_terms(
            np.full(n_next, -np.inf), s, sigma, 1.0, 0.0,
            (lsp, lsm, params.r_plus, params.r_minus),
        )[0]
        return float(masses @ np.concatenate(([atom], g)))
    n = np.arange(1, n_next)
    y, w = panels(n)
    dens = DensityParams(params.c_plus, params.c_minus, lsp, lsm)
    body = np.einsum("npq,npq,npq->", w, g, p_n_continuous(y, s, n[:, None, None], sigma, dens))
    return scale * (math.exp(-dens.lam(sigma) * s) * atom + float(body))
