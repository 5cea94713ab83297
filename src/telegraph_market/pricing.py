"""Closed-form European option pricing for jump telegraph markets.

The call price is a series over the number of regime switches,
price = S0 * U - K * u, where U is the same series as u evaluated at tilted
intensities. Each term u_n is the discounted mass of the closed-form n-switch
density above the kappa-shifted log-strike. Two routes compute the terms:

- ``call_price`` integrates the densities (``densities.log_p_n_continuous``)
  for every switch count in one array op (``series_terms``);
- ``call_value_surface`` and the hedge path use the transport route: each
  term solves a pair of coupled first-order transport equations with a
  combinatorial solution built from confluent hypergeometric functions
  (``v_n``, ``phi_kn``, ``P_n``, ``hyp1f1``). ``call_u_U`` evaluates it by
  region: for each n one split of the points at the rays y = c_- t and
  y = c_+ t serves u and U. Terms above the fast ray are 0. Below the slow
  ray a term is the full mass rho_n(t), which depends on t alone, so it is
  read from a table evaluated once per distinct t of the whole call (the
  backtest's grid times repeat across paths). Only the wedge between the
  rays evaluates ``v_n``. On the benchmark's hedge inputs (one round,
  288 390 points) 86.8% of the (point, n) pairs lie below, 12.3% in the
  wedge and 0.9% above. The wedge stays on the transport kernels: its 0.81M
  pairs at 48 Gauss-Legendre nodes would be 39M density evaluations for
  each of u and U, about 2.6 s each at 67 ns per node, while the kernels
  take 0.31 s for both (2 vCPU).
- ``u_n`` / ``U_n`` give single terms through the same region split; they
  are the per-term reference the tests compare the integrated terms with.

All series stop on explicit Poisson-type tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, pdtr, pdtrc

from .densities import DensityParams, log_p_n_continuous, p_n_continuous
from .errors import NegativePriceError, TruncationError
from .measure import MartingaleIntensities, martingale_intensities
from .model import (
    ModelParams,
    Regime,
    check_regime,
    linear_transform_coeffs,
    log_kappa_sequence,
)
from .numerics import gauss_legendre_nodes, gauss_legendre_rule, poisson_tail_bound

_HYP_MAX_TERMS = 500


@dataclass(frozen=True)
class CallSpec:
    """European call contract: strike and maturity."""

    strike: float
    maturity: float

    def __post_init__(self) -> None:
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


def pochhammer(m: int, k: int) -> float:
    """Rising factorial m (m+1) ... (m+k-1); empty product for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1.0
    for i in range(k):
        out *= m + i
    return out


def hyp1f1(alpha: float, beta: float, z: np.ndarray | float) -> np.ndarray | float:
    """Confluent hypergeometric 1F1(alpha; beta; z) by its direct series.

    Vectorized over z; stops when every term drops below 1e-16 relative.
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


def P_n(
    t: np.ndarray | float, n: int, sigma: Regime, a_bar: float
) -> np.ndarray | float:
    """Time kernel (t^n / n!) 1F1(m+1; n+1; -a_bar t) of the switch-count series.

    The hypergeometric argument is flipped by the Kummer transform whenever
    a_bar t > 0 so both series branches have nonnegative terms.
    """
    out = _scaled_P_n(t, n, sigma, a_bar, 0.0)
    return out if np.ndim(t) else float(out)


def _scaled_P_n(
    t: np.ndarray | float,
    n: int,
    sigma: Regime,
    a_bar: float,
    log_scale: np.ndarray | float,
) -> np.ndarray:
    """e^{log_scale} P_n(t), with log_scale folded into the exponent of the
    prefactor t^n / n!, so that a large scale times a small kernel neither
    overflows nor turns into inf * 0."""
    check_regime(sigma)
    if n < 0:
        raise ValueError("n must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    m = _m_index(n, sigma)
    z = -a_bar * t_arr
    f = np.empty_like(z)
    pos = z >= 0
    f[pos] = hyp1f1(m + 1, n + 1, z[pos])
    f[~pos] = np.exp(z[~pos]) * hyp1f1(n - m, n + 1, -z[~pos])
    if n == 0:
        return np.exp(log_scale) * f
    safe_t = np.where(t_arr > 0, t_arr, 1.0)
    pref = np.where(
        t_arr > 0, np.exp(log_scale + n * np.log(safe_t) - gammaln(n + 1)), 0.0
    )
    return pref * f


def beta_coeff(k: int, j: int) -> float:
    """Combinatorial coefficient (k-j)_{floor(j/2)} / floor(j/2)! for 0 <= j < k.

    This rising-factorial formula is authoritative: it is the unique choice
    satisfying the recurrences beta_{k,2m+1} = beta_{k-1,2m} and
    beta_{k,2m} - beta_{k,2m+1} = beta_{k-1,2m-1} that the derivative
    identity of the phi functions relies on (so e.g. beta_{4,2} = 2).
    """
    if not (k >= 1 and 0 <= j < k):
        raise ValueError("beta_coeff requires 0 <= j < k")
    half = j // 2
    return pochhammer(k - j, half) / math.factorial(half)


def phi_kn(
    k: int,
    n: int,
    p: np.ndarray | float,
    a_bar: float,
    *,
    cache: dict[int, np.ndarray] | None = None,
) -> np.ndarray | float:
    """Auxiliary kernels phi_{k,n}(p); phi_{0,n} = P_{2n+1}.

    phi_{k,n} = sum_{j<k} a_bar^{k-j-1} beta_{k,j} P_{2n-j}^{(-)}(p) for k >= 1.
    ``cache`` maps orders to the kernels P_order^{(-)}(p) already evaluated on
    the same p; ``v_n`` passes one per call, since its phi sums reuse the
    kernels of many orders. Raises TruncationError when a coefficient
    overflows.
    """
    if k < 0 or k > n:
        raise ValueError("phi_kn requires 0 <= k <= n")
    p_arr = np.asarray(p, dtype=float)
    if cache is None:
        cache = {}

    def kernel(order: int) -> np.ndarray:
        if order not in cache:
            cache[order] = np.asarray(P_n(p_arr, order, -1, a_bar))
        return cache[order]

    if k == 0:
        # odd orders have the same index m in both regimes: P^{(+)} = P^{(-)}
        acc = kernel(2 * n + 1)
    else:
        acc = np.zeros_like(p_arr)
        try:
            for j in range(k):
                acc = acc + a_bar ** (k - j - 1) * beta_coeff(k, j) * kernel(
                    2 * n - j
                )
        except OverflowError:
            raise TruncationError(
                f"transport kernel phi_{{{k},{n}}} overflowed; the term budget "
                "reaches past the range of the transport route"
            ) from None
    return acc if np.ndim(p) else float(acc)


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
    if n == 0:
        out = np.exp(-a_bar * p_arr) if sigma == +1 else np.zeros_like(p_arr)
        return float(out) if scalar else out

    cache: dict[int, np.ndarray] = {}
    acc = np.asarray(P_n(p_arr, n, sigma, a_bar))
    qk = np.ones_like(q_arr)
    if n % 2 == 1:
        m = (n - 1) // 2
        for k in range(1, m + 1):
            qk = qk * q_arr / k
            acc = acc + qk * phi_kn(k, m, p_arr, a_bar, cache=cache)
    elif sigma == -1:
        m = n // 2
        for k in range(1, m):
            qk = qk * q_arr / k
            acc = acc + qk * phi_kn(k + 1, m, p_arr, a_bar, cache=cache)
    else:
        m = n // 2
        for k in range(1, m + 1):
            qk = qk * q_arr / k
            acc = acc + qk * phi_kn(k - 1, m - 1, p_arr, a_bar, cache=cache)
    return float(acc) if scalar else acc


def _log_lambda_n(n: int, sigma: Regime, lam_p: float, lam_m: float) -> float:
    """log of Lambda_n = lam_sigma^{ceil(n/2)} lam_{-sigma}^{floor(n/2)}."""
    lam_s = lam_p if sigma == +1 else lam_m
    lam_o = lam_m if sigma == +1 else lam_p
    return math.ceil(n / 2) * math.log(lam_s) + (n // 2) * math.log(lam_o)


def rho_n(
    t: np.ndarray | float,
    n: int,
    sigma: Regime,
    lam_p: float,
    lam_m: float,
    r_p: float,
    r_m: float,
) -> np.ndarray | float:
    """Full-mass term rho_n = e^{-(lam_- + r_-) t} Lambda_n P_n(t).

    log Lambda_n and the discount enter P_n's prefactor exponent, so large n
    gives a finite term where Lambda_n alone overflows.
    """
    a_bar = (lam_p + r_p) - (lam_m + r_m)
    t_arr = np.asarray(t, dtype=float)
    out = _scaled_P_n(
        t_arr, n, sigma, a_bar,
        _log_lambda_n(n, sigma, lam_p, lam_m) - (lam_m + r_m) * t_arr,
    )
    return out if np.ndim(t) else float(out)


class _Regions(NamedTuple):
    """Points (y, t) split at the rays y = c_- t and y = c_+ t.

    ``wedge`` indexes the points with c_- t <= y <= c_+ t (rays included),
    at transport coordinates p = (c_+ t - y) / dc and q = (y - c_- t) / dc;
    ``below`` indexes the points with y < c_- t. The rest lie above the fast
    ray, where every term is 0. With c_+ = c_- the wedge is empty and the
    ray itself counts as below.
    """

    wedge: np.ndarray
    p: np.ndarray
    q: np.ndarray
    below: np.ndarray


def _regions(y: np.ndarray, t: np.ndarray, c_p: float, c_m: float) -> _Regions:
    if c_p == c_m:
        none = np.empty(0)
        return _Regions(none.astype(np.intp), none, none, np.flatnonzero(y <= c_p * t))
    dc = c_p - c_m
    p = (c_p * t - y) / dc
    q = (y - c_m * t) / dc
    wedge = np.flatnonzero((p >= 0) & (q >= 0))
    return _Regions(wedge, p[wedge], q[wedge], np.flatnonzero(q < 0))


def _wedge_term(
    reg: _Regions,
    n: int,
    sigma: Regime,
    lam_p: float,
    lam_m: float,
    r_p: float,
    r_m: float,
) -> np.ndarray:
    """u_n at the wedge points of ``reg``: Lambda_n e^{-(lam_+ + r_+) q
    - (lam_- + r_-) p} v_n(p, q)."""
    if reg.wedge.size == 0:
        return np.empty(0)
    a_bar = (lam_p + r_p) - (lam_m + r_m)
    return np.exp(
        _log_lambda_n(n, sigma, lam_p, lam_m)
        - (lam_p + r_p) * reg.q
        - (lam_m + r_m) * reg.p
    ) * v_n(reg.p, reg.q, n, sigma, a_bar)


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

    Region dispatch (``_regions``): 0 above the fast ray (y > c_+ t), the
    full-mass value rho_n below the slow ray (y < c_- t), and the wedge
    kernel in between (boundaries included in the wedge).
    """
    check_regime(sigma)
    if lam_p <= 0 or lam_m <= 0:
        raise ValueError("intensities must be positive")
    scalar = np.ndim(y) == 0 and np.ndim(t) == 0
    y_arr, t_arr = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    )
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    t_flat = t_arr.ravel()
    reg = _regions(y_arr.ravel(), t_flat, c_p, c_m)
    out = np.zeros(t_flat.size)
    out[reg.wedge] = _wedge_term(reg, n, sigma, lam_p, lam_m, r_p, r_m)
    out[reg.below] = rho_n(t_flat[reg.below], n, sigma, lam_p, lam_m, r_p, r_m)
    return float(out[0]) if scalar else out.reshape(y_arr.shape)


def U_n(
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
    h_p: float,
    h_m: float,
) -> np.ndarray | float:
    """Stock-tilted series term: U_n = u_n at intensities lam*(1 + h), r = 0.

    The per-term stock jump factor kappa_n is absorbed exactly by the tilt.
    """
    lam_bar_p = lam_p * (1.0 + h_p)
    lam_bar_m = lam_m * (1.0 + h_m)
    if lam_bar_p <= 0 or lam_bar_m <= 0:
        raise ValueError("tilted intensities must be positive (requires h > -1)")
    return u_n(y, t, n, sigma, lam_bar_p, lam_bar_m, c_p, c_m, 0.0, 0.0)


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
    lam_p: float,
    lam_m: float,
    c_p: float,
    c_m: float,
    r_p: float,
    r_m: float,
) -> np.ndarray:
    """Terms u_n(y_n, t) for n = 0..N, one lower limit y_n per n, from the
    closed-form switch-count densities in one (N x Q) array op.

    u_n is the discounted density mass e^{-b_r t} int_{y_n}^inf e^{-a_r x}
    p_n(x, t) dx, where a_r x + b_r t is the accumulated rate integral on
    the regime path. The n = 0 atom at c_s t contributes e^{-(lam_s + r_s) t}
    (boundary conventions as in ``u_n``); each n >= 1 takes a Q-node
    Gauss-Legendre rule on [max(y_n, c_- t), c_+ t], zero where y_n >= c_+ t.
    Requires c_+ > c_-; y_n = +inf gives a zero term.
    """
    check_regime(sigma)
    if not t > 0:
        raise ValueError("t must be positive")
    dens = DensityParams(
        c_plus=c_p, c_minus=c_m, lambda_plus=lam_p, lambda_minus=lam_m
    )
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    lo_ray, hi_ray = c_m * t, c_p * t
    atom_in = y[0] <= hi_ray if sigma == +1 else y[0] < lo_ray
    if atom_in:
        lam_s, r_s = (lam_p, r_p) if sigma == +1 else (lam_m, r_m)
        out[0] = math.exp(-(lam_s + r_s) * t)
    lo = np.maximum(y[1:], lo_ray)
    live = np.flatnonzero(lo < hi_ray)
    if live.size == 0:
        return out
    a_r, b_r = linear_transform_coeffs(c_p, c_m, r_p, r_m)
    a_bar = (lam_p + r_p) - (lam_m + r_m)
    order = _quad_order(int(live[-1]) + 1, abs(a_bar) * t)
    x_ref, w_ref = gauss_legendre_rule(order)
    half = 0.5 * (hi_ray - lo[live])
    nodes = (0.5 * (hi_ray + lo[live]))[:, None] + half[:, None] * x_ref
    log_f = (
        log_p_n_continuous(nodes, t, live[:, None] + 1, sigma, dens)
        - a_r * nodes
        - b_r * t
    )
    out[live + 1] = half * (np.exp(log_f) @ w_ref)
    return out


@dataclass
class _SeriesResult:
    u: np.ndarray | float
    U: np.ndarray | float
    u_terms: np.ndarray | None
    U_terms: np.ndarray | None
    tail_bound: float
    n_used: int


def tilted_intensities(
    params: ModelParams, lam_p: float, lam_m: float
) -> tuple[float, float]:
    """Stock-tilted intensities lambda_pm (1 + h_pm) of the U series."""
    lbp = lam_p * (1.0 + params.h_plus)
    lbm = lam_m * (1.0 + params.h_minus)
    if lbp <= 0 or lbm <= 0:
        raise ValueError("tilted intensities must be positive")
    return lbp, lbm


def _series_length(
    t_min: float,
    t_max: float,
    params: ModelParams,
    intens: MartingaleIntensities,
    controls: SeriesControls,
    weight_u: float,
    weight_U: float,
) -> tuple[int, float]:
    """Last switch count n of the u and U series and the tail bound there.

    The series stop at the first n where weight_u * tail(u) +
    weight_U * tail(U) falls below tail_epsilon, with Poisson-type tail
    bounds at the larger intensity; the bounds do not depend on the terms.
    Raises TruncationError on budget exhaustion.
    """
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    lbp, lbm = tilted_intensities(params, lsp, lsm)
    r_min = min(params.r_plus, params.r_minus)
    u_mass = math.exp(-(r_min + min(lsp, lsm)) * t_min)
    U_mass = math.exp(-min(lbp, lbm) * t_min)
    for n in range(controls.max_terms + 1):
        tail = weight_u * u_mass * poisson_tail_bound(
            max(lsp, lsm) * t_max, n
        ) + weight_U * U_mass * poisson_tail_bound(max(lbp, lbm) * t_max, n)
        if tail < controls.tail_epsilon:
            return n, tail
    raise TruncationError("pricing series exceeded the term budget")


class _FullMasses:
    """Full-mass terms rho_n(s) of the u and U series over the distinct times
    to maturity s of a set of points.

    Below the slow ray a term depends on s alone, and points share few
    distinct s (the backtest's grid times repeat across paths), so each row
    is evaluated once per s. Row n = 0, 1, ... is added when a series first
    needs it; ``rho_n`` builds every row.
    """

    def __init__(
        self,
        t: np.ndarray,
        sigma: Regime,
        params: ModelParams,
        intens: MartingaleIntensities,
    ) -> None:
        lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
        self.times = np.unique(t)
        self.sigma = sigma
        self.u_rates = (lsp, lsm, params.r_plus, params.r_minus)
        self.U_rates = (*tilted_intensities(params, lsp, lsm), 0.0, 0.0)
        self.u_rows: list[np.ndarray] = []
        self.U_rows: list[np.ndarray] = []

    def rows(self, n_max: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Rows n = 0..n_max (at least) of the u and U tables."""
        for n in range(len(self.u_rows), n_max + 1):
            self.u_rows.append(rho_n(self.times, n, self.sigma, *self.u_rates))
            self.U_rows.append(rho_n(self.times, n, self.sigma, *self.U_rates))
        return self.u_rows, self.U_rows


def call_u_U(
    y: np.ndarray | float,
    t: np.ndarray | float,
    sigma: Regime,
    params: ModelParams,
    intens: MartingaleIntensities,
    controls: SeriesControls,
    weight_u: float,
    weight_U: float,
    keep_terms: bool = True,
    masses: _FullMasses | None = None,
) -> _SeriesResult:
    """Accumulate the u and U series at kappa-shifted arguments y - b_n by
    the transport route on arrays of points.

    Terms are summed in ascending n up to the stopping index of
    ``_series_length``. For each n one region split (``_regions``) serves
    u and U: points below the slow ray read the full-mass tables ``masses``
    (built here over t's distinct values when not given; a caller that
    splits a large array passes one table for all its parts), and only the
    wedge points evaluate the transport kernel ``v_n``. With keep_terms=False
    only the sums are kept (large-array callers). Raises TruncationError when
    a sum is not finite.
    """
    check_regime(sigma)
    y_arr, t_arr = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    )
    y_flat, t_flat = y_arr.ravel(), t_arr.ravel()
    if np.any(t_flat <= 0):
        raise ValueError("t must be positive")
    n_used, tail = _series_length(
        float(np.min(t_flat)), float(np.max(t_flat)), params, intens, controls,
        weight_u, weight_U,
    )
    if masses is None:
        masses = _FullMasses(t_flat, sigma, params, intens)
    t_pos = np.searchsorted(masses.times, t_flat)  # every t is one of the times
    u_rows, U_rows = masses.rows(n_used)
    b = log_kappa_sequence(n_used, sigma, params.h_plus, params.h_minus)
    cp, cm = params.c_plus, params.c_minus

    u_sum = np.zeros(t_flat.size)
    U_sum = np.zeros(t_flat.size)
    u_terms = np.zeros((n_used + 1, t_flat.size)) if keep_terms else None
    U_terms = np.zeros((n_used + 1, t_flat.size)) if keep_terms else None
    for n in range(n_used + 1):
        reg = _regions(y_flat - b[n], t_flat, cp, cm)
        below_pos = t_pos[reg.below]
        parts = (
            (u_sum, u_terms, u_rows[n], masses.u_rates),
            (U_sum, U_terms, U_rows[n], masses.U_rates),
        )
        for total, terms, row, rates in parts:
            wedge_vals = _wedge_term(reg, n, sigma, *rates)
            below_vals = row[below_pos]
            total[reg.wedge] += wedge_vals
            total[reg.below] += below_vals
            if terms is not None:
                terms[n, reg.wedge] = wedge_vals
                terms[n, reg.below] = below_vals
    if not (np.isfinite(u_sum).all() and np.isfinite(U_sum).all()):
        raise TruncationError(f"transport series overflowed within {n_used + 1} terms")
    shape = y_arr.shape
    if keep_terms:
        u_terms = u_terms.reshape((n_used + 1, *shape))
        U_terms = U_terms.reshape((n_used + 1, *shape))
    if shape == ():
        u_total, U_total = float(u_sum[0]), float(U_sum[0])
    else:
        u_total, U_total = u_sum.reshape(shape), U_sum.reshape(shape)
    return _SeriesResult(
        u=u_total,
        U=U_total,
        u_terms=u_terms,
        U_terms=U_terms,
        tail_bound=tail,
        n_used=n_used,
    )


def call_price(
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> PriceBreakdown:
    """European call price S0 * U - K * u with the per-term breakdown.

    The terms integrate the closed-form switch-count densities
    (``series_terms``), u at the martingale intensities and U at the tilted
    ones; the c_+ = c_- market, which has no continuous density, sums its
    full-mass terms through ``call_u_U``.
    """
    intens = martingale_intensities(params)
    y = math.log(spec.strike / params.s0)
    T = spec.maturity
    sigma = params.sigma0
    cp, cm = params.c_plus, params.c_minus
    if cp == cm:
        res = call_u_U(
            y, T, sigma, params, intens, controls,
            weight_u=spec.strike, weight_U=params.s0,
        )
        n_used, tail = res.n_used, res.tail_bound
        shifted = y - log_kappa_sequence(n_used, sigma, params.h_plus, params.h_minus)
        u_terms = np.asarray(res.u_terms, dtype=float)
        U_terms = np.asarray(res.U_terms, dtype=float)
    else:
        n_used, tail = _series_length(
            T, T, params, intens, controls, weight_u=spec.strike, weight_U=params.s0
        )
        shifted = y - log_kappa_sequence(n_used, sigma, params.h_plus, params.h_minus)
        lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
        u_terms = series_terms(
            shifted, T, sigma, lsp, lsm, cp, cm, params.r_plus, params.r_minus
        )
        lbp, lbm = tilted_intensities(params, lsp, lsm)
        U_terms = series_terms(shifted, T, sigma, lbp, lbm, cp, cm, 0.0, 0.0)
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

    At t = maturity returns the payoff.
    """
    if intens is None:
        intens = martingale_intensities(params)
    scalar = np.ndim(t) == 0 and np.ndim(x) == 0
    t_arr, x_arr = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    )
    if np.any(t_arr > spec.maturity) or np.any(t_arr < 0):
        raise ValueError("t must lie in [0, maturity]")
    if np.any(x_arr <= 0):
        raise ValueError("stock prices must be positive")
    s = spec.maturity - t_arr
    out = np.empty(t_arr.shape)
    expired = s <= 0
    out[expired] = np.maximum(x_arr[expired] - spec.strike, 0.0)
    live = np.flatnonzero(~expired.ravel())
    if live.size:
        x_flat = x_arr.ravel()[live]
        s_flat = s.ravel()[live]
        vals = np.empty(live.size)
        masses = _FullMasses(s_flat, sigma, params, intens)
        # one full-mass table serves every chunk. Each series term makes a
        # dozen temporaries of a chunk's size (the region split, the gathered
        # masses, the v_n kernel cache of the wedge points); 256 KB arrays
        # keep that working set small enough for the allocator to reuse heap
        # memory instead of returning it to the OS and faulting it back in
        # on every term
        chunk = 1 << 15
        for i in range(0, live.size, chunk):
            xc = x_flat[i : i + chunk]
            sc = s_flat[i : i + chunk]
            res = call_u_U(
                np.log(spec.strike / xc),
                sc,
                sigma,
                params,
                intens,
                controls,
                weight_u=spec.strike,
                weight_U=float(np.max(xc)),
                keep_terms=False,
                masses=masses,
            )
            vals[i : i + chunk] = xc * res.U - spec.strike * res.u
        out.ravel()[live] = vals
    return float(out) if scalar else out


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
    # pdtr(k, m) = P(N <= k) and pdtrc(k, m) = P(N > k) for N ~ Poisson(m);
    # both are nan for k < 0, where the probabilities are 0 and 1
    m_u, m_big = lam_star * maturity, lam_star * (1.0 - h) * maturity
    if 0 < h < 1:
        n0 = math.ceil(w) - 1
        q_u, q_big = (pdtr(n0, m_u), pdtr(n0, m_big)) if n0 >= 0 else (0.0, 0.0)
    else:
        n0 = math.floor(w)
        q_u, q_big = (pdtrc(n0, m_u), pdtrc(n0, m_big)) if n0 >= 0 else (1.0, 1.0)
    u = math.exp(-r * maturity) * float(q_u)
    big_u = float(q_big)
    return s0 * big_u - strike * u


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
    b = log_kappa_sequence(controls.max_terms, sigma, params.h_plus, params.h_minus)
    pref = math.exp(-(lam_star + r) * T)

    u_total = 0.0
    for n in range(controls.max_terms + 1):
        y_n = y - b[n]
        if y_n > cp * T:
            term = 0.0
        elif y_n < cm * T:
            term = pref * (lam_star * T) ** n / math.factorial(n)
        else:
            p = (cp * T - y_n) / (2.0 * c)
            q = (y_n - cm * T) / (2.0 * c)
            m = _m_index(n, sigma)
            binom_sum = sum(
                math.comb(n, k) * q**k * p ** (n - k) for k in range(m + 1)
            )
            term = pref * lam_star**n * binom_sum / math.factorial(n)
        u_total += term
        if poisson_tail_bound(lam_star * T, n) < controls.tail_epsilon:
            break
    else:
        raise TruncationError("symmetric series exceeded the term budget")

    intens = martingale_intensities(params)
    res = call_u_U(
        y, T, sigma, params, intens, controls,
        weight_u=spec.strike, weight_U=params.s0,
    )
    return params.s0 * res.U - spec.strike * u_total


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
    bounded; ``payoff_breaks`` lists terminal stock prices where the payoff
    has kinks (e.g. the strike of a call) so the quadrature panels can be
    split there.
    """
    check_regime(sigma)
    if not 0 <= t <= maturity:
        raise ValueError("t must lie in [0, maturity]")
    if x <= 0:
        raise ValueError("x must be positive")
    s = maturity - t
    if s == 0:
        return float(payoff(x))
    intens = martingale_intensities(params)
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    lam_s = lsp if sigma == +1 else lsm
    kap = np.exp(
        log_kappa_sequence(controls.max_terms, sigma, params.h_plus, params.h_minus)
    )
    r_sig = params.r(sigma)
    c_sig = params.c(sigma)

    if params.c_plus == params.c_minus:
        if params.r_plus != params.r_minus:
            raise ValueError(
                "degenerate velocities with distinct rates are not supported"
            )
        # deterministic log-price drift; only the switch count is random
        acc = 0.0
        grow = math.exp(c_sig * s)
        for n in range(controls.max_terms + 1):
            mass = rho_n(s, n, sigma, lsp, lsm, 0.0, 0.0)
            acc += mass * float(payoff(x * grow * kap[n]))
            if poisson_tail_bound(max(lsp, lsm) * s, n) < controls.tail_epsilon:
                return math.exp(-r_sig * s) * acc
        raise TruncationError("payoff series exceeded the term budget")

    a_r, b_r = linear_transform_coeffs(
        params.c_plus, params.c_minus, params.r_plus, params.r_minus
    )
    dens = DensityParams(
        c_plus=params.c_plus, c_minus=params.c_minus,
        lambda_plus=lsp, lambda_minus=lsm,
    )
    lo, hi = params.c_minus * s, params.c_plus * s
    pay = np.vectorize(payoff, otypes=[float])
    acc = math.exp(-lam_s * s - a_r * c_sig * s) * float(payoff(x * math.exp(c_sig * s)))
    lam_max = max(lsp, lsm)
    lam_min = min(lsp, lsm)
    prev_bounds: list[float] = []
    for n in range(1, controls.max_terms + 1):
        # split the panels at the payoff kinks mapped into log-return space
        breaks = sorted(
            math.log(sb / (x * kap[n]))
            for sb in payoff_breaks
            if lo < math.log(sb / (x * kap[n])) < hi
        )
        edges = [lo, *breaks, hi]
        nodes_list, weights_list = zip(
            *(
                gauss_legendre_nodes(a_e, b_e, quad_order)
                for a_e, b_e in zip(edges[:-1], edges[1:])
            )
        )
        nodes = np.concatenate(nodes_list)
        weights = np.concatenate(weights_list)
        g = np.exp(-a_r * nodes) * pay(x * np.exp(nodes) * kap[n])
        dens_row = p_n_continuous(nodes, s, n, sigma, dens)
        acc += float(weights @ (g * dens_row))
        # envelope bound: sup of the integrand factor times a Poisson mass bound
        m_n = float(np.max(np.abs(g)))
        bound = m_n * math.exp(-lam_min * s + n * math.log(lam_max * s) - math.lgamma(n + 1))
        prev_bounds.append(bound)
        recent = prev_bounds[-3:]
        if (
            len(recent) == 3
            and all(bd < controls.tail_epsilon * max(1.0, abs(acc)) for bd in recent)
            and recent[-1] <= recent[0]
        ):
            return math.exp(-b_r * s) * acc
    raise TruncationError("payoff series exceeded the term budget")
