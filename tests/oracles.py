"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own series/kernel code:
switch-count masses come from direct ODE integration of the counting-process
forward equations, the series terms u_n / U_n are recomputed by adaptive
quadrature against the per-switch densities, the quantile-hedging
thresholds are found by scalar bracketed bisection in z, the arbitrage
demo's strategy is walked segment by segment on one path at a time, the
MGF is summed over switch counts with one Gauss-Legendre integral per n,
the series stops are found by a per-n loop over a scalar tail bound, and the
starting-regime occupation is summed from the differences of the full
boundary array, and the replication backtest prices every grid point of
every path, the no-switch prefix each path shares included.

``phi_kn`` is the one exception: a view over the transport route's private
tables, which the derivative tests difference against its identities.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from telegraph_market.densities import DensityParams, p_n, p_n_continuous
from telegraph_market.errors import DivergenceError, TruncationError
from telegraph_market.hedging import (
    PricerF,
    ReplicationStats,
    hedge_ratio,
    make_call_pricer,
)
from telegraph_market.measure import MartingaleIntensities
from telegraph_market.model import (
    ModelParams,
    RegimePath,
    kappa,
    log_kappa_sequence,
    path_state,
)
from telegraph_market.numerics import gauss_legendre_rule
from telegraph_market import pricing
from telegraph_market.pricing import CallSpec, SeriesControls, call_price

_MGF_QUAD_ORDER = 400  # Gauss-Legendre nodes over the support in ``mgf_series``
_MGF_TAIL_EPS = 1e-10  # ``mgf_series`` stops once its tail bound is below this share of the sum


def switch_count_masses_ode(
    lam_first: float, lam_second: float, t: float, n_max: int
) -> np.ndarray:
    """P(N(t) = n) for the alternating-rate counting process, n = 0..n_max.

    Forward equations: pi_0' = -r_0 pi_0, pi_n' = -r_n pi_n + r_{n-1} pi_{n-1}
    with rate r_n = lam_first for even n, lam_second for odd n.
    """
    rates = np.where(np.arange(n_max + 2) % 2 == 0, lam_first, lam_second)

    def rhs(_t, pi):
        out = -rates[: n_max + 1] * pi
        out[1:] += rates[:n_max] * pi[:-1]
        return out

    pi0 = np.zeros(n_max + 1)
    pi0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), pi0, rtol=1e-12, atol=1e-14, method="DOP853")
    return sol.y[:, -1]


def phi_kn(k: int, n: int, p: np.ndarray | float, a_bar: float) -> np.ndarray | float:
    """Auxiliary kernels phi_{k,n}(p) of the wedge kernels; phi_{0,n} = P_{2n+1}.

    phi_{k,n} = sum_{j<k} a_bar^{k-j-1} beta_{k,j} P_{2n-j}^{(-)}(p) for k >= 1,
    the coefficients from ``pricing._fill_phi`` and every order read from one
    ``pricing._kernel_table``. Raises TruncationError when a coefficient
    overflows.
    """
    if k < 0 or k > n:
        raise ValueError("phi_kn requires 0 <= k <= n")
    p_arr = np.asarray(p, dtype=float)
    coef = np.zeros((1, 2 * n + 2))
    pricing._fill_phi(coef, np.array([k]), n, a_bar)
    orders = [2 * n + 1] if k == 0 else range(2 * n, 2 * n - k, -1)
    lo = min(orders)
    table = pricing._kernel_table(p_arr.ravel(), max(orders), a_bar, n_min=lo)
    acc = sum(coef[0, o] * table[o - lo] for o in orders).reshape(p_arr.shape)
    return acc if np.ndim(p) else float(acc)


def u_n_quadrature(
    y: float,
    t: float,
    n: int,
    sigma: int,
    lam_p: float,
    lam_m: float,
    c_p: float,
    c_m: float,
    r_p: float,
    r_m: float,
) -> float:
    """u_n(y, t) = e^{-b_r t} int_y^inf e^{-a_r x} p_n(x, t) dx by quadrature,
    where (a_r, b_r) linearize the accumulated discount in the telegraph
    coordinate: int_0^t r ds = a_r X(t) + b_r t."""
    delta_c = c_p - c_m
    a_r = (r_p - r_m) / delta_c
    b_r = (c_p * r_m - c_m * r_p) / delta_c
    dens = DensityParams(
        c_plus=c_p, c_minus=c_m, lambda_plus=lam_p, lambda_minus=lam_m
    )
    if n == 0:
        val = p_n(np.array([0.0]), t, 0, sigma, dens)
        x_atom = val.atom_location
        if x_atom <= y:
            return 0.0
        return float(np.exp(-b_r * t - a_r * x_atom) * val.atom_weight)
    lo, hi = max(y, c_m * t), c_p * t
    if lo >= hi:
        lo = c_m * t
    if y >= hi:
        return 0.0

    def f(x):
        return np.exp(-b_r * t - a_r * x) * p_n_continuous(x, t, n, sigma, dens)

    out, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return float(out)


def U_n_quadrature(
    y: float,
    t: float,
    n: int,
    sigma: int,
    lam_p: float,
    lam_m: float,
    c_p: float,
    c_m: float,
    r_p: float,
    r_m: float,
    h_p: float,
    h_m: float,
) -> float:
    """U_n(y, t) = kappa_n e^{-b_r t} int_y^inf e^{(1-a_r) x} p_n(x, t) dx."""
    delta_c = c_p - c_m
    a_r = (r_p - r_m) / delta_c
    b_r = (c_p * r_m - c_m * r_p) / delta_c
    kap = kappa(n, sigma, h_p, h_m)
    dens = DensityParams(
        c_plus=c_p, c_minus=c_m, lambda_plus=lam_p, lambda_minus=lam_m
    )
    if n == 0:
        val = p_n(np.array([0.0]), t, 0, sigma, dens)
        x_atom = val.atom_location
        if x_atom <= y:
            return 0.0
        return float(kap * np.exp(-b_r * t + (1.0 - a_r) * x_atom) * val.atom_weight)
    lo, hi = max(y, c_m * t), c_p * t
    if y >= hi:
        return 0.0

    def f(x):
        return np.exp(-b_r * t + (1.0 - a_r) * x) * p_n_continuous(
            x, t, n, sigma, dens
        )

    out, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return float(kap * out)


def threshold_bisection(
    c_n: float, alpha: float, s0: float, strike: float, rtol: float = 1e-13
) -> None | float | tuple[float, float]:
    """Roots z > K/S0 of z^alpha = c_n (S0 z - K) by bracketed bisection.

    Same return convention as ``quantile.threshold_z``: None, one root, or
    (z1, z2) with z2 = inf when the upper root lies past the float range.
    A root counts only below the largest float. Works on
    h(z) = g(z)/z = z^(alpha-1) - c_n (S0 - K/z), whose sign is g's and which
    stays finite where z^alpha or c_n S0 z would overflow.
    """
    z_k = strike / s0
    z_top = sys.float_info.max

    def h(z: float) -> float:
        return z ** (alpha - 1.0) - c_n * (s0 - strike / z)

    def bisect(lo: float, hi: float) -> float:
        h_lo = h(lo)
        while hi - lo > rtol * hi:
            mid = lo + 0.5 * (hi - lo)  # lo + hi can overflow
            h_mid = h(mid)
            if h_mid == 0.0:
                return mid
            if (h_mid > 0.0) == (h_lo > 0.0):
                lo, h_lo = mid, h_mid
            else:
                hi = mid
        return lo + 0.5 * (hi - lo)

    def first_sign_change_above(z: float) -> tuple[float, float] | None:
        h_z = h(z)
        while z < z_top:
            nxt = min(4.0 * z, z_top)
            h_nxt = h(nxt)
            if h_nxt == 0.0 or (h_nxt > 0.0) != (h_z > 0.0):
                return z, nxt
            z, h_z = nxt, h_nxt
        return None

    if alpha <= 1.0:
        # h(K/S0) = z_k^(alpha-1) > 0 and h falls through zero at most once
        bracket = first_sign_change_above(z_k)
        return None if bracket is None else bisect(*bracket)
    # convex g: the set {g < 0} is an interval around g's minimum z_min,
    # taken as the largest float when it lies past the float range
    log_z_min = math.log(c_n * s0 / alpha) / (alpha - 1.0)
    z_min = math.exp(min(log_z_min, math.log(z_top)))
    if z_min <= z_k or h(z_min) >= 0.0:
        return None
    z1 = bisect(z_k, z_min)
    bracket = first_sign_change_above(z_min)
    return (z1, math.inf if bracket is None else bisect(*bracket))


def strategy_profit(
    params: ModelParams,
    switches: np.ndarray,
    t_horizon: float,
    log_a: float,
    log_b: float,
) -> float:
    """Event-driven profit of the arbitrage demo's threshold strategy on one
    path, walking its segments one by one (reference for the block
    evaluation in `mc.arbitrage_demo`).

    ``switches`` are the path's switch times below the horizon. The
    log-price ln(S/S0) is piecewise linear between switches with jumps
    ln(1+h) at switches; level crossings inside a segment have closed-form
    times, so hit detection is exact.
    """
    sig = params.sigma0
    x = 0.0  # current log price relative to s0
    t = 0.0
    holding = False
    entry_x = 0.0
    seg_ends = np.concatenate((switches, [t_horizon]))
    for k, t_end in enumerate(seg_ends):
        c = params.c(sig)
        x_end = x + c * (t_end - t)
        if not holding and x < log_a <= x_end:
            # continuous upward crossing of the entry level: buy exactly at A
            holding = True
            entry_x = log_a
            x = log_a
        if holding:
            if c > 0 and x_end >= log_b:
                return (math.exp(log_b) - math.exp(entry_x)) * params.s0
            if c < 0 and x_end <= log_a:
                return (math.exp(log_a) - math.exp(entry_x)) * params.s0
        x = x_end
        if k < len(switches):
            x += math.log1p(params.h(sig))
            if holding:
                # a jump through either level closes at the post-jump price
                if x >= log_b or x <= log_a:
                    return (math.exp(x) - math.exp(entry_x)) * params.s0
            elif x >= log_a:
                # jump across the entry level: buy at the post-jump price
                holding = True
                entry_x = x
                if x >= log_b:
                    return 0.0  # bought and sold at the same instant
            sig = -sig
        t = t_end
    if holding:
        return (math.exp(x) - math.exp(entry_x)) * params.s0
    return 0.0


def gauss_legendre_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def mgf_series(
    z: float,
    t: float,
    sigma: int,
    params: DensityParams,
    h_plus: float,
    h_minus: float,
    *,
    max_terms: int = 200,
) -> float:
    """Moment-generating function of X(t) + ln kappa(t) at argument z.

    Sums kappa_{n,sigma}^z-weighted integrals of e^{zx} against p_n; stops on
    a per-term Poisson-type tail bound. Raises DivergenceError if the term
    ratio test fails within the term budget. The bound carries no e^{-lam t},
    so ``max_terms`` must reach about 2 e lam t for large lam t.
    """
    lo, hi = params.c_minus * t, params.c_plus * t
    nodes, weights = gauss_legendre_nodes(lo, hi, _MGF_QUAD_ORDER)
    ezx = np.exp(z * nodes) * weights
    log_kap = log_kappa_sequence(max_terms, sigma, h_plus, h_minus)
    lam_max = max(params.lambda_plus, params.lambda_minus)
    z_sup = max(z * lo, z * hi)

    acc = math.exp(-params.lam(sigma) * t + z * params.c(sigma) * t)  # atom, n = 0
    for n in range(1, max_terms + 1):
        if z * log_kap[n] + z_sup > 700.0:
            raise DivergenceError(
                "mgf term overflow: jump factors outgrow the Poisson tail"
            )
        term = math.exp(z * log_kap[n]) * float(
            ezx @ p_n_continuous(nodes, t, n, sigma, params)
        )
        acc += term
        # sup over the support of e^{z x + z ln kappa_{n+1}} times a Poisson mass bound
        bound_log = (
            z * log_kap[min(n + 1, max_terms)]
            + z_sup
            + (n + 1) * math.log(lam_max * t)
            - math.lgamma(n + 2)
        )
        if bound_log > 700.0:
            continue
        bound = math.exp(bound_log)
        ratio = math.exp(z * (log_kap[min(n + 1, max_terms)] - log_kap[n])) * lam_max * t / (n + 2)
        if ratio < 0.5 and bound / (1.0 - ratio) < _MGF_TAIL_EPS * abs(acc):
            return acc
    raise DivergenceError("mgf series failed to converge within the term budget")


def poisson_tail_bound(rate_t: float, n: int) -> float:
    """Upper bound on sum_{k > n} (rate_t)^k / k!.

    Uses the geometric-ratio bound on the Poisson-type tail; valid (and
    finite) once n + 2 > rate_t, else returns +inf. A bound past the float
    range is +inf as well.
    """
    if rate_t <= 0.0:
        return 0.0
    ratio = rate_t / (n + 2)
    if ratio >= 1.0:
        return math.inf
    log_head = (n + 1) * math.log(rate_t) - math.lgamma(n + 2)
    try:
        head = math.exp(log_head)
    except OverflowError:
        return math.inf
    return head / (1.0 - ratio)


def series_length_loop(
    t_min: float,
    t_max: float,
    params: ModelParams,
    intens: MartingaleIntensities,
    controls: SeriesControls,
    weight_u: float,
    weight_U: float,
) -> tuple[int, float]:
    """Last switch count n of a call's u and U series and the tail bound
    there, one n at a time: the reference for ``pricing.series_length``.

    The series stop at the first n where weight_u * tail(u) +
    weight_U * tail(U) falls below tail_epsilon, with Poisson-type tail
    bounds at the larger intensity; the bounds do not depend on the terms.
    Raises TruncationError on budget exhaustion.
    """
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    lbp, lbm = lsp * (1.0 + params.h_plus), lsm * (1.0 + params.h_minus)
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


def n_cutoff_loop(params: ModelParams, intens: MartingaleIntensities,
                  maturity: float, controls: SeriesControls) -> int:
    """The quantile series' switch-count cutoff, one n at a time: the
    reference for ``quantile._n_cutoff``."""
    lam_hi = max(
        intens.lambda_star_plus, intens.lambda_star_minus,
        params.lambda_plus, params.lambda_minus,
    )
    for n in range(controls.max_terms + 1):
        if poisson_tail_bound(lam_hi * maturity, n) < controls.tail_epsilon:
            return n
    raise TruncationError(
        f"switch-count series did not meet tail_epsilon within {controls.max_terms} terms"
    )


def switch_state_concat_diff(
    switch_times: np.ndarray, t: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """(N(t), time spent in the starting regime on [0, t]) from switch times,
    by concatenating the boundaries 0, min(tau_1, t), ..., min(tau_k, t), t
    and summing every other difference (reference for
    ``model.switch_state``).

    ``switch_times`` has shape (k, *batch), increasing along axis 0, and
    ``t`` broadcasts against the batch shape. N is right-continuous (it
    counts switches <= t). The occupation sums the even-index segments
    between the saturated boundaries 0, min(tau_1, t), ..., min(tau_k, t), t:
    segments beyond t collapse to zero length.
    """
    t = np.asarray(t, dtype=float)
    capped = np.minimum(switch_times, t)
    batch = capped.shape[1:]
    n = np.sum(switch_times <= t, axis=0)
    bounds = np.concatenate(
        (np.zeros((1, *batch)), capped, np.broadcast_to(t, (1, *batch)))
    )
    occ = np.sum(np.diff(bounds, axis=0)[0::2], axis=0)
    return n, occ


def replication_backtest_every_point(
    paths: Sequence[RegimePath],
    spec: CallSpec,
    params: ModelParams,
    n_steps: int,
    pricer_f: PricerF | None = None,
    payoff: Callable[[np.ndarray], np.ndarray] | None = None,
    initial_capital: float | None = None,
    controls: SeriesControls = SeriesControls(),
) -> ReplicationStats:
    """Self-financing replication of a European claim along simulated paths,
    pricing every grid point of every path (reference for
    ``hedging.replication_backtest``).

    Rebalances on a uniform n_steps grid augmented with the exact switch
    times of each path; between rebalances the position is held fixed and
    capital accrues via the stock drift/jumps and the bond. Reports terminal
    |capital - payoff| statistics and admissibility (capital >= 0).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if not paths:
        raise ValueError("replication needs at least one path")
    if pricer_f is None:
        pricer_f = make_call_pricer(params, spec, controls)
    if payoff is None:
        payoff = lambda s: np.maximum(s - spec.strike, 0.0)  # noqa: E731
    if initial_capital is None:
        initial_capital = call_price(params, spec, controls).price
    maturity = spec.maturity
    uniform = np.linspace(0.0, maturity, n_steps + 1)

    # assemble per-path grids and states, then batch the hedge-ratio calls
    grids, states = [], []
    for path in paths:
        if path.horizon < maturity:
            raise ValueError("path horizon shorter than the claim maturity")
        times = np.unique(np.concatenate((uniform, np.asarray(path.switch_times))))
        times = times[times <= maturity]
        st = path_state(path, times)
        sig = st.regime()
        r_t = np.where(sig == 1, params.r_plus, params.r_minus)
        grids.append(times)
        states.append((sig, st.stock(params), r_t))

    offsets = np.cumsum([0] + [g.size - 1 for g in grids])
    t_all = np.concatenate([g[:-1] for g in grids])
    sig_all = np.concatenate([st[0][:-1] for st in states])
    s_all = np.concatenate([st[1][:-1] for st in states])
    phi_all = np.empty_like(s_all)
    for sg in (+1, -1):
        mask = sig_all == sg
        if np.any(mask):
            phi_all[mask] = hedge_ratio(
                t_all[mask], s_all[mask], sg, pricer_f, params
            )

    errors = np.empty(len(paths))
    min_capital = np.inf
    for i, (times, (sig, s_t, r_t)) in enumerate(zip(grids, states)):
        phi = phi_all[offsets[i] : offsets[i + 1]]
        dt_seg = np.diff(times)
        growth = np.exp(r_t[:-1] * dt_seg)
        gain = phi * (s_t[1:] - s_t[:-1] * growth)
        # capital follows F_{j+1} = g_j F_j + gain_j; solve by cumulative products
        cum_g = np.concatenate(([1.0], np.cumprod(growth)))
        capital = cum_g * (initial_capital + np.cumsum(
            np.concatenate(([0.0], gain / cum_g[1:]))
        ))
        errors[i] = capital[-1] - float(payoff(np.asarray(s_t[-1])))
        min_capital = min(min_capital, float(np.min(capital)))
    abs_err = np.abs(errors)
    return ReplicationStats(
        initial_capital=initial_capital,
        errors=errors,
        mean_abs_error=float(abs_err.mean()),
        max_abs_error=float(abs_err.max()),
        min_capital=min_capital,
        admissible=min_capital >= -1e-9 * params.s0,
    )
