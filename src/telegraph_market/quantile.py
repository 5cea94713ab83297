"""Quantile hedging: maximal success probability under a budget constraint.

The optimal success set compares the physical/martingale density ratio with
gamma times the payoff; per switch count n this reduces to thresholds on the
terminal moneyness z = S(T)/S0 solving z^{-a} = gamma kappa*_n kappa_n^{-a}
e^{bT} (S0 z - K)^+. Budgets and success probabilities are then series in n:
capital terms use martingale-measure quantities, probabilities physical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .measure import MartingaleIntensities, martingale_intensities
from .model import ModelParams, kappa, linear_transform_coeffs, log_kappa_sequence
from .numerics import bisect_root, expand_bracket_down, expand_bracket_up, poisson_tail_bound
from .pricing import (
    CallSpec,
    SeriesControls,
    call_price,
    series_terms,
    tilted_intensities,
)

Threshold = None | float | tuple[float, float]


@dataclass(frozen=True)
class Budget:
    """Initial capital for the constrained hedge; must be below the
    perfect-hedge price (checked at solve time)."""

    v0: float

    def __post_init__(self) -> None:
        if not self.v0 > 0:
            raise BudgetError("budget must be positive")


@dataclass(frozen=True)
class QuantileSolution:
    """Solved quantile-hedging problem.

    ``thresholds[n]`` is the moneyness cutoff for the n-switch slice expressed
    as a bound on X(T): None means the slice is fully included, a float y_n
    means inclusion iff X(T) <= y_n, and a pair (y1, y2) means inclusion iff
    X(T) <= y1 or X(T) >= y2.
    """

    gamma: float
    regime_case: str
    thresholds: tuple[Threshold, ...]
    success_probability: float
    budget: float
    maturity: float
    a: float
    b: float


def density_ratio_coeffs(
    params: ModelParams, intens: MartingaleIntensities
) -> tuple[float, float]:
    """Coefficients (a, b) of the density ratio dP*/dP = e^{a X(T) + b T} kappa*."""
    return linear_transform_coeffs(
        params.c_plus, params.c_minus, intens.c_star_plus, intens.c_star_minus
    )


def _slice_coeff(
    n: int,
    gamma: float,
    params: ModelParams,
    intens: MartingaleIntensities,
    a: float,
    b: float,
    maturity: float,
) -> float:
    """C_n = gamma kappa*_n kappa_n^{-a} e^{bT} of the threshold equation."""
    sig = params.sigma0
    kap = kappa(n, sig, params.h_plus, params.h_minus)
    kap_star = kappa(n, sig, intens.h_star_plus, intens.h_star_minus)
    return gamma * kap_star * kap ** (-a) * math.exp(b * maturity)


def threshold_z(
    n: int,
    gamma: float,
    params: ModelParams,
    spec: CallSpec,
    intens: MartingaleIntensities | None = None,
) -> Threshold:
    """Moneyness threshold(s) z > K/S0 solving z^{-a} = C_n (S0 z - K).

    Single root for -a <= 1, a (z1, z2) pair for -a > 1; None when the level
    set never meets the payoff region (the n-slice is then fully included).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if intens is None:
        intens = martingale_intensities(params)
    a, b = density_ratio_coeffs(params, intens)
    c_n = _slice_coeff(n, gamma, params, intens, a, b, spec.maturity)
    s0, strike = params.s0, spec.strike
    z_k = strike / s0
    alpha = -a

    if alpha <= 1.0:
        # z^{-a} grows at most linearly: at most one downward crossing
        def g(z: float) -> float:
            return c_n * (s0 * z - strike) - z**alpha

        bracket = expand_bracket_up(g, z_k)
        if bracket is None:
            return None
        return bisect_root(g, *bracket, rtol=1e-13)

    # superlinear left side: the level set {g <= 0} is an interval (z1, z2)
    def g(z: float) -> float:
        return z**alpha - c_n * (s0 * z - strike)

    z_min = (c_n * s0 / alpha) ** (1.0 / (alpha - 1.0))
    if z_min <= z_k or g(z_min) > 0:
        return None
    z1 = bisect_root(g, z_k, z_min, rtol=1e-13)
    bracket = expand_bracket_up(g, z_min)
    if bracket is None:  # cannot happen: g -> +inf
        raise RuntimeError("upper threshold bracket expansion failed")
    z2 = bisect_root(g, *bracket, rtol=1e-13)
    return (z1, z2)


def _n_cutoff(params: ModelParams, intens: MartingaleIntensities,
              maturity: float, controls: SeriesControls) -> int:
    lam_hi = max(
        intens.lambda_star_plus, intens.lambda_star_minus,
        params.lambda_plus, params.lambda_minus,
    )
    for n in range(controls.max_terms + 1):
        if poisson_tail_bound(lam_hi * maturity, n) < controls.tail_epsilon:
            return n
    raise BudgetError("switch-count series exceeded the term budget")


def _thresholds_for_gamma(
    gamma: float,
    params: ModelParams,
    spec: CallSpec,
    intens: MartingaleIntensities,
    n_max: int,
) -> tuple[Threshold, ...]:
    b_n = log_kappa_sequence(n_max, params.sigma0, params.h_plus, params.h_minus)
    out: list[Threshold] = []
    for n in range(n_max + 1):
        z = threshold_z(n, gamma, params, spec, intens)
        if z is None:
            out.append(None)
        elif isinstance(z, tuple):
            out.append((math.log(z[0]) - b_n[n], math.log(z[1]) - b_n[n]))
        else:
            out.append(math.log(z) - b_n[n])
    return tuple(out)


def _excluded_value(
    thresholds: tuple[Threshold, ...],
    params: ModelParams,
    maturity: float,
    strike: float,
    lam_p: float,
    lam_m: float,
    r_p: float,
    r_m: float,
    capital_weights: bool,
) -> float:
    """Series over n of the capital (or probability) mass above the thresholds.

    With capital_weights the terms are S0 U_n - K u_n at the threshold
    (discounted capital under the martingale measure); otherwise plain u_n
    gives the physical probability mass.
    """
    sig = params.sigma0
    cp, cm = params.c_plus, params.c_minus
    lbp, lbm = tilted_intensities(params, lam_p, lam_m)

    def tail_value(y_x: np.ndarray) -> float:
        """Mass of {X(T) > y_x[n], N = n} summed over n (thresholds are
        X-space values, which is exactly the argument convention of u_n)."""
        u_val = np.sum(series_terms(y_x, maturity, sig, lam_p, lam_m, cp, cm, r_p, r_m))
        if not capital_weights:
            return float(u_val)
        u_big = np.sum(series_terms(y_x, maturity, sig, lbp, lbm, cp, cm, 0.0, 0.0))
        return float(params.s0 * u_big - strike * u_val)

    # slice n loses its mass above y1 minus its mass above y2: y2 = +inf for
    # a single threshold, and y1 = y2 = +inf for a fully included slice
    bands = [
        (np.inf, np.inf) if thr is None
        else thr if isinstance(thr, tuple)
        else (thr, np.inf)
        for thr in thresholds
    ]
    first, second = np.array(bands, dtype=float).T
    total = tail_value(first)
    if np.any(np.isfinite(second)):
        total -= tail_value(second)
    return total


def constrained_capital(
    gamma: float,
    params: ModelParams,
    spec: CallSpec,
    intens: MartingaleIntensities,
    controls: SeriesControls,
    perfect_price: float,
    n_max: int,
) -> tuple[float, tuple[Threshold, ...]]:
    """Perfect-hedge price of the payoff restricted to the success set."""
    thresholds = _thresholds_for_gamma(gamma, params, spec, intens, n_max)
    excluded = _excluded_value(
        thresholds, params, spec.maturity, spec.strike,
        intens.lambda_star_plus, intens.lambda_star_minus,
        params.r_plus, params.r_minus,
        capital_weights=True,
    )
    return perfect_price - excluded, thresholds


def success_probability(
    solution: QuantileSolution, params: ModelParams
) -> float:
    """Physical probability of the success set: 1 minus the excluded mass."""
    excluded = _excluded_value(
        solution.thresholds, params, solution.maturity, 0.0,
        params.lambda_plus, params.lambda_minus,
        0.0, 0.0,
        capital_weights=False,
    )
    return 1.0 - excluded


def _case_label(a: float) -> str:
    return "double_threshold" if -a > 1.0 else "single_threshold"


def solve_budget_gamma(
    budget: Budget,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> QuantileSolution:
    """Find gamma so the constrained hedge costs exactly the budget.

    The constrained capital is strictly decreasing in gamma, so bracketed
    bisection converges unconditionally; residual below 1e-9 * S0.
    """
    intens = martingale_intensities(params)
    perfect = call_price(params, spec, controls).price
    if budget.v0 >= perfect:
        raise BudgetError(
            f"budget {budget.v0} must be below the perfect-hedge price {perfect}"
        )
    a, b = density_ratio_coeffs(params, intens)
    n_max = _n_cutoff(params, intens, spec.maturity, controls)

    def capital_minus_v0(gamma: float) -> float:
        cap, _ = constrained_capital(
            gamma, params, spec, intens, controls, perfect, n_max
        )
        return cap - budget.v0

    f1 = capital_minus_v0(1.0)
    if f1 > 0:  # capital decreases in gamma: search upward
        bracket = expand_bracket_up(capital_minus_v0, 1.0)
    else:
        bracket = expand_bracket_down(capital_minus_v0, 1.0)
    if bracket is None:
        raise BudgetError("failed to bracket gamma for the budget equation")
    gamma = bisect_root(capital_minus_v0, *bracket, rtol=1e-14)
    cap, thresholds = constrained_capital(
        gamma, params, spec, intens, controls, perfect, n_max
    )
    if abs(cap - budget.v0) > 1e-9 * params.s0:
        raise BudgetError(f"budget residual {abs(cap - budget.v0)} too large")
    sol = QuantileSolution(
        gamma=gamma,
        regime_case=_case_label(a),
        thresholds=thresholds,
        success_probability=0.0,
        budget=cap,
        maturity=spec.maturity,
        a=a,
        b=b,
    )
    prob = success_probability(sol, params)
    return QuantileSolution(
        gamma=gamma, regime_case=sol.regime_case, thresholds=thresholds,
        success_probability=prob, budget=cap, maturity=spec.maturity, a=a, b=b,
    )


def solve_dual(
    epsilon: float,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> QuantileSolution:
    """Minimal budget whose optimal success set has shortfall probability
    epsilon: find gamma with P(success) = 1 - epsilon, then price the
    restricted claim."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    intens = martingale_intensities(params)
    perfect = call_price(params, spec, controls).price
    a, b = density_ratio_coeffs(params, intens)
    n_max = _n_cutoff(params, intens, spec.maturity, controls)

    def shortfall(gamma: float) -> float:
        thresholds = _thresholds_for_gamma(gamma, params, spec, intens, n_max)
        excluded = _excluded_value(
            thresholds, params, spec.maturity, 0.0,
            params.lambda_plus, params.lambda_minus, 0.0, 0.0,
            capital_weights=False,
        )
        return excluded - epsilon

    bracket = expand_bracket_up(shortfall, 1e-8)
    if bracket is None:
        raise BudgetError(
            "infeasible epsilon: shortfall never reaches the target"
        )
    gamma = bisect_root(shortfall, *bracket, rtol=1e-13, abs_tol=1e-12)
    cap, thresholds = constrained_capital(
        gamma, params, spec, intens, controls, perfect, n_max
    )
    sol = QuantileSolution(
        gamma=gamma,
        regime_case=_case_label(a),
        thresholds=thresholds,
        success_probability=0.0,
        budget=cap,
        maturity=spec.maturity,
        a=a,
        b=b,
    )
    prob = success_probability(sol, params)
    return QuantileSolution(
        gamma=gamma, regime_case=sol.regime_case, thresholds=thresholds,
        success_probability=prob, budget=cap, maturity=spec.maturity, a=a, b=b,
    )


def insurance_budget(
    survival_prob: float, params: ModelParams, spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> float:
    """Survival-probability-discounted claim value (equity-linked insurance
    budget); strictly below the perfect-hedge price when survival_prob < 1."""
    if not 0 < survival_prob <= 1:
        raise ValueError("survival probability must lie in (0, 1]")
    return survival_prob * call_price(params, spec, controls).price
