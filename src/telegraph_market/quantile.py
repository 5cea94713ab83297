"""Quantile hedging: maximal success probability under a budget constraint.

The optimal success set compares the physical/martingale density ratio with
gamma times the payoff; per switch count n this reduces to thresholds on the
terminal moneyness z = S(T)/S0 solving z^{-a} = gamma kappa*_n kappa_n^{-a}
e^{bT} (S0 z - K)^+. Budgets and success probabilities are then series in n:
capital terms use martingale-measure quantities, probabilities physical ones.

Both problems solve for gamma the same way: the budget problem matches the
capital of the success set to the budget, the dual matches its success
probability to 1 - epsilon. Both fall as gamma grows, so one search with one
residual check (``_Problem.solve``) serves both and builds the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, TruncationError
from .measure import MartingaleIntensities, martingale_intensities
from .model import ModelParams, linear_transform_coeffs, log_kappa_sequence
from .numerics import geometric_root
from .pricing import (
    CallSpec,
    SeriesControls,
    call_price,
    series_length,
    series_rates,
    series_terms,
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


def _log_slice_coeffs(
    n_max: int,
    gamma: float,
    params: ModelParams,
    intens: MartingaleIntensities,
    a: float,
    b: float,
    maturity: float,
) -> np.ndarray:
    """log C_n = log gamma + log kappa*_n - a log kappa_n + bT for n = 0..n_max."""
    sig = params.sigma0
    log_kap_star = log_kappa_sequence(n_max, sig, intens.h_star_plus, intens.h_star_minus)
    log_kap = log_kappa_sequence(n_max, sig, params.h_plus, params.h_minus)
    return math.log(gamma) + log_kap_star - a * log_kap + b * maturity


_NEWTON_MAX_ITER = 100


def _newton_from_bound(
    v: np.ndarray,
    step_sign: np.ndarray | float,
    log_c: np.ndarray,
    alpha: float,
    log_s0: float,
    log_k: float,
) -> np.ndarray:
    """Newton on F(v) = log C_n + v - alpha (ln(K + e^v) - ln S0), one root
    per entry, from starts on the side where every step has ``step_sign``.

    On that side F is concave rising to the left of its root, concave falling
    to the right of it, or convex rising to the right of it, so the iterates
    move monotonically onto the root. An entry stops once its step turns
    against that direction (rounding at the root) or falls to a few ulps;
    NaN entries stay NaN.
    """
    log_cs = log_c + log_s0
    for _ in range(_NEWTON_MAX_ITER):
        # F = log(C_n S0) - ln(1 + K e^{-v}) - (alpha - 1) ln z, which keeps
        # v and alpha ln z (each up to ~700) from cancelling for alpha ~ 1
        log_sum = np.logaddexp(log_k, v)  # ln(K + e^v) = ln(S0 z)
        f = log_cs - np.logaddexp(0.0, log_k - v) - (alpha - 1.0) * (log_sum - log_s0)
        slope = np.exp(log_k - log_sum) - (alpha - 1.0) * np.exp(v - log_sum)
        step = -f / slope
        ahead = step_sign * step > 0.0  # False where v is NaN (no root)
        v = np.where(ahead, v + step, v)
        if not np.any(ahead & (np.abs(step) > 4e-16 * np.maximum(1.0, np.abs(v)))):
            return v
    raise TruncationError("threshold Newton iteration did not converge")


def _moneyness_roots(
    log_c: np.ndarray, alpha: float, s0: float, strike: float
) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds z > K/S0 solving z^alpha = C_n (S0 z - K) for every n.

    Returns (z1, z2): z1 is NaN where no root is representable, z2 is NaN
    where the slice has at most one root and +inf where the upper root lies
    beyond the float range. See ``threshold_z`` for the method.
    """
    log_s0, log_k = math.log(s0), math.log(strike)
    nan = np.full(log_c.shape, np.nan)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if alpha == 1.0:
            # F rises to log(C_n S0): one root iff C_n S0 > 1, in closed form
            excess = log_c + log_s0
            v1 = np.where(excess > 0.0, log_k - np.log(np.expm1(excess)), np.nan)
            v2 = nan
        else:
            # roots of the lines of slope 1 and 1 - alpha that bound F from
            # above (0 < alpha) or below (alpha <= 0)
            r_flat = alpha * (log_k - log_s0) - log_c
            r_steep = (log_c + alpha * log_s0) / (alpha - 1.0)
            if alpha < 1.0:
                rising = alpha > 0.0
                start = np.maximum(r_flat, r_steep) if rising else np.minimum(r_flat, r_steep)
                v1 = _newton_from_bound(
                    start, 1.0 if rising else -1.0, log_c, alpha, log_s0, log_k
                )
                v2 = nan
            else:
                # concave with its peak at e^v = K / (alpha - 1), where
                # ln(1 + K e^{-v}) = ln alpha and ln z = ln(K/S0) +
                # ln(alpha / (alpha - 1)): a window of two roots iff F > 0 there
                log_alpha = math.log(alpha)
                peak = log_c + log_s0 - log_alpha - (alpha - 1.0) * (
                    log_k - log_s0 + log_alpha - math.log(alpha - 1.0)
                )
                open_ = peak > 0.0
                both = np.concatenate([np.where(open_, r_flat, np.nan),
                                       np.where(open_, r_steep, np.nan)])
                sign = np.repeat([1.0, -1.0], log_c.size)
                roots = _newton_from_bound(
                    both, sign, np.tile(log_c, 2), alpha, log_s0, log_k
                )
                v1, v2 = roots[: log_c.size], roots[log_c.size:]
        z1 = strike / s0 + np.exp(v1 - log_s0)
        z2 = strike / s0 + np.exp(v2 - log_s0)
    lost = ~np.isfinite(z1)
    z1[lost] = np.nan
    z2[lost] = np.nan
    return z1, z2


def _as_threshold(first: float, second: float) -> Threshold:
    if math.isnan(first):
        return None
    if math.isnan(second):
        return first
    return (first, second)


def threshold_z(
    n: int,
    gamma: float,
    params: ModelParams,
    spec: CallSpec,
    intens: MartingaleIntensities | None = None,
) -> Threshold:
    """Moneyness threshold(s) z > K/S0 solving z^{-a} = C_n (S0 z - K).

    Single root for -a <= 1, a (z1, z2) pair for -a > 1; None when the level
    set never meets the payoff region (the n-slice is then fully included)
    or meets it only beyond the float range.

    With alpha = -a and v = ln(S0 z - K) the equation reads F(v) = 0, where
    F(v) = log C_n + v - alpha (ln(K + e^v) - ln S0). For alpha > 0, F is
    concave and lies below the lines of slope 1 and 1 - alpha through
    v = alpha ln(K/S0) - log C_n and v = (log C_n + alpha ln S0)/(alpha - 1);
    for alpha <= 0 it is convex and lies above them. Newton started at the
    nearer line's root therefore converges monotonically: for alpha < 1 to
    the one root, for alpha > 1 to z1 from the slope-1 root and to z2 from
    the other. For alpha > 1 the window exists iff F > 0 at its peak
    e^v = K/(alpha - 1). For alpha = 1 exactly, F rises to log(C_n S0): a
    root exists iff C_n S0 > 1, and it is z = C_n K / (C_n S0 - 1).

    This is the one-n view of the array solver that serves every n at once.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if intens is None:
        intens = martingale_intensities(params)
    a, b = density_ratio_coeffs(params, intens)
    log_c = _log_slice_coeffs(n, gamma, params, intens, a, b, spec.maturity)[n:]
    z1, z2 = _moneyness_roots(log_c, -a, params.s0, spec.strike)
    return _as_threshold(float(z1[0]), float(z2[0]))


def _n_cutoff(params: ModelParams, intens: MartingaleIntensities,
              maturity: float, controls: SeriesControls) -> int:
    """Last switch count of the capital and probability series: the
    unweighted tail bound at the largest of both measures' intensities."""
    lam_hi = max(
        intens.lambda_star_plus, intens.lambda_star_minus,
        params.lambda_plus, params.lambda_minus,
    )
    return series_length(maturity, maturity, controls, (1.0, 0.0, lam_hi, 0.0))[0]


def _thresholds_for_gamma(
    gamma: float,
    params: ModelParams,
    spec: CallSpec,
    intens: MartingaleIntensities,
    n_max: int,
) -> tuple[Threshold, ...]:
    a, b = density_ratio_coeffs(params, intens)
    log_c = _log_slice_coeffs(n_max, gamma, params, intens, a, b, spec.maturity)
    z1, z2 = _moneyness_roots(log_c, -a, params.s0, spec.strike)
    b_n = log_kappa_sequence(n_max, params.sigma0, params.h_plus, params.h_minus)
    y1 = (np.log(z1) - b_n).tolist()
    y2 = (np.log(z2) - b_n).tolist()
    return tuple(_as_threshold(first, second) for first, second in zip(y1, y2))


def _excluded_masses(
    thresholds: tuple[Threshold, ...],
    params: ModelParams,
    maturity: float,
    *rates: tuple[float, float, float, float],
) -> np.ndarray:
    """Mass of the excluded set summed over n, one sum per rate tuple.

    Slice n is excluded above y1_n and, for a double threshold, below y2_n:
    its mass is the u_n of ``series_terms`` at y1_n minus that at y2_n
    (thresholds are X-space values, the argument convention of u_n). One
    ``series_terms`` call per band serves every tuple: at ``series_rates``
    the sums are the u and U of the capital S0 U - K u that the excluded set
    loses, at the physical intensities with r = 0 its probability.
    """
    # y2 = +inf for a single threshold, and y1 = y2 = +inf for a fully
    # included slice
    bands = [
        (np.inf, np.inf) if thr is None
        else thr if isinstance(thr, tuple)
        else (thr, np.inf)
        for thr in thresholds
    ]
    first, second = np.array(bands, dtype=float).T
    sig, cp, cm = params.sigma0, params.c_plus, params.c_minus
    total = series_terms(first, maturity, sig, cp, cm, *rates).sum(axis=1)
    if np.any(np.isfinite(second)):
        total -= series_terms(second, maturity, sig, cp, cm, *rates).sum(axis=1)
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
    problem = _Problem(params, spec, intens, perfect_price, n_max)
    thresholds = _thresholds_for_gamma(gamma, params, spec, intens, n_max)
    return problem.capital(thresholds), thresholds


def success_probability(
    solution: QuantileSolution, params: ModelParams
) -> float:
    """Physical probability of the success set: 1 minus the excluded mass."""
    physical = (params.lambda_plus, params.lambda_minus, 0.0, 0.0)
    return 1.0 - _excluded_masses(solution.thresholds, params, solution.maturity, physical)[0]


def _case_label(a: float) -> str:
    return "double_threshold" if -a > 1.0 else "single_threshold"


@dataclass(frozen=True)
class _Problem:
    """One call on one market: what every gamma of a solve shares."""

    params: ModelParams
    spec: CallSpec
    intens: MartingaleIntensities
    perfect: float
    n_max: int

    @classmethod
    def of(cls, params: ModelParams, spec: CallSpec, controls: SeriesControls) -> _Problem:
        intens = martingale_intensities(params)
        perfect = call_price(params, spec, controls).price
        n_max = _n_cutoff(params, intens, spec.maturity, controls)
        return cls(params, spec, intens, perfect, n_max)

    def capital(self, thresholds: tuple[Threshold, ...]) -> float:
        u, U = _excluded_masses(
            thresholds, self.params, self.spec.maturity, *series_rates(self.params, self.intens)
        )
        return self.perfect - (self.params.s0 * U - self.spec.strike * u)

    def success_probability(self, thresholds: tuple[Threshold, ...]) -> float:
        physical = (self.params.lambda_plus, self.params.lambda_minus, 0.0, 0.0)
        return 1.0 - _excluded_masses(thresholds, self.params, self.spec.maturity, physical)[0]

    def solve(
        self,
        quantity: Callable[[tuple[Threshold, ...]], float],
        target: float,
        tol: float,
        rtol: float,
        abs_tol: float = 0.0,
    ) -> QuantileSolution:
        """Solution at the gamma where ``quantity`` (capital or success
        probability, both falling in gamma) of the success set meets ``target``.

        Evaluates gamma = 1, steps by x4 or x0.25 toward the sign change and
        closes the bracket to rtol * gamma + abs_tol (``geometric_root``).
        Where the quantity jumps across the target (the no-switch atom leaving
        the success set) that stops next to the jump, and the residual above
        ``tol`` raises BudgetError.
        """
        seen = {}  # gamma -> (thresholds, excess)

        def excess_at(gamma: float) -> float:
            thresholds = _thresholds_for_gamma(
                gamma, self.params, self.spec, self.intens, self.n_max
            )
            seen[gamma] = thresholds, quantity(thresholds) - target
            return seen[gamma][1]

        f1 = excess_at(1.0)
        gamma = geometric_root(
            excess_at, 1.0, 4.0 if f1 > 0 else 0.25, f_start=f1, rtol=rtol, abs_tol=abs_tol
        )
        if gamma is None:
            raise BudgetError(f"failed to bracket gamma: no success set meets {target:.12g}")
        thresholds, residual = seen[gamma]  # geometric_root returns a point it evaluated
        if abs(residual) > tol:
            raise BudgetError(f"residual {abs(residual):.3g} too large: {target:.12g} falls "
                              "in the jump where an atom leaves the success set")
        a, b = density_ratio_coeffs(self.params, self.intens)
        return QuantileSolution(
            gamma=gamma, regime_case=_case_label(a), thresholds=thresholds,
            success_probability=self.success_probability(thresholds),
            budget=self.capital(thresholds), maturity=self.spec.maturity, a=a, b=b,
        )


def solve_budget_gamma(
    budget: Budget,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> QuantileSolution:
    """Find gamma so the constrained hedge costs exactly the budget, to
    1e-9 * S0; a budget inside the capital's jump at the no-switch atom
    raises BudgetError."""
    problem = _Problem.of(params, spec, controls)
    if budget.v0 >= problem.perfect:
        raise BudgetError(
            f"budget {budget.v0} must be below the perfect-hedge price {problem.perfect}"
        )
    return problem.solve(problem.capital, budget.v0, tol=1e-9 * params.s0, rtol=1e-14)


def solve_dual(
    epsilon: float,
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> QuantileSolution:
    """Minimal budget whose optimal success set has shortfall probability
    epsilon: the gamma with P(success) = 1 - epsilon, to 1e-9, by the budget
    solve's search, and the capital of that success set. A cap inside the
    success probability's jump at the no-switch atom raises BudgetError."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    problem = _Problem.of(params, spec, controls)
    return problem.solve(
        problem.success_probability, 1.0 - epsilon, tol=1e-9, rtol=1e-13, abs_tol=1e-12
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
