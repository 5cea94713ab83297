"""Output checks of the benchmark, run after the timed rounds.

Each workload's answers are compared with values computed apart from the code
that produced them (``*_references``), or with properties the method must
have. A check function returns one message per failed check, each starting
with the check's tag; an empty list means every check passed. The self-test
(``selftest.py``) feeds each check a perturbed answer and expects its tag.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np

from telegraph_market import mc
from telegraph_market.hedging import make_call_pricer
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams, regime_at, stock_price
from telegraph_market.pricing import CallSpec, PriceBreakdown, SeriesControls, call_price, european_price_F
from telegraph_market.quantile import constrained_capital, success_probability

from workloads import (
    TRUNCATING, TRUNCATING_SPEC, HedgeRound, McInputs, McRound, SeriesRound, call_payoff,
)

PRICE_TOL = 1e-9  # absolute price tolerance, as a share of S0
# Gauss-Legendre order of the density-quadrature route: on these markets it
# agrees with the series to ~1e-13 at a fraction of the default's cost.
QUAD_ORDER = 80
N_SE = 4.0  # Monte Carlo agreement, in standard errors
GAMMA_STEP = 0.05  # relative gamma step of the budget-monotonicity check
CHECK_SEED = 20_071_214  # fixed stream of the property runs, independent of --seed


def density_price(params: ModelParams, spec: CallSpec, t: float = 0.0,
                  x: float | None = None, sigma: int | None = None) -> float:
    """Call value by density quadrature (shares no code with the series)."""
    strike = spec.strike
    return european_price_F(
        t, params.s0 if x is None else x, params.sigma0 if sigma is None else sigma,
        lambda s: max(s - strike, 0.0), spec.maturity, params,
        quad_order=QUAD_ORDER, payoff_breaks=(strike,),
    )


def poisson_sum_price(params: ModelParams, spec: CallSpec) -> float:
    """Call price when c+ = c-, r+ = r- and h+ = h-: the martingale rate is
    lambda* = (r - c)/h in both regimes, the switch count is Poisson and
    S(T) = S0 e^{cT} (1+h)^N."""
    c, r, h = params.c_plus, params.r_plus, params.h_plus
    if not (c == params.c_minus and r == params.r_minus and h == params.h_minus):
        raise ValueError("Poisson-sum price needs equal velocities, rates and jumps")
    mean = (r - c) / h * spec.maturity
    grow = params.s0 * math.exp(c * spec.maturity)
    n_max = int(mean + 40.0 * math.sqrt(mean) + 50)
    total = 0.0
    for n in range(n_max + 1):
        weight = math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
        total += weight * max(grow * (1.0 + h) ** n - spec.strike, 0.0)
    return math.exp(-r * spec.maturity) * total


def price_bound_failures(tag: str, params: ModelParams, spec: CallSpec, price: float) -> list[str]:
    """max(0, S0 - K e^{-r_min T}) <= C <= S0."""
    tol = PRICE_TOL * params.s0
    r_min = min(params.r_plus, params.r_minus)
    lower = max(0.0, params.s0 - spec.strike * math.exp(-r_min * spec.maturity))
    if not lower - tol <= price <= params.s0 + tol:
        return [f"bounds: {tag} price {price!r} outside [{lower!r}, {params.s0!r}]"]
    return []


def within_se(tag: str, est: mc.McEstimate, target: float) -> list[str]:
    if not (est.std_error > 0 and abs(est.mean - target) <= N_SE * est.std_error):
        z = (est.mean - target) / est.std_error if est.std_error > 0 else math.inf
        return [f"{tag}: {est.mean!r} vs {target!r} is {z:.2f} SE"]
    return []


# ---------------------------------------------------------------- series


def series_references(rnd: SeriesRound, n_paths: int) -> dict:
    refs: dict = {"price": {}, "quantile": {}}
    for i, (name, params, spec, _, _) in enumerate(rnd.prices):
        if params.c_plus == params.c_minus:
            refs["price"][i] = ("poisson", poisson_sum_price(params, spec))
        else:
            refs["price"][i] = ("density", density_price(params, spec))
    params, spec = rnd.long_inputs
    refs["long"] = density_price(params, spec)
    for q in rnd.quantile:
        intens = martingale_intensities(q.params)
        perfect = call_price(q.params, q.spec).price
        n_max = len(q.solution.thresholds) - 1
        neighbours = []
        for gamma in (q.solution.gamma * (1 - GAMMA_STEP), q.solution.gamma * (1 + GAMMA_STEP)):
            cap, thr = constrained_capital(
                gamma, q.params, q.spec, intens, SeriesControls(), perfect, n_max
            )
            sol = replace(q.solution, gamma=gamma, thresholds=thr, budget=cap)
            neighbours.append((cap, success_probability(sol, q.params)))
        refs["quantile"][q.name] = {
            "neighbours": neighbours,
            "mc": mc.mc_success_probability(q.params, q.solution, n_paths, CHECK_SEED),
        }
    return refs


def check_series(rnd: SeriesRound, refs: dict) -> list[str]:
    out: list[str] = []
    groups: dict = defaultdict(list)
    for i, (name, params, spec, bk, _) in enumerate(rnd.prices):
        tag = f"{name} K={spec.strike:.4f} T={spec.maturity}"
        out += price_bound_failures(tag, params, spec, bk.price)
        route, ref = refs["price"][i]
        if abs(bk.price - ref) > PRICE_TOL * params.s0:
            out.append(f"{route}: {tag} series {bk.price!r} vs {ref!r}")
        groups[(name, spec.maturity)].append((spec.strike, bk.price))
    for key, row in groups.items():
        row.sort()
        k, c = np.array([r[0] for r in row]), np.array([r[1] for r in row])
        tol = PRICE_TOL * 100.0
        slopes = np.diff(c) / np.diff(k)
        if np.any(np.diff(c) > tol):
            out.append(f"strike-monotone: {key} prices {c.tolist()} increase in K")
        if np.any(np.diff(slopes) < -tol):
            out.append(f"strike-convex: {key} slopes {slopes.tolist()} decrease in K")
    params, spec = rnd.long_inputs
    out += price_bound_failures("long", params, spec, rnd.long.price)
    if abs(rnd.long.price - refs["long"]) > PRICE_TOL * params.s0:
        out.append(f"density: long series {rnd.long.price!r} vs {refs['long']!r}")
    for q in rnd.quantile:
        s0 = q.params.s0
        sol, dual = q.solution, q.dual
        if abs(sol.budget - q.v0) > 1e-9 * s0:
            out.append(f"budget-residual: {q.name} {sol.budget!r} vs {q.v0!r}")
        trip = max(abs(dual.gamma - sol.gamma) / sol.gamma, abs(dual.budget - sol.budget) / sol.budget)
        if trip > 1e-8:
            out.append(f"dual-round-trip: {q.name} relative gap {trip:.3e}")
        (cap_lo, p_lo), (cap_hi, p_hi) = refs["quantile"][q.name]["neighbours"]
        if not (cap_lo > sol.budget > cap_hi and p_lo > sol.success_probability > p_hi):
            out.append(
                f"budget-monotone: {q.name} (budget, P) at gamma(1-/+{GAMMA_STEP}) "
                f"({cap_lo}, {p_lo}), solved ({sol.budget}, {sol.success_probability}), "
                f"({cap_hi}, {p_hi})"
            )
        out += within_se(f"mc-success: {q.name}", refs["quantile"][q.name]["mc"], sol.success_probability)
    if isinstance(rnd.truncating, PriceBreakdown):
        out += price_bound_failures("truncating", TRUNCATING, TRUNCATING_SPEC, rnd.truncating.price)
    return out


# ---------------------------------------------------------------- hedge


def hedge_references(rnd: HedgeRound, params: ModelParams, spec: CallSpec, seed: int) -> dict:
    """Series price, and the call surface next to the density route at three
    states drawn from the run's paths (state by the scalar path evaluators)."""
    rng = np.random.default_rng([seed, 7])
    pricer = make_call_pricer(params, spec)
    states = []
    for _ in range(3):
        path = rnd.paths[int(rng.integers(len(rnd.paths)))]
        t = float(rng.uniform(0.0, 0.9 * spec.maturity))
        x = stock_price(path, params, t)
        sigma = regime_at(path, t)
        states.append((t, x, sigma, float(pricer(t, x, sigma)),
                       density_price(params, spec, t, x, sigma)))
    return {"price": call_price(params, spec).price, "states": states}


def check_hedge(rnd: HedgeRound, refs: dict, s0: float) -> list[str]:
    out: list[str] = []
    st = rnd.stats
    if abs(st.initial_capital - refs["price"]) > 1e-12 * s0:
        out.append(f"initial-capital: {st.initial_capital!r} vs series {refs['price']!r}")
    if not st.mean_abs_error <= 1e-3 * s0:
        out.append(f"mean-error: {st.mean_abs_error!r} > {1e-3 * s0}")
    if not st.max_abs_error <= 1e-2 * s0:
        out.append(f"max-error: {st.max_abs_error!r} > {1e-2 * s0}")
    for t, x, sigma, surface, ref in refs["states"]:
        if abs(surface - ref) > PRICE_TOL * s0:
            out.append(f"surface: F({t:.4f}, {x:.4f}, {sigma}) {surface!r} vs density {ref!r}")
    return out


# ---------------------------------------------------------------- mc


def mc_references(inp: McInputs, n_paths: int) -> dict:
    """Series price, and property runs on a fixed stream: E*[S(T)/B(T)] = S0,
    E_P[Z] = 1 (a market with equal rates, so the payoff can cancel the
    discount), and one estimate at 1 and at 2 workers."""
    params, spec = inp.params, inp.spec
    equal_r = replace(params, r_minus=params.r_plus)
    grow = math.exp(equal_r.r_plus * spec.maturity)
    n_split = n_paths // 2  # several 16 384-path blocks
    return {
        "price": call_price(params, spec).price,
        "discounted_stock": mc.mc_price(params, lambda s: s, spec.maturity, n_paths, CHECK_SEED),
        "density_mass": mc.mc_price_girsanov(
            equal_r, lambda s: np.full_like(s, grow), spec.maturity, n_paths, CHECK_SEED + 1
        ),
        "workers": [
            mc.mc_price(params, call_payoff(spec.strike), spec.maturity, n_split,
                        CHECK_SEED + 2, n_workers=w)
            for w in (1, 2)
        ],
    }


def check_mc(rnd: McRound, inp: McInputs, refs: dict) -> list[str]:
    out: list[str] = []
    est = rnd.estimates
    out += within_se("mc-price", est["price"], refs["price"])
    out += within_se("mc-girsanov", est["girsanov"], refs["price"])
    out += within_se("mc-success", est["success"], inp.success.success_probability)
    out += within_se("discounted-stock", refs["discounted_stock"], inp.params.s0)
    out += within_se("density-mass", refs["density_mass"], 1.0)
    w1, w2 = refs["workers"]
    if (w1.mean, w1.std_error) != (w2.mean, w2.std_error):
        out.append(f"workers: 1 worker {w1.mean!r}, 2 workers {w2.mean!r}")
    for arb in rnd.arbitrage:
        if not (arb.min_profit >= 0.0 and bool(np.all(arb.profits >= 0.0)) and arb.p_positive.mean > 0.0):
            out.append(f"arbitrage: min profit {arb.min_profit!r}, P(profit>0) {arb.p_positive.mean!r}")
    worst = rnd.limit.max(axis=1)
    if not bool(np.all(np.diff(worst) < 0)):
        out.append(f"limit-decreasing: max errors by level {worst.tolist()}")
    return out


# ---------------------------------------------------------------- rounds


def _answers(family: str, rnd) -> tuple:
    if family == "series":
        return (
            tuple(p[3].price for p in rnd.prices), rnd.long.price,
            tuple((q.solution.gamma, q.dual.gamma, q.dual.budget) for q in rnd.quantile),
            type(rnd.truncating).__name__,
        )
    if family == "hedge":
        return tuple(rnd.stats.errors)
    return (
        tuple(e.mean for e in rnd.estimates.values()),
        tuple(tuple(a.profits) for a in rnd.arbitrage), tuple(rnd.limit.ravel()),
    )


def check_repeats(family: str, rounds: list) -> list[str]:
    """Rounds repeat the same inputs, so every round must give the first
    round's answers bit for bit (the checks above look at the first)."""
    first = _answers(family, rounds[0])
    bad = [i for i, r in enumerate(rounds[1:], start=1) if _answers(family, r) != first]
    return [f"repeat: {family} rounds {bad} differ from round 0"] if bad else []
