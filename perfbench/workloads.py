"""Markets, inputs and timed rounds of the benchmark's three families of
operations: ``series``, ``hedge`` and ``mc``.

Every market, maturity and size is fixed here. The seed only jitters strikes
(by up to 1%), quantile budgets and gammas, and picks the random streams of
the path samplers, so one seed always gives the same inputs and the work per
round barely moves between seeds.

A round is one pass over a family's operations, returned as a list of
callables that fill the round's record. The ``series`` workload is the
``series`` family; the ``paths`` workload is the ``hedge`` and ``mc``
families together. A run repeats whole rounds of its own families for
``--seconds`` and spreads a few smaller *cross-section* rounds of the other
families between them, so that every run reports every end-to-end metric
(see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from telegraph_market import mc
from telegraph_market.errors import TruncationError
from telegraph_market.hedging import ReplicationStats, make_call_pricer, replication_backtest
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams, RegimePath, sample_path
from telegraph_market.pricing import CallSpec, PriceBreakdown, SeriesControls, call_price
from telegraph_market.quantile import (
    Budget,
    QuantileSolution,
    constrained_capital,
    density_ratio_coeffs,
    solve_budget_gamma,
    solve_dual,
    success_probability,
)

from spans import Spans

# The test suite's asymmetric market: (1+h+)(1+h-) = 1.12, expanding.
ASYM = ModelParams(
    c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05, s0=100.0, sigma0=+1,
)
# (1+h+)(1+h-) = 0.84, contracting; lambda* = (1.4, 1.75).
CONTRACTING = replace(ASYM, h_plus=-0.3, h_minus=0.2)
# c+ = c-, r+ = r-, h+ = h-: lambda* = (r - c)/h = 3 in both regimes, so the
# switch count is Poisson(3T) and the price is a Merton-type Poisson sum.
EQUAL_C = ModelParams(
    c_plus=-0.1, c_minus=-0.1, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=0.05, h_minus=0.05, r_plus=0.05, r_minus=0.05, s0=100.0, sigma0=+1,
)
# lambda* = (10, 9.72): at T = 10.8 the series needs about 200 terms.
LONG = replace(ASYM, h_plus=-0.05, h_minus=0.036, r_plus=0.0, r_minus=0.05)
LONG_MATURITY = 10.8
# Quantile hedging: single threshold (-a <= 1) and double threshold (-a > 1).
QUANTILE_SINGLE = replace(ASYM, sigma0=-1)
QUANTILE_DOUBLE = ModelParams(
    c_plus=0.1, c_minus=-0.4, lambda_plus=1.0, lambda_minus=1.5,
    h_plus=0.05, h_minus=0.5, r_plus=0.3, r_minus=0.05, s0=100.0, sigma0=-1,
)
QUANTILE_MARKETS = {"single": QUANTILE_SINGLE, "double": QUANTILE_DOUBLE}
# lambda* = (0.7, 9.72). The series stops on a Poisson bound at the larger
# tilted rate times T, which asks for more than 400 terms, although the
# terms vanish beyond n ~ 40: call_price raises TruncationError at any
# max_terms. Fixed inputs, independent of the seed.
TRUNCATING = ModelParams(
    c_plus=0.2, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=-0.2, h_minus=0.036, r_plus=0.06, r_minus=0.05, s0=100.0, sigma0=+1,
)
TRUNCATING_SPEC = CallSpec(strike=100.0, maturity=15.0)
TRUNCATING_CONTROLS = SeriesControls(max_terms=120)
# Jump-free, zero-rate market of the arbitrage demonstration.
JUMP_FREE = ModelParams(
    c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
    h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=+1,
)
ARB_LEVELS = (105.0, 115.0)
# limit-check at the command line's default levels, z values and t, with the
# suite's v_c, v_a, mu: (v_c, v_a, mu, levels, z_values, t_horizon).
LIMIT_ARGS = (0.3, 0.2, 0.05, (1, 4, 16, 64), (-1.0, 0.5, 1.0), 1.0)
# Switch counts kept in the mc workload's success set: Poisson(2.1) mass
# beyond 40 is far below double precision.
SUCCESS_N_MAX = 40

SWEEP_MARKETS = {
    "asym+": ASYM,
    "asym-": replace(ASYM, sigma0=-1),
    "contracting+": CONTRACTING,
    "contracting-": replace(CONTRACTING, sigma0=-1),
    "equal_c": EQUAL_C,
}


@dataclass(frozen=True)
class SeriesSize:
    markets: tuple[str, ...]
    maturities: tuple[float, ...]
    strikes: tuple[float, ...]
    long_maturity: float
    quantile: tuple[tuple[str, float], ...]  # (market, maturity)
    truncating: bool


@dataclass(frozen=True)
class HedgeSize:
    paths: int
    steps: int


@dataclass(frozen=True)
class McSize:
    paths: int
    arb_paths: int  # per arbitrage_demo call
    arb_ops: int
    limit_reps: int


@dataclass(frozen=True)
class Sizes:
    """Sizes of the own rounds, the cross-section rounds and the set-ups."""

    series: SeriesSize
    hedge: HedgeSize
    mc: McSize
    cross_series: SeriesSize
    cross_hedge: HedgeSize
    cross_mc: McSize
    cross_rounds: dict[str, int]
    setups: int
    check_paths: int

    def of(self, family: str, cross: bool):
        return getattr(self, ("cross_" if cross else "") + family)


FULL = Sizes(
    series=SeriesSize(
        markets=tuple(SWEEP_MARKETS), maturities=(0.5, 1.0, 1.5, 2.0, 2.5),
        strikes=(80.0, 100.0, 125.0),
        long_maturity=LONG_MATURITY, quantile=(("single", 0.5), ("double", 0.5)),
        truncating=True,
    ),
    hedge=HedgeSize(paths=120, steps=1200),
    mc=McSize(paths=300_000, arb_paths=25_000, arb_ops=4, limit_reps=2),
    cross_series=SeriesSize(
        markets=("asym+", "asym-"), maturities=(0.5, 2.5), strikes=(80.0, 100.0, 125.0),
        long_maturity=LONG_MATURITY / 6, quantile=(("single", 0.25),), truncating=False,
    ),
    cross_hedge=HedgeSize(paths=15, steps=1200),
    cross_mc=McSize(paths=1 << 16, arb_paths=15_000, arb_ops=2, limit_reps=1),
    cross_rounds={"series": 5, "hedge": 6, "mc": 5},
    setups=3,
    check_paths=100_000,
)

QUICK = Sizes(
    series=SeriesSize(
        markets=("asym+", "equal_c"), maturities=(0.5,), strikes=(80.0, 100.0, 125.0),
        long_maturity=1.0, quantile=(("single", 0.5),), truncating=True,
    ),
    hedge=HedgeSize(paths=4, steps=200),
    mc=McSize(paths=20_000, arb_paths=1_000, arb_ops=2, limit_reps=1),
    cross_series=SeriesSize(
        markets=("asym+",), maturities=(0.5,), strikes=(80.0, 100.0, 125.0),
        long_maturity=1.0, quantile=(("single", 0.5),), truncating=False,
    ),
    cross_hedge=HedgeSize(paths=4, steps=200),
    cross_mc=McSize(paths=20_000, arb_paths=1_000, arb_ops=2, limit_reps=1),
    cross_rounds={"series": 1, "hedge": 2, "mc": 2},
    setups=1,
    check_paths=50_000,
)


def _rng(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng([seed, ("series", "hedge", "mc").index(family)])


def _jitter(rng: np.random.Generator, x: float, rel: float = 0.01) -> float:
    return x * (1.0 + rel * rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------- series


@dataclass
class SeriesInputs:
    sweep: list[tuple[str, ModelParams, CallSpec]]
    long: tuple[ModelParams, CallSpec]
    quantile: list[tuple[str, ModelParams, CallSpec, float]]  # (.., budget v0)
    truncating: bool


@dataclass
class QuantileRun:
    name: str
    params: ModelParams
    spec: CallSpec
    v0: float
    solution: QuantileSolution
    solve_s: float
    dual: QuantileSolution | None = None
    dual_s: float = 0.0


@dataclass
class SeriesRound:
    long_inputs: tuple[ModelParams, CallSpec]
    prices: list[tuple[str, ModelParams, CallSpec, PriceBreakdown, float]] = field(default_factory=list)
    long: PriceBreakdown | None = None
    long_s: float = 0.0
    quantile: list[QuantileRun] = field(default_factory=list)
    truncating: PriceBreakdown | TruncationError | None = None
    attempted: int = 0
    failed: int = 0

    @property
    def sweep_s(self) -> float:
        return sum(p[4] for p in self.prices)


def build_series(seed: int, size: SeriesSize) -> SeriesInputs:
    rng = _rng(seed, "series")
    sweep = [
        (name, SWEEP_MARKETS[name], CallSpec(_jitter(rng, k), t))
        for name in size.markets
        for t in size.maturities
        for k in size.strikes
    ]
    long = (LONG, CallSpec(_jitter(rng, 100.0), size.long_maturity))
    quantile = []
    for name, maturity in size.quantile:
        params = QUANTILE_MARKETS[name]
        spec = CallSpec(100.0, maturity)
        frac = 0.5 + 0.05 * rng.uniform(-1.0, 1.0)
        quantile.append((name, params, spec, frac * call_price(params, spec).price))
    return SeriesInputs(sweep, long, quantile, size.truncating)


def series_ops(inp: SeriesInputs, spans: Spans) -> tuple[SeriesRound, list[Callable[[], None]]]:
    """One round: the sweep prices spread between the long price, the
    quantile solves and the truncating call, so that the sweep's timing
    covers the whole round."""
    rnd = SeriesRound(inp.long)

    def price(name: str, params: ModelParams, spec: CallSpec):
        def op():
            rnd.attempted += 1
            bk, dt = spans.call("pricing.call_price", call_price, params, spec)
            rnd.prices.append((name, params, spec, bk, dt))
        return op

    def long():
        rnd.attempted += 1
        rnd.long, rnd.long_s = spans.call("pricing.call_price.long", call_price, *inp.long)

    def solve(name: str, params: ModelParams, spec: CallSpec, v0: float):
        def op():
            rnd.attempted += 1
            sol, dt = spans.call(
                "quantile.solve_budget_gamma", solve_budget_gamma, Budget(v0), params, spec
            )
            rnd.quantile.append(QuantileRun(name, params, spec, v0, sol, dt))
        return op

    def dual(name: str):
        def op():
            rnd.attempted += 1
            (run,) = [q for q in rnd.quantile if q.name == name]
            run.dual, run.dual_s = spans.call(
                "quantile.solve_dual", solve_dual,
                1.0 - run.solution.success_probability, run.params, run.spec,
            )
        return op

    def truncating():
        rnd.attempted += 1
        try:
            rnd.truncating, _ = spans.call(
                "pricing.call_price.truncating", call_price,
                TRUNCATING, TRUNCATING_SPEC, TRUNCATING_CONTROLS,
            )
        except TruncationError as exc:
            rnd.truncating = exc
            rnd.failed += 1

    big = [long]
    for q in inp.quantile:
        big += [solve(*q), dual(q[0])]
    if inp.truncating:
        big.append(truncating)
    sweep = [price(*s) for s in inp.sweep]
    return rnd, _spread(sweep, big)


def _spread(small: list, big: list) -> list:
    """``small`` in len(big) + 1 nearly equal chunks around the ``big`` items."""
    bounds = np.linspace(0, len(small), len(big) + 2).round().astype(int)
    out = []
    for i in range(len(big) + 1):
        out += small[bounds[i] : bounds[i + 1]]
        if i < len(big):
            out.append(big[i])
    return out


# ---------------------------------------------------------------- hedge


@dataclass
class HedgeInputs:
    params: ModelParams
    spec: CallSpec
    seed: int
    paths: int
    steps: int


@dataclass
class HedgeRound:
    paths: list[RegimePath] = field(default_factory=list)
    stats: ReplicationStats | None = None
    steps: int = 0
    round_s: float = 0.0
    attempted: int = 0
    failed: int = 0


def build_hedge(seed: int, size: HedgeSize) -> HedgeInputs:
    rng = _rng(seed, "hedge")
    return HedgeInputs(ASYM, CallSpec(_jitter(rng, 100.0), 1.0), seed, size.paths, size.steps)


def rebalancing_steps(paths: list[RegimePath], maturity: float, n_steps: int) -> int:
    """Grid intervals of the backtest: the uniform grid plus each path's
    switch times, summed over paths."""
    uniform = np.linspace(0.0, maturity, n_steps + 1)
    total = 0
    for path in paths:
        times = np.unique(np.concatenate((uniform, np.asarray(path.switch_times))))
        total += int(np.count_nonzero(times <= maturity)) - 1
    return total


def hedge_ops(inp: HedgeInputs, spans: Spans) -> tuple[HedgeRound, list[Callable[[], None]]]:
    """One round: draw the paths and backtest the hedge along them, as the
    command line's ``hedge`` does."""
    params, spec = inp.params, inp.spec
    rnd = HedgeRound()
    sample = spans.wrap("model.sample_path", sample_path)
    pricer = spans.wrap(
        "pricing.call_value_surface",
        make_call_pricer(params, spec),
        count=lambda t, x, sigma: int(np.size(x)),
    )
    backtest = spans.wrap("hedging.replication_backtest", replication_backtest)

    def one_round():
        paths = [sample(params, spec.maturity, inp.seed, i) for i in range(inp.paths)]
        return paths, backtest(paths, spec, params, inp.steps, pricer_f=pricer)

    def op():
        rnd.attempted += 1
        (rnd.paths, rnd.stats), rnd.round_s = spans.call("hedge.round", one_round)
        rnd.steps = rebalancing_steps(rnd.paths, spec.maturity, inp.steps)

    return rnd, [op]


# ---------------------------------------------------------------- mc


@dataclass
class McInputs:
    params: ModelParams
    spec: CallSpec
    seed: int
    paths: int
    arb_paths: int
    arb_ops: int
    limit_reps: int
    success: QuantileSolution


@dataclass
class McRound:
    paths: int
    arb_paths: int
    estimates: dict[str, mc.McEstimate] = field(default_factory=dict)
    estimators_s: float = 0.0
    arbitrage: list[mc.ArbitrageDemoResult] = field(default_factory=list)
    arbitrage_s: list[float] = field(default_factory=list)
    limit: np.ndarray | None = None
    limit_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def success_set(params: ModelParams, spec: CallSpec, gamma: float) -> QuantileSolution:
    """Quantile-hedging success set at a fixed gamma, with its series
    success probability (the solver's own building blocks, no root search)."""
    intens = martingale_intensities(params)
    perfect = call_price(params, spec).price
    cap, thresholds = constrained_capital(
        gamma, params, spec, intens, SeriesControls(), perfect, SUCCESS_N_MAX
    )
    a, b = density_ratio_coeffs(params, intens)
    sol = QuantileSolution(
        gamma=gamma, regime_case="single_threshold", thresholds=thresholds,
        success_probability=0.0, budget=cap, maturity=spec.maturity, a=a, b=b,
    )
    return replace(sol, success_probability=success_probability(sol, params))


def build_mc(seed: int, size: McSize) -> McInputs:
    rng = _rng(seed, "mc")
    spec = CallSpec(_jitter(rng, 100.0), 1.0)
    gamma = _jitter(rng, 0.0266, 0.1)  # about the 50%-budget solution
    success = success_set(QUANTILE_SINGLE, CallSpec(100.0, 1.0), gamma)
    return McInputs(
        ASYM, spec, seed, size.paths, size.arb_paths, size.arb_ops, size.limit_reps, success
    )


def call_payoff(strike: float):
    return lambda s: np.maximum(s - strike, 0.0)


def mc_ops(inp: McInputs, spans: Spans) -> tuple[McRound, list[Callable[[], None]]]:
    """One round: the three terminal-state estimators, ``limit_reps`` limit
    checks, and ``arb_ops`` arbitrage demos (on streams seed, seed + 1, ...)
    spread between them, so that the arbitrage figure covers the round."""
    params, spec, n = inp.params, inp.spec, inp.paths
    payoff = call_payoff(spec.strike)
    rnd = McRound(n, inp.arb_paths)
    estimators = {
        "price": (mc.mc_price, params, payoff, spec.maturity, n, inp.seed),
        "girsanov": (mc.mc_price_girsanov, params, payoff, spec.maturity, n, inp.seed),
        "success": (mc.mc_success_probability, QUANTILE_SINGLE, inp.success, n, inp.seed),
    }

    def estimate(key: str):
        fn, *args = estimators[key]

        def op():
            rnd.attempted += 1
            rnd.estimates[key], dt = spans.call(f"mc.{fn.__name__}", fn, *args)
            rnd.estimators_s += dt
        return op

    def arbitrage(k: int):
        def op():
            rnd.attempted += 1
            res, dt = spans.call(
                "mc.arbitrage_demo", mc.arbitrage_demo,
                JUMP_FREE, *ARB_LEVELS, 1.0, inp.arb_paths, inp.seed + k,
            )
            rnd.arbitrage.append(res)
            rnd.arbitrage_s.append(dt)
        return op

    def limit():
        rnd.attempted += 1
        rnd.limit, dt = spans.call("mc.limit_scaling_check", limit_check, spans)
        rnd.limit_s.append(dt)

    big = [estimate(k) for k in estimators] + [limit] * inp.limit_reps
    return rnd, _spread([arbitrage(k) for k in range(inp.arb_ops)], big)


def limit_check(spans: Spans) -> np.ndarray:
    """``mc.limit_scaling_check`` with ``densities.mgf`` timed per call when
    nesting is on (the check calls mgf through the mc module's namespace)."""
    original = mc.mgf
    mc.mgf = spans.wrap("densities.mgf", original)
    try:
        return mc.limit_scaling_check(*LIMIT_ARGS)
    finally:
        mc.mgf = original


# ---------------------------------------------------------------- dispatch

BUILD = {"series": build_series, "hedge": build_hedge, "mc": build_mc}
OPS = {"series": series_ops, "hedge": hedge_ops, "mc": mc_ops}


def warm_up(family: str) -> None:
    """One small call of the workload's hot path, so lazy set-up (imports
    inside numpy/scipy, first allocations) happens before timing."""
    if family == "series":
        call_price(ASYM, CallSpec(100.0, 0.5))
    elif family == "hedge":
        spec = CallSpec(100.0, 1.0)
        paths = [sample_path(ASYM, 1.0, 0, i) for i in range(2)]
        replication_backtest(paths, spec, ASYM, 20)
    else:
        mc.mc_price(ASYM, call_payoff(100.0), 1.0, 1 << 14, 0)
        # the first Gauss-Legendre rule (an eigenvalue solve) costs ~1 s once
        mc.limit_scaling_check(0.3, 0.2, 0.05, (1,), (1.0,), 1.0)
