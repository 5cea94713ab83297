"""Monte Carlo oracles: terminal-state simulation under either measure,
the zero-capital arbitrage demonstration for jump-free markets, and the
diffusion-limit check of the scaled telegraph family.

Simulation is block-based: paths are generated in fixed-size blocks with
counter-based RNG streams keyed by (seed, block index) and reduced in block
order, so estimates are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import DensityParams, mgf
from .measure import martingale_intensities
from .model import ModelParams, PathState, sample_switch_times, switch_state
from .quantile import QuantileSolution

_BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


def simulate_terminals(
    params: ModelParams,
    t_horizon: float,
    n_paths: int,
    seed: int,
    lam_plus: float | None = None,
    lam_minus: float | None = None,
    n_workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal switch counts and starting-regime occupation times.

    Optional intensities override the physical ones (martingale simulation).
    Deterministic for a given seed regardless of n_workers.
    """
    lam_p = params.lambda_plus if lam_plus is None else lam_plus
    lam_m = params.lambda_minus if lam_minus is None else lam_minus
    n_blocks = (n_paths + _BLOCK_SIZE - 1) // _BLOCK_SIZE

    def one(block: int) -> tuple[np.ndarray, np.ndarray]:
        cols = min(_BLOCK_SIZE, n_paths - block * _BLOCK_SIZE)
        times = sample_switch_times(
            params.sigma0, lam_p, lam_m, t_horizon, seed, block, cols
        )
        return switch_state(times, t_horizon)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            blocks = list(pool.map(one, range(n_blocks)))
    else:
        blocks = [one(b) for b in range(n_blocks)]
    n_sw = np.concatenate([b[0] for b in blocks])
    occ = np.concatenate([b[1] for b in blocks])
    return n_sw, occ


def _estimate(vals: np.ndarray, seed: int) -> McEstimate:
    n_paths = vals.size
    return McEstimate(
        mean=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(n_paths)),
        n_paths=n_paths,
        seed=seed,
    )


def mc_price(
    params: ModelParams,
    payoff: Callable[[np.ndarray], np.ndarray],
    t_horizon: float,
    n_paths: int,
    seed: int,
    measure: str = "martingale",
    n_workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of E[B(T)^{-1} payoff(S(T))] under the physical
    or martingale measure."""
    if measure == "martingale":
        intens = martingale_intensities(params)
        lam_p, lam_m = intens.lambda_star_plus, intens.lambda_star_minus
    elif measure == "physical":
        lam_p, lam_m = params.lambda_plus, params.lambda_minus
    else:
        raise ValueError("measure must be 'physical' or 'martingale'")
    st = PathState(params.sigma0, t_horizon, *simulate_terminals(
        params, t_horizon, n_paths, seed, lam_p, lam_m, n_workers
    ))
    disc = np.exp(-st.telegraph(params.r_plus, params.r_minus))
    return _estimate(disc * np.asarray(payoff(st.stock(params)), dtype=float), seed)


def mc_price_girsanov(
    params: ModelParams,
    payoff: Callable[[np.ndarray], np.ndarray],
    t_horizon: float,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
) -> McEstimate:
    """Martingale-measure price via physical simulation reweighted by the
    Girsanov density (cross-check route for the direct lambda* simulation)."""
    intens = martingale_intensities(params)
    st = PathState(params.sigma0, t_horizon, *simulate_terminals(
        params, t_horizon, n_paths, seed, n_workers=n_workers
    ))
    disc = np.exp(-st.telegraph(params.r_plus, params.r_minus))
    z = st.jump_exponential(
        intens.c_star_plus, intens.c_star_minus,
        intens.h_star_plus, intens.h_star_minus,
    )
    vals = z * disc * np.asarray(payoff(st.stock(params)), dtype=float)
    return _estimate(vals, seed)


def mc_success_probability(
    params: ModelParams,
    solution: QuantileSolution,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
) -> McEstimate:
    """Fraction of physical paths inside the quantile-hedging success set."""
    n_sw, occ0 = simulate_terminals(
        params, solution.maturity, n_paths, seed, n_workers=n_workers
    )
    x = PathState(params.sigma0, solution.maturity, n_sw, occ0).telegraph(
        params.c_plus, params.c_minus
    )
    inside = np.ones(n_paths, dtype=bool)
    for n, thr in enumerate(solution.thresholds):
        mask = n_sw == n
        if thr is None or not np.any(mask):
            continue
        if isinstance(thr, tuple):
            inside[mask] = (x[mask] <= thr[0]) | (x[mask] >= thr[1])
        else:
            inside[mask] = x[mask] <= thr
    # switch counts beyond the stored range are treated as fully included,
    # matching the series form (their total mass is below the series tail)
    return _estimate(inside.astype(float), seed)


@dataclass(frozen=True)
class ArbitrageDemoResult:
    """Profit distribution of the buy-low/sell-high strategy."""

    profits: np.ndarray
    min_profit: float
    p_positive: McEstimate
    mean_profit: McEstimate


def arbitrage_demo(
    params: ModelParams,
    level_a: float,
    level_b: float,
    t_horizon: float,
    n_paths: int,
    seed: int,
    measure: str = "physical",
) -> ArbitrageDemoResult:
    """Zero-initial-capital strategy: buy one share when S first reaches
    level_a, sell at the first later time S returns to level_a, reaches
    level_b, or at the horizon.

    For the jump-free zero-rate market (h = 0, r = 0) every path has
    profit >= 0 and profit > 0 with positive probability. With admissible
    jumps under the martingale measure the same strategy has zero expected
    discounted profit (negative control).
    """
    if not params.s0 < level_a < level_b:
        raise ValueError("levels must satisfy s0 < A < B")
    if measure == "physical":
        lam_p, lam_m = params.lambda_plus, params.lambda_minus
        jumpless = params.h_plus == 0.0 and params.h_minus == 0.0
        if jumpless:
            if params.r_plus != 0.0 or params.r_minus != 0.0:
                raise ValueError("the jump-free demonstration assumes zero rates")
            if level_b >= params.s0 * math.exp(params.c_plus * t_horizon):
                raise ValueError("B must be reachable: B < s0 e^{c_+ T}")
    elif measure == "martingale":
        if params.r_plus != 0.0 or params.r_minus != 0.0:
            raise ValueError("the negative control assumes zero rates")
        intens = martingale_intensities(params)
        lam_p, lam_m = intens.lambda_star_plus, intens.lambda_star_minus
    else:
        raise ValueError("measure must be 'physical' or 'martingale'")

    profits = np.empty(n_paths)
    n_blocks = (n_paths + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    log_a, log_b = math.log(level_a / params.s0), math.log(level_b / params.s0)
    for block in range(n_blocks):
        cols = min(_BLOCK_SIZE, n_paths - block * _BLOCK_SIZE)
        times = sample_switch_times(
            params.sigma0, lam_p, lam_m, t_horizon, seed, block, cols
        )
        for j in range(cols):
            switches = times[:, j]
            profits[block * _BLOCK_SIZE + j] = _strategy_profit(
                params, switches[switches < t_horizon], t_horizon, log_a, log_b
            )
    # rates are zero in the demo; the control uses r = 0 too, so profits
    # need no discounting
    pos = (profits > 1e-12 * params.s0).astype(float)
    return ArbitrageDemoResult(
        profits=profits,
        min_profit=float(profits.min()),
        p_positive=_estimate(pos, seed),
        mean_profit=_estimate(profits, seed),
    )


def _strategy_profit(
    params: ModelParams,
    switches: np.ndarray,
    t_horizon: float,
    log_a: float,
    log_b: float,
) -> float:
    """Exact event-driven profit of the threshold strategy on one path.

    The log-price ln(S/S0) is piecewise linear between switches with jumps
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


def limit_scaling_check(
    v_c: float,
    v_a: float,
    mu: float,
    levels: Sequence[int],
    z_values: Sequence[float],
    t_horizon: float,
) -> np.ndarray:
    """Relative MGF errors of the scaled telegraph family against the
    Gaussian limit exp(mu z t + v^2 z^2 t / 2), v^2 = v_c^2 + v_a^2.

    Level m uses intensity lambda = m, velocities a +- v_c sqrt(lambda) with
    a = mu - v_a sqrt(lambda), and symmetric jump sizes
    h = exp(v_a / sqrt(lambda)) - 1, which reproduce the drift mu exactly and
    the variance v^2 in the limit.
    """
    if v_c <= 0:
        raise ValueError("v_c must be positive (nondegenerate velocities)")
    v2 = v_c**2 + v_a**2
    errors = np.empty((len(levels), len(z_values)))
    for i, m in enumerate(levels):
        lam = float(m)
        root = math.sqrt(lam)
        a = mu - v_a * root
        dens = DensityParams(
            c_plus=a + v_c * root, c_minus=a - v_c * root,
            lambda_plus=lam, lambda_minus=lam,
        )
        h = math.exp(v_a / root) - 1.0
        # mgf's tail bound (lam t)^{n+1} / (n+1)! carries no e^{-lam t}; by
        # Stirling it is below (e lam t / (n+1))^{n+1}, which is 2^{-(n+1)}
        # once n + 1 >= 2 e lam t
        budget = max(400, math.ceil(2.0 * math.e * lam * t_horizon))
        for j, z in enumerate(z_values):
            val = mgf(float(z), t_horizon, +1, dens, h, h, max_terms=budget)
            target = math.exp(mu * z * t_horizon + 0.5 * v2 * z * z * t_horizon)
            errors[i, j] = abs(val - target) / target
    return errors
