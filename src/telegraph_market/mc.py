"""Monte Carlo oracles: terminal-state simulation under either measure,
the zero-capital arbitrage demonstration for jump-free markets, and the
diffusion-limit check of the scaled telegraph family.

Simulation is block-based: paths are generated in fixed-size blocks with
counter-based RNG streams keyed by (seed, block index) and reduced in block
order, so estimates are bit-identical for any worker count. Every estimator
evaluates a whole block at once; the arbitrage demonstration scans each
block's log-price events in time order over the paths whose trade is still
undecided, with exact trades at the levels.
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
from .quantile import QuantileSolution, Threshold, _threshold_bands

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
    n_sw = np.empty(n_paths, dtype=int)
    occ = np.empty(n_paths)

    def one(block: int) -> None:
        start = block * _BLOCK_SIZE
        stop = min(start + _BLOCK_SIZE, n_paths)
        times = sample_switch_times(
            params.sigma0, lam_p, lam_m, t_horizon, seed, block, stop - start
        )
        n_sw[start:stop], occ[start:stop] = switch_state(times, t_horizon)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(one, range(n_blocks)))
    else:
        for block in range(n_blocks):
            one(block)
    return n_sw, occ


def _check_n_paths(n_paths: int) -> None:
    """A standard error needs at least two paths; refuse fewer before any
    sampling."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")


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
    _check_n_paths(n_paths)
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
    _check_n_paths(n_paths)
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
    _check_n_paths(n_paths)
    n_sw, occ0 = simulate_terminals(
        params, solution.maturity, n_paths, seed, n_workers=n_workers
    )
    x = PathState(params.sigma0, solution.maturity, n_sw, occ0).telegraph(
        params.c_plus, params.c_minus
    )
    inside = _in_success_set(solution.thresholds, n_sw, x)
    return _estimate(inside.astype(float), seed)


def _in_success_set(
    thresholds: Sequence[Threshold], n_sw: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Whether each terminal (N(T), X(T)) lies in the success set, by the
    band convention of ``quantile``'s module docstring.

    Switch counts beyond the stored range read one more None: they are
    treated as fully included, matching the series form (their total mass
    is below the series tail).
    """
    lo, hi = _threshold_bands((*thresholds, None))
    n = np.minimum(n_sw, len(thresholds))
    return (x <= lo[n]) | (x >= hi[n])


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

    Each block of paths is scanned event by event over the paths whose
    trade is still undecided (`_block_profits`). Level crossings inside a
    segment are exact: a share bought or sold there trades at exactly A or
    B, while a jump across a level trades at the post-jump price.

    The demo holds for zero rates only (r_plus = r_minus = 0), so profits
    need no discounting. For the jump-free market (h = 0) every path has
    profit >= 0 and profit > 0 with positive probability. With admissible
    jumps under the martingale measure the same strategy has zero expected
    profit (negative control).
    """
    _check_n_paths(n_paths)
    if not params.s0 < level_a < level_b:
        raise ValueError("levels must satisfy s0 < A < B")
    if params.r_plus != 0.0 or params.r_minus != 0.0:
        raise ValueError(
            f"the arbitrage demo assumes zero rates, got r_plus = "
            f"{params.r_plus}, r_minus = {params.r_minus}"
        )
    if measure == "physical":
        lam_p, lam_m = params.lambda_plus, params.lambda_minus
        jumpless = params.h_plus == 0.0 and params.h_minus == 0.0
        if jumpless and level_b >= params.s0 * math.exp(params.c_plus * t_horizon):
            raise ValueError("B must be reachable: B < s0 e^{c_+ T}")
    elif measure == "martingale":
        intens = martingale_intensities(params)
        lam_p, lam_m = intens.lambda_star_plus, intens.lambda_star_minus
    else:
        raise ValueError("measure must be 'physical' or 'martingale'")

    profits = np.empty(n_paths)
    n_blocks = (n_paths + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    log_a, log_b = math.log(level_a / params.s0), math.log(level_b / params.s0)
    for block in range(n_blocks):
        start = block * _BLOCK_SIZE
        cols = min(_BLOCK_SIZE, n_paths - start)
        times = sample_switch_times(
            params.sigma0, lam_p, lam_m, t_horizon, seed, block, cols
        )
        profits[start:start + cols] = _block_profits(
            params, times, t_horizon, log_a, log_b
        )
    pos = (profits > 1e-12 * params.s0).astype(float)
    return ArbitrageDemoResult(
        profits=profits,
        min_profit=float(profits.min()),
        p_positive=_estimate(pos, seed),
        mean_profit=_estimate(profits, seed),
    )


def _block_profits(
    params: ModelParams,
    times: np.ndarray,
    t_horizon: float,
    log_a: float,
    log_b: float,
) -> np.ndarray:
    """Exact event-driven profits of the threshold strategy on a block of
    paths, from their (rows, paths) switch-time matrix, in which every
    column must end with a time at or past the horizon.

    The log-price x = ln(S/S0) is piecewise linear between switches with
    jumps ln(1+h) at switches, and does not depend on the trades. The scan
    walks segment k = 0, 1, ... over the columns still in play: event 2k
    adds the drift c_k (min(tau_k, T) - tau_{k-1}) that ends segment k
    (tau_{-1} = 0), event 2k + 1 the jump ln(1+h) at its switch. A column
    with tau_k >= T has its last event at 2k. Columns are selected through
    index arrays (``np.flatnonzero``, ``take``), which cost several times
    less than ``np.where`` or a boolean mask over a random block.

    Entry is the first event at or above ln A: at a segment end it is a
    continuous crossing, bought exactly at A; after a jump, bought at the
    post-jump price. Exit is the first event from the entry on where a
    rising segment reaches ln B (sold exactly at B), a falling segment falls
    to ln A (sold exactly at A, not at the entry event itself), or a jump
    lands at or beyond either level (sold at the post-jump price). Without
    an exit the share is valued at the horizon; without an entry the profit
    is 0. A decided column leaves the scan, which ends when none is left.
    """
    n_cols = times.shape[1]
    profits = np.zeros(n_cols)
    level_a, level_b = math.exp(log_a), math.exp(log_b)
    # the columns in play: index, log-price, end of the last segment, entry
    # price and whether it is entered; x and prev start as the scalar 0,
    # which adds nothing to the first drift
    cols = np.arange(n_cols)
    x = prev = 0.0
    buy = np.zeros(n_cols)
    entered = np.zeros(n_cols, dtype=bool)

    def close(i: np.ndarray, sell: float | np.ndarray) -> None:
        profits[cols.take(i)] = (sell - buy.take(i)) * params.s0

    def keep(out: np.ndarray, *state: np.ndarray) -> list[np.ndarray]:
        i = np.flatnonzero(~out)
        return [a.take(i) for a in state]

    sig = params.sigma0
    for row in times:
        c = params.c(sig)
        end = np.minimum(row.take(cols), t_horizon)
        drift = end - prev
        drift *= c
        x += drift
        up = x >= log_a
        # a rise closes through B, a fall through A but not at the entry
        # event itself, a flat segment not at all
        out = x >= log_b if c > 0 else (x <= log_a) & entered & (c < 0)
        # on booleans u > v is u & ~v: here, entered at this event
        buy[np.flatnonzero(up > entered)] = level_a
        entered |= up
        close(np.flatnonzero(out), level_b if c > 0 else level_a)
        last = end >= t_horizon
        held = np.flatnonzero((last & entered) > out)  # and not closed
        close(held, np.exp(x.take(held)))
        out |= last
        cols, x, prev, buy, entered = keep(out, cols, x, end, buy, entered)
        if not cols.size:
            break
        # the jump at the switch: a jump entry buys at the post-jump price,
        # and any jump to or beyond either level closes at it
        x += math.log1p(params.h(sig))
        up = x >= log_a
        out = x <= log_a
        out &= entered
        out |= x >= log_b
        new = np.flatnonzero(up > entered)
        buy[new] = np.exp(x.take(new))
        entered |= up
        closed = np.flatnonzero(out)
        close(closed, np.exp(x.take(closed)))
        cols, x, prev, buy, entered = keep(out, cols, x, prev, buy, entered)
        if not cols.size:
            break
        sig = -sig
    return profits


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
    named = [("v_c", v_c), ("v_a", v_a), ("mu", mu), ("t_horizon", t_horizon)]
    for name, value in [*named, *(("z", z) for z in z_values)]:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if v_c <= 0:
        raise ValueError("v_c must be positive (nondegenerate velocities)")
    for m in levels:
        if m < 1:
            raise ValueError(f"levels must be at least 1, got {m}")
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
        for j, z in enumerate(z_values):
            val = mgf(float(z), t_horizon, +1, dens, h, h)
            target = math.exp(mu * z * t_horizon + 0.5 * v2 * z * z * t_horizon)
            errors[i, j] = abs(val - target) / target
    return errors
