"""Perfect hedging and replication backtesting.

The hedge ratio compares the option value just before and just after a
hypothetical regime switch; between switches the market is deterministic,
so a self-financing portfolio rebalanced on a grid augmented with the exact
switch times replicates the claim up to grid-placement error only.

A call pricer from ``make_call_pricer`` prices both states of a hedge ratio
in one transport pass (``pricing.call_value_and_jump``); any other pricer
F(t, x, sigma) is called once for each state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measure import MartingaleIntensities, martingale_intensities
from .model import ModelParams, PathState, Regime, RegimePath, check_regime, switch_state
from .pricing import (
    CallSpec,
    SeriesControls,
    call_price,
    call_value_and_jump,
    call_value_surface,
)

PricerF = Callable[..., np.ndarray | float]


@dataclass(frozen=True)
class CallPricer:
    """Vectorized call value F(t, x, sigma), bound to one parameter set."""

    params: ModelParams
    spec: CallSpec
    controls: SeriesControls
    intens: MartingaleIntensities

    def __call__(self, t, x, sigma):
        return call_value_surface(
            t, x, sigma, self.params, self.spec, self.controls, self.intens
        )

    def value_and_jump(self, t, x, sigma):
        """(F(t, x, sigma), F(t, x (1 + h_sigma), -sigma)) in one pass."""
        return call_value_and_jump(
            t, x, sigma, self.params, self.spec, self.controls, self.intens
        )


def make_call_pricer(
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> CallPricer:
    """Vectorized F(t, x, sigma) for a call, bound to one parameter set."""
    return CallPricer(params, spec, controls, martingale_intensities(params))


def hedge_ratio(
    t: np.ndarray | float,
    s: np.ndarray | float,
    sigma: Regime,
    pricer_f: PricerF,
    params: ModelParams,
) -> np.ndarray | float:
    """Stock position phi = [F(t, S(1+h), -sigma) - F(t, S, sigma)] / (S h).

    Takes both values from one ``value_and_jump`` call where the pricer
    has that method, and from two calls of F otherwise.
    """
    check_regime(sigma)
    h = params.h(sigma)
    if h == 0.0:
        raise ValueError("hedge ratio undefined for zero jump size")
    s_arr = np.asarray(s, dtype=float)
    both = getattr(pricer_f, "value_and_jump", None)
    if both is None:
        after, before = pricer_f(t, s_arr * (1.0 + h), -sigma), pricer_f(t, s_arr, sigma)
    else:
        before, after = both(t, s_arr, sigma)
    out = (after - before) / (s_arr * h)
    return float(out) if np.ndim(s) == 0 and np.ndim(t) == 0 else out


@dataclass
class ReplicationStats:
    """Terminal replication errors of the self-financing backtest."""

    initial_capital: float
    errors: np.ndarray
    mean_abs_error: float
    max_abs_error: float
    min_capital: float
    admissible: bool


def _path_grids(
    paths: Sequence[RegimePath], uniform: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rebalancing times, one row per path, and their count in each row: a
    row holds the distinct times of the uniform grid and the path's switch
    times up to the grid's end, ascending, then repeats the end."""
    end = uniform[-1]
    counts = np.array([len(path.switch_times) for path in paths])
    merged = np.full((len(paths), uniform.size + counts.max()), np.inf)
    merged[:, : uniform.size] = uniform
    taus = merged[:, uniform.size :]
    taus[np.arange(taus.shape[1]) < counts[:, None]] = [
        tau for path in paths for tau in path.switch_times
    ]
    merged.sort(axis=1)
    keep = merged <= end
    keep[:, 1:] &= merged[:, 1:] != merged[:, :-1]
    sizes = np.count_nonzero(keep, axis=1)
    grid = np.full((len(paths), sizes.max()), end)
    grid[np.arange(grid.shape[1]) < sizes[:, None]] = merged[keep]
    return grid, sizes


def _path_states(
    paths: Sequence[RegimePath], grid: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Regime and stock price of each path at its row of ``grid``. The paths
    of one starting regime and switch count share one ``switch_state``
    call, which makes the same operations on each row as ``path_state``
    makes on one path."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, path in enumerate(paths):
        groups.setdefault((path.sigma0, len(path.switch_times)), []).append(i)
    sig = np.empty(grid.shape, dtype=np.int8)
    stock = np.empty(grid.shape)
    for (sigma0, _), rows in groups.items():
        taus = np.array([paths[i].switch_times for i in rows], dtype=float)
        times = grid[rows]
        state = PathState(sigma0, times, *switch_state(taus.T[:, :, None], times))
        sig[rows], stock[rows] = state.regime(), state.stock(params)
    return sig, stock


def replication_backtest(
    paths: Sequence[RegimePath],
    spec: CallSpec,
    params: ModelParams,
    n_steps: int,
    pricer_f: PricerF | None = None,
    payoff: Callable[[np.ndarray], np.ndarray] | None = None,
    initial_capital: float | None = None,
    controls: SeriesControls = SeriesControls(),
) -> ReplicationStats:
    """Self-financing replication of a European claim along simulated paths.

    Rebalances on a uniform n_steps grid augmented with the exact switch
    times of each path; between rebalances the position is held fixed and
    capital accrues via the stock drift/jumps and the bond. Reports terminal
    |capital - payoff| statistics and admissibility (capital >= 0).

    Before its first switch every path with the same starting regime sits on
    the same uniform-grid states (n = 0, occupation t), bit for bit. That
    shared prefix is priced once, on the path of each starting regime with
    the longest prefix, and the other paths read their positions there.

    Grids, path states and capital are (paths x grid) arrays
    (``_path_grids``). The steps past a path's maturity have zero length
    and change no capital.
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
    if any(path.horizon < spec.maturity for path in paths):
        raise ValueError("path horizon shorter than the claim maturity")
    grid, sizes = _path_grids(paths, np.linspace(0.0, spec.maturity, n_steps + 1))
    sig, stock = _path_states(paths, grid, params)

    # the no-switch prefix ends at the first switch or the last grid time
    first = np.array([p.switch_times[0] if p.switch_times else np.inf for p in paths])
    prefix = np.minimum(np.count_nonzero(grid < first[:, None], axis=1), sizes - 1)
    sigma0 = np.array([path.sigma0 for path in paths])
    lead = np.empty(len(paths), dtype=int)
    for s0 in (+1, -1):
        own = np.flatnonzero(sigma0 == s0)
        if own.size:
            lead[own] = own[np.argmax(prefix[own])]
    # every path but its regime's lead drops its prefix from the priced points
    cols = np.arange(grid.shape[1] - 1)
    shared = cols < np.where(lead == np.arange(len(paths)), 0, prefix)[:, None]
    priced = ~shared & (cols < sizes[:, None] - 1)
    phi = np.zeros(priced.shape)
    for sg in (+1, -1):
        mask = priced & (sig[:, :-1] == sg)
        if np.any(mask):
            phi[mask] = hedge_ratio(
                grid[:, :-1][mask], stock[:, :-1][mask], sg, pricer_f, params
            )
    np.copyto(phi, phi[lead], where=shared)

    # capital follows F_{j+1} = g_j F_j + gain_j; solve by cumulative products
    growth = np.diff(grid, axis=1)
    growth *= np.where(sig[:, :-1] == 1, params.r_plus, params.r_minus)
    np.exp(growth, out=growth)
    gain = stock[:, :-1] * growth
    np.subtract(stock[:, 1:], gain, out=gain)
    gain *= phi
    cum_g = np.cumprod(growth, axis=1)
    gain /= cum_g
    capital = np.empty(grid.shape)
    capital[:, 0] = 0.0
    np.cumsum(gain, axis=1, out=capital[:, 1:])
    capital += initial_capital
    capital[:, 1:] *= cum_g
    errors = capital[:, -1] - payoff(stock[:, -1])
    min_capital = float(np.min(capital))
    abs_err = np.abs(errors)
    return ReplicationStats(
        initial_capital=initial_capital,
        errors=errors,
        mean_abs_error=float(abs_err.mean()),
        max_abs_error=float(abs_err.max()),
        min_capital=min_capital,
        admissible=min_capital >= -1e-9 * params.s0,
    )
