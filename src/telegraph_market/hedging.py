"""Perfect hedging and replication backtesting.

The hedge ratio compares the option value just before and just after a
hypothetical regime switch; between switches the market is deterministic,
so a self-financing portfolio rebalanced on a grid augmented with the exact
switch times replicates the claim up to grid-placement error only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .measure import martingale_intensities
from .model import ModelParams, Regime, RegimePath, check_regime, path_state
from .pricing import CallSpec, SeriesControls, call_price, call_value_surface

PricerF = Callable[..., np.ndarray | float]


def make_call_pricer(
    params: ModelParams,
    spec: CallSpec,
    controls: SeriesControls = SeriesControls(),
) -> PricerF:
    """Vectorized F(t, x, sigma) for a call, bound to one parameter set."""
    intens = martingale_intensities(params)

    def pricer(t, x, sigma):
        return call_value_surface(t, x, sigma, params, spec, controls, intens)

    return pricer


def hedge_ratio(
    t: np.ndarray | float,
    s: np.ndarray | float,
    sigma: Regime,
    pricer_f: PricerF,
    params: ModelParams,
) -> np.ndarray | float:
    """Stock position phi = [F(t, S(1+h), -sigma) - F(t, S, sigma)] / (S h)."""
    check_regime(sigma)
    h = params.h(sigma)
    if h == 0.0:
        raise ValueError("hedge ratio undefined for zero jump size")
    s_arr = np.asarray(s, dtype=float)
    num = pricer_f(t, s_arr * (1.0 + h), -sigma) - pricer_f(t, s_arr, sigma)
    out = num / (s_arr * h)
    return float(out) if np.ndim(s) == 0 and np.ndim(t) == 0 else out


class PdeResidualReport(NamedTuple):
    max_residual: float
    dt: float
    dx: float


def pde_residual(
    pricer_f: PricerF,
    t_grid: np.ndarray,
    x_grid: np.ndarray,
    sigma: Regime,
    params: ModelParams,
    dt: float,
    dx: float,
) -> PdeResidualReport:
    """Central-difference residual of the pricing transport equation
    d_t F + c_s x d_x F - (r_s + lam*_s) F + lam*_s F(t, x(1+h_s), -s)
    over the tensor grid t_grid x x_grid.

    Both derivatives use symmetric two-point stencils, so where F is C^3 on
    the stencil the residual is O(dt^2 + dx^2): halving dt and dx together
    cuts it by about 4. Where the stencil crosses a payoff-kink
    characteristic the order drops.
    """
    check_regime(sigma)
    intens = martingale_intensities(params)
    lam_s = intens.lambda_star(sigma)
    c_s, r_s, h_s = params.c(sigma), params.r(sigma), params.h(sigma)
    tt, xx = np.meshgrid(
        np.asarray(t_grid, dtype=float), np.asarray(x_grid, dtype=float),
        indexing="ij",
    )
    f_tp = pricer_f(tt + dt, xx, sigma)
    f_tm = pricer_f(tt - dt, xx, sigma)
    f_xp = pricer_f(tt, xx + dx, sigma)
    f_xm = pricer_f(tt, xx - dx, sigma)
    f_0 = pricer_f(tt, xx, sigma)
    f_flip = pricer_f(tt, xx * (1.0 + h_s), -sigma)
    resid = (
        (f_tp - f_tm) / (2.0 * dt)
        + c_s * xx * (f_xp - f_xm) / (2.0 * dx)
        - (r_s + lam_s) * f_0
        + lam_s * f_flip
    )
    return PdeResidualReport(float(np.max(np.abs(resid))), dt, dx)


@dataclass
class ReplicationStats:
    """Terminal replication errors of the self-financing backtest."""

    initial_capital: float
    errors: np.ndarray
    mean_abs_error: float
    max_abs_error: float
    min_capital: float
    admissible: bool


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
    grids, states, prefix, lead = [], [], [], {}
    for i, path in enumerate(paths):
        if path.horizon < maturity:
            raise ValueError("path horizon shorter than the claim maturity")
        times = np.unique(np.concatenate((uniform, np.asarray(path.switch_times))))
        times = times[times <= maturity]
        st = path_state(path, times)
        sig = st.regime()
        r_t = np.where(sig == 1, params.r_plus, params.r_minus)
        grids.append(times)
        states.append((sig, st.stock(params), r_t))
        first = path.switch_times[0] if path.switch_times else maturity
        prefix.append(min(int(np.searchsorted(times, first)), times.size - 1))
        if prefix[lead.setdefault(path.sigma0, i)] < prefix[i]:
            lead[path.sigma0] = i
    # every path but its regime's lead drops its prefix from the priced points
    skip = [0 if lead[p.sigma0] == i else prefix[i] for i, p in enumerate(paths)]

    offsets = np.cumsum([0] + [g.size - 1 - k for g, k in zip(grids, skip)])
    t_all = np.concatenate([g[k:-1] for g, k in zip(grids, skip)])
    sig_all = np.concatenate([st[0][k:-1] for st, k in zip(states, skip)])
    s_all = np.concatenate([st[1][k:-1] for st, k in zip(states, skip)])
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
        start = offsets[lead[paths[i].sigma0]]
        phi = np.concatenate(
            (phi_all[start : start + skip[i]], phi_all[offsets[i] : offsets[i + 1]])
        )
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
