"""Probes shared by the unit and acceptance tests: the paper's equations
checked by central differences on the engine's outputs, and the hedge
ratio's left limits at switch events."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from telegraph_market import densities
from telegraph_market.densities import DensityParams
from telegraph_market.hedging import PricerF, hedge_ratio
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams, RegimePath, path_state

LEFT_LIMIT_EPS = (1e-3, 1e-4, 1e-5)


def hedge_ratio_left_gaps(
    paths: Sequence[RegimePath],
    params: ModelParams,
    pricer_f: PricerF,
    maturity: float,
    eps_values: Sequence[float] = LEFT_LIMIT_EPS,
) -> np.ndarray:
    """|phi(tau - eps, S(tau - eps), sigma(tau-)) - phi(tau, S(tau-), sigma(tau-))|
    at the switch events tau < maturity of the paths, one row per eps.

    The pre-switch state comes from the path evaluator: sigma(tau-) =
    -sigma(tau) and S(tau-) = S(tau) / (1 + h_{sigma(tau-)}). Events closer
    than max(eps) to the previous switch or to 0 are skipped, so tau - eps
    always lies in the pre-switch regime.
    """
    eps_max = max(eps_values)
    rows: list[tuple[np.ndarray, ...]] = []
    for path in paths:
        taus = np.asarray(path.switch_times, dtype=float)
        prev = np.concatenate(([0.0], taus[:-1]))
        taus = taus[(taus < maturity) & (taus - prev > eps_max)]
        if taus.size == 0:
            continue
        st = path_state(path, taus)
        sig_before = -st.regime()
        s_before = st.stock(params) / (
            1.0 + np.where(sig_before == 1, params.h_plus, params.h_minus)
        )
        s_eps = []
        for eps in eps_values:
            st_eps = path_state(path, taus - eps)
            assert np.array_equal(st_eps.regime(), sig_before)
            s_eps.append(st_eps.stock(params))
        rows.append((taus, sig_before, s_before, np.array(s_eps)))
    taus, sig, s_before = (np.concatenate([r[i] for r in rows]) for i in range(3))
    s_eps = np.concatenate([r[3] for r in rows], axis=1)
    gaps = np.empty_like(s_eps)
    for sg in (+1, -1):
        m = sig == sg
        held = hedge_ratio(taus[m], s_before[m], sg, pricer_f, params)
        for k, eps in enumerate(eps_values):
            gaps[k, m] = np.abs(
                hedge_ratio(taus[m] - eps, s_eps[k, m], sg, pricer_f, params) - held
            )
    return gaps


def kolmogorov_residual(
    params: DensityParams,
    n: int,
    sigma: int,
    t: float,
    x_grid: np.ndarray,
    dx: float,
    dt: float,
) -> float:
    """Max central-difference residual of the per-n transport equation
    d_t p_n + c_s d_x p_n + lambda_s p_n - lambda_s p_{n-1}^{(-s)}, n >= 1,
    on a grid whose stencils lie strictly inside the support at t - dt.

    Reads ``densities.p_n_continuous`` through the module at every call, so a
    test can swap in a perturbed density.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    t_lo = t - dt
    assert np.all(x_grid - dx > params.c_minus * t_lo)
    assert np.all(x_grid + dx < params.c_plus * t_lo)
    p = densities.p_n_continuous
    c_s = params.c(sigma)
    lam_s = params.lam(sigma)
    p_tp = p(x_grid, t + dt, n, sigma, params)
    p_tm = p(x_grid, t - dt, n, sigma, params)
    p_xp = p(x_grid + dx, t, n, sigma, params)
    p_xm = p(x_grid - dx, t, n, sigma, params)
    p_0 = p(x_grid, t, n, sigma, params)
    if n == 1:
        source = np.zeros_like(x_grid)  # p_0 of the flipped regime is a pure atom
    else:
        source = p(x_grid, t, n - 1, -sigma, params)
    resid = (
        (p_tp - p_tm) / (2.0 * dt)
        + c_s * (p_xp - p_xm) / (2.0 * dx)
        + lam_s * p_0
        - lam_s * source
    )
    return float(np.max(np.abs(resid)))


def pde_residual(
    pricer_f: PricerF,
    t_grid: np.ndarray,
    x_grid: np.ndarray,
    sigma: int,
    params: ModelParams,
    dt: float,
    dx: float,
) -> float:
    """Max central-difference residual of the pricing transport equation
    d_t F + c_s x d_x F - (r_s + lam*_s) F + lam*_s F(t, x(1+h_s), -s)
    over the tensor grid t_grid x x_grid.

    Both derivatives use symmetric two-point stencils, so where F is C^3 on
    the stencil the residual is O(dt^2 + dx^2): halving dt and dx together
    cuts it by about 4. Where the stencil crosses a payoff-kink
    characteristic the order drops.
    """
    lam_s = martingale_intensities(params).lambda_star(sigma)
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
    return float(np.max(np.abs(resid)))
