"""Acceptance suite: one test per criterion, each printing a single
machine-greppable PASS/FAIL line with its measured quantities.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from telegraph_market import mc
from telegraph_market.densities import DensityParams, density_total, p_n_continuous
from telegraph_market.hedging import (
    make_call_pricer,
    pde_residual,
    replication_backtest,
)
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams, kappa, log_kappa_sequence, sample_path
from telegraph_market.pricing import (
    CallSpec,
    SeriesControls,
    _beta_table,
    call_price,
    merton_price,
    series_terms,
    symmetric_price_check,
    u_n,
    v_n,
)
from telegraph_market.quantile import Budget, solve_budget_gamma, solve_dual

from oracles import U_n_quadrature, phi_kn, switch_count_masses_ode, u_n_quadrature
from probes import LEFT_LIMIT_EPS, hedge_ratio_left_gaps

CTRL = SeriesControls()

ASYM = ModelParams(
    c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05,
    s0=100.0, sigma0=+1,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_density_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    worst_mass = 0.0
    for _ in range(10):
        c_m = float(rng.uniform(-1.0, 0.3))
        c_p = c_m + float(rng.uniform(0.2, 1.0))
        dens = DensityParams(
            c_plus=c_p, c_minus=c_m,
            lambda_plus=float(rng.uniform(0.3, 3.0)),
            lambda_minus=float(rng.uniform(0.3, 3.0)),
        )
        sigma = 1 if rng.random() < 0.5 else -1
        for t in (0.25, 1.0, 4.0):
            val = density_total(np.array([0.0]), t, sigma, dens)
            integral, _ = quad(
                lambda x: float(
                    np.atleast_1d(density_total(x, t, sigma, dens).continuous)[0]
                ),
                dens.c_minus * t, dens.c_plus * t,
                epsabs=1e-12, epsrel=1e-11, limit=300,
            )
            worst_norm = max(worst_norm, abs(val.atom_weight + integral - 1.0))
        # per-n masses against the ODE oracle at t = 1
        t = 1.0
        oracle = switch_count_masses_ode(dens.lam(sigma), dens.lam(-sigma), t, 20)
        masses = [math.exp(-dens.lam(sigma) * t)]
        for n in range(1, 21):
            m, _ = quad(
                lambda x: p_n_continuous(x, t, n, sigma, dens),
                dens.c_minus * t, dens.c_plus * t,
                epsabs=1e-13, epsrel=1e-11, limit=300,
            )
            masses.append(m)
        worst_mass = max(worst_mass, float(np.abs(np.array(masses) - oracle).max()))
    elapsed = time.perf_counter() - start
    ok = worst_norm <= 1e-8 and worst_mass <= 1e-8 and elapsed < 30.0
    _report(1, ok, f"norm err {worst_norm:.2e}, mass err {worst_mass:.2e}, "
                   f"{elapsed:.1f}s (< 30 s)")
    assert ok


def test_criterion_02_series_terms_vs_quadrature():
    start = time.perf_counter()
    # five (c, r, h) sets; intensities are the martingale ones so that both
    # the u tilt and the stock tilt are exact identities
    sets = [
        dict(c_p=0.5, c_m=-0.3, r_p=0.08, r_m=0.05, h_p=-0.2, h_m=0.4),
        dict(c_p=0.2, c_m=-0.6, r_p=0.02, r_m=0.10, h_p=-0.3, h_m=0.5),
        dict(c_p=0.8, c_m=0.1, r_p=0.9, r_m=0.05, h_p=0.1, h_m=-0.2),
        dict(c_p=0.3, c_m=-0.2, r_p=0.05, r_m=0.07, h_p=-0.5, h_m=0.6),
        dict(c_p=1.0, c_m=-1.0, r_p=0.12, r_m=0.01, h_p=-0.4, h_m=0.8),
    ]
    worst = 0.0
    # the batched terms integrate the same densities, so they are checked
    # against the transport route (u_n, U_n), not against the quadrature
    worst_batched = 0.0
    t = 1.1
    for s in sets:
        lam_p = (s["r_p"] - s["c_p"]) / s["h_p"]
        lam_m = (s["r_m"] - s["c_m"]) / s["h_m"]
        assert lam_p > 0 and lam_m > 0
        base = dict(lam_p=lam_p, lam_m=lam_m, c_p=s["c_p"], c_m=s["c_m"],
                    r_p=s["r_p"], r_m=s["r_m"])
        # U_n is u_n at the tilted intensities lam* (1 + h), undiscounted
        tilted = dict(base, lam_p=lam_p * (1.0 + s["h_p"]),
                      lam_m=lam_m * (1.0 + s["h_m"]), r_p=0.0, r_m=0.0)
        rates = ((lam_p, lam_m, s["r_p"], s["r_m"]),
                 (lam_p * (1.0 + s["h_p"]), lam_m * (1.0 + s["h_m"]), 0.0, 0.0))
        ys = (s["c_m"] * t - 0.3,                 # below the slow ray
              0.5 * (s["c_m"] + s["c_p"]) * t,    # inside the wedge
              s["c_p"] * t + 0.2)                 # above the fast ray
        for sigma in (+1, -1):
            for y in ys:
                batched_u, batched_U = series_terms(
                    np.full(11, y), t, sigma, s["c_p"], s["c_m"], *rates
                )
                for n in range(11):
                    a = u_n(y, t, n, sigma, **base)
                    b = u_n_quadrature(y, t, n, sigma, **base)
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
                    worst_batched = max(
                        worst_batched, abs(batched_u[n] - a) / max(abs(a), 1e-12)
                    )
                    a = u_n(y, t, n, sigma, **tilted)
                    b = U_n_quadrature(y, t, n, sigma, **base,
                                       h_p=s["h_p"], h_m=s["h_m"])
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
                    worst_batched = max(
                        worst_batched, abs(batched_U[n] - a) / max(abs(a), 1e-12)
                    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_batched <= 1e-8 and elapsed < 60.0
    _report(2, ok, f"worst rel err {worst:.2e} (<= 1e-8), batched vs transport "
                   f"{worst_batched:.2e} (<= 1e-8), {elapsed:.1f}s (< 60 s)")
    assert ok


def test_criterion_03_price_vs_mc():
    start = time.perf_counter()
    pairs = [(90.0, 0.5), (100.0, 0.5), (110.0, 0.5),
             (90.0, 1.5), (100.0, 1.5), (115.0, 1.5)]
    worst_z, worst_se = 0.0, 0.0
    for i, (strike, mat) in enumerate(pairs):
        ref = call_price(ASYM, CallSpec(strike, mat), CTRL).price
        est = mc.mc_price(
            ASYM, lambda s: np.maximum(s - strike, 0.0), mat,
            1_000_000, seed=100 + i,
        )
        worst_z = max(worst_z, abs(est.mean - ref) / est.std_error)
        worst_se = max(worst_se, est.std_error)
    elapsed = time.perf_counter() - start
    ok = worst_z < 3.0 and worst_se < 0.002 * ASYM.s0 and elapsed < 120.0
    _report(3, ok, f"worst |z| {worst_z:.2f} (< 3), worst SE {worst_se:.3f} "
                   f"(< {0.002 * ASYM.s0}), {elapsed:.1f}s (< 2 min)")
    assert ok


def test_criterion_04_special_case_collapse():
    # Merton branch collapse
    worst = 0.0
    for c, r, h in ((0.1, 0.05, 0.5), (0.02, 0.07, -0.4)):
        ref = merton_price(c, r, h, 100.0, 100.0, 1.0)
        general = ModelParams(
            c_plus=c, c_minus=c, lambda_plus=1.7, lambda_minus=1.7,
            h_plus=-h, h_minus=-h, r_plus=r, r_minus=r, s0=100.0, sigma0=1,
        )
        got = call_price(general, CallSpec(100.0, 1.0), CTRL).price
        worst = max(worst, abs(got - ref) / ref)
    # symmetric family collapse
    lam, c, r, h = 2.0, 0.4, 0.05, 0.35
    sym = ModelParams(
        c_plus=r + c, c_minus=r - c, lambda_plus=lam, lambda_minus=lam,
        h_plus=-h, h_minus=h, r_plus=r, r_minus=r, s0=100.0, sigma0=1,
    )
    spec = CallSpec(103.0, 1.2)
    worst = max(
        worst,
        abs(symmetric_price_check(sym, spec, CTRL)
            - call_price(sym, spec, CTRL).price)
        / call_price(sym, spec, CTRL).price,
    )
    # worked Merton point, recomputed from the cutoff formula (the in-text
    # figure of the source inherits an off-by-one in the summation cutoff):
    # every n <= 9 stays in the money, the series telescopes to
    # 100 (e^{-0.05} - e^{-0.15}) = 9.0521...
    worked = merton_price(0.1, 0.05, 0.5, 100.0, 100.0, 1.0)
    expected = 100.0 * (math.exp(-0.05) - math.exp(-0.15))
    worst = max(worst, abs(worked - expected) / expected)
    merton_model = ModelParams(
        c_plus=0.1, c_minus=0.1, lambda_plus=1.0, lambda_minus=1.0,
        h_plus=-0.5, h_minus=-0.5, r_plus=0.05, r_minus=0.05,
        s0=100.0, sigma0=1,
    )
    est = mc.mc_price(
        merton_model, lambda s: np.maximum(s - 100.0, 0.0), 1.0,
        1_000_000, seed=42,
    )
    z = abs(est.mean - worked) / est.std_error
    ok = worst <= 1e-10 and z < 3.0
    _report(4, ok, f"worst collapse rel err {worst:.2e} (<= 1e-10), "
                   f"worked point {worked:.6f} vs MC |z| {z:.2f} (< 3)")
    assert ok


def test_criterion_05_martingale_identities():
    # E*[B^{-1} S(T)] = S0
    est = mc.mc_price(ASYM, lambda s: s, 1.0, 1_000_000, seed=55)
    z_stock = abs(est.mean - ASYM.s0) / est.std_error
    # E_P[Z] = 1 (zero-rate parameterization keeps Z a density)
    p0 = replace(ASYM, r_plus=0.0, r_minus=0.0)
    est_z = mc.mc_price_girsanov(
        p0, lambda s: np.ones_like(s), 1.0, 1_000_000, seed=56
    )
    z_unit = abs(est_z.mean - 1.0) / est_z.std_error
    # reweighted switch-count law matches the lambda* alternating-Poisson law
    intens = martingale_intensities(p0)
    n_sw, occ0 = mc.simulate_terminals(p0, 1.0, 1_000_000, seed=57)
    x_star = intens.c_star(1) * occ0 + intens.c_star(-1) * (1.0 - occ0)
    log_kap_star = log_kappa_sequence(
        int(n_sw.max()), 1, intens.h_star_plus, intens.h_star_minus
    )
    w = np.exp(x_star + log_kap_star[n_sw])
    oracle = switch_count_masses_ode(
        intens.lambda_star_plus, intens.lambda_star_minus, 1.0, 8
    )
    worst_n = 0.0
    for n in range(9):
        vals = w * (n_sw == n)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        worst_n = max(worst_n, abs(vals.mean() - oracle[n]) / se)
    ok = z_stock < 3.0 and z_unit < 3.0 and worst_n < 3.0
    _report(5, ok, f"|z| stock {z_stock:.2f}, E[Z] {z_unit:.2f}, "
                   f"switch law {worst_n:.2f} (all < 3)")
    assert ok


def test_criterion_06_fundamental_equation():
    # part 1: F = x is an exact solution; central differences are exact on
    # linear functions, so the residual is pure floating-point noise
    def stock_f(t, x, sigma):
        return np.asarray(x, dtype=float)

    rep = pde_residual(
        stock_f, np.array([0.2, 0.5, 0.8]), np.array([80.0, 100.0, 130.0]),
        +1, ASYM, dt=0.05, dx=5.0,
    )
    part1 = rep.max_residual <= 1e-10
    # part 2: residual decay under grid halving on the (smooth, away from
    # the kink) call value surface. The equation is first order, but the
    # probe's symmetric stencils leave F_ttt dt^2/6 + c x F_xxx dx^2/6 as the
    # leading error, so halving dt and dx together must cut the residual by
    # 2^2 = 4 (+- 1), measured over three refinements. A pricer that misses
    # the equation plateaus (factor -> 1); a one-sided probe gives 2.
    pricer = make_call_pricer(ASYM, CallSpec(100.0, 1.0), CTRL)
    t_grid = np.array([0.3, 0.5])
    x_grid = np.array([70.0, 130.0])  # well away from the strike kink
    residuals = []
    for k in range(4):
        rep_k = pde_residual(
            pricer, t_grid, x_grid, +1, ASYM,
            dt=4e-3 / 2**k, dx=0.4 / 2**k,
        )
        residuals.append(rep_k.max_residual)
    factors = [residuals[i] / residuals[i + 1] for i in range(3)]
    part2 = all(3.0 <= f <= 5.0 for f in factors)
    ok = part1 and part2
    _report(6, ok, f"linear-payoff residual {rep.max_residual:.2e} (<= 1e-10); "
                   f"halving factors {[f'{f:.2f}' for f in factors]} "
                   f"(target 4 +- 1: central differences are second order)")
    assert ok


def test_criterion_07_replication():
    spec = CallSpec(strike=100.0, maturity=1.0)
    pricer = make_call_pricer(ASYM, spec, CTRL)
    paths = [sample_path(ASYM, spec.maturity, seed=7000, path_index=i)
             for i in range(1000)]
    fine = replication_backtest(paths, spec, ASYM, 10_000,
                                pricer_f=pricer, controls=CTRL)
    half = replication_backtest(paths, spec, ASYM, 5_000,
                                pricer_f=pricer, controls=CTRL)
    ratio = half.mean_abs_error / fine.mean_abs_error
    # phi left-continuity at the switch events of the same paths: the
    # pre-switch hedge ratio phi(tau - eps, S(tau - eps), sigma(tau-)) must
    # approach the ratio held across the switch, phi(tau, S(tau-), sigma(tau-)),
    # linearly in eps (measured max gap / eps 2.91 over 1796 events)
    gaps = hedge_ratio_left_gaps(paths, ASYM, pricer, spec.maturity)
    slopes = gaps.max(axis=1) / np.array(LEFT_LIMIT_EPS)
    left_ok = bool(np.all(slopes <= 5.0))
    ok = (
        fine.mean_abs_error <= 0.001 * ASYM.s0
        and fine.max_abs_error <= 0.01 * ASYM.s0
        and 1.4 <= ratio <= 2.6
        and left_ok
    )
    _report(7, ok, f"mean err {fine.mean_abs_error:.4f} (<= 0.1), "
                   f"max err {fine.max_abs_error:.4f} (<= 1.0), "
                   f"halving ratio {ratio:.2f} (2 +- 30%), "
                   f"phi left limit at {gaps.shape[1]} switches: max gap / eps "
                   f"{[f'{x:.2f}' for x in slopes]} for eps 1e-3, 1e-4, 1e-5 (<= 5)")
    assert ok


def test_criterion_08_quantile_hedging():
    start = time.perf_counter()
    params = replace(ASYM, sigma0=-1)
    spec = CallSpec(strike=100.0, maturity=1.0)
    perfect = call_price(params, spec, CTRL).price
    worst_resid, worst_z, worst_rt = 0.0, 0.0, 0.0
    probs = []
    for i, frac in enumerate((0.25, 0.5, 0.75)):
        sol = solve_budget_gamma(Budget(frac * perfect), params, spec, CTRL)
        worst_resid = max(worst_resid, abs(sol.budget - frac * perfect))
        est = mc.mc_success_probability(params, sol, 100_000, seed=900 + i)
        worst_z = max(
            worst_z, abs(est.mean - sol.success_probability) / est.std_error
        )
        dual = solve_dual(1.0 - sol.success_probability, params, spec, CTRL)
        worst_rt = max(
            worst_rt,
            abs(dual.gamma - sol.gamma) / sol.gamma,
            abs(dual.budget - sol.budget) / sol.budget,
        )
        probs.append(sol.success_probability)
    elapsed = time.perf_counter() - start
    ok = (
        worst_resid <= 1e-9 * params.s0
        and worst_z < 3.0
        and worst_rt <= 1e-8
        and probs[0] < probs[1] < probs[2]
        and elapsed < 120.0
    )
    _report(8, ok, f"residual {worst_resid:.2e} (<= 1e-7), MC |z| {worst_z:.2f} "
                   f"(< 3), round trip {worst_rt:.2e} (<= 1e-8), "
                   f"monotone {probs[0] < probs[1] < probs[2]}, "
                   f"{elapsed:.1f}s (< 2 min)")
    assert ok


def test_criterion_09_combinatorics():
    # beta closed form with exact rational arithmetic, k <= 20
    beta_ok = True
    beta = _beta_table(20)
    for k in range(1, 21):
        for j in range(k):
            m = j // 2
            num = Fraction(1)
            for i in range(m):
                num *= k - j + i
            if beta[k, j] != float(num / math.factorial(m)):
                beta_ok = False
    # phi' and the v-system by central differences
    rng = np.random.default_rng(9)
    worst = 0.0
    step = 1e-5
    for _ in range(60):
        ab = float(rng.uniform(-1.5, 1.5))
        p = float(rng.uniform(0.1, 2.0))
        q = float(rng.uniform(0.05, 1.5))
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 9))
        fd = (phi_kn(k, n, p + step, ab) - phi_kn(k, n, p - step, ab)) / (2 * step)
        ref = phi_kn(k - 1, n - 1, p, ab)
        worst = max(worst, abs(fd - ref) / max(abs(ref), 1e-10))
        m = int(rng.integers(1, 5))  # v-chain: dv_{2m+1}/dq = v_{2m}^{(-)},
        fd = (v_n(p, q + step, 2 * m + 1, +1, ab)
              - v_n(p, q - step, 2 * m + 1, +1, ab)) / (2 * step)
        ref = v_n(p, q, 2 * m, -1, ab)
        worst = max(worst, abs(fd - ref) / max(abs(ref), 1e-10))
        fd = (v_n(p, q + step, 2 * m, +1, ab)  # dv_{2m}^{(+)}/dq = v_{2m-1}
              - v_n(p, q - step, 2 * m, +1, ab)) / (2 * step)
        ref = v_n(p, q, 2 * m - 1, +1, ab)
        worst = max(worst, abs(fd - ref) / max(abs(ref), 1e-10))
    ok = beta_ok and worst <= 1e-6
    _report(9, ok, f"beta exact: {beta_ok}; worst FD rel err {worst:.2e} (<= 1e-6)")
    assert ok


def test_criterion_10_arbitrage_demo():
    jump_free = ModelParams(
        c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
        h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    res = mc.arbitrage_demo(jump_free, 105.0, 115.0, 1.0, 30_000, seed=60)
    zero_loss = res.min_profit == 0.0 and bool(np.all(res.profits >= 0.0))
    z_pos = res.p_positive.mean / res.p_positive.std_error
    control_model = replace(ASYM, r_plus=0.0, r_minus=0.0)
    ctrl_res = mc.arbitrage_demo(
        control_model, 105.0, 115.0, 1.0, 200_000, seed=61,
        measure="martingale",
    )
    z_ctrl = abs(ctrl_res.mean_profit.mean) / ctrl_res.mean_profit.std_error
    ok = zero_loss and z_pos > 3.0 and z_ctrl < 3.0
    _report(10, ok, f"zero-loss {zero_loss}, P(profit>0) z {z_pos:.1f} (> 3), "
                    f"martingale control |z| {z_ctrl:.2f} (< 3)")
    assert ok


def test_criterion_11_diffusion_limit():
    start = time.perf_counter()
    errs = mc.limit_scaling_check(
        0.3, 0.2, 0.05, [1, 4, 16, 64], [-1.0, 0.5, 1.0], 1.0
    )
    worst = errs.max(axis=1)
    monotone = bool(np.all(np.diff(worst) < 0))
    elapsed = time.perf_counter() - start
    ok = monotone and worst[-1] < 0.02 and elapsed < 60.0
    _report(11, ok, f"monotone {monotone}, final rel err {worst[-1]:.4f} "
                    f"(< 0.02), {elapsed:.1f}s (< 1 min)")
    assert ok
