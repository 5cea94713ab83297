import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telegraph_market.pricing as pricing
import telegraph_market.quantile as quantile
from oracles import kappa, threshold_bisection
from telegraph_market.errors import BudgetError
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams
from telegraph_market.numerics import geometric_root
from telegraph_market.pricing import CallSpec, SeriesControls, call_price, call_u_U
from telegraph_market.quantile import (
    Budget,
    constrained_capital,
    density_ratio_coeffs,
    insurance_budget,
    solve_budget_gamma,
    solve_dual,
    success_probability,
    threshold_z,
)

CTRL = SeriesControls()
SPEC = CallSpec(strike=100.0, maturity=1.0)


@pytest.fixture(scope="module")
def params():
    # started in the slow regime so the no-switch atom is out of the money
    # and the budget equation is continuous in gamma
    return ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05,
        s0=100.0, sigma0=-1,
    )


@pytest.fixture(scope="module")
def double_params():
    # strongly negative c*_+ makes -a > 1: two-sided thresholds
    return ModelParams(
        c_plus=0.1, c_minus=-0.4, lambda_plus=1.0, lambda_minus=1.5,
        h_plus=0.05, h_minus=0.5, r_plus=0.3, r_minus=0.05,
        s0=100.0, sigma0=-1,
    )


def test_density_ratio_coeffs_reproduce_exponent(params):
    # e^{aX+bt} kappa*_N must equal the Girsanov density path by path
    from telegraph_market.model import path_state, sample_path

    intens = martingale_intensities(params)
    a, b = density_ratio_coeffs(params, intens)
    for i in range(50):
        st = path_state(sample_path(params, 1.0, seed=77, path_index=i), 1.0)
        x = st.telegraph(params.c_plus, params.c_minus)
        recon = math.exp(a * x + b * 1.0) * kappa(
            int(st.n), params.sigma0, intens.h_star_plus, intens.h_star_minus
        )
        girsanov = st.jump_exponential(
            intens.c_star_plus, intens.c_star_minus,
            intens.h_star_plus, intens.h_star_minus,
        )
        assert recon == pytest.approx(girsanov, rel=1e-12)


def test_threshold_single_case_properties(params):
    intens = martingale_intensities(params)
    a, _ = density_ratio_coeffs(params, intens)
    assert -a <= 1.0
    prev = None
    for gamma in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        z = threshold_z(3, gamma, params, SPEC, intens)
        assert isinstance(z, float)
        assert z > SPEC.strike / params.s0
        if prev is not None:
            assert z < prev  # strictly decreasing in gamma
        prev = z


def test_threshold_residual(params):
    intens = martingale_intensities(params)
    a, b = density_ratio_coeffs(params, intens)
    gamma = 0.05
    for n in range(6):
        z = threshold_z(n, gamma, params, SPEC, intens)
        c_n = (
            gamma
            * kappa(n, params.sigma0, intens.h_star_plus, intens.h_star_minus)
            * kappa(n, params.sigma0, params.h_plus, params.h_minus) ** (-a)
            * math.exp(b * SPEC.maturity)
        )
        resid = z ** (-a) - c_n * (params.s0 * z - SPEC.strike)
        assert abs(resid) <= 1e-10 * max(1.0, z ** (-a))


def test_case_label_splits_at_unit_exponent():
    from telegraph_market.quantile import _case_label

    assert _case_label(-1.0) == "single_threshold"
    assert _case_label(-1.0001) == "double_threshold"


def test_double_threshold_structure(double_params):
    intens = martingale_intensities(double_params)
    a, b = density_ratio_coeffs(double_params, intens)
    assert -a > 1.0
    spec = CallSpec(strike=95.0, maturity=1.0)
    # small gamma: the constraint never binds, the n-slice is fully included
    assert threshold_z(2, 1e-6, double_params, spec, intens) is None
    # large gamma: a two-sided exclusion window (z1, z2) opens
    big = threshold_z(2, 1e3, double_params, spec, intens)
    assert isinstance(big, tuple) and big[0] < big[1]
    assert big[0] > spec.strike / double_params.s0
    # both roots solve g(z) = z^{-a} - C_n (S0 z - K) = 0, measured as the
    # relative Newton step |g| / (|g'| z): z1 sits next to K/S0, where g' is
    # about C_n S0 and a residual scaled by z^{-a} alone would read large
    s0, strike, alpha = double_params.s0, spec.strike, -a
    sig = double_params.sigma0
    windows = 0
    for gamma in np.logspace(-2, 3, 6):
        for n in range(8):
            roots = threshold_z(n, gamma, double_params, spec, intens)
            if roots is None:
                continue
            windows += 1
            # C_n = gamma kappa*_n kappa_n^{-a} e^{bT} from the kappa products
            kap = kappa(n, sig, double_params.h_plus, double_params.h_minus)
            kap_star = kappa(n, sig, intens.h_star_plus, intens.h_star_minus)
            c_n = gamma * kap_star * kap ** (-a) * math.exp(b * spec.maturity)
            for z in roots:
                g = z**alpha - c_n * (s0 * z - strike)
                g_prime = alpha * z ** (alpha - 1.0) - c_n * s0
                assert abs(g) <= 1e-12 * abs(g_prime) * z
    assert windows >= 30


def test_one_series_terms_call_per_sum(asym_params, params, double_params, monkeypatch):
    # every rate tuple of a sum shares one density evaluation: a call price
    # takes u and U from one series_terms call, and the capital of a success
    # set takes u and U from one call per band of thresholds
    calls = []
    real = pricing.series_terms

    def spy(y, t, sigma, c_p, c_m, *rates):
        calls.append(len(rates))
        return real(y, t, sigma, c_p, c_m, *rates)

    monkeypatch.setattr(pricing, "series_terms", spy)
    monkeypatch.setattr(quantile, "series_terms", spy)
    call_price(asym_params, SPEC, CTRL)
    assert calls == [2]
    # single thresholds bound the excluded band on one side, double
    # thresholds on both
    for market, bounds in ((params, 1), (double_params, 2)):
        problem = quantile._Problem.for_call(market, SPEC, CTRL)
        bands = problem.bands(1.0)
        calls.clear()
        problem.capital(bands)
        assert calls == [2] * bounds


def test_slice_coefficients_built_once_per_solve(params, double_params, monkeypatch):
    # the gamma-free parts of log C_n come from one pair of
    # log_kappa_sequence calls per solve, however many gammas it evaluates
    kappa_calls, evaluations = [], []
    real_kappa, real_bands = quantile.log_kappa_sequence, quantile._Problem.bands

    def kappa_spy(*args):
        kappa_calls[-1] += 1
        return real_kappa(*args)

    def bands_spy(self, gamma):
        evaluations[-1] += 1
        return real_bands(self, gamma)

    monkeypatch.setattr(quantile, "log_kappa_sequence", kappa_spy)
    monkeypatch.setattr(quantile._Problem, "bands", bands_spy)
    for market in (params, double_params):
        perfect = call_price(market, SPEC, CTRL).price
        for solve in (
            lambda: solve_budget_gamma(Budget(0.3 * perfect), market, SPEC, CTRL),
            lambda: solve_budget_gamma(Budget(0.8 * perfect), market, SPEC, CTRL),
            lambda: solve_dual(0.1, market, SPEC, CTRL),
        ):
            kappa_calls.append(0)
            evaluations.append(0)
            solve()
    assert set(kappa_calls) == {2}
    assert min(evaluations) > 2 and len(set(evaluations)) > 1


def test_budget_solution_residual_and_monotonicity(params):
    perfect = call_price(params, SPEC, CTRL).price
    probs = []
    for frac in (0.25, 0.5, 0.75):
        sol = solve_budget_gamma(Budget(frac * perfect), params, SPEC, CTRL)
        assert abs(sol.budget - frac * perfect) <= 1e-9 * params.s0
        assert 0.0 < sol.success_probability < 1.0
        probs.append(sol.success_probability)
    assert probs[0] < probs[1] < probs[2]


def test_zero_budget_success_set_is_the_out_of_the_money_event(asym_params):
    # a budget of ~0 buys nothing: the success set shrinks to S(T) <= K,
    # whose physical probability is 1 minus the in-the-money mass, the u_n
    # of series_terms at y_n = ln(K/S0) - ln kappa_n, physical intensities
    # and r = 0 (the terms past n ~ 30 vanish at T = 1)
    from telegraph_market import mc
    from telegraph_market.model import log_kappa_sequence
    from telegraph_market.pricing import series_terms

    p = asym_params
    sol = solve_budget_gamma(Budget(1e-300), p, SPEC, CTRL)
    y = math.log(SPEC.strike / p.s0) - log_kappa_sequence(60, p.sigma0, p.h_plus, p.h_minus)
    in_the_money = series_terms(
        y, SPEC.maturity, p.sigma0, p.c_plus, p.c_minus, (p.lambda_plus, p.lambda_minus, 0.0, 0.0)
    ).sum()
    assert sol.success_probability == pytest.approx(1.0 - in_the_money, abs=1e-7)
    est = mc.mc_success_probability(p, sol, 200_000, seed=1)
    assert abs(est.mean - sol.success_probability) <= 4.0 * est.std_error


def test_budget_validation(params):
    perfect = call_price(params, SPEC, CTRL).price
    with pytest.raises(ValueError):
        Budget(0.0)
    with pytest.raises(BudgetError):
        solve_budget_gamma(Budget(perfect), params, SPEC, CTRL)


def test_full_budget_limit(params):
    perfect = call_price(params, SPEC, CTRL).price
    sol = solve_budget_gamma(Budget(0.999 * perfect), params, SPEC, CTRL)
    assert sol.success_probability > 0.995


def test_primal_dual_round_trip(params, double_params):
    for market in (params, double_params):
        perfect = call_price(market, SPEC, CTRL).price
        sol = solve_budget_gamma(Budget(0.5 * perfect), market, SPEC, CTRL)
        dual = solve_dual(1.0 - sol.success_probability, market, SPEC, CTRL)
        assert dual.gamma == pytest.approx(sol.gamma, rel=1e-8)
        assert dual.budget == pytest.approx(sol.budget, rel=1e-8)
        assert dual.success_probability == pytest.approx(
            sol.success_probability, rel=1e-10
        )


def test_dual_monotone_in_epsilon(params):
    budgets = [
        solve_dual(eps, params, SPEC, CTRL).budget for eps in (0.05, 0.15, 0.3)
    ]
    assert budgets[0] > budgets[1] > budgets[2]


def test_example_identity_when_measures_agree():
    # when lambda = lambda* the density ratio is 1 (a = b = 0) and the
    # constrained capital collapses to
    # v0 = C(K) - C(K + 1/gamma) - (1/gamma) P*(S_T > K + 1/gamma) e^{-rT}
    lam, hp, hm = 2.0, -0.2, 0.3
    p = ModelParams(
        c_plus=-lam * hp, c_minus=-lam * hm, lambda_plus=lam, lambda_minus=lam,
        h_plus=hp, h_minus=hm, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=-1,
    )
    intens = martingale_intensities(p)
    from telegraph_market.quantile import density_ratio_coeffs as drc

    a, b = drc(p, intens)
    assert a == pytest.approx(0.0, abs=1e-14)
    assert b == pytest.approx(0.0, abs=1e-14)
    perfect = call_price(p, SPEC, CTRL).price
    sol = solve_budget_gamma(Budget(0.5 * perfect), p, SPEC, CTRL)
    g = sol.gamma
    k2 = SPEC.strike + 1.0 / g
    c_k2 = call_price(p, CallSpec(strike=k2, maturity=1.0), CTRL).price
    tail_u, _ = call_u_U(
        np.array([math.log(k2 / p.s0)]), 1.0, p.sigma0, p, intens, CTRL,
        1.0, 0.0,
    )
    ident = perfect - c_k2 - (1.0 / g) * float(tail_u[0])
    assert ident == pytest.approx(0.5 * perfect, rel=1e-8)


def test_success_probability_uses_physical_measure(params):
    # recomputing the same thresholds under the martingale intensities gives
    # a different number: the module must not mix the measures
    perfect = call_price(params, SPEC, CTRL).price
    sol = solve_budget_gamma(Budget(0.5 * perfect), params, SPEC, CTRL)
    p_phys = success_probability(sol, params)
    intens = martingale_intensities(params)
    fake = replace(
        params,
        lambda_plus=intens.lambda_star_plus,
        lambda_minus=intens.lambda_star_minus,
    )
    p_star = success_probability(sol, fake)
    assert p_phys == pytest.approx(sol.success_probability, rel=1e-12)
    assert abs(p_phys - p_star) > 1e-3


def test_insurance_budget_scaling(params):
    perfect = call_price(params, SPEC, CTRL).price
    assert insurance_budget(1.0, params, SPEC, CTRL) == pytest.approx(perfect)
    v09 = insurance_budget(0.9, params, SPEC, CTRL)
    assert v09 == pytest.approx(0.9 * perfect, rel=1e-14)
    sol = solve_budget_gamma(Budget(v09), params, SPEC, CTRL)
    assert sol.success_probability < 1.0
    with pytest.raises(ValueError):
        insurance_budget(0.0, params, SPEC, CTRL)
    with pytest.raises(ValueError):
        insurance_budget(1.1, params, SPEC, CTRL)


def test_atom_granularity_reported():
    # started in the fast regime the no-switch atom carries a lump of
    # capital; budgets inside the resulting gap are infeasible for pure
    # threshold sets and must be reported, not silently mis-solved
    p = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05,
        s0=100.0, sigma0=+1,
    )
    perfect = call_price(p, SPEC, CTRL).price
    with pytest.raises(BudgetError):
        solve_budget_gamma(Budget(0.75 * perfect), p, SPEC, CTRL)
    # the same atom makes P(success) jump from 1 to 1 - e^{-2}: shortfall
    # caps inside that gap are infeasible too, and one outside it solves
    for eps in (0.05, 0.1):
        with pytest.raises(BudgetError, match="residual"):
            solve_dual(eps, p, SPEC, CTRL)
    assert solve_dual(0.2, p, SPEC, CTRL).success_probability == pytest.approx(
        0.8, abs=1e-9
    )


# the double-threshold market of the fixture above, for the property test
# (hypothesis does not take function-scoped fixtures)
DOUBLE = ModelParams(
    c_plus=0.1, c_minus=-0.4, lambda_plus=1.0, lambda_minus=1.5,
    h_plus=0.05, h_minus=0.5, r_plus=0.3, r_minus=0.05,
    s0=100.0, sigma0=-1,
)


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(
    log10_gamma=st.floats(-6.0, 4.0),
    # both sides of 1, alpha <= 0 (F convex) and alpha = 1 (closed form);
    # within 1e-3 of 1 the check's own rounding, about 2 ulp / |alpha - 1|
    # of the relative step, would reach its 1e-12 bound
    alpha=st.one_of(
        st.floats(-2.0, 0.0),
        st.floats(0.0, 0.98),
        st.floats(0.98, 0.999),
        st.just(1.0),
        st.floats(1.001, 1.02),
        st.floats(1.02, 4.0),
    ),
)
def test_threshold_roots_match_bisection_oracle(log10_gamma, alpha):
    from telegraph_market.model import log_kappa_sequence
    from telegraph_market.quantile import _moneyness_roots

    intens = martingale_intensities(DOUBLE)
    _, b = density_ratio_coeffs(DOUBLE, intens)
    s0, strike = DOUBLE.s0, 95.0
    # log C_n = log gamma + log kappa*_n - a log kappa_n + bT with a = -alpha
    sig = DOUBLE.sigma0
    log_kap_star = log_kappa_sequence(40, sig, intens.h_star_plus, intens.h_star_minus)
    log_kap = log_kappa_sequence(40, sig, DOUBLE.h_plus, DOUBLE.h_minus)
    log_c = math.log(10.0**log10_gamma) + log_kap_star + alpha * log_kap + b * 1.0
    z1, z2 = _moneyness_roots(log_c, alpha, s0, strike)
    for n in range(41):
        c_n = math.exp(log_c[n])
        ref = threshold_bisection(c_n, alpha, s0, strike)
        if ref is None:
            assert np.isnan(z1[n]) and np.isnan(z2[n])
            continue
        roots = ref if isinstance(ref, tuple) else (ref,)
        got = (z1[n], z2[n]) if isinstance(ref, tuple) else (z1[n],)
        assert isinstance(ref, tuple) or np.isnan(z2[n])
        for z, z_ref in zip(got, roots):
            if math.isinf(z_ref):
                assert z == math.inf
                continue
            # the relative Newton step |g| / (|g'| z) of g(z) = z^alpha -
            # C_n (S0 z - K), as in test_double_threshold_structure, taken
            # as g/z so that z^alpha cannot overflow
            g_over_z = z ** (alpha - 1.0) - c_n * (s0 - strike / z)
            g_prime = alpha * z ** (alpha - 1.0) - c_n * s0
            assert abs(g_over_z) <= 1e-12 * abs(g_prime)
            assert z == pytest.approx(z_ref, rel=1e-11)


@pytest.mark.parametrize("alpha", [1.05, 2.0, 3.5])
def test_threshold_window_opens_at_the_tangent_coefficient(alpha):
    # z^alpha touches C (S0 z - K) at z_e = alpha K / ((alpha - 1) S0) when
    # C = alpha z_e^(alpha - 1) / S0; just below that C there is no window,
    # just above it a narrow one around z_e
    from telegraph_market.quantile import _moneyness_roots

    s0, strike = 100.0, 95.0
    z_e = alpha * strike / ((alpha - 1.0) * s0)
    log_c_e = math.log(alpha / s0) + (alpha - 1.0) * math.log(z_e)
    log_c = log_c_e + np.array([-1e-9, 1e-9])
    z1, z2 = _moneyness_roots(log_c, alpha, s0, strike)
    assert np.isnan(z1[0]) and np.isnan(z2[0])
    assert threshold_bisection(math.exp(log_c[0]), alpha, s0, strike) is None
    assert z1[1] < z_e < z2[1] < 1.001 * z_e
    ref = threshold_bisection(math.exp(log_c[1]), alpha, s0, strike)
    assert ref == pytest.approx((z1[1], z2[1]), rel=1e-9)


def test_budget_root_stops_at_the_atom_jump():
    # test_atom_granularity_reported's market: capital(gamma) jumps across
    # the budget where the no-switch atom leaves the success set. The root
    # finder closes its bracket on the jump, and the solve reports it
    p = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05,
        s0=100.0, sigma0=+1,
    )
    from telegraph_market.quantile import _n_cutoff

    intens = martingale_intensities(p)
    perfect = call_price(p, SPEC, CTRL).price
    n_max = _n_cutoff(p, intens, SPEC.maturity, CTRL)
    v0 = 0.75 * perfect

    def excess(gamma):
        return constrained_capital(gamma, p, SPEC, intens, CTRL, perfect, n_max)[0] - v0

    f1 = excess(1.0)
    gamma = geometric_root(excess, 1.0, 4.0 if f1 > 0 else 0.25, f_start=f1, rtol=1e-14)
    assert gamma is not None
    assert excess(gamma * (1.0 - 2e-14)) > 1e-2 * p.s0
    assert excess(gamma * (1.0 + 2e-14)) < -1e-2 * p.s0
    with pytest.raises(BudgetError, match="residual"):
        solve_budget_gamma(Budget(v0), p, SPEC, CTRL)
