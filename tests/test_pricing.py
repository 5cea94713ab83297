import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import telegraph_market.pricing as pricing
from telegraph_market.errors import TruncationError
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import ModelParams, log_kappa_sequence
from telegraph_market.pricing import (
    CallSpec,
    P_n,
    SeriesControls,
    call_price,
    call_u_U,
    call_value_surface,
    european_price_F,
    hyp1f1,
    merton_price,
    series_rates,
    series_terms,
    symmetric_price_check,
    u_n,
    v_n,
)

from telegraph_market.quantile import _n_cutoff

from oracles import (
    U_n_quadrature,
    n_cutoff_loop,
    phi_kn,
    series_length_loop,
    u_n_quadrature,
)

CTRL = SeriesControls()


# --- kernel building blocks -------------------------------------------------

def test_hyp1f1_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = float(rng.integers(1, 8))
        b = float(rng.integers(int(a), 12))
        z = float(rng.uniform(-5.0, 5.0))
        ours = hyp1f1(a, b, z)
        ref = float(mp.hyp1f1(a, b, z))
        assert ours == pytest.approx(ref, rel=1e-12)


def test_P_n_identity_even_odd():
    # P_{2n}^{(-)} - P_{2n}^{(+)} = a_bar * P_{2n+1}
    rng = np.random.default_rng(7)
    for _ in range(40):
        t = float(rng.uniform(0.1, 3.0))
        a_bar = float(rng.uniform(-2.0, 2.0))
        n = int(rng.integers(1, 11))
        lhs = P_n(t, 2 * n, -1, a_bar) - P_n(t, 2 * n, +1, a_bar)
        rhs = a_bar * P_n(t, 2 * n + 1, +1, a_bar)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_P_n_small_cases():
    # P_0^{(+)} = e^{-a_bar t}, P_0^{(-)} = 1, P_1 = (1 - e^{-a_bar t})/a_bar
    t, ab = 0.8, 0.6
    assert P_n(t, 0, +1, ab) == pytest.approx(math.exp(-ab * t), rel=1e-13)
    assert P_n(t, 0, -1, ab) == pytest.approx(1.0, rel=1e-13)
    assert P_n(t, 1, +1, ab) == pytest.approx((1 - math.exp(-ab * t)) / ab, rel=1e-12)
    assert P_n(t, 1, -1, ab) == pytest.approx(P_n(t, 1, +1, ab), rel=1e-13)


def _rho(t, n, sigma, *rates):
    """Full-mass term rho_n(t) at one time: row n of ``_rho_rows``."""
    return float(pricing._rho_rows(np.array([float(t)]), n, sigma, *rates)[n, 0])


def _comb_beta(k, j):
    """beta_{k,j} = C(k - j + floor(j/2) - 1, floor(j/2)), an exact integer."""
    return math.comb(k - j + j // 2 - 1, j // 2)


def test_beta_coefficients_exact():
    # closed form beta_{k,j} = (k-j)_{floor(j/2)} / floor(j/2)!, recomputed
    # here with exact integer arithmetic for every 0 <= j < k <= 20
    from fractions import Fraction

    beta = pricing._beta_table(20)
    for k in range(1, 21):
        for j in range(k):
            m = j // 2
            num = Fraction(1)
            for i in range(m):
                num *= k - j + i
            expect = num / math.factorial(m)
            assert beta[k, j] == float(expect)
    assert beta[4, 2] == 2.0
    assert beta[5, 2] == 3.0


def test_beta_table_matches_binomials():
    # every entry up to k = 60 is the exact integer (beta_{44,36} = 480700 is
    # the first the rising-factorial formula rounded), 0 for j >= k
    beta = pricing._beta_table(60)
    assert beta.shape == (61, 60)
    for k in range(61):
        for j in range(60):
            assert beta[k, j] == (_comb_beta(k, j) if j < k else 0)


def test_beta_table_past_the_factorial_range():
    # at k = 343 the rising-factorial formula needed 171!, past the float
    # range; the recurrence stays finite to k = 400 and within a few ulps of
    # the exact integers (worst 1.02e-15, at beta_{392,28}). Growing the
    # table leaves the rows already handed out unchanged
    small = pricing._beta_table(60).copy()
    beta = pricing._beta_table(400)
    assert np.isfinite(beta).all()
    np.testing.assert_array_equal(beta[:61, :60], small)
    for k in range(1, 401):
        exact = np.array([float(_comb_beta(k, j)) for j in range(k)])
        np.testing.assert_allclose(beta[k, :k], exact, rtol=2e-15, atol=0.0)
    assert not np.triu(beta[:400]).any()  # 0 for j >= k


def test_phi_derivative_in_p():
    # d(phi_{k,n})/dp = phi_{k-1,n-1} by central differences
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(30):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 9))
        p = float(rng.uniform(0.1, 2.0))
        ab = float(rng.uniform(-1.5, 1.5))
        fd = (phi_kn(k, n, p + step, ab) - phi_kn(k, n, p - step, ab)) / (2 * step)
        assert fd == pytest.approx(phi_kn(k - 1, n - 1, p, ab), rel=1e-6, abs=1e-10)


def test_v_system_boundary_values():
    # at q = 0 the wedge kernels reduce to the pure P kernels
    ab, p = 0.7, 0.9
    for n in range(1, 9):
        for sigma in (+1, -1):
            val = v_n(p, 0.0, n, sigma, ab)
            assert val == pytest.approx(P_n(p, n, sigma, ab), rel=1e-12)
    assert v_n(p, 0.0, 0, +1, ab) == pytest.approx(math.exp(-ab * p), rel=1e-13)
    assert v_n(p, 0.0, 0, -1, ab) == 0.0


def test_v_system_pde():
    # the wedge kernels satisfy dv/dq = v_{n-1}^{(-sigma-path)} structure via
    # finite differences: d v_n / dq at fixed p equals the documented
    # phi-weighted derivative; checked indirectly through u_n continuity below
    # and directly through the q-expansion coefficient at q = 0:
    # dv_{2m+1}/dq|_{q=0} = phi_{1,m}
    ab, p = 0.4, 1.1
    step = 1e-6
    for m in range(1, 5):
        fd = (v_n(p, step, 2 * m + 1, +1, ab) - v_n(p, 0.0, 2 * m + 1, +1, ab)) / step
        assert fd == pytest.approx(phi_kn(1, m, p, ab), rel=1e-4)


def test_phi_kn_zero_is_the_odd_kernel():
    # phi_{0,n} reads the one odd order 2n + 1 of the (-) kernel
    p = np.array([0.3, 1.2])
    for ab in (0.6, -1.3):
        for n in range(6):
            np.testing.assert_array_equal(phi_kn(0, n, p, ab), P_n(p, 2 * n + 1, -1, ab))


def test_transport_kernel_overflow_is_typed():
    # a_bar^{k-j-1} leaves the float range for a_bar = 1e9 once k - j - 1 >= 35
    with pytest.raises(TruncationError, match="overflowed"):
        phi_kn(40, 40, 1e-9, 1e9)
    with pytest.raises(TruncationError, match="overflowed"):
        v_n(1e-9, 0.2, 81, +1, 1e9)


@pytest.mark.parametrize("n", [300, 301])
@pytest.mark.parametrize("sigma", [+1, -1])
def test_rho_n_where_lambda_n_overflows(n, sigma):
    # Lambda_n ~ e^856 overflows on its own; the term itself is ~1e-2
    mp = pytest.importorskip("mpmath")
    lam_p, lam_m, r, t = 20.0, 15.0, 0.05, 17.0
    with np.errstate(over="raise", invalid="raise"):
        got = _rho(t, n, sigma, lam_p, lam_m, r, r)
    lam_s, lam_o = (lam_p, lam_m) if sigma == +1 else (lam_m, lam_p)
    m = n // 2 if sigma == +1 else (n - 1) // 2
    with mp.workdps(30):
        ref = float(
            mp.exp(-(lam_m + r) * t)
            * mp.mpf(lam_s) ** (n - n // 2) * mp.mpf(lam_o) ** (n // 2)
            * mp.mpf(t) ** n / mp.factorial(n)
            * mp.hyp1f1(m + 1, n + 1, -(lam_p - lam_m) * t)
        )
    assert got == pytest.approx(ref, rel=1e-11)


def _mp_P_n(mp, t, n, sigma, a_bar):
    """P_n^{(sigma)}(t) = (t^n / n!) M(m + 1, n + 1, -a_bar t) in mpmath."""
    m = n // 2 if sigma == +1 else (n - 1) // 2
    t = mp.mpf(t)
    return t**n / mp.factorial(n) * mp.hyp1f1(m + 1, n + 1, -mp.mpf(a_bar) * t)


_TABLE_ORDERS = (0, 1, 2, 3, 4, 5, 12, 13, 101, 102, 300, 301, 599, 600)


def test_kernel_table_against_mpmath():
    # every row of one table at orders up to 600 and |a_bar| p up to 1000, for
    # both signs of a_bar, a_bar = 0 and p = 0; for a_bar < 0 the point scale
    # e^{-|a_bar| p} keeps the rows in range (P_1 ~ e^{1000} / 40 alone is
    # not). Entries whose reference leaves the float range are only checked
    # to be negligible
    mp = pytest.importorskip("mpmath")
    for a_bar, p_max in ((-40.0, 25.0), (-2.5, 400.0), (0.0, 300.0),
                         (2.5, 400.0), (40.0, 25.0)):
        p = np.array([0.0, 1e-3, 0.7, p_max / 4, p_max])
        scale = np.minimum(a_bar * p, 0.0)
        table = pricing._kernel_table(p, 600, a_bar, point_scale=scale)
        assert table[0, 0] == 1.0 and not table[1:, 0].any()
        with mp.workdps(30):
            for i in range(1, p.size):
                for k in _TABLE_ORDERS:
                    ref = _mp_P_n(mp, p[i], k, -1, a_bar) * mp.exp(scale[i])
                    if ref > 1e-290:
                        assert table[k, i] == pytest.approx(float(ref), rel=1e-12)
                    else:
                        assert table[k, i] < 1e-280


@pytest.mark.parametrize("sigma", [+1, -1])
def test_rho_n_both_regimes_against_mpmath(sigma):
    # _rho_rows reads the (-) table for sigma = -1 and its mirror at -a_bar for
    # sigma = +1; |a_bar| t reaches 1000 with either sign of a_bar
    mp = pytest.importorskip("mpmath")
    r = 0.05
    for lam_p, lam_m, t in ((41.0, 1.0, 25.0), (1.0, 41.0, 25.0), (3.0, 3.0, 90.0)):
        lam_s, lam_o = (lam_p, lam_m) if sigma == +1 else (lam_m, lam_p)
        with mp.workdps(30):
            for n in _TABLE_ORDERS:
                ref = (
                    mp.exp(-(lam_m + r) * t)
                    * mp.mpf(lam_s) ** (n - n // 2) * mp.mpf(lam_o) ** (n // 2)
                    * _mp_P_n(mp, t, n, sigma, lam_p - lam_m)
                )
                got = _rho(t, n, sigma, lam_p, lam_m, r, r)
                if ref > 1e-290:
                    assert got == pytest.approx(float(ref), rel=1e-12)
                else:
                    assert got < 1e-280


def test_rho_n_past_the_direct_series_range():
    # z = -a_bar t = -475: the direct hyp1f1 series exhausts its 500 terms
    # here, the kernel table does not
    mp = pytest.importorskip("mpmath")
    t, n, lam_p, lam_m, r = 25.0, 500, 20.0, 1.0, 0.05
    with pytest.raises(TruncationError):
        hyp1f1(n // 2 + 1, n + 1, -(lam_p - lam_m) * t)
    with mp.workdps(30):
        ref = (
            mp.exp(-(lam_m + r) * t) * mp.mpf(lam_p) ** (n // 2)
            * mp.mpf(lam_m) ** (n // 2) * _mp_P_n(mp, t, n, +1, lam_p - lam_m)
        )
    assert _rho(t, n, +1, lam_p, lam_m, r, r) == pytest.approx(float(ref), rel=1e-12)


# --- series terms against quadrature oracles --------------------------------

PARAM_SETS = [
    dict(lam_p=2.0, lam_m=1.5, c_p=0.5, c_m=-0.3, r_p=0.08, r_m=0.05),
    dict(lam_p=1.0, lam_m=3.0, c_p=0.2, c_m=-0.6, r_p=0.02, r_m=0.10),
    dict(lam_p=4.0, lam_m=4.0, c_p=0.8, c_m=0.1, r_p=0.05, r_m=0.05),
]


@pytest.mark.parametrize("ps", PARAM_SETS)
@pytest.mark.parametrize("sigma", [+1, -1])
def test_u_n_matches_quadrature(ps, sigma):
    t = 1.2
    ys = [ps["c_m"] * t - 0.2, 0.5 * (ps["c_m"] + ps["c_p"]) * t, ps["c_p"] * t + 0.1]
    for n in range(6):
        for y in ys:
            ours = u_n(y, t, n, sigma, **ps)
            oracle = u_n_quadrature(y, t, n, sigma, **ps)
            assert ours == pytest.approx(oracle, rel=2e-8, abs=1e-13)


@pytest.mark.parametrize("sigma", [+1, -1])
def test_U_n_matches_quadrature(sigma):
    # the stock-tilt identity holds at the martingale intensities
    # lam* = (r - c)/h, which is where the pricer evaluates U_n: u_n at
    # the tilted intensities lam* (1 + h), undiscounted
    ps = dict(PARAM_SETS[0])
    hp, hm = -0.2, 0.4
    ps["lam_p"] = (ps["r_p"] - ps["c_p"]) / hp
    ps["lam_m"] = (ps["r_m"] - ps["c_m"]) / hm
    tilted = dict(ps, lam_p=ps["lam_p"] * (1.0 + hp), lam_m=ps["lam_m"] * (1.0 + hm),
                  r_p=0.0, r_m=0.0)
    t = 1.0
    for n in range(5):
        for y in (-0.5, 0.05, 0.4):
            ours = u_n(y, t, n, sigma, **tilted)
            oracle = U_n_quadrature(y, t, n, sigma, **ps, h_p=hp, h_m=hm)
            assert ours == pytest.approx(oracle, rel=2e-8, abs=1e-13)


def test_u_n_regions(asym_params):
    ps = PARAM_SETS[0]
    t = 1.0
    for n in range(1, 5):
        # above the fast ray: zero
        assert u_n(ps["c_p"] * t + 1e-9, t, n, +1, **ps) == 0.0
        # below the slow ray: the full discounted slice mass rho_n
        full = _rho(t, n, +1, ps["lam_p"], ps["lam_m"], ps["r_p"], ps["r_m"])
        assert u_n(ps["c_m"] * t - 1e-9, t, n, +1, **ps) == pytest.approx(
            full, rel=1e-12
        )
        # continuity across the slow-ray boundary for n >= 1
        eps = 1e-10
        inner = u_n(ps["c_m"] * t + eps, t, n, +1, **ps)
        assert inner == pytest.approx(full, rel=1e-6)


def test_u_0_jumps_by_the_atom():
    ps = PARAM_SETS[0]
    t = 1.0
    above = u_n(ps["c_p"] * t + 1e-12, t, 0, +1, **ps)
    below = u_n(ps["c_p"] * t - 1e-12, t, 0, +1, **ps)
    atom = math.exp(-(ps["lam_p"] + ps["r_p"]) * t)
    assert above == 0.0
    assert below == pytest.approx(atom, rel=1e-9)


def test_series_terms_mixed_lower_limits(asym_params):
    # one call whose per-n lower limits fall above the fast ray, in the wedge
    # and below the slow ray (and at +inf) matches the transport route n by n
    # for each of its rate tuples (martingale u, tilted U, physical), all
    # integrated on the nodes of the largest tilt
    params = asym_params
    rates = (
        *series_rates(params, martingale_intensities(params)),
        (params.lambda_plus, params.lambda_minus, 0.0, 0.0),
    )
    c_p, c_m = params.c_plus, params.c_minus
    t = 1.3
    lo, hi = c_m * t, c_p * t
    y = np.array([
        lo - 0.1,                 # n = 0 below the slow ray: the atom
        hi + 0.05,                # above the fast ray: zero
        0.3 * lo + 0.7 * hi,      # wedge
        lo - 0.4,                 # below the slow ray: the full mass
        np.inf,                   # excluded slice
        0.5 * (lo + hi),          # wedge
        hi,                       # on the fast ray: zero
        lo,                       # on the slow ray: the full mass
        0.9 * lo + 0.1 * hi,      # wedge
        hi - 1e-9,                # a sliver just below the fast ray
    ])
    for sigma in (+1, -1):
        got = series_terms(y, t, sigma, c_p, c_m, *rates)
        assert got.shape == (len(rates), y.size)
        for row, rate in zip(got, rates):
            lam_p, lam_m, r_p, r_m = rate
            for n, y_n in enumerate(y):
                ref = 0.0 if np.isinf(y_n) else u_n(
                    y_n, t, n, sigma, lam_p, lam_m, c_p, c_m, r_p, r_m
                )
                assert row[n] == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert row[1] == 0.0 and row[4] == 0.0 and row[6] == 0.0
            assert row[3] == pytest.approx(_rho(t, 3, sigma, *rate), rel=1e-12)


def test_series_terms_atom_boundaries():
    # the n = 0 atom follows u_n's region dispatch at both rays
    ps = PARAM_SETS[0]
    rate = (ps["lam_p"], ps["lam_m"], ps["r_p"], ps["r_m"])
    t = 1.0
    lo, hi = ps["c_m"] * t, ps["c_p"] * t
    for sigma in (+1, -1):
        for y0 in (lo - 1e-12, lo, 0.5 * (lo + hi), hi, hi + 1e-12):
            got = series_terms(np.array([y0]), t, sigma, ps["c_p"], ps["c_m"], rate)[0, 0]
            assert got == pytest.approx(u_n(y0, t, 0, sigma, **ps), rel=1e-13)


# the steep market: lambda* = (20, 1), c = (0.45, -0.05), so the density
# tilt nu (c_+ - c_-) t is 95 at T = 5 and 190 at T = 10
STEEP = ModelParams(
    c_plus=0.45, c_minus=-0.05, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=-0.02, h_minus=0.1, r_plus=0.05, r_minus=0.05,
    s0=100.0, sigma0=1,
)


# lambda* = 25 per regime: at T = 10 the dominant switch counts (n ~ 250)
# carry their full mass below the slow ray for a deep-in-the-money strike,
# so the terms are whole bumps of relative width ~ 1 / sqrt(n)
BUSY = ModelParams(
    c_plus=0.3, c_minus=-0.2, lambda_plus=2.0, lambda_minus=2.0,
    h_plus=-0.01, h_minus=0.01, r_plus=0.05, r_minus=0.05,
    s0=100.0, sigma0=1,
)


@pytest.mark.parametrize("sigma0", [+1, -1])
@pytest.mark.parametrize(
    "market, strike, maturity, max_terms",
    [(STEEP, 150.0, 5.0, 600), (STEEP, 150.0, 10.0, 600), (BUSY, 10.0, 10.0, 400)],
    ids=["steep-T5", "steep-T10", "busy-deep-itm"],
)
def test_quad_order_rule_converged(
    monkeypatch, market, strike, maturity, max_terms, sigma0
):
    # the price at the chosen number of nodes agrees with four times as many
    params = replace(market, sigma0=sigma0)
    spec = CallSpec(strike=strike, maturity=maturity)
    ctrl = SeriesControls(max_terms=max_terms)
    chosen = call_price(params, spec, ctrl)
    rule = pricing._quad_order
    monkeypatch.setattr(pricing, "_quad_order", lambda n, tilt: 4 * rule(n, tilt))
    finer = call_price(params, spec, ctrl)
    assert finer.n_used == chosen.n_used
    assert abs(chosen.price - finer.price) <= 1e-11 * params.s0


# --- assembled call price ----------------------------------------------------

def test_call_price_limits(asym_params):
    # tiny strike: the call is worth the stock
    near_stock = call_price(asym_params, CallSpec(strike=1e-10, maturity=1.0), CTRL)
    assert near_stock.price == pytest.approx(asym_params.s0, rel=1e-10)
    # short maturity: intrinsic value
    intr = call_price(asym_params, CallSpec(strike=80.0, maturity=1e-9), CTRL)
    assert intr.price == pytest.approx(20.0, rel=1e-6)


def test_call_price_bounds_and_monotonicity(asym_params):
    prices = [
        call_price(asym_params, CallSpec(strike=k, maturity=1.0), CTRL).price
        for k in (80.0, 90.0, 100.0, 110.0, 120.0)
    ]
    assert all(p1 > p2 for p1, p2 in zip(prices, prices[1:]))
    assert all(0.0 <= p <= asym_params.s0 for p in prices)


def test_call_price_put_call_parity(asym_params):
    # C - P = S0 - K E*[B^{-1}]; the discounted-bond factor comes from the
    # u series at y -> -inf (strike-weight only, full mass)
    spec = CallSpec(strike=100.0, maturity=1.0)
    intens = martingale_intensities(asym_params)
    u, _ = call_u_U(
        np.array([-1e9]), spec.maturity, asym_params.sigma0, asym_params,
        intens, CTRL, 1.0, 0.0,
    )
    disc_bond = float(u[0])
    call = call_price(asym_params, spec, CTRL).price
    # put by direct quadrature pricer on the same engine
    put = european_price_F(
        0.0, asym_params.s0, asym_params.sigma0,
        lambda s: np.maximum(spec.strike - s, 0.0), spec.maturity,
        asym_params, CTRL, payoff_breaks=(spec.strike,),
    )
    assert call - put == pytest.approx(
        asym_params.s0 - spec.strike * disc_bond, rel=1e-10
    )


def test_call_price_breakdown_fields(asym_params):
    bk = call_price(asym_params, CallSpec(strike=105.0, maturity=1.3), CTRL)
    assert bk.regime_case in ("contracting", "expanding", "boundary")
    assert bk.n_used >= 1
    assert bk.tail_bound < CTRL.tail_epsilon
    assert bk.y == pytest.approx(math.log(105.0 / 100.0))
    assert bk.price == pytest.approx(
        asym_params.s0 * bk.U - 105.0 * bk.u, rel=1e-12
    )


def test_call_price_truncation_budget(asym_params):
    with pytest.raises(TruncationError):
        call_price(
            asym_params, CallSpec(strike=100.0, maturity=1.0),
            SeriesControls(tail_epsilon=1e-12, max_terms=3),
        )


# c_+ = c_- with lambda* = (7, 1) and r = (0.09, 0.05): a_bar is nonzero for
# u and U, and a one-year price takes 40 terms
EQUAL_C_TILTED = ModelParams(
    c_plus=0.02, c_minus=0.02, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=0.01, h_minus=0.03, r_plus=0.09, r_minus=0.05, s0=100.0, sigma0=+1,
)


@pytest.mark.parametrize("sigma0", [+1, -1])
def test_equal_velocity_terms_are_full_masses(monkeypatch, sigma0):
    # with c_+ = c_- a term is the full mass rho_n(T) where the shifted
    # log-strike lies on or below the ray y = c T, and 0 above it; u and U
    # come from one series_terms call, not from the kernel tables
    params = replace(EQUAL_C_TILTED, sigma0=sigma0)
    spec = CallSpec(strike=110.0, maturity=1.0)
    calls = []
    for name in ("series_terms", "_rho_rows"):
        real = getattr(pricing, name)
        monkeypatch.setattr(
            pricing, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    bk = call_price(params, spec, CTRL)
    monkeypatch.undo()
    assert calls == ["series_terms"]
    assert bk.n_used == 39
    shifted = bk.y - log_kappa_sequence(bk.n_used, sigma0, params.h_plus, params.h_minus)
    live = shifted <= params.c_plus * spec.maturity
    assert live.any() and not live.all()
    rates = series_rates(params, martingale_intensities(params))
    for terms, rate in zip((bk.u_terms, bk.U_terms), rates):
        assert rate[0] + rate[2] != rate[1] + rate[3]  # a_bar != 0
        assert np.all(terms[~live] == 0.0)
        for n in np.flatnonzero(live):
            ref = _rho(spec.maturity, int(n), sigma0, *rate)
            assert terms[n] == pytest.approx(ref, rel=1e-12)


def _random_market(rng):
    """An admissible market with lambda*_pm in [0.1, 60]: c_pm = r_pm -
    lambda*_pm h_pm, drawn again until c_- <= c_+."""
    while True:
        lam_star = rng.uniform(0.1, 60.0, 2)
        h = rng.uniform(0.02, 0.9, 2) * rng.choice([-1.0, 1.0], 2)
        r = rng.uniform(0.0, 0.1, 2)
        c = r - lam_star * h
        if c[1] <= c[0]:
            return ModelParams(
                c_plus=float(c[0]), c_minus=float(c[1]),
                lambda_plus=rng.uniform(0.1, 10.0), lambda_minus=rng.uniform(0.1, 10.0),
                h_plus=float(h[0]), h_minus=float(h[1]),
                r_plus=float(r[0]), r_minus=float(r[1]),
                s0=100.0, sigma0=int(rng.choice([-1, 1])),
            )


def _stops(params, t_min, t_max, controls, weight_u, weight_U):
    """(call series stop, quantile cutoff), each a TruncationError where the
    budget runs out; RuntimeWarnings raise."""
    intens = martingale_intensities(params)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stop in (
            lambda: pricing.series_length(
                t_min, t_max, controls,
                *pricing._call_series(params, intens, weight_u, weight_U),
            ),
            lambda: _n_cutoff(params, intens, t_max, controls),
        ):
            try:
                out.append(stop())
            except TruncationError:
                out.append(TruncationError)
    return out


def test_series_length_matches_the_loop():
    # the one array stop gives the per-n loops' index on random admissible
    # markets, lambda* T up to ~1200, where masses underflow against
    # infinite bounds; Python and numpy floats alike raise no RuntimeWarning
    rng = np.random.default_rng(17)
    outcomes = set()  # (call stop raised, quantile cutoff raised)
    for _ in range(300):
        params = _random_market(rng)
        t_max = rng.uniform(0.01, 20.0)
        t_min = t_max * rng.choice([1.0, rng.uniform(0.0, 1.0)])
        strike = rng.uniform(20.0, 300.0)
        controls = SeriesControls(max_terms=int(rng.choice([120, 400, 2000])))
        weight_U = params.s0 * rng.uniform(0.5, 2.0)
        intens = martingale_intensities(params)
        try:
            ref = series_length_loop(
                t_min, t_max, params, intens, controls, strike, weight_U
            )
        except TruncationError:
            ref = TruncationError
        try:
            ref_cut = n_cutoff_loop(params, intens, t_max, controls)
        except TruncationError:
            ref_cut = TruncationError
        as_numpy = replace(params, **{
            f.name: np.float64(getattr(params, f.name))
            for f in fields(params) if f.name != "sigma0"
        })
        for market, f64 in ((params, float), (as_numpy, np.float64)):
            got, got_cut = _stops(
                market, f64(t_min), f64(t_max), controls, f64(strike), f64(weight_U)
            )
            assert got_cut == ref_cut
            if ref is TruncationError:
                assert got is TruncationError
            else:
                assert got[0] == ref[0]
                assert got[1] == pytest.approx(ref[1], rel=1e-15, abs=0.0)
        outcomes.add((ref is TruncationError, ref_cut is TruncationError))
    assert len(outcomes) == 4  # each stop both stops and raises in the draw


# markets whose rays pass through y = 0 for n = 0, so x = K lies exactly on
# the slow ray, on the fast ray, or on the single ray of the c_+ = c_- market
_RAY_MARKETS = {
    "slow ray": dict(c_plus=0.4, c_minus=0.0, h_plus=-0.2, h_minus=0.1),
    "fast ray": dict(c_plus=0.0, c_minus=-0.3, h_plus=0.1, h_minus=0.4),
    "equal c": dict(c_plus=0.0, c_minus=0.0, h_plus=0.1, h_minus=0.3),
}


def _rebased_prices(params, spec, t, x, sigma):
    """call_price at s0 = x and maturity T - t, point by point (live points)."""
    return np.array([
        call_price(replace(params, s0=xi, sigma0=sigma),
                   CallSpec(spec.strike, spec.maturity - ti), CTRL).price
        for ti, xi in zip(t, x)
    ])


def _per_term_values(params, spec, t, x, sigma, n_max=40):
    """S U - K u summed term by term from u_n, U_n being u_n at the tilted
    intensities lam* (1 + h), undiscounted (live points)."""
    intens = martingale_intensities(params)
    lsp, lsm = intens.lambda_star_plus, intens.lambda_star_minus
    rates = dict(lam_p=lsp, lam_m=lsm, c_p=params.c_plus, c_m=params.c_minus,
                 r_p=params.r_plus, r_m=params.r_minus)
    tilted = dict(rates, lam_p=lsp * (1.0 + params.h_plus),
                  lam_m=lsm * (1.0 + params.h_minus), r_p=0.0, r_m=0.0)
    s = spec.maturity - t
    y = np.log(spec.strike / x)
    b = log_kappa_sequence(n_max, sigma, params.h_plus, params.h_minus)
    u = U = 0.0
    for n in range(n_max + 1):
        u = u + u_n(y - b[n], s, n, sigma, **rates)
        U = U + u_n(y - b[n], s, n, sigma, **tilted)
    return x * U - spec.strike * u


def _surface_points(params, spec):
    """Repeated times; for n = 0 every third point above the fast ray, in
    the wedge, or below the slow ray; two expired points at the end."""
    t = np.repeat([0.0, 0.2, 0.2, 0.65, 0.97], 3)
    s = spec.maturity - t
    cp, cm = params.c_plus, params.c_minus
    margin = 0.05 + 0.01 * np.arange(t.size)
    y = np.choose(np.arange(t.size) % 3, [
        cp * s + margin,
        cm * s + (0.3 + margin) * (cp - cm) * s,
        cm * s - margin,
    ])
    return (np.concatenate([t, [spec.maturity] * 2]),
            np.concatenate([spec.strike * np.exp(-y), [80.0, 120.0]]))


def _check_surface(params, spec, t, x, sigma):
    vals = call_value_surface(t, x, sigma, params, spec, CTRL)
    assert vals.shape == x.shape
    live = t < spec.maturity
    assert np.array_equal(vals[~live], np.maximum(x[~live] - spec.strike, 0.0))
    ref = _rebased_prices(params, spec, t[live], x[live], sigma)
    np.testing.assert_allclose(vals[live], ref, rtol=1e-10, atol=1e-13 * params.s0)
    per_term = _per_term_values(params, spec, t[live], x[live], sigma)
    np.testing.assert_allclose(vals[live], per_term, rtol=0, atol=1e-13 * params.s0)


def test_surface_matches_pointwise(asym_params):
    spec = CallSpec(strike=100.0, maturity=1.0)
    t, x = _surface_points(asym_params, spec)
    for sigma in (+1, -1):
        _check_surface(asym_params, spec, t, x, sigma)


@pytest.mark.parametrize("market", sorted(_RAY_MARKETS))
@pytest.mark.parametrize("sigma", [+1, -1])
def test_surface_on_the_rays(asym_params, market, sigma):
    params = replace(asym_params, **_RAY_MARKETS[market])
    spec = CallSpec(strike=100.0, maturity=1.0)
    t, x = _surface_points(params, spec)
    # x = K: y = 0 on the ray at every time to maturity
    t = np.concatenate([t, [0.0, 0.3, 0.3, 0.9]])
    x = np.concatenate([x, [spec.strike] * 4])
    _check_surface(params, spec, t, x, sigma)


def test_surface_across_chunks(asym_params):
    # more live points than one chunk, the same few times scattered over
    # every chunk: one series stop and one full-mass table serve all chunks
    spec = CallSpec(strike=100.0, maturity=1.0)
    t0, x0 = _surface_points(asym_params, spec)
    live = t0 < spec.maturity
    reps = pricing._CHUNK // np.count_nonzero(live) + 50
    order = np.random.default_rng(5).permutation(t0.size * reps)
    base = np.tile(np.arange(t0.size), reps)[order]
    vals = call_value_surface(t0[base], x0[base], +1, asym_params, spec, CTRL)
    assert np.count_nonzero(live[base]) > pricing._CHUNK
    ref = np.maximum(x0 - spec.strike, 0.0)
    ref[live] = _rebased_prices(asym_params, spec, t0[live], x0[live], +1)
    np.testing.assert_allclose(vals, ref[base], rtol=1e-10,
                               atol=1e-13 * asym_params.s0)


def test_surface_chunk_size_keeps_values_and_one_stop(asym_params, monkeypatch):
    # call_u_U fixes the series stop and the full-mass tables once for all
    # its points and walks them in _CHUNK slices only for the region split
    # and the wedge kernels: the slice size moves no value beyond rounding,
    # and every surface call computes the stop once
    spec = CallSpec(strike=100.0, maturity=1.0)
    rng = np.random.default_rng(11)
    t = rng.choice(np.linspace(0.0, spec.maturity, 41), 3000)  # t = T: expired
    x = rng.uniform(60.0, 160.0, t.size)
    assert (t == spec.maturity).any()
    stops = []

    def spy(*args, **kwargs):
        stops.append(args)
        return series_length(*args, **kwargs)

    series_length = pricing.series_length
    monkeypatch.setattr(pricing, "series_length", spy)
    for sigma in (+1, -1):
        vals = []
        for chunk in (997, 1 << 15):
            monkeypatch.setattr(pricing, "_CHUNK", chunk)
            vals.append(call_value_surface(t, x, sigma, asym_params, spec, CTRL))
        np.testing.assert_allclose(*vals, rtol=0, atol=1e-14 * asym_params.s0)
    assert len(stops) == 4


def test_surface_steep_market_many_terms():
    # lambda* = (20, 1), 561 terms: the full-mass rows pass Lambda_n's float
    # range, and no wedge point reaches the switch counts where the transport
    # kernel overflows
    params = ModelParams(
        c_plus=0.45, c_minus=-0.05, lambda_plus=2.0, lambda_minus=1.0,
        h_plus=-0.02, h_minus=0.1, r_plus=0.05, r_minus=0.05, s0=100.0, sigma0=1,
    )
    ctrl = SeriesControls(max_terms=600)
    spec = CallSpec(strike=150.0, maturity=10.0)
    t = np.array([0.0, 2.5, 7.5, 9.9])
    x = np.array([100.0, 130.0, 140.0, 149.0])
    with np.errstate(over="raise", invalid="raise"):
        vals = call_value_surface(t, x, +1, params, spec, ctrl)
    ref = [call_price(replace(params, s0=xi), CallSpec(150.0, 10.0 - ti), ctrl).price
           for ti, xi in zip(t, x)]
    np.testing.assert_allclose(vals, ref, rtol=1e-10, atol=1e-13 * params.s0)


# --- special families ---------------------------------------------------------

def test_merton_collapse_both_branches():
    # branch 1: 0 < h < 1 with c > r; branch 2: h < 0 with c < r
    cases = [
        dict(c=0.1, r=0.05, h=0.5),
        dict(c=0.02, r=0.07, h=-0.4),
    ]
    for case in cases:
        ref = merton_price(case["c"], case["r"], case["h"], 100.0, 100.0, 1.0)
        # general engine with both regimes equal and jump -h
        params = ModelParams(
            c_plus=case["c"], c_minus=case["c"], lambda_plus=1.7,
            lambda_minus=1.7, h_plus=-case["h"], h_minus=-case["h"],
            r_plus=case["r"], r_minus=case["r"], s0=100.0, sigma0=1,
        )
        got = call_price(params, CallSpec(strike=100.0, maturity=1.0), CTRL).price
        assert got == pytest.approx(ref, rel=1e-10)


def test_merton_worked_point():
    # S0 = K = 100, T = 1, c = 0.1, r = 0.05, h = 0.5: every switch count
    # n <= 9 stays in the money and the price telescopes to
    # 100 (e^{-0.05} - e^{-0.15})
    ref = 100.0 * (math.exp(-0.05) - math.exp(-0.15))
    assert merton_price(0.1, 0.05, 0.5, 100.0, 100.0, 1.0) == pytest.approx(
        ref, rel=1e-12
    )


def test_merton_zero_when_unreachable():
    # max terminal stock 100 e^{0.1} < 120: worthless call
    assert merton_price(0.1, 0.05, 0.5, 100.0, 120.0, 1.0) == 0.0


def test_merton_deep_in_the_money_branch_two():
    # h < 0: the min terminal stock 100 e^{0.02} exceeds K = 90 (cutoff
    # n0 = -1), so the call is the forward S0 - K e^{-rT}
    c, r, h, strike = 0.02, 0.07, -0.4, 90.0
    ref = 100.0 - strike * math.exp(-r)
    got = merton_price(c, r, h, 100.0, strike, 1.0)
    assert got == pytest.approx(ref, rel=1e-10)
    params = ModelParams(
        c_plus=c, c_minus=c, lambda_plus=1.7, lambda_minus=1.7,
        h_plus=-h, h_minus=-h, r_plus=r, r_minus=r, s0=100.0, sigma0=1,
    )
    series = call_price(params, CallSpec(strike=strike, maturity=1.0), CTRL).price
    assert got == pytest.approx(series, rel=1e-10)


def test_symmetric_family_price_check():
    lam, c, r, h = 2.0, 0.4, 0.05, 0.35
    params = ModelParams(
        c_plus=r + c, c_minus=r - c, lambda_plus=lam, lambda_minus=lam,
        h_plus=-h, h_minus=h, r_plus=r, r_minus=r, s0=100.0, sigma0=1,
    )
    # independent binomial route equals the general series, both regimes
    for sigma0 in (+1, -1):
        p = replace(params, sigma0=sigma0)
        spec = CallSpec(strike=103.0, maturity=1.2)
        alt = symmetric_price_check(p, spec, CTRL)
        ref = call_price(p, spec, CTRL).price
        assert alt == pytest.approx(ref, rel=1e-11)


def test_symmetric_family_rejects_mismatch(asym_params):
    with pytest.raises(ValueError):
        symmetric_price_check(asym_params, CallSpec(100.0, 1.0), CTRL)


# --- generic quadrature pricer -----------------------------------------------

def test_european_price_F_identities(asym_params):
    intens = martingale_intensities(asym_params)
    t, x, sigma = 0.0, asym_params.s0, asym_params.sigma0
    # bond payoff: discounted-bond factor; stock payoff: the stock itself
    one = european_price_F(
        t, x, sigma, lambda s: np.ones_like(s), 1.0, asym_params, CTRL
    )
    u, _ = call_u_U(
        np.array([-1e9]), 1.0, sigma, asym_params, intens, CTRL, 1.0, 0.0
    )
    assert one == pytest.approx(float(u[0]), rel=1e-11)
    stock = european_price_F(
        t, x, sigma, lambda s: s, 1.0, asym_params, CTRL
    )
    assert stock == pytest.approx(asym_params.s0, rel=1e-11)


def test_european_price_F_matches_series_call(asym_params):
    spec = CallSpec(strike=104.0, maturity=0.9)
    ref = call_price(asym_params, spec, CTRL).price
    got = european_price_F(
        0.0, asym_params.s0, asym_params.sigma0,
        lambda s: np.maximum(s - spec.strike, 0.0), spec.maturity,
        asym_params, CTRL, payoff_breaks=(spec.strike,),
    )
    assert got == pytest.approx(ref, rel=1e-12)


def test_european_price_F_equal_velocities():
    # c_+ = c_-: the log-price drift is deterministic and the value is one
    # sum of full masses times payoff values (lambda* = 3 in both regimes)
    params = ModelParams(
        c_plus=-0.1, c_minus=-0.1, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=0.05, h_minus=0.05, r_plus=0.05, r_minus=0.05, s0=100.0, sigma0=+1,
    )
    for maturity in (0.5, 1.0, 2.5):
        for strike in (80.0, 100.0, 125.0):
            call = european_price_F(
                0.0, params.s0, params.sigma0,
                lambda s: max(s - strike, 0.0), maturity, params, CTRL,
            )
            assert type(call) is float
            ref = call_price(params, CallSpec(strike, maturity), CTRL).price
            # the branch stops on the bare mass tail, without the payoff's
            # size (~S0): it leaves up to 8.2e-12 of the sum here
            assert call == pytest.approx(ref, rel=1e-11, abs=1e-13 * params.s0)
        one = european_price_F(
            0.0, params.s0, params.sigma0, lambda s: 1.0, maturity, params, CTRL
        )
        assert one == pytest.approx(math.exp(-params.r_plus * maturity), rel=1e-12)
        stock = european_price_F(
            0.0, params.s0, params.sigma0, lambda s: s, maturity, params, CTRL
        )
        assert stock == pytest.approx(params.s0, rel=1e-12)
