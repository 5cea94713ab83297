import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e as scipy_i0e, i1e as scipy_i1e

import telegraph_market.densities as densities
from telegraph_market.densities import (
    DensityParams,
    density_total,
    kolmogorov_residual,
    log_q_n,
    mgf,
    p_n,
    p_n_continuous,
    q_n,
)
from telegraph_market.errors import DivergenceError

from oracles import mgf_series, switch_count_masses_ode

DENS = DensityParams(c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5)


def _mass(n, t, sigma, params):
    if n == 0:
        return math.exp(-params.lam(sigma) * t)
    f = lambda x: p_n_continuous(x, t, n, sigma, params)
    out, _ = quad(f, params.c_minus * t, params.c_plus * t,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    return out


@pytest.mark.parametrize("sigma", [+1, -1])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_per_n_masses_match_ode_oracle(sigma, t):
    lam_first = DENS.lam(sigma)
    lam_second = DENS.lam(-sigma)
    oracle = switch_count_masses_ode(lam_first, lam_second, t, 12)
    for n in range(13):
        assert _mass(n, t, sigma, DENS) == pytest.approx(
            oracle[n], rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("sigma", [+1, -1])
def test_density_supports(sigma):
    t = 1.3
    x = np.array([DENS.c_minus * t - 0.01, DENS.c_plus * t + 0.01])
    for n in range(1, 5):
        assert np.all(p_n_continuous(x, t, n, sigma, DENS) == 0.0)
    val = density_total(x, t, sigma, DENS)
    assert np.all(np.atleast_1d(val.continuous) == 0.0)


def test_p0_is_pure_atom():
    t = 0.7
    val = p_n(np.array([0.0]), t, 0, +1, DENS)
    assert val.atom_weight == pytest.approx(math.exp(-DENS.lambda_plus * t))
    assert val.atom_location == pytest.approx(DENS.c_plus * t)
    assert np.all(np.atleast_1d(val.continuous) == 0.0)


@pytest.mark.parametrize("sigma", [+1, -1])
def test_total_density_equals_series(sigma):
    t = 1.0
    x = np.linspace(DENS.c_minus * t + 1e-9, DENS.c_plus * t - 1e-9, 41)
    total = np.atleast_1d(density_total(x, t, sigma, DENS).continuous)
    series = sum(p_n_continuous(x, t, n, sigma, DENS) for n in range(1, 60))
    assert np.allclose(total, series, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("sigma", [+1, -1])
def test_total_density_normalization(sigma):
    t = 1.5
    val = density_total(np.array([0.0]), t, sigma, DENS)
    integral, _ = quad(
        lambda x: float(np.atleast_1d(density_total(x, t, sigma, DENS).continuous)[0]),
        DENS.c_minus * t, DENS.c_plus * t, epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    assert val.atom_weight + integral == pytest.approx(1.0, abs=1e-10)


def test_q_n_odd_intensity_assignment():
    # the sigma = +1 one-switch kernel carries lambda_+ (and the mass of the
    # first-switch event), pinned by the exact one-switch mass
    t = 1.0
    m1 = _mass(1, t, +1, DENS)
    lam_f, lam_s = DENS.lambda_plus, DENS.lambda_minus
    exact = (
        lam_f / (lam_f - lam_s) * (math.exp(-lam_s * t) - math.exp(-lam_f * t))
    )
    assert m1 == pytest.approx(exact, rel=1e-10)


def test_log_density_vectorized_over_n():
    # one (N x Q) call with a column of switch counts equals the per-n
    # kernels row by row
    t = 1.3
    x = np.linspace(DENS.c_minus * t, DENS.c_plus * t, 41)[1:-1]
    n = np.arange(1, 16)[:, None]
    for sigma in (+1, -1):
        rows = np.exp(log_q_n(x, t, n, sigma, DENS))
        assert rows.shape == (15, x.size)
        for k in range(15):
            ref = q_n(x, t, k + 1, sigma, DENS)
            assert np.allclose(rows[k], ref, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        log_q_n(x, t, np.array([[0], [1]]), +1, DENS)


def test_bessel_series_vs_scipy():
    # e^{-z} I_0 and e^{-z} I_1 / (z / 2): the series up to z = 30, the
    # large-argument expansion beyond, both sides of the switch and far past
    # the old ceiling z = 650, where I_0 alone overflows
    z = np.concatenate([np.linspace(0.0, 40.0, 57), [29.999, 30.0, 30.001],
                        np.logspace(1.5, 200.0, 60)])
    i0, i1_half = densities._scaled_bessel(z)
    np.testing.assert_allclose(i0, scipy_i0e(z), rtol=1e-14, atol=0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(z > 0, scipy_i1e(z) / (z / 2.0), 1.0)
    np.testing.assert_allclose(i1_half, ratio, rtol=1e-14, atol=0.0)
    assert densities._scaled_bessel(np.float64(0.0)).tolist() == [1.0, 1.0]


def test_mgf_normalizes_at_zero():
    for sigma in (+1, -1):
        assert mgf(0.0, 2.0, sigma, DENS, 0.1, -0.2) == pytest.approx(1.0, abs=1e-12)


def test_mgf_matches_direct_expectation():
    # E[e^{z(X + ln kappa_N)}] by quadrature over the per-n densities
    z, t, sigma, hp, hm = 0.8, 1.0, +1, -0.2, 0.4
    val = mgf(z, t, sigma, DENS, hp, hm)
    from telegraph_market.model import kappa

    # kappa enters as e^{z ln kappa_n} = kappa_n^z
    acc = math.exp(z * DENS.c(sigma) * t) * math.exp(-DENS.lam(sigma) * t)
    for n in range(1, 60):
        kap = kappa(n, sigma, hp, hm)
        f = lambda x: math.exp(z * x) * p_n_continuous(x, t, n, sigma, DENS)
        part, _ = quad(f, DENS.c_minus * t, DENS.c_plus * t,
                       epsabs=1e-15, epsrel=1e-13, limit=200)
        acc += kap**z * part
    assert val == pytest.approx(acc, rel=1e-9)


# (density parameters, h_plus, h_minus): the suite's asymmetric market, the
# double-threshold quantile market and the jump-free arbitrage market
MGF_MARKETS = {
    "asym": (DENS, -0.2, 0.4),
    "double": (DensityParams(c_plus=0.1, c_minus=-0.4, lambda_plus=1.0, lambda_minus=1.5), 0.05, 0.5),
    "jump_free": (DensityParams(c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0), 0.0, 0.0),
}


@pytest.mark.parametrize("market", sorted(MGF_MARKETS))
def test_mgf_closed_form_matches_series_oracle(market):
    # 3 markets x 4 z x 3 t x 2 regimes = 72 inputs
    dens, hp, hm = MGF_MARKETS[market]
    for z in (-1.0, 0.5, 1.0, 2.0):
        for t in (0.3, 1.0, 2.5):
            for sigma in (+1, -1):
                ref = mgf_series(z, t, sigma, dens, hp, hm)
                assert mgf(z, t, sigma, dens, hp, hm) == pytest.approx(ref, rel=1e-10)


def test_mgf_closed_form_matches_series_oracle_at_level_256():
    # level 256 of the diffusion-limit family (v_c = 0.3, v_a = 0.2, mu = 0.05):
    # lambda t = 256, where the series needs its 2 e lambda t term budget
    lam, root = 256.0, 16.0
    a = 0.05 - 0.2 * root
    dens = DensityParams(
        c_plus=a + 0.3 * root, c_minus=a - 0.3 * root, lambda_plus=lam, lambda_minus=lam
    )
    h = math.exp(0.2 / root) - 1.0
    ref = mgf_series(1.0, 1.0, +1, dens, h, h, max_terms=math.ceil(2.0 * math.e * lam))
    assert mgf(1.0, 1.0, +1, dens, h, h) == pytest.approx(ref, rel=1e-10)


def test_mgf_divergence_flagged():
    # huge z with huge positive jumps: the kappa^z factors outgrow the
    # Poisson tail and e^{t l_1} (l_1 about 1e53) leaves the float range
    with pytest.raises(DivergenceError):
        mgf(40.0, 1.0, +1, DENS, 20.0, 20.0)


def test_kolmogorov_residual_small_and_perturbation_detected(monkeypatch):
    t = 1.0
    x_grid = np.linspace(DENS.c_minus * t * 0.5, DENS.c_plus * t * 0.5, 9)
    rep = kolmogorov_residual(DENS, 3, +1, t, x_grid, dx=1e-4, dt=1e-4)
    assert rep.max_residual < 1e-5
    # scale the n = 3 values by 1.01, leaving the n = 2 source as it is
    real = densities.p_n_continuous
    monkeypatch.setattr(
        densities, "p_n_continuous",
        lambda x, t, n, *rest: real(x, t, n, *rest) * (1.01 if n == 3 else 1.0),
    )
    bad = kolmogorov_residual(DENS, 3, +1, t, x_grid, dx=1e-4, dt=1e-4)
    assert bad.max_residual > 100 * rep.max_residual


def test_density_params_validation():
    with pytest.raises(ValueError):
        DensityParams(c_plus=-0.1, c_minus=0.1, lambda_plus=1.0, lambda_minus=1.0)
    with pytest.raises(ValueError):
        DensityParams(c_plus=0.5, c_minus=-0.3, lambda_plus=0.0, lambda_minus=1.0)
