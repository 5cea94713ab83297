import math
from dataclasses import replace

import numpy as np
import pytest

from telegraph_market.errors import ArbitrageError
from telegraph_market.measure import martingale_intensities, no_arbitrage_check
from telegraph_market.model import (
    PathState,
    RegimePath,
    path_state,
    sample_path,
    switch_state,
)


def _girsanov(st, intens):
    """Z = e^{X*} kappa*_N at a path state."""
    return st.jump_exponential(
        intens.c_star_plus, intens.c_star_minus,
        intens.h_star_plus, intens.h_star_minus,
    )


def test_no_arbitrage_ok(asym_params):
    rep = no_arbitrage_check(asym_params)
    assert rep.ok
    assert rep.ratio_plus > 0 and rep.ratio_minus > 0


def test_no_arbitrage_violations(asym_params):
    # jump sign agreeing with the excess drift sign admits arbitrage
    bad = replace(asym_params, h_plus=0.2)  # r+ - c+ < 0 needs h+ < 0
    rep = no_arbitrage_check(bad)
    assert not rep.ok
    with pytest.raises(ArbitrageError):
        martingale_intensities(bad)


def test_zero_jump_diagnosed(asym_params):
    rep = no_arbitrage_check(replace(asym_params, h_plus=0.0))
    assert not rep.ok
    assert "h = 0" in rep.detail


def test_intensities_identities(asym_params):
    intens = martingale_intensities(asym_params)
    for sigma in (+1, -1):
        lam_star = (asym_params.r(sigma) - asym_params.c(sigma)) / asym_params.h(
            sigma
        )
        assert intens.lambda_star(sigma) == pytest.approx(lam_star, rel=1e-14)
        assert lam_star > 0
        # c* = lambda + (c - r)/h and h* = -c*/lambda tie the starred regime
        # parameters to the physical ones through lambda* = lambda (1 + h*)
        assert intens.lambda_star(sigma) == pytest.approx(
            asym_params.lam(sigma) * (1.0 + intens.h_star(sigma)), rel=1e-13
        )
        assert intens.h_star(sigma) > -1.0


def test_girsanov_density_positive_and_unit_mean(asym_params):
    t = 1.0
    n = 40000
    paths = [sample_path(asym_params, t, seed=123, path_index=i) for i in range(n)]
    # one column per path, padded with inf past its last switch: a padded row
    # adds t - t = +0.0 to the occupation, so every value is the path's own
    rows = max(len(p.switch_times) for p in paths)
    times = np.full((rows, n), np.inf)
    for j, path in enumerate(paths):
        times[:len(path.switch_times), j] = path.switch_times
    st = PathState(asym_params.sigma0, t, *switch_state(times, t))
    vals = _girsanov(st, martingale_intensities(asym_params))
    assert np.all(vals > 0)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_girsanov_density_no_switch_value(asym_params):
    intens = martingale_intensities(asym_params)
    path = RegimePath(sigma0=+1, switch_times=(), horizon=1.0)
    expected = math.exp(intens.c_star_plus * 1.0)
    assert _girsanov(path_state(path, 1.0), intens) == pytest.approx(
        expected, rel=1e-14
    )
