import math

import numpy as np
import pytest
from scipy.linalg import expm

from telegraph_market.numerics import (
    expm_2x2_row_sums,
    gauss_legendre_rule,
    geometric_root,
    log_factorial,
    poisson_tail_bounds,
)

from oracles import gauss_legendre_nodes


def test_gauss_legendre_rule_cached_and_read_only():
    x, w = gauss_legendre_rule(40)
    assert gauss_legendre_rule(40)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(40)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_gauss_legendre_nodes_map_the_reference_rule():
    # only the affine map is per call; the result is the mapped leggauss rule
    a, b = -0.3, 0.7
    nodes, weights = gauss_legendre_nodes(a, b, 25)
    ref_x, ref_w = np.polynomial.legendre.leggauss(25)
    assert np.array_equal(nodes, 0.5 * (a + b) + 0.5 * (b - a) * ref_x)
    assert np.array_equal(weights, 0.5 * (b - a) * ref_w)
    assert nodes.flags.writeable
    assert weights @ nodes**3 == pytest.approx((b**4 - a**4) / 4, rel=1e-14)


def test_log_factorial_matches_lgamma_at_any_size():
    # the table has no upper bound: a k past its current length grows it,
    # and the values already read do not change
    small = log_factorial(np.arange(10))
    assert np.array_equal(small, [math.lgamma(k + 1) for k in range(10)])
    big = np.array([[0], [171], [5000]])
    assert log_factorial(big).shape == (3, 1)
    ref = [math.lgamma(k + 1) for k in (0, 171, 5000)]
    assert np.array_equal(log_factorial(big)[:, 0], ref)
    assert log_factorial(7) == math.lgamma(8)
    assert np.array_equal(log_factorial(np.arange(10)), small)


def test_poisson_tail_bound_past_float_range_is_inf():
    # log of the head term is about 745 at n = 800, past exp's range
    bounds = poisson_tail_bounds(750.0, 1100)
    assert bounds[800] == math.inf
    assert 0.0 < bounds[1100] < 1e300


def test_geometric_root_smooth_and_jump():
    calls = []

    def cube(x):
        calls.append(x)
        return x**3 - 10.0

    root = geometric_root(cube, 1.0, 4.0, rtol=1e-14)
    assert abs(root - 10.0 ** (1.0 / 3.0)) <= 2e-14 * root
    # 2 bracket points, then superlinear steps; bisection would take ~47
    assert len(calls) <= 12
    # downward search, and the start's own value passed in
    root = geometric_root(lambda x: 0.5 - x, 64.0, 0.25, f_start=-63.5, rtol=1e-14)
    assert abs(root - 0.5) <= 1e-14
    # a jump instead of a root: the bracket closes on it
    jump = 2.0 / 3.0
    root = geometric_root(lambda x: 1.0 if x < jump else -1.0, 0.1, 4.0, rtol=1e-13)
    assert abs(root - jump) <= 1e-13 * jump
    # absolute tolerance, and no sign change at all
    root = geometric_root(lambda x: x - 1e-9, 1e-12, 4.0, rtol=1e-13, abs_tol=1e-12)
    assert abs(root - 1e-9) <= 1e-12
    assert geometric_root(lambda x: 1.0 + x, 1.0, 4.0, rtol=1e-13) is None


@pytest.mark.parametrize(
    "k, t",
    [
        ((-2.0, 2.0, 1.5, -1.5), 1.0),  # a generator: the row sums are 1
        ((0.3, 1.7, 0.2, -2.5), 2.5),
        ((-1.0, 1e-9, 1e-9, -1.0), 3.0),  # nearly equal eigenvalues
        ((-300.0, 256.0, 256.0, -260.0), 1.0),  # m + rho small against m
    ],
)
def test_expm_2x2_row_sums_match_scipy_expm(k, t):
    k11, k12, k21, k22 = k
    ref = expm(t * np.array([[k11, k12], [k21, k22]])) @ np.ones(2)
    assert np.allclose(expm_2x2_row_sums(k11, k12, k21, k22, t), ref, rtol=1e-12, atol=0.0)


def test_expm_2x2_row_sums_overflow_raises():
    # e^{(m + rho)t} = e^10 fits, but the first row's k12 * spread does not
    with pytest.raises(OverflowError):
        expm_2x2_row_sums(0.0, 1e305, 1e-305, 0.0, 10.0)
    with pytest.raises(OverflowError):
        expm_2x2_row_sums(800.0, 1.0, 1.0, 800.0, 1.0)  # e^{(m + rho)t} itself
