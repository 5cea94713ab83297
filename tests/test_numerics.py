import math

import numpy as np
import pytest

from telegraph_market.numerics import (
    gauss_legendre_nodes,
    gauss_legendre_rule,
    log_factorial,
)


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
