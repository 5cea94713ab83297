import math
from dataclasses import replace

import numpy as np
import pytest

from telegraph_market.hedging import (
    hedge_ratio,
    make_call_pricer,
    replication_backtest,
)
from telegraph_market.model import RegimePath, path_state, sample_path
from telegraph_market.pricing import (
    CallSpec,
    SeriesControls,
    call_price,
    call_value_surface,
)

from oracles import replication_backtest_every_point
from probes import LEFT_LIMIT_EPS, hedge_ratio_left_gaps, pde_residual

CTRL = SeriesControls()


@pytest.fixture(scope="module")
def pricer_and_params():
    from telegraph_market.model import ModelParams

    params = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.08, r_minus=0.05,
        s0=100.0, sigma0=+1,
    )
    spec = CallSpec(strike=100.0, maturity=1.0)
    return make_call_pricer(params, spec, CTRL), params, spec


def test_hedge_ratio_deep_in_the_money(pricer_and_params):
    pricer, params, spec = pricer_and_params
    # phi -> 1 like O(K/S) deep in the money (regime discount factors differ)
    phi = hedge_ratio(0.0, 400.0, +1, pricer, params)
    assert phi == pytest.approx(1.0, abs=0.05)
    phi_far = hedge_ratio(0.0, 4000.0, +1, pricer, params)
    assert abs(phi_far - 1.0) < abs(phi - 1.0) / 5.0
    phi_out = hedge_ratio(0.9, 20.0, +1, pricer, params)
    assert abs(phi_out) < 1e-6


def test_hedge_ratio_shape(pricer_and_params):
    # the jump hedge ratio is a difference quotient of a convex value
    # function: increasing in S and close to [0, 1] without being pinned to it
    pricer, params, _ = pricer_and_params
    s = np.linspace(60.0, 160.0, 11)
    for sigma in (+1, -1):
        phi = hedge_ratio(0.3, s, sigma, pricer, params)
        assert np.all(phi >= -0.01) and np.all(phi <= 1.05)
        # strictly increasing through the at-the-money region
        mid = phi[(s >= 80.0) & (s <= 120.0)]
        assert np.all(np.diff(mid) > 0)


def test_hedge_ratio_zero_jump_rejected(pricer_and_params):
    pricer, params, _ = pricer_and_params
    bad = replace(params, h_plus=0.0)
    with pytest.raises(ValueError):
        hedge_ratio(0.0, 100.0, +1, pricer, bad)


def test_hedge_ratio_left_continuous_at_jumps(pricer_and_params):
    # approaching a switch from the left, the hedge ratio tends to the one
    # held across it, computed from the pre-switch state (S(tau-), sigma(tau-));
    # the gap is linear in eps (measured max gap / eps 2.41 over 70 events)
    pricer, params, spec = pricer_and_params
    paths = [sample_path(params, spec.maturity, seed=5, path_index=i)
             for i in range(40)]
    gaps = hedge_ratio_left_gaps(paths, params, pricer, spec.maturity)
    assert gaps.shape[1] > 50
    for row, eps in zip(gaps, LEFT_LIMIT_EPS):
        assert row.max() <= 5.0 * eps


def test_pde_residual_linear_payoff_exact(pricer_and_params):
    _, params, _ = pricer_and_params
    # F(t, x, sigma) = x solves the pricing equation exactly: central
    # differences are exact for linear functions at any spacing
    def stock_f(t, x, sigma):
        return np.asarray(x, dtype=float)

    resid = pde_residual(
        stock_f, np.array([0.2, 0.5]), np.array([80.0, 100.0, 125.0]),
        +1, params, dt=0.05, dx=5.0,
    )
    assert resid <= 1e-10 * params.s0


def test_pde_residual_call_price_small(pricer_and_params):
    pricer, params, _ = pricer_and_params
    resid = pde_residual(
        pricer, np.array([0.3, 0.6]), np.array([90.0, 105.0, 120.0]),
        +1, params, dt=1e-4, dx=1e-2,
    )
    assert resid < 1e-5 * params.s0


def test_replication_stock_payoff_exact(pricer_and_params):
    _, params, spec = pricer_and_params
    paths = [sample_path(params, spec.maturity, seed=17, path_index=i)
             for i in range(20)]
    stats = replication_backtest(
        paths, spec, params, 400,
        pricer_f=lambda t, x, sigma: np.asarray(x, dtype=float),
        payoff=lambda s: s,
        initial_capital=params.s0,
        controls=CTRL,
    )
    assert stats.max_abs_error < 1e-9 * params.s0


def test_replication_call_error_shrinks(pricer_and_params):
    pricer, params, spec = pricer_and_params
    paths = [sample_path(params, spec.maturity, seed=29, path_index=i)
             for i in range(40)]
    coarse = replication_backtest(
        paths, spec, params, 250, pricer_f=pricer, controls=CTRL
    )
    fine = replication_backtest(
        paths, spec, params, 1000, pricer_f=pricer, controls=CTRL
    )
    assert coarse.initial_capital == pytest.approx(
        call_price(params, spec, CTRL).price, rel=1e-12
    )
    assert fine.mean_abs_error < coarse.mean_abs_error
    # first-order scheme: quadrupling the grid should shrink the mean error
    # by roughly 4 (generous band: path-dependent constants)
    ratio = coarse.mean_abs_error / fine.mean_abs_error
    assert 2.0 < ratio < 8.0


def test_replication_hits_payoff(pricer_and_params):
    pricer, params, spec = pricer_and_params
    paths = [sample_path(params, spec.maturity, seed=31, path_index=i)
             for i in range(10)]
    stats = replication_backtest(
        paths, spec, params, 2000, pricer_f=pricer, controls=CTRL
    )
    assert stats.mean_abs_error < 5e-3 * params.s0
    assert stats.errors.shape == (10,)


def test_replication_exact_on_no_switch_path(pricer_and_params):
    # a path with no switches: the hedge grows deterministically and must
    # land on the payoff up to grid error only in the phi rebalancing
    pricer, params, spec = pricer_and_params
    path = RegimePath(sigma0=+1, switch_times=(), horizon=spec.maturity)
    stats = replication_backtest(
        [path], spec, params, 4000, pricer_f=pricer, controls=CTRL
    )
    assert stats.max_abs_error < 2e-3 * params.s0


def test_replication_refuses_no_paths(pricer_and_params):
    pricer, params, spec = pricer_and_params
    with pytest.raises(ValueError, match="replication needs at least one path"):
        replication_backtest([], spec, params, 10, pricer_f=pricer, controls=CTRL)


def _asym_round(params, maturity, n_paths, seed=3):
    return [sample_path(params, maturity, seed=seed, path_index=i)
            for i in range(n_paths)]


def _backtest_cases(params, spec):
    """(name, paths, n_steps, extra keywords) inputs on which the backtest
    must match the every-point reference."""
    minus = replace(params, sigma0=-1)
    mixed = _asym_round(params, spec.maturity, 15, 7) + _asym_round(
        minus, spec.maturity, 15, 8
    )
    on_grid = float(np.linspace(0.0, spec.maturity, 301)[90])
    custom = dict(pricer_f=lambda t, x, sigma: np.where(sigma == 1, 1.1, 0.9)
                 * np.maximum(np.asarray(x) - 90.0 * np.exp(t - 1.0), 0.0),
                 payoff=lambda s: np.maximum(s - 90.0, 0.0))
    return [
        ("asym round", _asym_round(params, spec.maturity, 40), 300, {}),
        ("both starting regimes", mixed, 300, {}),
        ("no switch before maturity", _asym_round(params, spec.maturity, 10, 9) + [
            RegimePath(+1, (), 2.0), RegimePath(+1, (1.5,), 2.0)], 300, {}),
        ("first switch on a grid time", _asym_round(params, spec.maturity, 10) + [
            RegimePath(+1, (on_grid, 0.6), spec.maturity)], 300, {}),
        ("single path", _asym_round(params, spec.maturity, 1), 300, {}),
        ("one step", _asym_round(params, spec.maturity, 20), 1, {}),
        ("custom pricer", mixed, 300, custom),
    ]


def test_replication_matches_every_point_reference(pricer_and_params):
    # pricing the shared no-switch prefix once changes no number: every case
    # agrees with the reference bit for bit
    pricer, params, spec = pricer_and_params
    for name, paths, n_steps, kw in _backtest_cases(params, spec):
        kw = {"pricer_f": pricer, **kw}
        got = replication_backtest(paths, spec, params, n_steps, **kw)
        ref = replication_backtest_every_point(paths, spec, params, n_steps, **kw)
        assert got.initial_capital == ref.initial_capital, name
        assert np.array_equal(got.errors, ref.errors), name
        assert got.min_capital == ref.min_capital, name
        assert got.admissible == ref.admissible, name


def test_replication_plain_pricer_matches_call_pricer(pricer_and_params):
    # a plain F(t, x, sigma) takes the two-call form of the hedge ratio, the
    # call pricer one pass for both states: the same backtest up to rounding
    pricer, params, spec = pricer_and_params
    minus = replace(params, sigma0=-1)
    paths = _asym_round(params, spec.maturity, 20, 7) + _asym_round(
        minus, spec.maturity, 20, 8
    )

    def plain(t, x, sigma):
        return call_value_surface(t, x, sigma, params, spec, CTRL)

    assert not hasattr(plain, "value_and_jump")
    got = replication_backtest(paths, spec, params, 300, pricer_f=pricer)
    ref = replication_backtest(paths, spec, params, 300, pricer_f=plain)
    tol = 1e-13 * params.s0
    np.testing.assert_allclose(got.errors, ref.errors, rtol=0, atol=tol)
    assert got.min_capital == pytest.approx(ref.min_capital, rel=0, abs=tol)
    assert got.mean_abs_error == pytest.approx(ref.mean_abs_error, rel=0, abs=tol)
    assert got.initial_capital == ref.initial_capital


def test_replication_prices_each_state_once(pricer_and_params):
    # the paths share their uniform-grid states up to the first switch; the
    # backtest prices each distinct (t, S, sigma) state once, with the two
    # pricer points of its hedge ratio, also where a switch falls on a grid
    # time
    pricer, params, spec = pricer_and_params
    on_grid = float(np.linspace(0.0, spec.maturity, 301)[90])
    paths = _asym_round(params, spec.maturity, 40) + [
        RegimePath(+1, (on_grid, 0.6), spec.maturity)
    ]
    calls = []

    def spy(t, x, sigma):
        calls.append(np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float)))
        return pricer(t, x, sigma)

    replication_backtest(paths, spec, params, 300, pricer_f=spy, controls=CTRL)
    uniform = np.linspace(0.0, spec.maturity, 301)
    states = []
    for path in paths:
        times = np.unique(np.concatenate((uniform, path.switch_times)))[:-1]
        st = path_state(path, times)
        states.append(np.column_stack((times, st.stock(params), st.regime())))
    n_states = np.unique(np.concatenate(states), axis=0).shape[0]
    for t, x in calls:
        assert np.unique(np.column_stack((t, x)), axis=0).shape[0] == t.size
    assert sum(t.size for t, _ in calls) == 2 * n_states
