import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from telegraph_market import mc
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import (
    ModelParams,
    PathState,
    conditional_means,
    martingale_defect,
    sample_switch_times,
    switch_state,
)
from telegraph_market.pricing import CallSpec, SeriesControls, call_price
from telegraph_market.quantile import QuantileSolution

from oracles import strategy_profit

CTRL = SeriesControls()


def test_simulate_terminals_worker_independent(asym_params):
    a = mc.simulate_terminals(asym_params, 1.0, 40_000, seed=3, n_workers=1)
    b = mc.simulate_terminals(asym_params, 1.0, 40_000, seed=3, n_workers=2)
    c = mc.simulate_terminals(asym_params, 1.0, 40_000, seed=3, n_workers=8)
    for other in (b, c):
        assert np.array_equal(a[0], other[0])
        assert np.array_equal(a[1], other[1])


@pytest.mark.parametrize("n_workers", [1, 2, 8])
def test_simulate_terminals_partial_last_block(asym_params, n_workers):
    # 2 full blocks and a partial one: every block's (N, occupation) lands
    # in its slice of the shared output, as switch_state gives it on that
    # block's draws, at any worker count, with threads switching often
    params = replace(asym_params, sigma0=-1)
    n_paths, seed = 2 * mc._BLOCK_SIZE + 123, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        n_sw, occ = mc.simulate_terminals(params, 1.5, n_paths, seed, n_workers=n_workers)
    finally:
        sys.setswitchinterval(interval)
    blocks = [
        switch_state(sample_switch_times(-1, 2.0, 1.5, 1.5, seed, block, cols), 1.5)
        for block, cols in enumerate((mc._BLOCK_SIZE, mc._BLOCK_SIZE, 123))
    ]
    assert n_sw.shape == occ.shape == (n_paths,)
    assert n_sw.dtype == blocks[0][0].dtype
    assert np.array_equal(n_sw, np.concatenate([b[0] for b in blocks]))
    assert np.array_equal(occ, np.concatenate([b[1] for b in blocks]))


def test_simulate_terminals_occupation_bounds(asym_params):
    n_sw, occ = mc.simulate_terminals(asym_params, 1.0, 20_000, seed=4)
    assert np.all((occ >= 0.0) & (occ <= 1.0))
    assert np.all(occ[n_sw == 0] == 1.0)
    inner = occ[n_sw >= 1]
    assert np.all((inner > 0.0) & (inner < 1.0))


def test_switch_counts_match_poisson_for_equal_rates():
    params = ModelParams(
        c_plus=0.3, c_minus=-0.3, lambda_plus=2.5, lambda_minus=2.5,
        h_plus=0.2, h_minus=0.2, r_plus=0.1, r_minus=0.1, s0=1.0, sigma0=1,
    )
    n_sw, _ = mc.simulate_terminals(params, 1.0, 200_000, seed=5)
    mean = n_sw.mean()
    se = n_sw.std(ddof=1) / math.sqrt(n_sw.size)
    assert abs(mean - 2.5) < 3 * se


def test_mc_price_matches_series(asym_params):
    spec = CallSpec(strike=100.0, maturity=1.0)
    ref = call_price(asym_params, spec, CTRL).price
    est = mc.mc_price(
        asym_params, lambda s: np.maximum(s - 100.0, 0.0), 1.0,
        200_000, seed=7,
    )
    assert abs(est.mean - ref) < 3 * est.std_error
    assert est.std_error < 0.002 * asym_params.s0


def test_mc_price_se_scaling(asym_params):
    payoff = lambda s: np.maximum(s - 100.0, 0.0)
    small = mc.mc_price(asym_params, payoff, 1.0, 50_000, seed=8)
    big = mc.mc_price(asym_params, payoff, 1.0, 200_000, seed=8)
    assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


def test_girsanov_route_agrees_with_direct(asym_params):
    payoff = lambda s: np.maximum(s - 100.0, 0.0)
    direct = mc.mc_price(asym_params, payoff, 1.0, 200_000, seed=9)
    rewt = mc.mc_price_girsanov(asym_params, payoff, 1.0, 200_000, seed=10)
    joint = math.hypot(direct.std_error, rewt.std_error)
    assert abs(direct.mean - rewt.mean) < 3 * joint


def test_girsanov_density_unit_mean():
    params = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    est = mc.mc_price_girsanov(
        params, lambda s: np.ones_like(s), 1.0, 400_000, seed=11
    )
    assert abs(est.mean - 1.0) < 3 * est.std_error


def test_martingale_identity_discounted_stock(asym_params):
    est = mc.mc_price(asym_params, lambda s: s, 1.0, 400_000, seed=12)
    assert abs(est.mean - asym_params.s0) < 3 * est.std_error


def test_mc_measure_validation(asym_params):
    with pytest.raises(ValueError):
        mc.mc_price(asym_params, lambda s: s, 1.0, 100, seed=1, measure="risk")


@pytest.mark.parametrize("n_paths", [1, 0, -3])
def test_estimators_refuse_fewer_than_two_paths(asym_params, n_paths, monkeypatch):
    # one path has no standard error (it read nan) and none had no mean;
    # every estimator refuses before it samples anything
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking n_paths")

    monkeypatch.setattr(mc, "sample_switch_times", no_sampling)
    payoff = lambda s: np.maximum(s - 100.0, 0.0)
    solution = QuantileSolution(
        gamma=1.0, regime_case="", thresholds=(None,), success_probability=1.0,
        budget=0.0, maturity=1.0, a=0.0, b=0.0,
    )
    jump_free = replace(
        asym_params, h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0
    )
    calls = (
        lambda: mc.mc_price(asym_params, payoff, 1.0, n_paths, seed=1),
        lambda: mc.mc_price(asym_params, payoff, 1.0, n_paths, seed=1, measure="physical"),
        lambda: mc.mc_price_girsanov(asym_params, payoff, 1.0, n_paths, seed=1),
        lambda: mc.mc_success_probability(asym_params, solution, n_paths, seed=1),
        lambda: mc.arbitrage_demo(jump_free, 105.0, 115.0, 1.0, n_paths, seed=1),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"n_paths must be at least 2, got {n_paths}"):
            call()


def test_two_paths_give_finite_estimates(asym_params):
    est = mc.mc_price(asym_params, lambda s: s, 1.0, 2, seed=3)
    assert est.n_paths == 2
    assert math.isfinite(est.mean) and math.isfinite(est.std_error)


def test_arbitrage_demo_jump_free():
    params = ModelParams(
        c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
        h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    res = mc.arbitrage_demo(params, 105.0, 115.0, 1.0, 20_000, seed=13)
    assert res.min_profit == 0.0
    assert res.p_positive.mean > 3 * res.p_positive.std_error
    assert np.all(res.profits >= 0.0)


def test_arbitrage_demo_validation():
    params = ModelParams(
        c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
        h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    with pytest.raises(ValueError):
        mc.arbitrage_demo(params, 95.0, 115.0, 1.0, 100, seed=1)  # A < s0
    with pytest.raises(ValueError):
        # B not reachable before the horizon
        mc.arbitrage_demo(params, 105.0, 200.0, 1.0, 100, seed=1)
    with pytest.raises(ValueError):
        mc.arbitrage_demo(
            replace(params, r_plus=0.05, r_minus=0.05), 105.0, 115.0,
            1.0, 100, seed=1,
        )


@pytest.mark.parametrize("measure", ["physical", "martingale"])
def test_arbitrage_demo_refuses_rates(asym_params, measure):
    # the demo does not discount: rates are refused under either measure,
    # with jumps too
    with pytest.raises(ValueError, match="r_plus = 0.08, r_minus = 0.05"):
        mc.arbitrage_demo(
            asym_params, 105.0, 115.0, 1.0, 20_000, seed=3, measure=measure
        )


def test_arbitrage_demo_martingale_control():
    # with admissible jumps under the martingale measure the same strategy
    # has zero expected profit
    params = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.4, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    res = mc.arbitrage_demo(
        params, 105.0, 115.0, 1.0, 100_000, seed=14, measure="martingale"
    )
    assert abs(res.mean_profit.mean) < 3 * res.mean_profit.std_error
    assert res.min_profit < 0.0  # losses do occur: no free lunch


JUMP_FREE = ModelParams(
    c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
    h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
)
JUMPY = ModelParams(
    c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
    h_plus=-0.2, h_minus=0.4, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
)
LOG_A, LOG_B = math.log(1.05), math.log(1.15)  # A = 105, B = 115, S0 = 100
B_MINUS_A = (math.exp(LOG_B) - math.exp(LOG_A)) * 100.0


def _check_against_loop(params, times, t_horizon, profits):
    """Block profits against the per-path event loop: exact where both
    trades are at a level or nothing is bought, within 1e-13 S0 elsewhere."""
    ref = np.array([
        strategy_profit(params, col[col < t_horizon], t_horizon, LOG_A, LOG_B)
        for col in times.T
    ])
    at_levels = np.isin(ref, [0.0, B_MINUS_A])
    assert np.array_equal(profits[at_levels], ref[at_levels])
    assert np.max(np.abs(profits - ref)) <= 1e-13 * params.s0
    return ref


# (market, sigma0, switch times below or at T = 1, expected profit: a
# value, or the sign of a profit with a non-level trade)
HAND_BUILT = {
    # rises through A at t = 0.12 and B at t = 0.35
    "continuous_entry_exit_at_B": (JUMP_FREE, +1, [], B_MINUS_A),
    # rises to 0.08 > ln A, then falls back to ln A
    "continuous_entry_exit_at_A": (JUMP_FREE, +1, [0.2], 0.0),
    # falls to -0.15, rises to 0.05 in (ln A, ln B) at the horizon
    "held_to_horizon": (JUMP_FREE, -1, [0.5], "+"),
    # turns down at 0.04 < ln A
    "never_enters": (JUMP_FREE, +1, [0.1], 0.0),
    # falls to -0.24; the jump ln 1.4 lands at 0.097 in [ln A, ln B); the
    # rise then reaches B
    "jump_entry": (JUMPY, -1, [0.8], "+"),
    # the jump lands at 0.31 >= ln B: bought and sold at once
    "jump_entry_at_B": (JUMPY, -1, [0.1], 0.0),
    # enters at A, the jump ln 0.8 at 0.1 lands at -0.12: sold below A
    "jump_through_A": (JUMPY, +1, [0.2], "-"),
    # jump entry at 0.051, held at 0.076 to the horizon: the switch at T
    # is no switch, so its jump ln 0.8 does not close the trade
    "switch_at_horizon": (JUMPY, -1, [0.95, 1.0], "+"),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_block_profits_every_branch(case):
    market, sigma0, switches, expected = HAND_BUILT[case]
    params = replace(market, sigma0=sigma0)
    # a second path behind it, so rows are trimmed to the longer column;
    # every column ends with a time past the horizon, as the sampler's do
    times = np.array([
        (switches + [2.0, 3.0, 4.0, 5.0])[:4],
        [0.3, 0.6, 0.9, 1.5],
    ]).T
    profits = mc._block_profits(params, times, 1.0, LOG_A, LOG_B)
    _check_against_loop(params, times, 1.0, profits)
    if expected == "+":
        assert profits[0] > 0.0
    elif expected == "-":
        assert profits[0] < 0.0
    else:
        assert profits[0] == expected


def _block(columns, rows):
    """A (rows, len(columns)) switch-time matrix: each column's switches,
    then times past the horizon T = 1, as the sampler's columns end."""
    return np.array([
        (list(col) + [2.0 + k for k in range(rows)])[:rows] for col in columns
    ]).T


def _one_column_profits(params, times, log_a=LOG_A, log_b=LOG_B):
    return np.array([
        mc._block_profits(params, col[:, None], 1.0, log_a, log_b)[0]
        for col in times.T
    ])


# short rises and long falls: never enters, decided only in the last row
LONG = {+1: [0.01, 0.5, 0.51, 0.99], -1: [0.49, 0.5, 0.98, 0.99]}


@pytest.mark.parametrize("market, sigma0", [
    (JUMP_FREE, +1), (JUMP_FREE, -1), (JUMPY, +1),
])
def test_block_profits_columns_are_independent(market, sigma0):
    params = replace(market, sigma0=sigma0)
    switches = [case[2] for case in HAND_BUILT.values()] * 3
    # a first switch past T decides a column at event 0
    columns = switches + [[], LONG[sigma0]]
    order = np.random.default_rng(5).permutation(len(columns))
    times = _block([columns[i] for i in order], 5)
    profits = mc._block_profits(params, times, 1.0, LOG_A, LOG_B)
    assert np.array_equal(profits, _one_column_profits(params, times))
    _check_against_loop(params, times, 1.0, profits)


def test_block_profits_all_decided_early():
    # every column is decided by event 3, in row 1 of 6: one reaches the
    # horizon unentered at event 0, one is bought and sold at event 1, and
    # one enters by a jump at 0.126 that the jump ln 0.8 closes below A at
    # event 3
    params = replace(JUMPY, sigma0=-1)
    times = _block([[], [0.1], [0.7, 0.71]] * 2, 6)
    profits = mc._block_profits(params, times, 1.0, LOG_A, LOG_B)
    assert np.array_equal(profits, _one_column_profits(params, times))
    ref = _check_against_loop(params, times, 1.0, profits)
    assert ref[2] < 0.0


def test_block_profits_no_entry():
    # levels out of reach: nothing is bought, every profit is exactly 0
    params = replace(JUMP_FREE, sigma0=+1)
    columns = [case[2] for case in HAND_BUILT.values()] + [[], LONG[+1]]
    times = _block(columns, 5)
    profits = mc._block_profits(params, times, 1.0, 1.0, 2.0)
    assert np.array_equal(profits, np.zeros(len(columns)))
    assert np.array_equal(profits, _one_column_profits(params, times, 1.0, 2.0))


# both jump onto ln A exactly: -0.24 + ln 1.4
@pytest.mark.parametrize("params, switches, sign", [
    # the share is bought there and kept until the rise reaches B
    (replace(JUMPY, sigma0=-1), [0.8], +1),
    # bought there; a flat (c = 0) segment at ln A neither rises nor falls,
    # so only the next jump, ln 0.8, closes the trade, at a loss
    (replace(JUMPY, c_plus=0.0, sigma0=-1), [0.8, 0.9], -1),
])
def test_jump_entry_exactly_at_a_holds(params, switches, sign):
    log_a = -0.3 * 0.8 + math.log1p(0.4)
    times = np.array([switches + [2.0]]).T
    profit = mc._block_profits(params, times, 1.0, log_a, LOG_B)[0]
    ref = strategy_profit(params, np.array(switches), 1.0, log_a, LOG_B)
    assert sign * ref > 1.0
    assert abs(profit - ref) <= 1e-13 * params.s0


@pytest.mark.parametrize("market, sigma0, measure", [
    (JUMP_FREE, +1, "physical"),
    (JUMP_FREE, -1, "physical"),
    (JUMPY, +1, "martingale"),
])
def test_arbitrage_demo_matches_event_loop(market, sigma0, measure):
    params = replace(market, sigma0=sigma0)
    n_paths, seed = mc._BLOCK_SIZE + 2_500, 31
    res = mc.arbitrage_demo(
        params, 105.0, 115.0, 1.0, n_paths, seed=seed, measure=measure
    )
    if measure == "martingale":
        intens = martingale_intensities(params)
        lam = intens.lambda_star_plus, intens.lambda_star_minus
    else:
        lam = params.lambda_plus, params.lambda_minus
    blocks = [
        sample_switch_times(sigma0, *lam, 1.0, seed, block, cols)
        for block, cols in ((0, mc._BLOCK_SIZE), (1, 2_500))
    ]
    ref = np.concatenate([
        _check_against_loop(
            params, b, 1.0,
            res.profits[k * mc._BLOCK_SIZE:k * mc._BLOCK_SIZE + b.shape[1]],
        )
        for k, b in enumerate(blocks)
    ])
    assert res.min_profit == ref.min()


def _in_success_set_loop(thresholds, n_sw, x):
    """The per-switch-count mask loop the gather replaced."""
    inside = np.ones(n_sw.size, dtype=bool)
    for n, thr in enumerate(thresholds):
        mask = n_sw == n
        if thr is None or not np.any(mask):
            continue
        if isinstance(thr, tuple):
            inside[mask] = (x[mask] <= thr[0]) | (x[mask] >= thr[1])
        else:
            inside[mask] = x[mask] <= thr
    return inside


def test_success_set_gather_matches_mask_loop():
    rng = np.random.default_rng(5)
    thresholds = (0.1, None, (-0.2, 0.3), -0.05, (0.0, 0.0), None, 0.25)
    n_sw = rng.integers(0, len(thresholds) + 3, size=20_000)
    x = rng.uniform(-0.5, 0.5, size=n_sw.size)
    x[:7] = [0.1, -0.2, 0.3, -0.05, 0.0, 0.25, 0.3]  # on the thresholds
    n_sw[:7] = [0, 2, 2, 3, 4, 6, 9]
    got = mc._in_success_set(thresholds, n_sw, x)
    assert np.array_equal(got, _in_success_set_loop(thresholds, n_sw, x))
    assert got[n_sw >= len(thresholds)].all()
    assert got[n_sw == 1].all() and not got.all()


def test_limit_scaling_check_monotone():
    errs = mc.limit_scaling_check(
        0.3, 0.2, 0.05, [1, 4, 16, 64], [-1.0, 0.5, 1.0], 1.0
    )
    worst = errs.max(axis=1)
    assert np.all(np.diff(worst) < 0)
    assert worst[-1] < 0.02


def test_limit_scaling_zero_argument_exact():
    errs = mc.limit_scaling_check(0.3, 0.2, 0.05, [1, 4], [0.0], 1.0)
    assert np.all(errs < 1e-10)


def test_limit_scaling_pure_velocity_case():
    # v_a = 0: jump-free telegraph scaling, same convergence
    errs = mc.limit_scaling_check(0.3, 0.0, 0.1, [1, 4, 16, 64], [1.0], 1.0)
    assert np.all(np.diff(errs[:, 0]) < 0)
    assert errs[-1, 0] < 0.02


def _terminal_xj(params, t, n_paths, seed):
    st = PathState(params.sigma0, t, *mc.simulate_terminals(params, t, n_paths, seed))
    return (
        st.telegraph(params.c_plus, params.c_minus),
        st.jump_sum(params.h_plus, params.h_minus),
    )


@pytest.mark.parametrize("sigma0, seed", [(+1, 21), (-1, 22)])
def test_conditional_means_match_simulation(asym_params, sigma0, seed):
    params = replace(asym_params, sigma0=sigma0)
    t, n = 1.3, 400_000
    x, j = _terminal_xj(params, t, n, seed)
    mean_j, mean_x = conditional_means(params, sigma0, t)
    for vals, ref in ((x, mean_x), (j, mean_j)):
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - ref) < 4 * se


def test_martingale_defect_zero_means_driftless():
    # lambda_s h_s + c_s = 0 in both regimes: X + J is a P-martingale
    params = ModelParams(
        c_plus=0.4, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5,
        h_plus=-0.2, h_minus=0.2, r_plus=0.05, r_minus=0.05, s0=100.0, sigma0=1,
    )
    assert martingale_defect(params) == pytest.approx((0.0, 0.0), abs=1e-15)
    n = 400_000
    x, j = _terminal_xj(params, 1.3, n, 23)
    vals = x + j
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / math.sqrt(n)
