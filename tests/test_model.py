import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import telegraph_market.model as model
from telegraph_market import mc
from telegraph_market.errors import TruncationError
from telegraph_market.measure import martingale_intensities
from telegraph_market.model import (
    ModelParams,
    PathState,
    RegimePath,
    linear_transform_coeffs,
    log_kappa_sequence,
    path_rng,
    path_state,
    regime_at,
    sample_path,
    sample_switch_times,
    stock_price,
    switch_state,
)

from oracles import kappa, switch_state_concat_diff


def test_params_validation(asym_params):
    with pytest.raises(ValueError):
        replace(asym_params, lambda_plus=0.0)
    with pytest.raises(ValueError):
        replace(asym_params, h_plus=-1.0)
    with pytest.raises(ValueError):
        replace(asym_params, c_plus=-0.5)  # below c_minus
    with pytest.raises(ValueError):
        replace(asym_params, r_minus=-0.01)
    with pytest.raises(ValueError):
        replace(asym_params, s0=0.0)
    with pytest.raises(ValueError):
        replace(asym_params, sigma0=2)


def test_path_rng_deterministic():
    a = path_rng(11, 3).standard_normal(5)
    b = path_rng(11, 3).standard_normal(5)
    c = path_rng(11, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_rng_keys_past_int64():
    # seeds enter the Philox key modulo 2^64 as exact integers: no two of
    # these seeds share a stream, seed -1 names the stream of 2^64 - 1, and
    # no RuntimeWarning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = [
            path_rng(seed, 3).standard_exponential()
            for seed in (2**63, 2**63 + 5, -1, -2, 2**64 - 1)
        ]
    assert len(set(first[:4])) == 4
    assert first[2] == first[4]


def test_sample_path_reproducible(asym_params):
    p1 = sample_path(asym_params, 2.0, seed=5, path_index=9)
    p2 = sample_path(asym_params, 2.0, seed=5, path_index=9)
    assert p1 == p2
    assert all(0 < t < 2.0 for t in p1.switch_times)
    assert list(p1.switch_times) == sorted(p1.switch_times)


def test_sample_switch_times_carries_one_stream_across_chunks():
    # from under one to ~750 switches per path: up to hundreds of chunks per
    # column; the row-by-row running sum equals np.cumsum over the same
    # stream, bit for bit, from either starting regime, for one path and for
    # many, and the sampler stops at the first whole chunk past the horizon
    # in every column
    for lam, horizon, sigma0, n_cols in itertools.product(
        ((2.0, 1.5), (10.0, 9.72), (50.0, 48.0)), (0.3, 3.0, 15.0), (+1, -1), (1, 300)
    ):
        times = sample_switch_times(sigma0, *lam, horizon, seed=4, key=2, n_cols=n_cols)
        rows, chunk = times.shape[0], model._CHUNK_ROWS
        needed = int(np.sum(times <= horizon, axis=0).max()) + 1
        assert rows == chunk * math.ceil(needed / chunk)
        assert np.all(times[-1] > horizon)
        first, second = lam if sigma0 == +1 else lam[::-1]
        rates = np.where(np.arange(rows) % 2 == 0, first, second)[:, None]
        one_shot = np.cumsum(
            path_rng(4, 2).standard_exponential(size=(rows, n_cols)) / rates, axis=0
        )
        assert np.array_equal(times, one_shot)


def test_sample_switch_times_budget():
    # an expected switch count above the budget is refused by the horizon's
    # name before any draw, where the sampler would run for hours or never
    # end; the lambda* = 50 market at T = 15 (750 switches) stays inside it
    for horizon in (1e300, 1e6):
        with pytest.raises(TruncationError, match=re.escape(f"horizon = {horizon!r}:")):
            sample_switch_times(+1, 2.0, 1.5, horizon, seed=0, key=0, n_cols=1)
    assert sample_switch_times(+1, 50.0, 50.0, 15.0, seed=0, key=0, n_cols=2).shape[0] > 600


def test_chunk_size_keeps_every_number(monkeypatch, asym_params):
    # one Philox stream fills the rows in order, so every even chunk size
    # gives the same switch times, terminal states and strategy profits, and
    # so does a buffer that starts at one chunk and doubles as columns
    # outlive it; the size must be even so that each chunk's rates start
    # with lambda_{sigma0}
    assert model._CHUNK_ROWS % 2 == 0
    fast = replace(asym_params, lambda_plus=10.0, lambda_minus=9.72)
    jump_free = ModelParams(
        c_plus=0.4, c_minus=-0.3, lambda_plus=1.2, lambda_minus=1.0,
        h_plus=0.0, h_minus=0.0, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=-1,
    )

    def run():
        terminals = []
        for params, horizon in ((asym_params, 1.0), (fast, 3.0)):
            intens = martingale_intensities(params)
            for lam in ((None, None), (intens.lambda_star_plus, intens.lambda_star_minus)):
                terminals.extend(mc.simulate_terminals(params, horizon, 5_000, 21, *lam))
        profits = mc.arbitrage_demo(jump_free, 105.0, 115.0, 1.0, 5_000, seed=22).profits
        paths = [
            sample_path(fast, 3.0, seed=23, path_index=i).switch_times for i in range(50)
        ]
        return terminals, profits, paths

    runs = []
    buffer_rows = model._buffer_rows
    for rows, one_chunk in ((2, False), (4, False), (16, False), (2, True)):
        monkeypatch.setattr(model, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(
            model, "_buffer_rows", (lambda expected: rows) if one_chunk else buffer_rows
        )
        runs.append(run())
    (terminals, profits, paths), *others = runs
    for other_terminals, other_profits, other_paths in others:
        assert all(np.array_equal(a, b) for a, b in zip(terminals, other_terminals))
        assert np.array_equal(profits, other_profits)
        assert paths == other_paths


@pytest.mark.parametrize("sigma0", [+1, -1])
@pytest.mark.parametrize("n", [
    np.zeros(0, dtype=int),
    np.array(3),
    np.arange(60).reshape(4, 15) * 7 % 41,
])
def test_jump_sum_matches_formula(sigma0, n):
    # the per-count table gives h_{sigma0} ceil(N/2) + h_{-sigma0} floor(N/2)
    # bit for bit, with N's shape, on empty, 0-d and (paths x grid) counts
    h_plus, h_minus = -0.2, 0.4
    h0, h1 = (h_plus, h_minus) if sigma0 == +1 else (h_minus, h_plus)
    got = PathState(sigma0, 1.0, n, np.zeros(n.shape)).jump_sum(h_plus, h_minus)
    want = h0 * ((n + 1) // 2) + h1 * (n // 2)
    assert np.shape(got) == n.shape
    assert np.array_equal(got, want)


_EPS = np.finfo(float).eps


def _check_against_concat_diff(times, t, n, occ):
    """(n, occ) against the concatenate/diff oracle on the same input.

    Where the batch holds one path and it has at least eight even-index
    segments, numpy sums them pairwise in blocks of eight, not row by row,
    so the oracle's last bits may differ there; everywhere else its sum runs
    row by row, in the same order as ``switch_state``.
    """
    n_ref, occ_ref = switch_state_concat_diff(times, t)
    assert np.array_equal(n, n_ref) and np.shape(n) == np.shape(n_ref)
    assert np.shape(occ) == np.shape(occ_ref)
    if np.size(occ) > 1 or times.shape[0] // 2 + 1 < 8:
        assert np.array_equal(occ, occ_ref)
    else:
        assert np.allclose(occ, occ_ref, rtol=4 * _EPS, atol=0.0)


@pytest.mark.parametrize("lam_plus, lam_minus, horizon", [
    (2.0, 1.5, 1.0), (1.4, 1.75, 1.0), (10.0, 9.72, 3.0),
])
def test_switch_state_matches_concat_diff_oracle(lam_plus, lam_minus, horizon):
    rng = np.random.default_rng(41)
    for sigma0 in (+1, -1):
        for n_cols in (1, 300):
            times = sample_switch_times(
                sigma0, lam_plus, lam_minus, horizon, seed=42, key=n_cols, n_cols=n_cols
            )
            for t in (horizon, horizon / 2, 0.0, rng.uniform(0.0, horizon, n_cols)):
                n, occ = switch_state(times, t)
                assert n.shape == occ.shape == (n_cols,)
                _check_against_concat_diff(times, t, n, occ)
                # a column's occupation does not depend on the batch around it
                alone = switch_state(times[:, :1], np.asarray(t).ravel()[:1])[1]
                assert np.array_equal(alone, occ[:1])


def test_path_state_matches_concat_diff_oracle():
    fast = ModelParams(
        c_plus=0.5, c_minus=-0.3, lambda_plus=10.0, lambda_minus=9.72,
        h_plus=-0.05, h_minus=0.05, r_plus=0.0, r_minus=0.0, s0=100.0, sigma0=1,
    )
    paths = [
        RegimePath(sigma0=+1, switch_times=(), horizon=2.0),
        RegimePath(sigma0=-1, switch_times=(0.5,), horizon=2.0),
        RegimePath(sigma0=+1, switch_times=(0.5, 1.25), horizon=2.0),
        RegimePath(sigma0=-1, switch_times=(0.1, 0.4, 1.9), horizon=2.0),
        *(sample_path(fast, 2.0, seed=43, path_index=i) for i in range(20)),
    ]
    counts = {len(path.switch_times) for path in paths}
    assert 0 in counts and any(c % 2 for c in counts) and any(c > 14 for c in counts)
    for path in paths:
        times = np.asarray(path.switch_times, dtype=float)
        for t in (2.0, 0.7, np.array(0.0), np.linspace(0.0, 2.0, 9),
                  np.array([1.5]), np.linspace(0.0, 2.0, 6).reshape(2, 3)):
            st = path_state(path, t)
            assert st.n.shape == st.occ.shape == np.shape(t)
            _check_against_concat_diff(times.reshape(-1, *[1] * np.ndim(t)), t, st.n, st.occ)
            # the same occupation as inside a batch of two query times
            pair = path_state(path, np.full((2, *np.shape(t)), t))
            assert np.array_equal(pair.occ[0], st.occ)


def test_path_state_counts_and_occupation():
    path = RegimePath(sigma0=-1, switch_times=(0.5, 1.25), horizon=2.0)
    t = np.array([0.0, 0.3, 0.5, 1.0, 1.25, 2.0])
    st = path_state(path, t)
    assert st.n.tolist() == [0, 0, 1, 1, 2, 2]  # right-continuous
    assert np.allclose(st.occ, [0.0, 0.3, 0.5, 0.5, 0.5, 1.25], rtol=0, atol=1e-15)
    assert st.regime().tolist() == [-1, -1, +1, +1, -1, -1]
    with pytest.raises(ValueError):
        path_state(path, np.array([0.5, 2.5]))


def test_regime_and_count():
    path = RegimePath(sigma0=+1, switch_times=(0.5, 1.25), horizon=2.0)
    assert regime_at(path, 0.0) == +1
    assert regime_at(path, 0.5) == -1  # right-continuous at switches
    assert regime_at(path, 1.0) == -1
    assert regime_at(path, 1.25) == +1
    assert path_state(path, 0.49).n == 0
    assert path_state(path, 0.5).n == 1
    assert path_state(path, 2.0).n == 2


def test_telegraph_value_bounds(asym_params):
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = float(rng.uniform(0.1, 3.0))
        path = sample_path(asym_params, t, seed=int(rng.integers(1 << 30)))
        x = path_state(path, t).telegraph(asym_params.c_plus, asym_params.c_minus)
        assert asym_params.c_minus * t - 1e-12 <= x <= asym_params.c_plus * t + 1e-12


def test_telegraph_value_piecewise():
    path = RegimePath(sigma0=+1, switch_times=(1.0,), horizon=2.0)
    assert path_state(path, 2.0).telegraph(0.5, -0.3) == pytest.approx(0.5 - 0.3)
    assert path_state(path, 0.5).telegraph(0.5, -0.3) == pytest.approx(0.25)


def test_kappa_values():
    hp, hm = -0.2, 0.4
    assert kappa(0, +1, hp, hm) == 1.0
    assert kappa(1, +1, hp, hm) == pytest.approx(0.8)
    assert kappa(1, -1, hp, hm) == pytest.approx(1.4)
    assert kappa(2, +1, hp, hm) == pytest.approx(0.8 * 1.4)
    assert kappa(3, +1, hp, hm) == pytest.approx(0.8**2 * 1.4)
    assert kappa(4, -1, hp, hm) == pytest.approx((0.8 * 1.4) ** 2)


def test_log_kappa_matches_kappa():
    hp, hm = 0.3, -0.5
    for sigma0 in (+1, -1):
        logs = log_kappa_sequence(12, sigma0, hp, hm)
        direct = [math.log(kappa(n, sigma0, hp, hm)) for n in range(13)]
        assert np.allclose(logs, direct, rtol=1e-14, atol=1e-14)


def test_jump_value_is_log_jump_sum(asym_params):
    path = RegimePath(sigma0=+1, switch_times=(0.3, 0.9), horizon=1.5)
    j = path_state(path, 1.5).jump_sum(asym_params.h_plus, asym_params.h_minus)
    assert j == pytest.approx(asym_params.h_plus + asym_params.h_minus)
    assert path_state(path, 0.1).jump_sum(asym_params.h_plus, asym_params.h_minus) == 0.0


def test_stock_and_bond_price(asym_params):
    path = RegimePath(sigma0=+1, switch_times=(0.4,), horizon=1.0)
    t = 1.0
    x = 0.4 * 0.5 + 0.6 * (-0.3)
    s_expected = 100.0 * math.exp(x) * (1.0 + asym_params.h_plus)
    assert stock_price(path, asym_params, t) == pytest.approx(s_expected, rel=1e-14)
    b_expected = math.exp(0.4 * 0.08 + 0.6 * 0.05)
    bond = math.exp(path_state(path, t).telegraph(asym_params.r_plus, asym_params.r_minus))
    assert bond == pytest.approx(b_expected, rel=1e-14)


def test_linear_transform_reproduces_integrals(asym_params):
    # int_0^t f_sigma ds = a X(t) + b t for any regime-indexed pair (f+, f-)
    a, b = linear_transform_coeffs(
        asym_params.c_plus, asym_params.c_minus,
        asym_params.r_plus, asym_params.r_minus,
    )
    rng = np.random.default_rng(42)
    for _ in range(50):
        path = sample_path(asym_params, 1.7, seed=int(rng.integers(1 << 30)))
        st = path_state(path, 1.7)
        x = st.telegraph(asym_params.c_plus, asym_params.c_minus)
        y = st.telegraph(asym_params.r_plus, asym_params.r_minus)
        assert y == pytest.approx(a * x + b * 1.7, rel=1e-12, abs=1e-12)


def test_linear_transform_degenerate_velocities():
    with pytest.raises(ValueError):
        linear_transform_coeffs(0.2, 0.2, 0.05, 0.03)


def test_switch_count_matches_poisson_single_rate():
    # equal intensities reduce N(t) to a plain Poisson process
    params = ModelParams(
        c_plus=0.4, c_minus=-0.4, lambda_plus=3.0, lambda_minus=3.0,
        h_plus=0.1, h_minus=0.1, r_plus=0.05, r_minus=0.05, s0=1.0, sigma0=1,
    )
    n = 20000
    # a path keeps its switch times up to its horizon, so N(1) is their count
    counts = np.array([
        len(sample_path(params, 1.0, seed=99, path_index=i).switch_times)
        for i in range(n)
    ])
    mean, se = counts.mean(), counts.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 3.0) < 3 * se
