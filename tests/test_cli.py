import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import telegraph_market
import telegraph_market.hedging as hedging
import telegraph_market.pricing as pricing
from telegraph_market.cli import main, parse_config
from telegraph_market.pricing import CallSpec, SeriesControls, call_price

CONFIG = """\
# asymmetric two-regime market
c_plus = 0.5
c_minus = -0.3
lambda_plus = 2.0
lambda_minus = 1.5
h_plus = -0.2
h_minus = 0.4
r_plus = 0.08
r_minus = 0.05
s0 = 100.0
sigma0 = +1
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture
def cfg_minus(tmp_path):
    path = tmp_path / "model_minus.cfg"
    path.write_text(CONFIG.replace("sigma0 = +1", "sigma0 = -1"))
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# --- config parsing -----------------------------------------------------------

def test_parse_config_roundtrip():
    params, controls = parse_config(CONFIG)
    assert params.c_plus == 0.5
    assert params.sigma0 == +1
    assert controls.tail_epsilon == 1e-12


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(CONFIG + "volatility = 0.2\n")


def test_parse_config_rejects_missing_and_duplicates():
    with pytest.raises(ValueError, match="missing"):
        parse_config("c_plus = 0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(CONFIG + "s0 = 50.0\n")


def test_parse_config_sigma0_literal():
    with pytest.raises(ValueError, match="sigma0"):
        parse_config(CONFIG.replace("sigma0 = +1", "sigma0 = 1"))


# --- price ---------------------------------------------------------------------

def test_price_series_json(cfg, capsys):
    code, out = _run(
        ["price", "--config", cfg, "--strike", "100", "--maturity", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    params, controls = parse_config(CONFIG)
    ref = call_price(params, CallSpec(100.0, 1.0), controls)
    assert doc["price"] == ref.price  # 17-significant-digit round trip
    assert doc["regime_case"] == ref.regime_case
    assert set(doc) == {
        "method", "price", "u", "U", "y", "idx_minus", "idx_plus",
        "n_used", "tail_bound", "regime_case",
    }


def test_price_small_strike_is_stock(cfg, capsys):
    code, out = _run(
        ["price", "--config", cfg, "--strike", "1e-9", "--maturity", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["price"] == pytest.approx(100.0, rel=1e-9)


def test_price_mc_fields(cfg, capsys):
    code, out = _run(
        ["price", "--config", cfg, "--strike", "100", "--maturity", "1",
         "--method", "mc", "--paths", "50000", "--seed", "6"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_paths"] == 50000 and doc["seed"] == 6
    params, controls = parse_config(CONFIG)
    ref = call_price(params, CallSpec(100.0, 1.0), controls).price
    assert abs(doc["price"] - ref) < 3 * doc["std_error"]


@pytest.mark.parametrize("command, n_paths, message", [
    ("price", 1, "n_paths must be at least 2, got 1"),
    ("price", 0, "n_paths must be at least 2, got 0"),
    ("hedge", 0, "replication needs at least one path"),
])
def test_too_few_paths_exit_code(cfg, capsys, command, n_paths, message):
    # one MC path printed a nan standard error (not JSON) with numpy
    # warnings, and zero paths failed inside numpy: now one message, exit 1
    method = ["--method", "mc"] if command == "price" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg, "--strike", "100", "--maturity", "1",
                     *method, "--paths", str(n_paths)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "nan" not in captured.out
    assert captured.err == f"error: {message}\n"


_COMMAND_ARGS = {
    "price": ["--strike", "100", "--maturity", "1"],
    "simulate": ["--paths", "2", "--seed", "0", "--grid", "4", "--horizon", "1"],
    "hedge": ["--strike", "100", "--maturity", "1", "--paths", "2", "--grid", "4"],
}


@pytest.mark.parametrize("command, config_line, flags, field", [
    ("price", None, ["--maturity", "inf"], "maturity"),
    ("price", None, ["--strike", "inf"], "strike"),
    ("price", "c_plus = inf", [], "c_plus"),
    ("price", "s0 = inf", [], "s0"),
    ("price", "tail_epsilon = inf", [], "tail_epsilon"),
    ("price", "lambda_plus = inf", [], "lambda_plus"),
    ("simulate", "lambda_plus = inf", [], "lambda_plus"),
    ("hedge", "lambda_plus = inf", [], "lambda_plus"),
])
def test_non_finite_input_exit_code(
    tmp_path, capsys, command, config_line, flags, field
):
    # infinite inputs used to reach the series (exit 3 after 400 terms),
    # math.log (exit 1 with "math domain error") or the sampler, or priced
    # to a number (exit 0): now the field is refused by name, exit 1
    text = CONFIG
    if config_line is not None:
        kept = [line for line in CONFIG.splitlines() if not line.startswith(f"{field} ")]
        text = "\n".join([*kept, config_line, ""])
    path = tmp_path / "model.cfg"
    path.write_text(text)
    code = main([command, "--config", str(path), *_COMMAND_ARGS[command], *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {field} must be finite, got inf\n"


def test_price_merton_method(tmp_path, capsys):
    cfg = tmp_path / "merton.cfg"
    cfg.write_text(
        "c_plus = 0.1\nc_minus = 0.1\nlambda_plus = 1.0\nlambda_minus = 1.0\n"
        "h_plus = -0.5\nh_minus = -0.5\nr_plus = 0.05\nr_minus = 0.05\n"
        "s0 = 100.0\nsigma0 = +1\n"
    )
    code, out = _run(
        ["price", "--config", str(cfg), "--strike", "100", "--maturity", "1",
         "--method", "merton"],
        capsys,
    )
    assert code == 0
    ref = 100.0 * (math.exp(-0.05) - math.exp(-0.15))
    assert json.loads(out)["price"] == pytest.approx(ref, rel=1e-12)


def test_price_symmetric_method_long_series(tmp_path, capsys):
    # lambda* = c / h = 10 and T = 10: the u half sums 186 terms, past
    # n = 170, beyond which n! no longer converts to a float
    cfg = tmp_path / "symmetric.cfg"
    cfg.write_text(
        "c_plus = 0.55\nc_minus = -0.45\nlambda_plus = 2.0\nlambda_minus = 2.0\n"
        "h_plus = -0.05\nh_minus = 0.05\nr_plus = 0.05\nr_minus = 0.05\n"
        "s0 = 100.0\nsigma0 = +1\n"
    )
    code, out = _run(
        ["price", "--config", str(cfg), "--strike", "100", "--maturity", "10",
         "--method", "symmetric"],
        capsys,
    )
    assert code == 0
    params, controls = parse_config(cfg.read_text())
    ref = call_price(params, CallSpec(strike=100.0, maturity=10.0), controls).price
    assert json.loads(out)["price"] == pytest.approx(ref, rel=1e-11)


# lambda* = 50 (c = 0.05 +- 0.5, h = -+0.01) with a 2000-term budget
LAM50_CONFIG = (
    "c_plus = 0.55\nc_minus = -0.45\nlambda_plus = 2.0\nlambda_minus = 2.0\n"
    "h_plus = -0.01\nh_minus = 0.01\nr_plus = 0.05\nr_minus = 0.05\n"
    "s0 = 100.0\nsigma0 = +1\nmax_terms = 2000\n"
)


def test_price_series_past_exp_range(tmp_path, capsys):
    # lambda* = 50 and T = 15: the Poisson tail bound's head term passes
    # exp's range near n = 750; the series must price or fail typed
    cfg = tmp_path / "lam50.cfg"
    cfg.write_text(LAM50_CONFIG)
    code = main(["price", "--config", str(cfg), "--strike", "100", "--maturity", "15"])
    captured = capsys.readouterr()
    assert code in (0, 3)
    assert "Traceback" not in captured.err
    if code == 0:
        price = json.loads(captured.out)["price"]
        assert 100.0 - 100.0 * math.exp(-0.05 * 15) <= price <= 100.0


def test_price_symmetric_method_lambda_50_clean_stderr(tmp_path):
    # lambda* = 50 at T = 3: Lambda_n passes the float range in the transport
    # route's wedge within the 260-term series. The symmetric method prices,
    # agreeing with the series, and numpy prints no warning on the way; run
    # as a separate process, since pytest would capture the warnings itself
    cfg = tmp_path / "lam50.cfg"
    cfg.write_text(LAM50_CONFIG.replace("max_terms = 2000\n", ""))
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "telegraph_market.cli", "price", "--config", str(cfg),
         "--strike", "100", "--maturity", "3", "--method", "symmetric"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert "RuntimeWarning" not in done.stderr
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    params, controls = parse_config(cfg.read_text())
    ref = call_price(params, CallSpec(strike=100.0, maturity=3.0), controls).price
    assert json.loads(done.stdout)["price"] == pytest.approx(ref, rel=1e-11)


def test_price_arbitrage_exit_code(tmp_path, capsys):
    cfg = tmp_path / "h0.cfg"
    cfg.write_text(CONFIG.replace("h_plus = -0.2", "h_plus = 0.0"))
    code, _ = _run(
        ["price", "--config", str(cfg), "--strike", "100", "--maturity", "1"],
        capsys,
    )
    assert code == 2


def test_price_negative_price_exit_code(cfg, capsys, monkeypatch):
    # force an inconsistent series (stock-tilted terms zeroed, so
    # S0 U - K u < 0): a typed error, exit 3 with the message, no traceback
    real = pricing.series_terms

    def no_stock_terms(y, t, sigma, c_p, c_m, *rates):
        terms = real(y, t, sigma, c_p, c_m, *rates)
        undiscounted = [r[2:] == (0.0, 0.0) for r in rates]
        terms[undiscounted] = 0.0
        return terms

    monkeypatch.setattr(pricing, "series_terms", no_stock_terms)
    code = main(["price", "--config", cfg, "--strike", "100", "--maturity", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure: negative price" in captured.err
    assert "Traceback" not in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["price", "--strike", "100"]) == 1
    assert main(["not-a-command"]) == 1
    assert main(["price", "--config", "/nonexistent", "--strike", "1",
                 "--maturity", "1"]) == 1


def test_cli_import_skips_heavy_scipy_modules():
    # the package's only runtime dependency is numpy: importing it and the
    # CLI loads no scipy module, which would be most of every call's start-up
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    probe = (
        "import sys, telegraph_market, telegraph_market.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# --- simulate --------------------------------------------------------------------

def test_simulate_csv_contract(cfg, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main([
            "simulate", "--config", cfg, "--paths", "2", "--seed", "3",
            "--grid", "4", "--horizon", "1.0", "--out", str(out),
        ])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "path_id,t,regime,X,J,S,B"
    assert len(lines) == 1 + 2 * 5  # header + (grid+1) rows per path
    first = lines[1].split(",")
    assert first[1] == "0" and float(first[5]) == 100.0
    for row in lines[1:]:
        assert float(row.split(",")[5]) > 0.0  # S positive throughout


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_non_finite_horizon_exit_code(cfg, horizon):
    # a horizon that is not finite is refused by name before any output;
    # switch times drawn up to an infinite horizon never end, so the command
    # runs in a separate process with a timeout, which fails instead of
    # stalling the suite
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "telegraph_market.cli", "simulate", "--config", cfg,
         "--horizon", horizon, "--paths", "1", "--seed", "0", "--grid", "2"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert "horizon" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("horizon", ["1e300", "1e6"])
def test_simulate_huge_horizon_fails_fast(cfg, horizon):
    # an expected switch count past the sampler's budget is refused by the
    # horizon's name before any draw (exit 3), where 1e300 never ended and
    # 1e6 sampled ~3.4M switches for 11 s; a separate process with a
    # deadline, so that a hang fails instead of stalling the suite
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "telegraph_market.cli", "simulate", "--config", cfg,
         "--horizon", horizon, "--paths", "1", "--seed", "0", "--grid", "2"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith(f"numerical failure: horizon = {float(horizon)!r}: ")
    assert done.stderr.count("\n") == 1


def test_simulate_overflow_exit_code(cfg, capsys):
    # over a horizon of 1e4 the stock leaves float range (log S/S0 ~ 1466):
    # the run writes nothing, names the column that is not finite and exits
    # 3, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", cfg, "--horizon", "1e4",
                     "--paths", "1", "--seed", "0", "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "numerical failure: column S of path 0 is not finite\n"


@pytest.mark.parametrize("command, option", [
    (["simulate", "--horizon", "1.0", "--seed", "0", "--paths", "1", "--grid", "-1"], "--grid"),
    (["simulate", "--horizon", "1.0", "--seed", "0", "--paths", "-1", "--grid", "2"], "--paths"),
    (["density", "--t", "1.0", "--points", "-1"], "--points"),
])
def test_negative_count_exit_code(cfg, capsys, command, option):
    # a negative count is refused by its option's name before any output
    code = main([*command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {option} must be nonnegative, got -1\n"


@pytest.mark.parametrize("command, lines", [
    (["simulate", "--horizon", "1.0", "--seed", "0", "--paths", "2", "--grid", "0"], 3),
    (["simulate", "--horizon", "1.0", "--seed", "0", "--paths", "0", "--grid", "2"], 1),
    (["density", "--t", "1.0", "--points", "0"], 2),
])
def test_zero_count_output(cfg, capsys, command, lines):
    # a zero count is valid: one grid row per path, no paths, or no density
    # points (the header and the atom line)
    code, out = _run([*command, "--config", cfg], capsys)
    assert code == 0
    assert len(out.splitlines()) == lines


def test_failed_run_keeps_out_file(cfg, tmp_path, capsys):
    # --out is written only when the run succeeds: a successful run writes
    # the bytes it prints to standard output, and a run that exits 3 leaves
    # the file as the earlier run wrote it
    out = tmp_path / "prev.csv"
    args = ["simulate", "--config", cfg, "--paths", "1", "--seed", "0", "--grid", "2"]
    assert main([*args, "--horizon", "1.0"]) == 0
    printed = capsys.readouterr().out
    assert main([*args, "--horizon", "1.0", "--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode("utf-8")
    assert main([*args, "--horizon", "1e4", "--out", str(out)]) == 3
    assert out.read_bytes() == printed.encode("utf-8")


# --- density ---------------------------------------------------------------------

def test_density_normalizes(cfg, capsys):
    code, out = _run(
        ["density", "--config", cfg, "--t", "1.0", "--points", "400"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,p_continuous"
    assert lines[-1].startswith("# atom ")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
    _, atom_x, atom_w = lines[-1].rsplit(" ", 2)
    integral = np.trapezoid(data[:, 1], data[:, 0])
    assert integral + float(atom_w) == pytest.approx(1.0, abs=1e-4)
    assert float(atom_x) == pytest.approx(0.5)
    assert data[0, 0] == pytest.approx(-0.3) and data[-1, 0] == pytest.approx(0.5)


def _density_rows(out):
    """(x, p_continuous) columns of a density CSV and its atom comment."""
    lines = out.splitlines()
    assert lines[0] == "x,p_continuous" and lines[-1].startswith("# atom ")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]]).T


def test_density_past_the_bessel_series_range(cfg, capsys):
    # t = 380: the Bessel argument reaches 658 inside the support, where I_0
    # alone is ~1e284; the interior values match the per-switch-count sum,
    # also on 41 points, where the density falls to ~1e-240 near the edges
    from telegraph_market.densities import DensityParams, p_n_continuous

    dens = DensityParams(c_plus=0.5, c_minus=-0.3, lambda_plus=2.0, lambda_minus=1.5)
    for points in ("5", "41"):
        code, out = _run(["density", "--config", cfg, "--t", "380", "--points", points], capsys)
        assert code == 0
        x, p = _density_rows(out)
        # terms past n ~ 1750 underflow to 0 at every interior point
        ref = sum(p_n_continuous(x[1:-1], 380.0, n, +1, dens) for n in range(1, 2001))
        np.testing.assert_allclose(p[1:-1], ref, rtol=1e-12, atol=0.0)


def test_density_huge_t_is_zero_without_warnings(cfg, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["density", "--config", cfg, "--t", "1e200", "--points", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    x, p = _density_rows(captured.out)
    assert np.isfinite(x).all() and not p.any()


def test_density_non_finite_t_exit_code(cfg, capsys):
    # an infinite t is refused by name before any output or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["density", "--config", cfg, "--t", "inf", "--points", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: t must be positive and finite, got inf\n"


# --- hedge -----------------------------------------------------------------------

def test_hedge_report(cfg, capsys):
    code, out = _run(
        ["hedge", "--config", cfg, "--strike", "100", "--maturity", "1",
         "--paths", "10", "--grid", "400", "--seed", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_paths"] == 10
    assert doc["mean_abs_error"] < 0.02 * 100.0
    assert isinstance(doc["admissible"], bool)


def test_hedge_huge_maturity_fails_fast(cfg):
    # the series cannot be summed at T = 1e300: the t = 0 price fails
    # (exit 3) before any path is drawn, where the sampler would not end
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "telegraph_market.cli", "hedge", "--config", cfg,
         "--strike", "100", "--maturity", "1e300"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("numerical failure: switch-count series")
    assert done.stderr.count("\n") == 1


STEEP = """\
# steep market: lambda* = (20, 1); a ten-year hedge needs 561 series terms
c_plus = 0.45
c_minus = -0.05
lambda_plus = 2.0
lambda_minus = 1.0
h_plus = -0.02
h_minus = 0.1
r_plus = 0.05
r_minus = 0.05
s0 = 100.0
sigma0 = +1
max_terms = 600
"""


def test_hedge_steep_market_many_terms(tmp_path, capsys):
    # the surface's full-mass rows pass Lambda_n's float range here; they
    # are finite, and the hedge completes
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP)
    code = main(["hedge", "--config", str(cfg), "--strike", "150",
                 "--maturity", "10", "--paths", "1", "--grid", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    params, controls = parse_config(STEEP)
    ref = call_price(params, CallSpec(150.0, 10.0), controls).price
    assert doc["initial_capital"] == ref
    assert math.isfinite(doc["mean_abs_error"])
    assert math.isfinite(doc["min_capital"])


def test_hedge_kernel_overflow_exit_code(cfg, capsys, monkeypatch):
    # a transport coefficient out of the float range (a_bar^k overflows on
    # steep markets once wedge points reach k ~ 240, beta_{k,j} from
    # k = 1484): a typed error, exit 3 with the message, no traceback. The
    # hedge prices both states of its ratios in one pass, never one state
    def out_of_range(k_max):
        return np.full((k_max + 1, k_max), np.inf)

    def one_state(*args):
        raise AssertionError("the hedge called the one-state pricer")

    monkeypatch.setattr(pricing, "_beta_table", out_of_range)
    monkeypatch.setattr(hedging.CallPricer, "__call__", one_state)
    code = main(["hedge", "--config", cfg, "--strike", "100", "--maturity", "1",
                 "--paths", "2", "--grid", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure: transport kernel" in captured.err
    assert "Traceback" not in captured.err


# --- quantile ---------------------------------------------------------------------

def test_quantile_budget_report(cfg_minus, capsys):
    code, out = _run(
        ["quantile", "--config", cfg_minus, "--strike", "100",
         "--maturity", "1", "--budget", "8.0"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 < doc["success_probability"] < 1.0
    assert doc["budget"] == pytest.approx(8.0, abs=1e-9 * 100.0)
    assert doc["regime_case"] == "single_threshold"
    assert doc["n_thresholds"] >= 1


def test_quantile_flag_validation(cfg_minus, capsys):
    code, _ = _run(
        ["quantile", "--config", cfg_minus, "--strike", "100",
         "--maturity", "1"],
        capsys,
    )
    assert code == 1
    code, _ = _run(
        ["quantile", "--config", cfg_minus, "--strike", "100",
         "--maturity", "1", "--budget", "8", "--survival", "0.9"],
        capsys,
    )
    assert code == 1


def test_quantile_infeasible_budget_exit_code(cfg_minus, capsys):
    code, _ = _run(
        ["quantile", "--config", cfg_minus, "--strike", "100",
         "--maturity", "1", "--budget", "1000.0"],
        capsys,
    )
    assert code == 4


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_quantile_non_finite_budget_exit_code(cfg_minus, capsys, budget):
    # an input error naming the field, not an infeasible budget
    code = main(["quantile", "--config", cfg_minus, "--strike", "100",
                 "--maturity", "1", "--budget", budget])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: v0 must be finite, got {float(budget)}\n"


def test_quantile_cap_in_atom_gap_exit_code(cfg, capsys):
    # started in the fast regime, P(success) jumps from 1 to 1 - e^{-2} where
    # the no-switch atom leaves the success set: a 10% shortfall cap has no
    # solution and must be reported, not returned as P = 0.8647
    code = main(["quantile", "--config", cfg, "--strike", "100",
                 "--maturity", "1", "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "infeasible budget: residual" in captured.err
    assert "Traceback" not in captured.err


def test_quantile_term_budget_exit_code(tmp_path, capsys):
    # the switch-count cutoff misses tail_epsilon within max_terms: a
    # numerical failure (exit 3), not an infeasible budget
    cfg = tmp_path / "lam50.cfg"
    cfg.write_text(LAM50_CONFIG)
    code = main(["quantile", "--config", str(cfg), "--strike", "100",
                 "--maturity", "15", "--budget", "30"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure: switch-count series" in captured.err
    assert "Traceback" not in captured.err


def test_quantile_survival_pipeline(cfg_minus, capsys):
    code, out = _run(
        ["quantile", "--config", cfg_minus, "--strike", "100",
         "--maturity", "1", "--survival", "0.9"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    params, controls = parse_config(CONFIG.replace("sigma0 = +1", "sigma0 = -1"))
    perfect = call_price(params, CallSpec(100.0, 1.0), controls).price
    assert doc["budget"] == pytest.approx(0.9 * perfect, rel=1e-12)
    assert doc["success_probability"] < 1.0


# --- limit-check -------------------------------------------------------------------

def test_limit_check_report(capsys):
    code, out = _run(
        ["limit-check", "--vc", "0.3", "--va", "0.2", "--mu", "0.05"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    maxes = [lvl["max_error"] for lvl in doc["levels"]]
    assert [lvl["level"] for lvl in doc["levels"]] == [1, 4, 16, 64]
    assert all(a > b for a, b in zip(maxes, maxes[1:]))
    assert maxes[-1] < 0.02
    # the figures of the per-n series MGF (400-node quadrature per switch
    # count), which agrees with the closed form to about 1e-11
    series_maxes = [0.161318045598527, 0.0850257478805459, 0.0390189998509518, 0.0186414111963433]
    assert maxes == pytest.approx(series_maxes, rel=0.0, abs=1e-10)


def test_limit_check_beyond_level_64(capsys):
    # the closed-form mgf costs the same at any level; level 256 (lambda t =
    # 256) is still closer to the Gaussian limit than level 64
    code, out = _run(
        ["limit-check", "--vc", "0.3", "--va", "0.2", "--mu", "0.05",
         "--levels", "64", "256", "--z", "1", "--t", "1"],
        capsys,
    )
    assert code == 0
    maxes = [lvl["max_error"] for lvl in json.loads(out)["levels"]]
    assert maxes[1] < maxes[0] < 0.02


@pytest.mark.parametrize("flag, value, name", [
    ("--t", "inf", "t_horizon"),
    ("--vc", "inf", "v_c"),
    ("--z", "nan", "z"),
    ("--levels", "0", "levels"),
])
def test_limit_check_input_error_exit_code(capsys, flag, value, name):
    # non-finite inputs and levels below 1 are input errors (exit 1, the
    # name in the message), not numerical failures of the mgf
    options = {"--vc": "0.3", "--va": "0.2", "--mu": "0.05", flag: value}
    code = main(["limit-check", *(arg for pair in options.items() for arg in pair)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("flag, name", [("--vc", "v_c"), ("--va", "v_a")])
def test_limit_check_huge_velocity_exit_code(capsys, flag, name):
    # a finite velocity whose square overflows the limit variance is a
    # numerical failure named by its field, not an OverflowError traceback
    options = {"--vc": "0.3", "--va": "0.2", "--mu": "0.05", flag: "1e300"}
    code = main(["limit-check", *(arg for pair in options.items() for arg in pair)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"numerical failure: {name} = 1e+300")
    assert captured.err.count("\n") == 1


def test_limit_check_jump_size_overflow_exit_code(capsys):
    # v_a = 1000 makes the level-1 jump factor e^1000: exit 3, one line
    code = main(["limit-check", "--vc", "0.3", "--va", "1000", "--mu", "0.05"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: limit-check overflowed")
    assert captured.err.count("\n") == 1


def test_limit_check_jump_size_underflow_exit_code(capsys):
    # v_a = -1000 rounds the level-1 jump size e^(v_a) - 1 to -1, where the
    # mgf's log1p(h) has no value: exit 3, one line naming v_a and the level
    code = main(["limit-check", "--vc", "0.3", "--va", "-1000", "--mu", "0.05"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: v_a = -1000.0: the jump size e^(v_a / sqrt(level)) - 1 "
        "rounds to -1 at level 1\n"
    )


def test_density_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace("sigma0 = +1", "sigma0 = 1"))
    out = tmp_path / "density.csv"
    code = main(["density", "--config", str(cfg), "--t", "1.0", "--out", str(out)])
    assert code == 1
    assert "sigma0" in capsys.readouterr().err
    assert out.read_text() == ""
