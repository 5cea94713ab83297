"""Per-layer metrics of the traced run.

Layers are the package's modules. Each metric is taken either from the spans
of the timed rounds (the wrappers in ``spans.py`` around calls the engine
makes back into the benchmark, or the benchmark makes into the engine), or
from a probe here: a fixed call into one module's public function on fixed
inputs, repeated and reported as a median. ``measure`` is not timed on its
own: it costs microseconds once per price.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from statistics import median
from time import perf_counter

import numpy as np

from telegraph_market.densities import DensityParams, p_n_continuous
from telegraph_market.measure import martingale_intensities
from telegraph_market.mc import mc_price, simulate_terminals
from telegraph_market.model import log_kappa_sequence
from telegraph_market.pricing import CallSpec, P_n, call_price, hyp1f1, u_n, v_n
from telegraph_market.quantile import success_probability, threshold_z

from spans import Spans
from workloads import ASYM, LONG, LONG_MATURITY, HedgeRound, SeriesRound, call_payoff

UNITS = {
    "pricing.call_price_ms": "ms",
    "pricing.terms_per_s": "term/s",
    "pricing.n_used_long": "count",
    "pricing.u_n_ms.n20": "ms",
    "pricing.u_n_ms.n160": "ms",
    "pricing.hyp1f1_points_per_s": "point/s",
    "pricing.P_n_points_per_s": "point/s",
    "pricing.v_n_points_per_s": "point/s",
    "pricing.surface_points": "count",
    "pricing.surface_points_per_s": "point/s",
    "hedging.backtest_s": "s",
    "hedging.self_s": "s",
    "hedging.steps": "count",
    "model.sample_path_ms": "ms",
    "quantile.solve_budget_s": "s",
    "quantile.solve_dual_s": "s",
    "quantile.threshold_z_us": "us",
    "quantile.success_probability_s": "s",
    "quantile.n_thresholds": "count",
    "mc.simulate_terminals_paths_per_s.w1": "path/s",
    "mc.simulate_terminals_paths_per_s.w2": "path/s",
    "mc.mc_price_self_s": "s",
    "densities.mgf_calls_per_s": "call/s",
    "densities.p_n_continuous_points_per_s": "point/s",
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.price_wall_s": "s",
}

KERNEL_POINTS = 100_000
KERNEL_ORDER = 10  # switch count of the P_n / v_n / p_n_continuous probes
MC_PROBE_PATHS = 1 << 16


def _repeat(spans: Spans, name: str, reps: int, fn, *args) -> float:
    """Median seconds of ``reps`` calls of ``fn(*args)``."""
    return median(spans.call(name, fn, *args)[1] for _ in range(reps))


def pricing_probes(spans: Spans, reps: int) -> dict[str, float]:
    """Kernels on fixed arrays, and one scalar u_n at the long price's
    shifted strike for a low and a high order."""
    intens = martingale_intensities(ASYM)
    a_bar = (intens.lambda_star_plus + ASYM.r_plus) - (intens.lambda_star_minus + ASYM.r_minus)
    z = np.linspace(-3.0, 3.0, KERNEL_POINTS)
    t = np.linspace(0.01, 2.5, KERNEL_POINTS)
    p = np.linspace(0.0, 1.0, KERNEL_POINTS)
    q = p[::-1].copy()
    m = KERNEL_ORDER // 2
    out = {
        "pricing.hyp1f1_points_per_s": KERNEL_POINTS
        / _repeat(spans, "pricing.hyp1f1", reps, hyp1f1, m + 1.0, KERNEL_ORDER + 1.0, z),
        "pricing.P_n_points_per_s": KERNEL_POINTS
        / _repeat(spans, "pricing.P_n", reps, P_n, t, KERNEL_ORDER, +1, a_bar),
        "pricing.v_n_points_per_s": KERNEL_POINTS
        / _repeat(spans, "pricing.v_n", reps, v_n, p, q, KERNEL_ORDER, +1, a_bar),
    }
    li = martingale_intensities(LONG)
    y = 0.0  # ln(K/S0) at K = S0
    b = log_kappa_sequence(160, LONG.sigma0, LONG.h_plus, LONG.h_minus)
    for n in (20, 160):
        args = (y - b[n], LONG_MATURITY, n, LONG.sigma0, li.lambda_star_plus,
                li.lambda_star_minus, LONG.c_plus, LONG.c_minus, LONG.r_plus, LONG.r_minus)
        out[f"pricing.u_n_ms.n{n}"] = 1e3 * _repeat(spans, f"pricing.u_n.n{n}", reps, u_n, *args)
    return out


def series_metrics(rounds: list[SeriesRound]) -> dict[str, float]:
    def terms_rate(r: SeriesRound) -> float:
        terms = sum(p[3].n_used for p in r.prices) + r.long.n_used
        return terms / (r.sweep_s + r.long_s)

    return {
        "pricing.call_price_ms": median(1e3 * r.sweep_s / len(r.prices) for r in rounds),
        "pricing.terms_per_s": median(terms_rate(r) for r in rounds),
        "pricing.n_used_long": rounds[0].long.n_used,
        "quantile.solve_budget_s": median(sum(q.solve_s for q in r.quantile) for r in rounds),
        "quantile.solve_dual_s": median(sum(q.dual_s for q in r.quantile) for r in rounds),
        "quantile.n_thresholds": sum(len(q.solution.thresholds) for q in rounds[0].quantile),
    }


def quantile_probes(spans: Spans, rnd: SeriesRound, reps: int) -> dict[str, float]:
    """threshold_z per switch count at each solved gamma, and the success
    probability series of each solution."""
    per_call, prob_s = [], 0.0
    for q in rnd.quantile:
        intens = martingale_intensities(q.params)
        for n in range(len(q.solution.thresholds)):
            per_call.append(_repeat(spans, "quantile.threshold_z", reps, threshold_z,
                                    n, q.solution.gamma, q.params, q.spec, intens))
        prob_s += _repeat(spans, "quantile.success_probability", reps,
                          success_probability, q.solution, q.params)
    return {
        "quantile.threshold_z_us": 1e6 * median(per_call),
        "quantile.success_probability_s": prob_s,
    }


def hedge_metrics(spans: Spans, rounds: list[HedgeRound]) -> dict[str, float]:
    """From the spans of each round: the backtest, the pricer calls inside
    it, and the path draws."""
    backtest, self_s, rate, sample_ms, points = [], [], [], [], []
    for i in spans.find("hedge.round"):
        (b,) = spans.kids(i, "hedging.replication_backtest")
        bt = spans.log[b]
        pricer = [spans.log[k] for k in spans.kids(b, "pricing.call_value_surface")]
        priced = sum(s.count for s in pricer)
        pricer_s = sum(s.seconds for s in pricer)
        backtest.append(bt.seconds)
        self_s.append(bt.seconds - pricer_s)
        rate.append(priced / pricer_s)
        points.append(priced)
        sample_ms.append(1e3 * median(spans.log[k].seconds for k in spans.kids(i, "model.sample_path")))
    return {
        "hedging.backtest_s": median(backtest),
        "hedging.self_s": median(self_s),
        "hedging.steps": rounds[0].steps,
        "pricing.surface_points": points[0],
        "pricing.surface_points_per_s": median(rate),
        "model.sample_path_ms": median(sample_ms),
    }


def mc_probes(spans: Spans, seed: int, reps: int) -> dict[str, float]:
    """simulate_terminals on the inputs the mc rounds' mc_price gives it
    (at the cross-section's 65 536 paths in every workload), at 1 and 2
    workers; mc_price minus simulate_terminals; mgf calls as timed inside
    the limit checks; p_n_continuous on a fixed array."""
    intens = martingale_intensities(ASYM)
    n = MC_PROBE_PATHS
    args = (ASYM, 1.0, n, seed, intens.lambda_star_plus, intens.lambda_star_minus)
    sim = {w: _repeat(spans, f"mc.simulate_terminals.w{w}", reps, simulate_terminals, *args, w)
           for w in (1, 2)}
    # mc_price's own share: paired calls, in alternating order, on the
    # inputs mc_price gives simulate_terminals; a difference of two timings,
    # so it can read below 0 where the share is small
    payoff = call_payoff(100.0)
    self_s = []
    for rep in range(2 * reps):
        pair = [("mc.simulate_terminals.w1", simulate_terminals, args),
                ("mc.mc_price", mc_price, (ASYM, payoff, 1.0, n, seed))]
        t = {name: spans.call(name, fn, *a)[1] for name, fn, a in pair[:: 1 - 2 * (rep % 2)]}
        self_s.append(t["mc.mc_price"] - t["mc.simulate_terminals.w1"])
    mgf = spans.find("densities.mgf")
    dens = DensityParams(ASYM.c_plus, ASYM.c_minus, ASYM.lambda_plus, ASYM.lambda_minus)
    x = np.linspace(ASYM.c_minus, ASYM.c_plus, KERNEL_POINTS + 2)[1:-1]
    pn_s = _repeat(spans, "densities.p_n_continuous", reps, p_n_continuous,
                   x, 1.0, KERNEL_ORDER, +1, dens)
    return {
        "mc.simulate_terminals_paths_per_s.w1": n / sim[1],
        "mc.simulate_terminals_paths_per_s.w2": n / sim[2],
        "mc.mc_price_self_s": median(self_s),
        "densities.mgf_calls_per_s": len(mgf) / sum(spans.log[i].seconds for i in mgf),
        "densities.p_n_continuous_points_per_s": KERNEL_POINTS / pn_s,
    }


ASYM_CONFIG = """\
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


def _wall(cmd: list[str], env: dict, cwd: str) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    done = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    return perf_counter() - t0, done


def cli_price_failures(returncode: int, stdout: str, expected: float) -> list[str]:
    """The ``price`` command must exit 0 and print the in-process price."""
    try:
        got = json.loads(stdout)["price"]
    except (ValueError, KeyError, TypeError):
        got = math.nan
    if returncode != 0 or got != expected:
        return [f"cli-price: exit {returncode}, price {got!r} vs {expected!r}"]
    return []


def cli_probes(root: str, out_dir: str) -> tuple[dict[str, float], list[str]]:
    """Fresh interpreters: the CLI module's import, the share of it spent in
    scipy.stats (0 once nothing imports it), and a whole ``price`` command,
    whose answer must equal the in-process series price."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    py = sys.executable
    import_s, _ = _wall([py, "-c", "import telegraph_market.cli"], env, root)
    _, done = _wall([py, "-X", "importtime", "-c", "import telegraph_market.cli"], env, root)
    stats_us = 0
    for line in done.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*scipy\.stats$", line)
        if m:
            stats_us = int(m.group(1))
    cfg = os.path.join(out_dir, "asym.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(ASYM_CONFIG)
    price_s, done = _wall(
        [py, "-m", "telegraph_market.cli", "price", "--config", cfg,
         "--strike", "100", "--maturity", "1", "--method", "series"], env, root,
    )
    expected = call_price(ASYM, CallSpec(100.0, 1.0)).price
    failures = cli_price_failures(done.returncode, done.stdout, expected)
    metrics = {
        "cli.import_s": import_s,
        "cli.import_scipy_stats_s": stats_us / 1e6,
        "cli.price_wall_s": price_s,
    }
    return metrics, failures
