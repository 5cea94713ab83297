"""Fast self-test of the benchmark (about two minutes on 2 vCPUs).

    python3 perfbench/selftest.py

1. Runs every workload with ``--quick --seconds 1``, untraced and traced,
   and checks the last output line: exactly the keys correct, attempted,
   failed and metrics; every metric of BENCHMARK.json by name and unit, with
   a positive finite value (counts and the scipy.stats import share may be
   0, mc_price's self time, a difference, may be negative); and the failed share: one operation in ten for ``series`` (the
   truncating call), none elsewhere.
2. Feeds every output check a perturbed answer and expects that check's
   tag among the failures, after the unperturbed answers pass.
3. Runs the benchmark from a directory holding only BENCHMARK.json and the
   benchmark's files, and expects a non-zero exit without a result line.

Run outputs go to ``perfbench/out/selftest``.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
QUICK_SERIES_OPS = 10  # quick series round: 6 prices, long, solve, dual, truncating
MAY_BE_ZERO = {"cli.import_scipy_stats_s"}
SIGNED = {"mc.mc_price_self_s"}  # a difference of two timings


def run_workloads(bench: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} trace {trace}"
            (OUT / f"{workload}-trace{trace}.out").write_text(done.stdout + done.stderr)
            if done.returncode != 0:
                errors.append(f"{tag}: exit {done.returncode}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: keys {sorted(result)}")
                continue
            if result["correct"] is not True:
                errors.append(f"{tag}: correct is {result['correct']!r}")
            att, fail = result["attempted"], result["failed"]
            if not (isinstance(att, int) and isinstance(fail, int) and att >= 1):
                errors.append(f"{tag}: attempted {att!r}, failed {fail!r}")
            want_failed = att // QUICK_SERIES_OPS if workload == "series" else 0
            if workload == "series" and att % QUICK_SERIES_OPS:
                errors.append(f"{tag}: {att} operations is not whole rounds")
            if fail != want_failed:
                errors.append(f"{tag}: failed {fail}, expected {want_failed}")
            spec = bench["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} differ in name or unit")
            for name, m in result["metrics"].items():
                v = m["value"]
                zero_ok = m["unit"] == "count" or name in MAY_BE_ZERO
                sign_ok = v > 0 or (zero_ok and v == 0) or name in SIGNED
                if not (isinstance(v, float) and math.isfinite(v) and sign_ok):
                    errors.append(f"{tag}: {name} = {v!r}")
    return errors


def expect(errors: list[str], tag: str, failures: list[str]) -> None:
    if not any(f.startswith(tag) for f in failures):
        errors.append(f"perturbation for '{tag}' not rejected (got {failures})")


def perturbations() -> list[str]:
    """Real quick rounds, checked as they are and then with one answer
    perturbed at a time."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    import layers
    import numpy as np
    import workloads
    from spans import Spans

    sizes = workloads.QUICK
    spans = Spans(nested=False)
    errors: list[str] = []

    def one_round(fam: str):
        inp = workloads.BUILD[fam](7, sizes.of(fam, cross=False))
        rnd, ops = workloads.OPS[fam](inp, spans)
        for op in ops:
            op()
        return inp, rnd

    def bump(est, k: float = 5.0):
        return replace(est, mean=est.mean + k * est.std_error)

    # series
    _, rnd = one_round("series")
    refs = checks.series_references(rnd, sizes.check_paths)
    base = checks.check_series(rnd, refs)
    if base:
        errors.append(f"series checks fail unperturbed: {base}")

    def with_price(i: int, price: float):
        r = copy.deepcopy(rnd)
        name, params, spec, bk, dt = r.prices[i]
        r.prices[i] = (name, params, spec, replace(bk, price=price), dt)
        return r

    names = [p[0] for p in rnd.prices]
    dens, pois = names.index("asym+"), names.index("equal_c")  # in the money
    expect(errors, "density", checks.check_series(with_price(dens, rnd.prices[dens][3].price * (1 + 1e-6)), refs))
    expect(errors, "poisson", checks.check_series(with_price(pois, rnd.prices[pois][3].price * (1 + 1e-6)), refs))
    expect(errors, "bounds", checks.check_series(with_price(dens, 100.0 * 1.001), refs))
    # asym+ group in strike order: ITM, ATM, OTM
    itm, atm, otm = [i for i, p in enumerate(rnd.prices) if p[0] == "asym+"]
    k = [rnd.prices[i][2].strike for i in (itm, atm, otm)]
    c = [rnd.prices[i][3].price for i in (itm, atm, otm)]
    chord = c[0] + (c[2] - c[0]) * (k[1] - k[0]) / (k[2] - k[0])
    expect(errors, "strike-monotone", checks.check_series(with_price(otm, c[0] + 1.0), refs))
    expect(errors, "strike-convex", checks.check_series(with_price(atm, chord + 1e-3), refs))
    r = copy.deepcopy(rnd)
    r.long = replace(r.long, price=r.long.price * (1 + 1e-6))
    expect(errors, "density: long", checks.check_series(r, refs))
    q = rnd.quantile[0]
    r = copy.deepcopy(rnd)
    r.quantile[0].solution = replace(q.solution, budget=q.solution.budget + 1e-6 * q.params.s0)
    expect(errors, "budget-residual", checks.check_series(r, refs))
    r = copy.deepcopy(rnd)
    r.quantile[0].dual = replace(q.dual, budget=q.dual.budget * (1 + 1e-6))
    expect(errors, "dual-round-trip", checks.check_series(r, refs))
    (_, p_lo), _ = refs["quantile"][q.name]["neighbours"]
    r = copy.deepcopy(rnd)
    r.quantile[0].solution = replace(q.solution, success_probability=p_lo + 1e-3)
    expect(errors, "budget-monotone", checks.check_series(r, refs))
    est = refs["quantile"][q.name]["mc"]
    r = copy.deepcopy(rnd)
    r.quantile[0].solution = replace(q.solution, success_probability=est.mean + 5 * est.std_error)
    expect(errors, "mc-success", checks.check_series(r, refs))

    # hedge
    inp, rnd = one_round("hedge")
    refs = checks.hedge_references(rnd, inp.params, inp.spec, 7)
    s0 = inp.params.s0
    base = checks.check_hedge(rnd, refs, s0)
    if base:
        errors.append(f"hedge checks fail unperturbed: {base}")
    st = rnd.stats
    for tag, field, value in (
        ("initial-capital", "initial_capital", st.initial_capital * (1 + 1e-6)),
        ("mean-error", "mean_abs_error", 1.01e-3 * s0),
        ("max-error", "max_abs_error", 1.01e-2 * s0),
    ):
        r = copy.copy(rnd)
        r.stats = replace(st, **{field: value})
        expect(errors, tag, checks.check_hedge(r, refs, s0))
    bad = copy.deepcopy(refs)
    t, x, sigma, surface, ref = bad["states"][0]
    bad["states"][0] = (t, x, sigma, surface * (1 + 1e-6), ref)
    expect(errors, "surface", checks.check_hedge(rnd, bad, s0))

    # mc
    inp, rnd = one_round("mc")
    refs = checks.mc_references(inp, sizes.check_paths)
    base = checks.check_mc(rnd, inp, refs)
    if base:
        errors.append(f"mc checks fail unperturbed: {base}")
    for tag, key in (("mc-price", "price"), ("mc-girsanov", "girsanov"), ("mc-success", "success")):
        r = copy.copy(rnd)
        r.estimates = dict(rnd.estimates, **{key: bump(rnd.estimates[key])})
        expect(errors, tag, checks.check_mc(r, inp, refs))
    for tag, key in (("discounted-stock", "discounted_stock"), ("density-mass", "density_mass")):
        expect(errors, tag, checks.check_mc(rnd, inp, dict(refs, **{key: bump(refs[key])})))
    w1, w2 = refs["workers"]
    bad = dict(refs, workers=[w1, replace(w2, mean=float(np.nextafter(w2.mean, math.inf)))])
    expect(errors, "workers", checks.check_mc(rnd, inp, bad))
    r = copy.copy(rnd)
    profits = rnd.arbitrage[0].profits.copy()
    profits[0] = -1e-9
    r.arbitrage = [replace(rnd.arbitrage[0], profits=profits, min_profit=-1e-9)] + rnd.arbitrage[1:]
    expect(errors, "arbitrage", checks.check_mc(r, inp, refs))
    r = copy.copy(rnd)
    r.limit = rnd.limit[[0, 1, 3, 2]]
    expect(errors, "limit-decreasing", checks.check_mc(r, inp, refs))

    # repeated rounds
    r = copy.copy(rnd)
    r.limit = rnd.limit * (1 + 1e-15)
    expect(errors, "repeat", checks.check_repeats("mc", [rnd, r]))

    # command line
    price = 17.0843965897715
    doc = json.dumps({"price": price})
    if layers.cli_price_failures(0, doc, price):
        errors.append("cli-price check fails an exact answer")
    expect(errors, "cli-price", layers.cli_price_failures(0, json.dumps({"price": price * (1 + 1e-15)}), price))
    return errors


def bare_directory() -> list[str]:
    """The benchmark alone, without the engine's sources, must fail."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = bare_directory() + run_workloads(bench) + perturbations()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
