"""Benchmark of the telegraph-market engine.

    python3 perfbench/run.py --workload {series,paths} --seed N --seconds S --trace {0,1}

Run from the root of a source tree: the engine is imported from ``src/``.
The workload's own rounds repeat until ``--seconds`` of them have run
(always at least one whole round), with a few smaller cross-section rounds
of the other families spread between their operations; then the outputs
are checked, and the last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (the workload's own
operations) and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. A readable summary goes to
standard error. ``--quick`` shrinks every size for the self-test.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "prices_per_s": "price/s",
    "long_price_s": "s",
    "quantile_solves_per_s": "solve/s",
    "hedge_steps_per_s": "step/s",
    "mc_paths_per_s": "path/s",
    "arbitrage_paths_per_s": "path/s",
    "limit_check_s": "s",
}
FAMILIES = ("series", "hedge", "mc")
# The families of each workload, with the number of rounds of each that one
# own round holds; every other family runs as a cross-section.
WORKLOADS = {"series": {"series": 1}, "paths": {"hedge": 2, "mc": 1}}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small sizes (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_engine() -> None:
    """Put this tree's ``src/`` first on the path and check that the engine
    comes from there, not from an installed copy."""
    if not (SRC / "telegraph_market" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import telegraph_market.cli  # noqa: F401  (the CLI's import is part of set-up)

    origin = Path(telegraph_market.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: telegraph_market imported from {origin}, not {SRC}")


def setup_probe(args: argparse.Namespace) -> None:
    """Child of ``measure_setup``: import, build inputs, one warm-up call."""
    import_engine()
    import workloads

    sizes = workloads.QUICK if args.quick else workloads.FULL
    for fam in WORKLOADS[args.workload]:
        workloads.BUILD[fam](args.seed, sizes.of(fam, cross=False))
        workloads.warm_up(fam)
    print("ready", flush=True)


def measure_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to its first timed
    operation being ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def interleave(groups: list[list]) -> list:
    """The items of all groups in one list, each group spread evenly over it."""
    placed = [((k + 0.5) / len(g), item) for g in groups for k, item in enumerate(g)]
    return [item for _, item in sorted(placed, key=lambda p: p[0])]


def new_rounds(families: dict[str, int], inputs: dict, rounds: dict, spans) -> list:
    """``families[fam]`` fresh rounds of each family, recorded in ``rounds``;
    their operations interleaved."""
    import workloads

    groups = []
    for fam, count in families.items():
        fam_ops = []
        for _ in range(count):
            rnd, ops = workloads.OPS[fam](inputs[fam], spans)
            rounds[fam].append(rnd)
            fam_ops += ops
        groups.append(fam_ops)
    return interleave(groups)


def run_rounds(own: dict[str, int], inputs: dict, cross_rounds: dict, spans,
               seconds: float) -> tuple[dict, float, int]:
    """Whole own rounds until ``seconds`` of them have run, with
    ``cross_rounds`` cross-section rounds of each other family spread over
    that time: after each own operation, cross-section operations run until
    their share done matches the share of ``seconds`` used. Only own
    operations count towards ``seconds``."""
    rounds: dict[str, list] = {fam: [] for fam in FAMILIES}
    cross = new_rounds({fam: n for fam, n in cross_rounds.items() if fam not in own},
                       inputs, rounds, spans)
    own_s, done, n_own = 0.0, 0, 0
    while n_own == 0 or own_s < seconds:
        ops = new_rounds(own, inputs, rounds, spans)
        n_own += 1
        for op in ops:
            t0 = perf_counter()
            op()
            own_s += perf_counter() - t0
            due = min(len(cross), int(len(cross) * own_s / seconds))
            while done < due:
                cross[done]()
                done += 1
    for op in cross[done:]:
        op()
    return rounds, own_s, n_own


def end_to_end(rounds: dict, setups: list[float]) -> dict[str, float]:
    """Medians over the rounds of each family (own or cross-section)."""
    series, hedge, mcr = rounds["series"], rounds["hedge"], rounds["mc"]
    out = {
        "prices_per_s": median(len(r.prices) / r.sweep_s for r in series),
        "long_price_s": median(r.long_s for r in series),
        "quantile_solves_per_s": median(
            2 * len(r.quantile) / sum(q.solve_s + q.dual_s for q in r.quantile) for r in series
        ),
        "hedge_steps_per_s": median(r.steps / r.round_s for r in hedge),
        "mc_paths_per_s": median(len(r.estimates) * r.paths / r.estimators_s for r in mcr),
        "arbitrage_paths_per_s": median(r.arb_paths / t for r in mcr for t in r.arbitrage_s),
        "limit_check_s": median(t for r in mcr for t in r.limit_s),
    }
    if setups:
        out["setup_s"] = median(setups)
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_engine()
    import checks
    import workloads
    from spans import Spans

    sizes = workloads.QUICK if args.quick else workloads.FULL
    own, seed = WORKLOADS[args.workload], args.seed
    phase = {"start": perf_counter()}
    setups = [] if args.trace else [measure_setup(args) for _ in range(sizes.setups)]
    phase["set-up"] = perf_counter()

    inputs = {
        fam: workloads.BUILD[fam](seed, sizes.of(fam, cross=fam not in own)) for fam in FAMILIES
    }
    for fam in FAMILIES:
        workloads.warm_up(fam)
    spans = Spans(nested=bool(args.trace))
    phase["inputs"] = perf_counter()
    rounds, own_s, n_own = run_rounds(own, inputs, sizes.cross_rounds, spans, args.seconds)
    phase["rounds"] = perf_counter()

    failures: list[str] = []
    s_round, h_round, m_round = rounds["series"][0], rounds["hedge"][0], rounds["mc"][0]
    failures += checks.check_series(s_round, checks.series_references(s_round, sizes.check_paths))
    h_in = inputs["hedge"]
    failures += checks.check_hedge(
        h_round, checks.hedge_references(h_round, h_in.params, h_in.spec, seed), h_in.params.s0
    )
    m_in = inputs["mc"]
    failures += checks.check_mc(m_round, m_in, checks.mc_references(m_in, sizes.check_paths))
    for fam in FAMILIES:
        failures += checks.check_repeats(fam, rounds[fam])

    phase["checks"] = perf_counter()
    e2e = end_to_end(rounds, setups)
    if args.trace:
        import layers

        OUT.mkdir(exist_ok=True)
        reps = 3 if args.quick else 5
        metrics = {}
        metrics.update(layers.series_metrics(rounds["series"]))
        metrics.update(layers.pricing_probes(spans, reps))
        metrics.update(layers.quantile_probes(spans, s_round, reps))
        metrics.update(layers.hedge_metrics(spans, rounds["hedge"]))
        metrics.update(layers.mc_probes(spans, seed, reps))
        cli_metrics, cli_failures = layers.cli_probes(str(ROOT), str(OUT))
        metrics.update(cli_metrics)
        failures += cli_failures
        spans.dump(str(OUT / f"spans-{args.workload}-{seed}.json"))
        units = layers.UNITS
    else:
        metrics = e2e
        units = E2E_UNITS

    own_rounds = [r for fam in own for r in rounds[fam]]
    attempted = sum(r.attempted for r in own_rounds)
    failed = sum(r.failed for r in own_rounds)
    log = sys.stderr
    print(f"workload {args.workload} seed {seed}: {n_own} rounds in {own_s:.2f} s, "
          f"{attempted} operations, {failed} failed", file=log)
    marks = list(phase.items())
    print("  phases: " + ", ".join(f"{name} {t - marks[i][1]:.1f} s"
                                   for i, (name, t) in enumerate(marks[1:])), file=log)
    for name, value in e2e.items():
        print(f"  {name:<24} {value:.6g} {E2E_UNITS[name]}", file=log)
    for msg in failures:
        print(f"  CHECK FAILED {msg}", file=log)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
