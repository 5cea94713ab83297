"""Run the benchmark on two source trees in alternating pairs and record it.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --parent-commit SHA --change-commit TEXT --out BENCH_<n>.json

Each of ``PAIRS`` pairs runs ``python3 perfbench/run.py --workload W --seed S
--trace 0`` (default ``--seconds``) once in each tree, with seeds
``FIRST_SEED``, ``FIRST_SEED + 1``, ..., the order alternating from pair to
pair, because the speed of a shared machine drifts over minutes. Ten pairs
is the fewest from which a claimed gain can count. The JSON
record holds every run, and per workload and end-to-end metric the medians
and quartile spreads ((q3 - q1) / median) of both trees, the ratio of the
medians (change / parent) and the number of pairs in which the change was
better, with the machine's CPU count and the Python, numpy and scipy
versions. After the pairs, one traced run per tree and workload records the
per-layer metrics. When a run exits non-zero, the record so far is written
with that run (tree, workload, seed, exit code, the tail of its stderr)
under ``failed_run``, and the script exits 1.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --parent-commit SHA --change-commit TEXT --out BENCH_<n>.json --op hedge

The per-operation mode (``--op``) resolves effects of a few percent, which
the end-to-end pairs do not. Each of ``OP_PAIRS`` pairs runs one short
subprocess per tree, in alternating order, on the seeds above. A
subprocess builds the operation's ``FULL`` inputs, makes the family's
warm-up call and one untimed round, then times ``OP_REPS`` rounds; the
median of its rounds is that tree's figure in the pair. ``hedge`` times a
whole ``workloads.hedge_ops`` round; ``mc`` times the ``estimators_s`` of a
``workloads.mc_ops`` round (the three terminal-state estimators, which
``mc_paths_per_s`` divides by); ``arb`` times the summed ``arbitrage_s`` of
such a round (its arbitrage demos, whose per-call times
``arbitrage_paths_per_s`` divides by). The record holds
every figure, the ratio (change / parent) of each pair, the median ratio
with a bootstrap 95% interval (pairs resampled ``BOOTSTRAP`` times), and
the number of pairs in which the change was faster. It is appended to the
``per_operation`` list of ``--out``, which keeps what the file already
holds. Pairing cancels drift slower than one pair
(Kalibera & Jones, "Rigorous benchmarking in reasonable time", ISMM 2013).
Give the same tree on both sides for an A/A run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import numpy
import scipy

WORKLOADS = ("series", "paths")
PAIRS = 10
FIRST_SEED = 2001
OP_PAIRS = 30
OP_REPS = 8
BOOTSTRAP = 10_000
# A script that times one figure of whole ``workloads.mc_ops`` rounds, whose
# operations run in the benchmark's order; FIGURE is an expression of the
# round ``rnd``.
MC_ROUND = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from spans import Spans
seed, reps = int(sys.argv[1]), int(sys.argv[2])
inp = workloads.build_mc(seed, workloads.FULL.mc)
workloads.warm_up("mc")
def one_round():
    rnd, ops = workloads.mc_ops(inp, Spans(False))
    for op in ops:
        op()
    return FIGURE
one_round()
print(json.dumps([one_round() for _ in range(reps)]))
"""
# Per operation, a script that times warmed rounds in the tree it runs in;
# argv: seed, rounds. It prints the rounds' seconds as a JSON list.
OP_SCRIPTS = {
    "hedge": """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from spans import Spans
seed, reps = int(sys.argv[1]), int(sys.argv[2])
inp = workloads.build_hedge(seed, workloads.FULL.hedge)
rnd, ops = workloads.hedge_ops(inp, Spans(False))
workloads.warm_up("hedge")
ops[0]()
times = []
for _ in range(reps):
    ops[0]()
    times.append(rnd.round_s)
print(json.dumps(times))
""",
    # the three terminal-state estimators' seconds of a whole round, whose
    # limit checks and arbitrage demos run between them as in the benchmark
    "mc": MC_ROUND.replace("FIGURE", "rnd.estimators_s"),
    # the arbitrage demos' summed seconds of a whole round
    "arb": MC_ROUND.replace("FIGURE", "sum(rnd.arbitrage_s)"),
}


def run_args(workload: str, seed: int | str, trace: int | str) -> list[str]:
    return ["perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]


class RunFailed(Exception):
    """A benchmark run exited non-zero; ``args[0]`` describes it."""


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, *run_args(workload, seed, trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RunFailed({
            "tree": str(tree), "workload": workload, "seed": seed, "trace": trace,
            "exit_code": done.returncode, "stderr_tail": done.stderr[-2000:],
        })
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_op(tree: Path, op: str, seed: int) -> float:
    """Median seconds of ``OP_REPS`` warmed rounds of ``op`` in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", OP_SCRIPTS[op], str(seed), str(OP_REPS)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RunFailed({
            "tree": str(tree), "op": op, "seed": seed,
            "exit_code": done.returncode, "stderr_tail": done.stderr[-2000:],
        })
    return median(json.loads(done.stdout.strip().splitlines()[-1]))


def op_pairs(parent: Path, change: Path, op: str) -> dict:
    """The per-operation record of ``OP_PAIRS`` alternating pairs."""
    runs = []
    for i in range(OP_PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[f"{side}_s"] = run_op(parent if side == "parent" else change, op, seed)
        pair["ratio"] = pair["change_s"] / pair["parent_s"]
        runs.append(pair)
        print(f"{op} seed {seed}: ratio {pair['ratio']:.4f}", file=sys.stderr)
    ratios = [r["ratio"] for r in runs]
    rng = random.Random(0)
    boot = sorted(median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return {
        "command": f"python3 -c OP_SCRIPTS[{op!r}] SEED {OP_REPS}",
        "figure": "median seconds of one subprocess's timed rounds",
        "pairs": OP_PAIRS,
        "reps": OP_REPS,
        "median_ratio": median(ratios),
        "ratio_ci95": [boot[int(0.025 * BOOTSTRAP)], boot[int(0.975 * BOOTSTRAP) - 1]],
        "change_faster_in_pairs": sum(r < 1.0 for r in ratios),
        "runs": runs,
    }


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--op", choices=tuple(OP_SCRIPTS),
                    help="per-operation mode: pair one warmed operation")
    args = ap.parse_args()
    if args.op:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        try:
            record.setdefault("per_operation", []).append({
                "op": args.op,
                "parent_commit": args.parent_commit,
                "change_commit": args.change_commit,
                "machine": machine(),
                **op_pairs(args.parent, args.change, args.op),
            })
        except RunFailed as exc:
            sys.exit(f"run failed: {json.dumps(exc.args[0])}")
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        return
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    record = {
        "command": " ".join(["python3", *run_args("W", "S", 0)]),
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "machine": machine(),
        "pairs": PAIRS,
        "workloads": {},
    }
    try:
        for workload in WORKLOADS:
            runs = []
            record["workloads"][workload] = {"runs": runs}  # kept if a run fails
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": list(order)}
                runs.append(pair)
                for side in order:
                    tree = args.parent if side == "parent" else args.change
                    pair[side] = run_once(tree, workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            metrics = {}
            for name, direction in better.items():
                par = [r["parent"]["metrics"][name]["value"] for r in runs]
                chg = [r["change"]["metrics"][name]["value"] for r in runs]
                wins = sum((c < p) if direction == "lower" else (c > p)
                           for p, c in zip(par, chg))
                metrics[name] = {
                    "better": direction,
                    "parent": summary(par),
                    "change": summary(chg),
                    "ratio_of_medians": median(chg) / median(par),
                    "change_better_in_pairs": wins,
                }
            traced = {side: run_once(tree, workload, FIRST_SEED, trace=1)["metrics"]
                      for side, tree in (("parent", args.parent), ("change", args.change))}
            record["workloads"][workload] = {
                "correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
                "failed": {s: sorted({f"{r[s]['failed']}/{r[s]['attempted']}" for r in runs})
                           for s in ("parent", "change")},
                "metrics": metrics,
                "traced": traced,
                "runs": runs,
            }
    except RunFailed as exc:
        record["failed_run"] = exc.args[0]
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        sys.exit(f"run failed: {json.dumps(exc.args[0])}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")

if __name__ == "__main__":
    main()
