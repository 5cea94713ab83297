"""Command-line surface: model ingestion from a flat key=value config and
one subcommand per computation, with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 usage or config error, 2 arbitrage violation,
3 numerical (truncation/root) failure, 4 infeasible budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import mc
from .errors import ArbitrageError, BudgetError, TruncationError
from .hedging import make_call_pricer, replication_backtest
from .measure import martingale_intensities
from .model import ModelParams, check_time, path_state, sample_path
from .densities import DensityParams, density_total
from .pricing import (
    CallSpec,
    SeriesControls,
    call_price,
    merton_price,
    symmetric_price_check,
)
from .quantile import (
    Budget,
    insurance_budget,
    solve_budget_gamma,
    solve_dual,
)

_REQUIRED_KEYS = (
    "c_plus", "c_minus", "lambda_plus", "lambda_minus",
    "h_plus", "h_minus", "r_plus", "r_minus", "s0", "sigma0",
)
_OPTIONAL_KEYS = ("tail_epsilon", "max_terms")


class ConfigError(ValueError):
    """Malformed or incomplete model configuration."""


def parse_config(text: str) -> tuple[ModelParams, SeriesControls]:
    """Parse a flat key=value document with '#' comments.

    Unknown keys are rejected; sigma0 must be the literal "+1" or "-1".
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if values["sigma0"] not in ("+1", "-1"):
        raise ConfigError('sigma0 must be the literal "+1" or "-1"')
    try:
        params = ModelParams(
            c_plus=float(values["c_plus"]),
            c_minus=float(values["c_minus"]),
            lambda_plus=float(values["lambda_plus"]),
            lambda_minus=float(values["lambda_minus"]),
            h_plus=float(values["h_plus"]),
            h_minus=float(values["h_minus"]),
            r_plus=float(values["r_plus"]),
            r_minus=float(values["r_minus"]),
            s0=float(values["s0"]),
            sigma0=1 if values["sigma0"] == "+1" else -1,
        )
        controls = SeriesControls(
            tail_epsilon=float(values.get("tail_epsilon", "1e-12")),
            max_terms=int(values.get("max_terms", "400")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, controls


def _to_json(x: Any, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (schema-stable)."""
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)) or x is None:
        return json.dumps(x)
    if isinstance(x, dict):
        items = [
            f"{pad_in}{json.dumps(k)}: {_to_json(v, indent + 1)}"
            for k, v in x.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(x, (list, tuple)):
        items = [f"{pad_in}{_to_json(v, indent + 1)}" for v in x]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"unsupported JSON value {type(x)!r}")


def _emit_json(obj: dict, out: io.TextIOBase) -> None:
    out.write(_to_json(obj))
    out.write("\n")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def cmd_price(args: argparse.Namespace, out: io.TextIOBase) -> int:
    params, controls = parse_config(_read(args.config))
    spec = CallSpec(strike=args.strike, maturity=args.maturity)
    if args.method == "series":
        bk = call_price(params, spec, controls)
        _emit_json(
            {
                "method": "series",
                "price": bk.price,
                "u": bk.u,
                "U": bk.U,
                "y": bk.y,
                "idx_minus": bk.idx_minus,
                "idx_plus": bk.idx_plus,
                "n_used": bk.n_used,
                "tail_bound": bk.tail_bound,
                "regime_case": bk.regime_case,
            },
            out,
        )
    elif args.method == "mc":
        martingale_intensities(params)  # arbitrage gate before simulating
        est = mc.mc_price(
            params,
            lambda s: np.maximum(s - args.strike, 0.0),
            args.maturity,
            args.paths,
            args.seed,
        )
        _emit_json(
            {
                "method": "mc",
                "price": est.mean,
                "std_error": est.std_error,
                "n_paths": est.n_paths,
                "seed": est.seed,
            },
            out,
        )
    elif args.method == "merton":
        if params.c_plus != params.c_minus or params.r_plus != params.r_minus:
            raise ConfigError("merton method needs c_plus == c_minus and r_plus == r_minus")
        if params.h_plus != params.h_minus:
            raise ConfigError("merton method needs h_plus == h_minus")
        price = merton_price(
            params.c_plus, params.r_plus, -params.h_plus,
            params.s0, args.strike, args.maturity,
        )
        _emit_json({"method": "merton", "price": price}, out)
    else:  # symmetric
        price = symmetric_price_check(params, spec, controls)
        _emit_json({"method": "symmetric", "price": price}, out)
    return 0


def _check_count(option: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{option} must be nonnegative, got {value}")


def cmd_simulate(args: argparse.Namespace, out: io.TextIOBase) -> int:
    params, _ = parse_config(_read(args.config))
    check_time("horizon", args.horizon)
    _check_count("--paths", args.paths)
    _check_count("--grid", args.grid)
    t_grid = np.linspace(0.0, args.horizon, args.grid + 1)
    names = ("X", "J", "S", "B")
    rows = []  # every path's columns, checked before the header is written
    for pid in range(args.paths):
        st = path_state(sample_path(params, args.horizon, args.seed, pid), t_grid)
        with np.errstate(over="ignore", invalid="ignore"):
            columns = (
                st.telegraph(params.c_plus, params.c_minus),
                st.jump_sum(params.h_plus, params.h_minus),
                st.stock(params),
                np.exp(st.telegraph(params.r_plus, params.r_minus)),
            )
        for name, col in zip(names, columns):
            if not np.isfinite(col).all():
                raise TruncationError(f"column {name} of path {pid} is not finite")
        rows.append((st.regime().tolist(), columns))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["path_id", "t", "regime", *names])
    for pid, (regimes, columns) in enumerate(rows):
        for t, regime, *vals in zip(t_grid, regimes, *columns):
            writer.writerow([pid, _g17(t), regime, *map(_g17, vals)])
    return 0


def cmd_density(args: argparse.Namespace, out: io.TextIOBase) -> int:
    params, _ = parse_config(_read(args.config))
    dens = DensityParams(
        c_plus=params.c_plus, c_minus=params.c_minus,
        lambda_plus=params.lambda_plus, lambda_minus=params.lambda_minus,
    )
    sigma = params.sigma0 if args.sigma is None else args.sigma
    check_time("t", args.t)
    _check_count("--points", args.points)
    lo, hi = params.c_minus * args.t, params.c_plus * args.t
    x = np.linspace(lo, hi, args.points)
    val = density_total(x, args.t, sigma, dens)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "p_continuous"])
    for xi, pi in zip(x, np.atleast_1d(val.continuous)):
        writer.writerow([_g17(xi), _g17(pi)])
    out.write(f"# atom {_g17(val.atom_location)} {_g17(val.atom_weight)}\n")
    return 0


def cmd_hedge(args: argparse.Namespace, out: io.TextIOBase) -> int:
    params, controls = parse_config(_read(args.config))
    spec = CallSpec(strike=args.strike, maturity=args.maturity)
    # the t = 0 price first: a series that cannot be summed fails before
    # any path is drawn
    capital = call_price(params, spec, controls).price
    pricer = make_call_pricer(params, spec, controls)
    paths = [
        sample_path(params, args.maturity, args.seed, pid)
        for pid in range(args.paths)
    ]
    stats = replication_backtest(
        paths, spec, params, args.grid, pricer_f=pricer,
        initial_capital=capital, controls=controls,
    )
    _emit_json(
        {
            "initial_capital": stats.initial_capital,
            "mean_abs_error": stats.mean_abs_error,
            "max_abs_error": stats.max_abs_error,
            "min_capital": stats.min_capital,
            "admissible": stats.admissible,
            "n_paths": args.paths,
            "n_steps": args.grid,
            "seed": args.seed,
        },
        out,
    )
    return 0


def cmd_quantile(args: argparse.Namespace, out: io.TextIOBase) -> int:
    params, controls = parse_config(_read(args.config))
    spec = CallSpec(strike=args.strike, maturity=args.maturity)
    if args.survival is not None:
        if args.budget is not None or args.epsilon is not None:
            raise ConfigError("--survival cannot be combined with --budget/--epsilon")
        v0 = insurance_budget(args.survival, params, spec, controls)
        sol = solve_budget_gamma(Budget(v0), params, spec, controls)
    elif args.budget is not None:
        sol = solve_budget_gamma(Budget(args.budget), params, spec, controls)
    elif args.epsilon is not None:
        sol = solve_dual(args.epsilon, params, spec, controls)
    else:
        raise ConfigError("one of --budget, --epsilon, --survival is required")
    _emit_json(
        {
            "gamma": sol.gamma,
            "success_probability": sol.success_probability,
            "budget": sol.budget,
            "regime_case": sol.regime_case,
            "n_thresholds": len(sol.thresholds),
        },
        out,
    )
    return 0


def cmd_limit_check(args: argparse.Namespace, out: io.TextIOBase) -> int:
    for name, value in (("v_c", args.vc), ("v_a", args.va)):
        if math.isfinite(value) and not math.isfinite(value * value):
            raise TruncationError(f"{name} = {value!r}: the limit variance {name}^2 overflows")
    if math.isfinite(args.va) and args.va < 0:
        for level in args.levels:
            # the check's jump size h = e^(v_a / sqrt(level)) - 1 rounds to -1
            # (no price left after a jump) once the exponential is below ~1e-16
            if level >= 1 and math.exp(args.va / math.sqrt(level)) - 1.0 == -1.0:
                raise TruncationError(
                    f"v_a = {args.va!r}: the jump size e^(v_a / sqrt(level)) - 1 "
                    f"rounds to -1 at level {level}"
                )
    try:
        errors = mc.limit_scaling_check(
            args.vc, args.va, args.mu, args.levels, args.z, args.t
        )
    except OverflowError as exc:
        raise TruncationError(
            f"limit-check overflowed ({exc}): the jump factor e^(v_a / sqrt(level)) "
            "and the Gaussian limit e^(mu z t + v^2 z^2 t / 2) must stay in the float range"
        ) from exc
    report = [
        {
            "level": int(level),
            "errors": [float(e) for e in row],
            "max_error": float(row.max()),
        }
        for level, row in zip(args.levels, errors)
    ]
    _emit_json({"z_values": list(args.z), "levels": report}, out)
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="telegraph-market")
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("price", help="European call price")
    pr.add_argument("--config", required=True)
    pr.add_argument("--strike", type=float, required=True)
    pr.add_argument("--maturity", type=float, required=True)
    pr.add_argument(
        "--method", choices=("series", "mc", "merton", "symmetric"),
        default="series",
    )
    pr.add_argument("--paths", type=int, default=100_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_price)

    sim = sub.add_parser("simulate", help="sample paths to CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--grid", type=int, required=True)
    sim.add_argument("--horizon", type=float, required=True)
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    den = sub.add_parser("density", help="terminal density to CSV")
    den.add_argument("--config", required=True)
    den.add_argument("--t", type=float, required=True)
    den.add_argument("--points", type=int, default=400)
    den.add_argument("--sigma", type=int, choices=(-1, 1), default=None)
    den.add_argument("--out")
    den.set_defaults(func=cmd_density)

    hed = sub.add_parser("hedge", help="replication backtest report")
    hed.add_argument("--config", required=True)
    hed.add_argument("--strike", type=float, required=True)
    hed.add_argument("--maturity", type=float, required=True)
    hed.add_argument("--paths", type=int, default=100)
    hed.add_argument("--grid", type=int, default=1000)
    hed.add_argument("--seed", type=int, default=0)
    hed.add_argument("--out")
    hed.set_defaults(func=cmd_hedge)

    qua = sub.add_parser("quantile", help="quantile hedging solution")
    qua.add_argument("--config", required=True)
    qua.add_argument("--strike", type=float, required=True)
    qua.add_argument("--maturity", type=float, required=True)
    qua.add_argument("--budget", type=float)
    qua.add_argument("--epsilon", type=float)
    qua.add_argument("--survival", type=float)
    qua.add_argument("--out")
    qua.set_defaults(func=cmd_quantile)

    lim = sub.add_parser("limit-check", help="diffusion-limit MGF errors")
    lim.add_argument("--vc", type=float, required=True)
    lim.add_argument("--va", type=float, required=True)
    lim.add_argument("--mu", type=float, required=True)
    lim.add_argument("--levels", type=int, nargs="+", default=(1, 4, 16, 64))
    lim.add_argument("--z", type=float, nargs="+", default=(-1.0, 0.5, 1.0))
    lim.add_argument("--t", type=float, default=1.0)
    lim.add_argument("--out")
    lim.set_defaults(func=cmd_limit_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not args.out:
            return args.func(args, sys.stdout)
        # the path must be writable before the run starts (a missing file is
        # created), but only a successful run replaces what the file holds
        open(args.out, "a", encoding="utf-8").close()
        buf = io.StringIO()
        code = args.func(args, buf)
        if code == 0:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(buf.getvalue())
        return code
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArbitrageError as exc:
        sys.stderr.write(f"arbitrage violation: {exc}\n")
        return 2
    except TruncationError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except BudgetError as exc:
        sys.stderr.write(f"infeasible budget: {exc}\n")
        return 4
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
