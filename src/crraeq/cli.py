"""Command-line surface: validate, evaluate, simulate, verify, calibrate.

Exit codes are fixed for CI use: 0 success, 1 model-level failure
(nonpositive denominator, failed verification suite, calibration that
does not converge), 2 input error (malformed JSON, schema violations,
bad flag values), 3 I/O error (unreadable config, unwritable output).

Every number is serialized with 17 significant digits, so JSON and CSV
output round-trips losslessly to the in-memory float64 values and byte
identity across reruns is a meaningful regression check.  JSON writes a
non-finite float as `json.dumps` does (Infinity, -Infinity, NaN); CSV
keeps the `%.17g` spellings inf, -inf and nan.

`simulate` draws, evaluates and writes one path at a time, and spells
each block of CSV rows in numpy with the bytes CPython's `%.17g` gives
(`_csvfmt`), so neither the paths nor the formatted text are held in
memory at once.  The spelled bytes go straight to the file, opened in
binary mode, through one set of block buffers per command; spelling and
writing take about 110 ns of CPU per value (8 paths of 10,241 rows of
16 values on a 2-core Xeon VM).

`verify` only checks its flags and prints: the suites live in `crraeq.verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import _csvfmt
from .calibrate import (
    TOL_FLOOR,
    CalibrationTarget,
    solve_gamma_on_table,
    wealth_shares,
)
from .equilibrium import snapshot
from .model import (
    ConfigError,
    EconomyParams,
    MarketState,
    ModelError,
    NonpositiveDenominator,
    economy_from_dict,
    validate,
)
from .multiindex import CompositionCapExceeded
from .simulate import (
    MAX_PATHS, _at_binade, _check_seed, _resolve_grid, evaluate_series, simulate_path,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_INPUT = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# serialization


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isfinite(value):
        return format(value, ".17g")
    return json.dumps(value)


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(_scalar_json(v) for v in seq) + "]"
        inner = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    return _scalar_json(value)


def _print_json(obj) -> None:
    print(_to_json(obj))


def _load_economy(path: str) -> EconomyParams:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return economy_from_dict(raw)


# ---------------------------------------------------------------------------
# validate / evaluate


def cmd_validate(args) -> int:
    params = _load_economy(args.config)
    table = validate(params)
    _print_json(
        {
            "valid": True,
            "min_denominator": table.min_denominator,
            "footnote_condition_holds": table.footnote_holds,
        }
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    params = _load_economy(args.config)
    table = validate(params)
    snap = snapshot(MarketState(args.t, args.x), params, table)
    _print_json(asdict(snap))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


# the CSV's columns after path_id, in order, each a (header, EvaluatedSeries
# field) pair; a header with a {} is an agent field, one column per agent
_CSV_FIELDS = (
    ("t", "t"), ("x", "x"), ("delta", "dividend"), ("zeta", "zeta"), ("S", "stock_price"),
    ("pd", "pd_ratio"), ("r", "riskless_rate"), ("kappa", "kappa"), ("sigma_S", "vol"),
    ("mu_S", "drift"), ("c_{}", "consumptions"), ("w_{}", "wealths"), ("pi_{}", "portfolios"),
)


def _csv_columns(n_agents: int) -> list:
    cols = ["path_id"]
    for head, _ in _CSV_FIELDS:
        cols += [head.format(j + 1) for j in range(n_agents)] if "{}" in head else [head]
    return cols


def _series_matrix(series) -> np.ndarray:
    """Columns in CSV order (everything after path_id), one row per node."""
    return np.column_stack([getattr(series, field) for _, field in _CSV_FIELDS])


# rows per block of CSV: large enough that numpy's per-call cost vanishes,
# small enough that a block's arrays stay in cache
_CSV_BLOCK_ROWS = 512


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise ConfigError("--paths must be positive")
    if args.paths > MAX_PATHS:
        raise ConfigError(f"--paths must be at most {MAX_PATHS}, got {args.paths}")
    if args.workers < 1:
        raise ConfigError("--workers must be positive")
    _check_seed(args.seed)
    horizon = args.horizon if args.horizon is not None else args.t0 + 10.0
    for flag, value in (("--t0", args.t0), ("--x0", args.x0), ("--horizon", horizon)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    # an explicit horizon needs no table
    grid = _resolve_grid(args.t0, horizon, args.steps, None)
    params = _load_economy(args.config)
    table = validate(params)
    columns = _csv_columns(params.n_agents)

    terminal = []
    with open(args.out, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("ascii"))
        rows = _csvfmt.RowWriter(fh, len(columns) - 1, min(_CSV_BLOCK_ROWS, grid.n_steps + 1))
        for path_id in range(args.paths):
            path = simulate_path(grid, args.x0, args.seed, path_id)
            matrix = _series_matrix(evaluate_series(path, params, table))
            rows.write(path_id, matrix)
            terminal.append(matrix[-1].copy())  # a view would keep every path's matrix

    means = _at_binade(np.array(terminal), lambda v: v.mean(axis=0))
    _print_json(
        {
            "paths": args.paths,
            "seed": args.seed,
            "t0": grid.t0,
            "horizon": grid.horizon,
            "n_steps": grid.n_steps,
            "out": args.out,
            "terminal_means": dict(zip(columns[1:], means)),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.paths < 2:
        raise ConfigError("--paths must be at least 2")
    if args.paths > MAX_PATHS:
        raise ConfigError(f"--paths must be at most {MAX_PATHS}, got {args.paths}")
    _check_seed(args.seed)
    params = _load_economy(args.config)
    table = validate(params)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    report = run_suites(params, table, names, args.seed, args.paths)
    _print_json({"config": args.config, **report})
    if report["pass"]:
        return EXIT_OK
    failing = [c["quantity"] for s in report["suites"] for c in s["checks"] if not c["pass"]]
    print(f"error: verification failed: {', '.join(failing)}", file=sys.stderr)
    return EXIT_MODEL


# ---------------------------------------------------------------------------
# calibrate


def _parse_shares(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--shares must be comma-separated numbers, got {text!r}")


def cmd_calibrate(args) -> int:
    target = CalibrationTarget(shares=_parse_shares(args.shares))
    if not TOL_FLOOR <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and at least 2**-50, got {args.tol}")
    params = _load_economy(args.config)
    if len(target.shares) != params.n_agents:
        raise ConfigError(
            f"--shares needs {params.n_agents} values for this economy, got {len(target.shares)}"
        )
    table = validate(params)
    gamma = solve_gamma_on_table(params, table, target, tol=args.tol)
    calibrated = params.with_gammas(tuple(float(g) for g in gamma))
    achieved = wealth_shares(calibrated, table, target.state)
    _print_json(
        {
            "gamma": [float(g) for g in gamma],
            "target_shares": list(target.shares),
            "achieved_shares": [float(s) for s in achieved],
            "tol": args.tol,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crraeq",
        description=(
            "closed-form equilibrium of a dividend economy with CRRA agents "
            "holding heterogeneous beliefs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "validate", formatter_class=fmt,
        help="check every composition denominator D(beta) is positive",
    )
    p.add_argument("config", help="economy JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "evaluate", formatter_class=fmt,
        help="print the full equilibrium snapshot at one state as JSON",
    )
    p.add_argument("config", help="economy JSON file")
    p.add_argument("--t", type=float, default=0.0, help="state time")
    p.add_argument("--x", type=float, default=0.0, help="Brownian state")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "simulate", formatter_class=fmt,
        help="simulate paths and write every quantity to a long-format CSV",
    )
    p.add_argument("config", help="economy JSON file")
    p.add_argument("--paths", type=int, default=1, help="number of paths")
    p.add_argument("--t0", type=float, default=0.0, help="start time")
    p.add_argument("--x0", type=float, default=0.0, help="initial Brownian state")
    p.add_argument("--horizon", type=float, default=None, help="end time (default: t0 + 10)")
    p.add_argument(
        "--steps", type=int, default=None,
        help="grid intervals (default: 1024 per unit of time)",
    )
    p.add_argument("--seed", type=int, default=0, help="path seed")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and checked >= 1; paths are evaluated "
        "in order in this process, and the output never depends on it",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "verify", formatter_class=fmt,
        help="run invariant and oracle suites against the closed forms",
    )
    p.add_argument("config", help="economy JSON file")
    p.add_argument(
        "--suite", choices=(*SUITES, "all"),
        default="all", help="which suite to run",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for states and paths")
    p.add_argument(
        "--paths", type=int, default=2000,
        help="Monte Carlo paths for the mc and martingale suites",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "calibrate", formatter_class=fmt,
        help="solve for agent log-weights gamma matching target initial wealth shares",
    )
    p.add_argument("config", help="economy JSON file")
    p.add_argument(
        "--shares", required=True,
        help="comma-separated target shares, one per agent, summing to 1",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="max absolute share residual")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON in config: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NonpositiveDenominator as err:
        _print_json(
            {
                "valid": False,
                "offending": [
                    {"beta": list(beta), "denominator": d}
                    for beta, d in err.offenders
                ],
            }
        )
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MODEL
    except (ModelError, CompositionCapExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
