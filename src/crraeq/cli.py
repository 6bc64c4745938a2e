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
from .equilibrium import EvaluatedSeries, evaluate_fields, snapshot
from .model import (
    ConfigError,
    DenominatorTable,
    EconomyParams,
    MarketState,
    ModelError,
    NonpositiveDenominator,
    economy_from_dict,
    validate,
)
from .multiindex import CompositionCapExceeded
from .simulate import (
    MAX_PATHS,
    _MAX_GRID_NODES,
    _resolve_grid,
    default_horizon,
    evaluate_series,
    fd_engine,
    martingale_check,
    mc_oracles,
    simulate_path,
)

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_INPUT = 2
EXIT_IO = 3

FD_TOL = 1e-5
MC_Z_MAX = 3.0
IDENTITY_TOL = 1e-10
CONSUMPTION_TOL = 1e-12
RISK_PREMIUM_TOL = 1e-8
# relative errors are |a-b| / max(|a|, |b|, floor); the FD floor is the
# typical scale of the rate coefficients so near-zero quantities are
# judged on an absolute basis instead of a 0/0 ratio
FD_REL_FLOOR = 1e-2
IDENTITY_REL_FLOOR = 1e-6

N_SUITE_STATES = 20


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


def _rel(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


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


def _check_seed(seed: int) -> None:
    """Path streams are keyed by an unsigned 64-bit seed."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {seed}")


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

    means = np.mean(terminal, axis=0)
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


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "quantity": name,
        "value": value,
        "threshold": threshold,
        "pass": bool(value <= threshold),
    }


def _worst(gaps) -> float:
    """The largest gap (from 0.0, bit for bit), or NaN if any gap is NaN:
    an identity that is undefined at some state fails its check."""
    gaps = list(gaps)
    return math.nan if any(map(math.isnan, gaps)) else max(0.0, *gaps)


def _suite(name: str, checks: list, **header) -> dict:
    return {"suite": name, **header, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _suite_clearing(params, table, seed: int, n_paths: int) -> dict:
    """Market clearing and pricing identities at randomized states, in one kernel call."""
    t, x = np.random.default_rng(seed).uniform((0.0, -5.0), (10.0, 5.0), (N_SUITE_STATES, 2)).T
    series = EvaluatedSeries(**evaluate_fields(t, x, params, table))
    snaps = [series.snapshot_at(k) for k in range(N_SUITE_STATES)]
    identities = (  # (quantity, tolerance, its error at one snapshot)
        ("consumption_clearing", CONSUMPTION_TOL,
         lambda snap: abs(math.fsum(snap.consumptions) - snap.dividend) / snap.dividend),
        ("wealth_aggregation", IDENTITY_TOL,
         lambda snap: abs(math.fsum(snap.wealths) - snap.stock_price) / snap.stock_price),
        ("portfolio_sum", IDENTITY_TOL, lambda snap: abs(math.fsum(snap.portfolios) - 1.0)),
        ("bond_clearing", IDENTITY_TOL, lambda snap: abs(math.fsum(
            w - pi * snap.stock_price for w, pi in zip(snap.wealths, snap.portfolios)
        )) / snap.stock_price),
        ("pd_identity", IDENTITY_TOL,
         lambda snap: abs(snap.pd_ratio - snap.stock_price / snap.dividend) / snap.pd_ratio),
        ("risk_premium", RISK_PREMIUM_TOL, lambda snap: _rel(
            snap.stock.drift + snap.dividend / snap.stock_price - snap.rates.riskless_rate,
            snap.rates.kappa * snap.stock.vol,
            IDENTITY_REL_FLOOR,
        )),
    )
    checks = [_check(name, _worst(map(error, snaps)), tol) for name, tol, error in identities]
    return _suite("clearing", checks, n_states=N_SUITE_STATES)


def _fd_errors(t, x, params: EconomyParams, table: DenominatorTable) -> dict:
    """Worst relative gaps between closed-form Ito coefficients and FD oracles.

    t and x are one state or 1-d arrays of states; the closed forms, the
    plain stencil and the Richardson stencil are each one kernel call over
    all of them.  Each quantity's value is its worst gap over the states
    (and the agents), NaN if any gap is NaN.  First-order coefficients are
    x-derivatives of the log fields; the dt-generator identity
    (d_t f + d_xx f / 2) / f = h_t + (h_xx + h_x^2) / 2 for h = log f
    recovers the second-order ones.  The second-order stencils use
    Richardson extrapolation with wider steps, which keeps the roundoff
    floor below the 1e-5 verification tolerance.
    """
    t, x = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(x))
    closed = evaluate_fields(t, x, params, table)
    levels = lambda t, x: evaluate_fields(t, x, params, table)["log_levels"]

    # one row per state; columns: log L, log zeta, log Z, log S, then log Z^j per agent
    first = fd_engine(levels, t, x)[1].tolist()
    l_x, zeta_x, z_x, s_x = zip(*(row[:4] for row in first))
    f_t, f_x, f_xx = fd_engine(levels, t, x, dx=2e-2, dt=1e-3, richardson=True)[..., :4].tolist()
    # Python floats: their ** is libm pow, numpy's ** squares
    gen_l, gen_zeta, gen_z, gen_s = zip(*(
        [ft + 0.5 * (fxx + fx**2) for ft, fx, fxx in zip(*rows)] for rows in zip(f_t, f_x, f_xx)
    ))

    def worst(closed_form, oracle):
        pairs = zip(np.ravel(closed_form).tolist(), oracle)
        return _worst(_rel(a, b, FD_REL_FLOOR) for a, b in pairs)

    return {
        "alpha_bar": worst(closed["alpha_bar"], l_x),
        "rho_bar": worst(closed["rho_bar"], [-g for g in gen_l]),
        "riskless_rate": worst(closed["riskless_rate"], [-g for g in gen_zeta]),
        "kappa": worst(closed["kappa"], [-v for v in zeta_x]),
        "alpha_tilde": worst(closed["alpha_tilde"], z_x),
        "rho_tilde": worst(closed["rho_tilde"], [-g for g in gen_z]),
        "alpha_tilde_agents": worst(
            closed["alpha_tilde_agents"], [v for row in first for v in row[4:]]
        ),
        "sigma_S": worst(closed["vol"], s_x),
        "mu_S": worst(closed["drift"], gen_s),
    }


def _suite_fd(params, table, seed: int, n_paths: int) -> dict:
    """Every Ito coefficient against its finite-difference oracle, in three kernel calls."""
    t, x = np.random.default_rng(seed).uniform((0.2, -2.0), (5.0, 2.0), (N_SUITE_STATES, 2)).T
    checks = [_check(name, err, FD_TOL) for name, err in _fd_errors(t, x, params, table).items()]
    return _suite("fd", checks, n_states=N_SUITE_STATES)


def _mc_check(name: str, rep) -> dict:
    out = _check(name, abs(rep.z_score), MC_Z_MAX)
    out["estimate"] = rep.estimate
    out["std_error"] = rep.std_error
    out["closed_form"] = rep.closed_form
    out["truncation_bound"] = rep.truncation_bound
    return out


def _suite_mc(params, table, seed: int, n_paths: int) -> dict:
    """Monte Carlo wealth and stock oracles at the initial state.

    The quadrature grid uses dt near 0.5.  The trapezoid is not exact
    there: on the benchmark pair and trio it biases the estimates by
    +0.7e-3 to +1.2e-3 relative, which is visible against the standard
    error at 2000 paths.  Near the D > 0 boundary the horizon 5 / min D
    needs more grid nodes than a path may hold; that is a model-level
    failure of this suite, raised before any path is drawn.
    """
    state = MarketState(0.0, 0.0)
    horizon = default_horizon(table)
    if not horizon * 2.0 <= _MAX_GRID_NODES - 1:  # inf too
        raise ModelError(
            f"the mc suite cannot reach horizon {horizon:.17g} = 5 / min D "
            f"(min D = {table.min_denominator:.17g}) at dt near 0.5 within "
            f"{_MAX_GRID_NODES} grid nodes; this economy is too close to the D > 0 "
            "boundary for it: verify it with the fd, clearing and martingale suites"
        )
    n_steps = max(2, math.ceil(horizon * 2.0))
    wealth_reps, stock_rep = mc_oracles(
        state, params, table, n_paths, horizon=horizon, n_steps=n_steps, seed=seed
    )
    checks = [
        _mc_check(f"wealth_oracle_agent_{j + 1}", rep) for j, rep in enumerate(wealth_reps)
    ]
    checks.append(_mc_check("stock_oracle", stock_rep))
    return _suite("mc", checks, n_paths=n_paths, horizon=horizon)


def _suite_martingale(params, table, seed: int, n_paths: int) -> dict:
    """Discounted gains process: payoff leg plus dividend leg equals S_0 zeta_0."""
    rep = martingale_check(params, table, n_paths, horizon=5.0, seed=seed)
    return _suite("martingale", [_mc_check("martingale", rep)], n_paths=n_paths)


_SUITE_RUNNERS = {
    "clearing": _suite_clearing,
    "fd": _suite_fd,
    "mc": _suite_mc,
    "martingale": _suite_martingale,
}


def cmd_verify(args) -> int:
    if args.paths < 2:
        raise ConfigError("--paths must be at least 2")
    if args.paths > MAX_PATHS:
        raise ConfigError(f"--paths must be at most {MAX_PATHS}, got {args.paths}")
    _check_seed(args.seed)
    params = _load_economy(args.config)
    table = validate(params)
    wanted = tuple(_SUITE_RUNNERS) if args.suite == "all" else (args.suite,)
    suites = [_SUITE_RUNNERS[name](params, table, args.seed, args.paths) for name in wanted]
    report = {
        "config": args.config,
        "seed": args.seed,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
    _print_json(report)
    if report["pass"]:
        return EXIT_OK
    failing = [
        c["quantity"] for s in suites for c in s["checks"] if not c["pass"]
    ]
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
        "--suite", choices=("clearing", "fd", "mc", "martingale", "all"),
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
