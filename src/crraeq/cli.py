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

`simulate` draws, evaluates and writes one path at a time, and formats
each block of CSV rows with a single C-level `%` on a row template, so
neither the paths nor the formatted text are held in memory at once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .calibrate import CalibrationTarget, NoConvergence, solve_gamma, wealth_shares
from .equilibrium import (
    evaluate_fields,
    log_L_arr,
    log_state_price_density_arr,
    log_stock_price_arr,
    log_Z_agent_arr,
    log_Z_arr,
    snapshot,
)
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
    TruncationTooLoose,
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


def _csv_columns(n_agents: int) -> list:
    cols = ["path_id", "t", "x", "delta", "zeta", "S", "pd", "r", "kappa", "sigma_S", "mu_S"]
    for tag in ("c", "w", "pi"):
        cols.extend(f"{tag}_{j + 1}" for j in range(n_agents))
    return cols


def _series_matrix(series) -> np.ndarray:
    """Columns in CSV order (everything after path_id), one row per node."""
    return np.column_stack(
        [
            series.t,
            series.x,
            series.dividend,
            series.zeta,
            series.stock_price,
            series.pd_ratio,
            series.riskless_rate,
            series.kappa,
            series.vol,
            series.drift,
            series.consumptions,
            series.wealths,
            series.portfolios,
        ]
    )


# rows per `%` in `_write_csv_rows`: large enough that the per-call cost
# vanishes, small enough that the formatted text stays a few hundred kB
_CSV_BLOCK_ROWS = 1024


def _write_csv_rows(fh, path_id: int, matrix: np.ndarray) -> None:
    """Write `path_id,v_1,...,v_n` for each row of the matrix, every v as %.17g.

    `"%.17g" % v` and `format(v, ".17g")` both spell a float through
    CPython's `PyOS_double_to_string`, so the bytes are those of the
    per-value formatting; one `%` per block keeps the loop in C.
    """
    row = f"{path_id}," + ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    full = row * _CSV_BLOCK_ROWS
    for lo in range(0, len(matrix), _CSV_BLOCK_ROWS):
        block = matrix[lo : lo + _CSV_BLOCK_ROWS]
        template = full if len(block) == _CSV_BLOCK_ROWS else row * len(block)
        fh.write(template % tuple(block.ravel().tolist()))


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise ConfigError("--paths must be positive")
    if args.workers < 1:
        raise ConfigError("--workers must be positive")
    params = _load_economy(args.config)
    table = validate(params)
    horizon = args.horizon if args.horizon is not None else args.t0 + 10.0
    grid = _resolve_grid(args.t0, horizon, args.steps, table)
    columns = _csv_columns(params.n_agents)

    terminal = []
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for path_id in range(args.paths):
            path = simulate_path(grid, args.x0, args.seed, path_id)
            matrix = _series_matrix(evaluate_series(path, params, table))
            _write_csv_rows(fh, path_id, matrix)
            terminal.append(matrix[-1])

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


def _suite_clearing(params, table, seed: int, n_paths: int) -> dict:
    """Market clearing and pricing identities at randomized states."""
    rng = np.random.default_rng(seed)
    names = (
        "consumption_clearing",
        "wealth_aggregation",
        "portfolio_sum",
        "bond_clearing",
        "pd_identity",
        "risk_premium",
    )
    worst = dict.fromkeys(names, 0.0)
    for _ in range(N_SUITE_STATES):
        st = MarketState(float(rng.uniform(0.0, 10.0)), float(rng.uniform(-5.0, 5.0)))
        snap = snapshot(st, params, table)
        s, delta = snap.stock_price, snap.dividend
        worst["consumption_clearing"] = max(
            worst["consumption_clearing"],
            abs(math.fsum(snap.consumptions) - delta) / delta,
        )
        worst["wealth_aggregation"] = max(
            worst["wealth_aggregation"], abs(math.fsum(snap.wealths) - s) / s
        )
        worst["portfolio_sum"] = max(
            worst["portfolio_sum"], abs(math.fsum(snap.portfolios) - 1.0)
        )
        bond = math.fsum(
            w - pi * s for w, pi in zip(snap.wealths, snap.portfolios)
        )
        worst["bond_clearing"] = max(worst["bond_clearing"], abs(bond) / s)
        worst["pd_identity"] = max(
            worst["pd_identity"], abs(snap.pd_ratio - s / delta) / snap.pd_ratio
        )
        lhs = snap.stock.drift + delta / s - snap.rates.riskless_rate
        rhs = snap.rates.kappa * snap.stock.vol
        worst["risk_premium"] = max(
            worst["risk_premium"], _rel(lhs, rhs, IDENTITY_REL_FLOOR)
        )
    checks = [
        _check("consumption_clearing", worst["consumption_clearing"], CONSUMPTION_TOL),
        _check("wealth_aggregation", worst["wealth_aggregation"], IDENTITY_TOL),
        _check("portfolio_sum", worst["portfolio_sum"], IDENTITY_TOL),
        _check("bond_clearing", worst["bond_clearing"], IDENTITY_TOL),
        _check("pd_identity", worst["pd_identity"], IDENTITY_TOL),
        _check("risk_premium", worst["risk_premium"], RISK_PREMIUM_TOL),
    ]
    return {
        "suite": "clearing",
        "n_states": N_SUITE_STATES,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


FD_QUANTITIES = (
    "alpha_bar",
    "rho_bar",
    "riskless_rate",
    "kappa",
    "alpha_tilde",
    "rho_tilde",
    "alpha_tilde_agents",
    "sigma_S",
    "mu_S",
)


def _fd_errors(state: MarketState, params: EconomyParams, table: DenominatorTable) -> dict:
    """Relative gaps between closed-form Ito coefficients and FD oracles.

    First-order coefficients are x-derivatives of the log fields; the
    dt-generator identity (d_t f + d_xx f / 2) / f = h_t + (h_xx + h_x^2) / 2
    for h = log f recovers the second-order ones.  The second-order
    stencils use Richardson extrapolation with wider steps, which keeps
    the roundoff floor below the 1e-5 verification tolerance.
    """
    closed = evaluate_fields(state.t, state.x, params, table)

    log_l = lambda t, x: float(log_L_arr(t, x, params))
    log_zeta = lambda t, x: float(log_state_price_density_arr(t, x, params))
    log_z = lambda t, x: float(log_Z_arr(t, x, params, table))
    log_s = lambda t, x: float(log_stock_price_arr(t, x, params, table))

    _, l_x, _ = fd_engine(log_l, state)
    _, zeta_x, _ = fd_engine(log_zeta, state)
    _, z_x, _ = fd_engine(log_z, state)
    _, s_x, _ = fd_engine(log_s, state)

    def generator(field):
        f_t, f_x, f_xx = fd_engine(field, state, dx=2e-2, dt=1e-3, richardson=True)
        return f_t + 0.5 * (f_xx + f_x**2)

    errors = {
        "alpha_bar": _rel(closed["alpha_bar"], l_x, FD_REL_FLOOR),
        "rho_bar": _rel(closed["rho_bar"], -generator(log_l), FD_REL_FLOOR),
        "riskless_rate": _rel(closed["riskless_rate"], -generator(log_zeta), FD_REL_FLOOR),
        "kappa": _rel(closed["kappa"], -zeta_x, FD_REL_FLOOR),
        "alpha_tilde": _rel(closed["alpha_tilde"], z_x, FD_REL_FLOOR),
        "rho_tilde": _rel(closed["rho_tilde"], -generator(log_z), FD_REL_FLOOR),
        "sigma_S": _rel(closed["vol"], s_x, FD_REL_FLOOR),
        "mu_S": _rel(closed["drift"], generator(log_s), FD_REL_FLOOR),
    }
    agent_err = 0.0
    for j in range(params.n_agents):
        log_zj = lambda t, x, j=j: float(log_Z_agent_arr(t, x, params, table, j))
        _, zj_x, _ = fd_engine(log_zj, state)
        agent_err = max(
            agent_err, _rel(closed["alpha_tilde_agents"][j], zj_x, FD_REL_FLOOR)
        )
    errors["alpha_tilde_agents"] = agent_err
    return errors


def _suite_fd(params, table, seed: int, n_paths: int) -> dict:
    """Every Ito coefficient against its finite-difference oracle."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(FD_QUANTITIES, 0.0)
    for _ in range(N_SUITE_STATES):
        st = MarketState(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-2.0, 2.0)))
        for name, err in _fd_errors(st, params, table).items():
            worst[name] = max(worst[name], err)
    checks = [_check(name, worst[name], FD_TOL) for name in FD_QUANTITIES]
    return {
        "suite": "fd",
        "n_states": N_SUITE_STATES,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _mc_check(name: str, rep) -> dict:
    out = _check(name, abs(rep.z_score), MC_Z_MAX)
    out["estimate"] = rep.estimate
    out["std_error"] = rep.std_error
    out["closed_form"] = rep.closed_form
    out["truncation_bound"] = rep.truncation_bound
    return out


def _suite_mc(params, table, seed: int, n_paths: int) -> dict:
    """Monte Carlo wealth and stock oracles at the initial state.

    The quadrature grid uses dt near 0.5: the integrands decay like
    e^{-D u}, so the trapezoid bias is orders below the Monte Carlo
    standard error at any affordable path count.
    """
    state = MarketState(0.0, 0.0)
    horizon = default_horizon(table)
    n_steps = max(2, math.ceil(horizon * 2.0))
    wealth_reps, stock_rep = mc_oracles(
        state, params, table, n_paths, horizon=horizon, n_steps=n_steps, seed=seed
    )
    checks = [
        _mc_check(f"wealth_oracle_agent_{j + 1}", rep) for j, rep in enumerate(wealth_reps)
    ]
    checks.append(_mc_check("stock_oracle", stock_rep))
    return {
        "suite": "mc",
        "n_paths": n_paths,
        "horizon": horizon,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _suite_martingale(params, table, seed: int, n_paths: int) -> dict:
    """Discounted gains process: payoff leg plus dividend leg equals S_0 zeta_0."""
    rep = martingale_check(params, table, n_paths, horizon=5.0, seed=seed)
    check = _mc_check("martingale", rep)
    return {
        "suite": "martingale",
        "n_paths": n_paths,
        "checks": [check],
        "pass": check["pass"],
    }


_SUITE_RUNNERS = {
    "clearing": _suite_clearing,
    "fd": _suite_fd,
    "mc": _suite_mc,
    "martingale": _suite_martingale,
}


def cmd_verify(args) -> int:
    if args.paths < 2:
        raise ConfigError("--paths must be at least 2")
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
    params = _load_economy(args.config)
    table = validate(params)
    shares = _parse_shares(args.shares)
    if len(shares) != params.n_agents:
        raise ConfigError(
            f"--shares needs {params.n_agents} values for this economy, got {len(shares)}"
        )
    target = CalibrationTarget(shares=shares)
    gamma = solve_gamma(params, target, tol=args.tol)
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
    except (ModelError, TruncationTooLoose, CompositionCapExceeded, NoConvergence) as err:
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
