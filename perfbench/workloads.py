"""Jobs of the three workloads and the checks on their outputs.

A job is the unit a run repeats in a closed loop: each job starts when
the previous one returns. A job is a fixed sequence of operations, each
one call of a public entry point: `crraeq.cli.main(argv)` for the CLI
workloads; `validate`, `solve_gamma`, `simulate_paths` and
`evaluate_series` for the library workload. Only the operations are
timed; the checks run after them. An operation fails if it raises,
exits non-zero, or fails its check.

Each run also makes one reference job at `specs.REFERENCE_SEED` and
compares its values with those recorded in `reference.json`, within
1e-13 relative (the output contract of the package).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import crraeq
import crraeq.calibrate
import crraeq.cli
import crraeq.simulate

import specs

CONSUMPTION_RTOL = 1e-12  # sum_j c^j against the dividend, relative
IDENTITY_TOL = 1e-10  # sum_j w^j against S (relative) and sum_j pi^j against 1
REF_RTOL = 1e-13
REF_ATOL = 1e-15  # absolute floor for values that are zero or nearly so
SOLVER_TOL = 1e-10  # solve_gamma's default share tolerance

MC_QUANTITIES = ("estimate", "std_error", "closed_form", "truncation_bound")
VERIFY_SUITES = ["clearing", "fd", "mc", "martingale"]


def csv_columns(n_agents: int) -> list:
    cols = ["path_id", "t", "x", "delta", "zeta", "S", "pd", "r", "kappa", "sigma_S", "mu_S"]
    for tag in ("c", "w", "pi"):
        cols.extend(f"{tag}_{j + 1}" for j in range(n_agents))
    return cols


def series_row(series, k: int) -> list:
    """Node k of an evaluated series, in CSV column order after path_id."""
    scalars = (series.t, series.x, series.dividend, series.zeta, series.stock_price,
               series.pd_ratio, series.riskless_rate, series.kappa, series.vol, series.drift)
    row = [float(a[k]) for a in scalars]
    for a in (series.consumptions, series.wealths, series.portfolios):
        row.extend(float(v) for v in a[k])
    return row


def compare(name: str, got, want) -> str | None:
    """None when got matches want within REF_RTOL, else what differs."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    bad = np.abs(got - want) > REF_RTOL * np.maximum(np.abs(got), np.abs(want)) + REF_ATOL
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        return f"{name}[{i}]: {got.ravel()[i]!r} != reference {want.ravel()[i]!r}"
    return None


def clearing_error(delta, stock, c, w, pi) -> str | None:
    """Market clearing at every row: sum c = delta, sum w = S, sum pi = 1."""
    worst = (
        ("sum c - delta", np.abs(c.sum(axis=1) - delta) / delta, CONSUMPTION_RTOL),
        ("sum w - S", np.abs(w.sum(axis=1) - stock) / stock, IDENTITY_TOL),
        ("sum pi - 1", np.abs(pi.sum(axis=1) - 1.0), IDENTITY_TOL),
    )
    for name, err, tol in worst:
        if not np.all(err <= tol):  # also catches NaN
            k = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            return f"{name} is {err[k]:.3g} at row {k} (tolerance {tol:g})"
    return None


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One job's operations ([name, error or None]) and its timed wall and CPU time."""

    wall: float = 0.0
    cpu: float = 0.0
    ops: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for _, err in self.ops if err)


class Aborted(Exception):
    """An operation raised, so the rest of its job cannot run."""


def _attempt(job: Job, name: str, fn, *args):
    """Run one operation; return its index in job.ops and its result."""
    try:
        result = fn(*args)
    except Exception as err:  # any raise is a failed operation, recorded by name
        job.ops.append([name, f"{type(err).__name__}: {err}"])
        raise Aborted from err
    job.ops.append([name, None])
    return len(job.ops) - 1, result


def _flag(job: Job, index: int, error: str | None) -> None:
    if error and job.ops[index][1] is None:
        job.ops[index][1] = error


@contextlib.contextmanager
def _measure(job: Job, rec, job_id):
    """Time the operations of one job; under a recorder, trace them as one job."""
    scope = rec.job(job_id) if rec is not None else contextlib.nullcontext()
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with scope:
            yield
    finally:
        job.wall = time.perf_counter() - wall
        job.cpu = time.process_time() - cpu


def run_cli(argv: list, rec=None):
    """crraeq.cli.main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = crraeq.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    if rec is not None:
        rec.add("cli.bytes_out", len(out.getvalue().encode()))
    return code, out.getvalue(), err.getvalue()


def _exit_error(code, stderr: str) -> str | None:
    if code == 0:
        return None
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"exit code {code}: {last[0]}"


class CsvExport:
    """`simulate --workers 2` on the two-agent R=2 economy, CSV to a file."""

    name = "csv-export"

    def __init__(self, files: dict, workdir: str, sizes, reference: dict | None):
        self.config = files["pair"]
        self.out = os.path.join(workdir, "paths.csv")
        self.sizes = sizes
        self.reference = reference
        with open(self.config, encoding="utf-8") as fh:
            self.n_agents = len(json.load(fh)["agents"])
        self.n_nodes = sizes.csv_steps + 1

    def argv(self, seed: int, n_paths: int) -> list:
        return ["simulate", self.config, "--paths", str(n_paths), "--seed", str(seed),
                "--workers", "2", "--horizon", repr(self.sizes.csv_horizon),
                "--steps", str(self.sizes.csv_steps), "--out", self.out]

    def _simulate(self, job: Job, job_id, seed: int, n_paths: int, rec, sample=()):
        try:
            with _measure(job, rec, job_id):
                i, (code, stdout, stderr) = _attempt(
                    job, "simulate", run_cli, self.argv(seed, n_paths), rec)
            if rec is not None and os.path.exists(self.out):
                rec.add("cli.bytes_out", os.path.getsize(self.out))
        except Aborted:
            return {}
        rows = {}
        error = _exit_error(code, stderr)
        if error is None:
            error, rows = check_simulate(self.out, stdout, n_paths, self.n_nodes,
                                         self.n_agents, sample)
        _flag(job, i, error)
        if os.path.exists(self.out):
            os.remove(self.out)
        return rows

    def job(self, job_id: int, seed: int, rec=None) -> Job:
        job = Job()
        self._simulate(job, job_id, specs.job_seed(seed, job_id), self.sizes.csv_paths, rec)
        return job

    # reference: two paths of the full grid; path i does not depend on --paths
    REF_PATHS = 2
    REF_NODES = (0, 1, 5120, 10240)

    def reference_values(self):
        job = Job()
        sample = [(p, k) for p in range(self.REF_PATHS) for k in self.REF_NODES]
        rows = self._simulate(job, "reference", specs.REFERENCE_SEED, self.REF_PATHS, None, sample)
        return job, {"rows": {f"{p}:{k}": rows[(p, k)] for p, k in rows}}

    def reference_job(self) -> Job:
        job, values = self.reference_values()
        if self.reference is not None and not job.failed:
            want = self.reference["rows"]
            got = [values["rows"].get(key) for key in want]
            _flag(job, 0, "reference rows missing" if None in got else
                  compare("rows", got, list(want.values())))
        return job


def check_simulate(path, stdout, n_paths, n_nodes, n_agents, sample=()):
    """Check a simulate CSV row by row, and the summary it printed.

    Returns (error or None, {(path, node): row values} for the sampled nodes).
    The file is read in blocks, so the check holds little memory.
    """
    cols = csv_columns(n_agents)
    width, j = len(cols), n_agents
    wanted = {p * n_nodes + k: (p, k) for p, k in sample}
    rows, terminal = {}, []
    done = 0
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != ",".join(cols):
            return "CSV header differs from the documented columns", rows
        while True:
            lines = fh.readlines(1 << 20)
            if not lines:
                break
            block = np.fromstring("".join(lines).replace("\n", ","), sep=",")
            if block.size != len(lines) * width:
                return f"CSV rows from {done} do not parse as {width} numbers", rows
            block = block.reshape(len(lines), width)
            index = done + np.arange(len(lines))
            if not np.array_equal(block[:, 0], index // n_nodes):
                return f"CSV path ids out of order near row {done}", rows
            error = clearing_error(block[:, 3], block[:, 5], block[:, 11:11 + j],
                                   block[:, 11 + j:11 + 2 * j], block[:, 11 + 2 * j:])
            if error:
                return f"CSV rows from {done}: {error}", rows
            terminal.extend(block[index % n_nodes == n_nodes - 1, 1:])
            for r in set(wanted) & set(range(done, done + len(lines))):
                rows[wanted[r]] = block[r - done, 1:].tolist()
            done += len(lines)
    if done != n_paths * n_nodes:
        return f"CSV has {done} rows, expected {n_paths * n_nodes}", rows
    summary = json.loads(stdout)
    if summary["paths"] != n_paths or summary["n_steps"] != n_nodes - 1:
        return "summary paths or n_steps differ from the request", rows
    means = [summary["terminal_means"][c] for c in cols[1:]]
    return compare("terminal_means", means, np.mean(terminal, axis=0)), rows


class WideEconomy:
    """Library calls on an R7 J7 economy: validate, calibrate, evaluate series."""

    name = "wide-economy"

    def __init__(self, files: dict, workdir: str, sizes, reference: dict | None):
        with open(files["wide"], encoding="utf-8") as fh:
            self.params = crraeq.economy_from_dict(json.load(fh))
        self.target = crraeq.calibrate.CalibrationTarget(
            specs.unequal_shares(self.params.n_agents))
        self.grid = crraeq.simulate.PathGrid(0.0, 1.0, sizes.wide_steps)
        self.sizes = sizes
        self.reference = reference

    def job(self, job_id: int, seed: int, rec=None) -> Job:
        job = Job()
        sim = crraeq.simulate
        try:
            with _measure(job, rec, job_id):
                i_val, table = _attempt(job, "validate", crraeq.validate, self.params)
                i_solve, gamma = _attempt(job, "solve_gamma", crraeq.calibrate.solve_gamma,
                                          self.params, self.target)
                calibrated = self.params.with_gammas(tuple(float(g) for g in gamma))
                i_cal, cal_table = _attempt(job, "validate", crraeq.validate, calibrated)
                i_paths, paths = _attempt(job, "simulate_paths", sim.simulate_paths, self.grid,
                                          0.0, self.sizes.wide_paths, specs.job_seed(seed, job_id))
                series = [_attempt(job, "evaluate_series", sim.evaluate_series, p, calibrated,
                                   cal_table) for p in paths]
        except Aborted:
            return job

        _flag(job, i_val, self._check_table(table))
        _flag(job, i_cal, compare("calibrated min_denominator", cal_table.min_denominator,
                                  table.min_denominator))
        achieved = crraeq.calibrate.wealth_shares(calibrated, cal_table, self.target.state)
        worst = float(np.max(np.abs(achieved - np.array(self.target.shares))))
        if not worst <= SOLVER_TOL:
            _flag(job, i_solve, f"share residual {worst:.3g} above {SOLVER_TOL:g}")
        elif self.reference is not None:
            _flag(job, i_solve, compare("gamma", gamma, self.reference["gamma"]))
        if len(paths) != self.sizes.wide_paths:
            _flag(job, i_paths, f"{len(paths)} paths, expected {self.sizes.wide_paths}")
        for i, s in series:
            _flag(job, i, clearing_error(s.dividend, s.stock_price, s.consumptions,
                                         s.wealths, s.portfolios))
        return job

    def _check_table(self, table) -> str | None:
        if not table.min_denominator > 0:
            return f"min denominator {table.min_denominator} is not positive"
        if self.reference is not None:
            return compare("min_denominator", table.min_denominator,
                           self.reference["min_denominator"])
        return None

    def reference_values(self, gamma=None):
        """One path at the reference seed, on the economy calibrated to `gamma`."""
        job = Job()
        sim = crraeq.simulate
        if gamma is None:
            gamma = crraeq.calibrate.solve_gamma(self.params, self.target)
        calibrated = self.params.with_gammas(tuple(float(g) for g in gamma))
        try:
            _, table = _attempt(job, "validate", crraeq.validate, calibrated)
            _, paths = _attempt(job, "simulate_paths", sim.simulate_paths, self.grid, 0.0, 1,
                                specs.REFERENCE_SEED)
            i, s = _attempt(job, "evaluate_series", sim.evaluate_series, paths[0], calibrated,
                            table)
        except Aborted:
            return job, {}
        _flag(job, i, clearing_error(s.dividend, s.stock_price, s.consumptions, s.wealths,
                                     s.portfolios))
        nodes = (0, 1, len(s.t) // 2, len(s.t) - 1)
        return job, {
            "gamma": [float(g) for g in gamma],
            "min_denominator": table.min_denominator,
            "nodes": {str(k): series_row(s, k) for k in nodes},
        }

    def reference_job(self) -> Job:
        if self.reference is None:
            job, _ = self.reference_values()
            return job
        job, values = self.reference_values(self.reference["gamma"])
        if not job.failed:
            want = self.reference["nodes"]
            got = [values["nodes"].get(k) for k in want]
            _flag(job, len(job.ops) - 1, "reference nodes missing" if None in got else
                  compare("series nodes", got, list(want.values())))
        return job


class VerifySuites:
    """`verify --suite all --paths 300` on the two Monte Carlo economies."""

    name = "verify-suites"
    ECONOMIES = ("pair", "trio")

    def __init__(self, files: dict, workdir: str, sizes, reference: dict | None):
        self.files = files
        self.reference = reference

    def argv(self, econ: str, seed: int) -> list:
        return ["verify", self.files[econ], "--suite", "all", "--paths", "300",
                "--seed", str(seed)]

    def _verify(self, job: Job, job_id, seed: int, rec):
        runs = []
        try:
            with _measure(job, rec, job_id):
                for econ in self.ECONOMIES:
                    runs.append((econ, _attempt(job, f"verify {econ} --seed {seed}",
                                                run_cli, self.argv(econ, seed), rec)))
        except Aborted:
            return {}
        values = {}
        for econ, (i, (code, stdout, stderr)) in runs:
            error = _exit_error(code, stderr) or check_verify(stdout)
            _flag(job, i, error)
            if error is None:
                values[econ] = mc_values(json.loads(stdout))
        return values

    def job(self, job_id: int, seed: int, rec=None) -> Job:
        job = Job()
        self._verify(job, job_id, specs.verify_seed(seed, job_id), rec)
        return job

    def reference_values(self):
        job = Job()
        return job, self._verify(job, "reference", specs.REFERENCE_SEED, None)

    def reference_job(self) -> Job:
        job, values = self.reference_values()
        if self.reference is not None and not job.failed:
            for i, econ in enumerate(self.ECONOMIES):
                want = self.reference[econ]
                got = values[econ]
                _flag(job, i, "reference quantities differ" if set(got) != set(want) else
                      compare(f"{econ} mc values", [got[q] for q in want], list(want.values())))
        return job

    def probe(self, seed: int) -> tuple:
        """Verify one seed outside the pool, untimed; (Job, outcome per economy).

        On these seeds the Monte Carlo checks fail at 300 paths, so a
        report of `"pass": false` (exit code 1) is their outcome, not a
        failed operation; a raise, another exit code or a malformed
        report still is.
        """
        job, outcome = Job(), {}
        probe_seed = specs.known_failing_seed(seed)
        for econ in self.ECONOMIES:
            try:
                i, (code, stdout, stderr) = _attempt(
                    job, f"probe verify {econ} --seed {probe_seed}", run_cli,
                    self.argv(econ, probe_seed))
            except Aborted:
                continue
            if code not in (crraeq.cli.EXIT_OK, crraeq.cli.EXIT_MODEL):
                _flag(job, i, _exit_error(code, stderr))
                continue
            report = json.loads(stdout)
            suites = [s["suite"] for s in report["suites"]]
            if suites != VERIFY_SUITES or report["pass"] is not (code == crraeq.cli.EXIT_OK):
                _flag(job, i, f"malformed verify report: suites {suites}, exit code {code}")
                continue
            checks = [c for s in report["suites"] if s["suite"] in ("mc", "martingale")
                      for c in s["checks"]]
            outcome[econ] = {
                "pass": report["pass"],
                "failing": [c["quantity"] for s in report["suites"] for c in s["checks"]
                            if not c["pass"]],
                "max_abs_z": max(c["value"] for c in checks),
            }
        return job, {"seed": probe_seed, "economies": outcome}


def check_verify(stdout: str) -> str | None:
    """Every suite ran and every check passed."""
    report = json.loads(stdout)
    suites = [s["suite"] for s in report["suites"]]
    if suites != VERIFY_SUITES:
        return f"suites {suites}, expected {VERIFY_SUITES}"
    failing = [c["quantity"] for s in report["suites"] for c in s["checks"] if not c["pass"]]
    if failing or report["pass"] is not True:
        return f"verify reports failures: {failing}"
    return None


def mc_values(report: dict) -> dict:
    """The sampled values of the mc and martingale suites, which a seed fixes.

    The clearing and fd gaps are roundoff, so they are checked only
    against their thresholds, never against recorded values.
    """
    out = {}
    for suite in report["suites"]:
        if suite["suite"] in ("mc", "martingale"):
            for check in suite["checks"]:
                out[check["quantity"]] = [check[q] for q in MC_QUANTITIES]
    return out


WORKLOADS = {w.name: w for w in (CsvExport, WideEconomy, VerifySuites)}
