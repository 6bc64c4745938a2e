import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from crraeq.cli import _CSV_BLOCK_ROWS, _write_csv_rows, main

BENCH = {
    "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
    "agents": [{"rho": 0.02, "alpha": 0.0, "gamma": 0.0}],
}
PAIR = {
    "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
    "agents": [{"rho": 0.05, "alpha": 0.3, "gamma": 0.0},
               {"rho": 0.05, "alpha": -0.3, "gamma": 0.0}],
}
TRIO = {
    "R": 3, "sigma": 0.12, "alpha_star": 0.05, "delta0": 2.0,
    "agents": [{"rho": 0.4, "alpha": 0.25, "gamma": 0.1},
               {"rho": 0.45, "alpha": -0.1, "gamma": 0.0},
               {"rho": 0.5, "alpha": 0.05, "gamma": -0.1}],
}


def write_config(tmp_path, obj, name="econ.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(*argv):
    """In-process invocation; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects flag-like values itself
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


def run_proc(argv, env=None):
    """Separate process, for byte-identity and env-var isolation."""
    merged = dict(os.environ)
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "crraeq.cli", *argv],
        capture_output=True, text=True, env=merged,
    )


def test_validate_exit_codes(tmp_path):
    code, out, _ = run_cli("validate", write_config(tmp_path, BENCH))
    assert code == 0
    rep = json.loads(out)
    assert rep["valid"] is True
    assert abs(rep["min_denominator"] - 0.01) < 1e-15
    assert rep["footnote_condition_holds"] is True

    divergent = dict(BENCH, agents=[{"rho": 0.001, "alpha": 0.0, "gamma": 0.0}])
    code, out, err = run_cli("validate", write_config(tmp_path, divergent, "div.json"))
    assert code == 1
    rep = json.loads(out)
    assert rep["valid"] is False
    assert rep["offending"][0]["beta"] == [2]
    assert rep["offending"][0]["denominator"] < 0


def test_input_errors_exit_2(tmp_path):
    bad_r = dict(BENCH, R=1)
    code, _, err = run_cli("validate", write_config(tmp_path, bad_r, "r1.json"))
    assert code == 2
    assert "model requires integer R" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"R": 2, nope')
    code, _, err = run_cli("validate", str(broken))
    assert code == 2
    assert "JSON" in err

    unknown = dict(BENCH, typo_key=1)
    code, _, err = run_cli("validate", write_config(tmp_path, unknown, "u.json"))
    assert code == 2


def test_io_errors_exit_3(tmp_path):
    code, _, err = run_cli("validate", str(tmp_path / "missing.json"))
    assert code == 3

    cfg = write_config(tmp_path, BENCH)
    out = str(tmp_path / "no_such_dir" / "x.csv")
    code, _, err = run_cli(
        "simulate", cfg, "--horizon", "1", "--steps", "4", "--out", out
    )
    assert code == 3


def test_evaluate_benchmark_values(tmp_path):
    cfg = write_config(tmp_path, BENCH)
    code, out, _ = run_cli("evaluate", cfg, "--t", "0", "--x", "0")
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["stock_price"], 100.0, rtol=1e-12)
    np.testing.assert_allclose(rep["rates"]["riskless_rate"], -0.01, rtol=1e-12)
    np.testing.assert_allclose(rep["portfolios"], [1.0], rtol=1e-12)
    np.testing.assert_allclose(rep["wealths"], [rep["stock_price"]], rtol=1e-14)


def test_evaluate_symmetric_pair_kappa(tmp_path):
    # at t=0, x=0 the L-weights are symmetric in the two loadings, so
    # alpha_bar = 0 and kappa = R sigma exactly
    cfg = write_config(tmp_path, PAIR)
    code, out, _ = run_cli("evaluate", cfg)
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["rates"]["kappa"], 2 * 0.1, atol=1e-15)


def test_evaluate_repeat_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    first = run_cli("evaluate", cfg, "--t", "0.7", "--x", "-0.4")
    second = run_cli("evaluate", cfg, "--t", "0.7", "--x", "-0.4")
    assert first == second
    assert first[0] == 0


def test_evaluate_round_trips_to_full_precision(tmp_path):
    from crraeq.equilibrium import snapshot
    from crraeq.model import MarketState, economy_from_dict, validate

    cfg = write_config(tmp_path, TRIO)
    code, out, _ = run_cli("evaluate", cfg, "--t", "1.3", "--x", "0.6")
    assert code == 0
    rep = json.loads(out)

    params = economy_from_dict(TRIO)
    snap = snapshot(MarketState(1.3, 0.6), params, validate(params))
    assert rep["stock_price"] == snap.stock_price
    assert rep["zeta"] == snap.zeta
    assert rep["pd_ratio"] == snap.pd_ratio
    assert tuple(rep["consumptions"]) == snap.consumptions
    assert tuple(rep["wealths"]) == snap.wealths
    assert tuple(rep["portfolios"]) == snap.portfolios
    assert rep["rates"]["riskless_rate"] == snap.rates.riskless_rate
    assert rep["rates"]["kappa"] == snap.rates.kappa
    assert rep["stock"]["vol"] == snap.stock.vol
    assert rep["stock"]["drift"] == snap.stock.drift


def test_evaluate_overflow_prints_valid_json(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    # a separate process, so any numpy warning would reach its stderr
    proc = run_proc(["evaluate", cfg, "--t", "1", "--x", "8000"])
    assert proc.returncode == 0 and proc.stderr == ""
    out = proc.stdout
    rep = json.loads(out)
    assert rep["dividend"] == math.inf and rep["stock_price"] == math.inf
    assert rep["wealths"] == [math.inf, 0.0]
    assert f'"pd_ratio": {format(rep["pd_ratio"], ".17g")},' in out


def test_simulate_overflow_keeps_stderr_empty(tmp_path):
    cfg = write_config(tmp_path, TRIO)
    out = tmp_path / "far.csv"
    proc = run_proc(["simulate", cfg, "--x0", "7000", "--horizon", "1", "--steps", "16",
                     "--out", str(out)])
    assert proc.returncode == 0 and proc.stderr == ""
    assert "inf" in out.read_text()


def test_evaluate_rejects_negative_time(tmp_path):
    cfg = write_config(tmp_path, BENCH)
    code, _, err = run_cli("evaluate", cfg, "--t", "-1")
    assert code == 2


def test_simulate_header_and_row_clearing(tmp_path):
    cfg = write_config(tmp_path, TRIO)
    out = tmp_path / "paths.csv"
    code, summary, _ = run_cli(
        "simulate", cfg, "--paths", "3", "--horizon", "2", "--steps", "32",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0

    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "path_id", "t", "x", "delta", "zeta", "S", "pd", "r", "kappa",
        "sigma_S", "mu_S",
        "c_1", "c_2", "c_3", "w_1", "w_2", "w_3", "pi_1", "pi_2", "pi_3",
    ]
    assert len(lines) == 1 + 3 * 33

    col = {name: k for k, name in enumerate(header)}
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        delta = vals[col["delta"]]
        c_sum = vals[col["c_1"]] + vals[col["c_2"]] + vals[col["c_3"]]
        assert abs(c_sum - delta) <= 1e-12 * delta
        w_sum = vals[col["w_1"]] + vals[col["w_2"]] + vals[col["w_3"]]
        assert abs(w_sum - vals[col["S"]]) <= 1e-10 * vals[col["S"]]

    rep = json.loads(summary)
    assert rep["paths"] == 3 and rep["n_steps"] == 32
    assert abs(rep["terminal_means"]["t"] - 2.0) < 1e-12


def test_simulate_reproducible_across_runs_and_workers(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    blobs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.csv"
        res = run_proc(
            ["simulate", cfg, "--paths", "5", "--horizon", "1.5", "--steps", "64",
             "--seed", "17", "--workers", workers, "--out", str(out)]
        )
        assert res.returncode == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]

    other = tmp_path / "d.csv"
    res = run_proc(
        ["simulate", cfg, "--paths", "5", "--horizon", "1.5", "--steps", "64",
         "--seed", "18", "--out", str(other)]
    )
    assert res.returncode == 0
    assert other.read_bytes() != blobs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--paths", "0", "--out", "x.csv"),
        ("simulate", "--workers", "0", "--out", "x.csv"),
        ("verify", "--paths", "1"),
    ],
)
def test_bad_flags_exit_2_before_the_economy_is_loaded(tmp_path, monkeypatch, argv):
    def load(path):
        pytest.fail("economy loaded before the flags were checked")

    monkeypatch.setattr("crraeq.cli._load_economy", load)
    code, _, err = run_cli(argv[0], write_config(tmp_path, PAIR), *argv[1:])
    assert code == 2
    assert "must be" in err


def _per_value_csv(path_id, matrix):
    lines = [f"{path_id}," + ",".join(format(v, ".17g") for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


_SPECIAL_VALUES = np.array(
    [[math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.1],
     [0.0, 1.0, 14.0, -5e-324, 1.7976931348623157e308, -2.5e-310, 1 / 3]]
)


def _random_matrix(n_rows):
    rng = np.random.default_rng(n_rows)
    matrix = rng.standard_normal((n_rows, 16)) * 10.0 ** rng.integers(-300, 300, (n_rows, 16))
    matrix[:, 0] = np.arange(n_rows) / 8.0
    return matrix


@pytest.mark.parametrize(
    "path_id, matrix",
    [(0, _random_matrix(n)) for n in (1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 5)]
    + [(12, _SPECIAL_VALUES)],
    ids=["1", "block-1", "block", "block+1", "2block+5", "special"],
)
def test_csv_rows_match_per_value_format(path_id, matrix):
    fh = io.StringIO()
    _write_csv_rows(fh, path_id, matrix)
    # line lists, so a failure reports the first differing row, not a text diff
    got = fh.getvalue().splitlines(keepends=True)
    assert got == _per_value_csv(path_id, matrix).splitlines(keepends=True)


def test_verify_all_passes_on_benchmark(tmp_path):
    cfg = write_config(tmp_path, BENCH)
    code, out, _ = run_cli("verify", cfg, "--suite", "all", "--paths", "400")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert {s["suite"] for s in rep["suites"]} == {"clearing", "fd", "mc", "martingale"}
    for suite in rep["suites"]:
        for check in suite["checks"]:
            assert check["pass"], check


def test_verify_clearing_three_agents(tmp_path):
    cfg = write_config(tmp_path, TRIO)
    code, out, _ = run_cli("verify", cfg, "--suite", "clearing", "--seed", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_fault_injection_names_the_rate(tmp_path):
    cfg = write_config(tmp_path, BENCH)
    res = run_proc(
        ["verify", cfg, "--suite", "fd"], env={"CRRAEQ_INJECT_RATE_BIAS": "1e-3"}
    )
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert rep["pass"] is False
    failing = [
        c["quantity"] for s in rep["suites"] for c in s["checks"] if not c["pass"]
    ]
    assert failing == ["riskless_rate"]
    assert "riskless_rate" in res.stderr


def test_calibrate_trivial_and_symmetric(tmp_path):
    cfg = write_config(tmp_path, BENCH)
    code, out, _ = run_cli("calibrate", cfg, "--shares", "1.0")
    assert code == 0
    assert json.loads(out)["gamma"] == [0.0]

    twins = dict(PAIR, agents=[{"rho": 0.05, "alpha": 0.1, "gamma": 0.0},
                               {"rho": 0.05, "alpha": 0.1, "gamma": 0.0}])
    cfg = write_config(tmp_path, twins, "twins.json")
    code, out, _ = run_cli("calibrate", cfg, "--shares", "0.5,0.5")
    assert code == 0
    assert json.loads(out)["gamma"] == [0.0, 0.0]


def test_calibrate_achieves_targets(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    code, out, _ = run_cli("calibrate", cfg, "--shares", "0.3,0.7", "--tol", "1e-11")
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["achieved_shares"], [0.3, 0.7], atol=1e-11)
    assert abs(sum(rep["gamma"])) < 1e-12


def test_calibrate_bad_shares_exit_2(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    for shares in ("0.3,0.8", "0.5", "0.5,half", "-0.2,1.2"):
        code, _, err = run_cli("calibrate", cfg, "--shares", shares)
        assert code == 2, shares
