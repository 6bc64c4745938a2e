import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import crraeq.cli
import crraeq.verify
from conftest import draw_economy, ladder
from crraeq._csvfmt import _BINADES, _X_MAX, _X_MIN, RowWriter, _decide, _tables
from crraeq.calibrate import CalibrationTarget, NoConvergence, solve_gamma
from crraeq.cli import _CSV_BLOCK_ROWS, _to_json, main
from crraeq.model import economy_from_dict, validate
from crraeq.simulate import PathGrid, _report, evaluate_series, simulate_path
from crraeq.verify import FD_TOL, SUITES, _fd_errors, run_suites

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
# MC_PAIR of acceptance test c06
MC_PAIR = {
    "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
    "agents": [{"rho": 0.2, "alpha": 0.2, "gamma": 0.1},
               {"rho": 0.2, "alpha": -0.2, "gamma": -0.1}],
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


def test_order_beyond_int64_exits_2_without_a_traceback(tmp_path):
    res = run_proc(["validate", write_config(tmp_path, dict(BENCH, R=1e19))])
    assert res.returncode == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("error:") and "int64" in line


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


def test_negative_flag_values_in_exponent_form_take_the_equals_spelling(tmp_path):
    # argparse reads "-1e3" after a space as an option, "--x=-1e3" as a value
    cfg = write_config(tmp_path, PAIR)
    code, out, err = run_cli("evaluate", cfg, "--x=-1e3")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli("evaluate", cfg, "--x", "-1000")
    csv = tmp_path / "below.csv"
    code, _, err = run_cli(
        "simulate", cfg, "--x0=-2.5e2", "--horizon", "1", "--steps", "4", "--out", str(csv)
    )
    assert (code, err) == (0, "")
    assert csv.read_text().splitlines()[1].startswith("0,0,-250,")


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


def test_simulate_holds_one_path_at_a_time(tmp_path, monkeypatch):
    # the summary keeps each path's terminal row, not a view into its matrix
    held = []
    real_write = RowWriter.write

    def write(self, path_id, matrix):
        assert [ref for ref in held if ref() is not None] == []
        held.append(weakref.ref(matrix))
        real_write(self, path_id, matrix)

    monkeypatch.setattr(RowWriter, "write", write)
    cfg = write_config(tmp_path, PAIR)
    code, _, err = run_cli("simulate", cfg, "--paths", "4", "--horizon", "1", "--steps", "16",
                           "--out", str(tmp_path / "p.csv"))
    assert code == 0, err
    assert len(held) == 4


def test_simulate_memory_does_not_grow_with_paths(tmp_path):
    # one path's arrays at a time, one set of CSV buffers per command and a
    # copy of each terminal row: 8 paths peak within 10% of 2 paths
    cfg = write_config(tmp_path, PAIR)
    argv = ("simulate", cfg, "--horizon", "2", "--steps", "2048", "--out", str(tmp_path / "p.csv"))
    assert run_cli(*argv, "--paths", "1")[0] == 0  # the formatter's tables, built once
    peaks = []
    for n_paths in ("2", "8"):
        tracemalloc.start()
        try:
            code, _, err = run_cli(*argv, "--paths", n_paths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert peaks[1] <= 1.1 * peaks[0], peaks


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


def test_simulate_terminal_means_near_the_float_range_stay_finite(tmp_path):
    # every terminal S is about 5.07e306, so a plain sum of 100 of them
    # overflows; each column's mean is taken at its binade instead, and is
    # the plain mean's bits wherever that does not overflow
    cfg = write_config(tmp_path, {**MC_PAIR, "delta0": 1e306})
    out = tmp_path / "big.csv"
    code, summary, err = run_cli("simulate", cfg, "--paths", "100", "--horizon", "0.001",
                                 "--steps", "1", "--out", str(out))
    assert (code, err) == (0, "")
    header = out.read_text().splitlines()[0].split(",")
    terminal = np.loadtxt(out, delimiter=",", skiprows=1)[1::2, 1:]  # two nodes a path
    means = json.loads(summary)["terminal_means"]
    assert list(means) == header[1:]
    with np.errstate(over="ignore"):
        plain = np.mean(terminal, axis=0)
    for name, column, plain_mean in zip(header[1:], terminal.T, plain):
        exact = sum(map(Fraction, column), Fraction(0)) / len(column)
        assert abs(Fraction(means[name]) - exact) <= 1e-15 * abs(exact), name
        if np.isfinite(plain_mean):
            assert means[name] == plain_mean, name
    assert 5e306 < means["S"] < 5.2e306


@pytest.mark.parametrize("econ", [PAIR, TRIO], ids=["pair", "trio"])
@pytest.mark.parametrize(
    "flag, value",
    [("--x0", "7000"), ("--x0", "-3000"), ("--t0", "1e6")],
    ids=["x0=7000", "x0=-3000", "t0=1e6"],
)
def test_simulate_file_matches_per_value_format(tmp_path, econ, flag, value):
    # every byte of the CSV, header and path ids included, is what a
    # per-value format of evaluate_series gives for the same paths, and
    # the summary holds the mean of the terminal rows; x0 = 7000 takes
    # TRIO's levels to inf
    cfg = write_config(tmp_path, econ)
    out = tmp_path / "p.csv"
    code, summary, err = run_cli("simulate", cfg, "--paths", "3", "--steps", "300",
                                 "--seed", "11", flag, value, "--out", str(out))
    assert (code, err) == (0, "")

    params = economy_from_dict(econ)
    table = validate(params)
    t0 = float(value) if flag == "--t0" else 0.0
    x0 = float(value) if flag == "--x0" else 0.0
    grid = PathGrid(t0, t0 + 10.0, 300)
    agents = range(1, len(econ["agents"]) + 1)
    header = ["path_id", "t", "x", "delta", "zeta", "S", "pd", "r", "kappa", "sigma_S", "mu_S"]
    header += [f"{tag}_{j}" for tag in ("c", "w", "pi") for j in agents]
    want, terminal = [",".join(header) + "\n"], []
    for path_id in range(3):
        s = evaluate_series(simulate_path(grid, x0, 11, path_id), params, table)
        rows = np.column_stack([s.t, s.x, s.dividend, s.zeta, s.stock_price, s.pd_ratio,
                                s.riskless_rate, s.kappa, s.vol, s.drift, s.consumptions,
                                s.wealths, s.portfolios])
        want.append(_per_value_csv(path_id, rows))
        terminal.append(rows[-1])
    got = out.read_bytes().decode("ascii")
    if got != "".join(want):  # line lists, so a failure reports the first differing row
        assert got.splitlines(keepends=True) == "".join(want).splitlines(keepends=True)

    rep = json.loads(summary)
    assert {k: v for k, v in rep.items() if k != "terminal_means"} == {
        "paths": 3, "seed": 11, "t0": t0, "horizon": t0 + 10.0, "n_steps": 300, "out": str(out),
    }
    assert list(rep["terminal_means"]) == header[1:]
    np.testing.assert_array_equal(list(rep["terminal_means"].values()),
                                  np.mean(terminal, axis=0))
    if econ is TRIO and value == "7000":
        assert np.isinf(rep["terminal_means"]["S"])


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--paths", "0", "--out", "x.csv"),
        ("simulate", "--workers", "0", "--out", "x.csv"),
        ("verify", "--paths", "1"),
        ("simulate", "--x0", "nan", "--out", "x.csv"),
        ("simulate", "--t0", "nan", "--out", "x.csv"),
        ("simulate", "--horizon", "nan", "--out", "x.csv"),
        ("simulate", "--horizon", "inf", "--out", "x.csv"),
        ("simulate", "--horizon", "-1", "--out", "x.csv"),
        ("simulate", "--t0", "-1", "--out", "x.csv"),
        ("simulate", "--steps", "0", "--out", "x.csv"),
        ("calibrate", "--shares", "0.3,0.7", "--tol", "-1"),
        ("calibrate", "--shares", "0.3,0.7", "--tol", "nan"),
        ("calibrate", "--shares", "0.3,0.7", "--tol", "0"),
        ("calibrate", "--shares", "0.3,0.7", "--tol", "1e-17"),
        ("calibrate", "--shares", "0.3,x"),
        ("simulate", "--horizon", "1e306", "--out", "x.csv"),
        ("simulate", "--horizon", "1e12", "--out", "x.csv"),
        ("simulate", "--steps", "1000000000000", "--out", "x.csv"),
        ("verify", "--paths", "1000000000000"),
        ("simulate", "--seed", "-1", "--out", "x.csv"),
        ("simulate", "--seed", "18446744073709551616", "--out", "x.csv"),
        ("verify", "--seed", "-1"),
        ("verify", "--seed", "18446744073709551616"),
        ("simulate", "--paths", "100000000000", "--out", "x.csv"),
        ("simulate", "--t0", "1e16", "--out", "x.csv"),
    ],
)
def test_bad_flags_exit_2_before_the_economy_is_loaded(tmp_path, monkeypatch, argv):
    def load(path):
        pytest.fail("economy loaded before the flags were checked")

    monkeypatch.setattr("crraeq.cli._load_economy", load)
    code, _, err = run_cli(argv[0], write_config(tmp_path, PAIR), *argv[1:])
    assert code == 2
    assert "must be" in err


def test_import_and_evaluate_without_scipy():
    code = (
        "import json, sys\n"
        "import crraeq, crraeq.cli\n"
        "p = crraeq.economy_from_dict(json.loads(sys.argv[1]))\n"
        "crraeq.snapshot(crraeq.MarketState(1.0, 0.5), p, crraeq.validate(p))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, json.dumps(PAIR)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_loads_no_pool_machinery():
    # concurrent.futures alone adds 7-10 ms to every command's start-up; the
    # kernel and the oracles run their block groups on plain threads
    code = (
        "import sys\n"
        "import crraeq, crraeq.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_builds_no_formatting_tables():
    # the CSV formatter builds its tables on first use, so a command that
    # writes no CSV never pays for them, and its start-up imports neither
    # fractions nor decimal
    code = (
        "import sys\n"
        "import crraeq, crraeq.cli\n"
        "print(crraeq._csvfmt._tables.cache_info().currsize,\n"
        "      sorted(m for m in sys.modules if m in ('fractions', 'decimal')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 []"


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


def _rows(values, width=16):
    """values as rows of width, the last row padded with its first values."""
    values = np.asarray(values, dtype=np.float64)
    return np.resize(values, (-(-len(values) // width), width))


def _random_bit_patterns():
    # every finite, subnormal, infinite and NaN pattern is equally likely
    bits = np.random.default_rng(1701).integers(0, 2**64, 2**20, dtype=np.uint64)
    return _rows(bits.view(np.float64))


def _dyadic_ties():
    # odd j / 2^k has k decimals after the point, its last one a 5: where
    # j 5^k has 18 digits the value is a rounding tie at 17 digits
    rng = np.random.default_rng(1702)
    values = []
    for k in range(1, 61):
        lo = max(1, -(-10**17 // 5**k))
        hi = min(2**53, 10**18 // 5**k)
        if lo < hi:
            ties = rng.integers(lo, hi, 64) | 1
            values.extend(int(j) / 2**k for j in ties if j < hi)
        values.extend(int(j) / 2**k for j in rng.integers(0, 2**53, 64) | 1)
    values = np.array(values)
    return _rows(np.concatenate([values, -values]))


def _powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)]
    )
    return _rows(np.concatenate([values, -values]))


def _notation_switches():
    # the last fixed and the first scientific spellings at X = -5, -4, 16 and 17
    values = []
    for x in (-5, -4, 16, 17):
        for mantissa in (1.0, 1.5, 2.5, 5.0, 9.5, 9.999999999999998, 9.9999999999999999):
            v = mantissa * 10.0**x
            values.extend([v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)])
    values.extend([99999999999999990.0, 99999999999999999.0, 9999999999999998.0,
                   0.000099999999999999991, 0.00001, 0.0001, 1e16 - 2, 1e16 + 2, 1e17 + 16])
    values = np.array(values)
    return _rows(np.concatenate([values, -values]))


def _specials():
    subnormals = np.random.default_rng(1703).integers(1, 2**52, 200, dtype=np.uint64)
    values = np.concatenate([
        subnormals.view(np.float64),
        [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-280, 1e280,
         9.9999999999999996e-281, 1.0000000000000001e280, 1.7976931348623157e308,
         0.0, math.inf, math.nan, 1.0, 0.1, 0.5, 123456789012345678.0],
    ])
    return _rows(np.concatenate([values, -values]))


def _negative_blocks():
    # at least 16 rows of negative values per block, in every column
    rng = np.random.default_rng(1704)
    matrix = -rng.random((300, 16)) * 10.0 ** rng.integers(-8, 20, (300, 16))
    matrix[::3] *= -1.0
    return matrix


_CORPUS = {
    "random-bits": _random_bit_patterns,
    "dyadic-ties": _dyadic_ties,
    "powers-of-ten": _powers_of_ten,
    "notation-switches": _notation_switches,
    "specials": _specials,
    "negative-blocks": _negative_blocks,
}


@pytest.mark.parametrize(
    "path_id, matrix",
    [(0, _random_matrix(n)) for n in (1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 5)]
    + [(12, _SPECIAL_VALUES)]
    + [(9999999, corpus()) for corpus in _CORPUS.values()],
    ids=["1", "block-1", "block", "block+1", "2block+5", "special", *_CORPUS],
)
def test_csv_rows_match_per_value_format(path_id, matrix):
    # the numpy formatter decides most values itself and hands the rest to
    # CPython; every one must come out as the per-value %.17g spells it, in
    # blocks of any size, and again from the same writer under a shorter id
    cases = [(path_id, matrix, _CSV_BLOCK_ROWS)]
    for other_id, block_rows in ((0, 1), (12, 7), (345, 16), (6, 300)):
        cases.append((other_id, matrix[:500], block_rows))
    for pid, rows, block_rows in cases:
        fh = io.BytesIO()
        writer = RowWriter(fh, rows.shape[1], block_rows)
        writer.write(pid, rows)
        writer.write(pid // 10, rows)
        got = fh.getvalue().decode("ascii")
        want = _per_value_csv(pid, rows) + _per_value_csv(pid // 10, rows)
        if got != want:  # line lists, so a failure reports the first differing row
            assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


def test_power_table_is_correctly_rounded():
    # hi + lo is 10^(16-x) to double-double precision, from exact integers
    powers, binade_rows, binade_tops, (low, high) = _tables()
    hi, hh, hl, lo = powers[:-1].T
    for k, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        exact = Fraction(10) ** (16 - x)
        assert hi[k] == float(exact) and lo[k] == float(exact - Fraction(hi[k])), x
        assert hh[k] + hl[k] == hi[k] and (math.frexp(hh[k])[0] * 2**26).is_integer(), x
    assert not powers[-1].any()
    # a decided binade [2^e, 2^(e+1)) starts at decimal exponent X, and
    # reaches X + 1 at the correctly rounded 10^(X+1)
    for e in _BINADES:
        x = int(binade_rows[e + 1023]) + _X_MIN
        assert Fraction(10) ** x <= Fraction(2) ** e < Fraction(10) ** (x + 1), e
        assert binade_tops[e + 1023] == float(Fraction(10) ** (x + 1)), e
    spelled = low[[0, 1200, 10000, 11200, 19999]].astype(np.uint32).tobytes()
    assert spelled == b"0000" b"1200" b"\0\0\0\0" b"12\0\0" b"9999"
    assert np.array_equal(high >> 32, low)


def test_ordinary_values_are_spelled_without_python():
    # only zeros, non-finite values, near-ties and extreme magnitudes go to
    # `%`; below 1e9 a random double is a tie at 17 digits almost never
    rng = np.random.default_rng(1705)
    values = rng.standard_normal(1 << 16) * 10.0 ** rng.integers(-250, 9, 1 << 16)
    _, key = _decide(values)
    assert np.count_nonzero(key < 0) <= len(values) // 1000


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


@pytest.mark.parametrize("suite", ["martingale", "mc"])
def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path, suite):
    cfg = write_config(tmp_path, MC_PAIR)
    argv = ["verify", cfg, "--suite", suite, "--paths", "300", "--seed", "12"]
    one, two = (run_proc(argv, env={"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2"))
    assert one.returncode == 0, one.stderr
    assert (one.stdout, one.stderr, one.returncode) == (two.stdout, two.stderr, two.returncode)


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2, reason="needs two usable cores"
)
def test_ladder_bytes_do_not_depend_on_blas_threads_or_cores(tmp_path):
    # R7 J7 (M = 1716) reduces along contiguous rows, and the 2049-node
    # paths stream in blocks that run in one group per usable core; each
    # child sets its own affinity before the package counts its cores
    p = ladder(7, 7)
    econ = {
        "R": p.R, "sigma": p.sigma, "alpha_star": p.alpha_star, "delta0": p.delta0,
        "agents": [{"rho": a.rho, "alpha": a.alpha, "gamma": a.gamma} for a in p.agents],
    }
    cfg = write_config(tmp_path, econ)
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, map(int, sys.argv[1].split(',')))\n"
        "from crraeq.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    cores = sorted(os.sched_getaffinity(0))[:2]
    package_root = os.pathsep.join(
        [os.path.dirname(os.path.dirname(crraeq.cli.__file__)), os.environ.get("PYTHONPATH", "")]
    )
    runs = []
    for k, (threads, cpus) in enumerate((("1", cores), ("2", cores), ("1", cores[:1]))):
        # simulate prints its --out path: each child writes paths.csv in its own directory
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
        here = tmp_path / f"run{k}"
        here.mkdir()
        run = []
        for argv in (
            ["evaluate", cfg, "--t", "1.5", "--x", "-0.7"],
            ["simulate", cfg, "--paths", "3", "--horizon", "2", "--steps", "2048",
             "--seed", "7", "--out", "paths.csv"],
        ):
            res = subprocess.run(
                [sys.executable, "-c", code, ",".join(map(str, cpus)), *argv],
                capture_output=True, env=env, cwd=here,
            )
            assert res.returncode == 0, res.stderr
            run.append((res.stdout, res.stderr))
        runs.append((run, (here / "paths.csv").read_bytes()))
    assert runs[0][1].count(b"\n") > 3 * 2049
    assert runs[0] == runs[1] == runs[2]


def test_verify_clearing_three_agents(tmp_path):
    cfg = write_config(tmp_path, TRIO)
    code, out, _ = run_cli("verify", cfg, "--suite", "clearing", "--seed", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_fault_injection_names_the_rate(tmp_path, monkeypatch):
    # a closed-form rate off by 1e-3 while every log level stays exact:
    # the fd suite must flag the rate and nothing else
    real_fields = crraeq.verify.evaluate_fields

    def biased_rate(*args):
        fields = real_fields(*args)
        fields["riskless_rate"] = fields["riskless_rate"] + 1e-3
        return fields

    monkeypatch.setattr(crraeq.verify, "evaluate_fields", biased_rate)
    cfg = write_config(tmp_path, BENCH)
    code, out, err = run_cli("verify", cfg, "--suite", "fd")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    failing = [
        c["quantity"] for s in rep["suites"] for c in s["checks"] if not c["pass"]
    ]
    assert failing == ["riskless_rate"]
    assert "riskless_rate" in err


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


def test_calibrate_validates_once(tmp_path, monkeypatch):
    calls = []
    real_validate = crraeq.cli.validate

    def counting_validate(params):
        calls.append(params)
        return real_validate(params)

    monkeypatch.setattr(crraeq.cli, "validate", counting_validate)
    monkeypatch.setattr(crraeq.calibrate, "validate", counting_validate)
    cfg = write_config(tmp_path, TRIO)
    code, out, _ = run_cli("calibrate", cfg, "--shares", "0.2,0.5,0.3")
    assert code == 0
    assert len(calls) == 1
    # the same gamma, to the bit, as the library solve that validates for itself
    params = economy_from_dict(TRIO)
    target = CalibrationTarget((0.2, 0.5, 0.3))
    assert json.loads(out)["gamma"] == solve_gamma(params, target).tolist()
    assert len(calls) == 2


def test_calibrate_that_does_not_converge_exits_1(tmp_path, monkeypatch):
    def stalled(*args, **kwargs):
        raise NoConvergence(200, 3.5e-4)

    monkeypatch.setattr(crraeq.cli, "solve_gamma_on_table", stalled)
    cfg = write_config(tmp_path, PAIR)
    code, out, err = run_cli("calibrate", cfg, "--shares", "0.3,0.7")
    assert (code, out) == (1, "")
    assert err == f"error: {NoConvergence(200, 3.5e-4)}\n"


def test_calibrate_bad_shares_exit_2(tmp_path, monkeypatch):
    # a malformed target fails before the economy is loaded, a share count
    # that does not fit the economy before it is validated
    cfg = write_config(tmp_path, PAIR)
    loads = []
    real_load = crraeq.cli._load_economy
    monkeypatch.setattr("crraeq.cli._load_economy", lambda path: loads.append(path) or real_load(path))

    def no_validate(params):
        pytest.fail("economy validated before the share count was checked")

    monkeypatch.setattr("crraeq.cli.validate", no_validate)
    for shares in ("0.3,0.8", "0.5", "0.5,half", "-0.2,1.2"):
        code, _, err = run_cli("calibrate", cfg, "--shares", shares)
        assert code == 2, shares
        assert loads == [], shares
    code, _, err = run_cli("calibrate", cfg, "--shares", "1.0")
    assert code == 2
    assert "needs 2 values" in err
    assert len(loads) == 1


def test_fd_errors_differentiate_every_level_in_two_calls(monkeypatch):
    # the closed forms and one Richardson stencil of the vector of log levels
    calls = []
    real = crraeq.verify.evaluate_fields

    def counted(t, x, params, table):
        calls.append(np.shape(t))
        return real(t, x, params, table)

    monkeypatch.setattr(crraeq.verify, "evaluate_fields", counted)
    for obj in (BENCH, PAIR, TRIO):
        params = economy_from_dict(obj)
        calls.clear()
        errors = _fd_errors(1.0, 0.3, params, validate(params))
        assert calls == [(1,), (9, 1)]
        assert max(errors.values()) <= FD_TOL


@pytest.mark.parametrize(
    "field", ["alpha_bar", "kappa", "alpha_tilde", "alpha_tilde_agents", "vol"]
)
def test_fd_suite_catches_a_first_order_field_off_by_1e_3(monkeypatch, field):
    # the closed form of one first-order coefficient scaled by 1 + 1e-3;
    # the stencil differentiates the unscaled log levels
    real = crraeq.verify.evaluate_fields

    def off(t, x, params, table):
        fields = real(t, x, params, table)
        fields[field] = fields[field] * (1 + 1e-3)
        return fields

    monkeypatch.setattr(crraeq.verify, "evaluate_fields", off)
    quantity = {"vol": "sigma_S"}.get(field, field)
    for obj in (PAIR, TRIO):
        params = economy_from_dict(obj)
        suite = crraeq.verify._suite_fd(params, validate(params), 3, 2)
        failing = [c["quantity"] for c in suite["checks"] if not c["pass"]]
        assert failing == [quantity]
        assert suite["pass"] is False


def test_each_suite_evaluates_its_states_in_one_kernel_call_per_stencil(monkeypatch):
    # clearing: the closed forms; fd: the closed forms and the Richardson
    # stencil, each over all of the suite's states
    calls = []
    real = crraeq.verify.evaluate_fields

    def counted(t, x, params, table):
        calls.append(np.shape(t))
        return real(t, x, params, table)

    monkeypatch.setattr(crraeq.verify, "evaluate_fields", counted)
    for obj in (PAIR, TRIO):
        params = economy_from_dict(obj)
        table = validate(params)
        calls.clear()
        assert crraeq.verify._suite_clearing(params, table, 3, 2)["pass"]
        assert calls == [(crraeq.verify.N_SUITE_STATES,)]
        calls.clear()
        assert crraeq.verify._suite_fd(params, table, 3, 2)["pass"]
        n = crraeq.verify.N_SUITE_STATES
        assert calls == [(n,), (9, n)]


def test_fd_errors_over_arrays_equal_the_worst_single_state_calls():
    rng = np.random.default_rng(1501)
    economies = [economy_from_dict(obj) for obj in (PAIR, TRIO, MC_PAIR)]
    economies += [ladder(4, 4), ladder(3, 12)]
    economies += [draw_economy(rng, max_agents=4, max_r=5)[0] for _ in range(2)]
    for params in economies:
        table = validate(params)
        t, x = rng.uniform((0.2, -2.0), (5.0, 2.0), (7, 2)).T
        batched = _fd_errors(t, x, params, table)
        worst = {}
        for t_n, x_n in zip(t.tolist(), x.tolist()):
            for name, err in _fd_errors(t_n, x_n, params, table).items():
                worst[name] = max(worst.get(name, 0.0), err)
        assert list(batched) == list(worst)
        assert [v.hex() for v in batched.values()] == [v.hex() for v in worst.values()]


def test_worst_gap_is_nan_if_any_gap_is_nan():
    assert math.isnan(crraeq.verify._worst([1e-3, math.nan, 2e-3]))
    assert math.isnan(crraeq.verify._worst([math.nan, 0.5]))
    assert crraeq.verify._worst([1e-3, math.inf, 2e-3]) == math.inf
    assert crraeq.verify._worst([0.0, 3e-12, 1e-12]) == 3e-12


def test_an_undefined_clearing_identity_fails_verification(tmp_path):
    # at delta0 = 1e308 the stock price and every wealth overflow, so the
    # wealth gap inf - inf is NaN at every state: it must fail, not read 0
    huge = dict(MC_PAIR, delta0=1e308)
    cfg = write_config(tmp_path, huge)
    code, out, _ = run_cli("evaluate", cfg, "--x", "3")
    assert code == 0
    assert json.loads(out)["stock_price"] == math.inf
    code, out, err = run_cli("verify", cfg, "--suite", "clearing")
    assert code == 1
    checks = {c["quantity"]: c for c in json.loads(out)["suites"][0]["checks"]}
    assert math.isnan(checks["wealth_aggregation"]["value"])
    assert checks["wealth_aggregation"]["pass"] is False
    assert '"value": NaN' in out
    assert "wealth_aggregation" in err


@pytest.mark.parametrize("delta0", [1e308])
def test_an_mc_check_without_a_finite_z_fails_verification(tmp_path, delta0):
    # at delta0 = 1e308 the oracles' estimates overflow along with the
    # closed forms: that leaves no z-test (inf == inf is no agreement), so z
    # is NaN and the checks fail, with no numpy warning on stderr
    cfg = write_config(tmp_path, dict(MC_PAIR, delta0=delta0))
    proc = run_proc(["verify", cfg, "--paths", "300", "--seed", "0"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    checks = {c["quantity"]: c for s in report["suites"] for c in s["checks"]}
    for name in ("wealth_oracle_agent_1", "wealth_oracle_agent_2", "stock_oracle"):
        sides = [checks[name][k] for k in ("estimate", "std_error", "closed_form")]
        assert not all(map(math.isfinite, sides)), name
        assert math.isnan(checks[name]["value"]), name
        assert checks[name]["pass"] is False, name
    # its closed form S_0 zeta_0 is inf * 0
    assert math.isnan(checks["martingale"]["value"])
    failing = [name for name, c in checks.items() if not c["pass"]]
    assert proc.stderr == f"error: verification failed: {', '.join(failing)}\n"


def test_an_mc_check_near_the_float_range_has_a_finite_std_error(tmp_path):
    # at delta0 = 1e160 the oracles' squared deviations would overflow, but
    # the statistics are taken at the binade of max |v|: std_error is
    # finite, 1e160 times the one at delta0 = 1, and the suite passes; the
    # division by zeta_0, near 1e-320 and so subnormal, is made in the path
    # exponents, so the estimates keep full precision too
    checks = {}
    for delta0 in (1.0, 1e160):
        cfg = write_config(tmp_path, dict(MC_PAIR, delta0=delta0))
        code, out, err = run_cli("verify", cfg, "--suite", "mc", "--paths", "300", "--seed", "0")
        assert code == 0, err
        checks[delta0] = json.loads(out)["suites"][0]["checks"]
    for plain, huge in zip(checks[1.0], checks[1e160]):
        assert math.isfinite(huge["std_error"])
        for name in ("estimate", "std_error"):
            np.testing.assert_allclose(huge[name], 1e160 * plain[name], rtol=1e-12)
    # scaling the values, the closed form and the bound by 2^k scales every
    # report field but z and the path count by 2^k, to the bit, out to where
    # the plain squares would overflow (k = 1000) or underflow (k = -1000)
    v = np.random.default_rng(3).lognormal(size=3000)
    base = _report(v, 1.7, 0.01)
    for k in (-1000, -7, 9, 1000):
        got = _report(np.ldexp(v, k), math.ldexp(1.7, k), math.ldexp(0.01, k))
        for name in ("estimate", "std_error", "closed_form", "truncation_bound"):
            assert getattr(got, name) == math.ldexp(getattr(base, name), k), (k, name)
        assert (got.z_score, got.n_paths) == (base.z_score, base.n_paths)


def test_run_suites_is_the_printed_report_and_each_suite_stands_alone(tmp_path):
    cfg = write_config(tmp_path, PAIR)
    argv = ("verify", cfg, "--seed", "4", "--paths", "50")
    # the parity holds whether or not a check passes
    _, out, _ = run_cli(*argv)
    params = economy_from_dict(PAIR)
    report = run_suites(params, validate(params), tuple(SUITES), 4, 50)
    assert out == _to_json({"config": cfg, **report}) + "\n"
    assert [s["suite"] for s in report["suites"]] == list(SUITES)
    for suite in report["suites"]:
        _, out, _ = run_cli(*argv, "--suite", suite["suite"])
        alone = {"config": cfg, "seed": 4, "suites": [suite], "pass": suite["pass"]}
        assert out == _to_json(alone) + "\n"


def test_mc_suite_near_the_boundary_is_a_model_error_before_any_path(tmp_path, monkeypatch):
    # min D is about 1e-7, so the mc suite's horizon 5 / min D needs a grid
    # of 1e8 steps at dt near 0.5; the other suites still verify it
    near = {
        "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
        "agents": [{"rho": 0.0100001, "alpha": 0.0, "gamma": 0.0}],
    }
    cfg = write_config(tmp_path, near)
    code, out, _ = run_cli("validate", cfg)
    assert code == 0
    assert json.loads(out)["min_denominator"] == 9.9999999997671396e-08
    for suite in ("clearing", "fd", "martingale"):
        code, out, err = run_cli("verify", cfg, "--suite", suite, "--paths", "10")
        assert code == 0, (suite, err)
    monkeypatch.setattr(
        crraeq.verify, "mc_oracles", lambda *a, **k: pytest.fail("paths drawn")
    )
    code, out, err = run_cli("verify", cfg, "--suite", "mc", "--paths", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "9.9999999997671396e-08" in err and "50000000.001164302" in err
    for suite in ("fd", "clearing", "martingale"):
        assert suite in err
