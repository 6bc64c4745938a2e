"""The package names that the benchmark's tracer (perfbench/tracing.py) reaches into,
and the benchmark's reference gate.

The tracer wraps package functions by module attribute and binds their
arguments by name, so a rename silently zeroes its counters; these tests
make such a rename fail here instead.  Every benchmark run compares one
reference job per workload with perfbench/reference.json to 1e-13; the
same jobs run here, so an output change past that gate fails here first.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import crraeq.calibrate
import crraeq.cli
import crraeq.model
import crraeq.simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    main = crraeq.cli.main
    recorder = tracing.Recorder()
    try:
        recorder.install()
    finally:  # a failed install must not leave wrappers in the package
        recorder.uninstall()
    assert crraeq.cli.main is main


def test_names_the_tracer_binds_exist():
    assert _parameters(crraeq.calibrate.solve_gamma) == ["params", "target", "tol", "max_iter"]
    assert _parameters(crraeq.simulate.evaluate_series) == ["path", "params", "table"]
    assert {"table", "n_paths", "horizon", "n_steps", "seed", "x0"} <= set(
        _parameters(crraeq.simulate.martingale_check)
    )
    assert _parameters(crraeq.simulate._resolve_grid) == [
        "state_t", "horizon", "n_steps", "table"
    ]
    for module, name in [
        (crraeq.calibrate, "equilibrium"),
        (crraeq.simulate, "simulate_paths"),
        (crraeq.simulate, "fd_engine"),
        (crraeq.cli, "main"),
    ]:
        assert hasattr(module, name), name


def test_table_fields_the_tracer_reads_exist():
    # the series counter sizes its temporaries from the table's d_values
    params = crraeq.model.EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=(crraeq.model.Agent(0.2, 0.2, 0.1), crraeq.model.Agent(0.2, -0.2, -0.1)),
    )
    table = crraeq.model.validate(params)
    for name in ("d_values", "parts", "x_coefs", "t_coefs"):
        assert hasattr(table, name), name
    assert table.d_values.size == len(table.parts) == 3


def test_package_import_loads_the_dynamics_module():
    code = "import sys, crraeq; assert 'crraeq.dynamics' in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("workload", ["csv-export", "wide-economy", "verify-suites"])
def test_reference_job_matches_the_recorded_values(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import specs
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    files = specs.write_economies(workload, tmp_path, specs.FULL)
    bench = workloads.WORKLOADS[workload](files, str(tmp_path), specs.FULL, reference[workload])
    job = bench.reference_job()
    assert job.ops and job.failed == 0, job.ops
