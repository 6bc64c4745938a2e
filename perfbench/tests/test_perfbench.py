"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import specs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

worker.use_source_tree()

import crraeq.cli  # noqa: E402
import workloads  # noqa: E402

TINY = specs.Sizes(csv_paths=2, csv_horizon=0.5, csv_steps=64, wide_rj=(3, 3), wide_paths=1,
                   wide_steps=64)
SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def ladder():
    return worker.ladder()


@pytest.fixture(scope="module")
def runs(tmp_path_factory, ladder):
    """Untraced and traced tiny runs of every workload, one job or two each."""
    saved = worker.ladder
    worker.ladder = lambda: ladder  # the real ladder runs once, in its fixture
    try:
        out = {}
        for name in WORKLOADS:
            for trace in (False, True):
                workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
                out[name, trace] = worker.run(name, workdir, seed=1, seconds=0, trace=trace,
                                              sizes=TINY)
        return out
    finally:
        worker.ladder = saved


@pytest.mark.parametrize("name", WORKLOADS)
def test_metric_names_match_benchmark_json(runs, name):
    untraced, traced = runs[name, False], runs[name, True]
    assert set(untraced["metrics"]) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_operation_fails(runs, name):
    for trace in (False, True):
        raw = runs[name, trace]
        assert raw["attempted"] > 0
        assert raw["failed"] == 0, raw["errors"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_child_spans_lie_within_their_parents(runs, name):
    spans = {s["id"]: s for s in runs[name, True]["spans"]}
    assert spans
    for s in spans.values():
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_known_failing_seed_is_reported_not_counted(runs):
    for trace in (False, True):
        raw = runs["verify-suites", trace]
        probe = raw["details"]["known_failing_probe"]
        assert probe["seed"] == specs.known_failing_seed(1)
        assert set(probe["economies"]) == {"pair", "trio"}
        assert not all(e["pass"] for e in probe["economies"].values())
        assert raw["failed"] == 0


def test_pool_thread_spans_attach_to_cli_main(runs):
    spans = {s["id"]: s for s in runs["csv-export", True]["spans"]}
    pool = [s for s in spans.values() if s["name"] == "cli.pool"]
    assert pool
    for s in pool:
        assert spans[s["parent"]]["name"] == "cli.main"
    assert any(s["thread"] != spans[s["parent"]]["thread"] for s in pool)
    series = [s for s in spans.values() if s["name"] == "simulate.series"]
    assert series and all(spans[s["parent"]]["name"] == "cli.pool" for s in series)


@pytest.mark.parametrize("name", ["wide-economy", "verify-suites"])
def test_self_times_account_for_job_time(runs, name):
    spans = [tracing.Span(**s) for s in runs[name, True]["spans"]]
    selfs = tracing.self_times(spans)
    for job in (s for s in spans if s.name == "bench.job"):
        total = sum(selfs[s.id] for s in spans if s.job == job.job)
        assert total == pytest.approx(job.end - job.start, rel=1e-9)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, "a", 0.0, 10.0, 4.0, None, 0, 1),
        tracing.Span(2, "b", 1.0, 3.0, 1.0, 1, 0, 1),
        tracing.Span(3, "b", 2.0, 5.0, 1.0, 1, 0, 2),  # overlaps, other thread
        tracing.Span(4, "c", 9.0, 10.0, 0.5, 1, 0, 1),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_cpu_times(spans)[1] == pytest.approx(4.0 - 1.0 - 0.5)


def test_ladder_skips_the_series_at_r10_j10(ladder):
    metrics, skipped = ladder
    assert "ladder.validate.R10J10.s" in metrics
    assert not any(k.startswith(("ladder.series.R10", "ladder.snapshot.R10")) for k in metrics)
    assert "757 MB" in skipped["snapshot+series.R10J10"]


def _perturb(path, row, column, rel=1e-10):
    """Scale one CSV value by (1 + rel), written back at 17 significant digits."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    cols = lines[0].rstrip("\n").split(",")
    values = lines[row + 1].rstrip("\n").split(",")
    k = cols.index(column)
    values[k] = format(float(values[k]) * (1 + rel), ".17g")
    lines[row + 1] = ",".join(values) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _perturbing_main(monkeypatch, row, column):
    original = crraeq.cli.main

    def main(argv):
        code = original(argv)
        _perturb(argv[argv.index("--out") + 1], row, column)
        return code

    monkeypatch.setattr(crraeq.cli, "main", main)


def test_perturbed_csv_value_fails_its_operation(tmp_path, monkeypatch):
    files = specs.write_economies("csv-export", tmp_path, TINY)
    job_runner = workloads.CsvExport(files, str(tmp_path), TINY, None)
    assert job_runner.job(0, 1).failed == 0
    _perturbing_main(monkeypatch, row=70, column="delta")
    job = job_runner.job(0, 1)
    assert job.failed == 1
    assert "sum c - delta" in job.ops[0][1]


def _reference():
    with open(worker.REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_reference_jobs_match_recorded_values(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        files = specs.write_economies(name, tmp_path, specs.FULL)
        job = cls(files, str(tmp_path), specs.FULL, _reference()[name]).reference_job()
        assert job.ops and job.failed == 0, job.ops


def test_perturbed_reference_row_fails(tmp_path, monkeypatch):
    files = specs.write_economies("csv-export", tmp_path, specs.FULL)
    bench = workloads.CsvExport(files, str(tmp_path), specs.FULL, _reference()["csv-export"])
    _perturbing_main(monkeypatch, row=5120, column="kappa")  # path 0, node 5120
    job = bench.reference_job()
    assert job.failed == 1
    assert "reference" in job.ops[0][1]


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
