"""One fresh benchmark process: time the set-up, or run a workload.

    python3 perfbench/worker.py setup --workload NAME --workdir DIR
    python3 perfbench/worker.py run --workload NAME --workdir DIR --seed N --seconds S --trace 0|1

`run.py` starts these processes and reads the JSON object each prints
as its last line. Set-up is timed inside the process, from before
`import crraeq` to after every economy of the workload is parsed and
validated once; nothing else is imported before it but the standard
library.

A run repeats the workload's job in a closed loop until `--seconds`
have passed, then makes one reference job; verify-suites also probes
one seed on which its checks are known to fail (see specs.py). With
--trace 1 it alternates untraced and traced jobs, so the tracing
overhead is measured in the same process, and then times the (R, J)
composition-count ladder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import specs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
LADDER_GRID_STEPS = 1024


def use_source_tree() -> None:
    """Import crraeq from the checkout's src/, ahead of anything installed."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def setup(files: dict) -> float:
    """Seconds to import crraeq and crraeq.cli, parse the economies, validate each."""
    start = time.perf_counter()
    import crraeq
    import crraeq.cli  # noqa: F401  (part of what a CLI user pays)

    for path in files.values():
        with open(path, encoding="utf-8") as fh:
            crraeq.validate(crraeq.economy_from_dict(json.load(fh)))
    elapsed = time.perf_counter() - start
    origin = Path(crraeq.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise RuntimeError(f"crraeq was imported from {origin}, not from {SOURCE}")
    return elapsed


def _median_time(fn, budget: float = 0.5, max_reps: int = 25) -> float:
    """Median wall time of fn over as many calls as fit in `budget` (at least one)."""
    times = []
    spent = time.perf_counter()
    while not times or (time.perf_counter() - spent < budget and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def ladder() -> tuple:
    """validate, snapshot and evaluate_series per 1k nodes along the (R, J) ladder."""
    import crraeq
    from crraeq.simulate import PathGrid, evaluate_series, simulate_paths

    metrics, skipped = {}, {}
    state = crraeq.MarketState(1.0, 0.5)
    path = simulate_paths(PathGrid(0.0, 1.0, LADDER_GRID_STEPS), 0.0, 1, specs.REFERENCE_SEED)[0]
    knodes = len(path.x_values) / 1000
    for r, j in specs.LADDER + specs.LADDER_VALIDATE_ONLY:
        params = crraeq.economy_from_dict(specs.ladder_economy(r, j))
        tag = f"R{r}J{j}"
        metrics[f"ladder.validate.{tag}.s"] = _median_time(lambda: crraeq.validate(params))
        if (r, j) in specs.LADDER_VALIDATE_ONLY:
            m = crraeq.composition_count(j, r)
            size = len(path.x_values) * m * 8
            skipped[f"snapshot+series.{tag}"] = (
                f"each ({len(path.x_values)}, {m}) float64 temporary of evaluate_series "
                f"is {size / 1e6:.0f} MB, against {_mem_total_mb():.0f} MB of memory")
            continue
        table = crraeq.validate(params)
        metrics[f"ladder.snapshot.{tag}.ms"] = 1e3 * _median_time(
            lambda: crraeq.snapshot(state, params, table))
        metrics[f"ladder.series.{tag}.ms_per_knode"] = 1e3 * _median_time(
            lambda: evaluate_series(path, params, table)) / knodes
    return metrics, skipped


def _mem_total_mb() -> float:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6


def _job_stats(walls: list) -> dict:
    """Median and the highest percentile with at least ten jobs beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"jobs": n, "median": statistics.median(walls) if walls else None, "tail": tail}


def layer_metrics(rec, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced job, from the recorder's spans and counts."""
    import tracing

    n = len(traced)
    spans = rec.spans
    selfs = tracing.self_times(spans)
    self_cpus = tracing.self_cpu_times(spans)
    by_id = {s.id: s for s in spans}
    calls, self_s, self_cpu = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        self_cpu[s.name] = self_cpu.get(s.name, 0.0) + self_cpus[s.id]
    # the pool tasks of `simulate --workers` are cli work done in other threads
    for table in (self_s, self_cpu):
        table["cli.main"] = table.get("cli.main", 0.0) + table.pop("cli.pool", 0.0)
    count = rec.counts

    def per_job(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    share_evals = sum(1 for s in spans if s.name == "model.validate"
                      and tracing.has_ancestor(s, "calibrate.solve", by_id))
    jobs = [s for s in spans if s.name == "bench.job"]
    m = {}
    for name in tracing.SPAN_NAMES:
        if name != "cli.pool":
            m[f"{name}.calls"] = per_job(calls.get(name, 0))
            m[f"{name}.s"] = per_job(self_s.get(name, 0.0))
            m[f"{name}.cpu_s"] = per_job(self_cpu.get(name, 0.0))
    m.update({
        "multiindex.enumerate.compositions": per_job(count["multiindex.enumerate.compositions"]),
        "model.validate.distinct_frac": ratio(count["model.validate.distinct"],
                                              calls.get("model.validate", 0)),
        "calibrate.share_evals": per_job(share_evals),
        "simulate.paths.count": per_job(count["simulate.paths.count"]),
        "simulate.series.nodes": per_job(count["simulate.series.nodes"]),
        "simulate.series.ms_per_knode": ratio(1e3 * self_s.get("simulate.series", 0.0),
                                              count["simulate.series.nodes"] / 1e3),
        "simulate.series.temp_mib": rec.series_temp_bytes / 2**20,
        "simulate.mc.path_steps": per_job(count["simulate.mc.path_steps"]),
        "simulate.mc.path_reuse_frac": ratio(count["simulate.mc.reused"],
                                             count["simulate.mc.draws"]),
        "cli.self.s": m.pop("cli.main.s"),
        "cli.self.cpu_s": m.pop("cli.main.cpu_s"),
        "cli.bytes_out": per_job(count["cli.bytes_out"]),
        "cli.self.s_per_mb": ratio(self_s.get("cli.main", 0.0), count["cli.bytes_out"] / 1e6),
        "process.cpu_s": statistics.fmean(j.cpu for j in untraced),
        "process.cpu_per_wall": ratio(sum(j.cpu for j in untraced),
                                      sum(j.wall for j in untraced)),
        "trace.overhead_frac": statistics.median(j.wall for j in traced)
        / statistics.median(j.wall for j in untraced) - 1.0,
        # share of traced job time that no layer span covers
        "trace.unattributed_frac": ratio(sum(selfs[s.id] for s in jobs),
                                         sum(s.end - s.start for s in jobs)),
    })
    return m


def environment() -> dict:
    """What a number depends on besides the code: machine, versions, threads, source."""
    import numpy
    import scipy

    def first(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            return None
        return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(_mem_total_mb()),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "git_commit": commit or None,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, workdir, seed: int, seconds: float, trace: bool,
        sizes=specs.FULL, reference: dict | None = None) -> dict:
    """Run one workload; returns the raw result, spans included when traced."""
    files = specs.write_economies(workload, workdir, sizes)
    setup_s = setup(files)

    import tracing
    import workloads

    bench = workloads.WORKLOADS[workload](files, str(workdir), sizes, reference)
    rec = tracing.Recorder() if trace else None
    jobs = []  # (traced, Job)
    min_jobs = 2 if trace else 1
    start = time.perf_counter()
    while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
        k = len(jobs)
        traced = trace and k % 2 == 1
        if traced:
            rec.install()
        try:
            job = bench.job(k, seed, rec if traced else None)
        finally:
            if traced:
                rec.uninstall()
        jobs.append((traced, job))
    measured = time.perf_counter() - start
    extra = [bench.reference_job()]
    probe = None
    if isinstance(bench, workloads.VerifySuites):
        probe_job, probe = bench.probe(seed)
        extra.append(probe_job)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_jobs = [j for _, j in jobs] + extra
    attempted = sum(len(j.ops) for j in all_jobs)
    failed = sum(j.failed for j in all_jobs)
    errors = [f"job {i}: {name}: {err}" for i, j in enumerate(all_jobs)
              for name, err in j.ops if err]
    untraced = [j for t, j in jobs if not t]
    # a failed job's time is not a time to a checked solution
    timed = [j.wall for j in untraced if not j.failed] or [j.wall for j in untraced]
    details = {
        "job_s": _job_stats(timed),
        "measured_s": measured,
        "peak_rss_mb": peak_rss_mb,
    }
    if probe is not None:
        details["known_failing_probe"] = probe
    out = {"setup_s": setup_s, "attempted": attempted, "failed": failed,
           "errors": errors[:20], "details": details,
           "jobs": [{"traced": t, "wall": j.wall, "cpu": j.cpu, "ops": len(j.ops),
                     "failed": j.failed} for t, j in jobs]}
    if not trace:
        out["metrics"] = {"job_s": details["job_s"]["median"], "peak_rss_mb": peak_rss_mb}
    else:
        out["metrics"] = layer_metrics(rec, [j for t, j in jobs if t], untraced)
        ladder_metrics, details["ladder_skipped"] = ladder()
        out["metrics"].update(ladder_metrics)
        out["spans"] = [s._asdict() for s in rec.spans]
    out["environment"] = environment()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    roles = parser.add_subparsers(dest="role", required=True)
    for role in ("setup", "run"):
        sub = roles.add_parser(role)
        sub.add_argument("--workload", required=True)
        sub.add_argument("--workdir", required=True)
    run_args = roles.choices["run"]
    run_args.add_argument("--seed", type=int, required=True)
    run_args.add_argument("--seconds", type=float, required=True)
    run_args.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run_args.add_argument("--spans", help="file for the traced run's spans, one JSON per line")
    args = parser.parse_args(argv)
    use_source_tree()
    try:
        if args.role == "setup":
            files = specs.write_economies(args.workload, args.workdir)
            result = {"setup_s": setup(files)}
        else:
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                reference = json.load(fh)[args.workload]
            result = run(args.workload, args.workdir, args.seed, args.seconds,
                         bool(args.trace), reference=reference)
    except Exception:  # the parent reports the traceback and prints no result
        traceback.print_exc()
        return 1
    spans = result.pop("spans", None)
    if spans and args.spans:
        origin = min(s["start"] for s in spans)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for s in spans:
                s["start"] -= origin
                s["end"] -= origin
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
