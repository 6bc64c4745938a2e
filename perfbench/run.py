"""Run one workload of the crraeq benchmark and print its metrics.

    python3 perfbench/run.py --workload csv-export --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's `src/` and exits non-zero, printing no result, if that source
is missing. `BENCHMARK.json` at the root names the workloads and the
metrics, with their units and bounds.

Every measurement happens in a fresh process started by this script
(`worker.py`), with BLAS and OpenMP limited to one thread. With
--trace 0 the result holds the end-to-end metrics:

  setup_s      median over eleven fresh processes (five that only set up
               before the run, the run's own, and five that only set up
               after it) of the time to import crraeq and crraeq.cli,
               parse the workload's economies and validate each once
  job_s        median wall time of the run's jobs, each a checked
               solution; a run repeats its job for --seconds
  peak_rss_mb  peak resident memory of the run process

With --trace 1 the result holds the per-layer metrics of a traced run
(see tracing.py), per traced job, and the composition-count ladder.

The last line of standard output is the result: correct, attempted,
failed and metrics. The line before it is the full report: environment
stamp, per-job times, the job_s tail percentile, failed_frac, the first
errors, and for verify-suites the outcome on a seed its checks are
known to fail on (not counted in failed). The report, and the spans of a traced run, are also
written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
SETUP_PROCESSES = 10
TIME_LIMIT_S = 170  # a run must end within 180 s
# BLAS and OpenMP at one thread. With the default of one per core, OpenBLAS's
# second thread spins on the other core for no gain (about 1.3 s of CPU in a
# 5 s wide-economy job on 2 cores), so a job slowed by 13% whenever other
# load took that core
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list, deadline: float) -> dict:
    """Run worker.py with args in a fresh process; its last stdout line as JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
            env={**os.environ, **ONE_THREAD},
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args[0]} did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> tuple:
    """(report, raw worker result) of one run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--workdir", str(workdir)]
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"

    def setups(count: int) -> list:
        return [] if trace else [
            _child(["setup", *common], deadline)["setup_s"] for _ in range(count)
        ]

    # set-ups on both sides of the run, so that their median spans the
    # machine's state over the whole run and not just the seconds before it
    try:
        before = setups(SETUP_PROCESSES // 2)
        raw = _child(["run", *common, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace)), "--spans", str(spans)], deadline)
        after = setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = before + [raw["setup_s"]] + after
    if not trace:
        raw["metrics"]["setup_s"] = statistics.median(samples)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": raw["environment"],
        "setup_s_samples": samples,
        "failed_frac": raw["failed"] / raw["attempted"],
        **raw["details"],
        "jobs": raw["jobs"],
        "errors": raw["errors"],
    }
    if trace:
        report["spans_file"] = str(spans.relative_to(ROOT))
    return report, raw


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "crraeq" / "__init__.py").is_file():
        print(f"error: no package source at {SOURCE / 'crraeq'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    # the build: byte-compile the source once, so no set-up sample pays for it
    if not compileall.compile_dir(str(SOURCE), quiet=1):
        print("error: the package source does not compile", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        report, raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"report": report, "result": result}, indent=1),
                                encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
