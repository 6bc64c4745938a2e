"""Workload inputs as plain data: economies, sizes and seed rules.

This module imports only the standard library, so a fresh process can
read the inputs before it starts timing the import of the package.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# the two-agent R=2 economy of acceptance test c10 (M = 3); it is also the
# MC_PAIR economy of test c06
PAIR = {
    "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
    "agents": [
        {"rho": 0.2, "alpha": 0.2, "gamma": 0.1},
        {"rho": 0.2, "alpha": -0.2, "gamma": -0.1},
    ],
}

# MC_TRIO of acceptance test c06 (J = 3, R = 3)
TRIO = {
    "R": 3, "sigma": 0.08, "alpha_star": 0.02, "delta0": 1.0,
    "agents": [
        {"rho": 0.25, "alpha": 0.12, "gamma": 0.1},
        {"rho": 0.25, "alpha": 0.0, "gamma": 0.0},
        {"rho": 0.25, "alpha": -0.12, "gamma": -0.1},
    ],
}


def ladder_economy(r: int, j: int) -> dict:
    """R, J economy with rho_j = 0.8 + 0.05 j and alpha spread over [-0.2, 0.2]."""
    alphas = [0.0] if j == 1 else [-0.2 + 0.4 * k / (j - 1) for k in range(j)]
    return {
        "R": r, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
        "agents": [
            {"rho": 0.8 + 0.05 * (k + 1), "alpha": a, "gamma": 0.0}
            for k, a in enumerate(alphas)
        ],
    }


def unequal_shares(j: int) -> tuple:
    """Target initial wealth shares proportional to 1, 2, ..., J."""
    total = j * (j + 1) // 2
    return tuple(k / total for k in range(1, j + 1))


# Seeds for `verify --suite all --paths 300` on PAIR and TRIO. At 300
# paths the skewed Monte Carlo integrands push |z| above 3 on 7 of the
# seeds in [0, 160) (|z| up to 5.1, mostly PAIR's agent-1 wealth), so a
# timed job drawn from them would report a failure that says nothing about
# the code under test. The timed jobs draw from the other 153 seeds, on
# which both economies pass at the commit that defined this benchmark;
# each run also verifies one of the 7 outside its timed jobs and reports
# the outcome without counting it against correctness, so a change to
# the Monte Carlo error on those seeds still shows. The oracles key paths
# by (seed, path index), so a commit that keeps the paths keeps the
# split valid.
VERIFY_FAILING_SEEDS = (9, 17, 23, 63, 73, 93, 111)
VERIFY_SEED_POOL = tuple(s for s in range(160) if s not in VERIFY_FAILING_SEEDS)

# (R, J) ladder of the traced run; validate alone at (10, 10)
LADDER = ((2, 2), (4, 4), (6, 6), (8, 8))
LADDER_VALIDATE_ONLY = ((10, 10),)

# the seed the recorded reference values belong to
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Per-workload sizes; FULL is what the benchmark runs, its tests use smaller ones."""

    csv_paths: int
    csv_horizon: float
    csv_steps: int
    wide_rj: tuple
    wide_paths: int
    wide_steps: int


# csv-export: 8 paths x 10 241 nodes over [0, 10]; wide-economy: R7 J7 and
# 3 paths x 1025 nodes; verify-suites: one seed (two commands) per job. Jobs
# are kept to a few seconds so that a run holds enough of them for a steady
# median.
FULL = Sizes(csv_paths=8, csv_horizon=10.0, csv_steps=10240, wide_rj=(7, 7),
             wide_paths=3, wide_steps=1024)


def economies(workload: str, sizes: Sizes) -> dict:
    """Name -> economy dict for the workload."""
    if workload == "csv-export":
        return {"pair": PAIR}
    if workload == "wide-economy":
        return {"wide": ladder_economy(*sizes.wide_rj)}
    if workload == "verify-suites":
        return {"pair": PAIR, "trio": TRIO}
    raise ValueError(f"unknown workload {workload!r}")


def write_economies(workload: str, workdir, sizes: Sizes = None) -> dict:
    """Write the workload's economies as config files; name -> path."""
    files = {}
    for name, econ in economies(workload, sizes or FULL).items():
        files[name] = os.path.join(workdir, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(econ, fh)
    return files


def job_seed(seed: int, job: int) -> int:
    """Path seed of job `job` in a run started with `seed`."""
    return seed * 1000 + job


def verify_seed(seed: int, job: int) -> int:
    """Pool seed of job `job` in a run started with `seed`."""
    start = random.Random(seed).randrange(len(VERIFY_SEED_POOL))
    return VERIFY_SEED_POOL[(start + job) % len(VERIFY_SEED_POOL)]


def known_failing_seed(seed: int) -> int:
    """The excluded verify seed that a run started with `seed` reports on."""
    return VERIFY_FAILING_SEEDS[seed % len(VERIFY_FAILING_SEEDS)]
