"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with -v for one pass/fail line per criterion, -s for the measured
numbers.  The Monte Carlo criterion uses 10^5 paths and dominates the
runtime (a couple of minutes); everything else finishes in seconds.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import draw_economy, draw_state
from crraeq.cli import _fd_errors
from crraeq.dynamics import rate_bundle, stock_dynamics
from crraeq.equilibrium import consumptions, snapshot
from crraeq.model import (
    Agent,
    EconomyParams,
    MarketState,
    NonpositiveDenominator,
    dividend,
    sufficient_condition_margin,
    validate,
)
from crraeq.simulate import martingale_check, mc_oracles

SWEEP_SEED = 901


def economy(R, sigma, alpha_star, agents):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=alpha_star, delta0=1.0,
        agents=tuple(Agent(*a) for a in agents),
    )


BENCH = economy(2, 0.1, 0.0, [(0.02, 0.0, 0.0)])

# the finite-difference sweep runs on fixed, well-conditioned economies
# spanning one to four agents and R from 2 to 5
FD_ECONOMIES = (
    BENCH,
    economy(2, 0.1, 0.0, [(0.05, 0.3, 0.0), (0.05, -0.3, 0.0)]),
    economy(3, 0.12, 0.05, [(0.4, 0.25, 0.1), (0.45, -0.1, 0.0), (0.5, 0.05, -0.1)]),
    economy(4, 0.15, 0.02, [(0.6, 0.2, 0.2), (0.65, -0.15, 0.0),
                            (0.7, 0.1, -0.1), (0.75, 0.0, -0.1)]),
    economy(5, 0.2, 0.0, [(1.2, 0.25, 0.0), (1.3, -0.2, 0.0)]),
)

# Monte Carlo economies must have square-integrable integrands: every
# composition needs 2 D(beta) > (a(beta) + (1-R) sigma)^2, otherwise the
# plain-sampling z-test has no central limit theorem behind it
MC_PAIR = economy(2, 0.1, 0.0, [(0.2, 0.2, 0.1), (0.2, -0.2, -0.1)])
MC_TRIO = economy(3, 0.08, 0.02, [(0.25, 0.12, 0.1), (0.25, 0.0, 0.0),
                                  (0.25, -0.12, -0.1)])
MC_PATHS = 100_000


def _mc_variance_margin(params, table) -> float:
    # every agent's wealth-sum row is a level-R row, so the level-R minimum covers them
    shift = (1 - params.R) * params.sigma
    return float(np.min(2 * table.d_values - (table.x_coefs + shift) ** 2))


@pytest.fixture(scope="module")
def clearing_sweep():
    """50 validated economies x 20 random states, full snapshots."""
    rng = np.random.default_rng(SWEEP_SEED)
    out = []
    for _ in range(50):
        p, tab = draw_economy(rng, max_agents=4, max_r=6)
        out.append((p, [snapshot(draw_state(rng), p, tab) for _ in range(20)]))
    return out


@pytest.fixture(scope="module")
def fd_sweep():
    """The five fixed economies with 20 states each, t and x kept in the
    region where the time stencil stays inside the domain."""
    rng = np.random.default_rng(417)
    out = []
    for p in FD_ECONOMIES:
        tab = validate(p)
        states = [
            MarketState(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-2.0, 2.0)))
            for _ in range(20)
        ]
        out.append((p, tab, states))
    return out


def test_c01_consumption_clears_the_dividend():
    rng = np.random.default_rng(SWEEP_SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p, tab = draw_economy(rng, max_agents=4, max_r=6)
        for _ in range(20):
            st = draw_state(rng)
            d = dividend(st, p)
            worst = max(worst, abs(math.fsum(consumptions(st, p)) - d) / d)
    elapsed = time.perf_counter() - start
    print(f"c01 consumption clearing: max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_c02_wealth_sums_to_the_stock_price(clearing_sweep):
    worst = 0.0
    for _, snaps in clearing_sweep:
        for snap in snaps:
            worst = max(
                worst,
                abs(math.fsum(snap.wealths) - snap.stock_price) / snap.stock_price,
            )
    print(f"c02 wealth aggregation: max rel err {worst:.2e}")
    assert worst <= 1e-10


def test_c03_portfolios_clear_both_markets(clearing_sweep):
    worst_pi = worst_bond = 0.0
    for _, snaps in clearing_sweep:
        for snap in snaps:
            s = snap.stock_price
            worst_pi = max(worst_pi, abs(math.fsum(snap.portfolios) - 1.0))
            bond = math.fsum(
                w - pi * s for w, pi in zip(snap.wealths, snap.portfolios)
            )
            worst_bond = max(worst_bond, abs(bond) / s)
    print(f"c03 portfolio clearing: stock {worst_pi:.2e}, bond {worst_bond:.2e}")
    assert worst_pi <= 1e-10
    assert worst_bond <= 1e-10


def test_c04_ito_coefficients_match_finite_differences(fd_sweep):
    start = time.perf_counter()
    worst = {}
    for p, tab, states in fd_sweep:
        for st in states:
            for name, err in _fd_errors(st, p, tab).items():
                worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - start
    top = max(worst, key=worst.get)
    print(f"c04 fd suite: worst {top} {worst[top]:.2e} over "
          f"{5 * 20} states, {elapsed:.1f}s")
    assert len(worst) == 9
    for name, err in worst.items():
        assert err <= 1e-5, (name, err)
    assert elapsed < 30.0


def test_c05_risk_premium_identity(fd_sweep):
    worst = 0.0
    for p, tab, states in fd_sweep:
        for st in states:
            snap = snapshot(st, p, tab)
            lhs = snap.stock.drift + snap.dividend / snap.stock_price - snap.rates.riskless_rate
            rhs = snap.rates.kappa * snap.stock.vol
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))
    print(f"c05 risk premium identity: max rel err {worst:.2e}")
    assert worst <= 1e-8


def test_c06_monte_carlo_oracles_reproduce_closed_forms():
    start = time.perf_counter()
    st = MarketState(0.0, 0.0)

    tab = validate(BENCH)
    snap = snapshot(st, BENCH, tab)
    np.testing.assert_allclose(snap.stock_price, 100.0, rtol=1e-10)
    np.testing.assert_allclose(snap.wealths[0], 100.0, rtol=1e-10)
    np.testing.assert_allclose(snap.rates.riskless_rate, -0.01, rtol=1e-10)

    zs = []
    for p, dt in ((BENCH, 0.5), (MC_PAIR, 0.1), (MC_TRIO, 0.1)):
        tab = validate(p)
        assert _mc_variance_margin(p, tab) > 0.0
        horizon = 12.0 / tab.min_denominator
        n_steps = int(np.ceil(horizon / dt))
        wealth_reps, rep = mc_oracles(
            st, p, tab, MC_PATHS, horizon=horizon, n_steps=n_steps, seed=0
        )
        for j, wrep in enumerate(wealth_reps):
            zs.append((f"wealth[{p.n_agents} agents, j={j}]", wrep.z_score))
        zs.append((f"stock[{p.n_agents} agents]", rep.z_score))
        assert rep.truncation_bound < 0.1 * rep.std_error
        rep = martingale_check(p, tab, MC_PATHS, horizon=5.0, n_steps=500, seed=0)
        zs.append((f"martingale[{p.n_agents} agents]", rep.z_score))

    elapsed = time.perf_counter() - start
    worst = max(zs, key=lambda kv: abs(kv[1]))
    print(f"c06 mc oracles: worst |z| {abs(worst[1]):.2f} ({worst[0]}), "
          f"{len(zs)} checks at {MC_PATHS} paths, {elapsed:.0f}s")
    for name, z in zs:
        assert abs(z) <= 3.0, (name, z)
    assert elapsed < 300.0


def test_c07_heterogeneity_moves_stock_volatility():
    p = economy(3, 0.1, 0.0, [(0.15, 0.3, 0.0), (0.15, -0.3, 0.0)])
    tab = validate(p)
    sd = stock_dynamics(MarketState(1.0, 0.5), p, tab)
    gap = abs(sd.vol - p.sigma)
    print(f"c07 volatility: two-agent |sigma_S - sigma| = {gap:.2e}")
    assert gap > 1e-6

    rng = np.random.default_rng(77)
    worst = 0.0
    for single in (BENCH, economy(5, 0.2, 0.0, [(0.5, 0.15, 0.0)])):
        tab = validate(single)
        for _ in range(25):
            st = draw_state(rng)
            sd = stock_dynamics(st, single, tab)
            worst = max(worst, abs(sd.vol - single.sigma))
    assert worst <= 1e-12


def test_c08_riskless_rate_decreases_in_risk_aversion():
    grids = ((0.0, 0.0, 0.1), (0.1, 0.2, 0.15), (-0.05, 0.3, 0.12))
    st = MarketState(0.0, 0.0)
    n_compared = 0
    for alpha_star, alpha, sigma in grids:
        rates = {}
        for r_curv in range(2, 11 + 1):
            p = economy(r_curv, sigma, alpha_star, [(0.9, alpha, 0.0)])
            rates[r_curv] = rate_bundle(st, p, validate(p)).riskless_rate
        for r_curv in range(2, 10 + 1):
            if r_curv + 1 > (alpha_star + alpha) / sigma:
                assert rates[r_curv + 1] < rates[r_curv], (alpha_star, alpha, sigma, r_curv)
                n_compared += 1
    print(f"c08 rate monotonicity: {n_compared} adjacent pairs, all decreasing")
    assert n_compared == 27


def test_c09_sufficient_condition_implies_the_exact_check():
    rng = np.random.default_rng(909)
    n_footnote = 0
    for _ in range(1000):
        j = int(rng.integers(1, 5))
        p = EconomyParams(
            R=int(rng.integers(2, 7)),
            sigma=float(rng.uniform(0.02, 0.5)),
            alpha_star=float(rng.uniform(-0.5, 0.5)),
            delta0=1.0,
            agents=tuple(
                Agent(
                    rho=float(rng.uniform(0.01, 2.0)),
                    alpha=float(rng.uniform(-1.0, 1.0)),
                    gamma=float(rng.uniform(-1.0, 1.0)),
                )
                for _ in range(j)
            ),
        )
        if sufficient_condition_margin(p) < 0.0:
            continue
        n_footnote += 1
        try:
            validate(p)
        except NonpositiveDenominator as err:
            raise AssertionError(f"counterexample: {p} -> {err}")
    print(f"c09 validation gate: {n_footnote}/1000 draws satisfied the "
          "sufficient condition, none violated the exact check")
    assert n_footnote > 50


def test_c10_simulation_output_is_bitwise_reproducible(tmp_path):
    cfg = tmp_path / "econ.json"
    cfg.write_text(json.dumps({
        "R": 2, "sigma": 0.1, "alpha_star": 0.0, "delta0": 1.0,
        "agents": [{"rho": 0.2, "alpha": 0.2, "gamma": 0.1},
                   {"rho": 0.2, "alpha": -0.2, "gamma": -0.1}],
    }))
    blobs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "crraeq.cli", "simulate", str(cfg),
             "--paths", "4", "--horizon", "2", "--steps", "128",
             "--seed", "23", "--workers", workers, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
    print(f"c10 reproducibility: {len(blobs[0])} CSV bytes identical "
          "across reruns and worker counts")
