import os
import subprocess
import sys

import numpy as np
import pytest

import crraeq.calibrate
from conftest import draw_economy
from crraeq.calibrate import (
    CalibrationTarget,
    NoConvergence,
    solve_gamma,
    wealth_shares,
)
from crraeq.equilibrium import stock_price, wealths
from crraeq.model import Agent, EconomyParams, MarketState, validate

S0 = MarketState(0.0, 0.0)


def test_target_validation():
    CalibrationTarget((0.3, 0.7))
    CalibrationTarget((1.0,))
    with pytest.raises(ValueError):
        CalibrationTarget((0.3, 0.6))
    with pytest.raises(ValueError):
        CalibrationTarget((1.2, -0.2))
    with pytest.raises(ValueError):
        CalibrationTarget(())


def test_single_agent_trivial():
    p = EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=(Agent(0.02, 0.0, 0.0),)
    )
    np.testing.assert_array_equal(solve_gamma(p, CalibrationTarget((1.0,))), [0.0])


def test_identical_agents_even_split():
    p = EconomyParams(
        R=3, sigma=0.15, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.3, 0.2, 0.5), Agent(0.3, 0.2, -0.5)),
    )
    gamma = solve_gamma(p, CalibrationTarget((0.5, 0.5)), tol=1e-12)
    np.testing.assert_allclose(gamma, [0.0, 0.0], atol=1e-12)


def test_two_agent_asymmetric_target():
    p = EconomyParams(
        R=2, sigma=0.15, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.3, 0.4, 0.0), Agent(0.35, -0.4, 0.0)),
    )
    tgt = CalibrationTarget((0.3, 0.7))
    gamma = solve_gamma(p, tgt, tol=1e-8)
    assert abs(gamma.sum()) <= 1e-12
    calibrated = p.with_gammas(gamma)
    tab = validate(calibrated)
    shares = wealth_shares(calibrated, tab, S0)
    np.testing.assert_allclose(shares, [0.3, 0.7], atol=1e-8)
    # calibration cannot break aggregation
    w = wealths(S0, calibrated, tab)
    s = stock_price(S0, calibrated, tab)
    assert abs(sum(w) - s) <= 1e-10 * s


def test_share_map_shift_invariance():
    rng = np.random.default_rng(42)
    p, tab = draw_economy(rng, max_agents=3)
    shares_a = wealth_shares(p, tab, S0)
    shifted = p.with_gammas(p.gamma_vec + 2.7)
    shares_b = wealth_shares(shifted, validate(shifted), S0)
    np.testing.assert_allclose(shares_a, shares_b, rtol=1e-12)


def test_randomized_calibration_round_trip():
    rng = np.random.default_rng(77)
    solved = 0
    while solved < 8:
        p, _ = draw_economy(rng, max_agents=4)
        if p.n_agents == 1:
            continue
        raw = rng.uniform(0.5, 2.0, size=p.n_agents)
        tgt = tuple(raw / raw.sum())
        try:
            gamma = solve_gamma(p, CalibrationTarget(tgt), tol=1e-9, max_iter=300)
        except NoConvergence:
            continue
        solved += 1
        assert abs(gamma.sum()) <= 1e-10
        calibrated = p.with_gammas(gamma)
        shares = wealth_shares(calibrated, validate(calibrated), S0)
        np.testing.assert_allclose(shares, tgt, atol=2e-9)


def test_solver_deterministic():
    p = EconomyParams(
        R=4, sigma=0.2, alpha_star=0.1, delta0=1.0,
        agents=(Agent(0.5, 0.5, 0.0), Agent(0.55, -0.1, 0.0), Agent(0.6, -0.5, 0.0)),
    )
    tgt = CalibrationTarget((0.2, 0.5, 0.3))
    a = solve_gamma(p, tgt, tol=1e-9)
    b = solve_gamma(p, tgt, tol=1e-9)
    np.testing.assert_array_equal(a, b)


def test_solve_gamma_validates_once(monkeypatch):
    calls = []
    real_validate = crraeq.calibrate.validate

    def counting_validate(params):
        calls.append(params)
        return real_validate(params)

    monkeypatch.setattr(crraeq.calibrate, "validate", counting_validate)
    p = EconomyParams(
        R=4, sigma=0.2, alpha_star=0.1, delta0=1.0,
        agents=(Agent(0.5, 0.5, 0.3), Agent(0.55, -0.1, 0.0), Agent(0.6, -0.5, -0.3)),
    )
    gamma = solve_gamma(p, CalibrationTarget((0.2, 0.5, 0.3)), tol=1e-9)
    assert len(calls) == 1
    # the table does not involve gamma: the solver's table and a fresh one agree bit for bit
    calibrated = p.with_gammas(gamma)
    np.testing.assert_array_equal(
        wealth_shares(calibrated, real_validate(p), S0),
        wealth_shares(calibrated, real_validate(calibrated), S0),
    )


def test_no_convergence_reports_residual():
    p = EconomyParams(
        R=2, sigma=0.15, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.3, 0.4, 0.0), Agent(0.35, -0.4, 0.0)),
    )
    with pytest.raises(NoConvergence) as ei:
        solve_gamma(p, CalibrationTarget((0.3, 0.7)), tol=1e-16, max_iter=3)
    assert ei.value.max_iter == 3
    assert ei.value.residual > 0


def test_wealth_shares_bytes_do_not_depend_on_blas_threads():
    # R10 J10 (M = 92378): a BLAS product over the compositions gave
    # different bits under one and two OpenBLAS threads here
    code = (
        "from crraeq.calibrate import wealth_shares\n"
        "from crraeq.model import Agent, EconomyParams, MarketState, validate\n"
        "agents = tuple(Agent(0.8 + 0.05 * (k + 1), -0.2 + 0.4 * k / 9, 0.0) for k in range(10))\n"
        "p = EconomyParams(R=10, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=agents)\n"
        "tab = validate(p)\n"
        "for t, x in ((0.0, 0.0), (1.0, 0.5)):\n"
        "    print(wealth_shares(p, tab, MarketState(t, x)).tobytes().hex())\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
