import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import softmax

import crraeq.calibrate
from conftest import draw_economy, ladder, log_z_terms
from crraeq.calibrate import (
    CalibrationTarget,
    NoConvergence,
    solve_gamma,
    wealth_shares,
)
from crraeq.equilibrium import snapshot
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
    snap = snapshot(S0, calibrated, tab)
    w, s = snap.wealths, snap.stock_price
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
        solve_gamma(p, CalibrationTarget((0.3, 0.7)), tol=1e-12, max_iter=3)
    assert ei.value.max_iter == 3
    assert ei.value.residual > 0


def test_wealth_shares_bytes_do_not_depend_on_blas_threads():
    # R10 J10 (M = 92378): each of the Z pass's fixed-shape products there
    # is large enough for OpenBLAS to split across its threads
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


def shares_one_to_j(j):
    total = j * (j + 1) // 2
    return CalibrationTarget(tuple(k / total for k in range(1, j + 1)))


def test_solver_evaluates_each_gamma_once(monkeypatch):
    seen = []
    real_shares = crraeq.calibrate.wealth_shares

    def recording_shares(params, table, state):
        seen.append(params.gamma_vec.tobytes())
        return real_shares(params, table, state)

    monkeypatch.setattr(crraeq.calibrate, "wealth_shares", recording_shares)
    solve_gamma(ladder(7, 7), shares_one_to_j(7))
    assert seen and len(set(seen)) == len(seen)


def test_tolerance_below_the_share_floor_fails_before_any_evaluation(monkeypatch):
    def no_shares(params, table, state):
        raise AssertionError("shares evaluated")

    monkeypatch.setattr(crraeq.calibrate, "wealth_shares", no_shares)
    p, target = ladder(3, 3), shares_one_to_j(3)
    for tol in (1e-17, 2.0**-51, 0.0, float("nan")):
        with pytest.raises(ValueError, match=r"at least 2\*\*-50"):
            solve_gamma(p, target, tol=tol)
    with pytest.raises(AssertionError, match="shares evaluated"):
        solve_gamma(p, target, tol=crraeq.calibrate.TOL_FLOOR)


def test_exact_share_jacobian_matches_central_differences():
    # the share map's Jacobian is -Cov_Z(beta / R); the oracle is central
    # differences of wealth_shares along each gamma_k
    rng = np.random.default_rng(5)
    h = 1e-6
    checked = 0
    while checked < 4:
        p, tab = draw_economy(rng, max_agents=5)
        if p.n_agents == 1:
            continue
        p = p.with_gammas(rng.uniform(-2.0, 2.0, p.n_agents))
        shares = wealth_shares(p, tab, S0)
        fd = np.empty((p.n_agents, p.n_agents))
        for k in range(p.n_agents):
            bump = np.zeros(p.n_agents)
            bump[k] = h
            up = wealth_shares(p.with_gammas(p.gamma_vec + bump), tab, S0)
            down = wealth_shares(p.with_gammas(p.gamma_vec - bump), tab, S0)
            fd[:, k] = (up - down) / (2 * h)
        weights = softmax(log_z_terms(S0.t, S0.x, p, tab))
        centred = tab.parts / p.R - shares
        exact = -np.einsum("m,mj,mk->jk", weights, centred, centred)
        np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-8)
        # the Newton step solves the linearised equation and sums to zero
        raw = rng.uniform(0.5, 2.0, p.n_agents)
        tgt = raw / raw.sum()
        step = crraeq.calibrate._newton_step(p, tab, S0, shares, tgt)
        scale = max(1.0, np.abs(step).max())
        np.testing.assert_allclose(fd @ step, tgt - shares, rtol=0, atol=1e-8 * scale)
        assert abs(step.sum()) <= 1e-10 * scale
        checked += 1


def test_fallback_economy_converges(monkeypatch):
    # the damped step stalls here, so the Newton fallback has to finish the solve
    newton_steps = []
    real_step = crraeq.calibrate._newton_step

    def counting_step(*args):
        newton_steps.append(args)
        return real_step(*args)

    monkeypatch.setattr(crraeq.calibrate, "_newton_step", counting_step)
    rho_alpha = ((0.4625, 0.9811), (0.5152, 0.2663), (0.4818, 0.5146),
                 (0.1477, -0.09442), (0.5167, -0.9826))
    p = EconomyParams(
        R=7, sigma=0.06914, alpha_star=0.001891, delta0=1.0,
        agents=tuple(Agent(rho, alpha, 0.0) for rho, alpha in rho_alpha),
    )
    tgt = CalibrationTarget((0.03006, 0.01265, 0.1961, 0.001338, 0.759852))
    gamma = solve_gamma(p, tgt, tol=1e-10)
    assert newton_steps
    calibrated = p.with_gammas(gamma)
    shares = wealth_shares(calibrated, validate(calibrated), S0)
    assert np.max(np.abs(shares - tgt.shares)) <= 1e-10


@pytest.mark.parametrize("params, want", [
    (
        EconomyParams(
            R=3, sigma=0.08, alpha_star=0.02, delta0=1.0,
            agents=(Agent(0.25, 0.12, 0.1), Agent(0.25, 0.0, 0.0), Agent(0.25, -0.12, -0.1)),
        ),
        ("0x1.b050a7792abddp+0", "-0x1.19ae048b102e1p-2", "-0x1.69e5265666b25p+0"),
    ),
    (
        ladder(4, 4),
        ("0x1.a7b9cd22f87f4p+1", "0x1.d51136a3f85dcp-2", "-0x1.41a84d26742e4p+0",
         "-0x1.4187cd643d73ep+1"),
    ),
], ids=["trio", "ladder_r4j4"])
def test_gamma_bits_are_pinned(params, want):
    gamma = solve_gamma(params, shares_one_to_j(params.n_agents))
    assert tuple(float(g).hex() for g in gamma) == want
