import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import draw_economy, draw_state
from crraeq.dynamics import DegenerateStockVolatility
from crraeq.equilibrium import evaluate_fields, snapshot
from crraeq.model import Agent, EconomyParams, MarketState, dividend, validate

S0 = MarketState(0.0, 0.0)


def single_agent(rho=0.02, alpha=0.0, R=2, sigma=0.1, alpha_star=0.0):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=alpha_star, delta0=1.0,
        agents=(Agent(rho, alpha, 0.0),),
    )


def symmetric_pair(rho=0.05, a=0.3, R=2, sigma=0.1):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=0.0, delta0=1.0,
        agents=(Agent(rho, a, 0.0), Agent(rho, -a, 0.0)),
    )


def test_single_agent_rates_collapse():
    p = single_agent(rho=0.02, alpha=0.0, R=2, sigma=0.1)
    rb = snapshot(S0, p, validate(p)).rates
    np.testing.assert_allclose(rb.alpha_bar, 0.0, atol=1e-15)
    np.testing.assert_allclose(rb.rho_bar, 0.02, rtol=1e-12)
    np.testing.assert_allclose(rb.riskless_rate, -0.01, rtol=1e-10)
    np.testing.assert_allclose(rb.kappa, 0.2, rtol=1e-12)


def test_single_agent_rates_general_state():
    p = single_agent(rho=0.3, alpha=0.4, R=3, sigma=0.2, alpha_star=0.1)
    tab = validate(p)
    s = MarketState(4.0, -1.2)
    rb = snapshot(s, p, tab).rates
    np.testing.assert_allclose(rb.alpha_bar, 0.4, rtol=1e-13)
    np.testing.assert_allclose(rb.rho_bar, 0.3, rtol=1e-13)
    expected_r = 0.3 + 3 * 0.2 * (0.1 + 0.4) - 0.2**2 * 3 * 4 / 2
    np.testing.assert_allclose(rb.riskless_rate, expected_r, rtol=1e-12)


def test_rate_identities_hold_exactly():
    rng = np.random.default_rng(606)
    for _ in range(30):
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        rb = snapshot(s, p, tab).rates
        assert abs(rb.kappa - (p.R * p.sigma - rb.alpha_bar)) <= 1e-14
        expected = (
            rb.rho_bar
            + p.R * p.sigma * (p.alpha_star + rb.alpha_bar)
            - p.sigma**2 * p.R * (p.R + 1) / 2
        )
        assert abs(rb.riskless_rate - expected) <= 1e-14


def test_symmetric_pair_alpha_bar_zero():
    p = symmetric_pair()
    rb = snapshot(S0, p, validate(p)).rates
    np.testing.assert_allclose(rb.alpha_bar, 0.0, atol=1e-15)
    np.testing.assert_allclose(rb.kappa, 2 * 0.1, rtol=1e-13)


def test_single_agent_stock_vol_equals_dividend_vol():
    for r in range(2, 7):
        p = single_agent(rho=0.5, alpha=0.3, R=r, sigma=0.15)
        tab = validate(p)
        for s in [S0, MarketState(3.0, 1.0)]:
            snap = snapshot(s, p, tab)
            sd = snap.stock
            np.testing.assert_allclose(sd.alpha_tilde, 0.3, rtol=1e-13)
            assert abs(sd.vol - 0.15) <= 1e-12
            rb = snap.rates
            np.testing.assert_allclose(sd.rho_tilde, rb.rho_bar, rtol=1e-12)


def test_disagreement_moves_stock_vol():
    p = EconomyParams(
        R=3, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.15, 0.3, 0.0), Agent(0.15, -0.3, 0.0)),
    )
    tab = validate(p)
    sd = snapshot(MarketState(1.0, 0.5), p, tab).stock
    assert abs(sd.vol - p.sigma) > 1e-6


def test_vol_identity():
    rng = np.random.default_rng(707)
    for _ in range(20):
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        snap = snapshot(s, p, tab)
        rb, sd = snap.rates, snap.stock
        assert abs(sd.vol - (p.sigma + sd.alpha_tilde - rb.alpha_bar)) <= 1e-14


def test_agent_dynamics_collapses():
    p = single_agent(rho=0.4, alpha=0.25, R=4, sigma=0.2)
    tab = validate(p)
    np.testing.assert_allclose(
        snapshot(MarketState(2.0, 0.3), p, tab).alpha_tilde_agents[0], 0.25, rtol=1e-13
    )
    q = EconomyParams(
        R=3, sigma=0.15, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.3, 0.2, 0.1), Agent(0.3, 0.2, 0.1)),
    )
    qtab = validate(q)
    s = MarketState(1.0, -0.4)
    at = snapshot(s, q, qtab).alpha_tilde_agents
    np.testing.assert_allclose(at[0], at[1], rtol=1e-13)


def test_portfolio_single_agent_unity():
    p = single_agent(rho=0.2, alpha=0.1, R=3, sigma=0.2)
    tab = validate(p)
    np.testing.assert_allclose(
        snapshot(MarketState(2.0, 1.0), p, tab).portfolios[0], 1.0, rtol=1e-12
    )


def test_portfolio_identical_agents_split_evenly():
    p = EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=tuple(Agent(0.1, 0.2, 0.3) for _ in range(3)),
    )
    tab = validate(p)
    s = MarketState(1.0, 0.5)
    pis = snapshot(s, p, tab).portfolios
    for j in range(3):
        np.testing.assert_allclose(pis[j], 1 / 3, rtol=1e-12)


def test_portfolio_clearing_sweep():
    rng = np.random.default_rng(808)
    done = 0
    while done < 30:
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        try:
            snap = snapshot(s, p, tab)
        except DegenerateStockVolatility:
            continue
        pis = snap.portfolios
        done += 1
        assert abs(sum(pis) - 1.0) <= 1e-10
        w = snap.wealths
        sp = snap.stock_price
        bond_total = sum(wj - pij * sp for wj, pij in zip(w, pis))
        assert abs(bond_total) <= 1e-10 * sp


def test_degenerate_volatility_at_real_state():
    # vol crosses zero between the origin and the optimist-dominated region
    p = symmetric_pair(rho=0.05, a=0.3)
    tab = validate(p)

    # the kernel, not snapshot: snapshot rejects the state where vol vanishes
    def vol_at(x):
        return float(evaluate_fields(0.0, x, p, tab)["vol"])

    assert vol_at(0.0) < 0 < vol_at(40.0)
    x_star = brentq(vol_at, 0.0, 40.0, xtol=1e-14)
    assert abs(vol_at(x_star)) < 1e-12
    with pytest.raises(DegenerateStockVolatility):
        snapshot(MarketState(0.0, x_star), p, tab)


def test_risk_premium_identity():
    rng = np.random.default_rng(909)
    for _ in range(25):
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        snap = snapshot(s, p, tab)
        rb, sd, sp = snap.rates, snap.stock, snap.stock_price
        lhs = sd.drift + dividend(s, p) / sp - rb.riskless_rate
        rhs = rb.kappa * sd.vol
        scale = max(abs(lhs), abs(rhs), 1e-3)
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_single_agent_rate_decreasing_in_curvature():
    # r(R+1) - r(R) = sigma(alpha_star + alpha) - sigma^2 (R+1) < 0
    # whenever R + 1 > (alpha_star + alpha)/sigma
    for alpha_star, alpha, sigma in [(0.0, 0.0, 0.1), (0.1, 0.2, 0.15), (-0.05, 0.3, 0.12)]:
        rates = {}
        for r in range(2, 12):
            p = single_agent(rho=0.9, alpha=alpha, R=r, sigma=sigma, alpha_star=alpha_star)
            rates[r] = snapshot(S0, p, validate(p)).rates.riskless_rate
        for r in range(2, 11):
            if r + 1 > (alpha_star + alpha) / sigma:
                assert rates[r + 1] < rates[r]
            expected_step = sigma * (alpha_star + alpha) - sigma**2 * (r + 1)
            np.testing.assert_allclose(rates[r + 1] - rates[r], expected_step, atol=1e-12)
