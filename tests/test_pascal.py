"""The level-R kernel against the paper's level R-1 wealth sums (rm1_oracle)."""

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import draw_economy
from crraeq.equilibrium import agent_log_terms_arr, evaluate_fields, log_L_arr
from crraeq.model import Agent, EconomyParams, validate
from crraeq.multiindex import enumerate_compositions
from rm1_oracle import agent_fields, exact_multinomial

PAIR = EconomyParams(
    R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
    agents=(Agent(0.05, 0.3, 0.0), Agent(0.05, -0.3, 0.0)),
)
TRIO = EconomyParams(
    R=3, sigma=0.12, alpha_star=0.05, delta0=2.0,
    agents=(Agent(0.4, 0.25, 0.1), Agent(0.45, -0.1, 0.0), Agent(0.5, 0.05, -0.1)),
)


def test_kernel_matches_level_rm1_sums_on_random_economies():
    rng = np.random.default_rng(61)
    for _ in range(100):
        p, tab = draw_economy(rng, max_agents=5)
        t, x = rng.uniform(0.0, 10.0, 200), rng.uniform(-5.0, 5.0, 200)
        f = evaluate_fields(t, x, p, tab)
        w, alpha_tilde = agent_fields(p, t, x)
        np.testing.assert_allclose(f["wealths"], w, rtol=1e-13)
        np.testing.assert_allclose(f["alpha_tilde_agents"], alpha_tilde, rtol=1e-13, atol=1e-15)
        # pi^j = (w^j/S)(sigma + alpha_tilde^j - alpha_bar)/sigma^S; near a
        # vanishing sigma^S one ulp of alpha_tilde^j moves pi^j by share/|vol| ulps
        share = w / w.sum(axis=-1, keepdims=True)
        vol = f["vol"][:, None]
        pi = share * (p.sigma + alpha_tilde - f["alpha_bar"][:, None]) / vol
        scale = np.abs(pi) + share / np.abs(vol)
        assert np.all(np.abs(f["portfolios"] - pi) <= 1e-13 * scale)


@pytest.mark.parametrize("params", [PAIR, TRIO], ids=["pair", "trio"])
def test_extreme_states_match_level_rm1_sums(params):
    # agents whose share underflows the level-R sum take the log-space path
    x = np.array([-4000.0, -3000.0, 3000.0, 4000.0])
    f = evaluate_fields(1.0, x, params, validate(params))
    w, _ = agent_fields(params, 1.0, x)
    tiny = np.finfo(float).tiny
    assert np.any(w / f["stock_price"][:, None] < tiny / np.finfo(float).eps)
    normal = w >= tiny
    np.testing.assert_allclose(f["wealths"][normal], w[normal], rtol=1e-13)
    assert np.all(np.isfinite(f["portfolios"]))
    assert np.all(np.isfinite(f["alpha_tilde_agents"]))
    np.testing.assert_allclose(f["portfolios"].sum(axis=-1), 1.0, rtol=1e-12)


def test_clearing_sum_is_the_multinomial_theorem():
    # sum over |beta| = R of C(R, beta) e^{u.beta} == (sum_i e^{u_i})^R
    rng = np.random.default_rng(67)
    for _ in range(40):
        p, _ = draw_economy(rng, max_agents=5)
        parts = enumerate_compositions(p.n_agents, p.R)
        log_c = np.log([float(exact_multinomial(c)) for c in parts.tolist()])
        t, x = rng.uniform(0.0, 10.0, 50), rng.uniform(-5.0, 5.0, 50)
        u = agent_log_terms_arr(t, x, p)
        by_compositions = logsumexp(log_c + u @ parts.T, axis=-1)
        np.testing.assert_allclose(log_L_arr(t, x, p), by_compositions, rtol=1e-13, atol=1e-13)
