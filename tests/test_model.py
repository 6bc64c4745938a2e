import math
import time

import numpy as np
import pytest

import crraeq.model
from crraeq.model import (
    Agent,
    ConfigError,
    EconomyParams,
    MarketState,
    NonpositiveDenominator,
    dividend,
    economy_from_dict,
    log_dividend,
    sufficient_condition_margin,
    validate,
)
from conftest import draw_economy
from rm1_oracle import denominator, lifted_block


def single_agent(rho=0.02, alpha=0.0, gamma=0.0, R=2, sigma=0.1):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=0.0, delta0=1.0, agents=(Agent(rho, alpha, gamma),)
    )


def test_validate_benchmark_denominator():
    tab = validate(single_agent())
    assert tab.parts.tolist() == [[2]]
    np.testing.assert_allclose(tab.d_values[0], 0.01, rtol=1e-12)
    assert tab.min_denominator > 0
    assert tab.footnote_holds


def test_validate_rejects_divergent_economy():
    with pytest.raises(NonpositiveDenominator) as ei:
        validate(single_agent(rho=0.001))
    (beta, d), = ei.value.offenders
    assert beta == (2,)
    np.testing.assert_allclose(d, -0.009, rtol=1e-10)


def test_one_agent_at_a_huge_order_fails_fast():
    # one composition, so only the log-factorial of R itself is taken
    start = time.perf_counter()
    with pytest.raises(NonpositiveDenominator):
        validate(single_agent(R=10**12))
    assert time.perf_counter() - start < 1.0


def test_sufficient_condition_implies_valid():
    # the closed-form margin is sufficient for every D(beta) > 0
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(300):
        j = int(rng.integers(1, 5))
        p = EconomyParams(
            R=int(rng.integers(2, 7)),
            sigma=float(rng.uniform(0.05, 0.4)),
            alpha_star=float(rng.uniform(-0.5, 0.5)),
            delta0=float(rng.uniform(0.5, 2.0)),
            agents=tuple(
                Agent(
                    rho=float(rng.uniform(0.01, 0.8)),
                    alpha=float(rng.uniform(-1, 1)),
                    gamma=float(rng.uniform(-1, 1)),
                )
                for _ in range(j)
            ),
        )
        if sufficient_condition_margin(p) >= 0:
            hits += 1
            tab = validate(p)  # must not raise
            assert tab.min_denominator > 0
            assert tab.footnote_holds
    assert hits > 20  # sweep must actually exercise the condition


def test_lambda_empirical_martingale():
    rng = np.random.default_rng(23)
    alpha, horizon = 0.4, 2.0
    x = rng.standard_normal(100_000) * math.sqrt(horizon)
    vals = np.exp(alpha * x - 0.5 * alpha**2 * horizon)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_dividend_values():
    p = single_agent()
    assert dividend(MarketState(0.0, 0.0), p) == 1.0
    np.testing.assert_allclose(
        dividend(MarketState(1.0, 0.0), p), math.exp(-0.005), rtol=1e-14
    )
    p2 = EconomyParams(R=2, sigma=0.1, alpha_star=0.0, delta0=3.5, agents=p.agents)
    s = MarketState(2.0, 1.3)
    np.testing.assert_allclose(dividend(s, p2), 3.5 * dividend(s, p), rtol=1e-14)


def test_log_dividend_slope_is_sigma():
    p = single_agent(sigma=0.23)
    h = 1e-4
    slope = (log_dividend(1.5, 0.4 + h, p) - log_dividend(1.5, 0.4 - h, p)) / (2 * h)
    np.testing.assert_allclose(slope, 0.23, rtol=1e-8)


def test_validate_deterministic():
    p = EconomyParams(
        R=3,
        sigma=0.2,
        alpha_star=0.1,
        delta0=1.0,
        agents=(Agent(0.3, 0.4, 0.1), Agent(0.35, -0.2, -0.1)),
    )
    a, b = validate(p), validate(p)
    np.testing.assert_array_equal(a.parts, b.parts)
    np.testing.assert_array_equal(a.d_values, b.d_values)
    np.testing.assert_array_equal(a.log_coeffs, b.log_coeffs)
    np.testing.assert_array_equal(a.x_coefs, b.x_coefs)
    np.testing.assert_array_equal(a.t_coefs, b.t_coefs)
    np.testing.assert_array_equal(a.log_offsets, b.log_offsets)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert (a.a0, a.b0) == (b.a0, b.b0)


def test_reduction_rows_are_their_expressions_bitwise():
    # the gamma-free rows the kernel reduces the Z terms against
    rng = np.random.default_rng(131)
    for _ in range(8):
        p, tab = draw_economy(rng, max_agents=5, max_r=6)
        a, beta = tab.x_coefs, tab.parts.T
        b = tab.t_coefs - 0.5 * a**2
        a0, b0 = 0.5 * (a.max() + a.min()), 0.5 * (b.max() + b.min())
        assert (float(tab.a0).hex(), float(tab.b0).hex()) == (float(a0).hex(), float(b0).hex())
        rows = [np.ones_like(a), a - a0, b - b0, *beta, *(beta * (a - a0))]
        assert tab.rows.shape == (3 + 2 * p.n_agents, len(tab.parts))
        assert tab.rows.dtype == np.float64
        for got, want in zip(tab.rows, rows):
            assert np.array_equal(got.view(np.int64), np.asarray(want, float).view(np.int64))
        offsets = tab.log_coeffs - np.log(tab.d_values)
        assert np.array_equal(tab.log_offsets.view(np.int64), offsets.view(np.int64))


def test_table_lift_matches_plus_unit():
    # the oracle lists each agent's level R-1 block on its own and checks
    # the lift onto the level-R rows and Pascal's rule exactly; the table
    # must carry the same denominators on those rows
    p = EconomyParams(
        R=3,
        sigma=0.2,
        alpha_star=0.0,
        delta0=1.0,
        agents=(Agent(0.3, 0.4, 0.0), Agent(0.35, -0.2, 0.0), Agent(0.4, 0.1, 0.0)),
    )
    tab = validate(p)
    rows = {tuple(c): m for m, c in enumerate(tab.parts.tolist())}
    np.testing.assert_allclose(tab.d_values, denominator(p, tab.parts), rtol=1e-12, atol=1e-15)
    for j in range(3):
        lifted, _, d = lifted_block(p, j)
        assert sorted(rows[tuple(c)] for c in lifted.tolist()) == list(
            np.flatnonzero(tab.parts[:, j])
        )
        np.testing.assert_allclose(
            tab.d_values[[rows[tuple(c)] for c in lifted.tolist()]], d, rtol=1e-12, atol=1e-15
        )


def test_validate_enumerates_once(monkeypatch):
    calls = []
    real_enumerate = crraeq.model.enumerate_compositions

    def counting_enumerate(j, k, *args, **kwargs):
        calls.append((j, k))
        return real_enumerate(j, k, *args, **kwargs)

    monkeypatch.setattr(crraeq.model, "enumerate_compositions", counting_enumerate)
    p = EconomyParams(
        R=4, sigma=0.2, alpha_star=0.1, delta0=1.0,
        agents=(Agent(0.5, 0.5, 0.3), Agent(0.55, -0.1, 0.0), Agent(0.6, -0.5, -0.3)),
    )
    validate(p)
    assert calls == [(3, 4)]


def test_structural_validation():
    with pytest.raises(ValueError, match="integer R >= 2"):
        EconomyParams(R=1, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=(Agent(0.1, 0, 0),))
    with pytest.raises(ValueError):
        EconomyParams(R=2, sigma=-0.1, alpha_star=0.0, delta0=1.0, agents=(Agent(0.1, 0, 0),))
    with pytest.raises(ValueError):
        EconomyParams(R=2, sigma=0.1, alpha_star=0.0, delta0=0.0, agents=(Agent(0.1, 0, 0),))
    with pytest.raises(ValueError):
        EconomyParams(R=2, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=())
    with pytest.raises(ValueError):
        Agent(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        MarketState(-1.0, 0.0)
    with pytest.raises(ValueError):
        MarketState(0.0, float("inf"))


def test_config_round_trip():
    obj = {
        "R": 3,
        "sigma": 0.15,
        "alpha_star": 0.05,
        "delta0": 2.0,
        "agents": [
            {"rho": 0.3, "alpha": 0.4, "gamma": 0.1},
            {"rho": 0.25, "alpha": -0.3, "gamma": -0.1},
        ],
    }
    p = economy_from_dict(obj)
    assert p.R == 3 and p.n_agents == 2
    assert p.agents[1].alpha == -0.3


def test_config_rejections():
    good = {
        "R": 2,
        "sigma": 0.1,
        "alpha_star": 0.0,
        "delta0": 1.0,
        "agents": [{"rho": 0.02, "alpha": 0.0, "gamma": 0.0}],
    }
    with pytest.raises(ConfigError, match="integer R >= 2"):
        economy_from_dict({**good, "R": 1})
    with pytest.raises(ConfigError, match="integer R >= 2"):
        economy_from_dict({**good, "R": 2.5})
    assert economy_from_dict({**good, "R": 2.0}).R == 2
    with pytest.raises(ConfigError, match="unknown config keys"):
        economy_from_dict({**good, "extra": 1})
    with pytest.raises(ConfigError, match="missing config keys"):
        economy_from_dict({k: v for k, v in good.items() if k != "sigma"})
    with pytest.raises(ConfigError, match="unknown keys in agents"):
        economy_from_dict(
            {**good, "agents": [{"rho": 0.02, "alpha": 0.0, "gamma": 0.0, "nu": 1.0}]}
        )
    with pytest.raises(ConfigError, match="agents"):
        economy_from_dict({**good, "agents": []})
    with pytest.raises(ConfigError, match="must be a number"):
        economy_from_dict({**good, "sigma": "0.1"})
    with pytest.raises(ConfigError):
        economy_from_dict([good])


def test_with_gammas():
    p = EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.05, 0.3, 0.0), Agent(0.05, -0.3, 0.0)),
    )
    q = p.with_gammas([0.7, -0.7])
    assert q.gamma_vec.tolist() == [0.7, -0.7]
    assert q.agents[0].rho == 0.05 and q.R == 2
    assert p.gamma_vec.tolist() == [0.0, 0.0]
