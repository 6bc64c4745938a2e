import math

import numpy as np
import pytest
from scipy.optimize import brentq

import crraeq.simulate
from conftest import draw_economy
from crraeq.dynamics import DegenerateStockVolatility, rate_bundle, stock_dynamics
from crraeq.equilibrium import (
    state_price_density,
    log_L_arr,
    log_state_price_density_arr,
    log_stock_price_arr,
    log_Z_agent_arr,
    snapshot,
    stock_price,
    wealth,
)
from crraeq.model import Agent, EconomyParams, MarketState, validate
from crraeq.simulate import (
    OracleReport,
    PathGrid,
    TruncationTooLoose,
    default_horizon,
    evaluate_series,
    fd_engine,
    martingale_check,
    mc_oracles,
    realized_vol_check,
    simulate_paths,
    truncation_tail,
)

BENCH = EconomyParams(
    R=2, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=(Agent(0.02, 0.0, 0.0),)
)
S0 = MarketState(0.0, 0.0)


def two_agent(rho=0.3, a=0.4, R=2, sigma=0.15):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=0.0, delta0=1.0,
        agents=(Agent(rho, a, 0.2), Agent(rho + 0.05, -a, -0.2)),
    )


def test_paths_deterministic_and_prefix_stable():
    grid = PathGrid(0.0, 2.0, 8)
    a = simulate_paths(grid, 0.5, 3, seed=11)
    b = simulate_paths(grid, 0.5, 3, seed=11)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.x_values, pb.x_values)
    # path i does not depend on how many paths are drawn
    c = simulate_paths(grid, 0.5, 7, seed=11)
    for i in range(3):
        np.testing.assert_array_equal(a[i].x_values, c[i].x_values)
    d = simulate_paths(grid, 0.5, 3, seed=12)
    assert not np.array_equal(a[0].x_values, d[0].x_values)


def test_path_increments_brownian_moments():
    grid = PathGrid(1.0, 4.0, 2)
    span = grid.horizon - grid.t0
    ends = np.array([p.x_values[-1] - 0.2 for p in simulate_paths(grid, 0.2, 100_000, 5)])
    se_mean = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean()) <= 3 * se_mean
    var = ends.var(ddof=1)
    se_var = var * math.sqrt(2 / (len(ends) - 1))
    assert abs(var - span) <= 3 * se_var


def test_grid_validation():
    with pytest.raises(ValueError):
        PathGrid(-1.0, 2.0, 4)
    with pytest.raises(ValueError):
        PathGrid(2.0, 2.0, 4)
    with pytest.raises(ValueError):
        PathGrid(0.0, 1.0, 0)
    g = PathGrid(1.0, 2.0, 4)
    np.testing.assert_allclose(g.times(), [1.0, 1.25, 1.5, 1.75, 2.0])


def test_series_single_agent_pd_constant():
    p = BENCH
    tab = validate(p)
    grid = PathGrid(0.0, 5.0, 10)
    path = simulate_paths(grid, 0.0, 1, 3)[0]
    ser = evaluate_series(path, p, tab)
    np.testing.assert_allclose(ser.pd_ratio, 100.0, rtol=1e-10)
    np.testing.assert_allclose(ser.vol, 0.1, atol=1e-14)


def test_series_matches_pointwise_snapshot():
    trio = EconomyParams(
        R=4, sigma=0.12, alpha_star=0.05, delta0=2.0,
        agents=(Agent(0.4, 0.25, 0.1), Agent(0.45, -0.1, 0.0), Agent(0.5, 0.05, -0.1)),
    )
    grid = PathGrid(0.2, 3.2, 12)
    for p in (two_agent(), trio):
        tab = validate(p)
        path = simulate_paths(grid, -0.4, 1, 9)[0]
        ser = evaluate_series(path, p, tab)
        # every node, every field, to the bit
        for k in range(len(ser.t)):
            assert ser.snapshot_at(k) == snapshot(
                MarketState(float(ser.t[k]), float(ser.x[k])), p, tab
            )


def test_series_clearing_and_equivariance():
    p = two_agent(R=3)
    tab = validate(p)
    grid = PathGrid(0.0, 4.0, 32)
    path = simulate_paths(grid, 0.0, 1, 21)[0]
    ser = evaluate_series(path, p, tab)
    np.testing.assert_allclose(ser.consumptions.sum(1), ser.dividend, rtol=1e-12)
    np.testing.assert_allclose(ser.wealths.sum(1), ser.stock_price, rtol=1e-10)
    np.testing.assert_allclose(ser.portfolios.sum(1), 1.0, rtol=1e-10)

    q = EconomyParams(
        R=p.R, sigma=p.sigma, alpha_star=p.alpha_star, delta0=p.delta0,
        agents=(p.agents[1], p.agents[0]),
    )
    ser_q = evaluate_series(path, q, validate(q))
    np.testing.assert_allclose(ser_q.consumptions, ser.consumptions[:, ::-1], rtol=1e-12)
    np.testing.assert_allclose(ser_q.wealths, ser.wealths[:, ::-1], rtol=1e-12)
    np.testing.assert_allclose(ser_q.stock_price, ser.stock_price, rtol=1e-12)


def test_series_degenerate_volatility_carries_grid_index():
    p = EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.05, 0.3, 0.0), Agent(0.05, -0.3, 0.0)),
    )
    tab = validate(p)
    x_star = brentq(
        lambda x: stock_dynamics(MarketState(0.0, x), p, tab).vol, 0.0, 40.0, xtol=1e-14
    )
    grid = PathGrid(0.0, 1.0, 2)
    path = simulate_paths(grid, 0.0, 1, 1)[0]
    doctored = type(path)(grid=grid, x_values=np.array([0.0, x_star, 1.0]), seed=1)
    with pytest.raises(DegenerateStockVolatility) as ei:
        evaluate_series(doctored, p, tab)
    assert ei.value.grid_index == 1


def test_wealth_oracle_benchmark():
    tab = validate(BENCH)
    (rep,), _ = mc_oracles(S0, BENCH, tab, n_paths=8000, horizon=1200.0, n_steps=2400, seed=101)
    assert isinstance(rep, OracleReport)
    np.testing.assert_allclose(rep.closed_form, 100.0, rtol=1e-12)
    assert abs(rep.z_score) <= 3
    assert rep.truncation_bound < 0.01
    np.testing.assert_allclose(
        rep.z_score, (rep.estimate - rep.closed_form) / rep.std_error, rtol=1e-12
    )


def test_wealth_oracles_sum_to_stock_oracle():
    # same seed: per-path consumption integrands sum exactly to the dividend integrand
    p = two_agent()
    tab = validate(p)
    s = MarketState(0.0, 0.2)
    wreps, srep = mc_oracles(s, p, tab, n_paths=400, horizon=80.0, n_steps=400, seed=55)
    np.testing.assert_allclose(sum(r.estimate for r in wreps), srep.estimate, rtol=1e-10)
    assert abs(srep.z_score) <= 3


def test_mc_oracles_match_a_plain_recomputation():
    # 1500 paths of 2001 nodes span two blocks of the single pass
    p = two_agent()
    tab = validate(p)
    s = MarketState(0.5, 0.2)
    grid = PathGrid(s.t, 20.5, 2000)
    n = 1500
    wreps, srep = mc_oracles(
        s, p, tab, n_paths=n, horizon=grid.horizon, n_steps=grid.n_steps, seed=9
    )

    t = grid.times()
    x = np.array([path.x_values for path in simulate_paths(grid, s.x, n, seed=9)])
    delta = p.delta0 * np.exp(p.sigma * x + (p.alpha_star * p.sigma - p.sigma**2 / 2) * t)
    e_u = np.stack(
        [np.exp((a.alpha * x - (a.rho + a.alpha**2 / 2) * t - a.gamma) / p.R) for a in p.agents],
        axis=-1,
    )
    total = e_u.sum(axis=-1)
    # zeta = delta^{-R} (sum_i e^{u_i})^R and c^j = delta e^{u_j} / sum_i e^{u_i}
    zeta0 = delta[0, 0] ** -p.R * total[0, 0] ** p.R
    flows = [delta ** (1 - p.R) * total ** (p.R - 1) * e_u[..., j] for j in range(2)]
    flows.append(delta ** (1 - p.R) * total**p.R)
    closed = [wealth(s, p, tab, j) for j in range(2)] + [stock_price(s, p, tab)]
    tails = [truncation_tail(s, p, tab, grid.horizon, j) for j in (0, 1, None)]

    for rep, flow, cf, tail in zip([*wreps, srep], flows, closed, tails):
        values = np.trapezoid(flow, t, axis=1) / zeta0
        np.testing.assert_allclose(rep.estimate, values.mean(), rtol=1e-13)
        np.testing.assert_allclose(rep.std_error, values.std(ddof=1) / math.sqrt(n), rtol=1e-13)
        assert rep.closed_form == cf
        assert rep.truncation_bound == tail
        assert rep.n_paths == n


def test_stock_oracle_scales_with_delta0():
    p = two_agent()
    q = EconomyParams(
        R=p.R, sigma=p.sigma, alpha_star=p.alpha_star, delta0=3.0, agents=p.agents
    )
    kw = dict(n_paths=200, horizon=80.0, n_steps=200, seed=77)
    _, a = mc_oracles(S0, p, validate(p), **kw)
    _, b = mc_oracles(S0, q, validate(q), **kw)
    np.testing.assert_allclose(b.estimate, 3.0 * a.estimate, rtol=1e-12)


def test_truncation_guard_and_monotonicity(monkeypatch):
    tab = validate(BENCH)

    def no_draws(seed, path_index):
        raise AssertionError("paths drawn before the truncation check")

    monkeypatch.setattr(crraeq.simulate, "path_generator", no_draws)
    with pytest.raises(TruncationTooLoose) as ei:
        mc_oracles(S0, BENCH, tab, n_paths=10, horizon=10.0, n_steps=20)
    assert ei.value.closed_form == wealth(S0, BENCH, tab, 0)
    t1 = truncation_tail(S0, BENCH, tab, 300.0)
    t2 = truncation_tail(S0, BENCH, tab, 600.0)
    assert 0 < t2 < t1
    np.testing.assert_allclose(t1, 100.0 * math.exp(-3.0), rtol=1e-10)


@pytest.mark.parametrize("oracle", [
    lambda p, tab, n: mc_oracles(S0, p, tab, n_paths=n, horizon=5.0, n_steps=20),
    lambda p, tab, n: martingale_check(p, tab, n_paths=n, horizon=1.0, n_steps=20),
], ids=["mc_oracles", "martingale_check"])
@pytest.mark.parametrize("n_paths", [0, -3])
def test_oracles_reject_nonpositive_path_counts(monkeypatch, oracle, n_paths):
    p = two_agent()
    tab = validate(p)

    def no_draws(seed, path_index):
        raise AssertionError("paths drawn before the path count was checked")

    monkeypatch.setattr(crraeq.simulate, "path_generator", no_draws)
    with pytest.raises(ValueError, match="^n_paths must be positive$"):
        oracle(p, tab, n_paths)


def test_default_horizon_follows_min_denominator():
    tab = validate(BENCH)
    np.testing.assert_allclose(default_horizon(tab), 5.0 / tab.min_denominator)
    p = two_agent(rho=0.9)
    tab2 = validate(p)
    assert default_horizon(tab2, 1.5) == 1.5 + max(10.0, 5.0 / tab2.min_denominator)


def test_martingale_check_small_horizon_degenerates():
    p = two_agent()
    tab = validate(p)
    closed = stock_price(S0, p, tab) * state_price_density(S0, p)
    rep = martingale_check(p, tab, n_paths=500, horizon=1e-8, n_steps=1, seed=1)
    np.testing.assert_allclose(rep.estimate, closed, rtol=1e-4)
    np.testing.assert_allclose(rep.closed_form, closed, rtol=1e-12)
    assert rep.truncation_bound == 0.0


def test_martingale_check_three_agents():
    p = EconomyParams(
        R=3, sigma=0.12, alpha_star=0.05, delta0=1.0,
        agents=(Agent(0.4, 0.3, 0.1), Agent(0.45, 0.0, 0.0), Agent(0.5, -0.3, -0.1)),
    )
    tab = validate(p)
    rep = martingale_check(p, tab, n_paths=20_000, horizon=4.0, n_steps=80, seed=6)
    assert abs(rep.z_score) <= 3


def test_realized_vol_single_agent_exact_normal():
    tab = validate(BENCH)
    rep = realized_vol_check(BENCH, tab, horizon=0.5, n_steps=250, n_paths=80, seed=31)
    assert abs(rep.residual_mean) <= 3 * rep.residual_mean_se
    assert abs(rep.residual_var - 1.0) <= 3 * rep.residual_var_se


def test_realized_vol_two_agent_fine_grid():
    p = two_agent()
    tab = validate(p)
    rep = realized_vol_check(
        p, tab, x0=0.3, horizon=0.05, n_steps=500, n_paths=40, seed=13
    )
    assert rep.n_residuals == 20_000
    assert abs(rep.residual_mean) <= 3 * rep.residual_mean_se
    assert abs(rep.residual_var - 1.0) <= 3 * rep.residual_var_se


def test_fd_engine_on_known_fields():
    p = BENCH
    from crraeq.model import log_dividend

    f_t, f_x, f_xx = fd_engine(
        lambda t, x: float(log_dividend(t, x, p)), MarketState(1.0, 0.3)
    )
    np.testing.assert_allclose(f_x, 0.1, rtol=1e-8)
    np.testing.assert_allclose(f_t, -0.005, rtol=1e-6)
    assert abs(f_xx) <= 1e-8

    g = lambda t, x: math.exp(0.3 * x - 0.2 * t)
    st = MarketState(0.5, -0.2)
    val = g(st.t, st.x)
    f_t, f_x, f_xx = fd_engine(g, st, dx=1e-3, dt=1e-3, richardson=True)
    np.testing.assert_allclose(f_t, -0.2 * val, rtol=1e-9)
    np.testing.assert_allclose(f_x, 0.3 * val, rtol=1e-9)
    np.testing.assert_allclose(f_xx, 0.09 * val, rtol=1e-7)


def test_fd_matches_first_order_coefficients():
    rng = np.random.default_rng(515)
    for _ in range(4):
        p, tab = draw_economy(rng, max_agents=3, max_r=4)
        for _ in range(5):
            st = MarketState(float(rng.uniform(0.2, 6.0)), float(rng.uniform(-3, 3)))
            rb = rate_bundle(st, p, tab)
            sd = stock_dynamics(st, p, tab)
            _, lbar_x, _ = fd_engine(
                lambda t, x: float(log_L_arr(t, x, p)), st
            )
            np.testing.assert_allclose(lbar_x, rb.alpha_bar, rtol=1e-5, atol=1e-9)
            _, zeta_x, _ = fd_engine(
                lambda t, x: float(log_state_price_density_arr(t, x, p)), st
            )
            np.testing.assert_allclose(-zeta_x, rb.kappa, rtol=1e-5)
            _, s_x, _ = fd_engine(
                lambda t, x: float(log_stock_price_arr(t, x, p, tab)), st
            )
            np.testing.assert_allclose(s_x, sd.vol, rtol=1e-5, atol=1e-9)
            j = int(rng.integers(p.n_agents))
            _, zj_x, _ = fd_engine(
                lambda t, x: float(log_Z_agent_arr(t, x, p, tab, j)), st
            )
            from crraeq.dynamics import agent_dynamics

            np.testing.assert_allclose(
                zj_x, agent_dynamics(st, p, tab, j), rtol=1e-5, atol=1e-9
            )


def test_fd_matches_second_order_coefficients():
    # relations like r = -(d_t + d_xx/2) zeta / zeta, via the log field:
    # for h = log f, (d_t f)/f = h_t and (d_xx f)/f = h_xx + h_x^2
    rng = np.random.default_rng(525)
    for _ in range(3):
        p, tab = draw_economy(rng, max_agents=3, max_r=4, min_denominator=0.01)
        for _ in range(4):
            st = MarketState(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-2, 2)))
            rb = rate_bundle(st, p, tab)
            sd = stock_dynamics(st, p, tab)

            def second_order(fun):
                f_t, f_x, f_xx = fd_engine(
                    fun, st, dx=2e-2, dt=1e-3, richardson=True
                )
                return f_t + 0.5 * (f_xx + f_x**2), f_x

            gen_zeta, _ = second_order(
                lambda t, x: float(log_state_price_density_arr(t, x, p))
            )
            np.testing.assert_allclose(-gen_zeta, rb.riskless_rate, rtol=1e-5, atol=1e-8)
            gen_l, _ = second_order(lambda t, x: float(log_L_arr(t, x, p)))
            np.testing.assert_allclose(-gen_l, rb.rho_bar, rtol=1e-5, atol=1e-8)
            gen_s, _ = second_order(
                lambda t, x: float(log_stock_price_arr(t, x, p, tab))
            )
            np.testing.assert_allclose(gen_s, sd.drift, rtol=1e-5, atol=1e-8)
