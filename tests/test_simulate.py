import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp

import crraeq.equilibrium
import crraeq.simulate
from conftest import draw_economy, log_z_terms, same_bits
from crraeq.dynamics import DegenerateStockVolatility
from crraeq.equilibrium import evaluate_fields, snapshot, state_price_density
from crraeq.model import Agent, EconomyParams, MarketState, dividend, validate
from crraeq.simulate import (
    MAX_PATHS,
    OracleReport,
    PathGrid,
    TruncationTooLoose,
    default_horizon,
    evaluate_series,
    fd_engine,
    martingale_check,
    mc_oracles,
    simulate_paths,
    truncation_tails,
)
from crraeq.verify import run_suites

BENCH = EconomyParams(
    R=2, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=(Agent(0.02, 0.0, 0.0),)
)
S0 = MarketState(0.0, 0.0)
# MC_PAIR and MC_TRIO of acceptance test c06
PAIR = EconomyParams(
    R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
    agents=(Agent(0.2, 0.2, 0.1), Agent(0.2, -0.2, -0.1)),
)
TRIO = EconomyParams(
    R=3, sigma=0.08, alpha_star=0.02, delta0=1.0,
    agents=(Agent(0.25, 0.12, 0.1), Agent(0.25, 0.0, 0.0), Agent(0.25, -0.12, -0.1)),
)


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


def test_every_64_bit_seed_keys_its_own_stream():
    # seeds of 2**63 and more are keyed exactly, not through a rounded float64
    grid = PathGrid(0.0, 1.0, 8)
    top = 2**64 - 1
    seeds = (0, 41, 2**63 - 1, 2**63, 2**63 + 1, top - 1, top)
    paths = [simulate_paths(grid, 0.0, 2, seed) for seed in seeds]
    rows = {p.x_values.tobytes() for pair in paths for p in pair}
    assert len(rows) == 2 * len(seeds)
    small = crraeq.simulate.path_generator(41, 1).standard_normal(4)
    plain = np.random.Generator(np.random.Philox(key=[41, 1])).standard_normal(4)
    assert small.tobytes() == plain.tobytes()
    # a generator rekeyed mid-stream draws what a fresh one draws, and a path
    # is the running sum of its scaled draws
    gen = crraeq.simulate.path_generator(3, 3)
    gen.standard_normal(3)
    for seed in seeds:
        crraeq.simulate._rekey(gen, seed, 5)
        fresh = crraeq.simulate.path_generator(seed, 5)
        assert gen.standard_normal(9).tobytes() == fresh.standard_normal(9).tobytes()
        steps = crraeq.simulate.path_generator(seed, 1).standard_normal(grid.n_steps)
        want = np.concatenate([[0.0], np.cumsum(steps * math.sqrt(grid.dt)) + 0.0])
        assert paths[seeds.index(seed)][1].x_values.tobytes() == want.tobytes()


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
    # at most 10M nodes, refused before any allocation
    for n_steps in (10**7, 10**12, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_steps must be below"):
            PathGrid(0.0, 1.0, n_steps)
    assert PathGrid(0.0, 1.0, 10**7 - 1).n_steps == 10**7 - 1
    g = PathGrid(1.0, 2.0, 4)
    np.testing.assert_allclose(g.times(), [1.0, 1.25, 1.5, 1.75, 2.0])


def test_grid_nodes_must_be_distinct_doubles():
    # dt = 1/1024 is the spacing of doubles at 2^42 and half of it at 2^43,
    # where t0 + k dt lands on one double for two k
    grid = PathGrid(2.0**42, 2.0**42 + 10.0, 10240)
    assert grid.dt == 2.0**-10
    assert np.unique(grid.times()).size == 10241
    t0 = 2.0**43
    assert np.unique(t0 + 2.0**-10 * np.arange(10241)).size == 5121
    with pytest.raises(ValueError, match="must be") as err:
        PathGrid(t0, t0 + 10.0, 10240)
    assert f"t0 = {t0!r}" in str(err.value) and f"dt = {2.0**-10!r}" in str(err.value)


def test_huge_horizon_without_n_steps_is_a_value_error():
    tab = validate(BENCH)
    # at the default 1024 steps per unit time, 1e306 overflows the step
    # count and 1e12 is finite but asks for petabytes
    for horizon in (1e306, 1e12):
        with pytest.raises(ValueError, match="horizon must be at most"):
            mc_oracles(S0, BENCH, tab, n_paths=2, horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be at most"):
            martingale_check(BENCH, tab, n_paths=2, horizon=horizon)


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
            # snapshot_at does not carry the log levels: the one-state kernel call
            one = evaluate_fields(float(ser.t[k]), float(ser.x[k]), p, tab)["log_levels"]
            np.testing.assert_array_equal(ser.log_levels[k], one, strict=True)


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
    # the kernel, not snapshot: snapshot rejects the state where vol vanishes
    x_star = brentq(
        lambda x: float(evaluate_fields(0.0, x, p, tab)["vol"]), 0.0, 40.0, xtol=1e-14
    )
    grid = PathGrid(0.0, 1.0, 2)
    path = simulate_paths(grid, 0.0, 1, 1)[0]
    doctored = type(path)(grid=grid, x_values=np.array([0.0, x_star, 1.0]))
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


def _assert_mc_matches_a_plain_recomputation(p, s, grid, n, seed):
    """mc_oracles' reports against integrands in plain exponentials, summed by np.trapezoid."""
    tab = validate(p)
    wreps, srep = mc_oracles(
        s, p, tab, n_paths=n, horizon=grid.horizon, n_steps=grid.n_steps, seed=seed
    )

    t = grid.times()
    x = np.array([path.x_values for path in simulate_paths(grid, s.x, n, seed=seed)])
    delta = p.delta0 * np.exp(p.sigma * x + (p.alpha_star * p.sigma - p.sigma**2 / 2) * t)
    e_u = np.stack(
        [np.exp((a.alpha * x - (a.rho + a.alpha**2 / 2) * t - a.gamma) / p.R) for a in p.agents],
        axis=-1,
    )
    total = e_u.sum(axis=-1)
    # zeta = delta^{-R} (sum_i e^{u_i})^R and c^j = delta e^{u_j} / sum_i e^{u_i}
    zeta0 = delta[0, 0] ** -p.R * total[0, 0] ** p.R
    flows = [delta ** (1 - p.R) * total ** (p.R - 1) * e_u[..., j] for j in range(p.n_agents)]
    flows.append(delta ** (1 - p.R) * total**p.R)
    snap = snapshot(s, p, tab)
    closed = [*snap.wealths, snap.stock_price]
    tails = truncation_tails(s, p, tab, grid.horizon)

    for rep, flow, cf, tail in zip([*wreps, srep], flows, closed, tails, strict=True):
        values = np.trapezoid(flow, t, axis=1) / zeta0
        np.testing.assert_allclose(rep.estimate, values.mean(), rtol=1e-13)
        np.testing.assert_allclose(rep.std_error, values.std(ddof=1) / math.sqrt(n), rtol=1e-13)
        assert rep.closed_form == cf
        assert rep.truncation_bound == tail
        assert rep.n_paths == n
    return wreps


def test_mc_oracles_match_a_plain_recomputation():
    grid = PathGrid(0.5, 20.5, 2000)
    n = 1500
    # the paths span many blocks of the single pass
    assert n * (grid.n_steps + 1) > 10 * crraeq.simulate._BLOCK_ELEMENTS
    _assert_mc_matches_a_plain_recomputation(two_agent(), MarketState(0.5, 0.2), grid, n, seed=9)


def test_tied_agents_get_bit_equal_wealth_reports():
    # two identical agents: their log terms tie at every node of every path
    twin = Agent(0.3, 0.4, 0.2)
    p = EconomyParams(R=2, sigma=0.15, alpha_star=0.0, delta0=1.0, agents=(twin, twin))
    grid = PathGrid(0.5, 20.5, 2000)
    n = 300
    assert n * (grid.n_steps + 1) > 4 * crraeq.simulate._BLOCK_ELEMENTS
    first, second = _assert_mc_matches_a_plain_recomputation(
        p, MarketState(0.5, 0.2), grid, n, seed=9
    )
    assert first.estimate.hex() == second.estimate.hex()
    assert first.std_error.hex() == second.std_error.hex()
    assert first == second


def _block_lse(u):
    top, out, scratch = (np.empty(u.shape[1:]) for _ in range(3))
    got = crraeq.equilibrium._lse_slabs(u, top, out, scratch)
    assert got is out
    np.testing.assert_array_equal(top, u.max(axis=0))
    return got


@pytest.mark.parametrize("n_agents", [1, 2, 3, 5])
def test_lse_slabs_match_scipy(n_agents):
    # the path blocks' plain max-shifted sum agrees with scipy to rounding,
    # on tied slabs and where a slab is -inf or +inf
    rng = np.random.default_rng(300 + n_agents)
    for scale in (1e-3, 1.0, 50.0):
        u = rng.normal(size=(n_agents, 6, 40)) * scale
        tied = u.copy()
        tied[-1] = tied[0]
        lows, highs = u.copy(), u.copy()
        lows[0] = -np.inf
        highs[-1] = np.inf
        cases = [u, tied, np.repeat(u[:1], n_agents, axis=0), lows, highs]
        for v in cases:
            want = logsumexp(v, axis=0)
            np.testing.assert_allclose(_block_lse(v), want, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(_block_lse(np.full((n_agents, 2, 3), -np.inf)), -np.inf)
    u = np.zeros((n_agents, 2, 3))
    u[0, 1, 2] = np.nan
    want = np.full((2, 3), np.log(n_agents))
    want[1, 2] = np.nan
    np.testing.assert_array_equal(_block_lse(u), want)


@pytest.mark.parametrize("p", [PAIR, TRIO], ids=["pair", "trio"])
def test_path_blocks_form_the_kernels_clearing_logs_to_the_bit(monkeypatch, p):
    # every path's integrals and end value equal the quadrature of exponents
    # formed from the kernel's u, lse u and log delta at the same (t, x):
    # the oracles and the closed forms share one clearing side
    grid = PathGrid(0.5, 6.5, 300)
    n_paths = 11
    # blocks of 4, 4 and 3 paths
    monkeypatch.setattr(crraeq.simulate, "_BLOCK_ELEMENTS", 4 * (grid.n_steps + 1))
    integrals, x_end = crraeq.simulate._path_integrals(grid, 0.3, n_paths, 5, p, agents=True)

    t = grid.times()
    x = np.array([path.x_values for path in simulate_paths(grid, 0.3, n_paths, 5)])
    assert same_bits(x_end, x[:, -1])
    u, lse_u, ld = crraeq.equilibrium._clearing_logs(t, x, p)
    r = p.R
    base = (r - 1) * lse_u + (1 - r) * ld
    exponents = [base + u[..., j] for j in range(p.n_agents)] + [r * lse_u + (1 - r) * ld]
    assert integrals.shape == (p.n_agents + 1, n_paths)
    for row, exponent in zip(integrals, exponents):
        want = np.empty(n_paths)
        crraeq.simulate._trapezoid(exponent, grid.dt, want)
        assert same_bits(row, want)


@pytest.mark.parametrize("n_nodes", [2, 3, 8, 9, 127, 129, 5121, 8192, 8193, 20001])
def test_trapezoid_gives_a_row_the_same_bits_alone_and_in_any_block(n_nodes):
    # each path's integral is its own row sum, so no other row of its block
    # moves its bits, at any length (numpy's buffer holds 8192 elements)
    exponents = np.random.default_rng(n_nodes).normal(size=(37, n_nodes))
    dt = 0.01
    alone = np.empty(37)
    for p in range(37):
        crraeq.simulate._trapezoid(exponents[p : p + 1].copy(), dt, alone[p : p + 1])
    np.testing.assert_allclose(alone, np.trapezoid(np.exp(exponents), dx=dt), rtol=1e-13)
    for n_rows in (1, 2, 5, 37):
        got = np.empty(37)
        for lo in range(0, 37, n_rows):
            block = exponents[lo : lo + n_rows].copy()
            crraeq.simulate._trapezoid(block, dt, got[lo : lo + n_rows])
        assert same_bits(got, alone), n_rows


@pytest.mark.parametrize("workers", [1, 3])
def test_the_stock_integral_does_not_depend_on_the_agent_integrals(monkeypatch, workers):
    # the martingale check's stock row is mc_oracles' stock row, to the bit
    monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", workers)
    grid = PathGrid(0.0, 3.0, 600)
    n_paths = 300
    assert n_paths * (grid.n_steps + 1) > 2 * crraeq.simulate._BLOCK_ELEMENTS  # three blocks
    stock, x_end = crraeq.simulate._path_integrals(grid, -0.4, n_paths, 9, TRIO, agents=False)
    every, every_x_end = crraeq.simulate._path_integrals(grid, -0.4, n_paths, 9, TRIO, agents=True)
    assert stock.shape == (1, n_paths) and every.shape == (TRIO.n_agents + 1, n_paths)
    assert same_bits(stock[0], every[-1])
    assert same_bits(x_end, every_x_end)


def test_martingale_check_matches_a_plain_recomputation():
    p = two_agent()
    tab = validate(p)
    grid = PathGrid(0.0, 4.0, 2000)
    n = 300
    # the paths span several blocks of the single pass
    assert n * (grid.n_steps + 1) > 4 * crraeq.simulate._BLOCK_ELEMENTS
    rep = martingale_check(p, tab, n_paths=n, horizon=grid.horizon, n_steps=grid.n_steps, seed=3)

    t = grid.times()
    x = np.array([path.x_values for path in simulate_paths(grid, 0.0, n, seed=3)])
    delta = p.delta0 * np.exp(p.sigma * x + (p.alpha_star * p.sigma - p.sigma**2 / 2) * t)
    total = sum(
        np.exp((a.alpha * x - (a.rho + a.alpha**2 / 2) * t - a.gamma) / p.R) for a in p.agents
    )
    # zeta delta = delta^{1-R} (sum_i e^{u_i})^R, and delta_T^{1-R} Z_T = zeta_T S_T
    flow = np.trapezoid(delta ** (1 - p.R) * total**p.R, t, axis=1)
    ends = [MarketState(t[-1], x_end) for x_end in x[:, -1]]
    payoff = np.array(
        [snapshot(e, p, tab).stock_price * state_price_density(e, p) for e in ends]
    )
    values = flow + payoff

    np.testing.assert_allclose(rep.estimate, values.mean(), rtol=1e-13)
    np.testing.assert_allclose(rep.std_error, values.std(ddof=1) / math.sqrt(n), rtol=1e-13)
    np.testing.assert_allclose(
        rep.closed_form,
        snapshot(S0, p, tab).stock_price * state_price_density(S0, p),
        rtol=1e-13,
    )
    assert rep.truncation_bound == 0.0
    assert rep.n_paths == n


@pytest.mark.parametrize("p", [PAIR, TRIO], ids=["pair", "trio"])
def test_oracle_bits_do_not_depend_on_blocking(monkeypatch, p):
    tab = validate(p)
    n_paths, n_steps = 30, 200
    mc = dict(n_paths=n_paths, horizon=default_horizon(tab), n_steps=n_steps, seed=4)
    mart = dict(n_paths=n_paths, horizon=2.0, n_steps=n_steps, seed=4)
    want = mc_oracles(S0, p, tab, **mc), martingale_check(p, tab, **mart)
    assert crraeq.simulate._BLOCK_ELEMENTS >= n_paths * (n_steps + 1)  # one block
    # the block groups run on up to `workers` threads, which switch often here
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", workers)
            for per_block in (1, 7):
                monkeypatch.setattr(crraeq.simulate, "_BLOCK_ELEMENTS", per_block * (n_steps + 1))
                assert (mc_oracles(S0, p, tab, **mc), martingale_check(p, tab, **mart)) == want
    finally:
        sys.setswitchinterval(interval)


def test_long_path_oracle_bits_do_not_depend_on_the_worker_count(monkeypatch):
    # paths of 9001 nodes in blocks of 7 and 1: the reports are the same
    # bits whether one group runs every block or two or three groups share them
    tab = validate(PAIR)
    n_paths, n_steps = 8, 9000
    assert crraeq.simulate._BLOCK_ELEMENTS // (n_steps + 1) == n_paths - 1  # blocks of 7 and 1
    mc = dict(n_paths=n_paths, horizon=default_horizon(tab), n_steps=n_steps, seed=4)
    mart = dict(n_paths=n_paths, horizon=2.0, n_steps=n_steps, seed=4)
    monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", 1)
    want = mc_oracles(S0, PAIR, tab, **mc), martingale_check(PAIR, tab, **mart)
    for workers in (2, 3):
        monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", workers)
        assert (mc_oracles(S0, PAIR, tab, **mc), martingale_check(PAIR, tab, **mart)) == want


def test_long_path_bits_do_not_depend_on_the_path_count_or_blocking(monkeypatch):
    # the trapezoid reduces each path's row of 10001 nodes on its own, so a
    # path's sum does not depend on the other paths in its block, on the
    # path count or on the block size
    tab = validate(PAIR)
    grid = dict(horizon=20.0, n_steps=10000, seed=1)
    reported = []
    real_report = crraeq.simulate._report

    def report(values, *args):
        reported.append(values.copy())
        return real_report(values, *args)

    monkeypatch.setattr(crraeq.simulate, "_report", report)
    # path 6 alone in the last block of 7 paths, and in company in a block of 12
    assert crraeq.simulate._BLOCK_ELEMENTS // (grid["n_steps"] + 1) == 6
    stock = []
    for n_paths in (7, 12):
        mc_oracles(S0, PAIR, tab, n_paths, **grid)
        stock.append(reported[-1][6])
    assert stock[0].hex() == stock[1].hex()
    # up to six paths to a block, then every path alone in its block
    want = mc_oracles(S0, PAIR, tab, 4, **grid), martingale_check(PAIR, tab, 8, **grid)
    monkeypatch.setattr(crraeq.simulate, "_BLOCK_ELEMENTS", grid["n_steps"] + 1)
    assert (mc_oracles(S0, PAIR, tab, 4, **grid), martingale_check(PAIR, tab, 8, **grid)) == want


@pytest.mark.parametrize("oracle", [
    lambda n: martingale_check(PAIR, validate(PAIR), n, horizon=5.0, n_steps=5120, seed=2),
    lambda n: mc_oracles(S0, PAIR, validate(PAIR), n, horizon=25.0, n_steps=5120, seed=2),
], ids=["martingale_check", "mc_oracles"])
def test_oracle_memory_does_not_grow_with_the_path_count(monkeypatch, oracle):
    # the path blocks reuse one group's buffers, so ten times the paths of
    # 5121 nodes may add only the per-path results (a few floats a path);
    # one group, so that no second group's buffers come and go with the timing
    monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", 1)
    oracle(2)  # first-call allocations, of numpy and of the validated tables
    peaks = {}
    for n_paths in (300, 3000):
        tracemalloc.start()
        try:
            oracle(n_paths)
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one block's buffers alone are more than 1 MiB
    assert peaks[300] > 2**20
    assert peaks[3000] < 1.1 * peaks[300]


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
    assert ei.value.closed_form == snapshot(S0, BENCH, tab).wealths[0]
    *_, t1 = truncation_tails(S0, BENCH, tab, 300.0)
    *_, t2 = truncation_tails(S0, BENCH, tab, 600.0)
    assert 0 < t2 < t1
    np.testing.assert_allclose(t1, 100.0 * math.exp(-3.0), rtol=1e-10)


def test_truncation_tails_are_the_weighted_tail_sums():
    # agent j's tail weights each Z term's e^{-D (T-t)} tail by beta_j/R,
    # the stock's takes them all; summed in plain exponentials here
    rng = np.random.default_rng(545)
    for p, tab in [draw_economy(rng, max_agents=4, max_r=5) for _ in range(6)]:
        s = MarketState(float(rng.uniform(0.0, 3.0)), float(rng.uniform(-1.0, 1.0)))
        horizon = s.t + float(rng.uniform(1.0, 20.0))
        tails = truncation_tails(s, p, tab, horizon)
        assert len(tails) == p.n_agents + 1
        assert all(type(v) is float for v in tails)
        decayed = np.exp(log_z_terms(s.t, s.x, p, tab) - tab.d_values * (horizon - s.t))
        prefactor = dividend(s, p) ** (1 - p.R) / state_price_density(s, p)
        want = [*(decayed @ tab.parts / p.R), decayed.sum()]
        np.testing.assert_allclose(tails, prefactor * np.array(want), rtol=1e-12)
        np.testing.assert_allclose(sum(tails[:-1]), tails[-1], rtol=1e-13)


@pytest.mark.parametrize("oracle", [
    lambda p, tab, n: mc_oracles(S0, p, tab, n_paths=n, horizon=5.0, n_steps=20),
    lambda p, tab, n: martingale_check(p, tab, n_paths=n, horizon=1.0, n_steps=20),
    lambda p, tab, n: simulate_paths(PathGrid(0.0, 1.0, 20), 0.0, n, seed=0),
], ids=["mc_oracles", "martingale_check", "simulate_paths"])
@pytest.mark.parametrize("n_paths", [0, -3, MAX_PATHS + 1])
def test_oracles_reject_nonpositive_path_counts(monkeypatch, oracle, n_paths):
    # and counts over the cap, before any path is drawn or per-path array allocated
    p = two_agent()
    tab = validate(p)

    def no_draws(seed, path_index):
        raise AssertionError("paths drawn before the path count was checked")

    def no_arrays(*args, **kwargs):
        raise AssertionError("per-path arrays allocated before the path count was checked")

    monkeypatch.setattr(crraeq.simulate, "path_generator", no_draws)
    monkeypatch.setattr(crraeq.simulate.np, "empty", no_arrays)
    message = "positive$" if n_paths < 1 else f"at most {MAX_PATHS}, got {n_paths}$"
    with pytest.raises(ValueError, match="^n_paths must be " + message):
        oracle(p, tab, n_paths)


@pytest.mark.parametrize("call", [
    lambda p, tab, seed: mc_oracles(S0, p, tab, 10, horizon=5.0, n_steps=20, seed=seed),
    lambda p, tab, seed: martingale_check(p, tab, 10, horizon=1.0, n_steps=20, seed=seed),
    lambda p, tab, seed: simulate_paths(PathGrid(0.0, 1.0, 20), 0.0, 10, seed),
    lambda p, tab, seed: run_suites(p, tab, ("clearing", "mc"), seed, 10),
], ids=["mc_oracles", "martingale_check", "simulate_paths", "run_suites"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_library_calls_reject_seeds_outside_64_bits(monkeypatch, call, seed):
    # the path streams are keyed by an unsigned 64-bit seed; numpy's own
    # error for 2**64 would be an OverflowError about a C long
    p = two_agent()
    tab = validate(p)

    def no_draws(seed, path_index):
        raise AssertionError("paths drawn before the seed was checked")

    monkeypatch.setattr(crraeq.simulate, "path_generator", no_draws)
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        call(p, tab, seed)


def test_default_horizon_follows_min_denominator():
    tab = validate(BENCH)
    np.testing.assert_allclose(default_horizon(tab), 5.0 / tab.min_denominator)
    p = two_agent(rho=0.9)
    tab2 = validate(p)
    assert default_horizon(tab2, 1.5) == 1.5 + max(10.0, 5.0 / tab2.min_denominator)


def test_martingale_check_small_horizon_degenerates():
    p = two_agent()
    tab = validate(p)
    closed = snapshot(S0, p, tab).stock_price * state_price_density(S0, p)
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


def test_fd_engine_on_known_fields():
    p = BENCH
    from crraeq.model import log_dividend

    f_t, f_x, f_xx = fd_engine(lambda t, x: log_dividend(t, x, p), 1.0, 0.3)
    np.testing.assert_allclose(f_x, 0.1, rtol=1e-8)
    np.testing.assert_allclose(f_t, -0.005, rtol=1e-6)
    assert abs(f_xx) <= 1e-8

    g = lambda t, x: np.exp(0.3 * x - 0.2 * t)
    st = MarketState(0.5, -0.2)
    val = g(st.t, st.x)
    f_t, f_x, f_xx = fd_engine(g, st.t, st.x)
    np.testing.assert_allclose(f_t, -0.2 * val, rtol=1e-9)
    np.testing.assert_allclose(f_x, 0.3 * val, rtol=1e-9)
    np.testing.assert_allclose(f_xx, 0.09 * val, rtol=1e-7)


def _pointwise_fd(f, st):
    """The stencil one scalar point at a time, as a reference for fd_engine."""
    at = lambda t, x: float(f(t, x))

    def stencil(ht, hx):
        up, down = at(st.t, st.x + hx), at(st.t, st.x - hx)
        f_t = (at(st.t + ht, st.x) - at(st.t - ht, st.x)) / (2 * ht)
        f_x = (up - down) / (2 * hx)
        f_xx = (up - 2 * at(st.t, st.x) + down) / hx**2
        return np.array([f_t, f_x, f_xx])

    dx, dt = 2e-2, 1e-3
    out = (4 * stencil(dt / 2, dx / 2) - stencil(dt, dx)) / 3
    return tuple(float(v) for v in out)


def test_fd_engine_one_batched_call_matches_pointwise_stencil():
    # the vector field of every log level in one call; each column equals
    # the stencil of that column alone, point by point, to the bit; over
    # arrays of states, each state's columns are that state's own stencil
    rng = np.random.default_rng(535)
    calls = []

    def counted(t, x):
        calls.append(np.shape(t))
        return levels(t, x)

    for _ in range(3):
        p, tab = draw_economy(rng, max_agents=3, max_r=4)
        levels = lambda t, x: evaluate_fields(t, x, p, tab)["log_levels"]
        states = []
        for _ in range(3):
            st = MarketState(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-2, 2)))
            states.append(st)
            calls.clear()
            got = fd_engine(counted, st.t, st.x)
            assert calls == [(9,)]
            assert got.shape == (3, p.n_agents + 4)
            for k in range(p.n_agents + 4):
                want = _pointwise_fd(lambda t, x: levels(t, x)[..., k], st)
                assert tuple(got[:, k].tolist()) == want
        t, x = np.array([st.t for st in states]), np.array([st.x for st in states])
        calls.clear()
        got = fd_engine(counted, t, x)
        assert calls == [(9, 3)]
        assert got.shape == (3, 3, p.n_agents + 4)
        for n, st in enumerate(states):
            own = fd_engine(levels, st.t, st.x)
            assert got[:, n].tobytes() == own.tobytes()


def test_fd_matches_first_order_coefficients():
    rng = np.random.default_rng(515)
    for _ in range(4):
        p, tab = draw_economy(rng, max_agents=3, max_r=4)
        for _ in range(5):
            st = MarketState(float(rng.uniform(0.2, 6.0)), float(rng.uniform(-3, 3)))
            snap = snapshot(st, p, tab)
            rb, sd = snap.rates, snap.stock
            lbar_x, zeta_x, _, s_x, *zj_x = fd_engine(
                lambda t, x: evaluate_fields(t, x, p, tab)["log_levels"], st.t, st.x
            )[1]
            np.testing.assert_allclose(lbar_x, rb.alpha_bar, rtol=1e-5, atol=1e-9)
            np.testing.assert_allclose(-zeta_x, rb.kappa, rtol=1e-5)
            np.testing.assert_allclose(s_x, sd.vol, rtol=1e-5, atol=1e-9)
            j = int(rng.integers(p.n_agents))
            np.testing.assert_allclose(
                zj_x[j], snap.alpha_tilde_agents[j], rtol=1e-5, atol=1e-9
            )


def test_fd_matches_second_order_coefficients():
    # relations like r = -(d_t + d_xx/2) zeta / zeta, via the log field:
    # for h = log f, (d_t f)/f = h_t and (d_xx f)/f = h_xx + h_x^2
    rng = np.random.default_rng(525)
    for _ in range(3):
        p, tab = draw_economy(rng, max_agents=3, max_r=4, min_denominator=0.01)
        for _ in range(4):
            st = MarketState(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-2, 2)))
            snap = snapshot(st, p, tab)
            rb, sd = snap.rates, snap.stock

            f_t, f_x, f_xx = fd_engine(
                lambda t, x: evaluate_fields(t, x, p, tab)["log_levels"], st.t, st.x
            )
            gen_l, gen_zeta, _, gen_s = (f_t + 0.5 * (f_xx + f_x**2))[:4]
            np.testing.assert_allclose(-gen_zeta, rb.riskless_rate, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(-gen_l, rb.rho_bar, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(gen_s, sd.drift, rtol=1e-5, atol=1e-8)
