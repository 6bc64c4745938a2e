import decimal
import math
import operator
import threading
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

import crraeq.equilibrium
from conftest import (
    clearing_reference,
    draw_economy,
    draw_state,
    ladder,
    log_z_terms,
    same_bits,
)
from crraeq.calibrate import wealth_shares
from crraeq.equilibrium import (
    _block_map,
    _clearing_logs,
    _lse_slabs,
    consumptions,
    evaluate_fields,
    snapshot,
    state_price_density,
)
from crraeq.model import Agent, EconomyParams, MarketState, dividend, validate
from crraeq.simulate import PathGrid, evaluate_series, simulate_path

S0 = MarketState(0.0, 0.0)


def single_agent(rho=0.02, alpha=0.0, gamma=0.0, R=2, sigma=0.1, delta0=1.0):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=0.0, delta0=delta0,
        agents=(Agent(rho, alpha, gamma),),
    )


def symmetric_pair(rho=0.05, a=0.3, R=2, sigma=0.1):
    return EconomyParams(
        R=R, sigma=sigma, alpha_star=0.0, delta0=1.0,
        agents=(Agent(rho, a, 0.0), Agent(rho, -a, 0.0)),
    )


TRIO = EconomyParams(
    R=3, sigma=0.12, alpha_star=0.05, delta0=2.0,
    agents=(Agent(0.4, 0.25, 0.1), Agent(0.45, -0.1, 0.0), Agent(0.5, 0.05, -0.1)),
)


def test_zeta_single_agent_initial():
    for r, d0 in [(2, 1.0), (3, 2.0), (5, 0.5)]:
        p = single_agent(R=r, delta0=d0)
        np.testing.assert_allclose(state_price_density(S0, p), d0 ** (-r), rtol=1e-13)


def test_zeta_symmetric_pair():
    p = symmetric_pair()
    np.testing.assert_allclose(state_price_density(S0, p), 2.0**2, rtol=1e-13)


def test_gamma_shift_rescales_zeta_only():
    p = symmetric_pair()
    tab = validate(p)
    c = 1.3
    q = p.with_gammas([a.gamma + c for a in p.agents])
    qtab = validate(q)
    s = MarketState(3.0, -1.1)
    np.testing.assert_allclose(
        state_price_density(s, q), math.exp(-c) * state_price_density(s, p), rtol=1e-12
    )
    np.testing.assert_allclose(consumptions(s, q), consumptions(s, p), rtol=1e-12)
    sq, sp = snapshot(s, q, qtab), snapshot(s, p, tab)
    np.testing.assert_allclose(sq.wealths, sp.wealths, rtol=1e-12)
    np.testing.assert_allclose(sq.stock_price, sp.stock_price, rtol=1e-12)
    np.testing.assert_allclose(sq.pd_ratio, sp.pd_ratio, rtol=1e-12)


def test_single_agent_consumes_dividend():
    p = single_agent(rho=0.03, alpha=0.2, R=3)
    for s in [S0, MarketState(5.0, 2.0), MarketState(0.5, -3.0)]:
        np.testing.assert_allclose(consumptions(s, p)[0], dividend(s, p), rtol=1e-13)


def test_symmetric_split_at_origin():
    p = symmetric_pair()
    c = consumptions(S0, p)
    np.testing.assert_allclose(c, [0.5, 0.5], rtol=1e-13)


def test_market_clearing_random_sweep():
    rng = np.random.default_rng(101)
    for _ in range(60):
        p, _ = draw_economy(rng)
        s = draw_state(rng)
        c = consumptions(s, p)
        d = dividend(s, p)
        assert abs(sum(c) - d) <= 1e-12 * d
        assert all(v > 0 for v in c)


def test_wealth_benchmark_is_hundred():
    p = single_agent()
    tab = validate(p)
    snap = snapshot(S0, p, tab)
    np.testing.assert_allclose(snap.wealths[0], 100.0, rtol=1e-12)
    np.testing.assert_allclose(snap.stock_price, 100.0, rtol=1e-12)
    np.testing.assert_allclose(snap.pd_ratio, 100.0, rtol=1e-12)


def test_identical_agents_equal_wealth():
    p = EconomyParams(
        R=3, sigma=0.15, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.3, 0.25, 0.4), Agent(0.3, 0.25, 0.4)),
    )
    tab = validate(p)
    for s in [S0, MarketState(2.0, 1.0), MarketState(7.0, -2.5)]:
        w = snapshot(s, p, tab).wealths
        np.testing.assert_allclose(w[0], w[1], rtol=1e-13)


def test_wealths_sum_to_stock_price():
    rng = np.random.default_rng(202)
    for _ in range(40):
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        snap = snapshot(s, p, tab)
        total = sum(snap.wealths)
        sp = snap.stock_price
        assert abs(total - sp) <= 1e-10 * sp


def test_stock_price_scales_with_delta0():
    p = single_agent(rho=0.04, alpha=0.1, R=3)
    q = single_agent(rho=0.04, alpha=0.1, R=3, delta0=2.5)
    ptab, qtab = validate(p), validate(q)
    s = MarketState(1.5, 0.8)
    sq, sp = snapshot(s, q, qtab), snapshot(s, p, ptab)
    np.testing.assert_allclose(sq.stock_price, 2.5 * sp.stock_price, rtol=1e-12)
    np.testing.assert_allclose(sq.pd_ratio, sp.pd_ratio, rtol=1e-12)


def test_pd_equals_price_over_dividend():
    rng = np.random.default_rng(303)
    for _ in range(25):
        p, tab = draw_economy(rng)
        s = draw_state(rng)
        snap = snapshot(s, p, tab)
        np.testing.assert_allclose(snap.pd_ratio, snap.stock_price / dividend(s, p), rtol=1e-12)


def test_pd_varies_with_state_under_disagreement():
    # equal discounting, differing beliefs: P/D must move with x
    p = EconomyParams(
        R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.2, 0.4, 0.0), Agent(0.2, -0.4, 0.0)),
    )
    tab = validate(p)
    vals = [snapshot(MarketState(1.0, x), p, tab).pd_ratio for x in (-2.0, 0.0, 2.0)]
    assert max(vals) - min(vals) > 1e-3 * max(vals)


def test_agent_permutation_equivariance():
    agents = (Agent(0.3, 0.5, 0.2), Agent(0.4, -0.3, -0.2), Agent(0.5, 0.1, 0.0))
    perm = (2, 0, 1)
    p = EconomyParams(R=3, sigma=0.2, alpha_star=0.1, delta0=1.0, agents=agents)
    q = EconomyParams(
        R=3, sigma=0.2, alpha_star=0.1, delta0=1.0,
        agents=tuple(agents[i] for i in perm),
    )
    ptab, qtab = validate(p), validate(q)
    s = MarketState(2.0, 1.4)
    cp, cq = consumptions(s, p), consumptions(s, q)
    sp, sq = snapshot(s, p, ptab), snapshot(s, q, qtab)
    wp, wq = sp.wealths, sq.wealths
    for qi, pi in enumerate(perm):
        np.testing.assert_allclose(cq[qi], cp[pi], rtol=1e-12)
        np.testing.assert_allclose(wq[qi], wp[pi], rtol=1e-12)
    np.testing.assert_allclose(sq.stock_price, sp.stock_price, rtol=1e-12)
    np.testing.assert_allclose(
        state_price_density(s, q), state_price_density(s, p), rtol=1e-12
    )


def test_log_space_survives_huge_exponents():
    # naive evaluation of (sum_i e^{u_i})^R overflows at u = +-600
    p = EconomyParams(
        R=2, sigma=0.5, alpha_star=0.0, delta0=1.0,
        agents=(Agent(0.8, 1.0, 0.0), Agent(0.8, -1.0, 0.0)),
    )
    tab = validate(p)
    s = MarketState(0.0, 1200.0)
    snap = snapshot(s, p, tab)
    vals = [snap.zeta, snap.stock_price, snap.pd_ratio, *snap.consumptions, *snap.wealths]
    assert all(np.isfinite(v) and v > 0 for v in vals)
    assert abs(sum(snap.consumptions) - snap.dividend) <= 1e-12 * snap.dividend
    s_neg = MarketState(0.0, -1200.0)
    with np.errstate(over="ignore"):  # zeta itself exceeds the float range here
        snap_neg = snapshot(s_neg, p, tab)
    assert np.isfinite(snap_neg.pd_ratio) and snap_neg.pd_ratio > 0


def test_snapshot_invariants_and_determinism():
    rng = np.random.default_rng(404)
    for _ in range(10):
        p, tab = draw_economy(rng, max_agents=3, max_r=4)
        s = draw_state(rng)
        a = snapshot(s, p, tab)
        b = snapshot(s, p, tab)
        assert a == b
        assert abs(sum(a.consumptions) - a.dividend) <= 1e-12 * a.dividend
        assert abs(sum(a.wealths) - a.stock_price) <= 1e-10 * a.stock_price
        np.testing.assert_allclose(a.pd_ratio, a.stock_price / a.dividend, rtol=1e-12)
        np.testing.assert_allclose(sum(a.portfolios), 1.0, rtol=1e-10)


def test_snapshot_single_agent():
    p = single_agent()
    tab = validate(p)
    snap = snapshot(S0, p, tab)
    np.testing.assert_allclose(snap.consumptions[0], snap.dividend, rtol=1e-13)
    np.testing.assert_allclose(snap.wealths[0], snap.stock_price, rtol=1e-13)
    np.testing.assert_allclose(snap.portfolios[0], 1.0, rtol=1e-13)


def _lse_agents(u):
    """The kernel's log-sum-exp over the last (agent) axis of u, as `_clearing_logs` takes it."""
    top, out, scratch = (np.empty(np.shape(u)[:-1]) for _ in range(3))
    _lse_slabs(np.asarray(u).T, top.T, out.T, scratch.T)
    return out


@pytest.mark.parametrize("n_agents", [*range(1, 8), 8, 12, 16])
def test_lse_agents_matches_scipy_bits(n_agents):
    # the plain max-shifted sum over the agents, on the kernel's (..., J)
    # layout, agrees with scipy's tie-counting algorithm to rounding
    rng = np.random.default_rng(100 + n_agents)
    for scale in (1e-3, 1.0, 50.0):
        for shape in ((n_agents,), (40, n_agents), (3, 5, n_agents)):
            u = rng.normal(size=shape) * scale
            ties = u.copy()
            if n_agents > 1:
                ties[..., 1] = ties[..., 0]
            for v in (u, ties, np.repeat(u[..., :1], n_agents, axis=-1)):
                want = logsumexp(v, axis=-1)
                np.testing.assert_allclose(_lse_agents(v), want, rtol=1e-15, atol=1e-15)
    assert np.ndim(_lse_agents(np.zeros(n_agents))) == 0


def test_lse_agents_non_finite_inputs():
    # tier-1 turns RuntimeWarnings into errors, so none may escape here
    u = np.array(
        [[np.inf, 0.0], [0.0, -np.inf], [-np.inf, -np.inf], [np.nan, 1.0], [np.inf, np.inf]]
    )
    got = _lse_agents(u)
    np.testing.assert_array_equal(got, logsumexp(u, axis=-1))
    np.testing.assert_array_equal(got, [np.inf, 0.0, -np.inf, np.nan, np.inf])


def _log_term_rows(m, rng):
    """Rows of m log terms: random rows at four scales, rows past exp's
    overflow, integer rows full of ties, and rows holding -inf (the terms
    plus log beta_j of the compositions without agent j)."""
    batches = [rng.normal(size=(6, m)) * scale for scale in (1e-3, 1.0, 50.0, 800.0)]
    batches.append(rng.normal(size=(6, m)) + 720.0)
    batches.append(rng.integers(-2, 3, size=(6, m)).astype(float))
    absent = rng.normal(size=(3, m))
    absent[0, 1:] = -np.inf
    absent[1, : m // 2] = -np.inf
    absent[2, m // 2 + 1 :] = -np.inf
    batches.append(absent)
    return [row for batch in batches for row in batch]


@pytest.mark.parametrize("m", [1, 7, 8, 9, 17, 1716])
def test_z_pass_log_sum_matches_scipy(m):
    # the Z pass's plain max-shifted sum, top + log s0, over any finite
    # largest term agrees with scipy's tie-counting algorithm to rounding;
    # at t = 0 and x = 1 a table whose x coefficients are the row has the
    # row for its log terms, to the bit
    rng = np.random.default_rng(200 + m)
    for row in _log_term_rows(m, rng):
        table = SimpleNamespace(x_coefs=row, t_coefs=np.zeros(m))
        top, sums = crraeq.equilibrium._z_pass(
            np.zeros((1, 1)), np.ones((1, 1)), np.zeros(m), table, np.ones((1, m))
        )
        assert top[0] == row.max()
        got = top + np.log(sums[:, 0])
        np.testing.assert_allclose(got, logsumexp(row), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("redo", ["plain", "forced_redo"])
def test_wealth_shares_are_the_kernels_shares(monkeypatch, redo):
    # wealth_shares at one state is the kernel's share at that node of a
    # batch, bit for bit, with the underflow redo (forced at every agent by
    # a share threshold of 1).  It matches scipy's softmax of the terms
    # against the compositions to 1e-14, and a share the redo exponentiates
    # from its log to 1e-14 (1 + |log s|): at (1, 3000) a share of 3.9e-304
    # is off by 1.7e-13 against 60-digit sums of the same terms
    if redo == "forced_redo":
        monkeypatch.setattr(crraeq.equilibrium, "_FULL_PRECISION_SHARE", 1.0)
    rng = np.random.default_rng(76)
    economies = [(p, validate(p)) for p in (symmetric_pair(), TRIO)]
    economies += [draw_economy(rng, max_agents=4, max_r=5) for _ in range(3)]
    states = [S0, MarketState(2.5, -1.5), MarketState(1.0, 3000.0)]
    t, x = (np.array([[getattr(s, k)] for s in states]) for k in "tx")
    for p, tab in economies:
        share = crraeq.equilibrium._z_side(t, x, p, tab)[6]
        for n, state in enumerate(states):
            got = wealth_shares(p, tab, state)
            np.testing.assert_array_equal(got, share[n], strict=True)
            want = softmax(log_z_terms(state.t, state.x, p, tab)) @ tab.parts / p.R
            redone = got < crraeq.equilibrium._FULL_PRECISION_SHARE
            log_scale = 1 + np.abs(np.log(np.maximum(want, np.finfo(float).tiny)))
            bound = 1e-14 * want * np.where(redone, log_scale, 1.0)
            assert (np.abs(got - want) <= bound).all(), (got, want)


def _log_level_references(t, x, p, tab, log_z):
    """Each log level as its own expression.

    log L, log zeta and log S are their expressions over the clearing logs
    that the kernel and the Monte Carlo blocks share; log S over the given
    log Z.  The composition sums log Z and log Z^j are scipy's logsumexp.
    """
    _, lse_u, log_delta = _clearing_logs(t, x, p)
    log_zeta = p.R * (lse_u - log_delta)
    refs = [
        p.R * lse_u,
        log_zeta,
        logsumexp(log_z_terms(t, x, p, tab), axis=-1),
        (1 - p.R) * log_delta - log_zeta + log_z,
    ]
    for j in range(p.n_agents):
        terms = log_z_terms(t, x, p, tab)
        refs.append(logsumexp(terms, axis=-1, b=tab.parts[:, j] / p.R))
    return refs


def test_log_levels_columns_match_their_own_expressions_bitwise():
    # log L, log zeta and log S (over the kernel's log Z) are their own
    # expressions, to the bit.  log L and log zeta also match scipy's
    # logsumexp over the paper's u, formed in the tests, to 1e-14.  log Z
    # and log Z^j come from the kernel's one reduction of the Z terms
    # against their largest, so they match scipy's logsumexp to rounding:
    # 1e-14 of max(1, |log Z|), as a log near 0 is off by an ulp of 1.
    # log S is not compared with scipy's: at x = -3000 it is a difference
    # of two logs in the hundreds, and an ulp of log Z is 2e-14 of it
    rng = np.random.default_rng(75)
    economies = [(p, validate(p)) for p in (symmetric_pair(), TRIO)]
    economies += [draw_economy(rng, max_agents=4, max_r=5) for _ in range(3)]
    for p, tab in economies:
        t, x = rng.uniform(0.0, 10.0, 40), rng.uniform(-5.0, 5.0, 40)
        # arrays, a scalar state, a scalar time against an array, a far state
        for tt, xx in ((t, x), (1.5, -0.25), (2.0, x), (1.0, np.array([-3000.0, 3000.0]))):
            got = evaluate_fields(tt, xx, p, tab)["log_levels"]
            refs = _log_level_references(tt, xx, p, tab, got[..., 2])
            assert got.shape == np.broadcast(tt, xx).shape + (p.n_agents + 4,)
            for k in (0, 1, 3):
                assert same_bits(got[..., k], refs[k]), (k, tt, xx)
            u, log_delta = clearing_reference(tt, xx, p)
            lse_u = logsumexp(u, axis=-1)
            for k, want in ((0, p.R * lse_u), (1, p.R * (lse_u - log_delta))):
                np.testing.assert_allclose(got[..., k], want, rtol=1e-14, atol=1e-14, err_msg=k)
            for k in (2, *range(4, p.n_agents + 4)):
                np.testing.assert_allclose(got[..., k], refs[k], rtol=1e-14, atol=1e-14, err_msg=k)


# MC_PAIR of acceptance test c06
PAIR = EconomyParams(
    R=2, sigma=0.1, alpha_star=0.0, delta0=1.0,
    agents=(Agent(0.2, 0.2, 0.1), Agent(0.2, -0.2, -0.1)),
)


def _spy_on_fallback(monkeypatch):
    """Record the node count of each second Z pass, the redo of an underflowed agent sum."""
    calls = []
    real = crraeq.equilibrium._z_pass

    def spy(t, x, shift, table, rows):
        if len(rows) == 2:
            calls.append(len(t))
        return real(t, x, shift, table, rows)

    monkeypatch.setattr(crraeq.equilibrium, "_z_pass", spy)
    return calls


def test_node_blocking_never_changes_a_bit(monkeypatch):
    rng = np.random.default_rng(914)
    economies = [PAIR, TRIO, ladder(4, 4), ladder(6, 6)]
    while len(economies) < 7:  # three draws with agent sums that can underflow
        p, _ = draw_economy(rng, max_agents=5, max_r=6)
        if p.n_agents > 1:
            economies.append(p)
    n_far = 150
    inputs = [
        (np.linspace(0.0, 1.0, 1025), 0.03 * np.cumsum(rng.normal(size=1025))),  # a path
        (1.0, 0.5),  # a 0-d state
        (rng.uniform(0.0, 5.0, (7, 1)), rng.uniform(-3.0, 3.0, (1, 9))),  # a (7, 9) broadcast
        (2.0, rng.uniform(-3.0, 3.0, 40)),  # a scalar t against an array x
        (np.zeros(0), np.zeros(0)),  # no nodes
    ]
    # far states, where some agent's sum underflows, among ordinary ones
    far = (np.linspace(0.0, 2.0, n_far), np.resize([-3000.0, 0.5, 3000.0, 20000.0], n_far))
    fallback = _spy_on_fallback(monkeypatch)
    for p in economies:
        tab = validate(p)
        n_terms = len(tab.parts)
        for t, x in [*inputs, far]:
            monkeypatch.setattr(crraeq.equilibrium, "_BLOCK_ELEMENTS", 2000 * n_terms)
            want = evaluate_fields(t, x, p, tab)  # one block
            for nodes in (1, 7, 64):
                monkeypatch.setattr(crraeq.equilibrium, "_BLOCK_ELEMENTS", nodes * n_terms)
                del fallback[:]
                got = evaluate_fields(t, x, p, tab)
                assert got.keys() == want.keys()
                for k in want:
                    assert same_bits(got[k], want[k]), (p, k, np.shape(x), nodes)
                if x is far[1]:
                    assert fallback, "no agent sum underflowed at the far states"


def test_kernel_bits_do_not_depend_on_the_worker_count(monkeypatch):
    passes = []  # per Z pass: its block count and the threads that ran its groups
    real = crraeq.equilibrium._block_map

    def spy(run_group, n_items, per_block):
        threads = set()
        passes.append((len(range(0, n_items, per_block)), threads))

        def run(blocks):
            threads.add(threading.current_thread())
            run_group(blocks)

        real(run, n_items, per_block)

    monkeypatch.setattr(crraeq.equilibrium, "_block_map", spy)
    rng = np.random.default_rng(77)
    n_far = 300
    cases = [
        # an R7 J7 path over many node blocks
        (ladder(7, 7), np.linspace(0.0, 1.0, 1717), 0.03 * np.cumsum(rng.normal(size=1717))),
        # far states, where every agent's sum underflows at some nodes
        (ladder(4, 4), np.linspace(0.0, 2.0, n_far), np.resize([-20000.0, 0.5, 20000.0], n_far)),
    ]
    for p, t, x in cases:
        tab = validate(p)
        monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", 1)
        want = evaluate_fields(t, x, p, tab)
        for nodes in (7, 64):
            monkeypatch.setattr(crraeq.equilibrium, "_BLOCK_ELEMENTS", nodes * len(tab.parts))
            for workers in (1, 2, 3):
                monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", workers)
                del passes[:]
                got = evaluate_fields(t, x, p, tab)
                assert got.keys() == want.keys()
                for k in want:
                    assert same_bits(got[k], want[k]), (p.R, k, nodes, workers)
                # the redo passes, one per underflowed agent, run on the cores too
                assert len(passes) == (1 + p.n_agents if x[0] == -20000.0 else 1)
                for n_blocks, threads in passes:
                    assert len(threads) == min(workers, n_blocks)


@pytest.mark.parametrize("workers", [2, 3])
def test_block_map_hands_out_claimed_blocks_at_once_in_the_callers_context(monkeypatch, workers):
    # 20 items in blocks of 3: seven blocks, the last of 2 items
    monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", workers)
    before, caller = threading.active_count(), threading.get_ident()
    meet = threading.Barrier(workers, timeout=10)  # every group runs at the same time
    want = [slice(lo, min(lo + 3, 20)) for lo in range(0, 20, 3)]

    def group(blocks):
        meet.wait()
        seen.append((threading.get_ident(), np.geterr()["over"], list(blocks)))

    seen = []
    with np.errstate(over="raise"):
        assert _block_map(group, 20, 3) is None
    assert len(seen) == workers and caller in {ident for ident, _, _ in seen}
    assert len({ident for ident, _, _ in seen}) == workers
    # a thread at numpy's default errstate would warn, not raise
    assert {over for _, over, _ in seen} == {"raise"}
    # every block runs once, and each group claims its blocks in block order
    assert sorted((b for *_, claimed in seen for b in claimed), key=lambda b: b.start) == want
    for *_, claimed in seen:
        assert claimed == sorted(claimed, key=lambda b: b.start)
    # one block is the plain call
    seen = []
    _block_map(lambda blocks: seen.append((list(blocks), threading.get_ident())), 2, 3)
    assert seen == [([slice(0, 2)], caller)]
    assert threading.active_count() == before

    for bad in range(7):

        def fail_one(blocks, bad=bad):
            for b in blocks:
                if b.start == 3 * bad:
                    raise ValueError(bad)

        with pytest.raises(ValueError, match=f"^{bad}$"):
            _block_map(fail_one, 20, 3)
        assert threading.active_count() == before

    def fail_all(blocks):
        for b in blocks:
            raise ValueError(b.start)

    with pytest.raises(ValueError, match="^0$"):  # the lowest-numbered block's
        _block_map(fail_all, 20, 3)
    assert threading.active_count() == before


def test_block_map_gives_a_slowed_group_fewer_blocks(monkeypatch):
    # the other group sleeps 5 ms per block, as on a core that other load
    # holds: the caller's group claims more than the half a fixed split gives it
    monkeypatch.setattr(crraeq.equilibrium, "_WORKERS", 2)
    caller, counts = threading.get_ident(), {}

    def group(blocks):
        mine = threading.get_ident() == caller
        counts[mine] = 0
        for _ in blocks:
            counts[mine] += 1
            if not mine:
                time.sleep(0.005)

    _block_map(group, 40, 1)
    assert sum(counts.values()) == 40
    assert counts[True] > 20, counts


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_is_bounded_by_the_block(monkeypatch):
    # numpy reports its buffers to tracemalloc; one (nodes, M) float64
    # array is 15 MB here, the two (block, M) buffers about 1 MB
    p = ladder(6, 6)
    tab = validate(p)
    path = simulate_path(PathGrid(0.0, 1.0, 4096), 0.0, seed=0, path_index=0)
    assert len(path.x_values) * len(tab.parts) * 8 > 15e6
    assert _traced_peak(lambda: evaluate_series(path, p, tab)) < 8 * 2**20
    # the log-space redo of underflowed sums is blocked as well
    fallback = _spy_on_fallback(monkeypatch)
    t = np.linspace(0.0, 1.0, 2000)
    assert _traced_peak(lambda: evaluate_fields(t, 20000.0, p, tab)) < 8 * 2**20
    assert sum(fallback) >= len(t)


@pytest.mark.parametrize(
    "params, order", [(PAIR, "F"), (TRIO, "C"), (ladder(4, 4), "C"), (ladder(7, 7), "C")]
)
def test_reduction_rows_keep_their_longer_axis_contiguous(params, order):
    # einsum runs its inner loop along the contiguous axis: over the M
    # compositions wherever there are at least as many as the 3 + 2J rows
    tab = validate(params)
    assert tab.rows.flags[f"{order}_CONTIGUOUS"]
    assert (order == "C") == (len(tab.parts) >= tab.rows.shape[0])
    a, beta = tab.x_coefs, tab.parts.T
    b = tab.t_coefs - 0.5 * a**2
    want = np.vstack([np.ones_like(a), a - tab.a0, b - tab.b0, beta, beta * (a - tab.a0)])
    assert same_bits(tab.rows, want)


def test_validate_builds_the_rows_in_place():
    # R8 J8: the rows are 1 MB of the table's 1.6 MB; a second copy of them
    # (a stack, then a contiguous copy of it) would break the bound
    p = ladder(8, 8)
    tab = validate(p)
    table_bytes = sum(v.nbytes for v in vars(tab).values() if isinstance(v, np.ndarray))
    assert _traced_peak(lambda: validate(p)) < table_bytes + tab.rows.nbytes


# the worst error of each economy's Z reduction below, in units of eps times
# the sum of |terms| of the field: twice the worst measured at these states
Z_ACCURACY_CEILINGS = {"TRIO": 2.9, "R4J4": 2.3, "R7J7": 21.4}


@pytest.mark.parametrize("name", list(Z_ACCURACY_CEILINGS))
def test_z_reduction_is_within_a_few_eps_of_the_exact_sums(name):
    p = {"TRIO": TRIO, "R4J4": ladder(4, 4), "R7J7": ladder(7, 7)}[name]
    tab = validate(p)
    eps = Fraction(np.finfo(float).eps)
    worst = 0.0
    for t, x in ((0.0, 0.0), (0.7, -1.3), (3.1, 2.4), (9.2, -4.6), (1.0, -300.0), (50.0, 2000.0)):
        # the float terms the kernel reduces, summed exactly against each row
        z = log_z_terms(t, x, p, tab)
        terms = [Fraction(v) for v in np.exp(z - z.max())]
        exact = [sum(map(operator.mul, terms, map(Fraction, row)), Fraction(0)) for row in tab.rows]
        _, total, alpha_tilde, _, _, _, share, _ = crraeq.equilibrium._z_side(
            np.array([[t]]), np.array([[x]]), p, tab
        )
        assert (share >= crraeq.equilibrium._FULL_PRECISION_SHARE).all()  # no log-space redo
        # every term of the total and of a share is nonnegative, so its sum
        # of |terms| is its exact value; alpha_tilde = a0 + sum_m w_m (a_m - a0)
        spread = sum(abs(w * Fraction(r)) for w, r in zip(terms, tab.rows[1])) / exact[0]
        errors = [
            abs(Fraction(float(total[0])) - exact[0]) / exact[0],
            abs(Fraction(float(alpha_tilde[0])) - Fraction(tab.a0) - exact[1] / exact[0])
            / (abs(Fraction(tab.a0)) + spread),
        ]
        for j in range(p.n_agents):
            want = exact[3 + j] / (p.R * exact[0])
            errors.append(abs(Fraction(float(share[0, j])) - want) / want)
        worst = max(worst, float(max(errors) / eps))
    assert worst <= Z_ACCURACY_CEILINGS[name], worst


def test_underflow_redo_is_within_a_few_eps_of_the_exact_sums():
    # at far states some agents' shares fall below tiny/eps, and the kernel
    # redoes their sums on the terms plus log beta_j.  Against 40-digit sums
    # of exp of the kernel's float log terms, log Z^j is within 2 eps (1 +
    # |log Z^j|), and alpha_tilde^j = a0 + sum_m w_m (a_m - a0) within 2 eps
    # (|a0| + max |a_m - a0|) over the compositions m that hold agent j
    rng = np.random.default_rng(1)
    t, x = (v.reshape(-1, 1) for v in np.meshgrid([0.0, 50.0], np.linspace(-2e4, 2e4, 41)))
    eps = np.finfo(float).eps
    worst, n_redone = [0.0, 0.0], 0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for _ in range(8):
            p, tab = draw_economy(rng, max_agents=4, max_r=5)
            _, _, _, _, log_zj, _, share, at_agents = crraeq.equilibrium._z_side(t, x, p, tab)
            for n, j in np.argwhere(share < crraeq.equilibrium._FULL_PRECISION_SHARE):
                z = log_z_terms(t[n, 0], x[n, 0], p, tab)
                held = tab.parts[:, j] > 0
                w = [Decimal(v).exp() * int(b) for v, b in zip(z[held], tab.parts[held, j])]
                s0 = sum(w, Decimal(0))
                s1 = sum(map(operator.mul, w, map(Decimal, tab.rows[1][held])), Decimal(0))
                log_zj_exact = (s0 / p.R).ln()
                spread = abs(tab.a0) + np.abs(tab.rows[1][held]).max()
                errors = (
                    abs(Decimal(log_zj[n, j]) - log_zj_exact) / (1 + abs(log_zj_exact)),
                    abs(Decimal(at_agents[n, j]) - Decimal(tab.a0) - s1 / s0) / Decimal(spread),
                )
                worst = [max(seen, float(e) / eps) for seen, e in zip(worst, errors)]
                n_redone += 1
    assert n_redone > 300
    assert worst[0] <= 2.0 and worst[1] <= 2.0, worst


# the forced redo against the plain pass at ordinary states: twice the worst
# measured, in eps times each field's scale (see the test)
FORCED_REDO_CEILINGS = {"log_levels": 2.0, "wealths": 10.0, "alpha_tilde_agents": 13.0,
                        "portfolios": 12.0}


@pytest.mark.parametrize(
    "params", [PAIR, TRIO, ladder(4, 4), ladder(7, 7)], ids=["PAIR", "TRIO", "R4J4", "R7J7"]
)
def test_forced_redo_stays_within_a_few_eps_of_the_plain_pass(monkeypatch, params):
    # a share threshold of 1 redoes every agent's sums at every node; only
    # the per-agent fields may move, each within a few eps of its scale:
    # log Z^j against the largest logs it is formed from, eps (1 + |log Z|
    # + |log Z^j|); w^j in eps (1 + |log w^j|); alpha_tilde^j in eps (|a0|
    # + max |a_m - a0|) over the compositions holding j; and pi^j, whose
    # share is exponentiated from a log, in eps (s (|sigma| + that alpha
    # scale + |alpha_bar|) / |sigma^S| + |pi^j| (1 + |log s|)), s = w^j/S
    tab = validate(params)
    rng = np.random.default_rng(10)
    t = np.concatenate([[0.0], rng.uniform(0.0, 10.0, 12), [1.0, 1.0, 50.0]])
    x = np.concatenate([[0.0], rng.uniform(-5.0, 5.0, 12), [-300.0, 300.0, 2000.0]])
    want = evaluate_fields(t, x, params, tab)
    monkeypatch.setattr(crraeq.equilibrium, "_FULL_PRECISION_SHARE", 1.0)
    got = evaluate_fields(t, x, params, tab)
    for k in want.keys() - FORCED_REDO_CEILINGS.keys():
        assert same_bits(got[k], want[k]), k
    eps = np.finfo(float).eps
    log_levels = want["log_levels"]
    alpha_scale = np.array(
        [abs(tab.a0) + np.abs(tab.rows[1][beta > 0]).max() for beta in tab.parts.T]
    )
    s = want["wealths"] / want["stock_price"][:, None]
    scales = {
        "log_levels": 1 + np.abs(log_levels[:, 2:3]) + np.abs(log_levels[:, 4:]),
        "wealths": want["wealths"] * (1 + np.abs(np.log(want["wealths"]))),
        "alpha_tilde_agents": alpha_scale,
        "portfolios": s * (params.sigma + alpha_scale + np.abs(want["alpha_bar"][:, None]))
        / np.abs(want["vol"][:, None])
        + np.abs(want["portfolios"]) * (1 + np.abs(np.log(s))),
    }
    for k, ceiling in FORCED_REDO_CEILINGS.items():
        moved = got[k][:, 4:] - want[k][:, 4:] if k == "log_levels" else got[k] - want[k]
        worst = (np.abs(moved) / (eps * scales[k])).max()
        assert worst <= ceiling, (k, worst)



# The model's exact identities, the kernel against itself on another
# economy, with the same table (time and gamma, delta0) or another one
# (a split agent, permuted agents): twice the worst error measured at the
# states of `_identity_states`, in eps times the scales of `_level_error`
# and `_coefficient_errors`
TIME_GAMMA_CEILINGS = {"levels": 3.8, "alpha": 2.8, "rates": 0.6, "portfolios": 7.0}
DELTA0_LEVELS_CEILING = 8.2
SPLIT_CEILINGS = {"levels": 4.7, "alpha": 48.0, "rates": 64.0, "portfolios": 19.0}
PERMUTATION_CEILINGS = {"levels": 2.6, "alpha": 5.1, "rates": 1.7, "portfolios": 4.5}
IDENTITY_ECONOMIES = [PAIR, TRIO, ladder(4, 4), ladder(7, 7)]


def _identity_states():
    rng = np.random.default_rng(13)
    t = np.concatenate([rng.uniform(0.1, 10.0, 18), [1.0, 1.0, 50.0, 50.0]])
    x = np.concatenate([rng.uniform(-5.0, 5.0, 18), [-300.0, 300.0, -2000.0, 2000.0]])
    return t, x


def _level_error(levels):
    """The worst gap of the levels from their references, in eps times 1 +
    |log v| + the |logs| it is formed from (log L, log Z, log delta), at
    whichever evaluation has the larger scale.

    levels maps a name to (log v, its fields, log ref, its fields): the
    logs over the states and a trailing axis, the identity's factor taken
    out.  A gap in log v is v's relative gap.
    """
    def scale(log_v, f):
        ll = f["log_levels"]
        formed_from = 1 + np.abs(ll[:, 0]) + np.abs(ll[:, 2]) + np.abs(np.log(f["dividend"]))
        return np.abs(log_v) + formed_from[:, None]

    gaps = [
        (np.abs(v - ref) / np.maximum(scale(v, f), scale(ref, f_ref))).max()
        for v, f, ref, f_ref in levels.values()
    ]
    return float(max(gaps)) / np.finfo(float).eps


def _coefficient_errors(got, want, p, tab):
    """The worst gap of each group of coefficients in got from want, in eps
    times its scale at want: alpha_bar, kappa, alpha_tilde, sigma^S and
    alpha_tilde^j in |sigma| + |alpha_tilde| + |alpha_bar|; the rates in
    the sum of |terms| the four are formed from; pi^j as in
    `test_forced_redo_stays_within_a_few_eps_of_the_plain_pass`.
    """
    sigma, alpha_bar, alpha_tilde = p.sigma, want["alpha_bar"], want["alpha_tilde"]
    rate_terms = (
        np.abs(want["rho_bar"]) + p.R * sigma * np.abs(p.alpha_star + alpha_bar)
        + sigma**2 * p.R * (p.R + 1) / 2 + abs(tab.b0) + np.abs(tab.rows[2]).max()
        + abs(sigma * p.alpha_star) + np.abs(alpha_tilde - alpha_bar) * np.abs(sigma - alpha_bar)
    )
    share = want["wealths"] / want["stock_price"][:, None]
    agent_alpha = np.array(
        [abs(tab.a0) + np.abs(tab.rows[1][beta > 0]).max() for beta in tab.parts.T]
    )
    groups = {  # group: (its fields, their scale)
        "alpha": (
            ["alpha_bar", "kappa", "alpha_tilde", "vol", "alpha_tilde_agents"],
            (abs(sigma) + np.abs(alpha_tilde) + np.abs(alpha_bar))[:, None],
        ),
        "rates": (["rho_bar", "riskless_rate", "rho_tilde", "drift"], rate_terms[:, None]),
        "portfolios": (
            ["portfolios"],
            share * (sigma + agent_alpha + np.abs(alpha_bar[:, None]))
            / np.abs(want["vol"][:, None])
            + np.abs(want["portfolios"]) * (1 + np.abs(np.log(share))),
        ),
    }
    eps, n = np.finfo(float).eps, len(alpha_bar)
    return {
        group: max(float((np.abs(got[k] - want[k]).reshape(n, -1) / scale).max()) for k in fields)
        / eps
        for group, (fields, scale) in groups.items()
    }


def _time_gamma_errors(p):
    # the fields at (t, x; gamma) against those at (0, x; gamma + decay t),
    # each state on its own economy, all on p's table
    tab = validate(p)
    t, x = _identity_states()
    want = evaluate_fields(t, x, p, tab)
    shifted = []
    for t_n, x_n in zip(t, x):
        agents = tuple(
            Agent(a.rho, a.alpha, a.gamma + (a.rho + a.alpha**2 / 2) * t_n) for a in p.agents
        )
        shifted.append(evaluate_fields(0.0, x_n, replace(p, agents=agents), tab))
    got = {k: np.stack([f[k] for f in shifted]) for k in want}
    log_of = lambda f, k: np.log(f[k]).reshape(len(t), -1)
    levels = {  # the levels over delta, and pd
        k: (log_of(got, k) - log_of(got, "dividend"), got,
            log_of(want, k) - log_of(want, "dividend"), want)
        for k in ("stock_price", "wealths", "consumptions")
    }
    levels["pd_ratio"] = (log_of(got, "pd_ratio"), got, log_of(want, "pd_ratio"), want)
    return {"levels": _level_error(levels), **_coefficient_errors(got, want, p, tab)}


@pytest.mark.parametrize("params", IDENTITY_ECONOMIES, ids=["PAIR", "TRIO", "R4J4", "R7J7"])
def test_time_shifts_into_the_pareto_weights(params):
    # Z and L depend on (t, gamma) only through gamma + decay t, decay_j =
    # rho_j + alpha_j^2/2: S/delta, w^j/delta, c^j/delta, pd and every
    # coefficient at (t, x; gamma) equal those at (0, x; gamma + decay t)
    worst = _time_gamma_errors(params)
    for group, ceiling in TIME_GAMMA_CEILINGS.items():
        assert worst[group] <= ceiling, (group, worst)


@pytest.mark.parametrize("params", IDENTITY_ECONOMIES, ids=["PAIR", "TRIO", "R4J4", "R7J7"])
@pytest.mark.parametrize("k", [1e5, 3.0, 1e-3])
def test_delta0_scales_the_levels_and_leaves_every_coefficient(params, k):
    # S, w^j and c^j scale by k and zeta by k^-R; no coefficient moves a bit
    tab = validate(params)
    t, x = _identity_states()
    want = evaluate_fields(t, x, params, tab)
    got = evaluate_fields(t, x, replace(params, delta0=params.delta0 * k), tab)
    scaled = {"dividend", "zeta", "stock_price", "wealths", "consumptions", "log_levels"}
    for name in want.keys() - scaled:
        assert same_bits(got[name], want[name]), name
    fixed = [0, 2] + list(range(4, 4 + params.n_agents))  # log L, log Z, log Z^j
    assert same_bits(got["log_levels"][:, fixed], want["log_levels"][:, fixed])
    log_k, log_of = math.log(k), lambda f, name: np.log(f[name]).reshape(len(t), -1)
    levels = {
        name: (log_of(got, name) - log_k, got, log_of(want, name), want)
        for name in ("stock_price", "wealths", "consumptions")
    }
    # zeta through the log it is exponentiated from, which underflows nowhere
    log_zeta = lambda f: f["log_levels"][:, 1:2]
    levels["zeta"] = (log_zeta(got) + params.R * log_k, got, log_zeta(want), want)
    worst = _level_error(levels)
    assert worst <= DELTA0_LEVELS_CEILING, worst


def _merge_agents(v, k, pick=None):
    """The (n, J + 1) per-agent values of an economy with agent k split in
    two, on the unsplit agents: the halves' sum at k, or half `pick`'s."""
    at_k = v[:, k : k + 2].sum(axis=1) if pick is None else v[:, k + pick]
    return np.concatenate([v[:, :k], at_k[:, None], v[:, k + 2 :]], axis=1)


def _split_errors(p, k):
    # agent k against two copies of it whose e^{-gamma/R} are 0.3 and 0.7
    # of its own: u and lse u keep their values, on another table
    tab = validate(p)
    t, x = _identity_states()
    want = evaluate_fields(t, x, p, tab)
    agent = p.agents[k]
    halves = tuple(replace(agent, gamma=agent.gamma - p.R * math.log(f)) for f in (0.3, 0.7))
    split = replace(p, agents=p.agents[:k] + halves + p.agents[k + 1 :])
    got = evaluate_fields(t, x, split, validate(split))
    log_of = lambda f, name: np.log(f[name]).reshape(len(t), -1)
    levels = {
        name: (log_of(got, name), got, log_of(want, name), want)
        for name in ("dividend", "stock_price", "pd_ratio")
    }
    levels["zeta"] = (got["log_levels"][:, 1:2], got, want["log_levels"][:, 1:2], want)
    for name in ("wealths", "consumptions"):  # w^k = w^{k1} + w^{k2}, and c^k
        levels[name] = (np.log(_merge_agents(got[name], k)), got, log_of(want, name), want)
    # w^{k1} / w^{k2} = e^{(gamma_{k2} - gamma_{k1}) / R}
    ratio = log_of(got, "wealths")[:, k : k + 1] - log_of(got, "wealths")[:, k + 1 : k + 2]
    gamma_gap = np.full_like(ratio, (halves[1].gamma - halves[0].gamma) / p.R)
    levels["ratio"] = (ratio, got, gamma_gap, got)
    errors = {"levels": _level_error(levels)}
    for pick in (0, 1):  # alpha_tilde^{k1} = alpha_tilde^{k2} = alpha_tilde^k, pi^k their sum
        merged = dict(got, portfolios=_merge_agents(got["portfolios"], k),
                      alpha_tilde_agents=_merge_agents(got["alpha_tilde_agents"], k, pick))
        for group, worst in _coefficient_errors(merged, want, p, tab).items():
            errors[group] = max(errors.get(group, 0.0), worst)
    return errors


def _permutation_errors(p):
    # the agents in reverse order: every per-agent field reverses, on
    # another enumeration of the compositions
    tab = validate(p)
    t, x = _identity_states()
    want = evaluate_fields(t, x, p, tab)
    flipped = replace(p, agents=p.agents[::-1])
    got = evaluate_fields(t, x, flipped, validate(flipped))
    for name in ("consumptions", "wealths", "alpha_tilde_agents", "portfolios"):
        got[name] = got[name][:, ::-1]
    log_of = lambda f, name: np.log(f[name]).reshape(len(t), -1)
    levels = {
        name: (log_of(got, name), got, log_of(want, name), want)
        for name in ("dividend", "stock_price", "pd_ratio", "wealths", "consumptions")
    }
    levels["zeta"] = (got["log_levels"][:, 1:2], got, want["log_levels"][:, 1:2], want)
    return {"levels": _level_error(levels), **_coefficient_errors(got, want, p, tab)}


@pytest.mark.parametrize("params", IDENTITY_ECONOMIES, ids=["PAIR", "TRIO", "R4J4", "R7J7"])
def test_splitting_an_agent_splits_its_wealth_and_moves_nothing_else(params):
    # the aggregates keep their values, w^k = w^{k1} + w^{k2}, pi^k =
    # pi^{k1} + pi^{k2}, alpha_tilde^{k1} = alpha_tilde^{k2} = alpha_tilde^k
    # and w^{k1} / w^{k2} = e^{(gamma_{k2} - gamma_{k1}) / R}, splitting the
    # first agent and the last
    for k in (0, params.n_agents - 1):
        worst = _split_errors(params, k)
        for group, ceiling in SPLIT_CEILINGS.items():
            assert worst[group] <= ceiling, (k, group, worst)


@pytest.mark.parametrize("params", IDENTITY_ECONOMIES, ids=["PAIR", "TRIO", "R4J4", "R7J7"])
def test_permuting_the_agents_permutes_every_per_agent_field(params):
    worst = _permutation_errors(params)
    for group, ceiling in PERMUTATION_CEILINGS.items():
        assert worst[group] <= ceiling, (group, worst)
