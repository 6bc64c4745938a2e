"""Closed-form equilibrium quantities at a market state: levels and Ito coefficients.

Everything here is an exact function of (t, X_t).  The state price
density comes straight from market clearing,

    zeta_t = delta_t^{-R} ( sum_i (e^{-rho_i t} Lambda_t^i / nu_i)^{1/R} )^R,

consumptions are the softmax split of the dividend across the agents'
per-curvature log terms, and wealths/stock price come from the
multinomial expansion of the clearing sum: sums over the compositions
beta of R of weighted exponentials divided by D(beta), each agent's
wealth weighting them by beta_j/R (Pascal's rule).  The Ito coefficients
are weighted moments of the same terms (see the dynamics module).  Sums
are taken in log-space or against their largest term: naive exponentials
overflow at |x| or t in the hundreds, ordinary states for long paths.

`evaluate_fields` is the one kernel: `snapshot` is its view at one state
and `simulate.evaluate_series` its view along a path.  Only the O(J)
market-clearing side, `state_price_density` and `consumptions`, is
evaluated without it; that side needs no validated table, so it also
works where some D(beta) <= 0.  The clearing side (`_clearing_logs`) is
also what the Monte Carlo oracles' path blocks form, by the same
elementwise steps, so the two agree to the bit.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import (
    DenominatorTable,
    EconomyParams,
    MarketState,
    ModelError,
    log_dividend,
)

VOL_DEGENERACY_TOL = 1e-12
# below this a sum of exponentials may have lost bits to underflow
_FULL_PRECISION_SHARE = np.finfo(float).tiny / np.finfo(float).eps
# the most float64 terms a block holds at once (512 KiB): the kernel's node
# blocks and the Monte Carlo path blocks share this budget
_BLOCK_ELEMENTS = 1 << 16
# the cores this process may run on: `_block_map` runs one block-claiming group on each
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class DegenerateStockVolatility(ModelError):
    """|sigma + alpha_tilde - alpha_bar| < tol: the portfolio split is undefined."""

    def __init__(self, vol: float):
        self.vol = vol
        super().__init__(
            f"stock volatility {vol:.3e} is numerically zero; "
            "portfolio weights are undefined at this state"
        )


@dataclass(frozen=True)
class RateBundle:
    """Coefficients from the Ito expansion of L_t and zeta_t."""

    alpha_bar: float
    rho_bar: float
    riskless_rate: float
    kappa: float


@dataclass(frozen=True)
class StockDynamics:
    """Coefficients from the Ito expansion of Z_t and S_t."""

    alpha_tilde: float
    rho_tilde: float
    vol: float
    drift: float


@dataclass(frozen=True)
class EquilibriumSnapshot:
    """All closed-form outputs at one state, levels plus dynamics.

    Per-agent tuples are ordered like params.agents.  `rates` and
    `stock` carry the Ito coefficients; `portfolios` the risky-asset
    fractions pi^j.
    """

    state: MarketState
    dividend: float
    zeta: float
    consumptions: tuple[float, ...]
    wealths: tuple[float, ...]
    stock_price: float
    pd_ratio: float
    rates: RateBundle
    stock: StockDynamics
    alpha_tilde_agents: tuple[float, ...]
    portfolios: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class EvaluatedSeries:
    """Every closed-form quantity at broadcast states (t, x): the checked
    record of `evaluate_fields`, built as EvaluatedSeries(**fields).

    Along a path the arrays are indexed by grid node; per-agent arrays
    have shape (n_nodes, J), agent order as in params, and `log_levels`
    has shape (n_nodes, J + 4), the columns log L, log zeta, log Z, log S
    and log Z^1 .. log Z^J.  At a single state the arrays are 0-d.
    Portfolios are undefined where the stock volatility vanishes, so
    building a record with such a state raises DegenerateStockVolatility
    for the first of them, carrying its flat index as `grid_index`.
    """

    t: np.ndarray
    x: np.ndarray
    dividend: np.ndarray
    zeta: np.ndarray
    stock_price: np.ndarray
    pd_ratio: np.ndarray
    alpha_bar: np.ndarray
    rho_bar: np.ndarray
    riskless_rate: np.ndarray
    kappa: np.ndarray
    alpha_tilde: np.ndarray
    rho_tilde: np.ndarray
    vol: np.ndarray
    drift: np.ndarray
    consumptions: np.ndarray
    wealths: np.ndarray
    alpha_tilde_agents: np.ndarray
    portfolios: np.ndarray
    log_levels: np.ndarray

    def __post_init__(self):
        bad = np.flatnonzero(np.abs(self.vol) < VOL_DEGENERACY_TOL)
        if bad.size:
            k = int(bad[0])
            err = DegenerateStockVolatility(float(np.ravel(self.vol)[k]))
            err.grid_index = k
            raise err

    def snapshot_at(self, k) -> EquilibriumSnapshot:
        """Reassemble the per-node record (k = () for a single-state series)."""
        rates = RateBundle(
            alpha_bar=float(self.alpha_bar[k]),
            rho_bar=float(self.rho_bar[k]),
            riskless_rate=float(self.riskless_rate[k]),
            kappa=float(self.kappa[k]),
        )
        stock = StockDynamics(
            alpha_tilde=float(self.alpha_tilde[k]),
            rho_tilde=float(self.rho_tilde[k]),
            vol=float(self.vol[k]),
            drift=float(self.drift[k]),
        )
        return EquilibriumSnapshot(
            state=MarketState(float(self.t[k]), float(self.x[k])),
            dividend=float(self.dividend[k]),
            zeta=float(self.zeta[k]),
            consumptions=tuple(float(v) for v in self.consumptions[k]),
            wealths=tuple(float(v) for v in self.wealths[k]),
            stock_price=float(self.stock_price[k]),
            pd_ratio=float(self.pd_ratio[k]),
            rates=rates,
            stock=stock,
            alpha_tilde_agents=tuple(float(v) for v in self.alpha_tilde_agents[k]),
            portfolios=tuple(float(v) for v in self.portfolios[k]),
        )


def _lse_slabs(u, top: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """out = log sum_j exp(u[j]) over the leading (agent) axis of u, slab by slab.

    The one agent-axis log-sum-exp, plain and max-shifted: top = max_j u[j]
    (NaN propagates), then out = top + log sum_j exp(u[j] - top), summed
    in agent order, and out = top where top is +-inf.  top, out and
    scratch are buffers of a slab's shape; top keeps the maximum.  Every
    step is elementwise, so a slab's layout never changes a bit: the path
    blocks pass contiguous agent slabs, the kernel the transpose of its
    (..., J) terms.
    """
    np.maximum(u[0], u[-1], out=top)
    for slab in u[1:-1]:
        np.maximum(top, slab, out=top)
    with np.errstate(invalid="ignore"):  # inf - inf where top is +-inf
        np.subtract(u[0], top, out=out)
        np.exp(out, out=out)
        for slab in u[1:]:
            np.subtract(slab, top, out=scratch)
            out += np.exp(scratch, out=scratch)
        np.log(out, out=out)
        out += top
    np.copyto(out, top, where=np.isinf(top))
    return out


def _agent_affine(t, params: EconomyParams):
    """The agent log terms' slopes in x and their parts in t.

    u_j = (alpha_j/R) x + c_j(t), with c_j(t) = -(decay_j t + gamma_j)/R
    and decay_j = rho_j + alpha_j^2/2.  Returns alpha/R and c, of shape
    t.shape + (J,).  The kernel and the Monte Carlo path blocks both form
    u as slope times x plus c, so they agree to the bit.
    """
    t = np.asarray(t, dtype=float)
    alpha = params.alpha_vec
    decay = params.rho_vec + 0.5 * alpha**2
    return alpha / params.R, -(decay * t[..., None] + params.gamma_vec) / params.R


def _clearing_logs(t, x, params: EconomyParams):
    """(u, lse u, log delta) at broadcast (t, x): the O(J) market-clearing side.

    u has shape broadcast(t, x).shape + (J,).  log zeta = R (lse u - log
    delta), and log c^j = log delta + u_j - lse u.
    """
    x = np.asarray(x, dtype=float)
    slopes, c = _agent_affine(t, params)
    u = slopes * x[..., None] + c
    top, lse_u, scratch = (np.empty(u.shape[:-1]) for _ in range(3))
    _lse_slabs(u.T, top.T, lse_u.T, scratch.T)
    return u, lse_u, log_dividend(t, x, params)


def _z_shift(params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    """The log Z terms' state-free part, log_offsets - gamma.beta/R, of shape (M,).

    gamma.beta/R is the terms' only gamma-dependent coefficient; it is
    formed here from params, never stored in the table.
    """
    return table.log_offsets - table.parts @ params.gamma_vec / params.R


def _block_map(run_group, n_items: int, per_block: int) -> None:
    """Run range(n_items) in blocks of per_block items, claimed by up to _WORKERS groups.

    run_group(blocks) iterates the slices of the blocks its group claims,
    in block order, from one queue shared under a lock, so a group on a
    core that other load slows takes fewer blocks.  The calling thread
    runs one group; each other group runs on its own thread in a copy of
    the caller's context, which carries the caller's np.errstate (numpy
    keeps it in a context variable; a plain thread would start at numpy's
    defaults).  A group stops at its first exception; once every thread
    has joined, the exception of the lowest-numbered failing block is
    raised, and as blocks are claimed in order that block always runs.
    With one block or one core this starts no thread.  A group must write
    only its own blocks' rows of any shared output, and the numpy calls
    that do the work release the interpreter lock, so the groups overlap.
    """
    starts = range(0, n_items, per_block)
    queue, lock, failures = iter(starts), threading.Lock(), []

    def run():
        claimed = -1

        def blocks():
            nonlocal claimed
            while True:
                with lock:
                    claimed = next(queue, n_items)
                if claimed == n_items:
                    return
                yield slice(claimed, min(claimed + per_block, n_items))

        try:
            run_group(blocks())
        except BaseException as exc:  # handed to the caller after the join
            failures.append((claimed, exc))

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run,))
        for _ in range(min(_WORKERS, len(starts)) - 1)
    ]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _z_pass(t, x, shift, table: DenominatorTable, rows):
    """(top, sums) of the log Z terms at flat nodes (t, x) of shape (nodes, 1).

    Term m at a node is a_m x + shift_m - b_m t, shift from `_z_shift`
    (plus log beta_j in the underflow redo); top = each node's largest
    term and sums = the einsum of the terms' exp(term - top) against
    rows, of shape (nodes, len(rows)).  The terms are streamed in node
    blocks of at most _BLOCK_ELEMENTS (at least one node), which the
    groups of `_block_map` claim, one group per usable core; each group
    refills its own two buffers for every block, so memory is O(groups x
    block + nodes x rows).  Each node's terms, their largest and their
    einsum against the rows do not depend on the other nodes of its
    block, nor on the group that claims it, so neither do the bits.
    """
    n_nodes, per_block = len(t), max(1, _BLOCK_ELEMENTS // shift.size)
    top, sums = np.empty(n_nodes), np.empty((n_nodes, len(rows)))

    def run(blocks):
        terms = np.empty((min(n_nodes, per_block), shift.size))
        scratch = np.empty_like(terms)
        for blk in blocks:
            k = blk.stop - blk.start
            z = np.multiply(table.x_coefs, x[blk], out=terms[:k])
            z += shift
            z -= np.multiply(table.t_coefs, t[blk], out=scratch[:k])
            top[blk] = z.max(axis=-1)
            z -= top[blk, None]
            np.einsum("nm,km->nk", np.exp(z, out=z), rows, out=sums[blk])

    _block_map(run, n_nodes, per_block)
    return top, sums


def _z_side(t, x, params: EconomyParams, table: DenominatorTable):
    """The level-R Z reductions at flat nodes (t, x), of shape (nodes, 1).

    Returns top = the largest log term, the total Z/e^top, alpha_tilde,
    rho_tilde, and per agent (nodes, J): log Z^j, log Z^j - top, the
    wealth share and alpha_tilde^j.  One `_z_pass` reduces the terms
    against the table's rows at every node.  An agent's share below
    tiny/eps has lost bits to underflowed terms; for each such agent a
    second pass, at those nodes only, adds log beta_j to the (M,) shift
    and reduces the terms against the first two rows, in the same ratio
    form: log Z^j = top_j + log s0 - log R and alpha_tilde^j = a0 +
    s1/s0.  The einsum reduces each (node, row) pair along contiguous
    memory wherever M >= 3 + 2J, since the table keeps the rows' longer
    axis contiguous.
    """
    r_curv, n_agents = params.R, params.n_agents
    a0, b0 = table.a0, table.b0
    shift = _z_shift(params, table)
    top, sums = _z_pass(t, x, shift, table, table.rows)

    total, z_beta = sums[:, 0], sums[:, 3 : 3 + n_agents]
    alpha_tilde, rho_tilde = a0 + sums[:, 1] / total, b0 + sums[:, 2] / total
    share = z_beta / (r_curv * sums[:, :1])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_zj_rel = np.log(z_beta / r_curv)  # log Z^j - top
        log_zj = top[:, None] + log_zj_rel
        at_agents = a0 + sums[:, 3 + n_agents :] / z_beta
    low = share < _FULL_PRECISION_SHARE
    for j in np.flatnonzero(low.any(axis=0)):
        nodes = np.flatnonzero(low[:, j])
        with np.errstate(divide="ignore"):  # the terms without agent j are exp(-inf) = 0
            shift_j = shift + np.log(table.parts[:, j])
        top_j, sums_j = _z_pass(t[nodes], x[nodes], shift_j, table, table.rows[:2])
        log_zj[nodes, j] = top_j + np.log(sums_j[:, 0]) - np.log(r_curv)
        log_zj_rel[nodes, j] = log_zj[nodes, j] - top[nodes]
        share[nodes, j] = np.exp(log_zj_rel[nodes, j] - np.log(total[nodes]))
        at_agents[nodes, j] = a0 + sums_j[:, 1] / sums_j[:, 0]
    return top, total, alpha_tilde, rho_tilde, log_zj, log_zj_rel, share, at_agents


def evaluate_fields(t, x, params: EconomyParams, table: DenominatorTable) -> dict:
    """Every `EvaluatedSeries` field at broadcast (t, x).

    The L side is O(J): under the L weights beta is multinomial(R, p) with
    p = softmax(u).  The Z side is one pass over the level-R Z terms, taken
    against the largest one and reduced against the table's rows [1, a,
    b - a^2/2, beta, beta a]; by Pascal's rule the beta rows give the
    wealth shares E_Z[beta_j]/R and alpha_tilde^j.  Where an agent's share
    has underflowed below tiny/eps, the same pass runs again at just those
    nodes on the terms plus log beta_j (see `_z_side`).  A pass streams
    node blocks of at most _BLOCK_ELEMENTS (65,536) terms, which one group
    per usable core claims in turn from `_block_map` (a single block runs
    inline), so memory is O(cores x block + nodes J) at any M.  einsum,
    not a BLAS product, reduces each (node, row) pair along contiguous
    memory (the table stores the rows' longer axis contiguous), in the
    same order at one state, along a path, in any block and on any
    thread, so the bits depend neither on the blocking nor on the cores
    or BLAS threads.  The entry `log_levels` stacks the logs [log L, log zeta,
    log Z, log S, log Z^1 .. log Z^J] that the levels are exponentiated
    from; the finite-difference oracle differentiates every column in one
    stencil.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    r_curv, sigma, n_agents = params.R, params.sigma, params.n_agents

    u, lse_u, log_delta = _clearing_logs(t, x, params)
    log_zeta = r_curv * (lse_u - log_delta)
    log_c = log_delta[..., None] + u - lse_u[..., None]
    p = np.exp(u - lse_u[..., None])
    alpha_bar = np.einsum("...j,j->...", p, params.alpha_vec)
    spread = (0.5 - 0.5 / r_curv) * (params.alpha_vec - alpha_bar[..., None]) ** 2
    rho_bar = np.einsum("...j,...j->...", p, params.rho_vec + spread)

    z_side = _z_side(t.reshape(-1, 1), x.reshape(-1, 1), params, table)
    top, total, alpha_tilde, rho_tilde = (v.reshape(t.shape)[()] for v in z_side[:4])
    log_zj, log_zj_rel, share, at_agents = (v.reshape(t.shape + (n_agents,)) for v in z_side[4:])

    riskless = (
        rho_bar
        + r_curv * sigma * (params.alpha_star + alpha_bar)
        - sigma**2 * r_curv * (r_curv + 1) / 2
    )
    vol = sigma + alpha_tilde - alpha_bar
    drift = (
        rho_bar
        - rho_tilde
        + sigma * params.alpha_star
        + (alpha_tilde - alpha_bar) * (sigma - alpha_bar)
    )
    log_z = top + np.log(total)
    prefactor = (1 - r_curv) * log_delta - log_zeta
    # Levels beyond the float range are inf by design.  A vanishing vol gives
    # inf portfolios; EvaluatedSeries rejects them, while the kernel's
    # coefficients stay usable at that state.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_s = prefactor + log_z
        return dict(
            t=t,
            x=x,
            dividend=np.exp(log_delta),
            zeta=np.exp(log_zeta),
            stock_price=np.exp(log_s),
            pd_ratio=np.exp(log_z - r_curv * lse_u),
            alpha_bar=alpha_bar,
            rho_bar=rho_bar,
            riskless_rate=riskless,
            kappa=r_curv * sigma - alpha_bar,
            alpha_tilde=alpha_tilde,
            rho_tilde=rho_tilde,
            vol=vol,
            drift=drift,
            consumptions=np.exp(log_c),
            # the nearly cancelling prefactor and top meet before an agent's offset
            wealths=np.exp((prefactor + top)[..., None] + log_zj_rel),
            alpha_tilde_agents=at_agents,
            portfolios=share * ((sigma + at_agents - alpha_bar[..., None]) / vol[..., None]),
            log_levels=np.concatenate(
                [np.stack([r_curv * lse_u, log_zeta, log_z, log_s], axis=-1), log_zj], axis=-1
            ),
        )


# --- one state -----------------------------------------------------------------


def state_price_density(state: MarketState, params: EconomyParams) -> float:
    """zeta_t, evaluated in log-space."""
    _, lse_u, log_delta = _clearing_logs(state.t, state.x, params)
    return float(np.exp(params.R * (lse_u - log_delta)))


def consumptions(state: MarketState, params: EconomyParams) -> tuple[float, ...]:
    """All agents' consumptions; they sum to the dividend by construction.

    Each c^j is exponentiated from log delta + log share so that a tiny
    share at an extreme state underflows only if c^j itself is below the
    float range, not because share * delta rounds to zero.
    """
    u, lse_u, log_delta = _clearing_logs(state.t, state.x, params)
    log_c = log_delta + u - lse_u
    return tuple(float(v) for v in np.exp(log_c))


def snapshot(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> EquilibriumSnapshot:
    """Bundle levels and dynamics at one state into a single record."""
    return EvaluatedSeries(**evaluate_fields(state.t, state.x, params, table)).snapshot_at(())
