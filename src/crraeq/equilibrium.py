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

`evaluate_fields` is the one kernel; the series, the snapshot and the
scalar functions are views of it.  The `log_*_arr` level fields
broadcast over array-valued (t, x) too, for the finite-difference and
simulation oracles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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

# fault-injection hook: the verification suite's self-test sets this to a
# nonzero value and expects the finite-difference checks to flag the rate;
# it is read once, at import
RATE_BIAS_ENV = "CRRAEQ_INJECT_RATE_BIAS"
_RATE_BIAS = float(os.environ.get(RATE_BIAS_ENV) or 0.0)


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
    rates: "object"
    stock: "object"
    alpha_tilde_agents: tuple[float, ...]
    portfolios: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class EvaluatedSeries:
    """Every closed-form quantity along one path; arrays indexed by grid node.

    Per-agent arrays have shape (n_nodes, J), agent order as in params.
    A series evaluated at a single state has no grid (None) and 0-d
    arrays.  Portfolios are undefined where the stock volatility
    vanishes, so building a series with such a node raises
    DegenerateStockVolatility carrying the node's `grid_index`.
    """

    grid: "object"
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


def agent_log_terms_arr(t, x, params: EconomyParams) -> np.ndarray:
    """Per-agent exponent u_i = (-rho_i t - gamma_i + alpha_i x - alpha_i^2 t/2)/R.

    Shapes: t, x broadcastable; returns broadcast(t, x).shape + (J,).
    """
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    alpha = params.alpha_vec
    decay = params.rho_vec + 0.5 * alpha**2
    return (alpha * x - decay * t - params.gamma_vec) / params.R


def log_state_price_density_arr(t, x, params: EconomyParams) -> np.ndarray:
    u = agent_log_terms_arr(t, x, params)
    return params.R * (logsumexp(u, axis=-1) - log_dividend(t, x, params))


def log_z_terms_arr(t, x, params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    """Log of each |beta|=R term of Z_t: logC - log D + a x - g - b t, shape (..., M).

    g = gamma.beta/R is the only gamma-dependent coefficient; it is formed
    here from params, never stored in the table.
    """
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    g = table.parts @ params.gamma_vec / params.R
    terms = table.x_coefs * x + (table.log_coeffs - np.log(table.d_values) - g)
    terms -= table.t_coefs * t
    return terms


def log_L_arr(t, x, params: EconomyParams) -> np.ndarray:
    """log L = R logsumexp_i u_i, the multinomial theorem applied to the clearing sum."""
    return params.R * logsumexp(agent_log_terms_arr(t, x, params), axis=-1)


def log_Z_arr(t, x, params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    return logsumexp(log_z_terms_arr(t, x, params, table), axis=-1)


def log_Z_agent_arr(
    t, x, params: EconomyParams, table: DenominatorTable, j: int
) -> np.ndarray:
    """log Z^j: the Z terms weighted by beta_j/R (Pascal's rule)."""
    terms = log_z_terms_arr(t, x, params, table)
    return logsumexp(terms, axis=-1, b=table.parts[:, j] / params.R)


def log_stock_price_arr(t, x, params: EconomyParams, table: DenominatorTable):
    """log S = (1-R) log delta - log zeta + log Z."""
    ld = log_dividend(t, x, params)
    return (
        (1 - params.R) * ld
        - log_state_price_density_arr(t, x, params)
        + log_Z_arr(t, x, params, table)
    )


def evaluate_fields(t, x, params: EconomyParams, table: DenominatorTable) -> dict:
    """Every `EvaluatedSeries` field but the grid, at broadcast (t, x).

    The L side is O(J): under the L weights beta is multinomial(R, p) with
    p = softmax(u).  The Z side is one pass over the level-R Z terms, taken
    against the largest one and reduced against the rows [1, a, b - a^2/2,
    beta, beta a]; by Pascal's rule the beta rows give the wealth shares
    E_Z[beta_j]/R and alpha_tilde^j.  einsum reduces in the same order at
    one state and along a path, so the two agree to the bit.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    r_curv, sigma, n_agents = params.R, params.sigma, params.n_agents

    u = agent_log_terms_arr(t, x, params)
    lse_u = logsumexp(u, axis=-1)
    log_delta = log_dividend(t, x, params)
    log_zeta = r_curv * (lse_u - log_delta)
    log_c = log_delta[..., None] + u - lse_u[..., None]
    p = np.exp(u - lse_u[..., None])
    alpha_bar = np.einsum("...j,j->...", p, params.alpha_vec)
    spread = (0.5 - 0.5 / r_curv) * (params.alpha_vec - alpha_bar[..., None]) ** 2
    rho_bar = np.einsum("...j,...j->...", p, params.rho_vec + spread)

    # a and b are centred on their midrange, so the sums round at their
    # spread rather than at their size (which the discount rates set)
    a, beta = table.x_coefs, table.parts.T
    b = table.t_coefs - 0.5 * a**2
    a0, b0 = 0.5 * (a.max() + a.min()), 0.5 * (b.max() + b.min())
    coefs = np.vstack([np.ones_like(a), a - a0, b - b0, beta, beta * (a - a0)])
    terms = log_z_terms_arr(t, x, params, table)
    top = terms.max(axis=-1)
    terms -= top[..., None]
    sums = np.einsum("...m,km->...k", np.exp(terms, out=terms), coefs)
    total, z_beta = sums[..., 0], sums[..., 3 : 3 + n_agents]
    alpha_tilde, rho_tilde = a0 + sums[..., 1] / total, b0 + sums[..., 2] / total
    share = z_beta / (r_curv * total[..., None])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_zj_rel = np.log(z_beta / r_curv)  # log Z^j - top
        at_agents = a0 + sums[..., 3 + n_agents :] / z_beta

    # a share below tiny/eps has lost bits to underflowed terms: redo that
    # agent's sums in log space, masked to beta_j > 0, at those nodes only
    for j in range(n_agents):
        nodes = share[..., j] < _FULL_PRECISION_SHARE
        if nodes.any():
            with np.errstate(divide="ignore"):
                sub = log_z_terms_arr(t[nodes], x[nodes], params, table) + np.log(beta[j])
            lse_j = logsumexp(sub, axis=-1)
            log_zj_rel[..., j][nodes] = lse_j - np.log(r_curv) - top[nodes]
            share[..., j][nodes] = np.exp(log_zj_rel[..., j][nodes] - np.log(total[nodes]))
            weights = np.exp(sub - lse_j[..., None])
            at_agents[..., j][nodes] = a0 + np.einsum("...m,m->...", weights, a - a0)

    riskless = (
        rho_bar
        + r_curv * sigma * (params.alpha_star + alpha_bar)
        - sigma**2 * r_curv * (r_curv + 1) / 2
        + _RATE_BIAS
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
    # inf portfolios; EvaluatedSeries rejects them, while the coefficient
    # views stay usable at that state.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return dict(
            t=t,
            x=x,
            dividend=np.exp(log_delta),
            zeta=np.exp(log_zeta),
            stock_price=np.exp(prefactor + log_z),
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
        )


# --- scalar operations -------------------------------------------------------


def state_price_density(state: MarketState, params: EconomyParams) -> float:
    """zeta_t, evaluated in log-space."""
    return float(np.exp(log_state_price_density_arr(state.t, state.x, params)))


def consumption(state: MarketState, params: EconomyParams, j: int) -> float:
    """Agent j's consumption c_t^j = delta_t * (softmax share of agent j)."""
    return consumptions(state, params)[j]


def consumptions(state: MarketState, params: EconomyParams) -> tuple[float, ...]:
    """All agents' consumptions; they sum to the dividend by construction.

    Each c^j is exponentiated from log delta + log share so that a tiny
    share at an extreme state underflows only if c^j itself is below the
    float range, not because share * delta rounds to zero.
    """
    u = agent_log_terms_arr(state.t, state.x, params)
    log_c = log_dividend(state.t, state.x, params) + u - logsumexp(u, axis=-1)
    return tuple(float(v) for v in np.exp(log_c))


def wealth(
    state: MarketState, params: EconomyParams, table: DenominatorTable, j: int
) -> float:
    """Agent j's wealth: delta^{1-R} zeta^{-1} times the composition sum of R-1."""
    return float(evaluate_fields(state.t, state.x, params, table)["wealths"][j])


def wealths(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> tuple[float, ...]:
    fields = evaluate_fields(state.t, state.x, params, table)
    return tuple(float(v) for v in fields["wealths"])


def stock_price(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> float:
    """S_t = delta^{1-R} zeta^{-1} Z_t; equals the sum of agent wealths."""
    return float(evaluate_fields(state.t, state.x, params, table)["stock_price"])


def pd_ratio(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> float:
    """Price-dividend ratio S_t/delta_t = Z_t / (sum_i e^{u_i})^R."""
    return float(evaluate_fields(state.t, state.x, params, table)["pd_ratio"])


def snapshot(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> EquilibriumSnapshot:
    """Bundle levels and dynamics at one state into a single record."""
    fields = evaluate_fields(state.t, state.x, params, table)
    return EvaluatedSeries(grid=None, **fields).snapshot_at(())
