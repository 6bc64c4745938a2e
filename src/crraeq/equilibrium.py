"""Closed-form equilibrium quantities at a market state: levels and Ito coefficients.

Everything here is an exact function of (t, X_t).  The state price
density comes straight from market clearing,

    zeta_t = delta_t^{-R} ( sum_i (e^{-rho_i t} Lambda_t^i / nu_i)^{1/R} )^R,

consumptions are the softmax split of the dividend across the agents'
per-curvature log terms, and wealths/stock price come from the
multinomial expansion of the clearing sum: sums over compositions beta
of weighted exponentials divided by D(beta).  The Ito coefficients of
those sums are softmax-weighted moments of the same composition log
terms (see the dynamics module for the formulas).  All accumulation is
in log-space (logsumexp / softmax); naive exponentials overflow for |x|
or t in the hundreds, which are perfectly ordinary states for
long-horizon paths.

`evaluate_fields` is the one kernel: it builds the level-R log-term
matrix once and each agent's level R-1 block once, and returns every
field of `EvaluatedSeries` at broadcast (t, x).  The series, the
snapshot and the scalar functions are views of it.  The `log_*_arr`
level fields broadcast over array-valued (t, x) too; the
finite-difference oracle differentiates them and the simulation oracles
reuse them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .model import (
    DenominatorTable,
    EconomyParams,
    MarketState,
    ModelError,
    log_dividend,
)

VOL_DEGENERACY_TOL = 1e-12

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


def _log_terms(t, x, log_coeffs, x_coefs, g, t_coefs) -> np.ndarray:
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    return log_coeffs + x_coefs * x - g - t_coefs * t


def comp_log_terms_arr(t, x, params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    """Log of each |beta|=R term of L_t: logC + a x - g - b t, shape (..., M).

    g = gamma.beta/R is the only gamma-dependent coefficient; it is formed
    here from params, never stored in the table.
    """
    g = table.parts @ params.gamma_vec / params.R
    return _log_terms(t, x, table.log_coeffs, table.x_coefs, g, table.t_coefs)


def agent_comp_log_terms_arr(
    t, x, params: EconomyParams, table: DenominatorTable, j: int
) -> np.ndarray:
    """Log of each |beta'|=R-1 term of agent j's wealth sum (before 1/D), (..., M')."""
    rows = table.lift[j]
    g = table.parts @ params.gamma_vec / params.R
    return _log_terms(
        t, x, table.log_coeffs_rm1, table.x_coefs[rows], g[rows], table.t_coefs[rows]
    )


def log_L_arr(t, x, params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    return logsumexp(comp_log_terms_arr(t, x, params, table), axis=-1)


def log_Z_arr(t, x, params: EconomyParams, table: DenominatorTable) -> np.ndarray:
    terms = comp_log_terms_arr(t, x, params, table)
    return logsumexp(terms - np.log(table.d_values), axis=-1)


def log_Z_agent_arr(
    t, x, params: EconomyParams, table: DenominatorTable, j: int
) -> np.ndarray:
    terms = agent_comp_log_terms_arr(t, x, params, table, j)
    return logsumexp(terms - np.log(table.d_values_for(j)), axis=-1)


def log_stock_price_arr(t, x, params: EconomyParams, table: DenominatorTable):
    """log S = (1-R) log delta - log zeta + log Z."""
    ld = log_dividend(t, x, params)
    return (
        (1 - params.R) * ld
        - log_state_price_density_arr(t, x, params)
        + log_Z_arr(t, x, params, table)
    )


def _moments(log_terms: np.ndarray, x_coefs: np.ndarray, t_coefs: np.ndarray):
    """Softmax-weighted averages of a(beta) and b(beta) - a(beta)^2/2."""
    w = softmax(log_terms, axis=-1)
    return w @ x_coefs, w @ (t_coefs - 0.5 * x_coefs**2)


def evaluate_fields(t, x, params: EconomyParams, table: DenominatorTable) -> dict:
    """Every `EvaluatedSeries` field but the grid, at broadcast (t, x).

    Each (..., M) log-term matrix is built once and reduced in place: the
    L-weighted moments come first, then log D is subtracted for the
    Z-weighted moments and log Z.  Agent blocks are handled one at a time
    so at most one of them is alive.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    r_curv, sigma = params.R, params.sigma

    u = agent_log_terms_arr(t, x, params)
    lse_u = logsumexp(u, axis=-1)
    log_delta = log_dividend(t, x, params)
    log_zeta = r_curv * (lse_u - log_delta)
    log_c = log_delta[..., None] + u - lse_u[..., None]

    terms = comp_log_terms_arr(t, x, params, table)
    alpha_bar, rho_bar = _moments(terms, table.x_coefs, table.t_coefs)
    terms -= np.log(table.d_values)
    log_z = logsumexp(terms, axis=-1)
    alpha_tilde, rho_tilde = _moments(terms, table.x_coefs, table.t_coefs)
    del terms

    log_w = np.empty(u.shape)
    at_agents = np.empty(u.shape)
    for j in range(params.n_agents):
        terms = agent_comp_log_terms_arr(t, x, params, table, j)
        terms -= np.log(table.d_values_for(j))
        log_w[..., j] = (1 - r_curv) * log_delta - log_zeta + logsumexp(terms, axis=-1)
        at_agents[..., j] = softmax(terms, axis=-1) @ table.x_coefs_for(j)
        del terms

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
    log_s = (1 - r_curv) * log_delta - log_zeta + log_z
    # pi^j from the wealth/price ratio in log-space: extreme states keep working.
    # A vanishing vol gives inf here; EvaluatedSeries rejects it, while the
    # coefficient views stay usable at that state.
    with np.errstate(divide="ignore", invalid="ignore"):
        portfolios = np.exp(log_w - log_s[..., None]) * (
            (sigma + at_agents - alpha_bar[..., None]) / vol[..., None]
        )
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
        wealths=np.exp(log_w),
        alpha_tilde_agents=at_agents,
        portfolios=portfolios,
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
