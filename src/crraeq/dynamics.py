"""Ito-expansion coefficients: rates, stock dynamics, and portfolios.

The clearing sum L_t and the price sums Z_t, Z_t^j are all weighted sums
of exponentials over compositions, so their Ito expansions reduce to
weighted averages of the per-composition coefficients:

    alpha_bar = E_L[a(beta)]          rho_bar = E_L[b(beta) - a(beta)^2/2]
    alpha_tilde = E_Z[a(beta)]        rho_tilde = E_Z[b(beta) - a(beta)^2/2]

with a = alpha.beta/R, b = rho.beta/R + alpha^2.beta/(2R), and E_L, E_Z
the softmax weights of the L- and Z-log-terms.  From these,

    r     = rho_bar + R sigma (alpha_star + alpha_bar) - sigma^2 R(R+1)/2
    kappa = R sigma - alpha_bar
    sigma^S = sigma + alpha_tilde - alpha_bar
    mu^S  = rho_bar - rho_tilde + sigma alpha_star
            + (alpha_tilde - alpha_bar)(sigma - alpha_bar)

and agent j's risky fraction is
pi^j = w^j (sigma + alpha_tilde^j - alpha_bar) / (S (sigma + alpha_tilde - alpha_bar)).

Weighted averages always use normalized softmax weights, never ratios of
two separately accumulated sums, so they stay accurate when the terms
span hundreds of log-units.  The coefficients are computed, together
with the levels, by `equilibrium.evaluate_fields`; the functions here
are its views at one state.
"""

from __future__ import annotations

from . import equilibrium
# re-exported: the coefficient records live with the kernel
from .equilibrium import DegenerateStockVolatility, RateBundle, StockDynamics
from .model import DenominatorTable, EconomyParams, MarketState


def rate_bundle(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> RateBundle:
    """alpha_bar, rho_bar, riskless rate, and market price of risk at a state."""
    f = equilibrium.evaluate_fields(state.t, state.x, params, table)
    return RateBundle(
        alpha_bar=float(f["alpha_bar"]),
        rho_bar=float(f["rho_bar"]),
        riskless_rate=float(f["riskless_rate"]),
        kappa=float(f["kappa"]),
    )


def stock_dynamics(
    state: MarketState, params: EconomyParams, table: DenominatorTable
) -> StockDynamics:
    """alpha_tilde, rho_tilde, stock volatility, and stock drift at a state."""
    f = equilibrium.evaluate_fields(state.t, state.x, params, table)
    return StockDynamics(
        alpha_tilde=float(f["alpha_tilde"]),
        rho_tilde=float(f["rho_tilde"]),
        vol=float(f["vol"]),
        drift=float(f["drift"]),
    )


def agent_dynamics(
    state: MarketState, params: EconomyParams, table: DenominatorTable, j: int
) -> float:
    """alpha_tilde^j, the x-loading of agent j's wealth sum Z^j."""
    f = equilibrium.evaluate_fields(state.t, state.x, params, table)
    return float(f["alpha_tilde_agents"][j])


def portfolio(
    state: MarketState, params: EconomyParams, table: DenominatorTable, j: int
) -> float:
    """Fraction of the risky asset held by agent j (the pi^j of the budget split)."""
    return equilibrium.snapshot(state, params, table).portfolios[j]
