"""Ito-expansion coefficients: rates, stock dynamics, and portfolios.

The clearing sum L_t and the price sums Z_t, Z_t^j are all weighted sums
of exponentials over the compositions beta of R, so their Ito expansions
reduce to weighted averages of the per-composition coefficients:

    alpha_bar = E_L[a(beta)]          rho_bar = E_L[b(beta) - a(beta)^2/2]
    alpha_tilde = E_Z[a(beta)]        rho_tilde = E_Z[b(beta) - a(beta)^2/2]
    alpha_tilde^j = E_Z[beta_j a(beta)] / E_Z[beta_j]

with a = alpha.beta/R, b = rho.beta/R + alpha^2.beta/(2R), and E_L, E_Z
the normalized weights of the L- and Z-terms.  Under E_L, beta is
multinomial(R, p) with p the consumption shares, so alpha_bar = alpha.p
and rho_bar = rho.p + (1 - 1/R) Var_p(alpha)/2 in O(J).  From these,

    r     = rho_bar + R sigma (alpha_star + alpha_bar) - sigma^2 R(R+1)/2
    kappa = R sigma - alpha_bar
    sigma^S = sigma + alpha_tilde - alpha_bar
    mu^S  = rho_bar - rho_tilde + sigma alpha_star
            + (alpha_tilde - alpha_bar)(sigma - alpha_bar)

and agent j's risky fraction is
pi^j = w^j (sigma + alpha_tilde^j - alpha_bar) / (S (sigma + alpha_tilde - alpha_bar)).

Weighted averages are taken against the largest term, never as ratios
of separately exponentiated sums, so they stay accurate when the terms
span hundreds of log-units.  `equilibrium.evaluate_fields` computes the
coefficients together with the levels; read them at one state from
`equilibrium.snapshot` (`.rates`, `.stock`, `.alpha_tilde_agents`,
`.portfolios`) and along a path from `simulate.evaluate_series`.  This
module holds no code: it re-exports the coefficient records.
"""

from __future__ import annotations

# re-exported: the coefficient records live with the kernel
from .equilibrium import DegenerateStockVolatility, RateBundle, StockDynamics

__all__ = ["DegenerateStockVolatility", "RateBundle", "StockDynamics"]
