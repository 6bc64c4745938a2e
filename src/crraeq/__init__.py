"""Closed-form equilibrium of a diverse-beliefs CRRA exchange economy.

J agents with power utility of common integer curvature R >= 2,
heterogeneous discount rates, belief loadings, and Pareto weights, trade
a lognormal-dividend stock and a riskless bond.  The package evaluates
the equilibrium in closed form (state price density, consumptions,
wealths, stock price, rates, volatilities, portfolios) and ships the
Monte Carlo and finite-difference oracles that verify every formula.
"""

from .model import (
    Agent,
    ConfigError,
    DenominatorTable,
    EconomyParams,
    MarketState,
    ModelError,
    NonpositiveDenominator,
    dividend,
    economy_from_dict,
    lambda_j,
    validate,
)
from .multiindex import (
    CompositionCapExceeded,
    composition_count,
    enumerate_compositions,
    log_multinomial_coefficient,
)
from .equilibrium import (
    EquilibriumSnapshot,
    consumption,
    consumptions,
    pd_ratio,
    snapshot,
    state_price_density,
    stock_price,
    wealth,
    wealths,
)
from .dynamics import (
    DegenerateStockVolatility,
    RateBundle,
    StockDynamics,
    agent_dynamics,
    portfolio,
    rate_bundle,
    stock_dynamics,
)

__all__ = [
    "Agent",
    "CompositionCapExceeded",
    "ConfigError",
    "DegenerateStockVolatility",
    "DenominatorTable",
    "EconomyParams",
    "EquilibriumSnapshot",
    "MarketState",
    "ModelError",
    "NonpositiveDenominator",
    "RateBundle",
    "StockDynamics",
    "agent_dynamics",
    "composition_count",
    "consumption",
    "consumptions",
    "dividend",
    "economy_from_dict",
    "enumerate_compositions",
    "lambda_j",
    "log_multinomial_coefficient",
    "pd_ratio",
    "portfolio",
    "rate_bundle",
    "snapshot",
    "state_price_density",
    "stock_dynamics",
    "stock_price",
    "validate",
    "wealth",
    "wealths",
]

__version__ = "0.1.0"
