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
    validate,
)
from .multiindex import (
    CompositionCapExceeded,
    composition_count,
    enumerate_compositions,
    log_multinomial_coefficient,
)
from .equilibrium import EquilibriumSnapshot, consumptions, snapshot, state_price_density
from .dynamics import DegenerateStockVolatility, RateBundle, StockDynamics

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
    "composition_count",
    "consumptions",
    "dividend",
    "economy_from_dict",
    "enumerate_compositions",
    "log_multinomial_coefficient",
    "snapshot",
    "state_price_density",
    "validate",
]

__version__ = "0.1.0"
