import numpy as np

from crraeq.model import Agent, EconomyParams, validate


def draw_economy(rng, max_agents=4, max_r=6, min_denominator=0.0):
    """Rejection-sample a validated economy; returns (params, table)."""
    while True:
        j = int(rng.integers(1, max_agents + 1))
        p = EconomyParams(
            R=int(rng.integers(2, max_r + 1)),
            sigma=float(rng.uniform(0.05, 0.35)),
            alpha_star=float(rng.uniform(-0.3, 0.3)),
            delta0=float(rng.uniform(0.5, 2.0)),
            agents=tuple(
                Agent(
                    rho=float(rng.uniform(0.05, 0.9)),
                    alpha=float(rng.uniform(-1.0, 1.0)),
                    gamma=float(rng.uniform(-1.0, 1.0)),
                )
                for _ in range(j)
            ),
        )
        try:
            tab = validate(p)
        except Exception:
            continue
        if tab.min_denominator >= min_denominator:
            return p, tab


def ladder(r, j):
    """The R, J economy with rho_k = 0.8 + 0.05 k and alpha spread over [-0.2, 0.2]."""
    agents = tuple(Agent(0.8 + 0.05 * (k + 1), -0.2 + 0.4 * k / (j - 1), 0.0) for k in range(j))
    return EconomyParams(R=r, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=agents)


def draw_state(rng, max_t=10.0, max_abs_x=5.0):
    from crraeq.model import MarketState

    return MarketState(
        float(rng.uniform(0.0, max_t)), float(rng.uniform(-max_abs_x, max_abs_x))
    )
