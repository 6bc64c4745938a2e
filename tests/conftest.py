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


def same_bits(a, b):
    """True when a and b have the same shape and the same float64 bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def ladder(r, j):
    """The R, J economy with rho_k = 0.8 + 0.05 k and alpha spread over [-0.2, 0.2]."""
    agents = tuple(Agent(0.8 + 0.05 * (k + 1), -0.2 + 0.4 * k / (j - 1), 0.0) for k in range(j))
    return EconomyParams(R=r, sigma=0.1, alpha_star=0.0, delta0=1.0, agents=agents)


def draw_state(rng, max_t=10.0, max_abs_x=5.0):
    from crraeq.model import MarketState

    return MarketState(
        float(rng.uniform(0.0, max_t)), float(rng.uniform(-max_abs_x, max_abs_x))
    )


def clearing_reference(t, x, params):
    """The paper's clearing-side logs at broadcast (t, x), formed here from the data.

    Returns u, shape broadcast(t, x).shape + (J,), with agent i's exponent
    u_i = (alpha_i x - (rho_i + alpha_i^2/2) t - gamma_i)/R, and
    log delta = log delta0 + sigma x + (alpha_star sigma - sigma^2/2) t.
    """
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    rho = np.array([a.rho for a in params.agents])
    alpha = np.array([a.alpha for a in params.agents])
    gamma = np.array([a.gamma for a in params.agents])
    u = (alpha * x - (rho + alpha**2 / 2) * t - gamma) / params.R
    sigma = params.sigma
    log_delta = np.log(params.delta0) + sigma * x + (params.alpha_star * sigma - sigma**2 / 2) * t
    return u, log_delta[..., 0]


def log_z_terms(t, x, params, table):
    """Log of each |beta| = R term of Z_t at broadcast (t, x), shape (..., M).

    log C(beta) - log D(beta) + a x - gamma.beta/R - b t, with gamma
    formed here from the agents.  The tests' reference for the terms the
    kernel reduces: its order of operations is the kernel's fill, so the
    bits are too.
    """
    t = np.asarray(t, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    gamma = np.array([a.gamma for a in params.agents])
    shift = table.log_offsets - table.parts @ gamma / params.R
    return table.x_coefs * x + shift - table.t_coefs * t
