"""Level R-1 wealth sums, listed on their own: the oracle for the wealth kernel.

The kernel reads every agent's wealth sum off the level-R composition sum
through Pascal's rule, C(R-1, beta - e_j) = C(R, beta) beta_j / R.  This
module sums the paper's form instead,

    Z^j = sum_{|beta'| = R-1} C(R-1, beta') e^{u.(beta' + e_j)} / D(beta' + e_j),

over its own listing of the compositions of R-1, with exact integer
multinomial coefficients and denominators evaluated from the formula,
never from the package's composition table.  Building a block also
checks the two facts the kernel relies on: beta' -> beta' + e_j is a
bijection onto the level-R compositions with beta_j >= 1, and the
coefficient identity holds exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp, softmax

from crraeq.equilibrium import log_state_price_density_arr
from crraeq.model import log_dividend
from crraeq.multiindex import enumerate_compositions


def exact_multinomial(parts) -> int:
    """|beta|! / prod_i beta_i! in exact integers."""
    num = math.factorial(sum(parts))
    for b in parts:
        num //= math.factorial(b)
    return num


def denominator(params, beta: np.ndarray) -> np.ndarray:
    """D(beta) from its definition, for compositions along the last axis."""
    rho, alpha, r, sigma = params.rho_vec, params.alpha_vec, params.R, params.sigma
    a = beta @ alpha / r
    return (
        beta @ (rho + alpha**2 / 2) / r
        + (sigma**2 / 2 - params.alpha_star * sigma) * (1 - r)
        - (a + (1 - r) * sigma) ** 2 / 2
    )


def lifted_block(params, j: int):
    """Agent j's level R-1 block: (beta' + e_j, log C(R-1, beta'), D(beta' + e_j))."""
    r, n = params.R, params.n_agents
    parts_rm1 = enumerate_compositions(n, r - 1)
    lifted = parts_rm1 + np.eye(n, dtype=np.int64)[j]
    level_r = {tuple(c) for c in enumerate_compositions(n, r).tolist() if c[j] >= 1}
    lifted_set = {tuple(c) for c in lifted.tolist()}
    assert len(lifted_set) == len(lifted) and lifted_set == level_r

    coeffs = [exact_multinomial(c) for c in parts_rm1.tolist()]
    for c, beta in zip(coeffs, lifted.tolist()):
        assert c * r == exact_multinomial(beta) * beta[j]
    return lifted, np.log(np.array(coeffs, dtype=float)), denominator(params, lifted)


def agent_fields(params, t, x):
    """(wealths, alpha_tilde^j) at broadcast (t, x), each of shape (..., J)."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    r, alpha = params.R, params.alpha_vec
    prefactor = (1 - r) * log_dividend(t, x, params) - log_state_price_density_arr(t, x, params)
    shape = t.shape + (params.n_agents,)
    log_w = np.empty(shape)
    alpha_tilde = np.empty(shape)
    for j in range(params.n_agents):
        lifted, log_c, d = lifted_block(params, j)
        # exponent u.beta, grouped as x, t and gamma loadings
        a = lifted @ alpha / r
        b = lifted @ params.rho_vec / r + lifted @ (alpha**2) / (2 * r)
        g = lifted @ params.gamma_vec / r
        terms = a * x[..., None] + (log_c - np.log(d) - g) - b * t[..., None]
        log_w[..., j] = prefactor + logsumexp(terms, axis=-1)
        alpha_tilde[..., j] = softmax(terms, axis=-1) @ a
    with np.errstate(over="ignore"):
        return np.exp(log_w), alpha_tilde
