"""Solve for agent log-weights gamma matching target initial wealth shares.

The model treats the weights nu_j = e^{gamma_j} as primitives;
applications specify endowments instead.  This module inverts the map
gamma -> (w_0^j / S_0)_j.  Shares are invariant to a common shift in
gamma (it rescales zeta only), so the solution is pinned down by the
normalization sum gamma_j = 0.

The iteration is a damped fixed point

    gamma_j <- gamma_j + 0.5 R log(current share_j / target share_j)

motivated by the single-composition limit where share_j is proportional
to exp(-gamma_j / R) at the initial state.  If progress stalls, a
finite-difference Newton step on the share map (restricted to the
zero-sum subspace) takes over.  Each share map evaluation is one pass
over the level-R Z terms: by Pascal's rule share_j = E_Z[beta_j] / R.
The composition table does not involve gamma, so the economy is
validated once and every iterate is evaluated on that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import softmax

from . import equilibrium
from .model import DenominatorTable, EconomyParams, MarketState, validate


class NoConvergence(Exception):
    """Target shares were not matched within tolerance by max_iter."""

    def __init__(self, max_iter: int, residual: float):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(
            f"share residual {residual:.3e} after {max_iter} iterations; "
            "targets may be unattainable for this economy"
        )


@dataclass(frozen=True)
class CalibrationTarget:
    """Target initial wealth shares w_0^j / S_0, evaluated at the initial state."""

    shares: tuple[float, ...]
    state: MarketState = field(default_factory=lambda: MarketState(0.0, 0.0))

    def __post_init__(self):
        object.__setattr__(self, "shares", tuple(float(s) for s in self.shares))
        if not self.shares:
            raise ValueError("need at least one share")
        if any(not (0.0 < s < 1.0) for s in self.shares) and self.shares != (1.0,):
            raise ValueError(f"shares must lie in (0,1), got {self.shares}")
        if abs(sum(self.shares) - 1.0) > 1e-12:
            raise ValueError(f"shares must sum to 1, got sum {sum(self.shares)!r}")


def wealth_shares(
    params: EconomyParams, table: DenominatorTable, state: MarketState
) -> np.ndarray:
    """w^j/S = E_Z[beta_j]/R at a state (Pascal's rule).

    The delta and zeta prefactors cancel in the ratio, so the shares are
    the Z-weighted mean of the compositions over R.
    """
    terms = equilibrium.log_z_terms_arr(state.t, state.x, params, table)
    return softmax(terms) @ table.parts / params.R


def solve_gamma(
    params: EconomyParams,
    target: CalibrationTarget,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """gamma with sum zero reproducing the target shares within tol.

    The gamma values on params are ignored; the solve always starts from
    zero weights.
    """
    j = params.n_agents
    if len(target.shares) != j:
        raise ValueError(f"need {j} target shares, got {len(target.shares)}")
    if j == 1:
        return np.zeros(1)

    table = validate(params)

    def shares_at(g):
        return wealth_shares(params.with_gammas(g), table, target.state)

    tgt = np.array(target.shares)
    gamma = np.zeros(j)
    r_curv = params.R
    best = math.inf
    stall = 0
    residual = math.inf

    for _ in range(max_iter):
        shares = shares_at(gamma)
        residual = float(np.max(np.abs(shares - tgt)))
        if residual <= tol:
            return gamma - gamma.mean()
        if residual < 0.5 * best:
            best = residual
            stall = 0
        else:
            stall += 1

        if stall >= 4:
            step = _newton_step(shares_at, gamma, shares, tgt)
            stall = 0
        else:
            step = 0.5 * r_curv * np.log(shares / tgt)

        # backtrack until the residual improves (guards both solvers)
        for _ in range(30):
            candidate = gamma + step
            candidate -= candidate.mean()
            new_shares = shares_at(candidate)
            if float(np.max(np.abs(new_shares - tgt))) < residual:
                break
            step = step / 2
        gamma = candidate

    raise NoConvergence(max_iter, residual)


def _newton_step(shares_at, gamma, shares, tgt):
    """Least-squares Newton direction on the zero-sum subspace."""
    j = len(gamma)
    basis = np.zeros((j, j - 1))
    for k in range(j - 1):
        basis[k, k] = 1.0
        basis[-1, k] = -1.0
    h = 1e-6
    jac = np.empty((j, j - 1))
    for k in range(j - 1):
        up = shares_at(gamma + h * basis[:, k])
        dn = shares_at(gamma - h * basis[:, k])
        jac[:, k] = (up - dn) / (2 * h)
    coeff, *_ = np.linalg.lstsq(jac, tgt - shares, rcond=None)
    return basis @ coeff
