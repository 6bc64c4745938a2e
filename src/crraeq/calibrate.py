"""Solve for agent log-weights gamma matching target initial wealth shares.

The model treats the weights nu_j = e^{gamma_j} as primitives;
applications specify endowments instead.  This module inverts the map
gamma -> (w_0^j / S_0)_j.  Shares are invariant to a common shift in
gamma (it rescales zeta only), so the solution is pinned down by the
normalization sum gamma_j = 0.

The iteration is a damped fixed point

    gamma_j <- gamma_j + 0.5 R (log current share_j - log target share_j)

motivated by the single-composition limit where share_j is proportional
to exp(-gamma_j / R) at the initial state.  If progress stalls, a Newton
step takes over.  By Pascal's rule share_j = E_Z[beta_j] / R, and the
share map's Jacobian is exactly -Cov_Z(beta / R), with no finite
difference.  Both are read from the kernel's Z reduction, so this module
forms no Z term: a share is `equilibrium._z_side`'s at one node, and the
covariance takes one `equilibrium._z_pass` per agent.  The covariance
annihilates a common shift of gamma, so its minimum-norm Newton step
sums to zero.  Every iterate's shares are computed once.  The
composition table does not involve gamma, so the economy is validated
once and every iterate is evaluated on that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import equilibrium
from .model import DenominatorTable, EconomyParams, MarketState, ModelError, validate

# four ulps of 1, the largest a share can be: a finer tolerance cannot be met
TOL_FLOOR = 2.0**-50


class NoConvergence(ModelError):
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
    """w^j/S = E_Z[beta_j]/R at a state (Pascal's rule), the kernel's shares.

    The delta and zeta prefactors cancel in the ratio, so the shares are
    the Z-weighted mean of the compositions over R: `equilibrium._z_side`'s
    share at the one node, bit for bit, with its underflow redo.
    """
    node = np.array([[state.t]]), np.array([[state.x]])
    return equilibrium._z_side(*node, params, table)[6][0]


def solve_gamma(
    params: EconomyParams,
    target: CalibrationTarget,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """gamma with sum zero reproducing the target shares within tol >= TOL_FLOOR.

    The gamma values on params are ignored; the solve always starts from
    zero weights.
    """
    return solve_gamma_on_table(params, validate(params), target, tol, max_iter)


def solve_gamma_on_table(
    params: EconomyParams,
    table: DenominatorTable,
    target: CalibrationTarget,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """`solve_gamma` on the economy's validated table, which gamma does not enter."""
    j = params.n_agents
    if len(target.shares) != j:
        raise ValueError(f"need {j} target shares, got {len(target.shares)}")
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tol must be at least 2**-50 (about 8.9e-16), got {tol!r}")

    def shares_at(g):
        return wealth_shares(params.with_gammas(g), table, target.state)

    tgt = np.array(target.shares)
    log_tgt = np.log(tgt)
    gamma = np.zeros(j)
    shares = shares_at(gamma)
    r_curv = params.R
    best = math.inf
    stall = 0
    residual = math.inf

    for _ in range(max_iter):
        residual = float(np.max(np.abs(shares - tgt)))
        if residual <= tol:
            return gamma - gamma.mean()
        if residual < 0.5 * best:
            best = residual
            stall = 0
        else:
            stall += 1

        if stall >= 4:
            step = _newton_step(params.with_gammas(gamma), table, target.state, shares, tgt)
            stall = 0
        else:
            # a difference of logs: shares / tgt overflows at a subnormal target
            step = 0.5 * r_curv * (np.log(shares) - log_tgt)

        # backtrack until the residual improves (guards both solvers)
        for _ in range(30):
            candidate = gamma + step
            candidate -= candidate.mean()
            new_shares = shares_at(candidate)
            if float(np.max(np.abs(new_shares - tgt))) < residual:
                break
            step = step / 2
        gamma, shares = candidate, new_shares

    raise NoConvergence(max_iter, residual)


def _newton_step(params, table, state, shares, tgt):
    """Minimum-norm Newton step from the exact Jacobian -Cov_Z(beta / R).

    shares is E_Z[beta / R] at params' gamma, so it centres the
    compositions.  Column k of the covariance is one Z pass against the
    rows [1, c c_k]: E_Z[c c_k] = s[1:] / s[0].  A common shift of gamma
    is in the covariance's null space, and the minimum-norm solution is
    orthogonal to it.
    """
    centred = table.parts / params.R - shares
    node = np.array([[state.t]]), np.array([[state.x]])
    coefs = equilibrium._z_coefs(params, table)
    cov = np.empty((params.n_agents, params.n_agents))
    for k in range(params.n_agents):
        rows = np.vstack([np.ones(len(centred)), centred.T * centred[:, k]])
        _, sums = equilibrium._z_pass(*node, coefs, rows)
        cov[:, k] = sums[0, 1:] / sums[0, 0]
    step, *_ = np.linalg.lstsq(cov, shares - tgt, rcond=None)
    return step
