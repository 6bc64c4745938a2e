"""Economy primitives and the finiteness gate.

The market is a single risky asset paying the dividend stream

    delta_t = delta0 * exp{ sigma X_t + (alpha_star sigma - sigma^2/2) t }

driven by a Brownian motion X under the reference measure, traded by J
agents with power utility of common integer curvature R >= 2.  Agent j
discounts at rho_j, tilts the reference measure through the exponential
martingale Lambda^j with loading alpha_j, and carries the log weight
gamma_j = log nu_j.  Every equilibrium quantity downstream is a closed
form in the Markov state (t, X_t), but the closed forms are finite only
when every composition-indexed denominator

    D(beta) = rho.beta/R + alpha^2.beta/(2R)
              + (sigma^2/2 - alpha_star sigma)(1 - R)
              - ((alpha.beta/R + (1-R) sigma)^2) / 2        (|beta| = R)

is strictly positive.  `validate` is the single gate: it enumerates the
compositions of R once, evaluates every D(beta), and hands back the table
the rest of the package keys its sums off.  Every sum runs over these
level-R rows: agent j's wealth sum over the compositions of R-1 is, by
Pascal's rule C(R-1, beta - e_j) = C(R, beta) beta_j / R, the level-R sum
weighted by beta_j / R.  The table is integer composition arrays plus the
coefficients that do not involve gamma, the kernel's reduction rows
among them, so one table serves every choice of the log weights; the
gamma.beta/R terms are formed from the params at each evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .multiindex import enumerate_compositions, log_multinomial_coefficient


class ModelError(Exception):
    """Base class for model-level failures (valid input, no equilibrium output)."""


class NonpositiveDenominator(ModelError):
    """Some D(beta) <= 0: the wealth/price integrals diverge for this economy."""

    def __init__(self, offenders: list[tuple[tuple[int, ...], float]]):
        self.offenders = offenders
        shown = ", ".join(f"beta={beta} D={d:.6g}" for beta, d in offenders[:8])
        more = "" if len(offenders) <= 8 else f" (and {len(offenders) - 8} more)"
        super().__init__(
            f"{len(offenders)} composition denominator(s) are not positive: {shown}{more}"
        )


class ConfigError(Exception):
    """A config file or dict does not match the documented schema."""


@dataclass(frozen=True)
class Agent:
    """One agent: discount rate, belief loading on the driver, log weight."""

    rho: float
    alpha: float
    gamma: float

    def __post_init__(self):
        for name in ("rho", "alpha", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"agent {name} must be finite, got {v}")


@dataclass(frozen=True)
class EconomyParams:
    """Global market data: curvature R, dividend parameters, and the agents."""

    R: int
    sigma: float
    alpha_star: float
    delta0: float
    agents: tuple[Agent, ...]

    def __post_init__(self):
        if not isinstance(self.R, int) or isinstance(self.R, bool) or self.R < 2:
            raise ValueError("model requires integer R >= 2")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.alpha_star):
            raise ValueError(f"alpha_star must be finite, got {self.alpha_star}")
        if not (math.isfinite(self.delta0) and self.delta0 > 0):
            raise ValueError(f"delta0 must be positive and finite, got {self.delta0}")
        if len(self.agents) < 1:
            raise ValueError("at least one agent is required")
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def rho_vec(self) -> np.ndarray:
        return np.array([a.rho for a in self.agents])

    @cached_property
    def alpha_vec(self) -> np.ndarray:
        return np.array([a.alpha for a in self.agents])

    @cached_property
    def gamma_vec(self) -> np.ndarray:
        return np.array([a.gamma for a in self.agents])

    def with_gammas(self, gammas) -> "EconomyParams":
        """Same economy with the agent log-weights replaced (used by calibration)."""
        if len(gammas) != self.n_agents:
            raise ValueError("need one gamma per agent")
        agents = tuple(
            Agent(a.rho, a.alpha, float(g)) for a, g in zip(self.agents, gammas)
        )
        return EconomyParams(self.R, self.sigma, self.alpha_star, self.delta0, agents)


@dataclass(frozen=True)
class MarketState:
    """The Markov state: calendar time and the Brownian driver's level."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t must be finite and nonnegative, got {self.t}")
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")


@dataclass(frozen=True, eq=False)
class DenominatorTable:
    """Per-economy composition table: coefficients and denominators for all beta-sums.

    Rows of `parts` are the compositions |beta| = R, lexicographically
    descending.  For each row m the arrays hold

        log_coeffs[m] = log multinomial(R, beta)
        x_coefs[m]    = alpha.beta / R
        t_coefs[m]    = rho.beta / R + alpha^2.beta / (2R)
        d_values[m]   = D(beta) > 0
        log_offsets[m] = log_coeffs[m] - log d_values[m]

    so the log of each Z term is log_offsets - gamma.beta/R + a x - t_coefs t
    with a = x_coefs.  `rows` holds the kernel's reduction rows
    [1, a - a0, b - b0, beta, beta (a - a0)], shape (3 + 2J, M), with
    b = t_coefs - a^2/2 and a0, b0 the midranges of a and b.  None of
    them involves gamma.  Agent j's wealth sum weights the same rows by
    beta_j / R, so no other level is stored.  The rows' longer axis is
    contiguous: C order where M >= 3 + 2J, Fortran order otherwise.
    numpy's einsum runs its inner loop along the contiguous axis, so the
    kernel reduces each (node, row) pair as one contiguous dot over the M
    compositions wherever there are at least as many of them as rows.
    `validate` fills the rows in place, one at a time, so it never holds
    a second copy of the table's largest array.
    """

    parts: np.ndarray
    d_values: np.ndarray
    log_coeffs: np.ndarray
    x_coefs: np.ndarray
    t_coefs: np.ndarray
    log_offsets: np.ndarray
    rows: np.ndarray
    a0: float
    b0: float
    min_denominator: float
    footnote_holds: bool


def sufficient_condition_margin(params: EconomyParams) -> float:
    """Margin of the closed-form sufficient condition for finite integrals.

    min_i(rho_i + alpha_i^2/2) + (sigma^2/2 - alpha_star*sigma)(1-R)
        - max_i((R-1)*sigma - alpha_i)^2 / 2

    Nonnegative margin implies every D(beta) > 0 up to ties at zero; the
    exact per-composition check is the actual gate.
    """
    rho, alpha = params.rho_vec, params.alpha_vec
    r, sigma = params.R, params.sigma
    base = np.min(rho + 0.5 * alpha**2)
    level = (0.5 * sigma**2 - params.alpha_star * sigma) * (1 - r)
    worst_sq = np.max(((r - 1) * sigma - alpha) ** 2)
    return float(base + level - 0.5 * worst_sq)


def validate(params: EconomyParams) -> DenominatorTable:
    """Build the per-economy table, raising unless every D(beta) is positive."""
    r, j = params.R, params.n_agents
    sigma, a_star = params.sigma, params.alpha_star
    rho, alpha = params.rho_vec, params.alpha_vec

    parts = enumerate_compositions(j, r)
    log_coeffs = log_multinomial_coefficient(parts)
    x_coefs = parts @ alpha / r
    t_coefs = parts @ rho / r + parts @ (alpha**2) / (2 * r)
    d_values = (
        t_coefs
        + (0.5 * sigma**2 - a_star * sigma) * (1 - r)
        - 0.5 * (x_coefs + (1 - r) * sigma) ** 2
    )

    bad = np.flatnonzero(d_values <= 0.0)
    if bad.size:
        raise NonpositiveDenominator([(tuple(parts[i].tolist()), float(d_values[i])) for i in bad])

    # a and b are centred on their midrange, so the kernel's sums round at
    # their spread rather than at their size (which the discount rates set)
    a = x_coefs
    b = t_coefs - 0.5 * a**2
    a0, b0 = 0.5 * (a.max() + a.min()), 0.5 * (b.max() + b.min())
    # filled in place, row by row: the rows are the table's largest array
    rows = np.empty((3 + 2 * j, len(a)), order="C" if len(a) >= 3 + 2 * j else "F")
    rows[0] = 1.0
    np.subtract(a, a0, out=rows[1])
    np.subtract(b, b0, out=rows[2])
    rows[3 : 3 + j] = parts.T
    np.multiply(parts.T, rows[1], out=rows[3 + j :])
    return DenominatorTable(
        parts=parts,
        d_values=d_values,
        log_coeffs=log_coeffs,
        x_coefs=x_coefs,
        t_coefs=t_coefs,
        log_offsets=log_coeffs - np.log(d_values),
        rows=rows,
        a0=a0,
        b0=b0,
        min_denominator=float(d_values.min()),
        footnote_holds=sufficient_condition_margin(params) >= 0.0,
    )


def log_dividend_trend(t, params: EconomyParams):
    """l(t) = log delta0 + (alpha_star sigma - sigma^2/2) t, the part of log delta in t."""
    sigma = params.sigma
    return np.log(params.delta0) + (params.alpha_star * sigma - 0.5 * sigma**2) * np.asarray(t)


def log_dividend(t, x, params: EconomyParams):
    """log delta = sigma x + l(t) at (t, x); broadcasts over array-valued t and x."""
    return params.sigma * np.asarray(x) + log_dividend_trend(t, params)


def dividend(state: MarketState, params: EconomyParams) -> float:
    """Dividend level delta_t at the given state."""
    return float(np.exp(log_dividend(state.t, state.x, params)))


# --- JSON config schema (consumed by the CLI) -------------------------------

_ECONOMY_KEYS = {"R", "sigma", "alpha_star", "delta0", "agents"}
_AGENT_KEYS = {"rho", "alpha", "gamma"}


def _require_number(obj, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    return float(v)


def economy_from_dict(obj) -> EconomyParams:
    """Parse the documented config schema; unknown or missing keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _ECONOMY_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _ECONOMY_KEYS - set(obj)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    r_raw = obj["R"]
    if isinstance(r_raw, bool) or not isinstance(r_raw, (int, float)):
        raise ConfigError(f"R must be a number, got {r_raw!r}")
    if isinstance(r_raw, float) and not r_raw.is_integer():
        raise ConfigError("model requires integer R >= 2")
    r = int(r_raw)

    if not isinstance(obj["agents"], list) or not obj["agents"]:
        raise ConfigError("agents must be a nonempty array")
    agents = []
    for i, a in enumerate(obj["agents"]):
        where = f"agents[{i}]"
        if not isinstance(a, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = set(a) - _AGENT_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        missing = _AGENT_KEYS - set(a)
        if missing:
            raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
        agents.append(
            Agent(
                rho=_require_number(a, "rho", where),
                alpha=_require_number(a, "alpha", where),
                gamma=_require_number(a, "gamma", where),
            )
        )

    try:
        return EconomyParams(
            R=r,
            sigma=_require_number(obj, "sigma", "config"),
            alpha_star=_require_number(obj, "alpha_star", "config"),
            delta0=_require_number(obj, "delta0", "config"),
            agents=tuple(agents),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
