"""Path simulation, series evaluation, and the independent verification oracles.

The driver X is a standard Brownian motion, so paths are sampled exactly
(Gaussian increments); there is no discretization error anywhere except
the trapezoid quadrature of time integrals and the finite dt of the
realized-volatility residuals.

Oracles deliberately avoid the composition machinery they are checking:
the Monte Carlo integrands are built from the J agent log terms only,

    zeta_u delta_u   = exp{(1-R) log delta_u + R logsumexp_i u_i}
    zeta_u c_u^j     = exp{(1-R) log delta_u + (R-1) logsumexp_i u_i + u_j}

so agreement with the closed-form wealth/stock price genuinely tests the
multinomial expansion.  The J+1 integrands share the agent log terms and
their logsumexp, so `mc_oracles` draws each block of paths once and
reduces every one of them from it; `martingale_check` reads the same
blocks.  Truncating the integral at a finite horizon leaves an
analytically known tail (each composition term decays like
e^{-D(beta) (T-t)}), which is reported as `truncation_bound` and must
stay small relative to the closed form.

The z-scores assume square-integrable integrands.  A composition term
e^{c X_u - m u} has finite second moment of its time integral only when
2 D(beta) > c^2 with c = a(beta) + (1-R) sigma; economies close to the
D > 0 existence boundary violate this, and their oracle estimates are
then dominated by rare deep-tail paths (plain sampling looks biased low
at any affordable path count).  Such economies need importance sampling,
which is out of scope; verify them with the FD and clearing suites.

Randomness: one counter-based Philox stream per path, keyed by
(seed, path index), so path i is the same regardless of n_paths,
chunking, or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import equilibrium
from .equilibrium import EvaluatedSeries
from .model import DenominatorTable, EconomyParams, MarketState, log_dividend

DEFAULT_STEPS_PER_UNIT_TIME = 1024
TRUNCATION_FRACTION = 0.1


class TruncationTooLoose(Exception):
    """The analytic tail beyond the horizon is too large a share of the target."""

    def __init__(self, bound: float, closed_form: float, horizon: float):
        self.bound = bound
        self.closed_form = closed_form
        self.horizon = horizon
        super().__init__(
            f"truncation tail {bound:.4g} exceeds {TRUNCATION_FRACTION:g} of the "
            f"closed form {closed_form:.4g} at horizon {horizon:g}; raise the horizon"
        )


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid from t0 to horizon with n_steps intervals."""

    t0: float
    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.t0 < 0 or not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite and nonnegative, got {self.t0}")
        if not (self.horizon > self.t0):
            raise ValueError("horizon must exceed t0")
        if self.n_steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return (self.horizon - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class SimulatedPath:
    grid: PathGrid
    x_values: np.ndarray
    seed: int


@dataclass(frozen=True)
class OracleReport:
    estimate: float
    std_error: float
    closed_form: float
    z_score: float
    n_paths: int
    truncation_bound: float


@dataclass(frozen=True)
class RealizedVolReport:
    """Moments of the normalized log-price increments against sigma^S."""

    residual_mean: float
    residual_mean_se: float
    residual_var: float
    residual_var_se: float
    n_residuals: int


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based substream for one path; independent of n_paths."""
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


def _increments(grid: PathGrid, seed: int, path_index: int) -> np.ndarray:
    gen = path_generator(seed, path_index)
    return gen.standard_normal(grid.n_steps) * math.sqrt(grid.dt)


def simulate_path(grid: PathGrid, x0: float, seed: int, path_index: int) -> SimulatedPath:
    """Exact Brownian path `path_index` of X from x0, drawn from its own substream."""
    x = np.empty(grid.n_steps + 1)
    x[0] = x0
    np.cumsum(_increments(grid, seed, path_index), out=x[1:])
    x[1:] += x0
    return SimulatedPath(grid=grid, x_values=x, seed=seed)


def simulate_paths(
    grid: PathGrid, x0: float, n_paths: int, seed: int
) -> list[SimulatedPath]:
    """Exact Brownian paths 0..n_paths-1 of X from x0; deterministic given seed."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    return [simulate_path(grid, x0, seed, i) for i in range(n_paths)]


def evaluate_series(
    path: SimulatedPath, params: EconomyParams, table: DenominatorTable
) -> EvaluatedSeries:
    """Evaluate every closed-form quantity at each grid node of one path."""
    t = path.grid.times()
    x = np.asarray(path.x_values, dtype=float)
    if x.shape != t.shape:
        raise ValueError("path x_values length does not match its grid")

    return EvaluatedSeries(grid=path.grid, **equilibrium.evaluate_fields(t, x, params, table))


def default_horizon(table: DenominatorTable, t0: float = 0.0) -> float:
    """Horizon heuristic: tails decay like e^{-min D (T-t0)}."""
    return t0 + max(10.0, 5.0 / table.min_denominator)


def truncation_tail(
    state: MarketState,
    params: EconomyParams,
    table: DenominatorTable,
    horizon: float,
    j: int | None = None,
) -> float:
    """Exact analytic tail of the wealth (agent j) or stock (j=None) integral
    beyond the horizon: each composition term carries a factor e^{-D (T-t)}.
    """
    span = horizon - state.t
    if span <= 0:
        raise ValueError("horizon must exceed the state time")
    terms = equilibrium.log_z_terms_arr(state.t, state.x, params, table)
    # agent j's sum weights the Z terms by beta_j / R (Pascal's rule)
    weights = None if j is None else table.parts[:, j] / params.R
    log_tail_sum = logsumexp(terms - table.d_values * span, axis=-1, b=weights)
    log_zeta = equilibrium.log_state_price_density_arr(state.t, state.x, params)
    ld = log_dividend(state.t, state.x, params)
    return float(np.exp((1 - params.R) * ld - log_zeta + log_tail_sum))


def _resolve_grid(state_t: float, horizon, n_steps, table: DenominatorTable) -> PathGrid:
    if horizon is None:
        horizon = default_horizon(table, state_t)
    if n_steps is None:
        n_steps = max(1, math.ceil((horizon - state_t) * DEFAULT_STEPS_PER_UNIT_TIME))
    return PathGrid(t0=state_t, horizon=float(horizon), n_steps=int(n_steps))


def _path_blocks(grid: PathGrid, x0: float, n_paths: int, seed: int, params: EconomyParams):
    """Draw the paths block by block; yield each block's (x, u, lse_u, log delta).

    x has shape (paths, nodes), u the agent log terms (paths, nodes, J) and
    lse_u their logsumexp over agents.  Blocks bound the memory; each
    path's values are independent of the blocking, so any reduction order
    downstream gives identical bits.
    """
    t = grid.times()
    n_nodes = len(t)
    alpha = params.alpha_vec
    decay = params.rho_vec + 0.5 * alpha**2
    chunk = max(1, min(n_paths, int(4e6 / (n_nodes * max(params.n_agents, 2)))))
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        x = np.empty((hi - lo, n_nodes))
        x[:, 0] = x0
        for i in range(lo, hi):
            np.cumsum(_increments(grid, seed, i), out=x[i - lo, 1:])
        x[:, 1:] += x0

        u = (alpha * x[..., None] - decay * t[None, :, None] - params.gamma_vec) / params.R
        yield x, u, logsumexp(u, axis=-1), log_dividend(t[None, :], x, params)


def _trapezoid_weights(grid: PathGrid) -> np.ndarray:
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[0] = weights[-1] = grid.dt / 2
    return weights


def _report(values: np.ndarray, closed_form: float, bound: float) -> OracleReport:
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    if se > 0:
        z = (est - closed_form) / se
    else:
        z = 0.0 if est == closed_form else math.copysign(math.inf, est - closed_form)
    return OracleReport(
        estimate=est,
        std_error=se,
        closed_form=closed_form,
        z_score=float(z),
        n_paths=len(values),
        truncation_bound=bound,
    )


def mc_oracles(
    state: MarketState,
    params: EconomyParams,
    table: DenominatorTable,
    n_paths: int,
    horizon: float | None = None,
    n_steps: int | None = None,
    seed: int = 0,
) -> tuple[list[OracleReport], OracleReport]:
    """Monte Carlo of every wealth and the stock price from one set of paths.

    w_t^j = zeta_t^{-1} E_t[integral of c_u^j zeta_u du] for each agent and
    S_t = zeta_t^{-1} E_t[integral of delta_u zeta_u du]; returns the J
    wealth reports in agent order and the stock report.  The integrands
    never touch the composition expansion, so the reports are independent
    checks of the closed forms.  Every truncation tail is checked, agents
    first, before any path is drawn.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid = _resolve_grid(state.t, horizon, n_steps, table)
    fields = equilibrium.evaluate_fields(state.t, state.x, params, table)
    closed = [float(w) for w in fields["wealths"]] + [float(fields["stock_price"])]
    bounds = []
    for j, target in zip([*range(params.n_agents), None], closed):
        bound = truncation_tail(state, params, table, grid.horizon, j)
        if bound > TRUNCATION_FRACTION * target:
            raise TruncationTooLoose(bound, target, grid.horizon)
        bounds.append(bound)

    r_curv = params.R
    weights = _trapezoid_weights(grid)
    blocks = []
    for _, u, lse_u, ld in _path_blocks(grid, state.x, n_paths, seed, params):
        columns = [
            np.exp((1 - r_curv) * ld + (r_curv - 1) * lse_u + u[..., j]) @ weights
            for j in range(params.n_agents)
        ]
        columns.append(np.exp((1 - r_curv) * ld + r_curv * lse_u) @ weights)
        blocks.append(columns)
    values = np.concatenate(blocks, axis=1) / equilibrium.state_price_density(state, params)
    reports = [_report(v, c, b) for v, c, b in zip(values, closed, bounds)]
    return reports[:-1], reports[-1]


def martingale_check(
    params: EconomyParams,
    table: DenominatorTable,
    n_paths: int,
    horizon: float = 5.0,
    n_steps: int | None = None,
    seed: int = 0,
    x0: float = 0.0,
) -> OracleReport:
    """E[zeta_T S_T + integral_0^T zeta_u delta_u du] = S_0 zeta_0, any T.

    The identity is exact for every horizon, so truncation_bound is zero.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid = _resolve_grid(0.0, horizon, n_steps, table)
    s0 = MarketState(0.0, x0)
    closed = equilibrium.stock_price(s0, params, table) * equilibrium.state_price_density(
        s0, params
    )
    r_curv = params.R
    weights = _trapezoid_weights(grid)
    t_end = grid.times()[-1]
    values = []
    for x, _, lse_u, ld in _path_blocks(grid, x0, n_paths, seed, params):
        flow = np.exp((1 - r_curv) * ld + r_curv * lse_u) @ weights
        # payoff leg zeta_T S_T = delta_T^{1-R} Z_T
        log_zs = (1 - r_curv) * ld[:, -1] + equilibrium.log_Z_arr(t_end, x[:, -1], params, table)
        values.append(flow + np.exp(log_zs))
    return _report(np.concatenate(values), closed, 0.0)


def realized_vol_check(
    params: EconomyParams,
    table: DenominatorTable,
    x0: float = 0.0,
    t0: float = 0.0,
    horizon: float = 1.0,
    n_steps: int = 1000,
    n_paths: int = 64,
    seed: int = 0,
) -> RealizedVolReport:
    """Normalized log-price increments against the closed-form sigma^S.

    Residuals (dlog S - (mu^S - (sigma^S)^2/2) dt) / (sigma^S sqrt(dt)),
    with coefficients frozen at the left node, should be approximately
    standard normal for small dt.
    """
    grid = PathGrid(t0=t0, horizon=horizon, n_steps=n_steps)
    res = []
    for path in simulate_paths(grid, x0, n_paths, seed):
        t, x = grid.times(), path.x_values
        log_s = equilibrium.log_stock_price_arr(t, x, params, table)
        fields = equilibrium.evaluate_fields(t, x, params, table)
        vol, drift = fields["vol"], fields["drift"]
        d_log_s = np.diff(log_s)
        expected = (drift[:-1] - 0.5 * vol[:-1] ** 2) * grid.dt
        res.append((d_log_s - expected) / (vol[:-1] * math.sqrt(grid.dt)))
    res = np.concatenate(res)
    n = len(res)
    mean = float(res.mean())
    var = float(res.var(ddof=1))
    central = res - mean
    m2 = float((central**2).mean())
    m4 = float((central**4).mean())
    return RealizedVolReport(
        residual_mean=mean,
        residual_mean_se=math.sqrt(var / n),
        residual_var=var,
        residual_var_se=math.sqrt(max(m4 - m2**2, 0.0) / n),
        n_residuals=n,
    )


def fd_engine(
    f,
    state: MarketState,
    dx: float = 1e-4,
    dt: float = 1e-5,
    richardson: bool = False,
):
    """Central differences (d/dt, d/dx, d2/dx2) of a scalar field f(t, x).

    With richardson=True each derivative is extrapolated from steps h and
    h/2, killing the leading h^2 error term; use it for second-order
    quantities where the bare-step roundoff floor is above the target
    tolerance.
    """
    t0, x0 = state.t, state.x

    def stencil(ht, hx):
        up, down = f(t0, x0 + hx), f(t0, x0 - hx)
        f_t = (f(t0 + ht, x0) - f(t0 - ht, x0)) / (2 * ht)
        f_x = (up - down) / (2 * hx)
        f_xx = (up - 2 * f(t0, x0) + down) / hx**2
        return np.array([f_t, f_x, f_xx])

    if not richardson:
        out = stencil(dt, dx)
    else:
        coarse = stencil(dt, dx)
        fine = stencil(dt / 2, dx / 2)
        out = (4 * fine - coarse) / 3
    return float(out[0]), float(out[1]), float(out[2])
