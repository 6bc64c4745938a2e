"""Path simulation, series evaluation, and the independent verification oracles.

The driver X is a standard Brownian motion, so paths are sampled exactly
(Gaussian increments); there is no discretization error anywhere except
the trapezoid quadrature of time integrals.

Oracles deliberately avoid the composition machinery they are checking:
the Monte Carlo integrands are built from the J agent log terms only,

    zeta_u delta_u   = exp{(1-R) log delta_u + R logsumexp_i u_i}
    zeta_u c_u^j     = exp{(1-R) log delta_u + (R-1) logsumexp_i u_i + u_j}

so agreement with the closed-form wealth/stock price genuinely tests the
multinomial expansion.  Both oracles read one function, `_path_integrals`,
the one place these exponents are formed.  The J+1 integrands share the
agent log terms and their logsumexp, so it draws each block of paths
once and reduces every integrand from it, or only the stock's for
`martingale_check`, which adds its payoff leg at the paths' end values.
A block holds the agent log terms agent-major, one contiguous
(paths, nodes) slab per agent.  Each term, and log delta, is affine in
the path, a slope times X plus a function of time formed once per grid,
and `equilibrium._lse_slabs` sums the slabs with a plain max-shifted
logsumexp.  These are the closed-form side's own clearing logs, formed
by the same elementwise steps, so they equal the kernel's to the bit;
the oracle stays independent because it never touches a composition.
Blocks have a fixed, cache-sized budget of nodes, the one the field
kernel's node blocks use.
`equilibrium._block_map` runs them in contiguous groups, one per usable
core (the calling thread runs the first; a single block runs inline and
starts no thread), and each group reuses its own buffers, so memory
grows with the core count but not with the path count.  Each path's
time integral is an einsum over its nodes, not a BLAS product, that adds
them in one order at any block size (a path longer than numpy's buffer
of 8192 nodes is reduced on its own, see `_quadrature`).  So a path's
values do not depend on the path count or the blocking, the blocks do
not depend on the core count, and each group writes only its own paths'
values: the reports have the same bits for any blocking, on any number
of cores and under any BLAS thread count.  Truncating the integral at a
finite horizon leaves an analytically known tail (each composition term
decays like e^{-D(beta) (T-t)}, so the kernel gives the tails), which is
reported as `truncation_bound` and must stay small relative to the
closed form.

The z-scores assume square-integrable integrands.  A composition term
e^{c X_u - m u} has finite second moment of its time integral only when
2 D(beta) > c^2 with c = a(beta) + (1-R) sigma; economies close to the
D > 0 existence boundary violate this, and their oracle estimates are
then dominated by rare deep-tail paths (plain sampling looks biased low
at any affordable path count).  Such economies need importance sampling,
which is out of scope; verify them with the FD and clearing suites.

Randomness: one counter-based Philox stream per path, keyed by
(seed, path index), so path i is the same regardless of n_paths,
chunking or the thread that draws it.  A group makes one generator and
rekeys it for each of its paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import equilibrium, model
from .equilibrium import _BLOCK_ELEMENTS, EvaluatedSeries
from .model import DenominatorTable, EconomyParams, MarketState, ModelError
from .multiindex import DEFAULT_COMPOSITION_CAP

DEFAULT_STEPS_PER_UNIT_TIME = 1024
TRUNCATION_FRACTION = 0.1
# fd_engine's coarse steps in x and t; it extrapolates from them and their halves
_FD_DX, _FD_DT = 2e-2, 1e-3
# path grids and Monte Carlo path counts share the composition table's cap
# on materialised entries
_MAX_GRID_NODES = DEFAULT_COMPOSITION_CAP
MAX_PATHS = DEFAULT_COMPOSITION_CAP


class TruncationTooLoose(ModelError):
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
        if not (self.t0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be finite and greater than t0, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if not self.n_steps < _MAX_GRID_NODES:  # also NaN; the grid has n_steps + 1 nodes
            raise ValueError(
                f"n_steps must be below {_MAX_GRID_NODES} (a grid of at most "
                f"{_MAX_GRID_NODES} nodes), got {self.n_steps}"
            )
        # a step above 4 ulps of the horizon separates every pair of nodes;
        # a smaller one is checked node by node, a block at a time
        dt = self.dt
        if not dt > 4 * math.ulp(self.horizon) and not all(
            np.all(np.diff(self.t0 + dt * np.arange(lo, min(lo + 65536, self.n_steps) + 1)) > 0)
            for lo in range(0, self.n_steps, 65536)
        ):
            raise ValueError(
                f"grid nodes must be strictly increasing doubles, but t0 + k dt repeats "
                f"values for t0 = {self.t0!r}, dt = {dt!r}: dt is below the spacing of "
                f"doubles near the horizon {self.horizon!r}"
            )

    @property
    def dt(self) -> float:
        return (self.horizon - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class SimulatedPath:
    grid: PathGrid
    x_values: np.ndarray


@dataclass(frozen=True)
class OracleReport:
    estimate: float
    std_error: float
    closed_form: float
    z_score: float
    n_paths: int
    truncation_bound: float


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based substream for one path; independent of n_paths.

    The key is the exact pair of unsigned 64-bit integers: a plain list
    would turn a seed of 2**63 or more into a rounded float64.
    """
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(gen: np.random.Generator, seed: int, path_index: int):
    """Reset gen, made by `path_generator`, to path_generator(seed, path_index)'s fresh state.

    The same stream, bit for bit, without building a generator: setting the
    state takes about a third of the time of building a Philox and its
    Generator (5 against 14 us on a 2-core x86 box), time that holds the
    interpreter lock and so would serialize the block groups' threads.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, path_index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _fill_paths(
    x: np.ndarray, grid: PathGrid, x0: float, seed: int, lo: int, gen: np.random.Generator
):
    """Write paths lo, lo + 1, ... of X from x0 into the rows of x, one value per grid node.

    gen is a generator from `path_generator`, rekeyed for every path.  Each
    row is the running sum of its own scaled draws, so a path has the same
    bits in a block of any size.
    """
    steps = x[:, 1:]
    for i, row in enumerate(steps, lo):
        _rekey(gen, seed, i)
        gen.standard_normal(out=row)
    steps *= math.sqrt(grid.dt)
    np.cumsum(steps, axis=1, out=steps)
    steps += x0
    x[:, 0] = x0


def simulate_path(grid: PathGrid, x0: float, seed: int, path_index: int) -> SimulatedPath:
    """Exact Brownian path `path_index` of X from x0, drawn from its own substream."""
    x = np.empty((1, grid.n_steps + 1))
    _fill_paths(x, grid, x0, seed, path_index, path_generator(seed, path_index))
    return SimulatedPath(grid=grid, x_values=x[0])


def simulate_paths(
    grid: PathGrid, x0: float, n_paths: int, seed: int
) -> list[SimulatedPath]:
    """Exact Brownian paths 0..n_paths-1 of X from x0; deterministic given seed."""
    _check_path_count(n_paths)
    return [simulate_path(grid, x0, seed, i) for i in range(n_paths)]


def evaluate_series(
    path: SimulatedPath, params: EconomyParams, table: DenominatorTable
) -> EvaluatedSeries:
    """Evaluate every closed-form quantity at each grid node of one path."""
    t = path.grid.times()
    x = np.asarray(path.x_values, dtype=float)
    if x.shape != t.shape:
        raise ValueError("path x_values length does not match its grid")

    return EvaluatedSeries(**equilibrium.evaluate_fields(t, x, params, table))


def default_horizon(table: DenominatorTable, t0: float = 0.0) -> float:
    """Horizon heuristic: tails decay like e^{-min D (T-t0)}."""
    return t0 + max(10.0, 5.0 / table.min_denominator)


def truncation_tails(
    state: MarketState,
    params: EconomyParams,
    table: DenominatorTable,
    horizon: float,
) -> list[float]:
    """Exact analytic tails beyond the horizon of the wealth integrals of
    agents 1..J and then of the stock integral.

    Each composition term's tail is the term times e^{-D (T-t)}, so the
    tails are the kernel's wealths and stock price on a table whose log
    offsets carry that factor.
    """
    span = horizon - state.t
    if span <= 0:
        raise ValueError("horizon must exceed the state time")
    tail = replace(table, log_offsets=table.log_offsets - table.d_values * span)
    fields = equilibrium.evaluate_fields(state.t, state.x, params, tail)
    return [*fields["wealths"].tolist(), float(fields["stock_price"])]


def _resolve_grid(state_t: float, horizon, n_steps, table: DenominatorTable) -> PathGrid:
    if horizon is None:
        horizon = default_horizon(table, state_t)
    if n_steps is None:
        steps = (horizon - state_t) * DEFAULT_STEPS_PER_UNIT_TIME
        if not steps <= _MAX_GRID_NODES - 1:  # NaN too
            longest = (_MAX_GRID_NODES - 1) / DEFAULT_STEPS_PER_UNIT_TIME
            raise ValueError(
                f"horizon must be at most t0 + {longest:g} at the default "
                f"{DEFAULT_STEPS_PER_UNIT_TIME} steps per unit time, got {horizon}"
            )
        # a horizon at or before t0 gets one step, which PathGrid rejects
        n_steps = math.ceil(steps) if steps > 0 else 1
    return PathGrid(t0=state_t, horizon=float(horizon), n_steps=int(n_steps))


def _check_path_count(n_paths: int) -> None:
    """Reject a path count before any per-path array is allocated."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if n_paths > MAX_PATHS:
        raise ValueError(f"n_paths must be at most {MAX_PATHS}, got {n_paths}")


# numpy's fixed ufunc buffer, in elements: einsum sums a lone row longer than
# this in buffer-sized pieces, but rows in company whole
_EINSUM_BUFFER = 8192


def _quadrature(exponent: np.ndarray, weights: np.ndarray, out: np.ndarray):
    """out[p] = sum_n exp(exponent[p, n]) weights[n], overwriting exponent.

    einsum sums each path's nodes in one fixed order whatever the number
    of paths in the block: paths of up to _EINSUM_BUFFER nodes together,
    longer ones one at a time, as a block of one path sums them.  So the
    bits depend neither on the blocking nor on BLAS threads.
    """
    np.exp(exponent, out=exponent)
    if exponent.shape[1] <= _EINSUM_BUFFER:
        np.einsum("pn,n->p", exponent, weights, out=out)
        return
    for p in range(len(exponent)):
        np.einsum("pn,n->p", exponent[p : p + 1], weights, out=out[p : p + 1])


def _path_integrals(
    grid: PathGrid,
    x0: float,
    n_paths: int,
    seed: int,
    params: EconomyParams,
    agents: bool,
    log_zeta: float | None = None,
):
    """Time integrals of zeta delta, and with agents of each zeta c^j, along
    paths 0..n_paths-1, divided by zeta_t = exp(log_zeta) when it is given.

    Returns (integrals, x_end): one row per integrand, the J agents' in
    agent order when agents is true and the stock's last, one column per
    path; and each path's X at the last node.  Each row is `_quadrature`
    of exp of its exponent,

        stock:    (1-R) log delta - log_zeta + R lse u
        agent j:  (1-R) log delta - log_zeta + (R-1) lse u + u_j

    with u, lse u and log delta equal to `equilibrium._clearing_logs` at
    the path's nodes, to the bit; the stock's row does not depend on
    agents.  Dividing in the exponent keeps an integral's precision where
    zeta_t is subnormal; without log_zeta the pass makes no subtraction.
    Each group of `equilibrium._block_map` allocates its buffers once (x,
    the J agent slabs, the maximum's slab, which then holds log delta,
    lse u and a scratch slab) and writes only its blocks' columns.
    """
    t = grid.times()
    slopes, offsets = equilibrium._agent_affine(t, params)
    slopes, offsets = slopes[:, None, None], np.ascontiguousarray(offsets.T)[:, None, :]
    log_delta_t = model.log_dividend_trend(t, params)
    weights = np.full(len(t), grid.dt)  # the trapezoid rule
    weights[0] = weights[-1] = grid.dt / 2
    r_curv = params.R
    integrals = np.empty((params.n_agents + 1 if agents else 1, n_paths))
    x_end = np.empty(n_paths)
    n_rows = max(1, min(n_paths, _BLOCK_ELEMENTS // len(t)))

    def run(blocks):
        x_buf = np.empty((n_rows, len(t)))
        u_buf = np.empty((params.n_agents,) + x_buf.shape)
        work = np.empty((3,) + x_buf.shape)
        gen = path_generator(seed, blocks.start * n_rows)
        for lo in range(blocks.start * n_rows, blocks.stop * n_rows, n_rows):
            rows = slice(lo, min(lo + n_rows, n_paths))
            k = rows.stop - lo
            x, u = x_buf[:k], u_buf[:, :k]
            top, lse_u, scratch = work[:, :k]
            _fill_paths(x, grid, x0, seed, lo, gen)
            x_end[rows] = x[:, -1]
            np.multiply(slopes, x, out=u)
            u += offsets
            equilibrium._lse_slabs(u, top, lse_u, scratch)
            ld = np.multiply(params.sigma, x, out=top)  # the maximum is spent
            ld += log_delta_t
            # x is spent too: it holds the stock's exponent, then each
            # agent's in turn, and lse u and log delta are scaled in place
            exponent = np.multiply(r_curv, lse_u, out=x)
            ld *= 1 - r_curv
            if log_zeta is not None:
                ld -= log_zeta
            exponent += ld  # (1-R) log delta - log_zeta + R lse u
            _quadrature(exponent, weights, integrals[-1, rows])
            if agents:
                lse_u *= r_curv - 1
                lse_u += ld  # (1-R) log delta - log_zeta + (R-1) lse u
                for u_j, out in zip(u, integrals[:-1, rows]):
                    np.add(lse_u, u_j, out=exponent)
                    _quadrature(exponent, weights, out)

    equilibrium._block_map(run, -(-n_paths // n_rows))
    return integrals, x_end


def _at_binade(values: np.ndarray, stat):
    """stat(values) over the first axis, taken at each column's binade.

    Each column is scaled by 2^-k, where 2^k is the binade of its max |v|,
    and stat's result scaled back: the plain statistic's bits, without its
    overflow (a sum or a variance of values near the float range) or its
    underflow.  Columns holding inf or NaN are not scaled.
    """
    _, k = np.frexp(np.max(np.abs(values), axis=0))
    return np.ldexp(stat(np.ldexp(values, -k)), k)


def _report(values: np.ndarray, closed_form: float, bound: float) -> OracleReport:
    n = len(values)
    with np.errstate(invalid="ignore"):  # inf - inf where a side has overflowed
        est = float(_at_binade(values, np.mean))
        se = float(_at_binade(values, lambda v: v.std(ddof=1) / math.sqrt(n))) if n > 1 else 0.0
    if not all(map(math.isfinite, (est, se, closed_form))):
        z = math.nan  # an overflowed side gives no test: inf == inf is no agreement
    elif se > 0:
        z = (est - closed_form) / se
    else:
        z = 0.0 if est == closed_form else math.copysign(math.inf, est - closed_form)
    return OracleReport(
        estimate=est,
        std_error=se,
        closed_form=closed_form,
        z_score=float(z),
        n_paths=n,
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
    first, before any path is drawn.  The division by zeta_t is folded
    into the path exponents as -log zeta_t, the kernel's own log, so an
    estimate keeps its precision where zeta_t itself is subnormal or
    beyond the float range.
    """
    _check_path_count(n_paths)
    grid = _resolve_grid(state.t, horizon, n_steps, table)
    fields = equilibrium.evaluate_fields(state.t, state.x, params, table)
    closed = [float(w) for w in fields["wealths"]] + [float(fields["stock_price"])]
    bounds = truncation_tails(state, params, table, grid.horizon)
    for bound, target in zip(bounds, closed):
        if bound > TRUNCATION_FRACTION * target:
            raise TruncationTooLoose(bound, target, grid.horizon)

    log_zeta = float(fields["log_levels"][1])
    with np.errstate(over="ignore"):  # an integral beyond the float range is inf
        values, _ = _path_integrals(grid, state.x, n_paths, seed, params, True, log_zeta)
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
    _check_path_count(n_paths)
    grid = _resolve_grid(0.0, horizon, n_steps, table)
    s0 = MarketState(0.0, x0)
    fields = equilibrium.evaluate_fields(s0.t, s0.x, params, table)
    closed = float(fields["stock_price"]) * float(fields["zeta"])
    integrals, x_end = _path_integrals(grid, x0, n_paths, seed, params, agents=False)
    values = integrals[-1]
    # payoff leg zeta_T S_T = delta_T^{1-R} Z_T; the kernel bounds its own memory
    t_end = grid.times()[-1]
    log_z_end = equilibrium.evaluate_fields(t_end, x_end, params, table)["log_levels"][:, 2]
    values += np.exp((1 - params.R) * model.log_dividend(t_end, x_end, params) + log_z_end)
    return _report(values, closed, 0.0)


def fd_engine(f, t, x):
    """Richardson-extrapolated central differences of a scalar or vector
    field f(t, x) at one state or at arrays of states (t, x), broadcast
    together.

    f must broadcast over array (t, x), with its values after the state
    axes: all 9 stencil points of every state are evaluated in one call.
    Returns the array [d/dt, d/dx, d2/dx2], of shape (3,) plus the states'
    shape plus the shape of one value of f, so each state and each column
    of a vector field gets the stencil a scalar field at that state alone
    would.  Each derivative is extrapolated from the steps (_FD_DT, _FD_DX)
    and their halves, which kills the leading h^2 error term; the wide
    steps keep the roundoff floor of the second derivatives below the
    verify suite's 1e-5 tolerance.
    """
    t0, x0 = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    steps = [(_FD_DT, _FD_DX), (_FD_DT / 2, _FD_DX / 2)]
    t_pts, x_pts = [t0], [x0]
    for ht, hx in steps:
        t_pts += [t0, t0, t0 + ht, t0 - ht]
        x_pts += [x0 + hx, x0 - hx, x0, x0]
    values = f(np.stack(t_pts), np.stack(x_pts))
    center = values[0]

    def stencil(k):
        ht, hx = steps[k]
        up, down, later, earlier = values[1 + 4 * k : 5 + 4 * k]
        f_t = (later - earlier) / (2 * ht)
        f_x = (up - down) / (2 * hx)
        f_xx = (up - 2 * center + down) / hx**2
        return np.array([f_t, f_x, f_xx])

    return (4 * stencil(1) - stencil(0)) / 3
