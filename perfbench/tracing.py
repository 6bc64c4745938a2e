"""Span recorder for the traced run.

The recorder replaces the package's layer entry points as their callers
see them (module attributes such as `crraeq.cli.evaluate_series` or
`crraeq.model.enumerate_compositions`) with wrappers that record a span
per call and the counts the per-layer metrics need. The package source
is not edited. Spans stay in memory until the run ends.

A span is (id, name, start, end, thread CPU seconds, parent id, job
id, thread id). The current span travels in a context variable; the
`simulate --workers` thread pool does not carry context into its
threads, so the recorder also swaps in an executor that does. It runs
each pool task in a `cli.pool` span under the enclosing `cli.main`
span, so the formatting done in the pool threads counts as cli time.

Self time is wall time, as the span sees it: in the pool threads it
includes waiting for the interpreter lock. Self CPU time counts only
the span's own thread, so it excludes that wait.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_current_span = contextvars.ContextVar("perfbench_current_span", default=None)


Span = collections.namedtuple("Span", "id name start end cpu parent job thread")


class _ModuleView:
    """A module as one caller sees it, with some functions replaced."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _economy_key(params) -> tuple:
    """The economy without its Pareto weights: D(beta) does not depend on gamma."""
    return (
        params.R, params.sigma, params.alpha_star, params.delta0,
        tuple((a.rho, a.alpha) for a in params.agents),
    )


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.defaultdict(float)
        self.enabled = False
        self.job_id = None
        self.series_temp_bytes = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._economies: set = set()
        self._draws: dict = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    @contextlib.contextmanager
    def span(self, name: str):
        parent = _current_span.get()
        sid = next(self._ids)
        token = _current_span.set(sid)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            _current_span.reset(token)
            self.spans.append(
                Span(sid, name, start, end, cpu, parent, self.job_id, threading.get_ident())
            )

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Record spans only inside this block, under one `bench.job` root span."""
        self.job_id = job_id
        self.enabled = True
        try:
            with self.span("bench.job"):
                yield
        finally:
            self.enabled = False

    def wrap(self, name: str, fn, count=None):
        rec = self
        signature = inspect.signature(fn) if count is not None else None

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            with rec.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(rec, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _pool_task(self, fn, *args, **kwargs):
        with self.span("cli.pool"):
            return fn(*args, **kwargs)

    def executor_class(self):
        """A thread pool that runs each task in the submitter's context, in a span."""
        rec = self

        class ContextExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(
                    contextvars.copy_context().run, rec._pool_task, fn, *args, **kwargs)

        return ContextExecutor

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Swap the wrappers in; `uninstall` puts the originals back."""
        import crraeq.calibrate
        import crraeq.cli
        import crraeq.equilibrium

        modules = [m for n, m in list(sys.modules.items())
                   if n == "crraeq" or n.startswith("crraeq.")]
        for span_name, home, attr, count in WRAPPED:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)

        # log fields: only the calls made from cli and calibrate, so the
        # array calls inside evaluate_series and snapshot stay unwrapped
        for name in LOG_FIELDS:
            original = getattr(crraeq.equilibrium, name, None)
            if original is not None and getattr(crraeq.cli, name, None) is original:
                self._replace(crraeq.cli, name, self.wrap("equilibrium.log_fields", original))
        view = {
            name: self.wrap("equilibrium.log_fields", getattr(crraeq.equilibrium, name))
            for name in LOG_FIELDS if hasattr(crraeq.equilibrium, name)
        }
        self._replace(crraeq.calibrate, "equilibrium", _ModuleView(crraeq.equilibrium, view))
        if hasattr(crraeq.cli, "ThreadPoolExecutor"):
            self._replace(crraeq.cli, "ThreadPoolExecutor", self.executor_class())

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- counts at the layer boundaries --------------------------------------

    def note_validate(self, params) -> None:
        with self._lock:
            self._economies.add((self.job_id, _economy_key(params)))
            self.counts["model.validate.distinct"] = len(self._economies)

    def note_series(self, nodes: int, temp_bytes: int) -> None:
        with self._lock:
            self.counts["simulate.series.nodes"] += nodes
            self.series_temp_bytes = max(self.series_temp_bytes, temp_bytes)

    def note_draws(self, key: tuple, n_paths: int, n_steps: int) -> None:
        """Paths 0..n_paths-1 drawn on one (seed, grid); repeats count as reuse."""
        with self._lock:
            key = (self.job_id,) + key
            before = self._draws.get(key, 0)
            self._draws[key] = max(before, n_paths)
            self.counts["simulate.mc.draws"] += n_paths
            self.counts["simulate.mc.reused"] += min(before, n_paths)
            self.counts["simulate.mc.path_steps"] += n_paths * n_steps


def _count_compositions(rec, bound, result):
    rec.add("multiindex.enumerate.compositions", len(result))


def _count_validate(rec, bound, result):
    rec.note_validate(bound.arguments["params"])


def _count_paths(rec, bound, result):
    rec.add("simulate.paths.count", len(result))


def _count_series(rec, bound, result):
    # the kernel's largest temporaries are (nodes x M) float64 arrays
    nodes = len(bound.arguments["path"].x_values)
    rec.note_series(nodes, nodes * bound.arguments["table"].d_values.size * 8)


def _count_mc(rec, bound, result):
    import crraeq.simulate

    bound.apply_defaults()
    args = bound.arguments
    table, horizon, n_steps = args["table"], args["horizon"], args["n_steps"]
    if "state" in args:
        t0, x0 = args["state"].t, args["state"].x
    else:
        t0, x0 = 0.0, args["x0"]
    if table is None and (horizon is None or n_steps is None):
        return  # the grid would need a table the caller did not pass
    # the grid the oracle itself resolves, so equal grids compare equal
    grid = crraeq.simulate._resolve_grid(t0, horizon, n_steps, table)
    rec.note_draws((args["seed"], x0, grid.t0, grid.horizon, grid.n_steps), args["n_paths"],
                   grid.n_steps)


# (span name, module that defines the function, function, count hook)
WRAPPED = (
    ("multiindex.enumerate", "crraeq.multiindex", "enumerate_compositions", _count_compositions),
    ("model.validate", "crraeq.model", "validate", _count_validate),
    ("calibrate.solve", "crraeq.calibrate", "solve_gamma", None),
    ("equilibrium.snapshot", "crraeq.equilibrium", "snapshot", None),
    ("dynamics.coeffs", "crraeq.dynamics", "rate_bundle", None),
    ("dynamics.coeffs", "crraeq.dynamics", "stock_dynamics", None),
    ("dynamics.coeffs", "crraeq.dynamics", "agent_dynamics", None),
    ("simulate.paths", "crraeq.simulate", "simulate_paths", _count_paths),
    ("simulate.series", "crraeq.simulate", "evaluate_series", _count_series),
    ("simulate.mc", "crraeq.simulate", "mc_wealth_oracle", _count_mc),
    ("simulate.mc", "crraeq.simulate", "mc_stock_oracle", _count_mc),
    ("simulate.mc", "crraeq.simulate", "martingale_check", _count_mc),
    ("simulate.fd", "crraeq.simulate", "fd_engine", None),
    ("cli.main", "crraeq.cli", "main", None),
)

LOG_FIELDS = (
    "log_L_arr",
    "log_state_price_density_arr",
    "log_stock_price_arr",
    "log_Z_arr",
    "log_Z_agent_arr",
)

SPAN_NAMES = tuple(dict.fromkeys([w[0] for w in WRAPPED] + ["equilibrium.log_fields",
                                                              "cli.pool"]))


# -- analysis ------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


def self_cpu_times(spans) -> dict:
    """Span id -> thread CPU time minus that of its children on the same thread."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.cpu for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.cpu
    return own


def has_ancestor(span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False
