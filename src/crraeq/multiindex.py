"""Compositions of an integer into nonnegative parts and their multinomial coefficients.

Every closed-form sum in this package runs over the compositions beta of
some order K into J parts (one slot per agent).  This module enumerates
them as the rows of an integer array in a fixed deterministic order and
evaluates the attached multinomial coefficients K! / (beta_1! ... beta_J!)
in log space so large orders cannot overflow.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_COMPOSITION_CAP = 10_000_000


class CompositionCapExceeded(Exception):
    """Enumerating the compositions would materialize more entries than allowed."""

    def __init__(self, j: int, k: int, count: int, cap: int):
        self.j = j
        self.k = k
        self.count = count
        self.cap = cap
        super().__init__(
            f"C({k}+{j}-1, {j}-1) = {count} compositions of {j} parts are "
            f"{count * j} entries, over the cap {cap}; "
            "reduce the risk-aversion order or the number of agents"
        )


def composition_count(j: int, k: int) -> int:
    """Number of compositions of k into j nonnegative parts: C(k+j-1, j-1)."""
    return math.comb(k + j - 1, j - 1)


def enumerate_compositions(
    j: int, k: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> np.ndarray:
    """All compositions of k into j nonnegative parts, lexicographically descending.

    Returns an (M, j) int64 array with one composition per row.  Stars and
    bars: the j-1 bars sit at increasing positions among k+j-1 slots, and
    part i is the number of stars between bars i-1 and i.  Bar positions in
    lexicographic order give the parts in lexicographic order, so the
    reversed `itertools.combinations` listing is the descending one.  The
    order is fixed so that any downstream output built from the table is
    reproducible byte for byte.  Raises CompositionCapExceeded, before
    allocating, when the array would hold more than `cap` entries.
    """
    if j < 1:
        raise ValueError(f"need at least one part, got j={j}")
    if k < 0:
        raise ValueError(f"order must be nonnegative, got k={k}")
    count = composition_count(j, k)
    if count * j > cap:
        raise CompositionCapExceeded(j, k, count, cap)

    slots = k + j - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), j - 1)),
        dtype=np.int64,
        count=count * (j - 1),
    ).reshape(count, j - 1)
    return np.diff(bars[::-1], axis=1, prepend=-1, append=slots) - 1


def log_multinomial_coefficient(parts) -> np.ndarray:
    """log( |beta|! / prod_i beta_i! ) for each composition beta along the last axis.

    Log-factorials come from math.lgamma, so large orders stay finite, and
    are summed slot by slot.
    """
    parts = np.asarray(parts, dtype=np.int64)
    order = parts.sum(axis=-1)
    log_fact = np.array([math.lgamma(v + 1) for v in range(int(order.max(initial=0)) + 1)])
    total = log_fact[parts[..., 0]]
    for slot in range(1, parts.shape[-1]):
        total = total + log_fact[parts[..., slot]]
    return log_fact[order] - total
