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


def enumerate_compositions(j: int, k: int) -> np.ndarray:
    """All compositions of k into j nonnegative parts, lexicographically descending.

    Returns an (M, j) int64 array with one composition per row.  Stars and
    bars: the j-1 bars sit at increasing positions among k+j-1 slots, and
    part i is the number of stars between bars i-1 and i.  Bar positions in
    lexicographic order give the parts in lexicographic order, so the
    reversed `itertools.combinations` listing is the descending one.  The
    order is fixed so that any downstream output built from the table is
    reproducible byte for byte.  Raises ValueError when the k+j-1 slots do
    not fit in int64, and CompositionCapExceeded, before allocating, when
    the array would hold more than DEFAULT_COMPOSITION_CAP entries.
    """
    if j < 1:
        raise ValueError(f"need at least one part, got j={j}")
    if k < 0:
        raise ValueError(f"order must be nonnegative, got k={k}")
    if k + j - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"compositions of {k} into {j} parts are beyond the int64 range")
    count = composition_count(j, k)
    if count * j > DEFAULT_COMPOSITION_CAP:
        raise CompositionCapExceeded(j, k, count, DEFAULT_COMPOSITION_CAP)
    if j == 1:
        return np.array([[k]], dtype=np.int64)  # combinations() would hold range(k)

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
    are summed slot by slot.  They are tabulated at 0..max order when that
    is no more values than the entries; otherwise (few compositions of a
    large order, such as one agent's at a huge R) only at the values that
    occur, each entry replaced by its rank among them.  Either way each
    log-factorial is the same float.
    """
    parts = np.asarray(parts, dtype=np.int64)
    order = parts.sum(axis=-1)
    top = int(order.max(initial=0))
    if top < parts.size:
        values = range(top + 1)
    else:
        keys = np.append(parts, order[..., None], axis=-1)
        values, ranks = np.unique(keys, return_inverse=True)
        ranks = ranks.reshape(keys.shape)
        parts, order, values = ranks[..., :-1], ranks[..., -1], values.tolist()
    log_fact = np.array([math.lgamma(v + 1) for v in values])
    total = log_fact[parts[..., 0]]
    for slot in range(1, parts.shape[-1]):
        total = total + log_fact[parts[..., slot]]
    return log_fact[order] - total
