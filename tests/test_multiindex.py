import itertools
import math

import numpy as np
import pytest

from crraeq.model import Agent, EconomyParams, validate
from crraeq.multiindex import (
    CompositionCapExceeded,
    composition_count,
    enumerate_compositions,
    log_multinomial_coefficient,
)
from rm1_oracle import exact_multinomial, lifted_block


def listed_by_product(j, k):
    """Compositions of k into j parts: every j-tuple of 0..k that sums to k, descending."""
    return sorted(
        (list(c) for c in itertools.product(range(k + 1), repeat=j) if sum(c) == k),
        reverse=True,
    )


def listed_by_multisets(j, k):
    """Compositions of k into j parts, one per multiset of k slots, descending.

    Unlike the product listing this stays cheap when j is large.
    """
    rows = []
    for slots in itertools.combinations_with_replacement(range(j), k):
        row = [0] * j
        for s in slots:
            row[s] += 1
        rows.append(row)
    return sorted(rows, reverse=True)


def test_listing_two_parts_order_two():
    assert enumerate_compositions(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]


def test_listing_single_part():
    assert enumerate_compositions(1, 5).tolist() == [[5]]


def test_listing_three_parts_order_four():
    comps = enumerate_compositions(3, 4)
    assert comps.shape == (15, 3) and comps.dtype == np.int64
    assert (comps.sum(axis=1) == 4).all()
    assert len({tuple(c) for c in comps.tolist()}) == 15


def test_descending_lexicographic_order():
    rng = np.random.default_rng(7)
    for _ in range(20):
        j = int(rng.integers(1, 6))
        k = int(rng.integers(0, 9))
        assert enumerate_compositions(j, k).tolist() == listed_by_product(j, k)


@pytest.mark.parametrize("r, j", [(4, 1), (3, 3), (5, 4), (4, 5), (7, 7), (2, 41)])
def test_table_matches_brute_force(r, j):
    # at (2, 41) a base-3 integer key of a composition would overflow int64
    parts = enumerate_compositions(j, r)
    assert parts.tolist() == listed_by_multisets(j, r)
    exact = [exact_multinomial(c) for c in parts.tolist()]
    np.testing.assert_allclose(np.exp(log_multinomial_coefficient(parts)), exact, rtol=1e-12)

    params = EconomyParams(
        R=r, sigma=0.1, alpha_star=0.0, delta0=1.0,
        agents=tuple(Agent(0.8, 0.2 * np.sin(i), 0.0) for i in range(j)),
    )
    tab = validate(params)
    np.testing.assert_array_equal(tab.parts, parts)
    # the oracle's level R-1 block is listed on its own, not read off the table
    parts_rm1 = enumerate_compositions(j, r - 1)
    assert parts_rm1.tolist() == listed_by_multisets(j, r - 1)
    exact_rm1 = [exact_multinomial(c) for c in parts_rm1.tolist()]
    for jj in range(j):
        lifted, log_c, _ = lifted_block(params, jj)
        np.testing.assert_array_equal(lifted, parts_rm1 + np.eye(j, dtype=np.int64)[jj])
        np.testing.assert_allclose(np.exp(log_c), exact_rm1, rtol=1e-12)


def test_count_matches_stars_and_bars():
    rng = np.random.default_rng(11)
    for _ in range(30):
        j = int(rng.integers(1, 7))
        k = int(rng.integers(0, 10))
        comps = enumerate_compositions(j, k)
        assert len(comps) == composition_count(j, k) == math.comb(k + j - 1, j - 1)


def test_multinomial_theorem():
    # sum over |beta|=K of C(K,beta) prod x^beta == (sum x)^K
    rng = np.random.default_rng(3)
    for _ in range(25):
        j = int(rng.integers(1, 5))
        k = int(rng.integers(0, 7))
        x = rng.uniform(0.2, 2.0, size=j)
        total = 0.0
        for c in enumerate_compositions(j, k).tolist():
            total += math.exp(log_multinomial_coefficient(c)) * np.prod(x ** np.array(c))
        expected = x.sum() ** k
        assert abs(total - expected) <= 1e-10 * abs(expected)


def test_log_coefficient_agrees_with_exact_integers():
    rng = np.random.default_rng(5)
    for _ in range(40):
        j = int(rng.integers(1, 6))
        k = int(rng.integers(0, 21))
        comps = enumerate_compositions(j, k)
        exact = [exact_multinomial(c) for c in comps.tolist()]
        np.testing.assert_allclose(
            np.exp(log_multinomial_coefficient(comps)), exact, rtol=1e-12
        )


def test_log_coefficient_specific_values():
    assert abs(log_multinomial_coefficient((1, 1)) - math.log(2)) < 1e-14
    assert log_multinomial_coefficient((4, 0, 0)) == pytest.approx(0.0, abs=1e-14)
    assert abs(log_multinomial_coefficient((2, 1, 1)) - math.log(12)) < 1e-13


def test_large_order_stays_finite():
    comps = enumerate_compositions(6, 20)
    assert len(comps) == math.comb(25, 5)
    logs = log_multinomial_coefficient(comps)
    assert np.isfinite(logs).all() and (logs >= 0).all()


def test_log_coefficient_accurate_at_order_64():
    # the exact integer path uses bigints, so it doubles as the reference here
    rng = np.random.default_rng(13)
    for _ in range(20):
        parts = [int(v) for v in rng.multinomial(64, np.ones(8) / 8)]
        np.testing.assert_allclose(
            log_multinomial_coefficient(parts), math.log(exact_multinomial(parts)), rtol=1e-12
        )


def test_cap_enforced():
    with pytest.raises(CompositionCapExceeded) as ei:
        enumerate_compositions(8, 32)  # C(39,7) = 15380937 > 1e7
    assert ei.value.count == math.comb(39, 7)
    assert ei.value.cap == 10_000_000


def test_cap_counts_entries_not_compositions():
    # 593775 compositions are under the cap, but 25 parts each make 14.8M entries
    count = math.comb(30, 24)
    assert count < 10_000_000 < count * 25
    with pytest.raises(CompositionCapExceeded, match="entries") as ei:
        enumerate_compositions(25, 6)
    assert ei.value.count == count


def test_enumeration_deterministic():
    a = enumerate_compositions(4, 6)
    b = enumerate_compositions(4, 6)
    np.testing.assert_array_equal(a, b)
