import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from recdiv.oracles import (
    clear_caches,
    count_ordered_factorizations,
    naive_kappa,
    naive_kappa_range,
    ordered_factorizations,
)


class TestOrderedFactorizations:
    def test_eight_has_exactly_four(self):
        assert ordered_factorizations(8) == [(2, 2, 2), (2, 4), (4, 2), (8,)]

    def test_one_is_the_empty_product(self):
        assert ordered_factorizations(1) == [()]
        assert count_ordered_factorizations(1) == 1

    def test_primes_have_one(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert ordered_factorizations(p) == [(p,)]
            assert count_ordered_factorizations(p) == 1

    def test_twelve(self):
        assert count_ordered_factorizations(12) == 8

    def test_first_twelve_counts(self):
        counts = [count_ordered_factorizations(n) for n in range(1, 13)]
        assert counts == [1, 1, 1, 2, 1, 3, 1, 4, 2, 3, 1, 8]

    def test_count_matches_enumeration(self):
        for n in range(1, 201):
            facs = ordered_factorizations(n)
            assert len(facs) == count_ordered_factorizations(n)
            assert len(set(facs)) == len(facs)
            for fac in facs:
                assert all(part >= 2 for part in fac)
                assert math.prod(fac) == n

    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 9))
    def test_prime_powers_count_compositions(self, p, k):
        # factorizations of p^k are compositions of k: 2^(k-1) of them
        assert count_ordered_factorizations(p**k) == 2 ** (k - 1)

    @given(st.sampled_from(((2, 3), (2, 5), (3, 5), (5, 11))))
    def test_product_of_two_distinct_primes(self, pq):
        p, q = pq
        assert count_ordered_factorizations(p * q) == 3

    def test_rejects_nonpositive(self):
        for bad in (0, -4):
            with pytest.raises(ValueError):
                count_ordered_factorizations(bad)
            with pytest.raises(ValueError):
                ordered_factorizations(bad)


class TestNaiveKappa:
    def test_known_values(self):
        assert naive_kappa(0, 4) == 4
        assert naive_kappa(1, 6) == 14

    def test_one_for_all_exponents(self):
        for x in range(8):
            assert naive_kappa(x, 1) == 1

    def test_range_matches_pointwise(self):
        for x in (0, 2):
            assert naive_kappa_range(x, 60) == [naive_kappa(x, n) for n in range(1, 61)]

    def test_satisfies_recursion(self):
        for x in (0, 1, 3):
            for n in range(1, 121):
                proper = [d for d in range(1, n) if n % d == 0]
                assert naive_kappa(x, n) == n**x + sum(naive_kappa(x, d) for d in proper)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            naive_kappa(0, 0)
        with pytest.raises(ValueError):
            naive_kappa(-1, 5)
        with pytest.raises(ValueError):
            naive_kappa_range(1, 0)


BAD_CALLS = [
    (naive_kappa, (0, 2.0)),
    (naive_kappa, (True, 4)),
    (naive_kappa, (0.0, 4)),
    (naive_kappa_range, (0, True)),
    (naive_kappa_range, (0, 3.0)),
    (count_ordered_factorizations, (4.0,)),
    (count_ordered_factorizations, (True,)),
    (ordered_factorizations, (True,)),
    (ordered_factorizations, (8.0,)),
]


@pytest.mark.parametrize(
    "fn, args",
    BAD_CALLS,
    ids=[f"{fn.__name__}{args}" for fn, args in BAD_CALLS],
)
def test_rejects_bool_and_non_integer_arguments(fn, args):
    # The memos must not answer 4.0 or True from the entries for 4 or 1.
    count_ordered_factorizations(4)
    naive_kappa(0, 4)
    with pytest.raises(ValueError, match="must be a (positive|nonnegative) integer$"):
        fn(*args)


def test_clear_caches_keeps_results_stable():
    before = naive_kappa(1, 360)
    count_before = count_ordered_factorizations(360)
    clear_caches()
    assert naive_kappa(1, 360) == before
    assert count_ordered_factorizations(360) == count_before


@settings(max_examples=30)
@given(st.integers(1, 400))
def test_count_equals_proper_divisor_recursion(n):
    """The first-factor count agrees with the proper-divisor recursion
    it is meant to be independent of."""
    proper = [d for d in range(1, n) if n % d == 0]
    expected = 1 if n == 1 else sum(count_ordered_factorizations(d) for d in proper)
    assert count_ordered_factorizations(n) == expected
