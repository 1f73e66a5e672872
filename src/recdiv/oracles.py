"""Slow, independent reference implementations.

These deliberately avoid the sieve machinery in `sequences`: divisors are
found by per-call trial division and the recursions follow the defining
formulas directly.  They exist so the fast code has something honest to
be compared against.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "ordered_factorizations",
    "count_ordered_factorizations",
    "naive_kappa",
    "naive_kappa_range",
    "clear_caches",
]


def clear_caches() -> None:
    """Reset the memo tables so a timing run starts cold."""
    _naive_kappa_memo.cache_clear()
    _count_memo.cache_clear()


def _require_int(v: object, low: int, message: str) -> None:
    # As the sieves do: a bool or a float is not an integer argument.
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise ValueError(message)


def _divisors_by_trial(n: int) -> list[int]:
    # ascending; pairs (d, n//d) found up to sqrt(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """All ordered tuples of integers >= 2 whose product is n.

    n = 1 has exactly the empty product.  Tuples come back sorted, so the
    result is directly comparable against a hand enumeration.
    """
    _require_int(n, 1, "n must be a positive integer")
    if n == 1:
        return [()]
    out = []
    for first in _divisors_by_trial(n):
        if first < 2:
            continue
        for rest in ordered_factorizations(n // first):
            out.append((first, *rest))
    out.sort()
    return out


def count_ordered_factorizations(n: int) -> int:
    """Number of ordered factorizations of n into parts >= 2.

    Counted by the choice of first factor: every factorization of n is a
    divisor d >= 2 followed by a factorization of n/d, plus the empty
    product when n = 1.
    """
    _require_int(n, 1, "n must be a positive integer")
    return _count_memo(n)


# The memos sit behind the checks: lru_cache would answer 4.0 or True
# from the entry for 4 or 1.
@lru_cache(maxsize=None)
def _count_memo(n: int) -> int:
    if n == 1:
        return 1
    return sum(_count_memo(n // d) for d in _divisors_by_trial(n) if d >= 2)


def naive_kappa(x: int, n: int) -> int:
    """Recursive divisor sum at a single point, straight off the definition.

    value(n) = n**x + sum of value(d) over proper divisors d of n.
    """
    _require_int(n, 1, "n must be a positive integer")
    _require_int(x, 0, "x must be a nonnegative integer")
    return _naive_kappa_memo(x, n)


@lru_cache(maxsize=None)
def _naive_kappa_memo(x: int, n: int) -> int:
    total = n**x
    for d in _divisors_by_trial(n):
        if d != n:
            total += _naive_kappa_memo(x, d)
    return total


def naive_kappa_range(x: int, n_max: int) -> list[int]:
    """[naive_kappa(x, 1), ..., naive_kappa(x, n_max)]."""
    _require_int(n_max, 1, "n_max must be a positive integer")
    return [naive_kappa(x, n) for n in range(1, n_max + 1)]
