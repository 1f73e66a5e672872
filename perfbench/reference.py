"""Reference values computed apart from recdiv, for the benchmark's output checks.

Nothing here imports recdiv.  Single values come from trial-division
factorization, the multiplicative formulas, and the defining recursions
over the divisors of n; the series side uses mpmath for the closed form
and a plain sieve summed with math.fsum for the partial sum.
"""

from __future__ import annotations

import math


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, ascending primes."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma(n: int, x: int) -> int:
    if x == 0:
        return num_divisors(n)
    out = 1
    for p, e in factorize(n):
        px = p**x
        out *= (px ** (e + 1) - 1) // (px - 1)
    return out


def num_divisors(n: int) -> int:
    return math.prod(e + 1 for _, e in factorize(n))


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def _divisor_recursion(n: int, seed) -> int:
    """f(n) = seed(n) + sum of f(d) over proper divisors d of n."""
    divs = divisors(n)
    f: dict[int, int] = {}
    for d in divs:
        f[d] = seed(d) + sum(f[e] for e in divs if e < d and d % e == 0)
    return f[n]


def ordered_factorizations(n: int) -> int:
    """K(n): K(1) = 1, K(n) = sum of K(d) over proper divisors d."""
    return _divisor_recursion(n, lambda d: 1 if d == 1 else 0)


def kappa(n: int, x: int) -> int:
    """kappa_x(n) = n^x + sum of kappa_x(d) over proper divisors d."""
    return _divisor_recursion(n, lambda d: d**x)


def value(fn: str, x: int | None, n: int) -> int:
    """Reference value of a `recdiv gen --fn fn [--x x]` term at index n."""
    if fn == "kappa":
        return kappa(n, x)
    if fn == "K":
        return ordered_factorizations(n)
    if fn == "sigma":
        return sigma(n, x)
    if fn == "num_divisors":
        return num_divisors(n)
    if fn == "mobius":
        return mobius(n)
    if fn == "phi":
        return phi(n)
    raise ValueError(f"no reference for {fn!r}")


def kappa_table(x: int, n_max: int) -> list[int]:
    """kappa_x(0..n_max), with 0 at index 0, by its recursion.

    Each n, once final, is added onto its proper multiples in ascending order.
    """
    vals = [n**x for n in range(n_max + 1)]
    vals[0] = 0
    for d in range(1, n_max // 2 + 1):
        vd = vals[d]
        for m in range(2 * d, n_max + 1, d):
            vals[m] += vd
    return vals


def partial_sum(table: list[int], s: float) -> float:
    """Correctly rounded sum of table[n] / n^s over n >= 1."""
    return math.fsum(table[n] * n**-s for n in range(1, len(table)))


def closed_form(x: int, s: float) -> float:
    """zeta(s - x) / (2 - zeta(s)) at 30 significant digits, rounded to a float."""
    import mpmath

    with mpmath.workdps(30):
        s_mp = mpmath.mpf(s)
        return float(mpmath.zeta(s_mp - x) / (2 - mpmath.zeta(s_mp)))
