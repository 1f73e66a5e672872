"""Registry of exact convolution-identity checks.

Each registered identity builds its left and right sides from the
`sequences` primitives and compares them elementwise over 1..n_max with
exact integer arithmetic.  Identities whose statement carries a /2 are
checked in cleared form (both sides doubled) so everything stays in the
integers.  A report records the first failing index and both values
there, which is what you want when hunting a sieve bug.

`REGISTRY` below lists the codes, each with its statement and the
number of exponents it takes.

The halving-series representations of kappa_x and K are deliberately not
registered here; they are covered by the exact dyadic convergence tests
on `sequences.series_partial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import ne
from typing import Callable, Iterable

from .sequences import ArithSeq, _require_int, dirichlet_inverse, gen_builtin

__all__ = [
    "IdentityCheck",
    "IdentityReport",
    "SequencePool",
    "REGISTRY",
    "registered_codes",
    "check_identity",
    "check_all",
    "compare_sequences",
]


class SequencePool:
    """Cache of built-in sequences and their inverses at a fixed n_max.

    check_all runs dozens of checks against the same range; the pool makes
    sure each generator and each inverse is computed once.
    """

    def __init__(self, n_max: int) -> None:
        _require_int(n_max)
        self.n_max = n_max
        self._seqs: dict[tuple[str, int | None], ArithSeq] = {}
        self._invs: dict[tuple[str, int | None], ArithSeq] = {}

    def get(self, name: str, x: int | None = None) -> ArithSeq:
        key = (name, x)
        if key not in self._seqs:
            self._seqs[key] = gen_builtin(name, self.n_max, x=x)
        return self._seqs[key]

    def inverse(self, name: str, x: int | None = None) -> ArithSeq:
        key = (name, x)
        if key not in self._invs:
            self._invs[key] = dirichlet_inverse(self.get(name, x))
        return self._invs[key]


Evaluator = Callable[[SequencePool, int | None, int | None], tuple[ArithSeq, ArithSeq]]


@dataclass(frozen=True)
class IdentityCheck:
    code: str
    description: str
    exponents_required: int  # 0, 1, or 2
    evaluator: Evaluator


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check; passed iff no first_failure_n."""

    code: str
    x: int | None
    y: int | None
    n_max: int
    passed: bool
    first_failure_n: int | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None


def compare_sequences(lhs: ArithSeq, rhs: ArithSeq) -> tuple[int, int, int] | None:
    """First index where the sequences differ, with both values, else None."""
    lhs._require_same_range(rhs)
    lv, rv = lhs._vals, rhs._vals
    if lv == rv:  # one compare in C, taken by every passing check
        return None
    # Both tables hold 0 at position 0, so they differ at some n >= 1.
    ne_from_1 = map(ne, islice(lv, 1, None), islice(rv, 1, None))
    n = next(compress(range(1, len(lv)), ne_from_1))
    return n, lv[n], rv[n]


def _eq3(pool, x, y):
    return (
        pool.get("kappa", x) * pool.get("sigma", y),
        pool.get("kappa", y) * pool.get("sigma", x),
    )


def _eq4(pool, x, _y):
    return (
        2 * pool.get("kappa", x),
        pool.get("id", x) + pool.get("one") * pool.get("kappa", x),
    )


def _eq6(pool, x, _y):
    return pool.get("kappa", x), pool.get("jordan", x) * pool.get("kappa", 0)


def _eq7(pool, x, _y):
    two_mu_minus_eps = 2 * pool.get("mobius") - pool.get("epsilon")
    return pool.inverse("kappa", x), pool.inverse("jordan", x) * two_mu_minus_eps


def _eq8(pool, x, _y):
    return (
        pool.get("sigma", x),
        pool.get("kappa", x) * (2 * pool.get("one") - pool.get("num_divisors")),
    )


def _eq9(pool, _x, _y):
    return pool.get("kappa", 0), pool.get("one") * pool.get("K")


def _eq10(pool, _x, _y):
    return (
        2 * pool.get("K"),
        pool.get("epsilon") + pool.get("one") * pool.get("K"),
    )


def _eq12(pool, x, _y):
    return pool.get("kappa", x), pool.get("id", x) * pool.get("K")


def _eq13(pool, _x, _y):
    return pool.inverse("K"), 2 * pool.get("epsilon") - pool.get("one")


def _sc1(pool, _x, _y):
    return pool.get("kappa", 1), pool.get("phi") * pool.get("kappa", 0)


def _sc2(pool, _x, _y):
    return pool.inverse("kappa", 0), 2 * pool.get("mobius") - pool.get("epsilon")


def _jy(pool, x, y):
    return (
        pool.get("kappa", x) * pool.get("jordan", y),
        pool.get("kappa", y) * pool.get("jordan", x),
    )


REGISTRY: dict[str, IdentityCheck] = {
    c.code: c
    for c in (
        IdentityCheck("EQ3", "kappa_x * sigma_y = kappa_y * sigma_x", 2, _eq3),
        IdentityCheck("EQ4", "2*kappa_x = id_x + one * kappa_x", 1, _eq4),
        IdentityCheck("EQ6", "kappa_x = jordan_x * kappa_0", 1, _eq6),
        IdentityCheck(
            "EQ7", "inverse(kappa_x) = inverse(jordan_x) * (2*mobius - epsilon)", 1, _eq7
        ),
        IdentityCheck("EQ8", "sigma_x = kappa_x * (2*one - num_divisors)", 1, _eq8),
        IdentityCheck("EQ9", "kappa_0 = one * K", 0, _eq9),
        IdentityCheck("EQ10", "2*K = epsilon + one * K", 0, _eq10),
        IdentityCheck("EQ12", "kappa_x = id_x * K", 1, _eq12),
        IdentityCheck("EQ13", "inverse(K) = 2*epsilon - one", 0, _eq13),
        IdentityCheck("SC1", "kappa_1 = phi * kappa_0", 0, _sc1),
        IdentityCheck("SC2", "inverse(kappa_0) = 2*mobius - epsilon", 0, _sc2),
        IdentityCheck("JY", "kappa_x * jordan_y = kappa_y * jordan_x", 2, _jy),
    )
}


def registered_codes() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def check_identity(
    code: str,
    n_max: int,
    *,
    x: int | None = None,
    y: int | None = None,
    pool: SequencePool | None = None,
) -> IdentityReport:
    """Check one registered identity exactly over 1..n_max.

    Exponents are validated against the identity's arity; surplus ones are
    ignored.  Passing a SequencePool shares sequence construction across
    calls at the same n_max.
    """
    if code not in REGISTRY:
        raise ValueError(
            f"unknown identity code {code!r}; registered: "
            + ", ".join(registered_codes())
        )
    check = REGISTRY[code]
    arity = check.exponents_required
    if arity >= 1 and x is None:
        raise ValueError(f"identity {code} requires exponent x")
    if arity >= 2 and y is None:
        raise ValueError(f"identity {code} requires exponents x and y")
    if arity == 0:
        x = y = None
    elif arity == 1:
        y = None
    if pool is None:
        pool = SequencePool(n_max)
    elif pool.n_max != n_max:
        raise ValueError(f"pool n_max {pool.n_max} does not match {n_max}")

    lhs, rhs = check.evaluator(pool, x, y)
    mismatch = compare_sequences(lhs, rhs)
    if mismatch is None:
        return IdentityReport(code, x, y, n_max, True)
    n, lv, rv = mismatch
    return IdentityReport(code, x, y, n_max, False, n, lv, rv)


def check_all(n_max: int, exponent_set: Iterable[int]) -> list[IdentityReport]:
    """Run every registered identity for every required exponent combination.

    Two-exponent identities run over all ordered pairs from the exponent
    set, diagonal included, so symmetric statements get checked in both
    orders.  Reports come back sorted by (code, x, y).
    """
    xs = sorted(set(exponent_set))
    if not xs:
        raise ValueError("exponent_set must be nonempty")
    for v in xs:
        _require_int(v, 0, f"exponents must be nonnegative integers, got {v!r}")
    pool = SequencePool(n_max)
    reports = []
    for code in sorted(REGISTRY):
        arity = REGISTRY[code].exponents_required
        if arity == 0:
            combos = [(None, None)]
        elif arity == 1:
            combos = [(v, None) for v in xs]
        else:
            combos = [(v, w) for v in xs for w in xs]
        for cx, cy in combos:
            reports.append(check_identity(code, n_max, x=cx, y=cy, pool=pool))
    return reports
