"""Registry of exact convolution-identity checks.

Each registered identity is one written statement, ``lhs = rhs``, in the
paper's notation.  Checking it evaluates both sides from the `sequences`
primitives and compares them elementwise over 1..n_max with exact
integer arithmetic.  Identities whose statement carries a /2 are checked
in cleared form (both sides doubled) so everything stays in the
integers.  A report records the first failing index and both values
there, which is what you want when hunting a sieve bug.

`REGISTRY` below lists the codes, each with the statement it checks.  The
number of exponents an identity takes comes from the statement's
subscripts: ``_y`` anywhere makes two, else ``_x`` makes one, else none.

The halving-series representations of kappa_x and K are deliberately not
registered here; they are covered by the exact dyadic convergence tests
on `sequences.series_partial`.
"""

from __future__ import annotations

import ast
import operator
import re
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable

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


# A name with an exponent subscript: kappa_x, sigma_y, kappa_0.
_SUBSCRIPTED = re.compile(r"(\w+)_(x|y|\d+)\b")


@dataclass(frozen=True)
class IdentityCheck:
    """A code and the statement ``lhs = rhs`` that check_identity evaluates.

    A side is built from generator names, subscripted ``_x``, ``_y`` or
    with a fixed exponent (``kappa_0``), ``inverse(name)``, int constants,
    and ``+ - *``, where ``*`` of two sequences is Dirichlet convolution.
    """

    code: str
    description: str

    @property
    def exponents_required(self) -> int:
        subscripts = {sub for _, sub in _SUBSCRIPTED.findall(self.description)}
        return 2 if "y" in subscripts else int("x" in subscripts)


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
    """First n where the sequences differ, with lhs(n) and rhs(n), else None."""
    lhs._require_same_range(rhs)
    if lhs == rhs:  # one compare in C, taken by every passing check
        return None
    n = lhs.first_difference(range(1, lhs.n_max + 1), rhs)
    return n, lhs[n], rhs[n]


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _evaluate(side: str, pool: SequencePool, x: int | None, y: int | None) -> ArithSeq:
    """One side of a statement, from the pool's values and their + - *; never a bare int."""
    side = side.strip()
    try:
        tree = ast.parse(side, mode="eval")
    except SyntaxError:
        raise ValueError(f"cannot parse {side!r} in identity statement") from None
    value = _walk(tree.body, pool, x, y)
    if isinstance(value, int):
        raise ValueError(f"unsupported term {side!r} in identity statement")
    return value


def _walk(node: ast.expr, pool: SequencePool, x: int | None, y: int | None) -> ArithSeq | int:
    """The value of one node of a parsed side."""
    match node:
        case ast.Name(name) | ast.Call(ast.Name("inverse"), [ast.Name(name)], []):
            read = pool.get if isinstance(node, ast.Name) else pool.inverse
            m = _SUBSCRIPTED.fullmatch(name)
            if m is None:
                return read(name, None)
            return read(m[1], x if m[2] == "x" else y if m[2] == "y" else int(m[2]))
        case ast.BinOp(left, op, right) if type(op) in _OPERATORS:
            left, right = _walk(left, pool, x, y), _walk(right, pool, x, y)
            with suppress(TypeError):  # an int added to a sequence is unsupported
                return _OPERATORS[type(op)](left, right)
        case ast.Constant(int(value)) if not isinstance(value, bool):
            return value
    raise ValueError(f"unsupported term {ast.unparse(node)!r} in identity statement")


def _resolved(side: str, x: int | None, y: int | None) -> str:
    """The side's text with each _x and _y replaced by its value, as in kappa_3 * sigma_1."""
    exponents = {"x": x, "y": y}
    return _SUBSCRIPTED.sub(lambda m: f"{m[1]}_{exponents.get(m[2], m[2])}", side.strip())


REGISTRY: dict[str, IdentityCheck] = {
    c.code: c
    for c in (
        IdentityCheck("EQ3", "kappa_x * sigma_y = kappa_y * sigma_x"),
        IdentityCheck("EQ4", "2*kappa_x = id_x + one * kappa_x"),
        IdentityCheck("EQ6", "kappa_x = jordan_x * kappa_0"),
        IdentityCheck("EQ7", "inverse(kappa_x) = inverse(jordan_x) * (2*mobius - epsilon)"),
        IdentityCheck("EQ8", "sigma_x = kappa_x * (2*one - num_divisors)"),
        IdentityCheck("EQ9", "kappa_0 = one * K"),
        IdentityCheck("EQ10", "2*K = epsilon + one * K"),
        IdentityCheck("EQ12", "kappa_x = id_x * K"),
        IdentityCheck("EQ13", "inverse(K) = 2*epsilon - one"),
        IdentityCheck("SC1", "kappa_1 = phi * kappa_0"),
        IdentityCheck("SC2", "inverse(kappa_0) = 2*mobius - epsilon"),
        IdentityCheck("JY", "kappa_x * jordan_y = kappa_y * jordan_x"),
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

    return _check(code, n_max, x, y, pool)


def _check(
    code: str,
    n_max: int,
    x: int | None,
    y: int | None,
    pool: SequencePool,
    sides: dict[str, ArithSeq] | None = None,
) -> IdentityReport:
    """check_identity after its validation; given the memo ``sides``, each side is
    read from it by its `_resolved` text, operators and all, or evaluated and stored there."""
    statement = REGISTRY[code].description.split("=")
    if len(statement) != 2:
        raise ValueError(f"identity {code} is not one statement lhs = rhs")
    lhs, rhs = (
        _evaluate(side, pool, x, y) if sides is None
        else sides[key] if (key := _resolved(side, x, y)) in sides
        else sides.setdefault(key, _evaluate(side, pool, x, y))
        for side in statement
    )
    mismatch = compare_sequences(lhs, rhs)
    if mismatch is None:
        return IdentityReport(code, x, y, n_max, True)
    n, lv, rv = mismatch
    return IdentityReport(code, x, y, n_max, False, n, lv, rv)


def check_all(n_max: int, exponent_set: Iterable[int]) -> list[IdentityReport]:
    """Run every registered identity for every required exponent combination.

    Two-exponent identities run over all ordered pairs from the exponent
    set, diagonal included, so symmetric statements get checked in both
    orders.  (x, y) and then (y, x), x < y, share one memo of sides, so a
    mirror-symmetric statement evaluates each side once per pair; the
    diagonal evaluates both of its sides.
    Reports come back sorted by (code, x, y).
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
        if arity < 2:
            combos = [(None, None)] if arity == 0 else [(v, None) for v in xs]
            reports += (check_identity(code, n_max, x=cx, y=cy, pool=pool) for cx, cy in combos)
            continue
        by_pair = {}
        for i, v in enumerate(xs):
            by_pair[v, v] = check_identity(code, n_max, x=v, y=v, pool=pool)
            for w in xs[i + 1 :]:
                sides = {}
                by_pair[v, w] = _check(code, n_max, v, w, pool, sides)
                by_pair[w, v] = _check(code, n_max, w, v, pool, sides)
                del sides  # else the last pair's sides are held through the next checks
        reports += (by_pair[v, w] for v in xs for w in xs)
    return reports
