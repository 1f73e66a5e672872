"""Exact tabulation of arithmetic functions and their Dirichlet algebra.

Every sequence is integer valued and tabulated on n = 1..n_max with
Python's arbitrary-precision integers, so identity checks compare exact
values and never round.  ``kappa``, ``K``, the Dirichlet inverse and
the Dirichlet convolution take their slice updates in one order, from
`_recursion_updates`: every pair (d, m) with m >= 2 and d m <= N, split
at r = isqrt(N), up to r one update per d and piece, above it one per
block [lo, lo + min(lo, 8r)) and multiplier m.  One size, 8r by
`_piece`, cuts those pieces, the seed's and the inverse's sign pass.
So O(sqrt(N) log N) slice updates carry the O(N log N) operations, not
N.  The first three are one sieve over multiples, a proper-divisor
recursion that reads the table it writes; the convolution reads a
separate table.  For kappa and K the table starts in an ``array`` of
4-byte, else 8-byte lanes, and each slice update is one addition of
Python ints holding the lanes as fixed-width fields.  The seed n^x goes
in the same way, a piece at a time, as a sum of binomial multiples of
packed columns m^i.  An update that would carry across lanes is left
unwritten; the table widens in place to 8-byte lanes, or past those to
a list, and the run resumes with that update.  The five multiplicative
generators (``mobius``, ``phi``, ``jordan``, ``sigma``,
``num_divisors``) are O(N): one step per odd n over the
smallest-prime-factor table, an O(N log log N) sieve writing one slice
per prime up to sqrt(N), then one slice per power of two q <= N for the
even n, by f(q o) = f(q) f(o) for odd o.  The table marks 1 and the
primes with 0, so it holds no int object per entry, and the fill keeps
each odd prime's recurrence coefficients in lists indexed by p <= sqrt(N).

Built-in generators, by identifier (see `gen_builtin`):

    epsilon       convolution identity: 1, 0, 0, ...
    mobius        Mobius function
    one           constant 1
    id            power function n^x              (needs x)
    phi           Euler totient
    jordan        Jordan totient J_x              (needs x)
    num_divisors  number of divisors
    sigma         sum of x-th powers of divisors  (needs x)
    kappa         recursive divisor sum:
                  kappa(n) = n^x + sum of kappa(d) over proper divisors d
                                                  (needs x)
    K             number of ordered factorizations into factors > 1:
                  K(n) = [n == 1] + sum of K(d) over proper divisors d

`ArithSeq` supports the convolution-ring operators directly: ``f * g`` is
the Dirichlet convolution, ``c * f`` scales by an integer c, and
``f + g`` / ``f - g`` combine elementwise.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, compress, islice, repeat
from math import comb, inf, isqrt
from operator import add, ne, sub
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "ArithSeq",
    "RatSeq",
    "DivisorTable",
    "NotAUnitError",
    "BUILTIN_NAMES",
    "PARAMETRIC_NAMES",
    "make_divisor_table",
    "gen_builtin",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "series_partial",
]

BUILTIN_NAMES = (
    "epsilon",
    "mobius",
    "one",
    "id",
    "phi",
    "jordan",
    "num_divisors",
    "sigma",
    "kappa",
    "K",
)

# Generators that take the exponent x; for the rest x is ignored.
PARAMETRIC_NAMES = frozenset({"id", "jordan", "sigma", "kappa"})


class NotAUnitError(ValueError):
    """f(1) is outside {+1, -1}, so no integer Dirichlet inverse exists."""


def _require_int(
    v: object, low: int = 1, message: str = "n_max must be a positive integer"
) -> None:
    """Raise ValueError(message) unless v is an int >= low (bools excluded)."""
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise ValueError(message)


class ArithSeq:
    """Integer-valued arithmetic function tabulated on n = 1..n_max.

    The backing array is padded so that position n holds f(n); the
    external contract is the 1-based sequence f(1)..f(n_max).  Equality
    compares n_max and values, never labels.
    """

    __slots__ = ("n_max", "label", "_vals")

    def __init__(self, terms: Iterable[int], label: str = "") -> None:
        terms = list(terms)
        if not terms:
            raise ValueError("an ArithSeq needs at least one term (n_max >= 1)")
        for t in terms:
            if isinstance(t, bool) or not isinstance(t, int):
                raise ValueError(f"terms must be exact integers, got {t!r}")
        self.n_max = len(terms)
        self.label = label
        self._vals = [0] + terms

    @classmethod
    def _from_padded(cls, padded: list[int], label: str) -> ArithSeq:
        # Internal: takes ownership of a 0-padded array, skips validation.
        seq = cls.__new__(cls)
        seq.n_max = len(padded) - 1
        seq.label = label
        seq._vals = padded
        return seq

    def __len__(self) -> int:
        return self.n_max

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"sequence is defined on 1..{self.n_max}, got n={n}")
        return self._vals[n]

    def __iter__(self) -> Iterator[int]:
        return islice(iter(self._vals), 1, None)

    def terms(self) -> list[int]:
        """The values f(1)..f(n_max) as a fresh list."""
        return self._vals[1:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArithSeq):
            return NotImplemented
        # Both pads are 0, so the padded arrays compare directly.
        return self._vals == other._vals

    __hash__ = None  # type: ignore[assignment]

    def first_difference(self, indices: Sequence[int], values: Iterable[int]) -> int | None:
        """First n of `indices` where f(n) differs from its entry of `values`, else None.

        One scan in C, with no copy of the table.  It reads `indices` twice,
        so they must be a range or a list; each n must lie in 1..n_max.
        """
        pairs = map(ne, map(self._vals.__getitem__, indices), values)
        return next(compress(indices, pairs), None)

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self._vals[1:9])
        tail = ", ..." if self.n_max > 8 else ""
        return f"ArithSeq({self.label!r}, n_max={self.n_max}, [{head}{tail}])"

    # Convolution-ring operators.  `*` follows the type of the operand:
    # sequence * sequence is Dirichlet convolution, int * sequence scales.

    def __mul__(self, other: ArithSeq | int) -> ArithSeq:
        if isinstance(other, ArithSeq):
            return dirichlet_convolve(self, other)
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other: int) -> ArithSeq:
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __add__(self, other: ArithSeq) -> ArithSeq:
        return self._elementwise(other, add, "+")

    def __sub__(self, other: ArithSeq) -> ArithSeq:
        return self._elementwise(other, sub, "-")

    def _elementwise(self, other: ArithSeq, op: Callable, sign: str) -> ArithSeq:
        if not isinstance(other, ArithSeq):
            return NotImplemented
        self._require_same_range(other)
        padded = list(map(op, self._vals, other._vals))
        return ArithSeq._from_padded(padded, f"{self.label}{sign}{other.label}")

    def _scaled(self, c: int) -> ArithSeq:
        return ArithSeq._from_padded([c * v for v in self._vals], f"{c}*{self.label}")

    def _require_same_range(self, other: ArithSeq) -> None:
        if self.n_max != other.n_max:
            raise ValueError(
                f"range mismatch: n_max {self.n_max} vs {other.n_max}"
            )


class RatSeq:
    """Dyadic-rational sequence on 1..n_max with one shared denominator 2^m.

    Every entry is numerator(n) / 2^denominator_exponent.  The unreduced
    numerators are an `ArithSeq`, shared if one is passed in, which checks
    them and the index.
    """

    __slots__ = ("n_max", "denominator_exponent", "_nums")

    def __init__(self, numerators: Iterable[int], denominator_exponent: int) -> None:
        nums = numerators if isinstance(numerators, ArithSeq) else ArithSeq(numerators)
        e = denominator_exponent
        _require_int(e, 0, f"denominator exponent must be a nonnegative integer, got {e!r}")
        self.n_max = nums.n_max
        self.denominator_exponent = denominator_exponent
        self._nums = nums

    def numerator(self, n: int) -> int:
        return self._nums[n]

    def __getitem__(self, n: int):
        from fractions import Fraction

        return Fraction(self.numerator(n), 1 << self.denominator_exponent)

    def __repr__(self) -> str:
        head = ", ".join(map(str, islice(self._nums, 6)))
        tail = ", ..." if self.n_max > 6 else ""
        return (
            f"RatSeq(n_max={self.n_max}, 2^-{self.denominator_exponent} *"
            f" [{head}{tail}])"
        )


class DivisorTable:
    """Smallest-prime-factor table for factorizing n in 1..n_max."""

    __slots__ = ("n_max", "_spf")

    def __init__(self, n_max: int) -> None:
        _require_int(n_max)
        self.n_max = n_max
        self._spf = _spf_array(n_max)

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as (prime, exponent) pairs, ascending."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"table covers 1..{self.n_max}, got n={n}")
        spf = self._spf
        out = []
        while n > 1:
            p = spf[n] or n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def prime_factor_count(self, n: int) -> int:
        """Number of prime factors of n counted with multiplicity (big Omega)."""
        return sum(e for _, e in self.factorize(n))


def make_divisor_table(n_max: int) -> DivisorTable:
    """Precompute the smallest-prime-factor table for 1..n_max."""
    return DivisorTable(n_max)


def _spf_array(n_max: int) -> list[int]:
    """spf[n] is the smallest prime factor of a composite n, 0 at 1 and the primes.

    The zeros share one int object, and so does each prime's slice: the
    table holds no int object per entry.
    """
    spf = [0] * (n_max + 1)
    # Descending p, so the smallest prime factor of a multiple writes last;
    # spf[p] is not final yet, so trial division tells whether p is prime.
    for p in range(isqrt(n_max), 1, -1):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            spf[p * p :: p] = [p] * ((n_max - p * p) // p + 1)
    return spf


# ---------------------------------------------------------------------------
# Built-in generators


def gen_builtin(name: str, n_max: int, *, x: int | None = None) -> ArithSeq:
    """Tabulate a built-in arithmetic function on 1..n_max.

    ``x`` is the exponent for the parametric generators (id, jordan,
    sigma, kappa); passing it for any other identifier is an error, as
    is omitting it for a parametric one.  Unknown identifiers raise
    ValueError.  A table too large for memory raises MemoryError naming
    n_max, up front when `_table_bytes` exceeds the memory the process
    may use.
    """
    _require_int(n_max)
    label = _generator_label(name, x)
    try:
        # No list holds it, or it cannot fit: fail before the list grows.
        # f(n) >= n**power; J_x(n) = n**x prod(1 - p**-x) >= n**(x - 1) phi(n)
        power = x if name in ("id", "sigma", "kappa") else max(x - 1, 0) if name == "jordan" else 0
        if n_max >= sys.maxsize or _table_bytes(n_max, power) > _memory_limit():
            raise MemoryError
        if name == "epsilon":
            padded = [0] * (n_max + 1)
            padded[1] = 1
        elif name == "one":
            padded = [1] * (n_max + 1)
            padded[0] = 0
        elif name == "id":
            padded = [n**x for n in range(n_max + 1)]
            padded[0] = 0
        elif name == "mobius":
            padded = _multiplicative_fill(n_max, lambda p: (-1, 0, 0))
        elif name == "phi":
            padded = _multiplicative_fill(n_max, lambda p: (p - 1, p, 0))
        elif name == "jordan":
            # Independent of the mobius * id_x convolution it is tested against.
            padded = _multiplicative_fill(n_max, lambda p: (p**x - 1, p**x, 0))
        elif name == "num_divisors":
            # d(p^e) = e + 1 = 2 d(p^(e-1)) - d(p^(e-2))
            padded = _multiplicative_fill(n_max, lambda p: (2, 2, 1))
        elif name == "sigma":
            # sigma_x(p^e) = (1 + p^x) sigma_x(p^(e-1)) - p^x sigma_x(p^(e-2));
            # independent of kappa and of one * id_x, which identities compare it to.
            padded = _multiplicative_fill(n_max, lambda p: (1 + p**x, 1 + p**x, p**x))
        else:  # kappa, or K with x None
            padded = _recursive_family(n_max, x)
    except MemoryError:
        raise MemoryError(
            f"out of memory tabulating {label} on n = 1..{n_max}"
        ) from None

    return ArithSeq._from_padded(padded, label)


def _generator_label(name: str, x: int | None) -> str:
    """The label gen_builtin gives `name` at exponent x; ValueError if they do not fit."""
    if name not in BUILTIN_NAMES:
        raise ValueError(
            f"unknown function identifier {name!r}; expected one of "
            + ", ".join(BUILTIN_NAMES)
        )
    if name not in PARAMETRIC_NAMES:
        if x is not None:
            raise ValueError(f"generator {name!r} takes no exponent")
        return name
    if x is None:
        raise ValueError(f"generator {name!r} requires the exponent x")
    _require_int(x, 0, f"exponent x must be a nonnegative integer, got {x!r}")
    return f"{name}_{x}"


# Estimated bytes per tabulated term: a list pointer plus one int object
# of a single 30-bit digit.  id and kappa with x >= 1 and the
# multiplicative fills hold at least that; epsilon and one hold the
# pointer alone.
_TERM_BYTES = 8 + sys.getsizeof(1)


def _table_bytes(n_max: int, power: int) -> int:
    """Estimated bytes of n_max terms, each f(n) >= n**power, from bit lengths.

    A term n in [2^k, 2^(k+1)) holds n**power >= 2^(power*k), so at least
    power*k // bits_per_digit digits past the one _TERM_BYTES counts.
    """
    info = sys.int_info
    total = n_max * _TERM_BYTES
    for k in range(1, n_max.bit_length()):
        terms = min(2 << k, n_max + 1) - (1 << k)
        total += terms * (power * k // info.bits_per_digit) * info.sizeof_digit
    return total


def _memory_limit() -> float:
    """Bytes this process may use: physical memory, capped by a soft RLIMIT_AS.

    inf where the platform reports neither (both are Unix facilities).
    """
    try:
        import resource

        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ImportError, AttributeError, ValueError, OSError):
        return inf
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def _multiplicative_fill(
    n_max: int, factors: Callable[[int], tuple[int, int, int]]
) -> list[int]:
    """Tabulate a multiplicative f in O(N) over the smallest-prime-factor table.

    ``factors(p)`` returns ``(new(p), same(p), back(p))`` and is called
    exactly once per prime p <= N: for an odd p (spf[p] == 0) when the
    ascending fill over odd n reaches it, for 2 before the even pass.
    f(p) = new(p), and each odd composite n takes one step over its
    smallest prime factor p, with m = n/p (both odd):

        f(n) = new(p) * f(m)                        if p does not divide m
        f(n) = same(p) * f(m) - back(p) * f(m/p)    otherwise

    so f(p^e) = same(p) * f(p^(e-1)) - back(p) * f(p^(e-2)) for e >= 2.
    The coefficients of p <= r = isqrt(N) go in three lists indexed by p.
    Then the even n take one slice per power of two q = 2^e <= N, by
    f(q o) = f(q) f(o) for odd o, with f(q) from the same recurrence.
    """
    spf = _spf_array(n_max)
    r = isqrt(n_max)
    news, sames, backs = [0] * (r + 1), [0] * (r + 1), [0] * (r + 1)
    f = [0] * (n_max + 1)
    f[1] = 1
    for n in range(3, n_max + 1, 2):
        p = spf[n]
        if not p:
            new, same, back = factors(n)
            f[n] = new
            # A composite n has spf[n]^2 <= n: no step needs a larger p.
            if n <= r:
                news[n], sames[n], backs[n] = new, same, back
        else:
            m = n // p
            f[n] = news[p] * f[m] if m % p else sames[p] * f[m] - backs[p] * f[m // p]
    del spf  # not held through the slices below
    if n_max >= 2:
        new, same, back = factors(2)
        prev, fq = 1, new
        for e in range(1, n_max.bit_length()):
            q = 1 << e
            f[q :: 2 * q] = [fq * v for v in f[1 : n_max // q + 1 : 2]]
            prev, fq = fq, same * fq - back * prev
    return f


def _recursive_family(n_max: int, x: int | None) -> list[int]:
    """kappa_x, or K when x is None, on 0..n_max with a 0 pad at 0.

    The seed (id_x, or epsilon for K) goes into the narrowest storage
    whose signed range holds it: 4-byte lanes, 8-byte lanes, else a list.
    Lanes take id_x from `_seed_lanes` as packed big ints, a list from
    ``map(pow, ...)``, a `_piece` at a time.  When an update does not fit
    the lanes, the table as it stands widens and the run resumes with
    that update, so none is applied twice.
    """
    from array import array  # a shared library: loaded on first use, not at import

    top = 1 if x is None else n_max**x
    # Signed 4-byte, then 8-byte lanes (C int and long long).
    codes = [c for c in "iq" if top < 1 << (8 * array(c).itemsize - 1)]
    table = array(codes[0], [0]) * (n_max + 1) if codes else [0] * (n_max + 1)
    # One allocation, filled in pieces: no N-length temporary beside it,
    # and no growing buffer to leave holes in the heap.
    if x is None:
        table[1] = 1
    elif codes:
        _seed_lanes(table, x)
    else:
        piece = _piece(n_max)
        for lo in range(1, n_max + 1, piece):
            seed = map(pow, range(lo, min(lo + piece, n_max + 1)), repeat(x))
            table[lo : lo + piece] = list(seed)
    updates = _recursion_updates(n_max)
    while isinstance(table, array):
        pending = _apply_to_lanes(table, updates)
        if pending is None:
            return table.tolist()
        updates = chain([pending], updates)
        table = array("q", table) if table.typecode == "i" else table.tolist()
    _apply_to_list(table, updates)
    return table


def _piece(n_max: int) -> int:
    """Most entries per slice write of the recursion, its seed and sign pass."""
    return max(8 * isqrt(n_max), 1)


def _seed_lanes(a: array.array, x: int) -> None:
    """Write n^x into the lanes n = 1..N of a; N^x must be below 2^(b-1).

    Each piece n = lo + m, m < `_piece` (N), is one int with lane m at
    bit b m, the sum over i of lo^(x-i) times C(x, i) times the column of
    m^i, columns built once.  A column lane m^i >= 2^b wraps, but lanes
    n <= N hold m^i <= n^x and sums of at most N^x, so none of them
    carries; the lanes past N, all in the last piece, may, and their
    carries only move up, to lanes that the mask and its length drop.  So
    there is no Python call per entry and no N-length temporary.
    """
    from array import array

    code, width, end = a.typecode, a.itemsize, len(a)
    lane, size = (1 << 8 * width) - 1, _piece(end - 1)
    columns = []
    for i in range(x + 1):
        packed = b"".join((m**i & lane).to_bytes(width, "little") for m in range(size))
        columns.append((x - i, comb(x, i) * int.from_bytes(packed, "little")))
    mask = (1 << 8 * width * size) - 1
    for lo in range(1, end, size):
        t = sum(lo**e * column for e, column in columns) & mask
        piece = array(code, t.to_bytes(width * size, "little")[: width * (end - lo)])
        if _BYTEORDER == "big":
            piece.byteswap()
        a[lo : lo + size] = piece


def _recursion_updates(n_max: int, width: int | None = None) -> Iterator[tuple]:
    """Every pair (d, m) with m >= 2 and d m <= N as slice updates, in order.

    An update adds sources into the destination slice ``dst`` of the
    table:

    * ``(dst, d, ms)`` for d <= r = isqrt(N): entry d into its multiples
      d m for m in the slice ``ms``, in pieces of `_piece` (N) = 8r
      entries.  Ascending d, so all proper divisors of d have spread into
      it already.
    * ``(dst, ds, m)`` per block [lo, lo + width) above r: the entries d
      in the slice ``ds`` into d m, one multiplier m at a time.

    The sieve and the inverse read their sources from the table they
    write, so by default a block [lo, lo + w) is w = min(lo, 8r) wide:
    its proper divisors are at most (lo + w - 1) / 2 < lo, so every
    source is final once the blocks below it have spread.  The blocks
    double from r + 1 to 8r, then stay 8r wide.  The convolution reads a
    separate table and passes width N: one block, one update per m.

    O(N log N) operations in one update per d and piece up to r, and
    about (7/4 + ln(sqrt(N) / 8) / 8) sqrt(N) updates above it by
    default (1124 in all at N = 10^5, 3858 at 10^6), sqrt(N) at width N.
    """
    r = isqrt(n_max)
    piece = _piece(n_max)
    for d in range(1, r + 1):
        top = n_max // d
        for m0 in range(2, top + 1, piece):
            m1 = min(m0 + piece, top + 1)
            yield slice(m0 * d, m1 * d, d), d, slice(m0, m1)
    # Blocks of at most 8r, not dyadic blocks [lo, 2 lo) up to N: those
    # update up to N / 4 entries at once, and a run of many series jobs
    # then kept about 1.5 MiB more resident memory.
    lo = r + 1
    while lo <= n_max:
        hi = min(lo + (width or min(lo, piece)), n_max + 1)
        for m in range(2, n_max // lo + 1):
            top = min(hi - 1, n_max // m)
            yield slice(m * lo, m * top + 1, m), slice(lo, top + 1), m
        lo = hi


def _apply_to_lanes(a: array.array, updates: Iterator[tuple]) -> tuple | None:
    """Apply `_recursion_updates` to the lanes of a, in place, unweighted.

    Each update is one addition of Python ints holding the lanes as
    fixed-width fields: ``from_bytes(a[dst])`` plus the source block's
    int, or a[d] times a mask with a 1 in every lane, written back with
    ``to_bytes``.  Every lane is below 2^(b-1) before an add (the seed
    fits the signed typecode), so no two-lane sum reaches 2^b and no
    carry crosses a lane.  The first add that sets ``t & high``, the top
    bit of any lane, is returned unwritten, so a wider table can resume
    from it; None once every update is in.
    """
    from array import array

    code, width = a.typecode, a.itemsize
    bits = 8 * width
    from_bytes = int.from_bytes
    size = 0
    block = None
    for update in updates:
        dst, d, m = update
        scalar = isinstance(d, int)
        k = m.stop - m.start if scalar else d.stop - d.start
        if k > size:
            # Masks sized to the longest update so far: no work at import.
            size = k
            ones = from_bytes(array(code, [1]) * size, _BYTEORDER)
            high = ones << (bits - 1)
        if scalar:
            t = from_bytes(a[dst], _BYTEORDER) + a[d] * (ones >> bits * (size - k))
        else:
            if d != block:
                # A whole block's source repeats for every m up to N / (hi - 1).
                block, src = d, from_bytes(a[d], _BYTEORDER)
            t = from_bytes(a[dst], _BYTEORDER) + src
        if t & high:
            return update
        a[dst] = array(code, t.to_bytes(width * k, _BYTEORDER))
    return None


# The lanes are native machine words; read and write them in native order.
_BYTEORDER = sys.byteorder


def _apply_to_list(
    vals: list[int],
    updates: Iterator[tuple],
    w: list[int] | None = None,
    c: int = 1,
    src: list[int] | None = None,
) -> None:
    """Apply `_recursion_updates` to the list vals, in place, exactly.

    Each pair (d, m) adds src[d] into vals[d m]; src is vals itself
    unless given.  Unweighted: kappa_x and K, here when their values pass
    8-byte lanes.  With weights w it adds c w[m] src[d], the sign c put
    on each update's scalar (src[d] for a d up to r, w[m] for a block):
    the Dirichlet inverse with c = -f(1), and the convolution with c = 1
    and a separate source.
    """
    if src is None:
        src = vals
    for dst, d, m in updates:
        if isinstance(d, int):
            vd = c * src[d]
            if not vd:
                continue
            if w is None:
                vals[dst] = [v + vd for v in vals[dst]]
            else:
                vals[dst] = [v + vd * wm for v, wm in zip(vals[dst], w[m])]
        elif w is None:
            vals[dst] = map(add, vals[dst], src[d])
        elif wm := c * w[m]:
            vals[dst] = [v + wm * vd for v, vd in zip(vals[dst], src[d])]


# ---------------------------------------------------------------------------
# Convolution algebra


def dirichlet_convolve(f: ArithSeq, g: ArithSeq) -> ArithSeq:
    """Dirichlet convolution: result(n) = sum over d|n of f(d) * g(n/d).

    One pass out = g(1) f takes the pairs (d, 1); `_apply_to_list` adds
    f(d) g(m) into out[d m] for every other pair, on `_recursion_updates`
    with one block above r: O(N log N) multiplications in about
    2 sqrt(N) slice updates.  Exact, commutative, and associative.
    """
    f._require_same_range(g)
    g1 = g._vals[1]
    out = [g1 * v for v in f._vals]
    _apply_to_list(out, _recursion_updates(f.n_max, f.n_max), g._vals, 1, f._vals)
    return ArithSeq._from_padded(out, f"{f.label}*{g.label}")


def dirichlet_inverse(f: ArithSeq) -> ArithSeq:
    """The g with f * g = epsilon: g(1) = f(1), and g(n) = -f(1) times the
    sum of f(n/d) g(d) over proper divisors d of n.

    The result list is the only table.  `_apply_to_list` fills it with
    weights f and sign c = -f(1) as the unscaled sums S = g / c: S(1) =
    -1, S(n) = sum of c f(n/d) S(d) over proper divisors d.  For the
    inverse of K these are mostly small nonnegative ints, which CPython
    caches; stored signed, they would double its peak memory.  Then
    g = c S, a `_piece` at a time.  Requires f(1) in {+1, -1}; anything
    else raises NotAUnitError because the inverse would leave the integers.
    """
    u = f._vals[1]
    if u not in (1, -1):
        raise NotAUnitError(
            f"f(1) = {u} is not +1 or -1; the sequence has no integer inverse"
        )
    n_max, c = f.n_max, -u
    g = [0] * (n_max + 1)
    g[1] = -1
    _apply_to_list(g, _recursion_updates(n_max), f._vals, c)
    if c != 1:
        piece = _piece(n_max)
        for lo in range(1, n_max + 1, piece):
            g[lo : lo + piece] = [-v for v in g[lo : lo + piece]]
    return ArithSeq._from_padded(g, f"{f.label}^-1" if f.label else "inverse")


# ---------------------------------------------------------------------------
# Dyadic series partial sums


def series_partial(kind: str, m: int, n_max: int, *, x: int | None = None) -> RatSeq:
    """Exact partial sum of the halving series for kappa_x or K.

    The series puts term k over 2^k: for kind="kappa" the terms are id_x,
    one*id_x, one*one*id_x, ...; for kind="K" they are epsilon, one,
    one*one, ....  Each term reuses the previous one through a single
    convolution with the constant function, so m terms cost
    O(m * N log N).  The result carries the shared denominator 2^m.
    """
    if kind not in ("kappa", "K"):
        raise ValueError(f"kind must be 'kappa' or 'K', got {kind!r}")
    _require_int(m, 1, "term count m must be at least 1")
    _generator_label(kind, x)  # kappa needs x, K takes none
    term = gen_builtin("id", n_max, x=x) if kind == "kappa" else gen_builtin("epsilon", n_max)
    one = gen_builtin("one", n_max)
    total = term
    for _ in range(m - 1):
        term = one * term
        total = 2 * total + term
    return RatSeq(total, m)
