"""Floating-point side of the toolkit.

Evaluates the Riemann zeta function at real s > 1 by Euler-Maclaurin
summation with a rigorous truncation bound, forms compensated partial
sums of tabulated sequences' Dirichlet series, locates the real point
rho where zeta crosses 2 (the pole of the closed forms below), and
cross-checks the sieve output for the recursive divisor sum against its
closed form zeta(s - x) / (2 - zeta(s)).

All of this is double precision.  Requested tolerances below the
double-precision floor (about 1e-13) are clamped to it, and near s = 1
the roundoff in zeta can exceed the request; the reported error bound
is always honest for the value actually returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable

from .sequences import ArithSeq, _require_int, gen_builtin

__all__ = [
    "ZetaValue",
    "SeriesPoint",
    "ClosedFormReport",
    "DivergenceError",
    "SingularityDomainError",
    "zeta",
    "dirichlet_partial_sum",
    "verify_closed_form",
    "find_singularity",
]

# tolerances below this are unattainable in IEEE doubles
TOL_FLOOR = 1e-13

# Relative rounding in a gap besides zeta's: each term f(n) / n^s is
# rounded about three times (int to float, pow, product), math.fsum and
# the quotient once each.
_ROUNDOFF_ULPS = 8

# Bernoulli correction coefficients B_{2j}/(2j)! for j = 1..3, then the
# j = 4 coefficient used only for the truncation bound.
_BERN_COEFFS = (1.0 / 12, -1.0 / 720, 1.0 / 30240)
_BERN_BOUND_COEFF = 1.0 / 1209600


class DivergenceError(ValueError):
    """The requested series value diverges at this s."""


class SingularityDomainError(ValueError):
    """s is at or below the pole where zeta(s) = 2.

    Carries the pole location as .rho so callers can explain the domain.
    """

    def __init__(self, s: float, rho: float):
        self.s = s
        self.rho = rho
        super().__init__(
            f"s = {_shown(s)} is at or below the series pole rho = {_shown(rho)} "
            f"(zeta(s) >= 2); partial sums do not converge there"
        )


@dataclass(frozen=True)
class ZetaValue:
    s: float
    value: float
    abs_error_bound: float


@dataclass(frozen=True)
class SeriesPoint:
    s: float
    n_terms: int
    partial_sum: float


@dataclass(frozen=True)
class ClosedFormReport:
    """Partial sum of the recursive divisor series vs its closed form.

    checkpoint_gaps holds the relative gap at each checkpoint length in
    ascending order (the last one is `gap`).  error_budget is the
    relative error the double-precision evaluation itself may leave in a
    gap: a gap within it is agreement.  gap_shrinks says whether every
    gap above the budget is strictly below the one before it.
    """

    x: int
    s: float
    n_max: int
    tol: float
    partial_sum: float
    closed_form: float
    gap: float
    checkpoint_lengths: tuple[int, ...]
    checkpoint_gaps: tuple[float, ...]
    error_budget: float
    gap_shrinks: bool
    passed: bool


def _shown(v: float) -> str:
    """v as :g prints it when that reads back as v, else its shortest exact repr."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def _finite_s(s: float) -> float:
    """s as a float; ValueError unless it is finite."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("s must be a finite real number")
    return s


def _floored_tol(tol: float) -> float:
    """tol as a float raised to TOL_FLOOR; ValueError unless it is positive."""
    if not tol > 0.0:  # also refuses nan
        raise ValueError("tol must be positive")
    return max(float(tol), TOL_FLOOR)


def _euler_maclaurin(s: float, m: int) -> tuple[float, float]:
    """Zeta estimate with cutoff m and a bound on its truncation error.

    Direct sum to m - 1, half term at m, the tail integral, and three
    Bernoulli corrections.  For real s > 1 the remainder is bounded in
    magnitude by the first omitted correction term.
    """
    direct = math.fsum(n ** -s for n in range(1, m))
    pieces = [direct, 0.5 * m**-s, m ** (1.0 - s) / (s - 1.0)]
    poch = s  # running product s (s+1) ... (s + 2j - 2)
    for j, coeff in enumerate(_BERN_COEFFS, start=1):
        pieces.append(coeff * poch * m ** (-s - 2 * j + 1))
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    bound = abs(_BERN_BOUND_COEFF * poch * m ** (-s - 7))
    return math.fsum(pieces), bound


def zeta(s: float, tol: float = 1e-12) -> ZetaValue:
    """Riemann zeta at real s > 1 to within tol (floored at 1e-13).

    The cutoff doubles until the Euler-Maclaurin truncation bound plus a
    cushion for floating-point roundoff is within tol.  Near s = 1 the
    cushion grows with |zeta| ~ 1/(s - 1) and can exceed tol on its own;
    the loop then stops as soon as truncation no longer dominates, and
    the returned abs_error_bound (truncation plus cushion) is larger than
    tol but still honest.
    """
    s = _finite_s(s)
    if s <= 1.0:
        raise DivergenceError(f"zeta diverges at s = {_shown(s)} (requires s > 1)")
    tol = _floored_tol(tol)

    # Past s = 1100 every term but 1 underflows, so evaluate there: past s ~ 1e44
    # the Bernoulli factors would overflow to inf * 0 = nan and never converge.
    s_eval = min(s, 1100.0)
    m = 8
    while True:
        value, bound = _euler_maclaurin(s_eval, m)
        # cushion for roundoff in the direct sum and corrections
        roundoff = 8.0 * math.ulp(abs(value) + 1.0) * math.sqrt(m)
        # once the cushion alone exceeds tol and truncation no longer
        # dominates, a larger m only grows the cushion: stop there
        if bound + roundoff <= tol or tol < roundoff >= bound:
            return ZetaValue(s, value, bound + roundoff)
        m *= 2


def dirichlet_partial_sum(f: ArithSeq, s: float) -> SeriesPoint:
    """Compensated sum of f(n) / n^s over n = 1 .. f.n_max.

    The result is the correctly rounded sum of the computed terms
    (math.fsum); convergence across growing n_max is the caller's
    concern, so no domain restriction is placed on s.
    """
    s = _finite_s(s)
    return SeriesPoint(s, f.n_max, _fsum(_float_terms(f, s), f, s))


def _fsum(terms: Iterable[float], f: ArithSeq, s: float) -> float:
    """math.fsum, with a sum past the double range as a ValueError, not an OverflowError."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ValueError(
            f"the partial sum of {f.label or 'f'}(n) / n^{_shown(s)} leaves the double range"
        ) from None


def _float_terms(f: ArithSeq, s: float) -> list[float]:
    """The doubles f(n) / n^s; a term past their range is a ValueError naming n.

    A term is f(n) * n^-s when every n^-s is a normal double.  Otherwise
    (n^-s subnormal or 0 at large s, or past the range at negative s) it
    is the int quotient f(n) / n^e, correctly rounded, times n^(e - s),
    with e = ceil(s) clamped to [0, bit length of f(n) + 1100]; so an f(n)
    above the largest double still gives its small term.  A term past the
    range raises OverflowError or is inf, and an inf term makes the plain
    sum inf, so one cheap pass catches it.
    """
    try:
        if f.n_max**-s >= sys.float_info.min:  # n^-s is monotone in n: n_max decides
            terms = [v * n**-s for n, v in enumerate(f, start=1)]
            if math.isfinite(sum(terms)):
                return terms
    except OverflowError:
        pass
    terms = []
    for n, v in enumerate(f, start=1):
        # past that clamp f(n) / n^e is below every double, so e stops there
        e = min(max(math.ceil(s), 0), abs(v).bit_length() + 1100)
        try:
            term = v / n**e * n ** (e - s)
        except OverflowError:
            term = math.inf
        if not math.isfinite(term):
            raise ValueError(
                f"{f.label or 'f'}(n) / n^{_shown(s)} leaves the double range at n = {n}"
            )
        terms.append(term)
    return terms  # the terms are finite; only their plain sum may overflow


@lru_cache(maxsize=None)
def _rho_reference() -> float:
    return find_singularity(1e-12)


def verify_closed_form(
    x: int, s: float, n_max: int, tol: float = 1e-3
) -> ClosedFormReport:
    """Check the recursive divisor sum's series against zeta(s-x)/(2-zeta(s)).

    The sequence is sieved once to n_max and its terms f(n) / n^s are
    formed once; compensated sums of their prefixes at n_max // 4,
    n_max // 2, and n_max are compared with the closed form.  A gap within
    the error budget (the two zeta bounds carried through the quotient,
    plus a few ulps for the rounded terms and sums) counts as agreement;
    above it the gap must strictly shrink across the checkpoints.  The
    report records that and whether the gap lands within tol (floored at
    1e-13) at the full length.
    """
    _require_int(x, 0, "x must be a nonnegative integer")
    _require_int(n_max)
    s = _finite_s(s)
    tol = _floored_tol(tol)

    # domain guard: the denominator 2 - zeta(s) must be positive
    if s <= 1.0 or (den := zeta(s)).value >= 2.0:
        raise SingularityDomainError(s, _rho_reference())
    if s - x <= 1.0:
        raise DivergenceError(
            f"numerator zeta(s - x) diverges at s - x = {_shown(s - x)} (requires > 1)"
        )

    num = zeta(s - x)
    closed = num.value / (2.0 - den.value)
    budget = (
        num.abs_error_bound / num.value
        + den.abs_error_bound / (2.0 - den.value)
        + _ROUNDOFF_ULPS * sys.float_info.epsilon
    )

    f = gen_builtin("kappa", n_max, x=x)
    terms = _float_terms(f, s)
    lengths = sorted({max(1, n_max // 4), max(1, n_max // 2), n_max})
    sums = [_fsum(islice(terms, length), f, s) for length in lengths]
    gaps = [abs(total - closed) / abs(closed) for total in sums]
    shrinks = all(a > b or b <= budget for a, b in zip(gaps, gaps[1:]))
    gap = gaps[-1]
    return ClosedFormReport(
        x=x,
        s=s,
        n_max=n_max,
        tol=tol,
        partial_sum=sums[-1],
        closed_form=closed,
        gap=gap,
        checkpoint_lengths=tuple(lengths),
        checkpoint_gaps=tuple(gaps),
        error_budget=budget,
        gap_shrinks=shrinks,
        passed=bool(gap <= tol and shrinks),
    )


def find_singularity(tol: float = 1e-10) -> float:
    """Real point rho in (1.5, 2.0) with zeta(rho) = 2, by bisection.

    zeta is strictly decreasing on (1, oo), zeta(1.5) > 2 > zeta(2), so
    the bracket is valid; bisection stops at width tol.
    """
    tol = _floored_tol(tol)
    lo, hi = 1.5, 2.0
    inner = min(tol * 1e-2, 1e-12)  # zeta floors it
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if zeta(mid, inner).value > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
