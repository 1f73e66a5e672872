import random
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import accumulate, product
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from recdiv import sequences
from recdiv.oracles import naive_kappa, naive_kappa_range
from recdiv.sequences import (
    ArithSeq,
    NotAUnitError,
    RatSeq,
    dirichlet_convolve,
    dirichlet_inverse,
    gen_builtin,
    make_divisor_table,
    series_partial,
)
import golden_table as gt


def brute_divisors(n):
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def brute_factorize(n):
    """(prime, exponent) pairs of n in ascending order, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_multiplicative(name, x, n):
    """A multiplicative f(n) as the product of f over the prime powers of n."""
    value = 1
    for p, e in brute_factorize(n):
        if name == "mobius":
            value *= -1 if e == 1 else 0
        elif name == "phi":
            value *= p ** (e - 1) * (p - 1)
        elif name == "jordan":
            value *= p ** (x * e) - p ** (x * (e - 1))
        elif name == "sigma":
            value *= sum(p ** (x * i) for i in range(e + 1))
        else:  # num_divisors
            value *= e + 1
    return value


def brute_convolve(f_terms, g_terms):
    n_max = len(f_terms)
    out = []
    for n in range(1, n_max + 1):
        out.append(sum(f_terms[d - 1] * g_terms[n // d - 1] for d in brute_divisors(n)))
    return out


def brute_inverse(f_terms):
    """g with f * g = epsilon by the ascending-n recursion over divisors."""
    u = f_terms[0]
    g = [u]
    for n in range(2, len(f_terms) + 1):
        g.append(-u * sum(f_terms[n // d - 1] * g[d - 1] for d in brute_divisors(n)[:-1]))
    return g


def brute_proper_divisor_sums(seed):
    """v(n) = seed(n) + sum of v(d) over proper divisors d, ascending n."""
    v = []
    for n, a in enumerate(seed, start=1):
        v.append(a + sum(v[d - 1] for d in brute_divisors(n)[:-1]))
    return v


# The kernels split at r = isqrt(N): every N up to 150, and N just below,
# at and past r^2 (r^2 - 1, r^2, r^2 + r, r^2 + 2r) for three r.  Slice
# writes go in pieces of 8r: at N = 256, 8r is N/2; at 4097 the last seed
# piece holds one lane, and at 4098 the last d = 1 stride piece one entry.
SPLIT_NS = list(range(1, 151)) + [
    n for r in (10, 31, 64) for n in (r * r - 1, r * r, r * r + r, r * r + 2 * r)
] + [255, 256, 257, 4097, 4098]


# Here r = 443, and every stride d <= 55 takes more than one 8r-entry piece.
PIECES_N = 3 * 2**16 + 16


def piece_seams(n_max):
    """Each n >= 2 within 4 of d (2 + j 8 isqrt(N)), for d = 1, 2, 3 and
    j >= 0: where the pieces of the strides d begin."""
    seams = {
        n
        for d in (1, 2, 3)
        for m0 in range(2, n_max // d + 1, 8 * isqrt(n_max))
        for n in range(d * m0 - 4, d * m0 + 4)
    }
    return sorted(n for n in seams if 2 <= n <= n_max)


def split_operands(n_max, seed):
    """Random terms with zeros where the split turns: at d = 1, at some
    d <= r, at d = r + 1 and at some d > r + 1."""
    rng = random.Random(seed)
    r = isqrt(n_max)
    terms = [rng.randint(-9, 9) or 1 for _ in range(n_max)]
    zeros = {1, rng.randint(1, r), r + 1, rng.randint(r + 1, 2 * r + 2)}
    for d in zeros:
        if d <= n_max:
            terms[d - 1] = 0
    return terms


# The multiplicative fill keeps recurrence coefficients only for primes
# p <= isqrt(N), and the spf sieve writes p = isqrt(N) first: every N up
# to 200, and N just below, at and past p^2 for four primes.  The even n
# take one slice per power of two q <= N, and at N = 2^k the last holds
# one entry: N just below, at and past 2^11 and 2^12.
FILL_NS = list(range(1, 201)) + [
    p * p + k for p in (2, 3, 31, 61) for k in (-1, 0, 1)
] + [(1 << e) + k for e in (11, 12) for k in (-1, 0, 1)]
MULTIPLICATIVE = [("mobius", None), ("phi", None), ("num_divisors", None)] + [
    (name, x) for name in ("jordan", "sigma") for x in range(4)
]


small_seqs = st.lists(st.integers(-50, 50), min_size=1, max_size=40)
unit_seqs = st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=30)).map(
    lambda t: [t[0], *t[1]]
)


class TestGoldenRows:
    def test_named_rows_first_12(self):
        for name, expected in gt.FIRST_12.items():
            base, x = gt.split_row_name(name)
            assert gen_builtin(base, 12, x=x).terms() == expected, name

    def test_inverse_rows_first_12(self):
        for name, expected in gt.INVERSE_12.items():
            base, x = gt.split_row_name(name)
            inv = dirichlet_inverse(gen_builtin(base, 12, x=x))
            assert inv.terms() == expected, name

    def test_symbolic_patterns(self):
        for x in range(4):
            assert gen_builtin("sigma", 4, x=x).terms() == gt.sigma_pattern(x)
            assert gen_builtin("id", 4, x=x).terms() == gt.id_pattern(x)
            assert gen_builtin("jordan", 4, x=x).terms() == gt.jordan_pattern(x)
            assert gen_builtin("kappa", 4, x=x).terms() == gt.kappa_pattern(x)

    def test_phi_equals_jordan_1(self):
        assert gen_builtin("phi", 500) == gen_builtin("jordan", 500, x=1)

    def test_jordan_0_is_epsilon(self):
        assert gen_builtin("jordan", 500, x=0) == gen_builtin("epsilon", 500)

    def test_num_divisors_equals_sigma_0(self):
        assert gen_builtin("num_divisors", 500) == gen_builtin("sigma", 500, x=0)

    def test_divisor_power_sums_against_enumeration(self):
        # 1..3000 holds 2^11 and 3^7: prime powers deep enough to run the
        # back term of the prime-power step many times over
        n = 3000
        divisors = [brute_divisors(k) for k in range(1, n + 1)]
        for x in range(7):
            expected = [sum(d**x for d in ds) for ds in divisors]
            assert gen_builtin("sigma", n, x=x).terms() == expected, x
        assert gen_builtin("num_divisors", n).terms() == [len(ds) for ds in divisors]

    def test_multiplicative_generators_against_trial_division(self):
        n_top = max(FILL_NS)
        for name, x in MULTIPLICATIVE:
            expected = [brute_multiplicative(name, x, n) for n in range(1, n_top + 1)]
            for n_max in FILL_NS:
                got = gen_builtin(name, n_max, x=x).terms()
                assert got == expected[:n_max], (name, x, n_max)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4096, 3721])
    def test_fill_calls_factors_once_per_prime(self, n_max):
        # 2 included, though the even n come from slices over powers of two.
        calls = []

        def counting_factors(p):
            calls.append(p)
            return (p - 1, p, 0)

        sequences._multiplicative_fill(n_max, counting_factors)
        primes = [p for p in range(2, n_max + 1) if brute_factorize(p) == [(p, 1)]]
        assert sorted(calls) == primes


class TestGenBuiltinValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown function"):
            gen_builtin("liouville", 10)

    def test_missing_exponent(self):
        with pytest.raises(ValueError, match="requires the exponent"):
            gen_builtin("kappa", 10)

    def test_surplus_exponent(self):
        with pytest.raises(ValueError, match="takes no exponent"):
            gen_builtin("mobius", 10, x=1)

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gen_builtin("sigma", 10, x=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            gen_builtin("id", 3, x=True)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="positive"):
            gen_builtin("one", 0)

    @pytest.mark.parametrize("n_max", [True, 10.0, 2.5, "10"])
    def test_range_must_be_an_int(self, n_max):
        with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
            gen_builtin("K", n_max)
        with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
            make_divisor_table(n_max)

    def test_labels(self):
        assert gen_builtin("kappa", 3, x=2).label == "kappa_2"
        assert gen_builtin("K", 3).label == "K"


class TestArithSeq:
    def test_one_based_indexing(self):
        f = ArithSeq([10, 20, 30])
        assert f[1] == 10 and f[3] == 30
        assert len(f) == 3
        assert list(f) == [10, 20, 30]

    def test_index_out_of_range(self):
        f = ArithSeq([1, 2])
        for bad in (0, 3, -1):
            with pytest.raises(IndexError):
                f[bad]

    def test_rejects_empty_and_non_integer(self):
        with pytest.raises(ValueError):
            ArithSeq([])
        with pytest.raises(ValueError, match="exact integers"):
            ArithSeq([1, 2.5])
        with pytest.raises(ValueError, match="exact integers"):
            ArithSeq([True, False, True])

    def test_equality_ignores_label(self):
        assert ArithSeq([1, 2], label="a") == ArithSeq([1, 2], label="b")
        assert ArithSeq([1, 2]) != ArithSeq([1, 3])
        assert ArithSeq([1, 2]) != ArithSeq([1, 2, 3])

    def test_elementwise_arithmetic(self):
        f = ArithSeq([1, 2, 3])
        g = ArithSeq([5, 5, 5])
        assert (f + g).terms() == [6, 7, 8]
        assert (g - f).terms() == [4, 3, 2]
        assert (3 * f).terms() == (f * 3).terms() == [3, 6, 9]

    def test_range_mismatch_raises(self):
        with pytest.raises(ValueError, match="range"):
            ArithSeq([1, 2]) + ArithSeq([1, 2, 3])

    def test_star_operator_is_convolution(self):
        one = gen_builtin("one", 100)
        mu = gen_builtin("mobius", 100)
        assert one * mu == gen_builtin("epsilon", 100)


class TestDivisorTable:
    def test_factorize_reconstructs(self):
        table = make_divisor_table(300)
        for n in range(2, 301):
            prod = 1
            count = 0
            primes = []
            for p, e in table.factorize(n):
                assert brute_divisors(p) == [1, p] and e >= 1
                primes.append(p)
                prod *= p**e
                count += e
            assert primes == sorted(set(primes))
            assert prod == n
            assert table.prime_factor_count(n) == count

    def test_factorize_against_trial_division(self):
        expected = [brute_factorize(n) for n in range(1, max(FILL_NS) + 1)]
        for n_max in FILL_NS:
            table = make_divisor_table(n_max)
            got = [table.factorize(n) for n in range(1, n_max + 1)]
            assert got == expected[:n_max], n_max

    def test_table_marks_primes_with_zero(self):
        # 0 at the pad, at 1 and at the primes; the smallest prime factor elsewhere.
        expected = [0, 0] + [
            0 if f == [(k, 1)] else f[0][0]
            for k, f in enumerate(map(brute_factorize, range(2, max(FILL_NS) + 1)), start=2)
        ]
        for n_max in FILL_NS:
            assert sequences._spf_array(n_max) == expected[: n_max + 1], n_max

    def test_unit_has_no_prime_factor(self):
        table = make_divisor_table(10)
        assert table.factorize(1) == []
        assert table.prime_factor_count(1) == 0

    def test_out_of_range(self):
        table = make_divisor_table(10)
        for bad in (0, 11):
            with pytest.raises(ValueError):
                table.factorize(bad)


class TestMemory:
    # Peak bytes allocated per term while tabulating n = 1..2*10^5, the
    # result included, on CPython 3.10.13 / 3.11.7.  Each bound is the
    # larger peak plus 2 bytes, rounded up, and sits below the peak of
    # the mutant named beside it:
    #   sigma_1 36.1 / 40.1 and phi 36.0 / 40.0: keeping the spf table
    #     through the even n's power-of-two slices reads 44.1 / 48.1;
    #   mobius and num_divisors 16.1 / 16.1 (cached small ints, so only
    #     the tables' pointers count): the same mutant reads 20.3;
    #   kappa_1 40.1 / 44.1 in 4-byte lanes and kappa_3 48.0 / 48.0 in
    #     8-byte lanes: the seed in pieces of 2^16 lanes, not 8 isqrt(N),
    #     reads 49.3 and 64.1, and in one piece of N + 1 lanes 141.5 and
    #     178.7.
    PEAK_BOUNDS = {  # case: (generator, x, bound in bytes per term)
        "sigma": ("sigma", 1, 43),
        "phi": ("phi", None, 42),
        "mobius": ("mobius", None, 19),
        "num_divisors": ("num_divisors", None, 19),
        "kappa": ("kappa", 1, 47),
        "kappa_3": ("kappa", 3, 51),
    }
    # The same for the inverse of K, its operand excluded: 13.4 / 14.1.
    # Strides in pieces of 2^16 entries, not 8 isqrt(N), read 23.1 / 24.1.
    INVERSE_BYTES_PER_TERM = 17

    @pytest.mark.parametrize("case", list(PEAK_BOUNDS))
    def test_peak_per_term(self, case):
        name, x, bound = self.PEAK_BOUNDS[case]
        n = 200_000
        tracemalloc.start()
        try:
            seq = gen_builtin(name, n, x=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del seq
        assert peak / n < bound

    def test_inverse_peak_per_term(self):
        n = 200_000
        f = gen_builtin("K", n)
        tracemalloc.start()
        try:
            inv = dirichlet_inverse(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del inv
        assert peak / n < self.INVERSE_BYTES_PER_TERM

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1000, 3721])
    def test_size_guard_never_exceeds_the_powers(self, n):
        # gen_builtin refuses a table when this estimate exceeds memory, so
        # the digits it adds for f(n) >= n**power must be digits f(n) holds:
        # id_x(n) = n**x, and J_x(n) >= n**(x - 1) phi(n).
        for x in (0, 1, 2, 29, 30, 31, 1000):
            for name, power in (("id", x), ("jordan", max(x - 1, 0))):
                held = sum(sys.getsizeof(v) - sys.getsizeof(1) for v in gen_builtin(name, n, x=x))
                counted = sequences._table_bytes(n, power) - n * sequences._TERM_BYTES
                assert 0 <= counted <= held, (name, x)


class TestConvolution:
    def test_epsilon_is_identity(self):
        eps = gen_builtin("epsilon", 10_000)
        kappa = gen_builtin("kappa", 10_000, x=1)
        assert dirichlet_convolve(eps, kappa) == kappa
        assert dirichlet_convolve(kappa, eps) == kappa

    def test_against_brute_force_small(self):
        f = gen_builtin("mobius", 60)
        g = gen_builtin("sigma", 60, x=2)
        expected = brute_convolve(f.terms(), g.terms())
        assert dirichlet_convolve(f, g).terms() == expected

    def test_standard_identities(self):
        n = 10_000
        one = gen_builtin("one", n)
        assert one * gen_builtin("mobius", n) == gen_builtin("epsilon", n)
        for x in range(4):
            assert one * gen_builtin("jordan", n, x=x) == gen_builtin("id", n, x=x)
            assert one * gen_builtin("id", n, x=x) == gen_builtin("sigma", n, x=x)
        assert one * one == gen_builtin("num_divisors", n)

    def test_range_mismatch(self):
        with pytest.raises(ValueError, match="range"):
            dirichlet_convolve(ArithSeq([1, 2]), ArithSeq([1, 2, 3]))

    def test_split_boundaries_against_brute_force(self):
        for n_max in SPLIT_NS:
            f = split_operands(n_max, n_max)
            g = split_operands(n_max, -n_max)
            g[0] = 3  # one operand is zero at 1, the other is not
            expected = brute_convolve(f, g)
            got = dirichlet_convolve(ArithSeq(f), ArithSeq(g)).terms()
            assert got == expected, n_max
            got = dirichlet_convolve(ArithSeq(g), ArithSeq(f)).terms()
            assert got == expected, n_max

    @settings(max_examples=60)
    @given(small_seqs, small_seqs)
    def test_commutative(self, a, b):
        n = min(len(a), len(b))
        f, g = ArithSeq(a[:n]), ArithSeq(b[:n])
        assert dirichlet_convolve(f, g) == dirichlet_convolve(g, f)

    @settings(max_examples=40)
    @given(small_seqs, small_seqs, small_seqs)
    def test_associative(self, a, b, c):
        n = min(len(a), len(b), len(c))
        f, g, h = ArithSeq(a[:n]), ArithSeq(b[:n]), ArithSeq(c[:n])
        left = dirichlet_convolve(dirichlet_convolve(f, g), h)
        right = dirichlet_convolve(f, dirichlet_convolve(g, h))
        assert left == right

    @settings(max_examples=40)
    @given(small_seqs, small_seqs, small_seqs)
    def test_distributes_over_addition(self, a, b, c):
        n = min(len(a), len(b), len(c))
        f, g, h = ArithSeq(a[:n]), ArithSeq(b[:n]), ArithSeq(c[:n])
        assert dirichlet_convolve(f, g + h) == dirichlet_convolve(f, g) + dirichlet_convolve(f, h)

    def test_across_the_pieces(self):
        # Check where the strides' pieces meet, for a signed and an
        # unsigned product.
        pairs = (("mobius", None, "K", None), ("kappa", 1, "sigma", 2))
        for f_name, f_x, g_name, g_x in pairs:
            f = gen_builtin(f_name, PIECES_N, x=f_x)
            g = gen_builtin(g_name, PIECES_N, x=g_x)
            fg = dirichlet_convolve(f, g)
            for n in piece_seams(PIECES_N):
                expected = sum(f[d] * g[n // d] for d in brute_divisors(n))
                assert fg[n] == expected, (fg.label, n)


class TestInverse:
    def test_requires_unit(self):
        with pytest.raises(NotAUnitError):
            dirichlet_inverse(ArithSeq([0, 1, 1]))
        with pytest.raises(NotAUnitError):
            dirichlet_inverse(ArithSeq([2, 1, 1]))

    def test_inverse_of_one_is_mobius(self):
        n = 1000
        assert dirichlet_inverse(gen_builtin("one", n)) == gen_builtin("mobius", n)

    def test_inverse_of_epsilon(self):
        eps = gen_builtin("epsilon", 50)
        assert dirichlet_inverse(eps) == eps

    @settings(max_examples=80)
    @given(unit_seqs)
    def test_convolving_with_inverse_gives_epsilon(self, terms):
        f = ArithSeq(terms)
        inv = dirichlet_inverse(f)
        eps = gen_builtin("epsilon", f.n_max)
        assert dirichlet_convolve(f, inv) == eps

    @settings(max_examples=60)
    @given(unit_seqs)
    def test_inverse_is_involutive(self, terms):
        f = ArithSeq(terms)
        assert dirichlet_inverse(dirichlet_inverse(f)) == f

    def test_split_boundaries_against_brute_force(self):
        for n_max in SPLIT_NS:
            for u in (1, -1):
                f = split_operands(n_max, u * n_max)
                f[0] = u
                got = dirichlet_inverse(ArithSeq(f)).terms()
                assert got == brute_inverse(f), (n_max, u)

    def test_negative_unit(self):
        f = ArithSeq([-1, 4, 7, -2])
        inv = dirichlet_inverse(f)
        assert dirichlet_convolve(f, inv) == gen_builtin("epsilon", 4)

    def test_across_the_recursion_pieces(self):
        # The inverse shares the sieve's recursion and its pieces.  f(1) = 1
        # scales each final entry by -1, a piece at a time; f(1) = -1 leaves
        # it as summed.  Where the strides' pieces meet, f * g vanishes.
        eps = gen_builtin("epsilon", PIECES_N)
        for f in (gen_builtin("K", PIECES_N), -1 * gen_builtin("kappa", PIECES_N, x=1)):
            g = dirichlet_inverse(f)
            for n in piece_seams(PIECES_N):
                assert sum(f[n // d] * g[d] for d in brute_divisors(n)) == 0, (f.label, n)
            assert dirichlet_convolve(f, g) == eps, f.label


class TestRecursiveFamilies:
    def test_kappa_satisfies_its_recursion(self):
        for x in range(4):
            seq = gen_builtin("kappa", 500, x=x)
            for n in range(1, 501):
                assert seq[n] == n**x + sum(seq[d] for d in brute_divisors(n)[:-1])

    def test_K_satisfies_its_recursion(self):
        seq = gen_builtin("K", 500)
        for n in range(2, 501):
            assert seq[n] == sum(seq[d] for d in brute_divisors(n)[:-1])
        assert seq[1] == 1

    def test_split_boundaries_against_the_recursion(self):
        for n_max in SPLIT_NS:
            seed = [1] + [0] * (n_max - 1)
            assert gen_builtin("K", n_max).terms() == brute_proper_divisor_sums(seed), n_max
            for x in range(4):
                seed = [n**x for n in range(1, n_max + 1)]
                got = gen_builtin("kappa", n_max, x=x).terms()
                assert got == brute_proper_divisor_sums(seed), (n_max, x)

    def test_recursion_across_the_sieve_pieces(self):
        # Check where the strides' pieces meet.
        for name, x in (("kappa", 1), ("K", None)):
            seq = gen_builtin(name, PIECES_N, x=x)
            for n in piece_seams(PIECES_N):
                seed = n if name == "kappa" else 0
                proper = sum(seq[d] for d in brute_divisors(n)[:-1])
                assert seq[n] == seed + proper, (name, n)

    def test_kappa_0_is_one_convolved_with_K(self):
        n = 10_000
        one = gen_builtin("one", n)
        assert one * gen_builtin("K", n) == gen_builtin("kappa", n, x=0)

    def test_kappa_values_exceed_machine_words(self):
        # x = 6 needs big integers from n = 2^11 on; nothing may overflow
        seq = gen_builtin("kappa", 3000, x=6)
        assert seq[2048] > 2**64
        assert seq[2048] == naive_kappa(6, 2048)
        # Seed maxima of exactly 2^31 and 2^63 (2^31, 8^21, 2^63) sit on lane-width boundaries.
        # 215^4 and 1290^3 are the largest under 2^31, 1448^6 and 6208^5 under 2^63, each beside
        # N + 1, whose seed takes the wider storage; the lanes past N in their last seed piece overflow.
        for n, x in (
            (2, 31), (8, 21), (2, 63),
            (215, 4), (216, 4), (1290, 3), (1291, 3), (1448, 6), (1449, 6), (6208, 5), (6209, 5),
        ):
            assert gen_builtin("kappa", n, x=x).terms() == naive_kappa_range(x, n), (n, x)


def recursion_seed(n_max, x):
    """id_x, or epsilon when x is None, on 0..n_max with a 0 pad."""
    if x is None:
        return [0, 1] + [0] * (n_max - 1)
    return [0] + [n**x for n in range(1, n_max + 1)]


def list_kernel(n_max, x):
    vals = recursion_seed(n_max, x)
    sequences._apply_to_list(vals, sequences._recursion_updates(n_max))
    return vals


def lane_kernel(n_max, x, code):
    """The lane sieve in one width: its table, or None if the values outgrow it."""
    try:
        lanes = array(code, recursion_seed(n_max, x))
    except OverflowError:
        return None
    pending = sequences._apply_to_lanes(lanes, sequences._recursion_updates(n_max))
    return lanes.tolist() if pending is None else None


class TestRecursionSchedule:
    def test_every_pair_once_and_every_source_final(self):
        # The sieve and the inverse read their own table, at the default
        # width; the convolution reads another table, in one block of N.
        # No update but the convolution's blocks touches more than 8r entries.
        for n_max, wide in product(SPLIT_NS + [PIECES_N], (False, True)):
            # The pair (d, m), m >= 2 and d m <= N, has the slot first[m] + d - 1.
            first = [0, 0, 0, *accumulate(n_max // m for m in range(2, n_max + 1))]
            covered = bytearray(first[-1])
            read = bytearray(n_max + 1)
            updates = sequences._recursion_updates(n_max, n_max if wide else None)
            for dst, d, m in updates:
                ds = range(d, d + 1) if isinstance(d, int) else range(d.start, d.stop)
                ms = range(m, m + 1) if isinstance(m, int) else range(m.start, m.stop)
                assert ds and ms and ds[0] >= 1 and ms[0] >= 2, (n_max, dst)
                assert len(ds) == 1 or len(ms) == 1, (n_max, dst)
                # dst is every d m, in bounds: the step is the scalar one.
                step = ds[0] if len(ds) == 1 else ms[0]
                want = range(ds[0] * ms[0], ds[-1] * ms[-1] + 1, step)
                assert range(n_max + 1)[dst] == want, (n_max, dst)
                if not wide or isinstance(d, int):
                    assert len(want) <= 8 * isqrt(n_max), (n_max, dst)
                # Sources are read before the update writes, and stay final.
                if not wide:
                    read[ds[0] : ds[-1] + 1] = b"\1" * len(ds)
                    assert 1 not in read[dst], (n_max, dst)
                for mm in ms:
                    slots = slice(first[mm] + ds[0] - 1, first[mm] + ds[-1])
                    assert 1 not in covered[slots], (n_max, dst)
                    covered[slots] = b"\1" * len(ds)
            assert 0 not in covered, (n_max, wide)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record each lane run as (typecode, finished) and each list run as
    "list" in ``runs``, and every update the runs write in ``applied``."""
    calls = SimpleNamespace(runs=[], applied=[])
    lanes_run, list_run = sequences._apply_to_lanes, sequences._apply_to_list

    def taken(updates):
        for update in updates:
            calls.applied.append(update)
            yield update

    def lanes_spy(a, updates):
        pending = lanes_run(a, taken(updates))
        calls.runs.append((a.typecode, pending is None))
        if pending is not None:
            # The run stops at the update it returns and leaves it unwritten.
            assert calls.applied.pop() is pending
        return pending

    def list_spy(vals, updates, *args):
        calls.runs.append("list")
        return list_run(vals, taken(updates), *args)

    monkeypatch.setattr(sequences, "_apply_to_lanes", lanes_spy)
    monkeypatch.setattr(sequences, "_apply_to_list", list_spy)
    return calls


class TestLaneKernel:
    def test_matches_the_list_kernel(self):
        finished = set()
        for n_max in SPLIT_NS + [PIECES_N]:
            for x in [None, *range(6)]:
                expected = list_kernel(n_max, x)
                for code in ("i", "q"):
                    got = lane_kernel(n_max, x, code)
                    if got is not None:
                        finished.add(code)
                        assert got == expected, (n_max, x, code)
                name = "K" if x is None else "kappa"
                assert gen_builtin(name, n_max, x=x)._vals == expected, (n_max, x)
        assert finished == {"i", "q"}

    def test_fast_path_is_taken(self, kernel_calls):
        # kappa_1 at 10^4 fits 4-byte lanes: no wider lanes, no list kernel.
        seq = gen_builtin("kappa", 10**4, x=1)
        assert kernel_calls.runs == [("i", True)]
        assert seq._vals == list_kernel(10**4, 1)

    def test_widening_mid_run(self, kernel_calls):
        # 40000^2 < 2^31, so id_2 fits 4-byte lanes, but kappa_2 passes 2^31
        # during the sieve: the table widens to 8-byte lanes and resumes.
        n_max = 40_000
        assert n_max**2 < 2**31
        seq = gen_builtin("kappa", n_max, x=2)
        assert kernel_calls.runs == [("i", False), ("q", True)]
        # Each update is written once, in order: none again from the seed.
        assert kernel_calls.applied == list(sequences._recursion_updates(n_max))
        assert max(seq) >= 2**31
        assert seq._vals == list_kernel(n_max, 2)

    def test_fallback_mid_run(self, kernel_calls):
        # 55000^4 < 2^63 fits 8-byte lanes (not 4-byte ones, at build), but
        # kappa_4 passes 2^63 from n = 54000: the table moves to the list
        # kernel and resumes there.
        n_max = 55_000
        assert n_max**4 < 2**63
        seq = gen_builtin("kappa", n_max, x=4)
        assert kernel_calls.runs == [("q", False), "list"]
        assert kernel_calls.applied == list(sequences._recursion_updates(n_max))
        assert seq[54_000] >= 2**63
        for n in range(54_000, 54_010):
            assert seq[n] == n**4 + sum(seq[d] for d in brute_divisors(n)[:-1]), n


class TestSeriesPartial:
    def test_hand_computed_first_terms(self):
        # kappa, x=0, one term: numerators are id_0 over 2^1
        r = series_partial("kappa", 1, 4, x=0)
        assert [r.numerator(n) for n in range(1, 5)] == [1, 1, 1, 1]
        assert r.denominator_exponent == 1
        # K, two terms: (2*eps + one) over 2^2
        r = series_partial("K", 2, 3)
        assert [r.numerator(n) for n in range(1, 4)] == [3, 1, 1]
        assert r.denominator_exponent == 2

    def test_fraction_access(self):
        r = series_partial("K", 3, 2)
        assert r[1] == Fraction(2**3 - 1, 2**3)

    def test_converges_to_kappa(self):
        target = gen_builtin("kappa", 32, x=1)
        r = series_partial("kappa", 50, 32, x=1)
        for n in range(1, 33):
            err = abs(target[n] - r[n])
            assert err < Fraction(1, 2**20)

    def test_converges_to_K(self):
        target = gen_builtin("K", 32)
        r = series_partial("K", 50, 32)
        for n in range(1, 33):
            assert abs(target[n] - r[n]) < Fraction(1, 2**20)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            series_partial("sigma", 5, 10)
        for m in (0, True, 2.0):
            with pytest.raises(ValueError, match="^term count m must be at least 1$"):
                series_partial("K", m, 10)
        with pytest.raises(ValueError, match="requires the exponent"):
            series_partial("kappa", 5, 10)
        with pytest.raises(ValueError, match="takes no exponent"):
            series_partial("K", 5, 10, x=0)

    @pytest.mark.parametrize(
        "numerators, exponent",
        [([1, 2], True), ([1.5], 2), ([1], 2.0), ([True, 2], 1), ([1], -1)],
    )
    def test_rat_seq_rejects_inexact_input(self, numerators, exponent):
        with pytest.raises(ValueError, match="exact integers|nonnegative integer"):
            RatSeq(numerators, exponent)

    def test_rat_seq_equality_across_denominators(self):
        # 1/2 == 2/4 elementwise even though exponents differ
        a = series_partial("K", 1, 1)
        assert a[1] == Fraction(1, 2)
