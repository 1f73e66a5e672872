import math
import sys

import pytest

from recdiv import series
from recdiv.sequences import ArithSeq, dirichlet_inverse, gen_builtin
from recdiv.series import (
    DivergenceError,
    SingularityDomainError,
    ZetaValue,
    dirichlet_partial_sum,
    find_singularity,
    verify_closed_form,
    zeta,
)

# pinned by an independent bisection run; literature agrees to 1e-11
RHO = 1.72864723899818


def direct_sum_bracket(s, m=20000):
    """Bracket zeta(s) by direct summation plus integral tail bounds."""
    partial = math.fsum(n**-s for n in range(1, m))
    lo = partial + m ** (1.0 - s) / (s - 1.0)
    hi = partial + (m - 1) ** (1.0 - s) / (s - 1.0)
    return lo, hi


class TestZeta:
    def test_against_pi_squared_over_six(self):
        z = zeta(2, 1e-10)
        assert z.abs_error_bound <= 1e-10
        assert abs(z.value - math.pi**2 / 6) <= z.abs_error_bound

    def test_against_pi_fourth_over_ninety(self):
        z = zeta(4, 1e-10)
        assert z.abs_error_bound <= 1e-10
        assert abs(z.value - math.pi**4 / 90) <= z.abs_error_bound

    def test_at_three_against_direct_summation(self):
        z = zeta(3, 1e-10)
        lo, hi = direct_sum_bracket(3.0)
        assert lo - z.abs_error_bound <= z.value <= hi + z.abs_error_bound
        assert abs(z.value - 1.2020569032) <= 1e-10 + 5e-11

    def test_bracket_at_non_integer_points(self):
        for s in (1.7, 2.2, 3.7):
            z = zeta(s, 1e-12)
            lo, hi = direct_sum_bracket(s)
            slack = (hi - lo) + z.abs_error_bound
            assert lo - slack <= z.value <= hi + slack

    def test_strictly_decreasing_on_grid(self):
        values = [zeta(1.0 + k / 10).value for k in range(1, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_error_bound_is_positive_and_honored(self):
        for s, tol in ((1.05, 1e-6), (2.0, 1e-12), (9.5, 1e-4)):
            z = zeta(s, tol)
            assert 0 < z.abs_error_bound <= max(tol, 1e-13)

    def test_near_one_stops_at_the_roundoff_cushion(self):
        # |zeta(1.001)| ~ 1000, so roundoff alone exceeds 1e-12; the loop
        # must stop early and report the larger, honest bound
        z = zeta(1.001, 1e-12)
        assert 1e-12 < z.abs_error_bound < 1e-9
        assert abs(z.value - 1000.5772884) < 1e-6

    def test_tolerance_floor(self):
        # absurdly small tolerances clamp to the double-precision floor
        z = zeta(2, 1e-30)
        assert z.abs_error_bound <= 1e-13
        assert abs(z.value - math.pi**2 / 6) <= 1e-12

    def test_divergence_and_validation(self):
        with pytest.raises(DivergenceError):
            zeta(1.0)
        with pytest.raises(DivergenceError):
            zeta(0.3)
        with pytest.raises(ValueError):
            zeta(2.0, tol=0.0)
        with pytest.raises(ValueError):
            zeta(math.inf)
        with pytest.raises(ValueError):
            zeta(math.nan)

    def test_huge_s_returns_one(self):
        # every term past 1/1^s underflows; the Bernoulli factors must not
        # turn into inf * 0 = nan and keep the cutoff doubling forever
        for s in (1100.0, 1e50, 1e308):
            z = zeta(s)
            assert z.s == s
            assert z.value == 1.0
            assert 0 < z.abs_error_bound <= 1e-12


class TestZetaAgainstMpmath:
    def test_error_within_bound_near_one(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s in (1.0001, 1.001, 1.01, 1.05, 1.1, 1.2, 1.5, 2.001, 3.3, 4.2):
                exact = mpmath.zeta(s)
                for tol in (1e-6, 1e-9, 1e-12, 1e-13):
                    z = zeta(s, tol)
                    assert abs(mpmath.mpf(z.value) - exact) <= z.abs_error_bound, (s, tol)


class TestDirichletPartialSum:
    def test_epsilon_sums_to_exactly_one(self):
        eps = gen_builtin("epsilon", 500)
        for s in (1.1, 2.0, 3.5, -1.0):
            assert dirichlet_partial_sum(eps, s).partial_sum == 1.0

    def test_constant_function_approaches_zeta(self):
        one = gen_builtin("one", 100_000)
        point = dirichlet_partial_sum(one, 2.0)
        true = zeta(2).value
        assert 0 < true - point.partial_sum < 2e-5  # tail ~ 1/n_max

    def test_point_metadata(self):
        f = gen_builtin("K", 1000)
        point = dirichlet_partial_sum(f, 2.5)
        assert point.s == 2.5
        assert point.n_terms == 1000

    def test_matches_plain_summation_small(self):
        f = gen_builtin("sigma", 50, x=1)
        point = dirichlet_partial_sum(f, 3.0)
        plain = sum(f[n] / n**3 for n in range(1, 51))
        assert math.isclose(point.partial_sum, plain, rel_tol=1e-14)

    def test_rejects_non_finite_s(self):
        f = gen_builtin("one", 10)
        with pytest.raises(ValueError):
            dirichlet_partial_sum(f, math.nan)

    def test_term_past_the_double_range_names_its_n(self):
        # 5^400 < 1.8e308 < 6^400: kappa_400(6) is the first term past it
        f = gen_builtin("kappa", 10, x=400)
        with pytest.raises(ValueError, match=r"kappa_400\(n\) / n\^2 .* at n = 6$"):
            dirichlet_partial_sum(f, 2.0)
        with pytest.raises(ValueError, match=r"one\(n\) / n\^-400 .* at n = 6$"):
            dirichlet_partial_sum(gen_builtin("one", 10), -400.0)

    def test_terms_where_n_to_the_minus_s_is_subnormal(self):
        # 34^-203.7 is subnormal, so f(n) * n^-s would lose bits (835 ulp at
        # n = 34); the quotient f(n) / n^204 times n^0.3 keeps them.
        mpmath = pytest.importorskip("mpmath")
        for x, s, n_max in ((200, 203.7, 34), (400, 402.5, 100), (100, 103.25, 1000)):
            assert n_max**-s < sys.float_info.min
            f = gen_builtin("kappa", n_max, x=x)
            terms = series._float_terms(f, s)
            with mpmath.workdps(50):
                for n, term in enumerate(terms, start=1):
                    exact = mpmath.mpf(f[n]) / mpmath.power(n, mpmath.mpf(s))
                    assert abs(mpmath.mpf(term) - exact) <= 3 * math.ulp(term), (x, s, n)

    def test_exponent_rounds_up_so_the_quotient_stays_a_double(self):
        # 2^2124 / 2^1101 = 2^1023 is a double, times 2^0.5 the term is too;
        # e = floor(1100.5) would form 2^1024 and report a false range error.
        point = dirichlet_partial_sum(ArithSeq([0, 1 << 2124]), 1100.5)
        assert point.partial_sum == math.ldexp(math.sqrt(2), 1023)

    def test_inf_product_of_finite_doubles_names_its_n(self):
        # 10^300 and 10^10 are finite doubles, their product is not
        f = gen_builtin("id", 10, x=300)
        with pytest.raises(ValueError, match=r"id_300\(n\) / n\^-10 .* at n = 10$"):
            dirichlet_partial_sum(f, -10.0)

    def test_sum_past_the_double_range_is_a_value_error(self):
        # every term is a finite double, their sum is not
        message = r"^the partial sum of f\(n\) / n\^0 leaves the double range$"
        with pytest.raises(ValueError, match=message):
            dirichlet_partial_sum(ArithSeq([10**308] * 3), 0.0)


class TestFindSingularity:
    def test_pinned_location(self):
        rho = find_singularity(1e-10)
        assert 1.5 < rho < 2.0
        assert abs(rho - RHO) < 1e-8

    def test_defining_property_round_trip(self):
        rho = find_singularity(1e-10)
        assert abs(zeta(rho).value - 2.0) < 1e-8

    def test_coarse_tolerance(self):
        assert abs(find_singularity(1e-8) - RHO) < 1e-7

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            find_singularity(0.0)

    def test_tolerance_below_the_floor_is_clamped(self, monkeypatch):
        # Doubles near rho are 2.2e-16 apart, so bisection to width 1e-30
        # would never end; floored at 1e-13 it stops after 43 halvings.
        calls = []
        real_zeta = series.zeta

        def counted_zeta(s, tol=1e-12):
            calls.append(s)
            assert len(calls) <= 100, "the bisection did not stop"
            return real_zeta(s, tol)

        monkeypatch.setattr(series, "zeta", counted_zeta)
        rho = find_singularity(1e-30)
        assert rho == find_singularity(1e-13) == 1.7286472389982066
        assert abs(rho - RHO) < 1e-12

    def test_within_tolerance_of_mpmath(self):
        # Measured errors: 4.7e-7, 1.3e-11 and 1.1e-13.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            rho = mpmath.findroot(lambda s: mpmath.zeta(s) - 2, 1.7)
            for tol in (1e-6, 1e-10, 1e-12):
                assert abs(find_singularity(tol) - rho) <= tol, tol


class TestVerifyClosedForm:
    def test_acceptance_pairs_at_reduced_range(self):
        for x, s in ((0, 3), (0, 4), (1, 4)):
            report = verify_closed_form(x, s, 20_000, 1e-3)
            assert report.passed
            assert report.gap <= 1e-3
            assert report.gap_shrinks
            assert report.checkpoint_lengths == (5000, 10_000, 20_000)
            assert report.checkpoint_gaps[-1] == report.gap

    def test_report_values_are_consistent(self):
        report = verify_closed_form(0, 3, 4000)
        expected_closed = zeta(3).value / (2 - zeta(3).value)
        assert math.isclose(report.closed_form, expected_closed, rel_tol=1e-12)
        rel = abs(report.partial_sum - report.closed_form) / abs(report.closed_form)
        assert math.isclose(report.gap, rel, rel_tol=1e-12)

    def test_below_singularity_raises(self):
        for s in (1.5, 1.6, 1.0, 0.5):
            with pytest.raises(SingularityDomainError) as exc_info:
                verify_closed_form(0, s, 100)
            assert abs(exc_info.value.rho - RHO) < 1e-6
            assert "1.7286472" in str(exc_info.value)

    def test_at_rho_itself_raises(self):
        with pytest.raises(SingularityDomainError):
            verify_closed_form(0, RHO, 100)

    def test_domain_messages_print_s_exactly(self):
        # :g would round these to 1.72865, 1 and 1: the messages would contradict themselves
        with pytest.raises(SingularityDomainError, match=r"^s = 1\.728647 is at or below"):
            verify_closed_form(0, 1.728647, 100)
        with pytest.raises(DivergenceError, match=r"at s = 0\.9999999 \(requires s > 1\)$"):
            zeta(0.9999999)
        with pytest.raises(DivergenceError, match=r"at s - x = 0\.9999999000000002 \("):
            verify_closed_form(2, 2.9999999, 100)
        with pytest.raises(SingularityDomainError, match=r"^s = 1\.5 is at or below"):
            verify_closed_form(0, 1.5, 100)  # a value :g prints exactly keeps its text

    def test_domain_message_prints_rho_exactly(self):
        # rho to 7 decimals, 1.7286472, would read below this s
        s = 1.72864723
        with pytest.raises(SingularityDomainError) as exc_info:
            verify_closed_form(0, s, 100)
        message = str(exc_info.value)
        shown = message.split("rho = ", 1)[1].split(" ", 1)[0]
        assert float(shown) == exc_info.value.rho > s
        assert message.startswith(f"s = 1.72864723 is at or below the series pole rho = {shown} (")

    def test_divergent_numerator_raises(self):
        with pytest.raises(DivergenceError):
            verify_closed_form(2, 2.5, 100)
        with pytest.raises(DivergenceError):
            verify_closed_form(1, 2.0, 100)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_closed_form(-1, 3, 100)
        with pytest.raises(ValueError):
            verify_closed_form(True, 3, 100)
        with pytest.raises(ValueError):
            verify_closed_form(0, 3, 0)
        for n_max in (True, 100.0):
            with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
                verify_closed_form(0, 3.0, n_max)
        with pytest.raises(ValueError):
            verify_closed_form(0, 3, 100, tol=0.0)

    def test_kappa_past_the_double_range_still_gives_its_terms(self):
        # kappa_400(6) > 1.8e308, yet its term is about 6^-2: each term is the
        # correctly rounded quotient f(n) / n^402, and the series agrees.
        f = gen_builtin("kappa", 100, x=400)
        assert series._float_terms(f, 402.0) == [v / n**402 for n, v in enumerate(f, 1)]
        report = verify_closed_form(400, 402, 3000)
        assert report.passed and report.gap < 1e-3

    def test_checkpoint_sum_past_the_double_range_is_a_value_error(self, monkeypatch):
        # 1.7e308 (1 + 2^-3) passes the largest double at the second term
        huge = ArithSeq([int(1.7e308)] * 4, "kappa_0")
        monkeypatch.setattr(series, "gen_builtin", lambda name, n_max, *, x: huge)
        with pytest.raises(ValueError, match=r"kappa_0\(n\) / n\^3 leaves the double range$"):
            verify_closed_form(0, 3, 4)

    def test_agreement_to_roundoff_passes(self):
        # the partial sums meet the closed form to double precision, so the
        # gaps stop shrinking; within the error budget that is agreement
        cases = [(0, 6, 10_000), (0, 8, 10_000), (3, 12, 10_000)]
        cases += [(x, s, 1000) for x in (0, 1, 3) for s in (20, 25, 50, 1e3, 1e308)]
        for x, s, n_max in cases:
            report = verify_closed_form(x, s, n_max)
            assert report.gap <= report.error_budget < 1e-12, (x, s, report)
            assert report.gap_shrinks and report.passed, (x, s, report)

    def test_gap_above_the_budget_must_shrink(self, monkeypatch):
        # a closed form off by 1e-9 relative, with an honest-looking bound:
        # the gaps sit above the budget and stay level, which is a mismatch
        real_zeta = series.zeta

        def skewed_zeta(s, tol=1e-12):
            z = real_zeta(s, tol)
            return ZetaValue(z.s, z.value * (1 + 1e-9), z.abs_error_bound)

        monkeypatch.setattr(series, "zeta", skewed_zeta)
        report = verify_closed_form(0, 8, 10_000)
        assert report.error_budget < min(report.checkpoint_gaps)
        assert not report.gap_shrinks
        assert not report.passed

    def test_tiny_range_has_degenerate_checkpoints(self):
        report = verify_closed_form(0, 4, 2)
        assert report.checkpoint_lengths == (1, 2)

    def test_tolerance_floor(self):
        # the gap, about 1.8e-15, is above 1e-16 but within the floor
        report = verify_closed_form(0, 12, 1000, tol=1e-16)
        assert report.tol == 1e-13
        assert report.gap <= report.tol and report.passed
        # the floor, not the error budget: near s = 1 that is large
        report = verify_closed_form(1, 2.001, 1000, tol=1e-16)
        assert report.tol == 1e-13 and not report.passed


def seq_with_inverses(n_max):
    seqs = {
        "epsilon": gen_builtin("epsilon", n_max),
        "one": gen_builtin("one", n_max),
        "id_1": gen_builtin("id", n_max, x=1),
        "mobius": gen_builtin("mobius", n_max),
        "phi": gen_builtin("phi", n_max),
        "num_divisors": gen_builtin("num_divisors", n_max),
        "sigma_1": gen_builtin("sigma", n_max, x=1),
        "kappa_0": gen_builtin("kappa", n_max, x=0),
        "kappa_1": gen_builtin("kappa", n_max, x=1),
        "K": gen_builtin("K", n_max),
    }
    seqs["kappa_0_inv"] = dirichlet_inverse(seqs["kappa_0"])
    seqs["K_inv"] = dirichlet_inverse(seqs["K"])
    return seqs


def closed_forms(s):
    z = lambda t: zeta(t).value
    return {
        "epsilon": 1.0,
        "one": z(s),
        "id_1": z(s - 1),
        "mobius": 1.0 / z(s),
        "phi": z(s - 1) / z(s),
        "num_divisors": z(s) ** 2,
        "sigma_1": z(s) * z(s - 1),
        "kappa_0": z(s) / (2.0 - z(s)),
        "kappa_1": z(s - 1) / (2.0 - z(s)),
        "kappa_0_inv": (2.0 - z(s)) / z(s),
        "K": 1.0 / (2.0 - z(s)),
        "K_inv": 2.0 - z(s),
    }


class TestSeriesColumnConsistency:
    # relative gaps this small sit at the precision of the closed forms
    # themselves, so the decrease requirement only applies above it
    NOISE_FLOOR = 1e-11

    def test_all_rows_match_their_zeta_expression(self):
        n_max = 100_000
        seqs = seq_with_inverses(n_max)
        for s in (2.5, 3.0, 4.0):
            forms = closed_forms(s)
            for name, f in seqs.items():
                closed = forms[name]
                terms = f.terms()
                gaps = []
                for length in (n_max // 4, n_max // 2, n_max):
                    point = dirichlet_partial_sum(ArithSeq(terms[:length]), s)
                    gaps.append(abs(point.partial_sum - closed) / abs(closed))
                assert gaps[-1] <= 1e-2, (name, s, gaps)
                for earlier, later in zip(gaps, gaps[1:]):
                    assert later <= max(earlier, self.NOISE_FLOOR), (name, s, gaps)

    def test_reciprocal_pairing_at_three(self):
        n_max = 100_000
        seqs = seq_with_inverses(n_max)
        for name in ("kappa_0", "K"):
            forward = dirichlet_partial_sum(seqs[name], 3.0).partial_sum
            backward = dirichlet_partial_sum(seqs[name + "_inv"], 3.0).partial_sum
            assert abs(forward * backward - 1.0) < 1e-3
