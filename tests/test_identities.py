import gc
import re
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from recdiv import identities, sequences
from recdiv.identities import (
    REGISTRY,
    IdentityCheck,
    SequencePool,
    _evaluate,
    check_all,
    check_identity,
    compare_sequences,
    registered_codes,
)
from recdiv.oracles import count_ordered_factorizations
from recdiv.sequences import ArithSeq, gen_builtin


EXPECTED_CODES = (
    "EQ10",
    "EQ12",
    "EQ13",
    "EQ3",
    "EQ4",
    "EQ6",
    "EQ7",
    "EQ8",
    "EQ9",
    "JY",
    "SC1",
    "SC2",
)


class TestRegistry:
    def test_manifest_is_exactly_the_registered_set(self):
        assert registered_codes() == EXPECTED_CODES

    def test_halving_series_codes_are_not_registered(self):
        # those two statements are covered by the exact dyadic
        # convergence tests on series_partial, not by this registry
        assert "EQ5" not in REGISTRY
        assert "EQ11" not in REGISTRY

    def test_arities(self):
        arity = {code: REGISTRY[code].exponents_required for code in REGISTRY}
        assert arity == {
            "EQ3": 2,
            "EQ4": 1,
            "EQ6": 1,
            "EQ7": 1,
            "EQ8": 1,
            "EQ9": 0,
            "EQ10": 0,
            "EQ12": 1,
            "EQ13": 0,
            "JY": 2,
            "SC1": 0,
            "SC2": 0,
        }

    def test_descriptions_are_nonempty(self):
        for check in REGISTRY.values():
            assert check.description.strip()

    def test_readme_table_shows_each_statement_verbatim(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| code | statement"))
        rows = {}
        for line in lines[start + 2 :]:  # past the header and its rule
            if not line.startswith("|"):
                break
            code, statement = (cell.strip() for cell in line.strip("|").split("|"))
            rows[code] = statement
        assert rows == {code: check.description for code, check in REGISTRY.items()}


class TestStatements:
    @pytest.mark.parametrize("statement, term", [
        ("kappa_x ** 2 = kappa_x", "kappa_x ** 2"),
        ("kappa_x / K = id_x", "kappa_x / K"),
        ("inverse(2*K) = K", "inverse(2 * K)"),
        ("K = 1 + K", "1 + K"),
        ("K = -K", "-K"),
        ("2*3 = K", "2*3"),
    ])
    def test_an_unsupported_term_is_named(self, monkeypatch, statement, term):
        monkeypatch.setitem(REGISTRY, "ZZ", IdentityCheck("ZZ", statement))
        with pytest.raises(ValueError, match=f"unsupported term {re.escape(repr(term))}"):
            check_identity("ZZ", 10, x=1)

    def test_a_statement_needs_one_equals_sign(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "ZZ", IdentityCheck("ZZ", "K = K = K"))
        with pytest.raises(ValueError, match="not one statement"):
            check_identity("ZZ", 10)

    def test_arity_comes_from_the_subscripts(self):
        def arity(statement):
            return IdentityCheck("ZZ", statement).exponents_required

        assert arity("num_divisors = one * one") == 0
        assert arity("kappa_2 = id_2 * K") == 0
        assert arity("sigma_x = one * id_x") == 1
        assert arity("sigma_x * id_y = sigma_y * id_x") == 2

    def test_a_new_statement_is_checked_as_written(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "ZZ", IdentityCheck("ZZ", "sigma_x = one * id_x"))
        assert check_identity("ZZ", 300, x=2).passed
        with pytest.raises(ValueError, match="requires exponent x"):
            check_identity("ZZ", 10)
        reports = [r for r in check_all(50, [0, 3]) if r.code == "ZZ"]
        assert [(r.x, r.y, r.passed) for r in reports] == [(0, None, True), (3, None, True)]
        # The subscripts carry the exponents: sigma_2 against one * id_3 first fails at n = 2.
        monkeypatch.setitem(REGISTRY, "ZZ", IdentityCheck("ZZ", "sigma_2 = one * id_x"))
        r = check_identity("ZZ", 10, x=3)
        assert (r.passed, r.first_failure_n, r.lhs_value, r.rhs_value) == (False, 2, 5, 9)

    def test_any_values_with_ring_operators_evaluate(self):
        # Each generator as its Dirichlet series at one point, where zeta(s) = 3/2:
        # epsilon = 1, one = zeta(s), K = 1/(2 - zeta(s)).  EQ10 holds there too.
        class SeriesAtAPoint:
            zeta = Fraction(3, 2)
            values = {"epsilon": Fraction(1), "one": zeta, "K": 1 / (2 - zeta)}

            def get(self, name, x=None):
                return self.values[name]

            def inverse(self, name, x=None):
                return 1 / self.values[name]

        pool = SeriesAtAPoint()
        sides = REGISTRY["EQ10"].description.split("=")
        lhs, rhs = (_evaluate(side, pool, None, None) for side in sides)
        assert lhs == rhs == Fraction(4)
        assert _evaluate("inverse(K)", pool, None, None) == Fraction(1, 2)
        with pytest.raises(ValueError, match=re.escape("unsupported term '2*3'")):
            _evaluate("2*3", pool, None, None)


class TestCheckIdentity:
    def test_single_zero_arity(self):
        r = check_identity("EQ9", 200)
        assert r.passed and r.first_failure_n is None
        assert (r.code, r.x, r.y, r.n_max) == ("EQ9", None, None, 200)

    def test_single_one_arity(self):
        r = check_identity("EQ6", 500, x=2)
        assert r.passed and r.x == 2 and r.y is None

    def test_single_two_arity(self):
        r = check_identity("JY", 300, x=1, y=3)
        assert r.passed and (r.x, r.y) == (1, 3)

    def test_n_equals_one_base_case(self):
        for code in registered_codes():
            r = check_identity(code, 1, x=0, y=0)
            assert r.passed, code

    def test_surplus_exponents_are_dropped(self):
        r = check_identity("EQ9", 50, x=3, y=1)
        assert (r.x, r.y) == (None, None)
        r = check_identity("EQ4", 50, x=2, y=1)
        assert (r.x, r.y) == (2, None)

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown identity code"):
            check_identity("EQ999", 10)

    def test_missing_exponents(self):
        with pytest.raises(ValueError, match="requires exponent"):
            check_identity("EQ4", 10)
        with pytest.raises(ValueError, match="requires exponents"):
            check_identity("EQ3", 10, x=1)

    def test_pool_range_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            check_identity("EQ9", 10, pool=SequencePool(20))


class TestCheckAll:
    def test_full_pass_at_small_range(self):
        reports = check_all(2000, [0, 1, 2, 3])
        assert all(r.passed for r in reports)
        # 5 parameterless + 5 single-exponent * 4 + 2 pair * 16
        assert len(reports) == 5 + 5 * 4 + 2 * 16

    def test_reports_sorted_and_complete(self):
        reports = check_all(100, [1, 0])
        keys = [(r.code, r.x if r.x is not None else -1, r.y if r.y is not None else -1) for r in reports]
        assert keys == sorted(keys)
        assert {r.code for r in reports} == set(EXPECTED_CODES)

    # Two-exponent statements that are not mirror-symmetric and fail: the (y, x)
    # check reuses a whole side of (x, y) only where its resolved text matches,
    # and a key that dropped an operator or an inverse would hand it the wrong one.
    ASYMMETRIC = {
        "ZX": "kappa_x * sigma_y = kappa_y * sigma_x + id_x * one",
        "ZY": "inverse(kappa_x) * sigma_y = kappa_y * inverse(sigma_x)",
        "ZP": "kappa_x + sigma_y = kappa_y * sigma_x",
    }

    def test_equals_fresh_checks_of_every_combination(self, monkeypatch):
        for code, statement in self.ASYMMETRIC.items():
            monkeypatch.setitem(REGISTRY, code, IdentityCheck(code, statement))
        xs = [0, 1, 3]
        combos = {0: [(None, None)], 1: [(v, None) for v in xs], 2: [(v, w) for v in xs for w in xs]}
        fresh = [
            check_identity(code, 60, x=cx, y=cy)
            for code in sorted(REGISTRY)
            for cx, cy in combos[REGISTRY[code].exponents_required]
        ]
        assert check_all(60, [3, 0, 1]) == fresh
        failed = {(r.code, r.x, r.y) for r in fresh if not r.passed}
        assert failed == {(code, v, w) for code in self.ASYMMETRIC for v in xs for w in xs}
        assert all(r.lhs_value != r.rhs_value for r in fresh if not r.passed)

    def test_each_product_is_convolved_once_except_on_the_diagonal(self, monkeypatch):
        class Tracked(ArithSeq):
            __slots__ = ("__weakref__",)

        calls = 0
        convolve = sequences.dirichlet_convolve
        checks = []  # (code, x, y) of each check, in order
        made = []  # (weak reference to a product, index of the check that made it)

        def counting(f, g):
            nonlocal calls
            calls += 1
            product = convolve(f, g)
            product = Tracked._from_padded(product._vals, product.label)
            made.append((weakref.ref(product), len(checks) - 1))
            return product

        per_check = Counter()
        check = identities._check

        def counted(code, n_max, x, y, *args, **kwargs):
            # Only the products of the mirror check just before may be alive.
            i = len(checks)
            mirror = i > 0 and checks[-1] == (code, y, x)
            for ref, j in made:
                assert ref() is None or (mirror and j == i - 1), (
                    f"product of check {j} alive at check {i} {(x, y)}"
                )
            checks.append((code, x, y))
            before = calls
            report = check(code, n_max, x, y, *args, **kwargs)
            per_check[code, x, y] += calls - before
            return report

        def compare(lhs, rhs):
            assert lhs is not rhs
            return compare_sequences(lhs, rhs)

        monkeypatch.setattr(sequences, "dirichlet_convolve", counting)
        monkeypatch.setattr(identities, "_check", counted)
        monkeypatch.setattr(identities, "compare_sequences", compare)
        xs = [0, 1, 2, 3]
        assert all(r.passed for r in check_all(200, xs))
        assert calls == 63 == len(made)
        assert len(checks) == 57
        for code in ("EQ3", "JY"):
            for v in xs:
                assert per_check[code, v, v] == 2
                for w in xs[v + 1 :]:
                    assert (per_check[code, v, w], per_check[code, w, v]) == (2, 0)

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            check_all(200, [0, 1, 2, 3])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_exponent_set_validation(self):
        with pytest.raises(ValueError):
            check_all(10, [])
        with pytest.raises(ValueError):
            check_all(10, [-1])
        with pytest.raises(ValueError):
            check_all(10, [0, 1.5])
        with pytest.raises(ValueError):
            check_all(10, [True])


class TestAgainstIndependentOracle:
    def test_kappa_is_power_convolved_with_factorization_count(self):
        """Per-n restatement of the id_x * K identity using trial
        division and the enumeration-based count, nothing shared with
        the sieve path."""
        kappa2 = gen_builtin("kappa", 2000, x=2)
        for n in range(1, 2001):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            expected = sum(d**2 * count_ordered_factorizations(n // d) for d in divisors)
            assert kappa2[n] == expected


class TestCompareSequences:
    def test_equal_sequences_give_none(self):
        f = gen_builtin("phi", 64)
        assert compare_sequences(f, gen_builtin("phi", 64)) is None

    def test_first_difference_is_reported(self):
        f = gen_builtin("kappa", 64, x=0)
        g = gen_builtin("K", 64)
        assert compare_sequences(f, g) == (2, 2, 1)

    def test_range_mismatch(self):
        with pytest.raises(ValueError):
            compare_sequences(gen_builtin("one", 5), gen_builtin("one", 6))


class TestSequencePool:
    def test_caches_by_name_and_exponent(self):
        pool = SequencePool(50)
        assert pool.get("kappa", 1) is pool.get("kappa", 1)
        assert pool.get("kappa", 1) is not pool.get("kappa", 2)
        assert pool.inverse("K") is pool.inverse("K")

    def test_inverse_really_inverts(self):
        pool = SequencePool(200)
        f = pool.get("sigma", 1)
        eps = pool.get("epsilon")
        assert f * pool.inverse("sigma", 1) == eps

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            SequencePool(0)

    @pytest.mark.parametrize("n_max", [True, 10.0])
    def test_rejects_a_range_that_is_not_an_int(self, n_max):
        with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
            SequencePool(n_max)
