import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

from recdiv.cli import _json_value, main
from recdiv.identities import REGISTRY, IdentityCheck, IdentityReport, check_identity
from recdiv.bfile import BFileParseError, format_bfile, parse_bfile_text
from recdiv.sequences import BUILTIN_NAMES, PARAMETRIC_NAMES, gen_builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_csv_kappa_0(self, capsys):
        code, out, _ = run(capsys, "gen", "--fn", "kappa", "--x", "0", "--n", "12", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        values = [int(line.split(",")[1]) for line in lines[1:]]
        assert values == [1, 2, 2, 4, 2, 6, 2, 8, 4, 6, 2, 16]

    def test_bfile_epsilon(self, capsys):
        code, out, _ = run(capsys, "gen", "--fn", "epsilon", "--n", "3", "--format", "bfile")
        assert code == 0
        assert out == "1 1\n2 0\n3 0\n"

    def test_bfile_is_written_a_slice_at_a_time(self, monkeypatch):
        # Lines 1..2*4096+5 in three writes, numbered on across the slices.
        n = 2 * 4096 + 5
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(["gen", "--fn", "K", "--n", str(n), "--format", "bfile"]) == 0
        assert [w.count("\n") for w in writes] == [4096, 4096, 5]
        assert "".join(writes) == format_bfile(gen_builtin("K", n))

    def test_csv_is_written_a_slice_at_a_time(self, monkeypatch):
        # The header, then rows 1..2*4096+5 in three writes, as one f-string a row wrote them.
        n = 2 * 4096 + 5
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(["gen", "--fn", "mobius", "--n", str(n), "--format", "csv"]) == 0
        assert [w.count("\n") for w in writes] == [1, 4096, 4096, 5]
        rows = "".join(f"{i},{v}\n" for i, v in enumerate(gen_builtin("mobius", n), start=1))
        assert "".join(writes) == "n,value\n" + rows

    def test_json_K(self, capsys):
        code, out, _ = run(capsys, "gen", "--fn", "K", "--n", "12", "--format", "json")
        assert code == 0
        assert json.loads(out) == [1, 1, 1, 2, 1, 3, 1, 4, 2, 3, 1, 8]

    def test_json_big_values_become_strings(self, capsys):
        code, out, _ = run(capsys, "gen", "--fn", "sigma", "--x", "6", "--n", "1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload[0], int)
        last = payload[-1]  # sigma_6(1000) > 10^18
        assert isinstance(last, str)
        assert int(last) > 2**53

    def test_default_format_is_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "--fn", "one", "--n", "2")
        assert code == 0
        assert out == "n,value\n1,1\n2,1\n"

    def test_usage_errors(self, capsys):
        assert run(capsys, "gen", "--fn", "nope", "--n", "3")[0] == 2
        assert run(capsys, "gen", "--fn", "kappa", "--n", "3")[0] == 2
        assert run(capsys, "gen", "--fn", "one", "--x", "1", "--n", "3")[0] == 2
        assert run(capsys, "gen", "--fn", "one", "--n", "0")[0] == 2
        assert run(capsys, "gen", "--fn", "one")[0] == 2


def test_json_value_boundary():
    safe = 2**53 - 1
    assert _json_value(safe) == safe
    assert _json_value(-safe) == -safe
    assert _json_value(safe + 1) == str(safe + 1)
    assert _json_value(-safe - 1) == str(-safe - 1)


class TestCheck:
    def test_small_pass_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "--n", "200", "--x", "0,1", "--report", str(report_path)
        )
        assert code == 0
        assert "identities passed" in out
        payload = json.loads(report_path.read_text())
        assert len(payload) == 5 + 5 * 2 + 2 * 4
        for entry in payload:
            assert set(entry) == {"identity", "x", "y", "n_max", "passed"}
            assert entry["passed"] is True
            assert entry["n_max"] == 200

    def test_single_exponent(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "50", "--x", "0")
        assert code == 0
        assert out.count("PASS") == 5 + 5 + 2

    def test_failure_reporting(self, capsys, tmp_path, monkeypatch):
        fake = [
            IdentityReport("EQ9", None, None, 10, True),
            IdentityReport("EQ4", 1, None, 10, False, 6, 14, 15),
        ]
        monkeypatch.setattr("recdiv.cli.check_all", lambda n, xs: fake)
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "--n", "10", "--report", str(report_path))
        assert code == 1
        assert "FAIL at n=6: 14 != 15" in out
        payload = json.loads(report_path.read_text())
        assert payload[0]["passed"] is True
        assert "first_failure_n" not in payload[0]
        assert payload[1]["passed"] is False
        assert payload[1]["first_failure_n"] == 6
        assert (payload[1]["lhs_value"], payload[1]["rhs_value"]) == (14, 15)
        assert "lhs_value" not in payload[0] and "rhs_value" not in payload[0]

    def test_false_identity_fails_end_to_end(self, capsys, tmp_path, monkeypatch):
        # kappa_0 = num_divisors holds at n = 1, 2, 3 and first fails at n = 4.
        monkeypatch.setitem(REGISTRY, "ZZ", IdentityCheck("ZZ", "kappa_0 = num_divisors"))
        r = check_identity("ZZ", 10)
        assert (r.passed, r.first_failure_n, r.lhs_value, r.rhs_value) == (False, 4, 4, 3)

        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "--n", "10", "--x", "0", "--report", str(report_path)
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[-2:] == [
            "ZZ    x=-  y=-   FAIL at n=4: 4 != 3",
            "12/13 identities passed at n_max=10",
        ]
        entry = json.loads(report_path.read_text())[-1]
        assert entry == {
            "identity": "ZZ", "x": None, "y": None, "n_max": 10, "passed": False,
            "first_failure_n": 4, "lhs_value": 4, "rhs_value": 3,
        }

    def test_an_unopenable_report_fails_before_any_check(self, capsys, tmp_path, monkeypatch):
        def never(n, xs):
            raise AssertionError("check_all ran")

        monkeypatch.setattr("recdiv.cli.check_all", never)
        missing = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "check", "--n", "5", "--report", str(missing))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        # A usage error comes first and creates no file.
        report_path = tmp_path / "r.json"
        for argv in (["--n", "0"], ["--x", "q"]):
            assert run(capsys, "check", *argv, "--report", str(report_path))[0] == 2
            assert not report_path.exists()

    def test_bad_exponent_list(self, capsys):
        code, _, err = run(capsys, "check", "--n", "10", "--x", "0,q")
        assert code == 2
        assert "comma-separated" in err
        assert run(capsys, "check", "--n", "10", "--x", "-2")[0] == 2


def _refuse_to_parse(*args, **kwargs):
    raise AssertionError("a b-file that gen wrote was parsed")


def _out_of_memory(*args, **kwargs):
    raise MemoryError("out of memory tabulating a test table")


def _edit_line(i, change):
    """Apply ``change`` to line i (1-based, newline kept) of a b-file text."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[i - 1] = change(lines[i - 1])
        return "".join(lines)
    return edit


def _bump_last_digit(line):
    return line[:-2] + str((int(line[-2]) + 1) % 10) + "\n"


_AGREE = (0, "K agrees with K.txt on all 12293 entries\n", "")


def _parsed_comparison(fn, text, path):
    """oeis-compare's (exit code, stdout, stderr) from a full parse and an entry-by-entry scan."""
    try:
        bf = parse_bfile_text(text, source_name=path.name)
    except BFileParseError as exc:
        return 2, "", f"b-file parse error: {exc}\n"
    if not bf.values:
        return 0, f"{path}: no data lines; nothing to compare\n", ""
    seq = gen_builtin(fn, bf.indices[-1])
    for index, value in bf.entries:
        if seq[index] != value:
            return 1, "", f"mismatch at index {index}: {seq.label} gives {seq[index]}, b-file {path.name} has {value}\n"
    return 0, f"{seq.label} agrees with {path.name} on all {len(bf)} entries\n", ""


class TestOeisCompare:
    def test_round_trip_every_builtin(self, capsys, tmp_path):
        for fn in BUILTIN_NAMES:
            argv = ["gen", "--fn", fn, "--n", "1000", "--format", "bfile"]
            if fn in PARAMETRIC_NAMES:
                argv += ["--x", "2"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            path = tmp_path / f"{fn}.txt"
            path.write_text(out)
            argv = ["oeis-compare", "--fn", fn, "--bfile", str(path)]
            if fn in PARAMETRIC_NAMES:
                argv += ["--x", "2"]
            code, out, _ = run(capsys, *argv)
            assert code == 0, fn
            assert "agrees" in out

    def test_golden_data_files(self, capsys):
        for fn, x, name in (
            ("kappa", "0", "b067824.txt"),
            ("kappa", "1", "b330575.txt"),
            ("K", None, "b074206.txt"),
        ):
            path = str(DATA_DIR / name)
            argv = ["oeis-compare", "--fn", fn, "--bfile", path]
            if x is not None:
                argv += ["--x", x]
            code, out, _ = run(capsys, *argv)
            assert code == 0, path
            assert "all 12 entries" in out

    def test_mismatch_names_the_index(self, capsys, tmp_path):
        path = tmp_path / "bad_value.txt"
        path.write_text("1 1\n2 1\n3 999\n")
        code, _, err = run(capsys, "oeis-compare", "--fn", "K", "--bfile", str(path))
        assert code == 1
        assert "index 3" in err
        assert "999" in err

    def test_parse_error_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad_syntax.txt"
        path.write_text("1 1\ntwo values three\n")
        code, _, err = run(capsys, "oeis-compare", "--fn", "K", "--bfile", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oeis-compare", "--fn", "K", "--bfile", str(tmp_path / "absent.txt")
        )
        assert code == 2

    def test_values_past_the_str_digit_limit_round_trip(self, capsys, tmp_path):
        # id_5000(10) has 5001 digits, past CPython's default limit of 4300
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        argv = ["--fn", "id", "--x", "5000"]
        code, out, err = run(capsys, "gen", *argv, "--n", "10", "--format", "bfile")
        assert code == 0
        assert err == ""
        path = tmp_path / "id_5000.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "oeis-compare", *argv, "--bfile", str(path))
        assert code == 0
        assert "all 10 entries" in out
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit  # restored for library callers

    def test_written_file_agrees_without_a_parse(self, capsys, tmp_path, monkeypatch):
        # Three full 4096-line batches and part of a fourth; mobius has negative values.
        n = 3 * 4096 + 5
        for argv, label in ((["--fn", "kappa", "--x", "1"], "kappa_1"), (["--fn", "mobius"], "mobius")):
            path = tmp_path / f"{label}.txt"
            path.write_text(run(capsys, "gen", *argv, "--n", str(n), "--format", "bfile")[1])
            with monkeypatch.context() as m:
                m.setattr("recdiv.cli.parse_bfile_text", _refuse_to_parse)
                code, out, err = run(capsys, "oeis-compare", *argv, "--bfile", str(path))
            assert (code, out, err) == (0, f"{label} agrees with {path.name} on all {n} entries\n", "")

    def test_mismatch_does_not_hold_the_table_through_the_parse(self, capsys, tmp_path):
        # Peak bytes allocated per line for a 10^5-line kappa_1 b-file whose last
        # value differs, the text read and parsed included.  CPython 3.11: 176 with
        # the fast path's table held through the parse, 136 with it built again after.
        n = 100_000
        text = format_bfile(gen_builtin("kappa", n, x=1))
        path = tmp_path / "kappa_1.txt"
        path.write_text(text[:-2] + str(int(text[-2]) ^ 1) + "\n")
        del text
        tracemalloc.start()
        try:
            code = main(["oeis-compare", "--fn", "kappa", "--x", "1", "--bfile", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith(f"mismatch at index {n}: kappa_1 gives ")
        assert peak / n < 156

    def test_parse_error_comes_before_a_table_past_memory(self, capsys, tmp_path, monkeypatch):
        # The last line "3 2" ends the third line, so the text passes the row count.
        path = tmp_path / "bad_line_2.txt"
        path.write_text("1 1\n2 x\n3 2\n")
        monkeypatch.setattr("recdiv.cli.gen_builtin", _out_of_memory)
        code, out, err = run(capsys, "oeis-compare", "--fn", "K", "--bfile", str(path))
        assert (code, out, err) == (2, "", "b-file parse error: line 2: non-integer token in '2 x'\n")

    @pytest.mark.parametrize("edit, expected", [
        (lambda t: "# comment\n" + t, _AGREE),
        (lambda t: t + "\n", _AGREE),
        (lambda t: t[:-1], _AGREE),
        (lambda t: t.replace("\n", "\r\n"), _AGREE),
        (_edit_line(12292, lambda s: s[:-1] + "\f"), _AGREE),
        (_edit_line(7, lambda s: "0" + s), _AGREE),
        (_edit_line(7, lambda s: s.replace(" ", " 0")), _AGREE),
        (_edit_line(7, lambda s: s.replace(" ", " +")), _AGREE),
        (_edit_line(10, lambda s: "1_" + s[1:]), _AGREE),
        (_edit_line(7, lambda s: s.replace(" ", "  ")), _AGREE),
        (_edit_line(7, lambda s: s.replace(" ", "\t")), _AGREE),
        (_edit_line(6000, lambda s: ""), (0, "K agrees with K.txt on all 12292 entries\n", "")),
        (lambda t: t + "12294 1\n", (1, "", "mismatch at index 12294: K gives 44, b-file K.txt has 1\n")),
        (_edit_line(100, _bump_last_digit), (1, "", "mismatch at index 100: K gives 26, b-file K.txt has 27\n")),
        (_edit_line(6000, _bump_last_digit), (1, "", "mismatch at index 6000: K gives 7968, b-file K.txt has 7969\n")),
        (_edit_line(12290, _bump_last_digit), (1, "", "mismatch at index 12290: K gives 13, b-file K.txt has 14\n")),
    ], ids=[
        "leading-comment", "trailing-blank-line", "no-final-newline", "crlf", "form-feed-ends-line-n-1",
        "index-leading-zero", "value-leading-zero", "plus-sign", "underscore", "two-spaces", "tab",
        "missing-middle-line", "extra-line-past-n",
        "digit-in-first-batch", "digit-in-middle-batch", "digit-in-last-batch",
    ])
    def test_non_canonical_text_reports_as_the_exact_parse_does(self, capsys, tmp_path, edit, expected):
        # K on 1..3*4096+5: the digit edits fall in the first, a middle and the last
        # batch.  The file is read with universal newlines, so CRLF reads as LF.  A
        # form feed also ends a line, so the last line "12292 44\f12293 3" passes
        # the row count with n = 12292 but parses to index 12293.
        text = run(capsys, "gen", "--fn", "K", "--n", "12293", "--format", "bfile")[1]
        path = tmp_path / "K.txt"
        path.write_bytes(edit(text).encode("ascii"))
        assert run(capsys, "oeis-compare", "--fn", "K", "--bfile", str(path)) == expected

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["K", "mobius"]),
        st.integers(1, 300),
        st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from("0123456789 -+_#\n\r\t"),
        st.data(),
    )
    def test_one_character_edit_matches_the_parsed_comparison(
        self, capsys, tmp_path, fn, n, kind, char, data
    ):
        text = run(capsys, "gen", "--fn", fn, "--n", str(n), "--format", "bfile")[1]
        removed = 0 if kind == "insert" else 1
        pos = data.draw(st.integers(0, len(text) - removed))
        text = text[:pos] + ("" if kind == "delete" else char) + text[pos + removed :]
        path = tmp_path / "edited.txt"
        path.write_bytes(text.encode("ascii"))
        got = run(capsys, "oeis-compare", "--fn", fn, "--bfile", str(path))
        assert got == _parsed_comparison(fn, text, path)

    def test_comments_only_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# no data\n")
        code, out, _ = run(capsys, "oeis-compare", "--fn", "K", "--bfile", str(path))
        assert code == 0
        assert "nothing to compare" in out

    @pytest.mark.parametrize("argv, message", [
        (["--fn", "kappa"], "error: generator 'kappa' requires the exponent x"),
        (["--fn", "one", "--x", "3"], "error: generator 'one' takes no exponent"),
        (["--fn", "sigma", "--x", "-1"], "error: exponent x must be a nonnegative integer, got -1"),
    ], ids=["kappa-without-x", "one-with-x", "sigma-negative-x"])
    def test_usage_errors_come_before_the_bfile_is_read(self, capsys, tmp_path, argv, message):
        # With no data lines to tabulate, only an up-front check can refuse them.
        path = tmp_path / "empty.txt"
        path.write_text("# no data\n")
        code, out, err = run(capsys, "oeis-compare", *argv, "--bfile", str(path))
        assert (code, out, err) == (2, "", message + "\n")
        # An absent b-file is never opened: the usage error is the one reported.
        code, _, err = run(capsys, "oeis-compare", *argv, "--bfile", str(tmp_path / "absent.txt"))
        assert (code, err) == (2, message + "\n")


class TestSeries:
    def test_pass_verdict(self, capsys):
        code, out, _ = run(capsys, "series", "--x", "0", "--s", "3", "--n", "20000")
        assert code == 0
        assert "verdict: PASS" in out
        assert "shrinking; error budget " in out

    def test_domain_error_names_rho(self, capsys):
        code, _, err = run(capsys, "series", "--x", "0", "--s", "1.6")
        assert code == 1
        assert "rho" in err
        assert "1.7286472" in err

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "series", "--x", "0", "--s", "3", "--n", "1000", "--tol", "1e-12"
        )
        assert code == 1
        assert "verdict: FAIL" in out

    def test_bad_exponent(self, capsys):
        assert run(capsys, "series", "--x", "-1", "--s", "3", "--n", "100")[0] == 2

    def test_numerator_near_pole_fails_fast_without_traceback(self):
        # s - x = 1.001: zeta(s - x) ~ 1000 cannot meet its default
        # tolerance, yet must return its honest bound at once
        proc = subprocess.run(
            [sys.executable, "-m", "recdiv.cli", "series", "--x", "1", "--s", "2.001", "--n", "1000"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 1
        assert "verdict: FAIL" in proc.stdout
        assert proc.stderr == ""

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "series", "--x", "0")[0] == 2

    def test_huge_s_answers_at_once(self, capsys):
        # zeta(1e308) = 1: the gap is 0 at every checkpoint, inside the budget
        code, out, err = run(capsys, "series", "--x", "0", "--s", "1e308", "--n", "10")
        assert code == 0
        assert "verdict: PASS" in out
        assert err == ""


class TestBench:
    def test_shape_at_degenerate_range(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 1
        assert set(payload["sieve_seconds"]) == {"kappa_0", "kappa_1", "K"}
        assert payload["naive_prefix"] == 1
        assert isinstance(payload["sieve_faster_than_naive_extrapolation"], bool)

    def test_sieve_beats_naive_extrapolation(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "100000")
        assert code == 0
        payload = json.loads(out)
        assert payload["naive_prefix"] == 2000
        assert payload["sieve_faster_than_naive_extrapolation"] is True
        assert max(payload["sieve_seconds"].values()) < payload["naive_extrapolated_seconds"]

    def test_rejects_nonpositive_range(self, capsys):
        assert run(capsys, "bench", "--n", "0")[0] == 2


class TestTopLevel:
    def test_no_arguments_is_usage(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "gen", "--help")[0] == 0

    def test_help_documents_big_int_encoding(self, capsys):
        _, out, _ = run(capsys, "gen", "--help")
        assert "2^53" in out

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "recdiv.cli", "gen", "--fn", "K", "--n", "50000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_closed_pipe_mid_bfile_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "recdiv.cli", "gen", "--fn", "K", "--n", "50000", "--format", "bfile"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_console_script_is_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "recdiv.cli", "gen", "--fn", "K", "--n", "4", "--format", "bfile"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 1\n2 1\n3 1\n4 2\n"


# Hostile argv that passes argparse: (argv, exit code, fragment of the single
# stderr line).  "{tmp}" is a directory holding accent.txt, a b-file with a
# non-ASCII byte, and far.txt, a b-file whose last index no list can reach.
# Huge ranges for kappa, whose table grows by comprehension, run under an
# address-space limit in TestOutOfMemory instead.
HOSTILE_ARGV = [
    pytest.param(["gen", "--fn", "K", "--n", "0"], 2, "positive integer", id="gen-n-zero"),
    pytest.param(["gen", "--fn", "K", "--n", "-5"], 2, "positive integer", id="gen-n-negative"),
    pytest.param(["gen", "--fn", "K", "--n", str(10**24)], 2, "out of memory tabulating K", id="gen-n-huge"),
    pytest.param(["gen", "--fn", "id", "--x", "5000", "--n", "10", "--format", "csv"], 0, None, id="gen-5001-digits"),
    pytest.param(["check", "--n", "0"], 2, "positive integer", id="check-n-zero"),
    pytest.param(["check", "--n", "10", "--x", ","], 2, "nonnegative exponent", id="check-x-empty"),
    pytest.param(["check", "--n", "10", "--report", "{tmp}"], 2, "error:", id="check-report-directory"),
    pytest.param(["oeis-compare", "--fn", "K", "--bfile", "{tmp}/absent.txt"], 2, "error:", id="compare-missing-file"),
    pytest.param(["oeis-compare", "--fn", "K", "--bfile", "{tmp}"], 2, "error:", id="compare-directory"),
    pytest.param(["oeis-compare", "--fn", "K", "--bfile", "{tmp}/accent.txt"], 2, "ascii", id="compare-non-ascii"),
    pytest.param(["oeis-compare", "--fn", "K", "--bfile", "{tmp}/far.txt"], 2, "out of memory tabulating K", id="compare-index-huge"),
    pytest.param(["series", "--x", "0", "--s", "nan"], 2, "finite", id="series-s-nan"),
    pytest.param(["series", "--x", "0", "--s", "inf"], 2, "finite", id="series-s-inf"),
    pytest.param(["series", "--x", "0", "--s=-inf"], 2, "finite", id="series-s-minus-inf"),
    pytest.param(["series", "--x", "0", "--s", "3", "--tol", "nan"], 2, "tol must be positive", id="series-tol-nan"),
    pytest.param(["series", "--x", "0", "--s", "3", "--tol", "-1"], 2, "tol must be positive", id="series-tol-negative"),
    pytest.param(["series", "--x", "0", "--s", "3", "--n", "100", "--tol", "inf"], 0, None, id="series-tol-inf"),
    pytest.param(["series", "--x", "0", "--s", "3", "--n", "0"], 2, "positive integer", id="series-n-zero"),
    # kappa_400(n) passes the largest double from n = 6, its terms do not: a verdict, no error
    pytest.param(["series", "--x", "400", "--s", "402", "--n", "3000"], 0, None, id="series-float-overflow"),
    pytest.param(["series", "--x", "0", "--s", "1.5", "--n", "10"], 1, "rho", id="series-below-pole"),
    pytest.param(["series", "--x", "3", "--s", "3.5", "--n", "10"], 2, "diverges", id="series-numerator-diverges"),
    pytest.param(["bench", "--n", "0"], 2, "positive integer", id="bench-n-zero"),
]


@pytest.mark.parametrize("argv, expected, fragment", HOSTILE_ARGV)
def test_no_exception_escapes_main(capsys, tmp_path, argv, expected, fragment):
    (tmp_path / "accent.txt").write_bytes("1 1\n2 \u00e9\n".encode("utf-8"))
    (tmp_path / "far.txt").write_text(f"1 1\n{10**24} 1\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == expected
    if expected == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1
        assert fragment in err


def _limit_address_space():
    # 1 GiB: room for the interpreter, far short of the tables asked for below
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestOutOfMemory:
    # K's first allocation is a single [0] * (n + 1), which fails at once
    # under the limit instead of growing until the machine runs short.

    def run_limited(self, *argv, timeout=60):
        return subprocess.run(
            [sys.executable, "-m", "recdiv.cli", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=_limit_address_space,
        )

    def test_gen_exits_2_naming_the_range(self):
        proc = self.run_limited("gen", "--fn", "K", "--n", str(10**15))
        assert proc.returncode == 2
        assert proc.stderr == f"error: out of memory tabulating K on n = 1..{10**15}\n"

    def test_oeis_compare_exits_2_naming_the_range(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text(f"1 1\n{10**14} 1\n")
        proc = self.run_limited("oeis-compare", "--fn", "K", "--bfile", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: out of memory tabulating K on n = 1..{10**14}\n"

    def test_kappa_past_any_list_exits_2_naming_the_range(self):
        for argv, label in (
            (["gen", "--fn", "kappa", "--x", "1", "--n", str(10**24)], "kappa_1"),
            (["series", "--x", "0", "--s", "3", "--n", str(10**23)], "kappa_0"),
        ):
            proc = self.run_limited(*argv)
            assert proc.returncode == 2
            assert proc.stderr == f"error: out of memory tabulating {label} on n = 1..{argv[-1]}\n"

    def test_table_past_the_limit_is_refused_before_it_grows(self, tmp_path):
        # kappa_0's table starts as one pointer per term to the shared int 1,
        # so an unguarded list grows for seconds before the limit stops it
        # (3.3 s on a 2-vCPU host); the size guard refuses it at start-up.
        path = tmp_path / "far.txt"
        path.write_text(f"1 1\n{10**12} 1\n")
        for argv, label in (
            (["gen", "--fn", "kappa", "--x", "0", "--n", str(10**12)], "kappa_0"),
            (["series", "--x", "0", "--s", "3", "--n", str(10**12)], "kappa_0"),
            (["oeis-compare", "--fn", "kappa", "--x", "0", "--bfile", str(path)], "kappa_0"),
        ):
            proc = self.run_limited(*argv, timeout=1.5)
            assert proc.returncode == 2
            assert proc.stderr == f"error: out of memory tabulating {label} on n = 1..{10**12}\n"

    def test_guard_counts_the_exponent(self):
        # Each kappa_1000 term holds n^1000, thousands of bytes, not the one
        # digit the per-term estimate counts, and J_x(n) >= n^(x-1); unguarded,
        # the table grows for seconds before the limit stops it, or spins.
        for argv, label in (
            (["gen", "--fn", "kappa", "--x", "1000", "--format", "bfile", "--n", str(10**6)], "kappa_1000"),
            (["gen", "--fn", "jordan", "--x", "100000", "--n", "100000"], "jordan_100000"),
        ):
            proc = self.run_limited(*argv, timeout=1.5)
            assert proc.returncode == 2
            assert proc.stderr == f"error: out of memory tabulating {label} on n = 1..{argv[-1]}\n"
