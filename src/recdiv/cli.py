"""Command-line surface.

Subcommands: gen (emit a sequence as csv, json, or b-file), check (run
the identity suite), oeis-compare (diff a generator against a local
b-file), series (compare a partial Dirichlet sum with its closed form),
and bench (time the sieves against the naive recursion).

oeis-compare first checks whether the b-file's text is exactly what
`gen --format bfile` writes for the generator, and then agrees without
parsing it; any other text is parsed and compared entry by entry, so
its messages, line numbers and exit codes do not depend on that check.

Exit codes: 0 success, 1 mathematical mismatch, 2 usage, IO or
out-of-memory error.
A reader that closes the output pipe early ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import oracles
from .bfile import BFileParseError, _batches, _canonical_rows, _is_formatted, parse_bfile_text
from .identities import check_all, registered_codes
from .sequences import BUILTIN_NAMES, _generator_label, _require_int, gen_builtin
from .series import SingularityDomainError, verify_closed_form

__all__ = ["main", "build_parser"]

_JSON_SAFE_MAX = (1 << 53) - 1

_EPILOG = """\
json encoding:
  integer values whose magnitude exceeds 2^53 - 1 are emitted as decimal
  strings so nothing is rounded by consumers that read JSON numbers as
  doubles.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdiv",
        description="Exact divisor-sum sequence toolkit",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "gen",
        help="emit f(1..n) as csv, json, or b-file lines",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_gen.add_argument("--fn", required=True, choices=BUILTIN_NAMES)
    p_gen.add_argument("--x", type=int, default=None, help="exponent for parametric fns")
    p_gen.add_argument("--n", type=int, required=True, help="range bound (inclusive)")
    p_gen.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="run the exact identity suite")
    p_check.add_argument("--n", type=int, default=10_000, help="check range (default 10000)")
    p_check.add_argument(
        "--x", default="0,1,2,3", help="comma-separated exponent set (default 0,1,2,3)"
    )
    p_check.add_argument("--report", default=None, help="write JSON report to this path")
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("oeis-compare", help="compare a generator against a b-file")
    p_cmp.add_argument("--fn", required=True, choices=BUILTIN_NAMES)
    p_cmp.add_argument("--x", type=int, default=None)
    p_cmp.add_argument("--bfile", required=True, help="path to a local b-file")
    p_cmp.set_defaults(func=cmd_oeis_compare)

    p_ser = sub.add_parser(
        "series", help="compare a partial Dirichlet sum against its closed form"
    )
    p_ser.add_argument("--x", type=int, required=True, help="nonnegative exponent")
    p_ser.add_argument("--s", type=float, required=True, help="evaluation point")
    p_ser.add_argument("--n", type=int, default=100_000, help="sum length (default 100000)")
    p_ser.add_argument("--tol", type=float, default=1e-3, help="relative gap tolerance")
    p_ser.set_defaults(func=cmd_series)

    p_bench = sub.add_parser("bench", help="time the sieves against the naive recursion")
    p_bench.add_argument("--n", type=int, required=True, help="sieve range")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _json_value(v: int):
    return v if -_JSON_SAFE_MAX <= v <= _JSON_SAFE_MAX else str(v)


def cmd_gen(args) -> int:
    seq = gen_builtin(args.fn, args.n, x=args.x)
    if args.format == "json":
        sys.stdout.write(json.dumps([_json_value(v) for v in seq]) + "\n")
        return 0
    if args.format == "csv":
        sys.stdout.write("n,value\n")
    # A batch of lines at a time, so the whole text never exists at once.
    for batch in _batches(seq, "," if args.format == "csv" else " "):
        sys.stdout.write(batch)
    return 0


def _parse_exponent_list(text: str) -> list[int]:
    try:
        xs = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--x must be a comma-separated integer list, got {text!r}")
    if not xs or any(v < 0 for v in xs):
        raise ValueError(f"--x needs at least one nonnegative exponent, got {text!r}")
    return xs


def cmd_check(args) -> int:
    xs = _parse_exponent_list(args.x)
    _require_int(args.n)
    # Opened before any check runs: a path that cannot be written fails at once.
    with nullcontext() if args.report is None else open(args.report, "w", encoding="ascii") as fh:
        reports = check_all(args.n, xs)
        width = max(len(c) for c in registered_codes())
        failures = 0
        for r in reports:
            xcol = "-" if r.x is None else str(r.x)
            ycol = "-" if r.y is None else str(r.y)
            if r.passed:
                status = "PASS"
            else:
                failures += 1
                status = f"FAIL at n={r.first_failure_n}: {r.lhs_value} != {r.rhs_value}"
            print(f"{r.code:<{width}}  x={xcol:<2} y={ycol:<2}  {status}")
        print(f"{len(reports) - failures}/{len(reports)} identities passed at n_max={args.n}")
        if fh is not None:
            payload = []
            for r in reports:
                entry = {
                    "identity": r.code,
                    "x": r.x,
                    "y": r.y,
                    "n_max": r.n_max,
                    "passed": r.passed,
                }
                if not r.passed:
                    entry["first_failure_n"] = r.first_failure_n
                    entry["lhs_value"] = _json_value(r.lhs_value)
                    entry["rhs_value"] = _json_value(r.rhs_value)
                payload.append(entry)
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if failures == 0 else 1


def cmd_oeis_compare(args) -> int:
    label = _generator_label(args.fn, args.x)  # a usage error comes before the b-file is read
    path = Path(args.bfile)
    text = path.read_text(encoding="ascii")
    # Fast path: text exactly as `gen --format bfile` writes it agrees, unparsed.
    # Its table is an argument only, so it is not held through the parse below.
    n = _canonical_rows(text)
    try:
        agrees = bool(n) and _is_formatted(text, gen_builtin(args.fn, n, x=args.x))
    except MemoryError:
        agrees = False  # the exact path reports a parse error first, else this again
    if not agrees:
        bf = parse_bfile_text(text, source_name=path.name)
        del text  # only the columns are needed from here
        indices, expected = bf.indices, bf.values
        if not indices:
            print(f"{args.bfile}: no data lines; nothing to compare")
            return 0
        seq = gen_builtin(args.fn, indices[-1], x=args.x)
        index = seq.first_difference(indices, expected)
        if index is not None:
            print(
                f"mismatch at index {index}: {label} gives {seq[index]}, "
                f"b-file {path.name} has {expected[indices.index(index)]}",
                file=sys.stderr,
            )
            return 1
        n = len(indices)
    print(f"{label} agrees with {path.name} on all {n} entries")
    return 0


def cmd_series(args) -> int:
    report = verify_closed_form(args.x, args.s, args.n, args.tol)
    print(f"partial sum   (x={report.x}, s={report.s:g}, n_max={report.n_max}): {report.partial_sum:.12g}")
    print(f"closed form   zeta(s-x)/(2-zeta(s)):                {report.closed_form:.12g}")
    print(f"relative gap  {report.gap:.3e}  (tol {report.tol:g})")
    trail = " -> ".join(f"{g:.3e}" for g in report.checkpoint_gaps)
    lengths = ", ".join(str(n) for n in report.checkpoint_lengths)
    word = "shrinking" if report.gap_shrinks else "NOT shrinking"
    print(
        f"gap across n_max {{{lengths}}}: {trail}"
        f" ({word}; error budget {report.error_budget:.1e})"
    )
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    sieve_seconds = {}
    for name, x in (("kappa_0", 0), ("kappa_1", 1), ("K", None)):
        t0 = time.perf_counter()
        gen_builtin("K" if x is None else "kappa", args.n, x=x)
        sieve_seconds[name] = time.perf_counter() - t0

    prefix = min(args.n, 2000)
    oracles.clear_caches()
    t0 = time.perf_counter()
    oracles.naive_kappa_range(0, prefix)
    naive_seconds = time.perf_counter() - t0
    # per-n trial division is ~sqrt(n), so the full-range cost scales
    # like n^1.5; extrapolate the measured prefix accordingly
    extrapolated = naive_seconds * (args.n / prefix) ** 1.5
    payload = {
        "n": args.n,
        "sieve_seconds": sieve_seconds,
        "naive_prefix": prefix,
        "naive_prefix_seconds": naive_seconds,
        "naive_extrapolated_seconds": extrapolated,
        "sieve_faster_than_naive_extrapolation": max(sieve_seconds.values()) < extrapolated,
    }
    print(json.dumps(payload, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact values of any size print and parse: lift CPython's int/str digit
    # limit for the run (0 means none; Python before 3.10.7 has none either).
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`recdiv gen ... | head`): point stdout
        # at devnull so the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BFileParseError as exc:
        print(f"b-file parse error: {exc}", file=sys.stderr)
        return 2
    except SingularityDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
