"""The benchmark's workloads: seeded lists of recdiv CLI jobs and their output checks.

A job is one or more ``recdiv.cli.main(argv)`` calls made in process, with
standard output captured in memory or sent to a file.  Its check runs
after it, outside the timed region, and compares the output with values
from ``reference``, never with a stored copy of earlier output.  A round
is one pass over the workload's job list; the seed fixes the order of the
list and the indices the checks sample, not the work.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# Sizes of the benchmark; the tests run the same workloads at TINY sizes.
FULL = {"tabulate_n": 1_000_000, "identities_n": 10_000, "series_n": 100_000, "samples": 64}
TINY = {"tabulate_n": 3_000, "identities_n": 300, "series_n": 20_000, "samples": 16}

TABULATE_FNS = (
    ("kappa", 0), ("kappa", 1), ("K", None), ("sigma", 1),
    ("num_divisors", None), ("mobius", None), ("phi", None),
)
IDENTITY_XS = (0, 1, 2, 3)
# Exponents each identity takes, as stated in the paper; 57 checks over IDENTITY_XS.
IDENTITY_ARITY = {
    "EQ3": 2, "JY": 2,
    "EQ4": 1, "EQ6": 1, "EQ7": 1, "EQ8": 1, "EQ12": 1,
    "EQ9": 0, "EQ10": 0, "EQ13": 0, "SC1": 0, "SC2": 0,
}
# (x, s) points whose relative gap at n = 10^5 lies between 4e-11 and 1e-4:
# inside the default 1e-3 tolerance and well above double-precision roundoff.
SERIES_POINTS = ((0, 3.0), (1, 4.0), (2, 5.0), (3, 6.0), (0, 2.5), (1, 3.5), (2, 4.5), (3, 5.5))
# The b-files from OEIS that ship in data/, and the generator each one lists.
OEIS_FILES = (("b067824.txt", "kappa", 0), ("b074206.txt", "K", None), ("b330575.txt", "kappa", 1))


@dataclass
class Call:
    """One ``recdiv`` command line; ``out`` sends its standard output to a file."""

    argv: list[str]
    out: Path | None = None


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    """CLI calls run back to back, and a check of their outcomes (None when correct)."""

    name: str
    calls: list[Call]
    check: Callable[[list[Outcome]], str | None]


def _fn_args(fn: str, x: int | None) -> list[str]:
    return ["--fn", fn] + ([] if x is None else ["--x", str(x)])


def tabulate_jobs(rng, sizes, work: Path) -> list[Job]:
    """`gen --format bfile` to a file, then `oeis-compare` on that file, per generator."""
    n = sizes["tabulate_n"]
    fns = list(TABULATE_FNS)
    rng.shuffle(fns)
    jobs = []
    for fn, x in fns:
        label = fn if x is None else f"{fn}_{x}"
        path = work / f"tabulate_{label}.txt"
        sample = sorted({1, 2, n} | set(rng.sample(range(3, n), sizes["samples"] - 3)))
        expected = {i: reference.value(fn, x, i) for i in sample}
        jobs.append(Job(
            f"tabulate {label}",
            [
                Call(["gen"] + _fn_args(fn, x) + ["--n", str(n), "--format", "bfile"], out=path),
                Call(["oeis-compare"] + _fn_args(fn, x) + ["--bfile", str(path)]),
            ],
            _tabulate_check(label, path, n, expected),
        ))
    return jobs


def _tabulate_check(label: str, path: Path, n: int, expected: dict[int, int]):
    def check(outcomes: list[Outcome]) -> str | None:
        try:
            gen, compare = outcomes
            if gen.stderr or compare.stderr:
                return f"stderr: {(gen.stderr + compare.stderr).strip()[:200]}"
            agree = f"{label} agrees with {path.name} on all {n} entries\n"
            if compare.stdout != agree:
                return f"oeis-compare printed {compare.stdout[:200]!r}"
            return _check_bfile(path, n, expected)
        finally:
            path.unlink(missing_ok=True)

    return check


def _check_bfile(path: Path, n: int, expected: dict[int, int]) -> str | None:
    """Lines "i value" for i = 1..n, with the reference value at every sampled i."""
    count = 0
    with open(path, encoding="ascii") as fh:
        for count, line in enumerate(fh, start=1):
            index, _, value = line.partition(" ")
            if index != str(count) or not line.endswith("\n"):
                return f"line {count} is {line[:60]!r}"
            if count in expected and int(value) != expected[count]:
                return f"term {count} is {value.strip()}, reference {expected[count]}"
    if count != n:
        return f"{count} lines, expected {n}"
    return None


def oeis_checks(root: Path) -> list[Job]:
    """`oeis-compare` against the OEIS b-files in data/, run once per run after the timed jobs."""
    jobs = []
    for name, fn, x in OEIS_FILES:
        path = root / "data" / name
        label = fn if x is None else f"{fn}_{x}"
        agree = f"{label} agrees with {name} on all 12 entries\n"
        jobs.append(Job(
            f"oeis {name}",
            [Call(["oeis-compare"] + _fn_args(fn, x) + ["--bfile", str(path)])],
            lambda outs, agree=agree: None if outs[0].stdout == agree else f"printed {outs[0].stdout[:200]!r}",
        ))
    return jobs


def identities_jobs(rng, sizes, work: Path) -> list[Job]:
    """`check --n N --x <0,1,2,3 in a seeded order> --report <file>`: one job per round."""
    n = sizes["identities_n"]
    xs = list(IDENTITY_XS)
    rng.shuffle(xs)
    report = work / "identities_report.json"
    call = Call(["check", "--n", str(n), "--x", ",".join(map(str, xs)), "--report", str(report)])
    combos = {
        0: [(None, None)],
        1: [(a, None) for a in IDENTITY_XS],
        2: [(a, b) for a in IDENTITY_XS for b in IDENTITY_XS],
    }
    want = {(code, a, b) for code, arity in IDENTITY_ARITY.items() for a, b in combos[arity]}

    def check(outcomes: list[Outcome]) -> str | None:
        try:
            out = outcomes[0].stdout.splitlines()
            summary = f"{len(want)}/{len(want)} identities passed at n_max={n}"
            if not out or out[-1] != summary:
                return f"summary line {out[-1] if out else ''!r}, expected {summary!r}"
            entries = json.loads(report.read_text(encoding="ascii"))
            got = {(e["identity"], e["x"], e["y"]) for e in entries}
            if len(entries) != len(want) or got != want:
                return f"report lists {len(entries)} checks, expected {len(want)}"
            bad = [e for e in entries if e["passed"] is not True or e["n_max"] != n]
            return f"report entry {bad[0]}" if bad else None
        finally:
            report.unlink(missing_ok=True)

    return [Job("identities", [call], check)]


_FLOAT = r"([-+0-9.eE]+|nan|inf)"
_PARTIAL = re.compile(r"^partial sum .*:\s+" + _FLOAT + r"$", re.M)
_CLOSED = re.compile(r"^closed form .*:\s+" + _FLOAT + r"$", re.M)


def series_jobs(rng, sizes, work: Path) -> list[Job]:
    """`series --x X --s S --n N` over SERIES_POINTS in a seeded order."""
    n = sizes["series_n"]
    points = list(SERIES_POINTS)
    rng.shuffle(points)
    partials = {}
    for x in sorted({x for x, _ in points}):
        table = reference.kappa_table(x, n)
        partials.update({(x, s): reference.partial_sum(table, s) for x2, s in points if x2 == x})
    jobs = []
    for x, s in points:
        closed, partial = reference.closed_form(x, s), partials[x, s]
        jobs.append(Job(
            f"series x={x} s={s}",
            [Call(["series", "--x", str(x), "--s", repr(s), "--n", str(n)])],
            _series_check(closed, partial),
        ))
    return jobs


def _series_check(closed: float, partial: float):
    def check(outcomes: list[Outcome]) -> str | None:
        text = outcomes[0].stdout
        p, c = _PARTIAL.search(text), _CLOSED.search(text)
        if not (p and c) or "\nverdict: PASS\n" not in text:
            return f"output {text[:300]!r}"
        got_partial, got_closed = float(p.group(1)), float(c.group(1))
        # 12 significant digits are printed; zeta is good to 1e-12.
        if not math.isclose(got_closed, closed, rel_tol=1e-9):
            return f"closed form {got_closed!r}, mpmath gives {closed!r}"
        if not math.isclose(got_partial, partial, rel_tol=1e-9):
            return f"partial sum {got_partial!r}, reference {partial!r}"
        if not got_partial < closed:
            return f"partial sum {got_partial!r} of positive terms is not below {closed!r}"
        return None

    return check


WORKLOADS = {"tabulate": tabulate_jobs, "identities": identities_jobs, "series": series_jobs}
