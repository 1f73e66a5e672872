"""Span recording around recdiv's layers, and the per-layer metrics derived from it.

The tracer wraps recdiv's public functions from outside: every module
namespace under ``recdiv`` that holds a target function gets the wrapper,
so calls through ``recdiv.cli.gen_builtin``, ``recdiv.series.gen_builtin``
and ``ArithSeq.__mul__``'s lookup of ``dirichlet_convolve`` are all seen.
A span is ``[name, start, end, parent, job, attrs]``; spans stay in memory
and are written out once, when the run ends.  The program source is not
touched.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# A layer metric's name, unit and better direction; BENCHMARK.json lists the same.
GENERATORS = (
    "kappa", "K", "sigma", "num_divisors", "mobius", "phi", "jordan", "id", "one", "epsilon",
)
PER_LAYER = (
    [("cli.self_s", "s", "lower"), ("cli.out_bytes", "bytes", "lower")]
    + [(f"sequences.gen.{g}.s", "s", "lower") for g in GENERATORS]
    + [
        ("sequences.gen.terms", "count", "lower"),
        ("sequences.gen.max_bits", "bits", "lower"),
        ("sequences.spf_table.s", "s", "lower"),
        ("sequences.convolve.s", "s", "lower"),
        ("sequences.convolve.calls", "count", "lower"),
        ("sequences.convolve.distinct_ratio", "ratio", "higher"),
        ("sequences.inverse.s", "s", "lower"),
        ("sequences.inverse.calls", "count", "lower"),
        ("sequences.elementwise.s", "s", "lower"),
        ("sequences.arithseq_init.s", "s", "lower"),
        ("identities.check.self_s", "s", "lower"),
        ("identities.compare.s", "s", "lower"),
        ("identities.checks", "count", "higher"),
        ("identities.pool.hit_ratio", "ratio", "higher"),
        ("bfile.format.s", "s", "lower"),
        ("bfile.parse.s", "s", "lower"),
        ("bfile.bytes", "bytes", "lower"),
        ("series.verify.self_s", "s", "lower"),
        ("series.partial_sum.s", "s", "lower"),
        ("series.partial_sum.calls", "count", "lower"),
        ("series.partial_sum.terms", "count", "lower"),
        ("series.zeta.s", "s", "lower"),
        ("series.zeta.calls", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
)


def _gen_attrs(args, kwargs, result):
    top = max(max(result), -min(result))
    return {"fn": args[0], "terms": result.n_max, "bits": top.bit_length()}


def _convolve_attrs(args, kwargs, result):
    # Convolution commutes, so an operand pair is unordered.
    return {"pair": sorted([args[0].label, args[1].label]), "n_max": result.n_max}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _terms(args, kwargs, result):
    return {"terms": args[0].n_max}


# (module, attribute, span name, attrs): functions swapped in every recdiv namespace.
FUNCTIONS = (
    ("recdiv.sequences", "gen_builtin", "sequences.gen", _gen_attrs),
    ("recdiv.sequences", "dirichlet_convolve", "sequences.convolve", _convolve_attrs),
    ("recdiv.sequences", "dirichlet_inverse", "sequences.inverse", None),
    ("recdiv.sequences", "make_divisor_table", "sequences.spf_table", None),
    ("recdiv.identities", "check_all", "identities.check", None),
    ("recdiv.identities", "check_identity", "identities.check", None),
    ("recdiv.identities", "compare_sequences", "identities.compare", None),
    ("recdiv.bfile", "format_bfile", "bfile.format", _result_bytes),
    ("recdiv.bfile", "parse_bfile", "bfile.parse", None),
    ("recdiv.bfile", "parse_bfile_text", "bfile.parse", _text_bytes),
    ("recdiv.series", "verify_closed_form", "series.verify", None),
    ("recdiv.series", "dirichlet_partial_sum", "series.partial_sum", _terms),
    ("recdiv.series", "zeta", "series.zeta", None),
)
# (module, class, method, span name): methods swapped on the class.
METHODS = (
    ("recdiv.sequences", "ArithSeq", "__init__", "sequences.arithseq_init"),
    ("recdiv.sequences", "ArithSeq", "__add__", "sequences.elementwise"),
    ("recdiv.sequences", "ArithSeq", "__sub__", "sequences.elementwise"),
    ("recdiv.sequences", "ArithSeq", "_scaled", "sequences.elementwise"),
    ("recdiv.identities", "SequencePool", "get", "identities.pool.get"),
    ("recdiv.identities", "SequencePool", "inverse", "identities.pool.inverse"),
)

# Span names whose self time is the identities layer's own work.
_IDENTITIES_SELF = ("identities.check", "identities.pool.get", "identities.pool.inverse")


class Tracer:
    """In-memory span recorder; `installed()` wraps recdiv while it is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                # Deriving attributes is tracing cost: record it as its own
                # span so it is not charged to the caller's self time.
                t0 = perf_counter()
                span[5] = attrs(args, kwargs, result)
                tracer.spans.append(["trace.attrs", t0, perf_counter(), span[3], tracer.job, None])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore the originals on exit."""
        undo = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "recdiv" or k.startswith("recdiv.")]
        try:
            # A missing target raises: its layer metrics would read 0 and pass for a gain.
            for module_name, attr, name, attrs in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, original, attrs)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            for module_name, cls_name, method, name in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = vars(cls)[method]
                setattr(cls, method, self._wrap(name, original, None))
                undo.append((cls, method, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent index, job, attrs."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "attrs": attrs,
                }) + "\n")


def layer_metrics(
    spans: list[list], rounds: int, job_seconds: float, out_bytes: int
) -> dict[str, float]:
    """Per-layer metrics from a traced run, per pass over the workload's job list.

    Times and counts are divided by ``rounds``; ratios, ``max_bits`` and the
    single ``spf_table`` probe are not.  ``job_seconds`` is the benchmark's own
    timing of the traced jobs, against which the root spans' coverage is
    taken, and ``out_bytes`` what those jobs wrote to standard output.
    """
    duration = [end - start for _, start, end, *_ in spans]
    own = list(duration)
    for i, span in enumerate(spans):
        if span[3] is not None:
            own[span[3]] -= duration[i]

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def outer(name):
        # Skip a span nested directly in one of the same name (parse_bfile -> parse_bfile_text).
        return [i for i in select(name) if spans[i][3] is None or spans[spans[i][3]][0] != name]

    def total(name):
        return sum(duration[i] for i in outer(name))

    m: dict[str, float] = {}
    m["cli.self_s"] = sum(own[i] for i in select("cli.main")) / rounds
    m["cli.out_bytes"] = out_bytes / rounds

    gens = select("sequences.gen")
    for g in GENERATORS:
        m[f"sequences.gen.{g}.s"] = sum(duration[i] for i in gens if spans[i][5]["fn"] == g) / rounds
    m["sequences.gen.terms"] = sum(spans[i][5]["terms"] for i in gens) / rounds
    m["sequences.gen.max_bits"] = max((spans[i][5]["bits"] for i in gens), default=0)
    m["sequences.spf_table.s"] = total("sequences.spf_table")

    convs = select("sequences.convolve")
    m["sequences.convolve.s"] = total("sequences.convolve") / rounds
    m["sequences.convolve.calls"] = len(convs) / rounds
    # Operand pairs repeat within a job (one SequencePool); count distinct ones per job.
    distinct = {(spans[i][4], tuple(spans[i][5]["pair"]), spans[i][5]["n_max"]) for i in convs}
    m["sequences.convolve.distinct_ratio"] = len(distinct) / len(convs) if convs else 0.0
    m["sequences.inverse.s"] = total("sequences.inverse") / rounds
    m["sequences.inverse.calls"] = len(select("sequences.inverse")) / rounds
    m["sequences.elementwise.s"] = total("sequences.elementwise") / rounds
    m["sequences.arithseq_init.s"] = total("sequences.arithseq_init") / rounds

    m["identities.check.self_s"] = sum(own[i] for n in _IDENTITIES_SELF for i in select(n)) / rounds
    m["identities.compare.s"] = total("identities.compare") / rounds
    checks = select("identities.check")
    m["identities.checks"] = (len(checks) - len(outer("identities.check"))) / rounds
    gets = select("identities.pool.get")
    gen_parents = {spans[i][3] for i in gens}
    hits = sum(1 for i in gets if i not in gen_parents)
    m["identities.pool.hit_ratio"] = hits / len(gets) if gets else 0.0

    m["bfile.format.s"] = total("bfile.format") / rounds
    m["bfile.parse.s"] = total("bfile.parse") / rounds
    m["bfile.bytes"] = sum(s[5]["bytes"] for s in spans if s[0].startswith("bfile.") and s[5]) / rounds

    m["series.verify.self_s"] = sum(own[i] for i in select("series.verify")) / rounds
    sums = select("series.partial_sum")
    m["series.partial_sum.s"] = total("series.partial_sum") / rounds
    m["series.partial_sum.calls"] = len(sums) / rounds
    m["series.partial_sum.terms"] = sum(spans[i][5]["terms"] for i in sums) / rounds
    m["series.zeta.s"] = total("series.zeta") / rounds
    m["series.zeta.calls"] = len(select("series.zeta")) / rounds

    roots = select("cli.main")
    m["trace.wall_s"] = job_seconds / rounds
    m["trace.coverage"] = sum(duration[i] for i in roots) / job_seconds if job_seconds else 0.0
    return m
