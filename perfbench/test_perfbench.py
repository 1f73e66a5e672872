"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import spans
import steady
import workloads

cli = run.import_recdiv()
from recdiv.sequences import ArithSeq  # noqa: E402  (import_recdiv puts src/ on the path)
from recdiv.series import SingularityDomainError  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace=False, seed=3):
    return run.run_workload(workload, seed, 0, trace, sizes=workloads.TINY, setup_samples=1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_clean_at_tiny_size(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_covers_the_jobs(workload):
    result = tiny(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["sequences.spf_table.s"] > 0
    if workload == "identities":
        assert metrics["identities.checks"] == 57
        assert metrics["sequences.convolve.calls"] == 87
        assert metrics["sequences.convolve.distinct_ratio"] == pytest.approx(50 / 87)
        assert 0 < metrics["identities.pool.hit_ratio"] < 1
    if workload == "series":
        assert metrics["series.zeta.calls"] == 3 * len(workloads.SERIES_POINTS)
        assert metrics["series.partial_sum.calls"] == 4 * len(workloads.SERIES_POINTS)
    if workload == "tabulate":
        # Each b-file is formatted once and parsed once; stdout adds oeis-compare's line.
        assert 1.9 * metrics["cli.out_bytes"] < metrics["bfile.bytes"] < 2 * metrics["cli.out_bytes"]
        assert metrics["sequences.gen.terms"] == 2 * len(workloads.TABULATE_FNS) * workloads.TINY["tabulate_n"]


def test_trace_file_spans_nest_inside_their_jobs():
    tiny("identities", trace=True, seed=4)
    lines = (run.WORK / "trace-identities-4.jsonl").read_text().splitlines()
    recorded = [json.loads(line) for line in lines]
    for span in recorded:
        if span["parent"] is not None:
            parent = recorded[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["job"] == span["job"]


def test_term_off_by_one_is_a_failed_job(monkeypatch):
    # gen and oeis-compare both see the corrupted K, so only the reference check can notice.
    real = cli.gen_builtin

    def corrupted(name, n_max, *, x=None):
        seq = real(name, n_max, x=x)
        if name != "K":
            return seq
        terms = seq.terms()
        terms[-1] += 1
        return ArithSeq(terms, label=seq.label)

    monkeypatch.setattr(cli, "gen_builtin", corrupted)
    result = tiny("tabulate")
    assert result["failed"] == 1 and not result["correct"]


def test_wrong_closed_form_is_a_failed_job(monkeypatch):
    real = cli.verify_closed_form

    def skewed(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, closed_form=report.closed_form * (1 + 1e-6))

    monkeypatch.setattr(cli, "verify_closed_form", skewed)
    result = tiny("series")
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_missing_identity_is_a_failed_job(monkeypatch):
    real = cli.check_all
    monkeypatch.setattr(cli, "check_all", lambda n, xs: real(n, xs)[1:])
    result = tiny("identities")
    assert result["failed"] == 1 and not result["correct"]


def test_nonzero_exit_is_failed_but_not_wrong(monkeypatch):
    def refuse(x, s, n_max, tol):
        raise SingularityDomainError(s, 1.7286)

    monkeypatch.setattr(cli, "verify_closed_form", refuse)
    result = tiny("series")
    assert result["failed"] == result["attempted"] and result["correct"]


def test_reference_matches_the_oeis_files():
    for name, fn, x in workloads.OEIS_FILES:
        rows = [line.split() for line in (run.ROOT / "data" / name).read_text().splitlines()]
        for index, value in (r for r in rows if r and not r[0].startswith("#")):
            assert reference.value(fn, x, int(index)) == int(value)
    assert [reference.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [reference.phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert [reference.sigma(n, 1) for n in range(1, 11)] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    assert reference.partial_sum(reference.kappa_table(0, 12), 0.0) == sum(
        reference.kappa(n, 0) for n in range(1, 13)
    )


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _result(values, failed=0, attempted=10):
    return {
        "correct": True, "failed": failed, "attempted": attempted,
        "metrics": {m["name"]: {"value": v} for m, v in zip(SPEC["end_to_end"], values)},
    }


def test_steadiness_compare_flags_spread_shift_and_failure_share():
    base = [1.0, 10.0, 1.0, 100.0]
    steady_runs = [_result([v * (1 + 0.001 * i) for v in base]) for i in range(10)]
    assert steady.compare(SPEC, {"w": [steady_runs, steady_runs]})[1] == []

    wide_setup = [_result([base[0] * (1 + 0.5 * (i % 2))] + base[1:]) for i in range(10)]
    assert any("setup_s set 1: spread" in p for p in steady.compare(SPEC, {"w": [wide_setup, steady_runs]})[1])

    for factor in (1.5, 0.6):
        shifted = [_result([v * factor for v in base]) for _ in range(10)]
        assert any("median differs" in p for p in steady.compare(SPEC, {"w": [steady_runs, shifted]})[1])

    failing = [_result(base, failed=1) for _ in range(10)]
    assert any("failed share" in p for p in steady.compare(SPEC, {"w": [steady_runs, failing]})[1])


def test_exits_nonzero_without_the_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0 and done.stdout == ""
    finally:
        shutil.rmtree(bare)
