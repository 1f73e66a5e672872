"""Check that the benchmark repeats within its own bounds.

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` on every workload ten times per set, each run
with its own seed (1, 2, 3, ... across all runs), for two sets, one run
at a time.  For every end-to-end metric it prints each set's median,
quartiles and spread (the interquartile range as a share of the median),
and fails when a spread exceeds the metric's bound in BENCHMARK.json,
when set 2's median differs from set 1's, in either direction, by more
than the bound, or when the share of failed jobs differs between runs.
It then makes three traced runs per workload and prints the per-layer
medians and the tracing overhead: traced minus untraced wall_s.  The
summary is written to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
TRACE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {int(trace)} took {perf_counter() - t0:.1f} s: {json.dumps(result)}",
          file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare(spec: dict, sets: dict[str, list[list[dict]]]) -> tuple[list[dict], list[str]]:
    """Rows of per-set statistics, and every way the sets break the bounds.

    ``sets[workload][k]`` holds the results of set k for that workload.
    """
    rows, problems = [], []
    for workload, results in sets.items():
        shares = []
        for k, runs in enumerate(results):
            if not all(r["correct"] for r in runs):
                problems.append(f"{workload} set {k + 1}: a run reported wrong output")
            shares.append({(r["failed"], r["attempted"]) for r in runs})
        ratios = {f / a for s in shares for f, a in s}
        if len(ratios) > 1:
            problems.append(f"{workload}: failed share differs between runs: {sorted(ratios)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in results]
            rows.append({"workload": workload, "metric": name, "bound": bound, "sets": stats})
            for k, st in enumerate(stats):
                if st["spread"] > bound:
                    problems.append(
                        f"{workload} {name} set {k + 1}: spread {st['spread']:.3f} > bound {bound}"
                    )
                # Both sets run the same code, so either could be the baseline.
                shift = abs(st["median"] - stats[0]["median"]) / stats[0]["median"]
                if shift > bound:
                    problems.append(
                        f"{workload} {name} set {k + 1}: median differs from set 1 by {shift:.3f} > {bound}"
                    )
    return rows, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    seed = 1
    sets: dict[str, list[list[dict]]] = {w: [] for w in names}
    for k in range(SETS):
        for w in names:
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(w, seed, seconds, False))
                seed += 1
            sets[w].append(runs)
    rows, problems = compare(spec, sets)
    for row in rows:
        cells = "  ".join(
            f"set{k + 1} {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] spread {st['spread']:.3f}"
            for k, st in enumerate(row["sets"])
        )
        print(f"{row['workload']:<10} {row['metric']:<12} bound {row['bound']:<5} {cells}")

    traced = {}
    for w in names:
        runs = [run_once(w, seed + i, seconds, True) for i in range(TRACE_RUNS)]
        seed += TRACE_RUNS
        layer = {m: statistics.median(r["metrics"][m]["value"] for r in runs) for m in runs[0]["metrics"]}
        untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in sets[w][0])
        traced[w] = {"layers": layer, "overhead_s": layer["trace.wall_s"] - untraced}
        print(f"{w}: tracing overhead {traced[w]['overhead_s']:+.4f} s on wall_s {untraced:.4f} s")
        for m, v in layer.items():
            print(f"  {m:<36} {v:.6g}")

    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"rows": rows, "problems": problems, "traced": traced, "sets": sets}, indent=1))
    for p in problems:
        print(f"NOT STEADY: {p}")
    if not problems:
        print("steady: every end-to-end metric within its bound")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
