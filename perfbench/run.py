"""Run one recdiv benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; recdiv is imported from
``src/``.  One process runs the workload, with no threads: it runs whole
rounds of the workload's CLI jobs in process until ``--seconds`` of job
time have passed, checks every job's output outside the timed region,
and times the set-up of fresh interpreters before and after the jobs.
With ``--trace 1`` recdiv's layers are wrapped in spans and the
per-layer metrics are printed instead of the end-to-end ones; the spans
go to
``.perfbench/trace-<workload>-<seed>.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MiB"),
)

_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import recdiv.cli\n"
    "recdiv.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def import_recdiv():
    """Import recdiv from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "recdiv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no recdiv sources under {src}")
    sys.path.insert(0, str(src))
    import recdiv.cli

    if not Path(recdiv.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: recdiv imported from {recdiv.cli.__file__}, not {src}")
    return recdiv.cli


def setup_seconds(samples: int) -> list[float]:
    """Times for ``samples`` fresh interpreters to import recdiv and build the CLI parser."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CHILD, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def invoke(cli, call: workloads.Call) -> workloads.Outcome:
    err = io.StringIO()
    if call.out is None:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(call.argv)
        return workloads.Outcome(code, out.getvalue(), err.getvalue())
    with open(call.out, "w", encoding="ascii") as fh, redirect_stdout(fh), redirect_stderr(err):
        code = cli.main(call.argv)
    return workloads.Outcome(code, "", err.getvalue())


def run_workload(name, seed, seconds, trace, sizes=workloads.FULL, setup_samples=20):
    """Run one workload; returns the result object that ``main`` prints.

    ``setup_s`` is the median of ``setup_samples`` interpreter starts before
    the jobs and as many after them: one start takes about 30 ms, and the
    host's speed drifts over tens of seconds, so one block of starts would
    sample a single moment of it.  The first start of all compiles bytecode
    and fills the file cache, so it is not counted.
    """
    cli = import_recdiv()
    WORK.mkdir(exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    jobs = workloads.WORKLOADS[name](rng, sizes, WORK)
    setup = [] if trace else setup_seconds(setup_samples + 1)[1:]
    tracer = spans.Tracer()

    def run(job: workloads.Job):
        """Run a job's calls; returns (seconds, outcomes, stdout bytes)."""
        outcomes, t0 = [], perf_counter()
        for call in job.calls:
            if trace:
                with tracer.span("cli.main"):
                    outcomes.append(invoke(cli, call))
            else:
                outcomes.append(invoke(cli, call))
        elapsed = perf_counter() - t0
        written = sum(len(o.stdout) for o in outcomes)
        written += sum(c.out.stat().st_size for c in job.calls if c.out is not None)
        return elapsed, outcomes, written

    job_times, attempted, failed, wrong, out_bytes, rounds = [], 0, 0, [], 0, 0
    with tracer.installed() if trace else nullcontext():
        while True:
            for job in jobs:
                gc.collect()
                tracer.job = attempted
                elapsed, outcomes, written = run(job)
                tracer.job = None
                attempted += 1
                job_times.append(elapsed)
                out_bytes += written
                codes = [o.code for o in outcomes]
                problem = _checked(job, outcomes)
                if any(codes):
                    failed += 1
                    print(f"perfbench: {job.name} exited {codes}", file=sys.stderr)
                elif problem:
                    failed += 1
                    wrong.append(f"{job.name}: {problem}")
            rounds += 1
            if sum(job_times) >= seconds:
                break
        if trace:
            gc.collect()
            sys.modules["recdiv.sequences"].make_divisor_table(sizes["tabulate_n"])
    if not trace:
        setup += setup_seconds(setup_samples)
    for job in workloads.oeis_checks(ROOT):
        problem = _checked(job, [invoke(cli, call) for call in job.calls])
        if problem:
            wrong.append(f"{job.name}: {problem}")
    for line in wrong:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)

    if trace:
        tracer.write(WORK / f"trace-{name}-{seed}.jsonl")
        values = spans.layer_metrics(tracer.spans, rounds, sum(job_times), out_bytes)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in spans.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(job_times) / rounds,
            "job_s.p50": statistics.median(job_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def _checked(job, outcomes) -> str | None:
    try:
        return job.check(outcomes)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"check raised {exc!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
