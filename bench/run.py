"""Benchmark for cfk: one workload, one closed loop with a single caller.

    python3 bench/run.py --workload paper_reports --seed 1 --seconds 30 --trace 0

cfk is imported from the src/ of the checkout that holds this file.  The
run sets up (imports cfk and prepares the seeded inputs, several times),
runs whole rounds of the workload's jobs, one job per knot of the pool in
each round, until --seconds have passed, checks every output against values
computed apart from cfk's engine, and prints one JSON line.  Job times are
scaled to a reference speed of the machine, measured next to each job (see
README.md, "Steadiness and bounds").  With --trace 0 the line holds the
end-to-end metrics; with --trace 1 the layer functions are wrapped from
the outside, the line holds per-job layer metrics, and the spans go to
bench/work/trace-<workload>-s<seed>.jsonl.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

# Set-up runs this often before the timed part and again after it, so that
# its median spans two moments of a machine whose speed drifts.  The count
# is fixed because each fresh import of cfk leaves some memory behind.
SETUP_REPEATS = 7
# Every run times each job at least this often.
MIN_ROUNDS = 3
# The machine's speed drifts by up to half again over minutes, for every
# process alike.  A fixed pure-Python loop that builds and scans a dict of
# tuple keys, as cfk's algebra does, runs before each job and each set-up,
# and their times are scaled by REFERENCE_S / the loop's time: each is its
# time at the speed at which the loop takes REFERENCE_S, about its best on
# a 2-core Xeon VM under Python 3.11.
REFERENCE_KEYS = 20_000
REFERENCE_PASSES = 4
REFERENCE_S = 0.0145


def import_cfk():
    """A fresh import of cfk and of every module it loads."""
    for name in [n for n in sys.modules if n == "cfk" or n.startswith("cfk.")]:
        del sys.modules[name]
    importlib.import_module("cfk.cli")
    importlib.import_module("cfk.oracle")
    return sys.modules["cfk"]


def reference() -> float:
    """Wall time of the fixed reference loop."""
    start = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        table = {}
        for i in range(REFERENCE_KEYS):
            table[i * 7919 % 4000, i & 15] = i
        total = 0
        for key, value in table.items():
            total ^= value + key[1]
    return time.perf_counter() - start


def set_up(workload, seed: int, workdir: Path):
    """Import cfk and prepare the inputs SETUP_REPEATS times, each after the
    reference loop; returns the last import, its pool and the set-up times
    at the reference speed."""
    times: list[float] = []
    for _ in range(SETUP_REPEATS):
        ref = reference()
        start = time.perf_counter()
        cfk = import_cfk()
        items = workload.pool(random.Random(seed), workdir, cfk)
        times.append((time.perf_counter() - start) * REFERENCE_S / ref)
    return cfk, items, times


def timed_loop(workload, cfk, items, seconds: float, min_rounds: int = MIN_ROUNDS, tracer=None):
    """Whole rounds over the pool, each running every item's job once,
    until `seconds` have passed and min_rounds are done.  Returns the times
    of each item's job and of the reference loop run just before it, one
    per round, the wall time of the loop, and how often each item ran with
    each distinct output: {item index: [[outputs, count], ...]}."""
    job_times: list[list[float]] = [[] for _ in items]
    ref_times: list[list[float]] = [[] for _ in items]
    seen: dict[int, list[list]] = {idx: [] for idx in range(len(items))}
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for idx, item in enumerate(items):
            ref_times[idx].append(reference())
            t0 = time.perf_counter()
            if tracer is None:
                out = workload.run(cfk, item)
            else:
                out = tracer.span(tracing.JOB, workload.run, cfk, item)
            job_times[idx].append(time.perf_counter() - t0)
            for entry in seen[idx]:
                if entry[0] == out:
                    entry[1] += 1
                    break
            else:
                seen[idx].append([out, 1])
        rounds += 1
    return job_times, ref_times, time.perf_counter() - start, seen


def check(workload, cfk, items, seen) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and the problems found in the
    outputs of the operations that did not fail."""
    attempted = failed = 0
    problems: list[str] = []

    def tally(verdicts, repeat: int, label: str) -> None:
        nonlocal attempted, failed
        for op_failed, op_problems in verdicts:
            attempted += repeat
            failed += repeat * op_failed
            problems.extend(f"{label}: {p}" for p in op_problems[:3])

    for idx, item in enumerate(items):
        for out, count in seen[idx]:
            tally(workload.check(cfk, item, out), count, item.knot.expr)
    tally(workload.extra(cfk), 1, "extra")
    return attempted, failed, problems


def scaled_times(job_times: list[list[float]], ref_times: list[list[float]]) -> list[float]:
    """Each job's time at the reference speed, over all its rounds."""
    return [REFERENCE_S * sum(jobs) / sum(refs) for jobs, refs in zip(job_times, ref_times)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cfk" / "__init__.py").is_file():
        print(f"error: no cfk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"

    try:
        cfk, items, setup_times = set_up(workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            job_times, ref_times, wall, seen = timed_loop(workload, cfk, items, args.seconds,
                                                          tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, problems = check(workload, cfk, items, seen)
        if tracer is None:
            setup_times += set_up(workload, args.seed, workdir)[2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    scaled = scaled_times(job_times, ref_times)
    if tracer is not None:
        tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
        values = tracer.metrics()
        values["traced.job_p50_s"] = median(scaled)
        metrics = {name: {"value": value, "unit": tracing.METRICS[name][0]}
                   for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "jobs_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "job_p50_s": {"value": median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    speed = REFERENCE_S * sum(map(len, ref_times)) / sum(map(sum, ref_times))
    print(f"{args.workload} seed {args.seed}: {len(job_times[0])} rounds of {len(scaled)} jobs "
          f"in {wall:.1f} s; the reference loop ran at {speed:.2f} of its reference speed",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
