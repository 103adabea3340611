"""Steady-state minor page faults per benchmark batch, in two loops, and
each loop's peak memory.

Run from anywhere, ``W`` a workload name from ``benchmark/workloads.py``:

    python3 tools/minflt.py W
    python3 tools/minflt.py W --warmup 2 --batches 20 --seconds 0.5   # smoke

Loop A runs --warmup batches, then counts ``ru_minflt`` over --batches
more.  Loop B counts it over ``worker.timed_batches`` for --seconds after
one warm-up trial, as one benchmark process does.  Each loop runs in its own
fresh interpreter with the benchmark's child environment (one BLAS thread,
``PYTHONHASHSEED=0``), because fault counts depend on the exact order of
allocations in the process.  Next to each count it prints that process's
peak resident set (``ru_maxrss``, in MB as ``benchmark/worker.py`` reports
``peak_rss_mb``), so a memory change can be checked in both loops.
``benchmark/`` is imported, never changed.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")
SEED = 1


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def loop_a(wl, workloads, args) -> float:
    for b in range(args.warmup):
        wl.run_batch(wl.batch_trials, workloads.batch_seed(SEED, b))
    start = minflt()
    for b in range(args.warmup, args.warmup + args.batches):
        wl.run_batch(wl.batch_trials, workloads.batch_seed(SEED, b))
    return (minflt() - start) / args.batches


def loop_b(wl, workloads, args) -> float:
    import worker

    wl.run_batch(1, workloads.batch_seed(SEED, -1))
    start = minflt()
    batches = len(worker.timed_batches(wl, SEED, 0, args.seconds)["rates"])
    return (minflt() - start) / batches


def run_loop(args) -> None:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(args.workload, os.path.join(tmp, "out.jsonl"))
        loop = loop_a if args.loop == "A" else loop_b
        faults = loop(wl, workloads, args)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{faults:.4f} minor faults per batch, peak RSS {peak_mb:.2f} MB")


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("workload", choices=workloads.NAMES)
    ap.add_argument("--warmup", type=int, default=20, help="loop A warm-up batches")
    ap.add_argument("--batches", type=int, default=500, help="loop A counted batches")
    ap.add_argument("--seconds", type=float, default=4.0, help="loop B timed seconds")
    ap.add_argument("--loop", choices=("A", "B"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.loop:
        run_loop(args)
        return 0

    import run

    env = run.child_env()
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH])
    for loop in ("A", "B"):
        cmd = [sys.executable, os.path.abspath(__file__), *sys.argv[1:], "--loop", loop]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        print(f"{args.workload} loop {loop}: {out.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
