"""Write ``BENCH_<PR>.json``: the environment, end-to-end figures and
per-layer timings of this checkout, so that runs compare across changes.

Run from anywhere:

    python3 tools/bench.py --pr 26                     # BENCH_26.json at the repo root
    python3 tools/bench.py --pr 26 --against HEAD~1    # plus that revision's layers
    python3 tools/bench.py --quick --out bench.json    # smoke run, under a minute

The file holds three sections:

``env``
    python, numpy, the BLAS numpy was built with, nproc, CPU model, the git
    sha and whether the work tree had uncommitted changes (``dirty``).
``end_to_end``
    ``workloads``: each ``benchmark/run.py --trace 0`` workload at seed 1,
    its three metrics and its gates.  ``presets``: each ``--strict`` CLI
    preset's wall time in fresh processes, interpreter start included, min
    and median in seconds.  ``tier1``: wall time, exit code and summary line
    of the tier-1 test run (null with --quick).
``layers``
    ``sample_counts``: for each sampling kind and M, the min and median time
    of one call in ms, over repeats of a timeit loop on a fixed-seed
    generator.  Every (kind, M) is timed in a fresh process with the
    benchmark's child environment (one BLAS thread, fixed str hashing).
    With --against, ``against`` holds that revision's sha and the same
    table, its processes alternating with this checkout's.

--quick times M in {256, 1024} only, in shorter loops, runs each workload
for 1 s and each preset once, and skips the tier-1 run.  The exit status is
1 if a workload gate, a preset or the tier-1 run fails.  ``benchmark/`` is
run and imported, never changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")

LAYER_M = (256, 1024, 4096, 16384, 65536)
QUICK_M = (256, 1024)
LAYER_SEED = 2026
# Per-call timings: a timeit loop runs at least this long, and is repeated.
FULL_TIMING = {"repeats": 7, "loop_s": 0.2}
QUICK_TIMING = {"repeats": 3, "loop_s": 0.01}
WORKLOAD_SEED = 1
# What the ``dnachannel`` console script runs.
CLI = "import sys; from dnachannel.cli import main; sys.exit(main())"


def sampling_specs() -> dict:
    """One spec per sampling kind, at the preset or workload that uses it."""
    from dnachannel.channel import SamplingSpec

    return {
        "bernoulli": SamplingSpec.bernoulli(0.05),  # m256-bern
        "poisson": SamplingSpec.poisson(1.0),  # short-l4-m64
        "poisson_pcr": SamplingSpec.poisson_pcr(20.0, 5.0),  # deep-pcr-m256
        "custom": SamplingSpec.custom([0.2, 0.3, 0.3, 0.2]),
    }


def time_sample_counts(kind: str, M: int, repeats: int, loop_s: float) -> dict:
    """Per-call time of ``sample_counts`` for one kind at one M, in ms."""
    import numpy as np

    from dnachannel.channel import sample_counts

    spec = sampling_specs()[kind]
    rng = np.random.Generator(np.random.Philox(LAYER_SEED))
    timer = timeit.Timer(lambda: sample_counts(spec, M, rng))
    number = 1
    while timer.timeit(number) < loop_s:
        number *= 2
    ms = [t / number * 1e3 for t in timer.repeat(repeats, number)]
    return {"min_ms": min(ms), "median_ms": median(ms), "number": number}


def layer_table(ms, timing: dict) -> dict:
    """{kind: {str(M): timing}}, every kind at every M, timed in this process."""
    return {kind: {str(M): time_sample_counts(kind, M, **timing) for M in ms}
            for kind in sampling_specs()}


def bench_run():
    """``benchmark/run.py`` as a module."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import run

    return run


def child_env(src: str) -> dict:
    """``benchmark/run.py``'s child environment, importing the package from ``src``."""
    return dict(bench_run().child_env(), PYTHONPATH=src)


def fresh_layers(ms, timing: dict, srcs: list[str]) -> list[dict]:
    """One layer table per source tree, each (kind, M) in a fresh process,
    the trees alternating."""
    tables = [{kind: {} for kind in sampling_specs()} for _ in srcs]
    for kind in sampling_specs():
        for M in ms:
            for src, table in zip(srcs, tables):
                cmd = [sys.executable, os.path.abspath(__file__), "--layer", kind, str(M),
                       json.dumps(timing)]
                out = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                                     check=True)
                table[kind][str(M)] = json.loads(out.stdout)
    return tables


def workload_run(name: str, seconds: float) -> dict:
    """One ``benchmark/run.py --trace 0`` run: its metrics and gates."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", name,
           "--seed", str(WORKLOAD_SEED), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    gates = dict(re.findall(r"^(\w+) = (true|false)$", out.stdout, re.M))
    return {"seconds": seconds, "exit_code": out.returncode, "correct": last["correct"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "gates": {k: v == "true" for k, v in gates.items()}}


def preset_times(runs: int) -> dict:
    """Wall time of each ``--strict`` preset, ``runs`` fresh processes each."""
    from dnachannel.cli import RT_PRESET_NAMES, SIM_PRESET_NAMES

    env = child_env(os.path.join(ROOT, "src"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, names in (("simulate", SIM_PRESET_NAMES), ("roundtrip", RT_PRESET_NAMES)):
            for name in names:
                walls, passed = [], True
                for _ in range(runs):
                    cmd = [sys.executable, "-c", CLI, command, "--preset", name,
                           "--strict", "--out", os.path.join(tmp, "out.jsonl")]
                    t0 = time.perf_counter()
                    proc = subprocess.run(cmd, env=env, capture_output=True)
                    walls.append(time.perf_counter() - t0)
                    passed &= proc.returncode == 0
                out[name] = {"min_s": min(walls), "median_s": median(walls), "runs": runs,
                             "passed": passed}
    return out


def tier1() -> dict:
    """Wall time and outcome of the tier-1 test run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.decode()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu": bench_run().cpu_model(),
        "git_sha": (git("rev-parse", "HEAD") or "").strip() or None,
        "dirty": None if status is None else bool(status.strip()),
    }


def export_src(rev: str, into: str) -> str:
    """``src`` of a git revision, extracted under ``into``; its sha."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    if sha is None:
        raise SystemExit(f"error: not a revision: {rev}")
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha.strip(), "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into, filter="data")
    return sha.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--pr", type=int, help="write BENCH_<PR>.json at the repo root")
    ap.add_argument("--out", help="write here instead")
    ap.add_argument("--quick", action="store_true", help="smoke-sized run")
    ap.add_argument("--against", metavar="REV", help="also time this revision's layers")
    ap.add_argument("--layer", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.layer:
        kind, M, timing = args.layer
        print(json.dumps(time_sample_counts(kind, int(M), **json.loads(timing))))
        return 0
    if args.out is None and args.pr is None:
        ap.error("give --pr or --out")
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(BENCH, "digests.json")) as fh:
        names = sorted(json.load(fh))

    ms, timing = (QUICK_M, QUICK_TIMING) if args.quick else (LAYER_M, FULL_TIMING)
    result = {"pr": args.pr, "quick": args.quick, "env": environment()}
    result["end_to_end"] = {
        "workloads": {n: workload_run(n, 1.0 if args.quick else 8.0) for n in names},
        "presets": preset_times(1 if args.quick else 3),
        "tier1": None if args.quick else tier1(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [os.path.join(ROOT, "src")]
        sha = args.against and export_src(args.against, tmp)
        if sha:
            srcs.append(os.path.join(tmp, "src"))
        tables = fresh_layers(ms, timing, srcs)
    result["layers"] = {"timing": timing, "sample_counts": tables[0]}
    if sha:
        result["layers"]["against"] = {"git_sha": sha, "sample_counts": tables[1]}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    e2e = result["end_to_end"]
    ok = (all(w["correct"] for w in e2e["workloads"].values())
          and all(p["passed"] for p in e2e["presets"].values())
          and (e2e["tier1"] is None or e2e["tier1"]["exit_code"] == 0))
    print(f"wrote {out_path}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
