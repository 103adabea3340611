"""Write ``BENCH_<PR>.json``: the environment, end-to-end figures, page-fault
loops and per-layer timings of this checkout, so that runs compare across
changes.

Run from anywhere:

    python3 tools/bench.py --pr 27                     # BENCH_27.json at the repo root
    python3 tools/bench.py --pr 27 --against HEAD~1    # plus that revision's layers
    python3 tools/bench.py --quick --out bench.json    # smoke run, under a minute

The file holds three sections:

``env``
    python, numpy, the BLAS numpy was built with, nproc, CPU model, the git
    sha and whether the work tree had uncommitted changes (``dirty``).
``end_to_end``
    ``workloads``: each ``benchmark/run.py --trace 0`` workload at seed 1,
    its three metrics and its gates; a run is ``correct`` only if it printed
    exactly the six gates of ``benchmark/run.py``, each true, and its last
    line says so.
    ``presets``: each ``--strict`` CLI preset's wall time in fresh
    processes, interpreter start included, min and median in seconds.
    ``tier1``: wall time, exit code and summary line of the tier-1 test run
    (null with --quick).  ``faults``: per workload, minor page faults per
    batch in two steady-state loops.  Loop A counts
    ``ru_minflt`` over 500 batches after 20 warm-up ones; loop B over
    ``worker.timed_batches`` for 4 s after one warm-up trial, as one
    benchmark process does.  Each loop stores ``faults_per_batch``,
    ``batches`` and its process's ``peak_rss_mb`` (``ru_maxrss``).
``layers``
    One call's time in ms, per layer, case and M: ``sample_counts`` for
    each sampling kind, ``apply_noise`` at p = 0.01 and 0.05 on an (M, 48)
    all-zero block passed as a zero-stride view, and ``rs_encode``:
    ``ReedSolomonErasure.encode`` of 1 and of 64 interleaved codewords of
    the (M, round(M * 3600 / 4096), log2 M) code of ``benchmark/worker.py``'s
    scaling series, at M in {256, 4096, 65536} only.  Each cell runs in 3
    fresh processes, each timing the median of repeats of a timeit loop
    on a fixed-seed Philox generator.  A cell holds those per-process
    medians (``medians_ms``), their min, median and interquartile range
    (``iqr_ms``).  The processes import a copy of this checkout's ``src``
    under a temporary directory.  With --against, ``against`` holds that
    revision's sha, the same tables (its processes alternating with this
    checkout's, its ``src`` exported beside the copy under a name of the
    same length, so both trees are laid out alike), and under ``ratio`` per
    layer and cell the ratio of its median to this checkout's (above 1
    where this checkout is faster).

Each fault loop and layer cell runs in a fresh interpreter with the
benchmark's child environment (one BLAS thread, fixed str hashing), since
a fault count depends on the exact order of allocations in the process.

--quick times M in {256, 1024} only (rs_encode M = 256), in shorter loops,
runs each workload for 1 s and each preset once, runs the fault loops with
1 warm-up and 2 counted batches and loop B for 0.5 s, and skips the tier-1
run.  The exit status is 1 if a workload gate, a preset, a fault loop or
the tier-1 run fails.  ``benchmark/`` is run and imported, never changed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")
SRC = os.path.join(ROOT, "src")

# Sizes of a full and a --quick run: the M of each layer's cells, and a
# layer's timeit loop, which runs at least loop_s and is repeated.
SERIES = (256, 1024, 4096, 16384, 65536)
FULL = {"ms": {"sample_counts": SERIES, "apply_noise": SERIES, "rs_encode": (256, 4096, 65536)},
        "timing": {"repeats": 5, "loop_s": 0.2},
        "faults": {"warmup": 20, "batches": 500, "seconds": 4.0},
        "workload_s": 8.0, "preset_runs": 3}
QUICK = {"ms": {"sample_counts": (256, 1024), "apply_noise": (256, 1024), "rs_encode": (256,)},
         "timing": {"repeats": 3, "loop_s": 0.01},
         "faults": {"warmup": 1, "batches": 2, "seconds": 0.5},
         "workload_s": 1.0, "preset_runs": 1}
PROCESSES = 3  # per layer cell and source tree
LAYER_SEED = 2026
# apply_noise's crossover probabilities and read length (deep-pcr-m256's L).
NOISE_PS = ["0.01", "0.05"]
NOISE_READ_LEN = 48
# rs_encode's column counts: one codeword, and a block of interleaved ones.
RS_COLUMNS = ["1", "64"]
WORKLOAD_SEED = 1
# The gate lines benchmark/run.py prints; a run missing any is not correct.
GATES = ("verdicts_pass", "trials_failed_zero", "output_digest_match",
         "reference_run_pass", "roundtrip_messages_match", "trace_preserves_output")
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


def layer_cases() -> dict:
    """Each timed layer's cases: sampling kinds, crossover probabilities and
    column counts."""
    return {"sample_counts": list(sampling_specs()), "apply_noise": NOISE_PS,
            "rs_encode": RS_COLUMNS}


def layer_call(layer: str, case: str, M: int):
    """The call ``time_layer`` times: ``layer`` for ``case`` at M, on a
    fixed-seed generator."""
    import numpy as np

    from dnachannel.channel import apply_noise, sample_counts
    from dnachannel.gf import ReedSolomonErasure

    rng = np.random.Generator(np.random.Philox(LAYER_SEED))
    if layer == "sample_counts":
        spec = sampling_specs()[case]
        return lambda: sample_counts(spec, M, rng)
    if layer == "rs_encode":  # the code of benchmark/worker.py's scaling series
        w = M.bit_length() - 1
        rs = ReedSolomonErasure(M, round(M * 3600 / 4096), w)
        data = rng.integers(0, 1 << w, size=(rs.k, int(case)))
        return lambda: rs.encode(data)
    # All-zero reads as a zero-stride view, as channel.transmit_draws passes them.
    zeros = np.broadcast_to(np.uint8(0), (M, NOISE_READ_LEN))
    return lambda: apply_noise(zeros, float(case), rng)


def time_layer(layer: str, case: str, M: int, repeats: int, loop_s: float) -> dict:
    """Per-call time of one ``layer_call`` in ms."""
    timer = timeit.Timer(layer_call(layer, case, M))
    number = 1
    while timer.timeit(number) < loop_s:
        number *= 2
    return {"median_ms": median(timer.repeat(repeats, number)) / number * 1e3}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fault_loop(workload: str, loop: str, warmup: int, batches: int, seconds: float) -> dict:
    """Minor faults per batch of one workload in steady-state loop A or B."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(workload, os.path.join(tmp, "out.jsonl"))
        if loop == "A":
            for b in range(warmup):
                wl.run_batch(wl.batch_trials, workloads.batch_seed(WORKLOAD_SEED, b))
            start = minflt()
            for b in range(warmup, warmup + batches):
                wl.run_batch(wl.batch_trials, workloads.batch_seed(WORKLOAD_SEED, b))
        else:
            import worker

            wl.run_batch(1, workloads.batch_seed(WORKLOAD_SEED, -1))
            start = minflt()
            batches = len(worker.timed_batches(wl, WORKLOAD_SEED, 0, seconds)["rates"])
        faults = minflt() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"faults_per_batch": faults / batches, "batches": batches, "peak_rss_mb": peak_mb}


def child(task: dict) -> dict:
    """One fresh process's measurement: a fault loop or a layer cell."""
    return fault_loop(**task) if "loop" in task else time_layer(**task)


def bench_run():
    """``benchmark/run.py`` as a module."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import run

    return run


def child_env(src: str) -> dict:
    """``benchmark/run.py``'s child environment, with ``src`` and ``benchmark/`` on the path."""
    return dict(bench_run().child_env(), PYTHONPATH=os.pathsep.join([src, BENCH]))


def fresh(task: dict, src: str) -> dict:
    """``child(task)`` in a fresh interpreter that imports the package from ``src``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", json.dumps(task)]
    out = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: {json.dumps(task)} exited {out.returncode}")
    return json.loads(out.stdout)


def fault_loops(names, sizes: dict, measure=fresh) -> dict:
    """{workload: {loop: counts}}, each loop in its own fresh process."""
    return {name: {loop: measure(dict(workload=name, loop=loop, **sizes), SRC)
                   for loop in ("A", "B")}
            for name in names}


def layer_cell(runs: list[dict]) -> dict:
    """A layer cell from its processes' timings."""
    ms = sorted(r["median_ms"] for r in runs)
    q1, _, q3 = quantiles(ms, n=4, method="inclusive")
    return {"min_ms": ms[0], "median_ms": median(ms), "iqr_ms": q3 - q1, "medians_ms": ms}


def fresh_layers(ms: dict, timing: dict, srcs: list[str], measure=fresh) -> list[dict]:
    """One {layer: {case: {M: cell}}} table per source tree, at the M of
    ``ms[layer]``; each cell in PROCESSES fresh processes per tree, the
    trees alternating."""
    tables = [{layer: {case: {} for case in cases} for layer, cases in layer_cases().items()}
              for _ in srcs]
    for layer, cases in layer_cases().items():
        for case, M in itertools.product(cases, ms[layer]):
            runs = [[] for _ in srcs]
            for _ in range(PROCESSES):
                for src, side in zip(srcs, runs):
                    side.append(measure(dict(layer=layer, case=case, M=M, **timing), src))
            for table, side in zip(tables, runs):
                table[layer][case][str(M)] = layer_cell(side)
    return tables


def ratios(against: dict, this: dict) -> dict:
    """Per cell, ``against``'s median time over ``this``'s."""
    return {layer: {case: {M: against[layer][case][M]["median_ms"] / cell["median_ms"]
                           for M, cell in by_m.items()}
                    for case, by_m in by_case.items()}
            for layer, by_case in this.items()}


def workload_outcome(stdout: str) -> dict:
    """``correct``, ``metrics`` and ``gates`` of one ``benchmark/run.py`` output.

    Correct only if its ``name = true|false`` gate lines name exactly
    ``GATES``, every one is true, and its last line is a JSON object saying
    ``"correct": true``.
    """
    gates = {k: v == "true" for k, v in re.findall(r"^(\w+) = (true|false)$", stdout, re.M)}
    try:
        last = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # no output, or a last line that is not JSON
        last = {}
    return {"correct": set(gates) == set(GATES) and all(gates.values())
            and last.get("correct") is True,
            "metrics": {k: m["value"] for k, m in last.get("metrics", {}).items()},
            "gates": gates}


def workload_run(name: str, seconds: float) -> dict:
    """One ``benchmark/run.py --trace 0`` run: its metrics and gates."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", name,
           "--seed", str(WORKLOAD_SEED), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return {"seconds": seconds, "exit_code": out.returncode, **workload_outcome(out.stdout)}


def preset_times(runs: int) -> dict:
    """Wall time of each ``--strict`` preset, ``runs`` fresh processes each."""
    from dnachannel.cli import RT_PRESET_NAMES, SIM_PRESET_NAMES

    env = child_env(SRC)
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
    env = dict(os.environ, PYTHONPATH=SRC)
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


def copy_src(into: str) -> str:
    """This checkout's ``src``, copied under ``into`` without bytecode; its path."""
    return shutil.copytree(SRC, os.path.join(into, "src"),
                           ignore=shutil.ignore_patterns("__pycache__"))


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
    ap.add_argument("--child", type=json.loads, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    if args.out is None and args.pr is None:
        ap.error("give --pr or --out")
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    sys.path.insert(0, SRC)
    with open(os.path.join(BENCH, "digests.json")) as fh:
        names = sorted(json.load(fh))

    size = QUICK if args.quick else FULL
    result = {"pr": args.pr, "quick": args.quick, "env": environment()}
    result["end_to_end"] = {
        "workloads": {n: workload_run(n, size["workload_s"]) for n in names},
        "presets": preset_times(size["preset_runs"]),
        "tier1": None if args.quick else tier1(),
        "faults": fault_loops(names, size["faults"]),
    }
    # Both trees sit at the same depth under names of the same length.
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [copy_src(os.path.join(tmp, "this"))]
        sha = args.against and export_src(args.against, os.path.join(tmp, "base"))
        if sha:
            srcs.append(os.path.join(tmp, "base", "src"))
        tables = fresh_layers(size["ms"], size["timing"], srcs)
    result["layers"] = {"timing": size["timing"], "processes": PROCESSES, **tables[0]}
    if sha:
        result["layers"]["against"] = {"git_sha": sha, **tables[1],
                                       "ratio": ratios(tables[1], tables[0])}
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
