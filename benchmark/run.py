"""dnachannel benchmark: Monte Carlo throughput, set-up time and peak memory.

Run from the repository root:

    python3 benchmark/run.py --workload archive-m4096 --seed 1 --seconds 20 --trace 0

Every measurement runs in fresh single-threaded Python processes
(``workers=1``, ``DNACHANNEL_WORKERS`` cleared) that import the package from
``src``.  A run spreads its --seconds over several processes, because one
process's speed depends on its memory layout, and pools their batches.

--trace 0  end-to-end metrics, tracing off: ``trials_per_s`` (batch rate
           reached by 80 % of batches, JSONL serialisation included; see
           ``pooled_rate``), ``setup_s`` (median over the
           processes of import + workload build + one warm-up trial) and
           ``peak_rss_mb`` (median ``ru_maxrss`` of the processes).
--trace 1  per-layer metrics (see ``layers.py``): untraced and traced
           processes alternate on the same batches; then the Reed-Solomon
           scaling series.

Correctness gates, all required for ``"correct": true``: every batch verdict
is PASS; no trial came back empty (``trials_failed`` = 0); the JSONL of a
fixed reference run matches the digest pinned in ``digests.json``
(``output_digest_match``); noise-free roundtrips on --seed inputs return
the message sent; and traced batches give the same JSONL bytes as untraced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median, quantiles

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 5  # untraced processes per --trace 0 run
TRACE_PAIRS = 3  # (untraced, traced) process pairs per --trace 1 run
BATCH_STRIDE = 100_000  # batch-index offset between processes
CHILD_TIMEOUT_S = 120
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """Package from this checkout, one thread, same str hashing every process."""
    env = {k: v for k, v in os.environ.items() if k != "DNACHANNEL_WORKERS"}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, index: int, seconds: float, traced=False, check=False) -> dict:
    out_path = os.path.join(WORK_DIR, f"{os.getpid()}.{index}.{int(traced)}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--first-batch", str(index * BATCH_STRIDE),
           "--out", out_path]
    cmd += ["--traced"] * traced + ["--check"] * check
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled_rate(results) -> float:
    """Batch rate that 80 % of the pooled batches reach or beat.

    On a shared host the batch rate is bimodal (a steady base mode and
    bursts of ~1.5x when neighbours idle), so the median jumps between modes
    from run to run; the 20th percentile stays in the base mode.
    """
    rates = [r for res in results for r in res["rates"]]
    return quantiles(rates, n=5)[0] if len(rates) > 1 else rates[0]


def end_to_end(args) -> tuple[list, dict, bool]:
    results = [run_child(args, i, args.seconds / PROCESSES, check=i == PROCESSES - 1)
               for i in range(PROCESSES)]
    values = {
        "trials_per_s": pooled_rate(results),
        "setup_s": median(r["setup_s"] for r in results),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return results, metrics, True


def per_layer(args) -> tuple[list, dict, bool]:
    seconds = args.seconds / (2 * TRACE_PAIRS)
    plain, traced = [], []
    for i in range(TRACE_PAIRS):
        last = i == TRACE_PAIRS - 1
        plain.append(run_child(args, i, seconds, check=last))
        traced.append(run_child(args, i, seconds, traced=True, check=last))
    same = all(
        p["batch_digests"][:n] == t["batch_digests"][:n]
        for p, t in zip(plain, traced)
        for n in [min(len(p["batch_digests"]), len(t["batch_digests"]))]
    )
    self_s, counts = {}, {}
    for res in traced:
        for total, part in ((self_s, res["self_s"]), (counts, res["counts"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    values = layers.layer_metrics(self_s, counts, sum(t["attempted"] for t in traced))
    values["trace_overhead_ratio"] = pooled_rate(traced) / pooled_rate(plain)
    values.update(traced[-1]["scaling"])
    metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
    return plain + traced, metrics, same


def git_sha() -> str | None:
    """Commit of the checkout when it is a git work tree, read from .git only."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_pinned() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    pinned = load_pinned()
    ap.add_argument("--workload", required=True, choices=sorted(pinned))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "dnachannel", "__init__.py")):
        print("error: run from the repository root; src/dnachannel not found",
              file=sys.stderr)
        return 2
    expected_digest = pinned[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        results, metrics, trace_same = (per_layer if args.trace else end_to_end)(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    checked = [r for r in results if "reference_digest" in r]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digest_match = all(r["reference_digest"] == expected_digest for r in checked)
    gates = {
        "verdicts_pass": all(r["all_pass"] for r in results),
        "trials_failed_zero": failed == 0,
        "output_digest_match": digest_match,
        "reference_run_pass": all(r["reference_ok"] for r in checked),
        "roundtrip_messages_match": all(r["roundtrip_ok"] for r in checked),
        "trace_preserves_output": trace_same,
    }
    env = {
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": args.seed,
    }
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {len(results)} processes, "
          f"batches {[len(r['rates']) for r in results]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"trials_failed = {failed} count (of {attempted} attempted)")
    if not digest_match:
        got = sorted({r["reference_digest"] for r in checked})
        print(f"reference digest {got} != pinned {expected_digest}")
    for name, ok in gates.items():
        print(f"{name} = {str(ok).lower()}")
    correct = all(gates.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
