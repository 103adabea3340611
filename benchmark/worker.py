"""One benchmark process: set up one workload, then time batches of it.

Started by ``run.py`` in a fresh single-threaded interpreter with ``src`` on
the path.  Prints one JSON object as its last line of standard output.

Set-up (reported as ``setup_s``) is the package import, the workload build
and one warm-up trial on a separate seed.  Then batches run for --seconds
(traced when --traced), and with --check the correctness checks follow,
plus the Reed-Solomon scaling series when traced.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from dnachannel import gf  # noqa: E402

SCALING_M = (256, 1024, 4096)


def timed_batches(workload, seed: int, first_batch: int, seconds: float) -> dict:
    """Run batches until ``seconds`` have passed; rate and gate per batch."""
    rates, digests = [], []
    attempted = failed = 0
    all_pass = True
    start = time.perf_counter()
    b = first_batch
    while b == first_batch or time.perf_counter() - start < seconds:
        trials = workload.batch_trials
        t0 = time.perf_counter()
        digest, verdict, summarised = workload.run_batch(trials, workloads.batch_seed(seed, b))
        rates.append(trials / (time.perf_counter() - t0))
        digests.append(digest)
        all_pass &= verdict == "PASS"
        attempted += trials
        failed += trials - summarised
        b += 1
    return {"rates": rates, "batch_digests": digests, "attempted": attempted,
            "failed": failed, "all_pass": all_pass}


def scaling_series(seed: int) -> dict:
    """RS construction and erasure-decode time, and construction peak memory."""
    out = {}
    rng = np.random.default_rng([seed, 7])
    for M in SCALING_M:
        w = M.bit_length() - 1
        k = round(M * 3600 / 4096)
        reps = 3 if M >= 4096 else 7
        init_s = []
        for _ in range(reps):
            t0 = time.perf_counter()
            rs = gf.ReedSolomonErasure(M, k, w)
            init_s.append(time.perf_counter() - t0)
        data = rng.integers(0, 1 << w, size=k)
        codeword = rs.encode(data)
        erased = np.zeros(M, dtype=bool)
        erased[rng.choice(M, size=round(0.05 * M), replace=False)] = True
        decode_s = []
        for _ in range(reps):
            t0 = time.perf_counter()
            got = rs.decode_erasures(np.where(erased, 0, codeword), erased)
            decode_s.append(time.perf_counter() - t0)
            if not np.array_equal(got, data):
                raise RuntimeError(f"RS erasure decode wrong at M={M}")
        del rs
        tracemalloc.start()
        gf.ReedSolomonErasure(M, k, w)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[f"gf.rs_init_ms.m{M}"] = 1000.0 * median(init_s)
        out[f"gf.rs_decode_ms.m{M}"] = 1000.0 * median(decode_s)
        out[f"gf.rs_init_peak_mb.m{M}"] = peak / 2**20
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-batch", type=int, required=True)
    ap.add_argument("--out", required=True, help="scratch file for CLI output")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()

    workload = workloads.build(args.workload, args.out)
    workload.run_batch(1, workloads.batch_seed(args.seed, -1))
    result = {"setup_s": time.perf_counter() - _T0, "numpy": np.__version__}

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result.update(timed_batches(workload, args.seed, args.first_batch, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
    if args.check:
        # Outside the timed region; still traced when tracing is on.
        digest, verdict, trials = workload.run_batch(
            workload.reference_trials, workloads.REFERENCE_SEED
        )
        result["reference_digest"] = digest
        result["reference_ok"] = verdict == "PASS" and trials == workload.reference_trials
        result["roundtrip_ok"] = workload.check_roundtrip(args.seed)
    if tracer is not None:
        tracer.uninstall()
        if args.check:
            result["scaling"] = scaling_series(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
