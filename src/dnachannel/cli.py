"""Command-line interface.

Subcommands expose the capacity calculators, the channel/codec simulators,
and the sweep generators; simulation results are emitted as JSON lines plus
a summary JSON object, sweeps as CSV.  All commands are deterministic given
their flags and --seed.  Presets bundle the flag settings used by the
acceptance suite so CI can run them under --strict, where a FAIL verdict
or a trial that raised exits with status 1 (invalid flags exit with
status 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import capacity as cap
from .channel import ChannelParams, SamplingSpec
from .codec import CodecConfig, InnerCodeSpec
from .montecarlo import (
    ExperimentSpec,
    ShortMoleculeSuccess,
    rate_vs_capacity_sweep,
    records_to_jsonl,
    region_sweep,
    run,
    tradeoff_sweep,
    write_csv,
)

DEFAULT_SEED = 12345
# Most points a start:stop:step grid may expand to.
MAX_GRID_POINTS = 10**6


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (stop inclusive), 'a,b,c', or a scalar."""
    ranged = ":" in text
    parts = text.split(":" if ranged else ",")
    if ranged and len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if not ranged:
        return values
    start, stop, step = values
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if stop < start:
        raise ValueError(f"grid stop must be >= start, got {text!r}")
    # Checked as a float, before any list is built: stop - start can
    # overflow to +inf even for finite bounds.
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(steps) + 1)]


def _precision(text: str) -> int:
    """--precision: significant digits, at least one."""
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if digits < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {digits}")
    return digits


def _parse_matrix(text: str) -> np.ndarray:
    """Matrix shorthand 'bsc:<p>' or 'file:<path>' (whitespace-separated rows)."""
    if text.startswith("bsc:"):
        p = float(text[4:])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bsc crossover must be in [0, 1], got {p}")
        return np.array([[1.0 - p, p], [p, 1.0 - p]])
    if text.startswith("file:"):
        rows = []
        with open(text[5:]) as fh:
            for line in fh:
                if line.strip():
                    rows.append([float(tok) for tok in line.split()])
        # Checked before np.array, which rejects ragged rows with its own message.
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix file must contain uniform rows")
        return np.array(rows, dtype=float)
    raise ValueError(f"matrix must be 'bsc:<p>' or 'file:<path>', got {text!r}")


# ---------------------------------------------------------------------------
# Presets: the flag bundles the acceptance suite runs under --strict.
# ---------------------------------------------------------------------------

def _sim_presets(seed: int, trials: int | None) -> dict[str, ExperimentSpec]:
    t = lambda default: default if trials is None else trials
    return {
        "q0-poisson1": ExperimentSpec.estimate_q0(
            ChannelParams(M=100_000, beta=2.0, p=0.0,
                          sampling=SamplingSpec.poisson(1.0)),
            t(20), seed, expected=math.exp(-1.0), tolerance=0.005,
        ),
        "q0-bern03": ExperimentSpec.estimate_q0(
            ChannelParams(M=10_000, beta=2.0, p=0.0,
                          sampling=SamplingSpec.bernoulli(0.3)),
            t(10), seed, expected=0.3, tolerance=0.015,
        ),
        "chernoff-l64": ExperimentSpec.chernoff(
            64, 0.05, 0.15, reads_per_trial=10_000, trials=t(10), base_seed=seed,
            bound=cap.chernoff_read_error_bound(64, 0.05, 0.15),
        ),
        "coupon-m1000": ExperimentSpec.coupon_tail(
            1000, 1.0, 0.1, trials=t(10_000), base_seed=seed,
            bound=cap.coupon_tail_bound(1000, 1.0, 0.1),
        ),
    }


def _codec_presets() -> dict[str, CodecConfig]:
    return {
        "m16-identity": CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=12),
        "m16-rep3": CodecConfig(M=16, L=24, inner=InnerCodeSpec.repetition(3), outer_k=12),
        "m256-identity": CodecConfig(M=256, L=16, inner=InnerCodeSpec.identity(), outer_k=230),
    }


def _rt_presets(seed: int, trials: int | None) -> dict[str, ExperimentSpec]:
    t = lambda default: default if trials is None else trials
    codecs = _codec_presets()
    return {
        "m16-clean": ExperimentSpec.decode_success(
            ChannelParams(M=16, beta=2.0, p=0.0, sampling=SamplingSpec.bernoulli(0.0), L=8),
            codecs["m16-identity"], t(100), seed, min_rate=1.0,
        ),
        "m256-bern": ExperimentSpec.decode_success(
            ChannelParams(M=256, beta=2.0, p=0.0, sampling=SamplingSpec.bernoulli(0.05), L=16),
            codecs["m256-identity"], t(1000), seed, min_rate=0.99,
        ),
        "m16-rep3-noisy": ExperimentSpec.decode_success(
            ChannelParams(M=16, beta=6.0, p=0.02, sampling=SamplingSpec.bernoulli(0.0), L=24),
            codecs["m16-rep3"], t(1000), seed, min_rate=0.95,
        ),
        "short-l4-m64": ShortMoleculeSuccess(
            channel=ChannelParams(M=64, beta=4.0 / 6.0, p=0.0,
                                  sampling=SamplingSpec.poisson(1.0), L=4),
            trials=t(10_000), base_seed=seed, min_rate=0.99,
        ),
    }


# The preset builders' keys, in order: the one list of preset names.
SIM_PRESET_NAMES = list(_sim_presets(DEFAULT_SEED, None))
RT_PRESET_NAMES = list(_rt_presets(DEFAULT_SEED, None))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_capacity(args, parser) -> int:
    prec = args.precision
    if args.model == "noise-free":
        q0 = _resolve_q0(args, parser)
        result = cap.noise_free_capacity(q0, args.beta)
    elif args.model == "noisy":
        if args.q is None or args.p is None:
            parser.error("--model noisy requires --q and --p")
        result = cap.noisy_capacity(args.q, args.p, args.beta)
    else:  # sdmc
        if args.matrix is None:
            parser.error("--model sdmc requires --matrix")
        matrix = _parse_matrix(args.matrix)
        result = cap.sdmc_capacity(matrix, args.q or 0.0, args.beta)
    if args.format == "json":
        print(json.dumps({
            "value": result.value,
            "valid": result.valid,
            "condition_margin": result.condition_margin,
        }))
    else:
        print(f"value={_fmt(result.value, prec)}")
        print(f"valid={'true' if result.valid else 'false'}")
        margin = result.condition_margin
        print(f"margin={'n/a' if margin is None else _fmt(margin, prec)}")
    return 0


def _resolve_q0(args, parser) -> float:
    if args.q0 is not None:
        return args.q0
    if args.lam is not None and args.alpha is not None:
        return SamplingSpec.poisson_pcr(args.lam, args.alpha).q0()
    if args.lam is not None:
        return SamplingSpec.poisson(args.lam).q0()
    if args.q is not None:
        return args.q
    parser.error("--model noise-free requires one of --q0, --lambda[, --alpha], --q")


def _cmd_region(args, parser) -> int:
    grid = _parse_grid(args.p_grid)
    kept = [p for p in grid if p < 0.25]
    if not kept:
        raise ValueError(f"region needs a grid point p < 1/4, got {args.p_grid!r}")
    if len(kept) < len(grid):
        print(f"warning: skipped {len(grid) - len(kept)} grid points with p >= 1/4",
              file=sys.stderr)
    rows = region_sweep(kept)
    write_csv(args.out, rows, ["p", "beta_min"])
    return 0


def _cmd_tradeoff(args, parser) -> int:
    prec = args.precision
    if args.cost_ratio is not None:
        lam = cap.optimal_lambda(args.cost_ratio)
        print(f"lambda_opt={_fmt(lam, prec)}")
        if args.beta is not None:
            pt = cap.tradeoff_point(lam, args.beta)
            print(f"rs_max={_fmt(pt.rs_max, prec)}")
            print(f"rr_max={_fmt(pt.rr_max, prec)}")
        return 0
    if args.beta is None:
        parser.error("tradeoff requires --beta (except with --cost-ratio alone)")
    if args.lambda_grid is not None:
        rows = tradeoff_sweep(args.beta, _parse_grid(args.lambda_grid))
        write_csv(args.out, rows, ["lambda", "beta", "rs_max", "rr_max"])
        return 0
    if args.lam is None:
        parser.error("tradeoff requires --lambda, --lambda-grid, or --cost-ratio")
    pt = cap.tradeoff_point(args.lam, args.beta)
    print(f"rs_max={_fmt(pt.rs_max, prec)}")
    print(f"rr_max={_fmt(pt.rr_max, prec)}")
    return 0


def _cmd_experiment(args, parser) -> int:
    # Looked up per call: the parser is built once per process.
    presets = _sim_presets if args.command == "simulate" else _rt_presets
    spec = presets(args.seed, args.trials)[args.preset]
    print(f"seed={args.seed}")
    result = run(spec)
    jsonl = records_to_jsonl(result.records)
    summary_line = json.dumps(result.summary.to_json())
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(jsonl)
            fh.write(summary_line + "\n")
    else:
        sys.stdout.write(jsonl)
    print(summary_line)
    if result.failed:
        print(f"error: {result.failed} of {spec.trials} trials failed; "
              f"first: {result.first_error}", file=sys.stderr)
    if args.strict and (result.summary.verdict == "FAIL" or result.failed):
        return 1
    return 0


def _cmd_sweep(args, parser) -> int:
    cfg = _codec_presets()[args.codec]
    if args.var == "p":
        if args.lam is not None:
            sampling = SamplingSpec.poisson(args.lam)
        else:
            sampling = SamplingSpec.bernoulli(args.q if args.q is not None else 0.0)
    else:
        sampling = None
    grid = _parse_grid(args.grid)
    rows = rate_vs_capacity_sweep(
        var=args.var, values=grid, cfg=cfg, trials=args.trials,
        base_seed=args.seed, beta=args.beta, p=args.p or 0.0, sampling=sampling,
    )
    write_csv(args.out, rows, ["lambda", "beta", "p", "q", "capacity",
                               "achieved_rate", "success_rate"])
    code = 0
    for value, row in zip(grid, rows):
        if row["failed"]:
            print(f"error: {row['failed']} of {args.trials} trials failed at "
                  f"{args.var}={value:g}; first: {row['first_error']}", file=sys.stderr)
            code = 1
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnachannel",
        description="Shuffling-sampling storage channel: capacity calculators, "
                    "channel/codec simulation, and sweep data generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def precision(p):
        p.add_argument("--precision", type=_precision, default=6,
                       help="significant digits for printed numbers (default 6)")

    def seeded(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"base seed (default {DEFAULT_SEED}, printed)")

    pc = sub.add_parser("capacity", help="evaluate a capacity formula")
    pc.add_argument("--model", choices=["noise-free", "noisy", "sdmc"], required=True)
    pc.add_argument("--q0", type=float, help="miss probability (noise-free)")
    pc.add_argument("--q", type=float, help="Bernoulli miss probability")
    pc.add_argument("--p", type=float, help="BSC crossover probability")
    pc.add_argument("--beta", type=float, required=True, help="L / log2(M)")
    pc.add_argument("--lambda", dest="lam", type=float, help="Poisson coverage depth")
    pc.add_argument("--alpha", type=float, help="mean amplification factor")
    pc.add_argument("--matrix", help="DMC matrix: bsc:<p> or file:<path>")
    pc.add_argument("--format", choices=["text", "json"], default="text")
    precision(pc)
    pc.set_defaults(func=_cmd_capacity)

    pr = sub.add_parser("region", help="proven-region boundary as CSV (p, beta_min)")
    pr.add_argument("--p-grid", required=True, help="grid start:stop:step or a,b,c")
    pr.add_argument("--out", help="output CSV path (default stdout)")
    pr.set_defaults(func=_cmd_region)

    pt = sub.add_parser("tradeoff", help="storage/recovery tradeoff points")
    pt.add_argument("--beta", type=float, help="L / log2(M), > 1")
    pt.add_argument("--lambda", dest="lam", type=float, help="coverage depth")
    pt.add_argument("--lambda-grid", help="grid start:stop:step for a CSV trace")
    pt.add_argument("--cost-ratio", type=float,
                    help="synthesis/sequencing cost ratio; prints optimal lambda")
    pt.add_argument("--out", help="output CSV path (default stdout)")
    precision(pt)
    pt.set_defaults(func=_cmd_tradeoff)

    def experiment_parser(name, help_text, names):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", choices=names, required=True)
        p.add_argument("--trials", type=int, help="override the preset trial count")
        p.add_argument("--workers", type=int,
                       help="accepted for compatibility, no effect: trials run "
                            "serially")
        p.add_argument("--out", help="JSONL output path (default stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 if the verdict is FAIL or a trial failed")
        seeded(p)
        p.set_defaults(func=_cmd_experiment)
        return p

    experiment_parser("simulate", "channel-statistics experiments", SIM_PRESET_NAMES)
    experiment_parser("roundtrip", "encode/transmit/decode experiments", RT_PRESET_NAMES)

    ps = sub.add_parser("sweep", help="rate vs capacity vs success CSV")
    ps.add_argument("--var", choices=["lambda", "q", "p"], required=True)
    ps.add_argument("--grid", required=True, help="grid start:stop:step or a,b,c")
    ps.add_argument("--codec", choices=sorted(_codec_presets()), required=True)
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--p", type=float, help="fixed crossover (var != p)")
    ps.add_argument("--q", type=float, help="fixed Bernoulli miss (var == p)")
    ps.add_argument("--lambda", dest="lam", type=float,
                    help="fixed Poisson depth (var == p)")
    ps.add_argument("--trials", type=int, default=200)
    ps.add_argument("--out", help="output CSV path (default stdout)")
    seeded(ps)
    ps.set_defaults(func=_cmd_sweep)

    return parser


# One parser per process (~1.2 ms to build): parse_args keeps no state in it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
