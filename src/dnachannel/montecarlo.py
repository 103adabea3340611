"""Seeded experiment harness.

Each experiment kind is a subclass of ``ExperimentSpec`` carrying its own
parameters and its trial: ``EstimateQ0`` (unseen fraction q0),
``DecodeSuccess`` (encode, transmit, decode), ``BoundCheck`` (per-read
Chernoff tail) and ``CouponTail`` (coupon-collector tail).

An experiment is a list of independent trials, run in order; trial t runs
on a Philox stream whose seed is a pure function of (base_seed, t), so a
trial's result does not depend on the trials before it.  A run of up to
five trials is seeded trial by trial, a longer one 4096 trials at a time,
and its trials share one generator, reset to each trial's stream
(``rng.trial_streams``).  Records serialize to JSON lines, summaries to a
single JSON object, and parameter sweeps to CSV.

A trial makes every use of its stream in ``trial(rng)``; ``run`` hands the
results to ``settle`` a block at a time.  Most kinds finish a trial inside
``trial`` and settle each block of one as it stands.  The short-molecule
scheme's trial only draws its bits and its channel draws
(``channel.transmit_draws``); a block closes once its trials hold
``BLOCK_READS`` reads, and then one pass encodes, transmits, shuffles and
majority-votes every trial of the block as integer reads.

Verdicts are one-sided where the target is an analytic bound (empirical
values may sit far below a loose bound; only exceeding it by more than
3 standard errors fails) and tolerance- or threshold-based otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import capacity as cap
from .channel import (
    ChannelParams,
    SamplingSpec,
    apply_noise,
    q0_of,
    sample_counts,
    transmit,
    transmit_draws,
    transmit_traced,
)
from .codec import (
    CodecConfig,
    ConfigError,
    decode_output,
    encode_message,
    achieved_rate,
    bits_to_int,
    random_message,
    short_molecule_values,
    short_molecule_vote,
)
# The single-trial short-molecule codec, kept as names of this module so the
# span tracer (benchmark/tracing.py) still finds them; run() does not call
# them.
from .codec import short_molecule_decode, short_molecule_encode  # noqa: F401
from .rng import derive_seed, generator_from_seed, trial_streams

__all__ = [
    "ShortMoleculeConfig",
    "ExperimentSpec",
    "EstimateQ0",
    "DecodeSuccess",
    "BoundCheck",
    "CouponTail",
    "TrialRecord",
    "Summary",
    "RunResult",
    "run",
    "verify_chernoff",
    "measure_undetected_swaps",
    "rate_vs_capacity_sweep",
    "tradeoff_sweep",
    "region_sweep",
    "records_to_jsonl",
    "write_csv",
]

# run() settles trials in blocks of up to this many reads; a trial holding
# more is settled alone.  A 2000-trial short-l4-m64 run (~64 reads a trial)
# on a 2-vCPU Xeon (Python 3.11, numpy 2.4) peaks at 0.65 / 0.84 / 1.60 MiB
# under tracemalloc with blocks of 2^10 / 2^12 / 2^14 reads, against 0.58
# MiB trial by trial; its speed is the same within noise over that range.
# The block pass costs ~4.4 us a trial at 2^12 reads (64 trials).
BLOCK_READS = 1 << 12

@dataclass(frozen=True)
class ShortMoleculeConfig:
    """Codec stand-in selecting the short-molecule replication scheme."""

    M: int
    L: int

    def __post_init__(self):
        if not (self.L >= 1 and self.M >= 1 << (self.L - 1)):
            raise ConfigError(f"short-molecule scheme needs L >= 1 and M >= 2^(L-1), "
                              f"got M={self.M}, L={self.L}")


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """What every experiment shares: trial count, seed and verdict target.

    Each kind is a subclass (built by the classmethods below) with its own
    parameters, a ``metric`` name and a ``trial(rng)`` that makes every use
    of the trial's stream.  ``run`` gathers the trials' results in blocks
    of up to ``BLOCK_READS`` reads (``reads(result)`` a trial), and
    ``settle(block)`` turns a block into each trial's ``(fields, metric)``.
    By default a trial returns its ``(fields, metric)`` itself and fills a
    block alone.
    Verdict fields are optional; when set, the summary carries a PASS/FAIL:
    ``expected``/``tolerance`` check |mean - expected| <= tolerance,
    ``bound`` checks mean <= bound + 3*stderr (one-sided), and
    ``min_rate`` checks mean >= min_rate.
    """

    metric: ClassVar[str]
    trials: int
    base_seed: int
    expected: float | None = None
    tolerance: float | None = None
    bound: float | None = None
    min_rate: float | None = None

    def __post_init__(self):
        # Every trial index must fit one uint32 word of the seed hash.
        if not 1 <= self.trials <= 1 << 32:
            raise ValueError(f"trials must be in [1, 2^32], got {self.trials}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if (self.expected is None) != (self.tolerance is None):
            raise ValueError(f"expected and tolerance must be set together, got "
                             f"expected={self.expected}, tolerance={self.tolerance}")
        rules = [r for r in ("expected", "bound", "min_rate")
                 if getattr(self, r) is not None]
        if len(rules) > 1:
            raise ValueError(f"set at most one verdict rule (expected/tolerance, "
                             f"bound, min_rate), got {', '.join(rules)}")

    def reads(self, result) -> int:
        """Reads a trial's result holds toward its block."""
        return BLOCK_READS

    def settle(self, block: list) -> list[tuple[dict, float]]:
        """Every trial's ``(fields, metric)`` from the block's trial results."""
        return block

    @classmethod
    def estimate_q0(cls, channel, trials, base_seed, **verdict):
        return EstimateQ0(channel=channel, trials=trials, base_seed=base_seed, **verdict)

    @classmethod
    def decode_success(cls, channel, codec, trials, base_seed, **verdict):
        return DecodeSuccess(channel=channel, codec=codec, trials=trials,
                             base_seed=base_seed, **verdict)

    @classmethod
    def chernoff(cls, read_len, p, delta, reads_per_trial, trials, base_seed, **verdict):
        return BoundCheck(read_len=read_len, p=p, delta=delta, trials=trials,
                          base_seed=base_seed, reads_per_trial=reads_per_trial, **verdict)

    @classmethod
    def coupon_tail(cls, M, lam, delta, trials, base_seed, **verdict):
        return CouponTail(M=M, lam=lam, delta=delta, trials=trials,
                          base_seed=base_seed, **verdict)


@dataclass(frozen=True, kw_only=True)
class EstimateQ0(ExperimentSpec):
    """Fraction of the M molecules the sampling channel never draws (q0)."""

    metric: ClassVar[str] = "miss_fraction"
    channel: ChannelParams

    def trial(self, rng) -> tuple[dict, float]:
        ch = self.channel
        counts = sample_counts(ch.sampling, ch.M, rng)
        distinct = int(np.count_nonzero(counts))
        miss = 1.0 - distinct / ch.M
        return {"N": int(counts.sum()), "distinct_seen": distinct}, miss


class _ShortDraws(NamedTuple):
    """One short-molecule trial's draws, in stream order."""

    bits: np.ndarray  # the 2^(L-1) data bits
    counts: np.ndarray  # reads of each molecule
    flips: np.ndarray | None  # (N, L) flip pattern in source order; None at p = 0
    perm: np.ndarray  # shuffle of the N reads


@dataclass(frozen=True, kw_only=True)
class DecodeSuccess(ExperimentSpec):
    """Encode a random message, pass it through the channel, decode it.

    With a ``ShortMoleculeConfig`` a trial only draws (``_ShortDraws``) and
    ``settle`` runs the scheme over a block of trials at once.
    """

    metric: ClassVar[str] = "success_rate"
    channel: ChannelParams
    codec: CodecConfig | ShortMoleculeConfig

    def __post_init__(self):
        super().__post_init__()
        ch, codec = self.channel, self.codec
        if (codec.M, codec.L) != (ch.M, ch.L):
            raise ConfigError(f"codec geometry M={codec.M}, L={codec.L} does not match "
                              f"channel M={ch.M}, L={ch.L}")

    def trial(self, rng):
        if isinstance(self.codec, ShortMoleculeConfig):
            bits = rng.integers(0, 2, size=1 << (self.codec.L - 1), dtype=np.uint8)
            return _ShortDraws(bits, *transmit_draws(self.channel, rng))
        msg = random_message(self.codec, rng)
        cw = encode_message(msg, self.codec)
        out, _, counts, flips = transmit_traced(cw, self.channel, rng)
        report = decode_output(out, self.codec)
        # The decoder's own verdict (erasures within the outer budget); a
        # rare wrong message behind a reported success is a separate,
        # measured phenomenon (see measure_undetected_swaps).
        fields = {
            "N": out.N,
            "distinct_seen": int(np.count_nonzero(counts)),
            "decode_success": report.ok,
            "erasures": report.erasures,
            "collisions": report.collisions,
            # An exact count and one rounded division: the same double as .mean().
            "flip_rate": flips / out.reads.size if out.N > 0 else None,
        }
        return fields, float(report.ok)

    def reads(self, result) -> int:
        if isinstance(self.codec, ShortMoleculeConfig):
            return result.perm.size
        return super().reads(result)

    def settle(self, block: list) -> list[tuple[dict, float]]:
        if not isinstance(self.codec, ShortMoleculeConfig):
            return block
        L = self.codec.L
        bits = np.stack([d.bits for d in block])
        counts = np.stack([d.counts for d in block])
        n = counts.sum(axis=1)
        owner = np.repeat(np.arange(len(block)), n)
        # Every trial's reads in source order, as integers segment << 1 | bit.
        reads = np.repeat(short_molecule_values(bits, self.codec.M, L).reshape(-1),
                          counts.reshape(-1))
        flips = [0] * len(block)
        if self.channel.p:
            pattern = np.concatenate([d.flips for d in block])
            reads ^= bits_to_int(pattern)
            flips = np.bincount(owner, weights=pattern.sum(axis=1),
                                minlength=len(block)).astype(np.int64).tolist()
        # Each trial's shuffle, offset to where its reads start.
        start = np.repeat(np.cumsum(n) - n, n)
        reads = reads.take(np.concatenate([d.perm for d in block]) + start)
        recovered = short_molecule_vote(reads, L, owner, len(block))
        success = (recovered == bits).all(axis=1).tolist()
        erasures = np.count_nonzero(recovered < 0, axis=1).tolist()
        distinct = np.count_nonzero(counts, axis=1).tolist()
        outcomes = []
        for i, N in enumerate(n.tolist()):
            fields = {
                "N": N,
                "distinct_seen": distinct[i],
                "decode_success": success[i],
                "erasures": erasures[i],
                "collisions": None,
                # An exact count and one rounded division, as in trial().
                "flip_rate": flips[i] / (N * L) if N > 0 else None,
            }
            outcomes.append((fields, float(success[i])))
        return outcomes


@dataclass(frozen=True, kw_only=True)
class BoundCheck(ExperimentSpec):
    """Per-read Chernoff tail: fraction of reads with >= delta*L flipped bits."""

    metric: ClassVar[str] = "tail_fraction"
    read_len: int
    p: float
    delta: float
    reads_per_trial: int

    def __post_init__(self):
        super().__post_init__()
        if self.read_len < 1:
            raise ValueError(f"read_len must be >= 1, got {self.read_len}")
        if self.reads_per_trial < 1:
            raise ValueError(f"reads_per_trial must be >= 1, got {self.reads_per_trial}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")

    def trial(self, rng) -> tuple[dict, float]:
        # apply_noise copies its input, so a zero-stride view of one zero
        # stands in for the all-zero reads without a read-sized array.
        zeros = np.broadcast_to(np.uint8(0), (self.reads_per_trial, self.read_len))
        reads = apply_noise(zeros, self.p, rng)
        flips = reads.sum(axis=1)
        tail = float((flips >= self.delta * self.read_len).mean())
        fields = {"N": self.reads_per_trial, "flip_rate": float(reads.mean())}
        return fields, tail


@dataclass(frozen=True, kw_only=True)
class CouponTail(ExperimentSpec):
    """Coupon-collector tail: round(lam*M) draws see >= (1-e^-lam+delta)M coupons."""

    metric: ClassVar[str] = "exceed_fraction"
    M: int
    lam: float
    delta: float

    def __post_init__(self):
        super().__post_init__()
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 0.0 < self.lam < math.inf:  # False for NaN too
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")

    def trial(self, rng) -> tuple[dict, float]:
        M, lam = self.M, self.lam
        n_draws = round(lam * M)
        draws = rng.integers(0, M, size=n_draws)
        distinct = int(np.unique(draws).size)
        threshold = (1.0 - math.exp(-lam) + self.delta) * M
        fields = {"N": n_draws, "distinct_seen": distinct}
        return fields, float(distinct >= threshold)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome; fields unavailable to an experiment kind are None."""

    trial: int
    seed: int
    N: int | None = None
    distinct_seen: int | None = None
    decode_success: bool | None = None
    erasures: int | None = None
    collisions: int | None = None
    flip_rate: float | None = None

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "N": self.N,
            "distinct_seen": self.distinct_seen,
            "decode_success": self.decode_success,
            "erasures": self.erasures,
            "collisions": self.collisions,
            "flip_rate": self.flip_rate,
        }


@dataclass(frozen=True)
class Summary:
    """Aggregate of the per-trial metric, with an optional verdict."""

    metric: str
    mean: float
    stderr: float
    ci95: tuple[float, float]
    trials: int
    expected: float | None = None
    tolerance: float | None = None
    bound: float | None = None
    min_rate: float | None = None
    verdict: str | None = None

    def to_json(self) -> dict:
        # Non-finite floats (a NaN mean when every trial failed) become null,
        # so the object serialises as strict JSON.
        out = {
            "metric": self.metric,
            "mean": _json_float(self.mean),
            "stderr": _json_float(self.stderr),
            "ci95": [_json_float(x) for x in self.ci95],
            "trials": self.trials,
        }
        for key in ("expected", "tolerance", "bound", "min_rate", "verdict"):
            value = getattr(self, key)
            if value is not None:
                out[key] = _json_float(value)
        return out


def _json_float(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


@dataclass(frozen=True)
class RunResult:
    """Per-trial records and their summary, plus the trials that raised.

    A failed trial leaves an empty record and is left out of the summary;
    ``failed`` counts them and ``first_error`` names the first one.
    """

    records: list
    summary: Summary
    failed: int
    first_error: str | None


def run(spec: ExperimentSpec, workers: int | None = None) -> RunResult:
    """Execute an experiment's trials in order; deterministic given base_seed.

    ``workers`` is accepted for compatibility and has no effect.
    """
    records, metrics = [], []
    failed, first_error = 0, None
    for t, seed, outcome in _settled(spec):
        if isinstance(outcome, Exception):
            # A failed trial yields an empty record, never aborts the batch.
            failed += 1
            first_error = first_error or f"trial {t}: {type(outcome).__name__}: {outcome}"
            fields, metric = {}, math.nan
        else:
            fields, metric = outcome
        records.append(TrialRecord(trial=t, seed=seed, **fields))
        metrics.append(metric)
    summary = _summarize(spec, np.array(metrics, dtype=float))
    return RunResult(records, summary, failed, first_error)


def _settled(spec: ExperimentSpec):
    """Yield ``(t, seed, (fields, metric) or the exception it raised)`` per
    trial, in order, settling the trials a block at a time.

    A block closes once it holds ``BLOCK_READS`` reads; a trial that would
    take it past that starts the next block.
    """
    trial, reads = spec.trial, spec.reads
    block, held = [], 0
    for t, (seed, rng) in enumerate(trial_streams(spec.base_seed, spec.trials)):
        try:
            result = trial(rng)
            n = reads(result)
        except Exception as e:
            result, n = e, 0
        if held + n > BLOCK_READS:
            yield from _settle(spec, block)
            block, held = [], 0
        block.append((t, seed, result))
        held += n
        if held >= BLOCK_READS:
            yield from _settle(spec, block)
            block, held = [], 0
    yield from _settle(spec, block)


def _settle(spec: ExperimentSpec, block: list):
    """Settle one block; an exception in the block pass fails all its trials."""
    done = [r for _, _, r in block if not isinstance(r, Exception)]
    try:
        outcomes = iter(spec.settle(done) if done else [])
    except Exception as e:
        outcomes = itertools.repeat(e)
    for t, seed, result in block:
        yield t, seed, result if isinstance(result, Exception) else next(outcomes)


def _summarize(spec: ExperimentSpec, metrics: np.ndarray) -> Summary:
    good = metrics[~np.isnan(metrics)]
    n = good.size
    mean = float(good.mean()) if n else math.nan
    stderr = float(good.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    ci95 = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    verdict = None
    if spec.expected is not None:
        verdict = "PASS" if abs(mean - spec.expected) <= spec.tolerance else "FAIL"
    elif spec.bound is not None:
        verdict = "PASS" if mean <= spec.bound + 3.0 * stderr else "FAIL"
    elif spec.min_rate is not None:
        verdict = "PASS" if mean >= spec.min_rate else "FAIL"
    return Summary(
        metric=spec.metric, mean=mean, stderr=stderr, ci95=ci95,
        trials=int(n), expected=spec.expected, tolerance=spec.tolerance,
        bound=spec.bound, min_rate=spec.min_rate, verdict=verdict,
    )


# ---------------------------------------------------------------------------
# One-shot verifications and sweeps
# ---------------------------------------------------------------------------

class ChernoffCheck(NamedTuple):
    empirical: float
    bound: float
    passed: bool
    stderr: float


def verify_chernoff(L: int, p: float, delta: float, reads: int, seed: int) -> ChernoffCheck:
    """Empirically check the per-read tail bound 2^(-L D(delta||p)).

    Simulates ``reads`` noisy reads, measures the fraction with >= delta*L
    flipped bits, and passes iff it does not exceed the bound by more than
    3 binomial standard errors (one-sided: falling far below is fine).
    """
    bound = cap.chernoff_read_error_bound(L, p, delta)
    spec = ExperimentSpec.chernoff(L, p, delta, reads, trials=1, base_seed=seed)
    _, empirical = spec.trial(generator_from_seed(seed))
    stderr = math.sqrt(max(empirical * (1.0 - empirical), 1.0 / reads) / reads)
    return ChernoffCheck(empirical, bound, empirical <= bound + 3.0 * stderr, stderr)


def measure_undetected_swaps(
    cfg: CodecConfig, channel: ChannelParams, trials: int, base_seed: int
) -> float:
    """Frequency of decodes that report success with a wrong message."""
    bad = 0
    for _, rng in trial_streams(base_seed, trials):
        msg = random_message(cfg, rng)
        out = transmit(encode_message(msg, cfg), channel, rng)
        report = decode_output(out, cfg)
        if report.ok and not np.array_equal(report.message, msg):
            bad += 1
    return bad / trials


def rate_vs_capacity_sweep(
    var: str,
    values,
    cfg: CodecConfig,
    trials: int,
    base_seed: int,
    beta: float | None = None,
    p: float = 0.0,
    sampling: SamplingSpec | None = None,
) -> list[dict]:
    """Analytic capacity vs. codec rate vs. empirical success along a grid.

    ``var`` selects the swept quantity: "lambda" (Poisson depth), "q"
    (Bernoulli miss probability), or "p" (crossover, with ``sampling``
    fixed).  Each row reports the capacity formula value at that point, the
    config's exact rate, and the decode success rate over ``trials``.  Each
    row also carries the point's ``failed`` trial count and ``first_error``
    (as ``run`` reports them); they are not CSV columns.

    ``beta`` feeds only the capacity column (default: the codec's own
    L / log2 M); the simulated channel always uses the codec's geometry.
    """
    if var not in ("lambda", "q", "p"):
        raise ValueError(f"var must be lambda, q, or p, got {var!r}")
    if var == "p" and sampling is None:
        raise ValueError("sweeping p requires a fixed sampling spec")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    beta_geom = cfg.L / math.log2(cfg.M)
    if beta is None:
        beta = beta_geom
    rate = float(achieved_rate(cfg))
    rows = []
    for i, value in enumerate(values):
        value = float(value)
        if var == "lambda":
            spec_i, p_i = SamplingSpec.poisson(value), p
        elif var == "q":
            spec_i, p_i = SamplingSpec.bernoulli(value), p
        else:
            spec_i, p_i = sampling, value
        q0 = q0_of(spec_i)
        if p_i == 0.0:
            c = cap.noise_free_capacity(q0, beta).value
        else:
            c = cap.noisy_capacity(q0, p_i, beta).value
        channel = ChannelParams(M=cfg.M, beta=beta_geom, p=p_i,
                                sampling=spec_i, L=cfg.L)
        sub = ExperimentSpec.decode_success(
            channel, cfg, trials, derive_seed(base_seed, i)
        )
        result = run(sub)
        rows.append({
            "lambda": getattr(spec_i, "lam", None),  # empty unless a Poisson kind
            "beta": beta,
            "p": p_i,
            "q": q0,
            "capacity": c,
            "achieved_rate": rate,
            "success_rate": result.summary.mean,
            "failed": result.failed,
            "first_error": result.first_error,
        })
    return rows


def tradeoff_sweep(beta: float, lams) -> list[dict]:
    """Storage/recovery frontier rows along a coverage-depth grid."""
    rows = []
    for lam in lams:
        pt = cap.tradeoff_point(float(lam), beta)
        rows.append({"lambda": pt.lam, "beta": beta,
                     "rs_max": pt.rs_max, "rr_max": pt.rr_max})
    return rows


def region_sweep(p_values) -> list[dict]:
    """Proven-region boundary rows (p, beta_min); p >= 1/4 yields no row."""
    rows = []
    for p in sorted(float(x) for x in p_values):
        if p >= 0.25:
            continue
        rows.append({"p": p, "beta_min": cap.region_boundary(p)})
    return rows


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def records_to_jsonl(records) -> str:
    """One TrialRecord per line, keys in the documented order."""
    return "".join(json.dumps(r.to_json()) + "\n" for r in records)


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    """Write sweep rows as CSV with a header naming each quantity.

    An empty ``path`` (None or "") writes to standard output.
    """
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(row.get(c)) for c in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)
