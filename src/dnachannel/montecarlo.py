"""Seeded experiment harness.

Each experiment kind is a subclass of ``ExperimentSpec`` carrying its own
parameters and its trial: ``EstimateQ0`` (unseen fraction q0),
``DecodeSuccess`` (index codec: encode, transmit, decode),
``ShortMoleculeSuccess`` (the short-molecule replication scheme, beta < 1),
``BoundCheck`` (per-read Chernoff tail) and ``CouponTail`` (coupon-collector
tail).

An experiment is a list of independent trials, run in order; trial t runs
on a Philox stream whose seed is a pure function of (base_seed, t), so a
trial's result does not depend on the trials before it.  A run of up to
three trials is seeded trial by trial, a longer one 4096 trials at a time,
and its trials share one generator, reset to each trial's stream
(``rng.trial_streams``).  Records serialize to JSON lines, summaries to a
single JSON object, and parameter sweeps to CSV.

A trial makes every use of its stream in ``trial(rng)``; ``run`` hands the
results to ``settle`` a block of ``spec.block_trials`` trials at a time and
turns each settled block into its records in one pass.  Most kinds finish
a trial inside ``trial`` and settle each block of one as it stands.  A
short-molecule trial only draws its data bits and the channel's counts and
noise (``channel.transmit_draws``).  Its blocks hold as many trials as
their expected reads allow within ``BLOCK_READS`` (a trial expecting more
settles alone), and ``settle`` encodes, transmits and majority-votes a
block's integer reads in one pass.
An index-codec trial decodes the reads in source order
(``channel.transmit_unshuffled``) as far as the verdict: its record needs
the erasure and collision counts, not the message, so no trial runs the
outer Reed-Solomon decode (``codec.DecodeReport.message`` runs it only
when read).  Neither decoder depends on read order:
the vote counts reads, and ``decode_output`` erases an index read with any
payload unlike its representative's, whichever read that is.  The shuffle
is the channel's last draw, and ``trial_streams`` resets the generator for
the next trial, so no trial draws it and no other draw moves.

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
    sample_counts,
    transmit_draws,
    transmit_traced,  # not called: the span tracer patches this name
    transmit_unshuffled,
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
from .rng import derive_seed, generator_from_seed, trial_streams, word_bits

__all__ = [
    "ExperimentSpec",
    "EstimateQ0",
    "DecodeSuccess",
    "ShortMoleculeSuccess",
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

# A short-molecule block holds as many trials as this many reads would
# expect, and its stacked counts at most this many ints; a trial expecting
# more settles alone.  This is the one bound on the reads settle votes in
# one pass.  A 2000-trial short-l4-m64 run (~64 reads a trial) on a 2-vCPU
# Xeon (Python 3.11, numpy 2.4) peaks at 0.57 / 0.74 / 1.45 MiB under
# tracemalloc with blocks of 2^10 / 2^12 / 2^14 reads, against 0.52 MiB
# trial by trial; its speed is the same within noise over that range.
BLOCK_READS = 1 << 12

@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """What every experiment shares: trial count, seed and verdict target.

    Each kind is a subclass (most built by a classmethod below) with its own
    parameters, a ``metric`` name and a ``trial(rng)`` that makes every use
    of the trial's stream.  ``run`` gathers the trials' results in blocks
    of ``block_trials`` trials, and ``settle(block)`` turns a block into
    each trial's ``(row, metric)``: the row is the record's fields after
    ``trial`` and ``seed``, in ``TrialRecord`` order, and a shorter row
    leaves the rest None.  By default a trial returns its ``(row, metric)``
    itself and fills a block alone.
    Verdict fields are optional; when set, the summary carries a PASS/FAIL:
    ``expected``/``tolerance`` check |mean - expected| <= tolerance,
    ``bound`` checks mean <= bound + 3*stderr (one-sided), and
    ``min_rate`` checks mean >= min_rate.
    """

    metric: ClassVar[str]
    block_trials: ClassVar[int] = 1
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

    def settle(self, block: list) -> list[tuple[tuple, float]]:
        """Every trial's ``(row, metric)`` from the block's trial results."""
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

    def trial(self, rng) -> tuple[tuple, float]:
        ch = self.channel
        counts = sample_counts(ch.sampling, ch.M, rng)
        distinct = int(np.count_nonzero(counts))
        miss = 1.0 - distinct / ch.M
        return (int(counts.sum()), distinct), miss


@dataclass(frozen=True, kw_only=True)
class DecodeSuccess(ExperimentSpec):
    """Encode a random message with the index codec, transmit and decode it."""

    metric: ClassVar[str] = "success_rate"
    channel: ChannelParams
    codec: CodecConfig

    def __post_init__(self):
        super().__post_init__()
        ch, codec = self.channel, self.codec
        if (codec.M, codec.L) != (ch.M, ch.L):
            raise ConfigError(f"codec geometry M={codec.M}, L={codec.L} does not match "
                              f"channel M={ch.M}, L={ch.L}")

    def trial(self, rng):
        msg = random_message(self.codec, rng)
        cw = encode_message(msg, self.codec)
        out, counts, flips = transmit_unshuffled(cw, self.channel, rng)
        report = decode_output(out, self.codec)
        # The decoder's own verdict (erasures within the outer budget), read
        # without the message, so the Reed-Solomon decode never runs; a rare
        # wrong message behind a reported success is a separate, measured
        # phenomenon (see measure_undetected_swaps).  The flip rate is an
        # exact count and one rounded division: the same double as .mean().
        row = (out.N, int(np.count_nonzero(counts)), report.ok, report.erasures,
               report.collisions, flips / out.reads.size if out.N > 0 else None)
        return row, float(report.ok)


@dataclass(frozen=True, kw_only=True)
class ShortMoleculeSuccess(ExperimentSpec):
    """The short-molecule replication scheme on the channel's M and L.

    A trial only draws, in stream order: the raw words holding the 2^(L-1)
    data bits (``rng.word_bits``), the reads of each molecule and the (N, L)
    flip pattern of the reads in source order (None at p = 0).  ``settle``
    runs the scheme over a block of trials at once.
    """

    metric: ClassVar[str] = "success_rate"
    channel: ChannelParams

    def __post_init__(self):
        super().__post_init__()
        M, L = self.channel.M, self.channel.L
        if M < 1 << (L - 1):
            raise ConfigError(f"short-molecule scheme needs M >= 2^(L-1), got M={M}, L={L}")

    def trial(self, rng):
        """One trial.  ``rng`` is always a Philox generator that ``trial_streams``
        has just reset, so the data bits can be raw words (rng's bit contract):
        no later draw reads a 32-bit half ``integers`` leaves pending."""
        words = rng.bit_generator.random_raw(-(-(1 << (self.channel.L - 1)) // 8))
        return (words, *transmit_draws(self.channel, rng))

    @property
    def block_trials(self) -> int:
        # Expected reads within BLOCK_READS, and M counts a trial as well.
        mean = max(self.channel.sampling.mean_coverage(), 1.0)
        return max(1, int(BLOCK_READS // (self.channel.M * mean)))

    def settle(self, block):
        L, T = self.channel.L, len(block)
        words, counts, patterns = zip(*block)
        # np.array stacks as np.stack does, in a third of the time.
        bits = word_bits(np.array(words), 1 << (L - 1))
        counts = np.array(counts)
        n = counts.sum(axis=1)
        # Every molecule of every trial as an integer segment << 1 | bit, and
        # every read of the block in source order with the trial it belongs to.
        values = short_molecule_values(bits, self.channel.M, L)
        owner = np.repeat(np.arange(T), n)
        reads = np.repeat(values.reshape(-1), counts.reshape(-1))
        flips = itertools.repeat(0)
        if self.channel.p:
            pattern = np.concatenate(patterns)
            reads ^= bits_to_int(pattern)
            # Whole numbers of flips, exact as doubles.
            flips = np.bincount(owner, pattern.sum(axis=1), T).tolist()
        recovered = short_molecule_vote(reads, L, owner, T)
        success = (recovered == bits).all(axis=1).tolist()
        erasures = np.count_nonzero(recovered < 0, axis=1).tolist()
        distinct = np.count_nonzero(counts, axis=1).tolist()
        n = n.tolist()
        # An exact count and one rounded division, as in DecodeSuccess.trial.
        flip_rate = [f / (N * L) if N > 0 else None for f, N in zip(flips, n)]
        rows = zip(n, distinct, success, erasures, itertools.repeat(None), flip_rate)
        return list(zip(rows, map(float, success)))


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

    def trial(self, rng) -> tuple[tuple, float]:
        # apply_noise copies its input, so a zero-stride view of one zero
        # stands in for the all-zero reads without a read-sized array.
        zeros = np.broadcast_to(np.uint8(0), (self.reads_per_trial, self.read_len))
        reads = apply_noise(zeros, self.p, rng)
        flips = reads.sum(axis=1)
        tail = float((flips >= self.delta * self.read_len).mean())
        return (self.reads_per_trial, None, None, None, None, float(reads.mean())), tail


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

    def trial(self, rng) -> tuple[tuple, float]:
        M, lam = self.M, self.lam
        n_draws = round(lam * M)
        draws = rng.integers(0, M, size=n_draws)
        distinct = int(np.count_nonzero(np.bincount(draws, minlength=M)))
        threshold = (1.0 - math.exp(-lam) + self.delta) * M
        return (n_draws, distinct), float(distinct >= threshold)


class TrialRecord(NamedTuple):
    """One trial's outcome (immutable); fields unavailable to its kind are None."""

    trial: int
    seed: int
    N: int | None = None
    distinct_seen: int | None = None
    decode_success: bool | None = None
    erasures: int | None = None
    collisions: int | None = None
    flip_rate: float | None = None

    def to_json(self) -> dict:
        # Non-finite floats become null, as in Summary.to_json.
        return {k: _json_float(v) for k, v in self._asdict().items()}


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
        # The fields in order, the optional ones only when set.
        out = {k: _json_float(v) for k, v in vars(self).items() if v is not None}
        out["ci95"] = [_json_float(x) for x in self.ci95]
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
    for t0, seeds, results in _blocks(spec):
        done = [r for r in results if not isinstance(r, Exception)]
        try:
            settled = spec.settle(done) if done else []
        except Exception as e:
            # An exception in the block pass fails all its trials.
            settled = [(e, 0)] * len(done)
        if len(done) < len(results):
            done = iter(settled)
            settled = [(r, 0) if isinstance(r, Exception) else next(done) for r in results]
        rows, ms = map(list, zip(*settled))
        if {*map(type, rows)} != {tuple}:
            for i, e in enumerate(rows):
                if not isinstance(e, tuple):
                    if not isinstance(e, Exception):
                        # A dict row would unpack its keys into the record's fields.
                        e = TypeError(f"row must be a tuple, got {type(e).__name__}")
                    # A failed trial yields an empty record, never aborts the batch.
                    failed += 1
                    first_error = first_error or f"trial {t0 + i}: {type(e).__name__}: {e}"
                    rows[i], ms[i] = (), math.nan
        records += itertools.starmap(TrialRecord, map(tuple.__add__, zip(
            itertools.count(t0), seeds), rows))
        metrics += ms
    summary = _summarize(spec, np.array(metrics, dtype=float))
    return RunResult(records, summary, failed, first_error)


def _blocks(spec: ExperimentSpec):
    """Yield the trials in order, ``spec.block_trials`` at a time, as
    ``(first trial index, seeds, results or the exceptions they raised)``."""
    trial, size = spec.trial, spec.block_trials
    streams = trial_streams(spec.base_seed, spec.trials)
    for t0 in range(0, spec.trials, size):
        seeds, results = [], []
        for seed, rng in itertools.islice(streams, size):
            seeds.append(seed)
            try:
                results.append(trial(rng))
            except Exception as e:
                results.append(e)
        yield t0, seeds, results


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
    return Summary(spec.metric, mean, stderr, ci95, int(n), spec.expected,
                   spec.tolerance, spec.bound, spec.min_rate, verdict)


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
        # No shuffle: decode_output ignores read order (module docstring).
        out = transmit_unshuffled(encode_message(msg, cfg), channel, rng)[0]
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
        q0 = spec_i.q0()
        c = (cap.noisy_capacity(q0, p_i, beta) if p_i else cap.noise_free_capacity(q0, beta)).value
        channel = ChannelParams(M=cfg.M, beta=beta_geom, p=p_i,
                                sampling=spec_i, L=cfg.L)
        result = run(ExperimentSpec.decode_success(channel, cfg, trials,
                                                   derive_seed(base_seed, i)))
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
    points = (cap.tradeoff_point(float(lam), beta) for lam in lams)
    return [{"lambda": pt.lam, "beta": beta, "rs_max": pt.rs_max, "rr_max": pt.rr_max}
            for pt in points]


def region_sweep(p_values) -> list[dict]:
    """Proven-region boundary rows (p, beta_min); p >= 1/4 yields no row."""
    return [{"p": p, "beta_min": cap.region_boundary(p)}
            for p in sorted(map(float, p_values)) if p < 0.25]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# A record of exactly None, bool, int and finite float values is written as
# their reprs with None, True and False spelt the JSON way: json.dumps's
# bytes.  Only a non-finite float's repr holds "inf" or "nan"; no key does.
_JSON_LINE = "{" + ", ".join(f'"{k}": %r' for k in TrialRecord._fields) + "}\n"
_JSON_TYPES = {type(None), bool, int, float}


def records_to_jsonl(records) -> str:
    """One TrialRecord per line, keys in the documented order: byte for byte
    ``json.dumps(r.to_json()) + "\\n"`` for each record of the list."""
    return _plain_lines(records) or "".join(
        _plain_lines([r]) or json.dumps(r.to_json()) + "\n" for r in records)


def _plain_lines(records) -> str | None:
    """The records' lines by ``_JSON_LINE``; None if one needs ``json.dumps``."""
    if {*map(type, itertools.chain.from_iterable(records))} <= _JSON_TYPES:
        text = "".join(map(_JSON_LINE.__mod__, records))
        if "inf" not in text and "nan" not in text:
            # One copy at a time: a chain holds the joined text too, and
            # freeing three ~300 KB strings together let glibc trim its heap
            # (~75 more minor faults per 2000-record batch, tools/bench.py).
            text = text.replace("None", "null")
            text = text.replace("True", "true")
            return text.replace("False", "false")


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
