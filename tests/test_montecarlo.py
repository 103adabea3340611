"""Harness tests: reproducibility, verdicts, bound checks, sweeps."""

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import dataclass, field
from typing import ClassVar

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dnachannel import channel, cli, gf, montecarlo
from dnachannel.capacity import chernoff_read_error_bound, coupon_tail_bound
from dnachannel.channel import ChannelParams, SamplingSpec, transmit, transmit_traced
from dnachannel.codec import (
    CodecConfig,
    ConfigError,
    InnerCodeSpec,
    decode_output,
    encode_message,
    random_message,
    short_molecule_decode,
    short_molecule_encode,
)
from dnachannel.montecarlo import (
    BLOCK_READS,
    DecodeSuccess,
    ExperimentSpec,
    ShortMoleculeSuccess,
    Summary,
    TrialRecord,
    measure_undetected_swaps,
    rate_vs_capacity_sweep,
    records_to_jsonl,
    region_sweep,
    run,
    tradeoff_sweep,
    verify_chernoff,
    write_csv,
)
from dnachannel.rng import derive_seed, generator_from_seed, trial_streams

M16 = CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=12)
M16_REP3 = CodecConfig(M=16, L=24, inner=InnerCodeSpec.repetition(3), outer_k=12)


def bern_channel(M, L, q, p=0.0):
    return ChannelParams(M=M, beta=L / math.log2(M), p=p,
                         sampling=SamplingSpec.bernoulli(q), L=L)


# ---------------------------------------------------------------------------
# run(): records, summaries, verdicts
# ---------------------------------------------------------------------------

def test_estimate_q0_poisson_within_tolerance():
    channel = ChannelParams(M=100_000, beta=2.0, p=0.0,
                            sampling=SamplingSpec.poisson(1.0))
    spec = ExperimentSpec.estimate_q0(channel, trials=20, base_seed=101,
                                      expected=math.exp(-1), tolerance=0.005)
    result = run(spec)
    assert len(result.records) == 20
    assert abs(result.summary.mean - math.exp(-1)) <= 0.005
    assert result.summary.verdict == "PASS"


def test_estimate_q0_pcr_channel():
    q0 = float(mpmath.e ** (-2 * (1 - mpmath.e ** -1)))
    channel = ChannelParams(M=20_000, beta=2.0, p=0.0,
                            sampling=SamplingSpec.poisson_pcr(2.0, 2.0))
    spec = ExperimentSpec.estimate_q0(channel, trials=5, base_seed=102,
                                      expected=q0, tolerance=0.01)
    assert run(spec).summary.verdict == "PASS"


def test_decode_success_clean_channel_is_certain():
    spec = ExperimentSpec.decode_success(bern_channel(16, 8, 0.0), M16,
                                         trials=100, base_seed=103, min_rate=1.0)
    result = run(spec)
    assert result.summary.mean == 1.0
    assert result.summary.verdict == "PASS"
    rec = result.records[0]
    assert rec.N == 16 and rec.decode_success and rec.erasures == 0


def test_decode_success_flip_rate_tracks_p():
    spec = ExperimentSpec.decode_success(bern_channel(16, 24, 0.0, p=0.02),
                                         M16_REP3, trials=100, base_seed=104)
    result = run(spec)
    rates = [r.flip_rate for r in result.records]
    sigma = math.sqrt(0.02 * 0.98 / (16 * 24 * 100))
    assert abs(np.mean(rates) - 0.02) < 4 * sigma


def test_short_molecule_experiment_runs():
    channel = ChannelParams(M=64, beta=4 / 6, p=0.0,
                            sampling=SamplingSpec.poisson(1.0), L=4)
    spec = ShortMoleculeSuccess(channel=channel, trials=300, base_seed=105, min_rate=0.99)
    result = run(spec)
    assert result.summary.verdict == "PASS"
    assert result.records[0].collisions is None  # not applicable to this scheme


@dataclass(frozen=True, kw_only=True)
class ShortReference(ShortMoleculeSuccess):
    """The short-molecule scheme trial by trial: encode, transmit, decode."""

    block_trials = ExperimentSpec.block_trials
    settle = ExperimentSpec.settle

    def trial(self, rng):
        M, L = self.channel.M, self.channel.L
        bits = rng.integers(0, 2, size=1 << (L - 1), dtype=np.uint8)
        cw = short_molecule_encode(bits, M, L)
        out, _, counts, flips = transmit_traced(cw, self.channel, rng)
        recovered = short_molecule_decode(out, L)
        success = np.array_equal(recovered, bits)
        row = (out.N, int(np.count_nonzero(counts)), success,
               int(np.count_nonzero(recovered < 0)), None,
               flips / out.reads.size if out.N > 0 else None)
        return row, float(success)


def short_spec(M, L, sampling, p, trials, base_seed, cls=ShortMoleculeSuccess):
    ch = ChannelParams(M=M, beta=L / math.log2(M), p=p, sampling=sampling, L=L)
    return cls(channel=ch, trials=trials, base_seed=base_seed, min_rate=0.5)


def run_text(spec):
    result = run(spec)
    return records_to_jsonl(result.records) + json.dumps(result.summary.to_json())


@pytest.mark.parametrize("M,L,sampling,p,trials,check", [
    (2, 1, SamplingSpec.poisson(2.0), 0.0, 40, None),
    (3, 1, SamplingSpec.custom([0.2, 0.3, 0.5]), 0.05, 40, None),
    (16, 5, SamplingSpec.bernoulli(1.0), 0.05, 9, "no reads"),
    (40, 5, SamplingSpec.poisson_pcr(40, 2), 0.05, 12, "crosses a block edge"),
    (64, 6, SamplingSpec.custom([0.1, 0.6, 0.3]), 0.0, 70, "crosses a block edge"),
    (64, 4, SamplingSpec.poisson(1.0), 0.05, 150, "crosses a block edge"),
    (128, 4, SamplingSpec.poisson_pcr(40, 2), 0.0, 6, "a trial above the budget"),
    # K = 2 and 4 data bits: numpy's integers would leave a 32-bit half pending.
    (2, 2, SamplingSpec.poisson(1.5), 0.05, 40, None),
    (6, 3, SamplingSpec.custom([0.1, 0.2, 0.3, 0.4]), 0.05, 40, None),
    (100, 7, SamplingSpec.poisson(2.0), 0.0, 30, None),
])
def test_short_blocks_match_the_single_trial_reference(M, L, sampling, p, trials, check):
    block = run_text(short_spec(M, L, sampling, p, trials, 115))
    assert block == run_text(short_spec(M, L, sampling, p, trials, 115, ShortReference))
    N = [json.loads(line)["N"] for line in block.splitlines()[:-1]]
    if check == "no reads":
        assert set(N) == {0}
    elif check == "crosses a block edge":
        assert max(N) < BLOCK_READS < sum(N)
    elif check == "a trial above the budget":
        assert max(N) > BLOCK_READS


@dataclass(frozen=True, kw_only=True)
class ShuffledReference(DecodeSuccess):
    """An index-codec trial that also draws the channel's shuffle and runs
    the outer decode, whose message must agree with the verdict."""

    def trial(self, rng):
        msg = random_message(self.codec, rng)
        out, _, counts, flips = transmit_traced(encode_message(msg, self.codec), self.channel, rng)
        report = decode_output(out, self.codec)
        assert report.ok == (report.message is not None)
        row = (out.N, int(np.count_nonzero(counts)), report.ok, report.erasures,
               report.collisions, flips / out.reads.size if out.N > 0 else None)
        return row, float(report.ok)


@pytest.mark.parametrize("M,L,inner,k,sampling,p", [
    (16, 24, InnerCodeSpec.repetition(3), 12, SamplingSpec.poisson(3.0), 0.05),
    (12, 12, InnerCodeSpec.identity(), 8, SamplingSpec.poisson_pcr(6.0, 2.0), 0.03),
    (12, 8, InnerCodeSpec.identity(), 6, SamplingSpec.bernoulli(1.0), 0.02),  # no reads
    (256, 48, InnerCodeSpec.repetition(3), 192, SamplingSpec.poisson_pcr(20.0, 5.0), 0.01),
])
def test_index_trials_match_the_shuffled_reference(M, L, inner, k, sampling, p):
    # The reads stay in source order; the records are those of trials that
    # shuffle them, conflicts and out-of-range indices (M = 12) included.
    ch = ChannelParams(M=M, beta=L / math.log2(M), p=p, sampling=sampling, L=L)
    codec = CodecConfig(M=M, L=L, inner=inner, outer_k=k)
    spec = dict(channel=ch, codec=codec, trials=30, base_seed=117, min_rate=0.5)
    text = run_text(DecodeSuccess(**spec))
    assert text == run_text(ShuffledReference(**spec))
    records = [json.loads(line) for line in text.splitlines()[:-1]]
    assert any(r["collisions"] for r in records) == (p > 0 and sampling.q0() < 1)


def test_short_blocks_fail_every_trial_that_overflows():
    result = run(short_spec(64, 4, SamplingSpec.poisson(1e19), 0.0, 3, 116))
    assert result.failed == 3
    assert result.first_error.startswith("trial 0: OverflowError")
    assert all(r.N is None for r in result.records)


def test_short_blocks_fail_only_the_trial_whose_draws_raise(monkeypatch):
    spec = short_spec(64, 4, SamplingSpec.poisson(1.0), 0.0, 150, 117)
    reference = run(spec).records
    calls = itertools.count()
    sample_counts = channel.sample_counts

    def raise_on_trial_70(*args):
        if next(calls) == 70:  # inside the second block
            raise RuntimeError("no counts")
        return sample_counts(*args)

    monkeypatch.setattr(channel, "sample_counts", raise_on_trial_70)
    result = run(spec)
    assert (result.failed, result.first_error) == (1, "trial 70: RuntimeError: no counts")
    assert result.summary.trials == 149
    assert result.records[70].to_json() == {**dict.fromkeys(reference[70].to_json()),
                                            "trial": 70, "seed": reference[70].seed}
    assert ([r.to_json() for r in result.records[:70] + result.records[71:]]
            == [r.to_json() for r in reference[:70] + reference[71:]])


def test_short_block_pass_failure_fails_its_trials(monkeypatch):
    def broken_vote(*args):
        raise MemoryError("vote")

    monkeypatch.setattr(montecarlo, "short_molecule_vote", broken_vote)
    result = run(short_spec(64, 4, SamplingSpec.poisson(1.0), 0.0, 3, 118))
    assert (result.failed, result.first_error) == (3, "trial 0: MemoryError: vote")


def test_short_preset_run_memory():
    spec = cli._rt_presets(119, 2000)["short-l4-m64"]
    run(cli._rt_presets(120, 100)["short-l4-m64"])  # fill the codec's caches
    tracemalloc.start()
    try:
        run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2000 records take ~0.58 MiB; one block of BLOCK_READS reads the rest.
    assert peak <= 1 << 20


@pytest.mark.parametrize("M,L,codec,sampling,p,trials", [
    (64, 4, None, SamplingSpec.poisson(1.0), 0.05, 150),
    (40, 5, None, SamplingSpec.poisson_pcr(40, 2), 0.05, 12),
    (16, 5, None, SamplingSpec.bernoulli(1.0), 0.05, 9),  # no reads
    (16, 8, M16, SamplingSpec.poisson(2.0), 0.02, 9),  # index codec
])
@pytest.mark.parametrize("block_trials", [1, 3, None])
@pytest.mark.parametrize("block_reads", [BLOCK_READS, 50])
def test_records_do_not_depend_on_the_grouping(monkeypatch, M, L, codec, sampling, p,
                                               trials, block_trials, block_reads):
    if codec is None:
        spec = short_spec(M, L, sampling, p, trials, 121)
        expected = run_text(short_spec(M, L, sampling, p, trials, 121, ShortReference))
    else:
        spec = DecodeSuccess(channel=ChannelParams(M=M, beta=L / math.log2(M), p=p,
                                                   sampling=sampling, L=L),
                             codec=codec, trials=trials, base_seed=121)
        expected = run_text(spec)
    monkeypatch.setattr(montecarlo, "BLOCK_READS", block_reads)
    if block_trials is not None:
        monkeypatch.setattr(type(spec), "block_trials", block_trials)
    assert run_text(spec) == expected


@pytest.mark.parametrize("M,L,codec,sampling,expected", [
    (64, 4, None, SamplingSpec.poisson(1.0), 64),  # short-l4-m64: 64 reads a trial
    (64, 4, None, SamplingSpec.poisson(0.5), 64),  # capped by the held counts
    (16, 5, None, SamplingSpec.bernoulli(1.0), 256),  # no reads: counts alone
    (40, 5, None, SamplingSpec.poisson_pcr(40, 2), 2),
    (128, 4, None, SamplingSpec.poisson_pcr(40, 2), 1),  # one trial above the budget
    (64, 4, None, SamplingSpec.poisson(1e19), 1),
    (16, 8, M16, SamplingSpec.poisson(2.0), 1),
])
def test_block_trials(M, L, codec, sampling, expected):
    ch = ChannelParams(M=M, beta=L / math.log2(M), p=0.0, sampling=sampling, L=L)
    spec = (DecodeSuccess(channel=ch, codec=codec, trials=1, base_seed=1) if codec
            else ShortMoleculeSuccess(channel=ch, trials=1, base_seed=1))
    assert spec.block_trials == expected
    assert ExperimentSpec.estimate_q0(ch, trials=1, base_seed=1).block_trials == 1


def test_short_settle_votes_each_block_in_one_pass(monkeypatch):
    # PCR(60, 1) on M = 4: ~240 reads a trial, 17 trials a block.
    spec = short_spec(4, 3, SamplingSpec.poisson_pcr(60, 1), 0.05, 200, 122)
    assert spec.block_trials == 17
    reference = run(spec)  # also fills the codec's caches
    passes = []
    vote = montecarlo.short_molecule_vote

    def spy(values, L, owner, outputs):
        passes.append((values.size, outputs))
        return vote(values, L, owner, outputs)

    monkeypatch.setattr(montecarlo, "short_molecule_vote", spy)
    result = run(spec)
    assert records_to_jsonl(result.records) == records_to_jsonl(reference.records)
    assert [t for _, t in passes] == [17] * 11 + [13]
    assert sum(n for n, _ in passes) == sum(r.N for r in result.records)
    assert max(n for n, _ in passes) > BLOCK_READS  # drawn reads pass the budget

    def run_peak():
        tracemalloc.start()
        try:
            run(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # ~50 bytes a drawn read in a pass (int64 owners, reads and keys, the
    # flip patterns), plus the block's draws and the run's 200 records.
    bound = 128 * BLOCK_READS
    assert run_peak() <= bound
    monkeypatch.setattr(type(spec), "block_trials", spec.trials)
    assert run_peak() > bound  # the whole run in one block


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 300), lam=st.floats(0.001, 12.0), seed=st.integers(0, 2**32))
@example(M=1, lam=0.4, seed=0)  # no draws
@example(M=1, lam=3.0, seed=0)  # every draw is the one coupon
@example(M=4, lam=10.0, seed=1)  # every coupon drawn
def test_coupon_distinct_count_is_the_unique_count(M, lam, seed):
    spec = ExperimentSpec.coupon_tail(M, lam, 0.1, trials=1, base_seed=0)
    (n_draws, distinct), _ = spec.trial(generator_from_seed(seed))
    draws = generator_from_seed(seed).integers(0, M, size=round(lam * M))
    assert (n_draws, distinct) == (draws.size, np.unique(draws).size)


def test_coupon_distinct_count_edges():
    # No draws, one coupon drawn repeatedly, every coupon of four drawn.
    for M, lam, seen in [(1, 0.4, 0), (5, 0.01, 0), (1, 3.0, 1), (4, 10.0, 4)]:
        spec = ExperimentSpec.coupon_tail(M, lam, 0.1, trials=1, base_seed=0)
        assert spec.trial(generator_from_seed(1))[0][1] == seen


def test_coupon_tail_far_below_bound():
    bound = coupon_tail_bound(1000, 1.0, 0.1)
    spec = ExperimentSpec.coupon_tail(1000, 1.0, 0.1, trials=2000, base_seed=106,
                                      bound=bound)
    result = run(spec)
    assert result.summary.mean <= bound
    assert result.summary.verdict == "PASS"
    # mean distinct count near M(1 - e^-1)
    distinct = np.mean([r.distinct_seen for r in result.records])
    assert abs(distinct - 1000 * (1 - math.exp(-1))) < 5


def test_bound_check_kind_passes():
    spec = ExperimentSpec.chernoff(64, 0.05, 0.15, reads_per_trial=20_000,
                                   trials=5, base_seed=107,
                                   bound=chernoff_read_error_bound(64, 0.05, 0.15))
    result = run(spec)
    assert result.summary.metric == "tail_fraction"
    assert result.summary.verdict == "PASS"


@dataclass(frozen=True, kw_only=True)
class FailingTrials(ExperimentSpec):
    """An experiment whose every trial raises inside the harness."""

    metric: ClassVar[str] = "success_rate"

    def trial(self, rng):
        raise RuntimeError("trial failed")


def test_failed_trials_recorded_not_raised():
    spec = FailingTrials(trials=4, base_seed=108, min_rate=0.5)
    result = run(spec)
    assert len(result.records) == 4
    assert all(r.N is None and r.decode_success is None for r in result.records)
    assert math.isnan(result.summary.mean)
    assert result.summary.verdict == "FAIL"
    assert result.failed == 4
    assert result.first_error == "trial 0: RuntimeError: trial failed"


@dataclass(frozen=True, kw_only=True)
class OddTrialsRaise(ExperimentSpec):
    """Trial t returns N=t for even t and raises for odd t."""

    metric: ClassVar[str] = "success_rate"
    calls: itertools.count = field(default_factory=itertools.count)

    def trial(self, rng):
        t = next(self.calls)
        if t % 2:
            raise ZeroDivisionError(f"odd trial {t}")
        return (t,), 1.0


def test_failed_trials_counted_with_first_error():
    result = run(OddTrialsRaise(trials=5, base_seed=108))
    assert (result.failed, result.first_error) == (2, "trial 1: ZeroDivisionError: odd trial 1")
    assert [r.N for r in result.records] == [0, None, 2, None, 4]
    assert result.summary.trials == 3
    # Neither the records nor the summary carry the failures.
    assert "failed" not in result.summary.to_json()
    assert "failed" not in records_to_jsonl(result.records)
    clean = run(ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.5), trials=2, base_seed=1))
    assert (clean.failed, clean.first_error) == (0, None)


@dataclass(frozen=True, kw_only=True)
class DictRows(ExperimentSpec):
    """Rows in the old dict form, from ``trial`` or from ``settle``."""

    metric: ClassVar[str] = "success_rate"
    in_settle: bool = False

    def trial(self, rng):
        return ((1,) if self.in_settle else {"N": 1}), 1.0

    def settle(self, block):
        return [({"N": 1}, m) for _, m in block] if self.in_settle else block


@pytest.mark.parametrize("in_settle", [False, True])
def test_dict_rows_fail_their_trials(in_settle):
    # Unpacked into a record, a dict row wrote its keys as field values.
    result = run(DictRows(trials=3, base_seed=108, in_settle=in_settle))
    assert (result.failed, result.first_error) == (
        3, "trial 0: TypeError: row must be a tuple, got dict")
    # Every record is a failed trial's: its trial and seed, nothing else.
    assert all(set(r[2:]) == {None} for r in result.records)


def test_all_failed_summary_is_strict_json():
    spec = FailingTrials(trials=3, base_seed=108, min_rate=0.5)
    out = run(spec).summary.to_json()
    text = json.dumps(out, allow_nan=False)
    assert list(out) == ["metric", "mean", "stderr", "ci95", "trials",
                         "min_rate", "verdict"]
    assert json.loads(text)["mean"] is None
    assert json.loads(text)["ci95"] == [None, None]


def test_record_json_key_order():
    spec = ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.5), trials=1,
                                      base_seed=109)
    record = run(spec).records[0]
    assert list(record.to_json().keys()) == [
        "trial", "seed", "N", "distinct_seen", "decode_success",
        "erasures", "collisions", "flip_rate",
    ]


def test_record_is_immutable():
    record = run(ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.5), trials=1,
                                            base_seed=109)).records[0]
    with pytest.raises(AttributeError):
        record.N = 0
    with pytest.raises(AttributeError):
        record.flip_rate = 0.5


def test_failed_trial_record_carries_only_trial_and_seed():
    record = run(OddTrialsRaise(trials=3, base_seed=108)).records[1]
    assert record.to_json() == {**dict.fromkeys(TrialRecord._fields),
                                "trial": 1, "seed": derive_seed(108, 1)}


@pytest.mark.parametrize("trials,base_seed", [(0, 1), (2**32 + 1, 1), (1, -1)])
def test_spec_rejects_trials_or_seed_out_of_range(trials, base_seed):
    with pytest.raises(ValueError):
        ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.5), trials, base_seed)


@pytest.mark.parametrize("params", [
    dict(read_len=0),
    dict(reads_per_trial=0),
    dict(p=-0.1),
    dict(p=1.5),
    dict(p=math.nan),
    dict(delta=math.nan),
])
def test_chernoff_spec_rejects_bad_parameters(params):
    args = dict(read_len=64, p=0.05, delta=0.15, reads_per_trial=100) | params
    with pytest.raises(ValueError, match=f"^{next(iter(params))} must be"):
        ExperimentSpec.chernoff(**args, trials=1, base_seed=1)


@pytest.mark.parametrize("params", [
    dict(M=0),
    dict(lam=0.0),
    dict(lam=-1.0),
    dict(lam=math.nan),
    dict(delta=math.nan),
    dict(lam=math.inf),
])
def test_coupon_spec_rejects_bad_parameters(params):
    args = dict(M=1000, lam=1.0, delta=0.1) | params
    with pytest.raises(ValueError, match=f"^{next(iter(params))} must be"):
        ExperimentSpec.coupon_tail(**args, trials=1, base_seed=1)


@pytest.mark.parametrize("channel,codec", [
    (bern_channel(16, 8, 0.0), M16_REP3),  # L 8 vs 24
    (bern_channel(32, 8, 0.0), M16),  # M 32 vs 16
])
def test_decode_success_rejects_geometry_mismatch(channel, codec):
    with pytest.raises(ConfigError, match="^codec geometry M=.* does not match channel"):
        ExperimentSpec.decode_success(channel, codec, trials=1, base_seed=1)


@pytest.mark.parametrize("M,L", [(4, 4), (64, 8)])
def test_short_molecule_config_rejects_impossible_geometry(M, L):
    ch = ChannelParams(M=M, beta=L / math.log2(M), p=0.0,
                       sampling=SamplingSpec.poisson(1.0), L=L)
    with pytest.raises(ConfigError, match=r"^short-molecule scheme needs M >= 2\^\(L-1\)"):
        ShortMoleculeSuccess(channel=ch, trials=1, base_seed=1)


@pytest.mark.parametrize("verdict", [dict(expected=0.3), dict(tolerance=0.01)])
def test_spec_rejects_expected_without_tolerance(verdict):
    with pytest.raises(ValueError, match="expected and tolerance must be set together"):
        ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.3), 1, 1, **verdict)


@pytest.mark.parametrize("verdict", [
    dict(expected=0.3, tolerance=0.01, bound=0.5),
    dict(expected=0.3, tolerance=0.01, min_rate=0.2),
    dict(bound=0.5, min_rate=0.2),
])
def test_spec_rejects_more_than_one_verdict_rule(verdict):
    with pytest.raises(ValueError, match="at most one verdict rule"):
        ExperimentSpec.estimate_q0(bern_channel(16, 8, 0.3), 1, 1, **verdict)


def test_spec_without_trial_fails_loudly():
    # The base class has no trial: run() raises instead of recording failures.
    with pytest.raises(AttributeError):
        run(ExperimentSpec(trials=1, base_seed=1))


def test_min_rate_verdict_fails_when_unreachable():
    spec = ExperimentSpec.decode_success(bern_channel(16, 8, 0.0), M16,
                                         trials=5, base_seed=110, min_rate=2.0)
    assert run(spec).summary.verdict == "FAIL"


# ---------------------------------------------------------------------------
# reproducibility across worker counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    ExperimentSpec.estimate_q0(
        ChannelParams(M=2000, beta=2.0, p=0.0, sampling=SamplingSpec.poisson(1.0)),
        trials=40, base_seed=111),
    ExperimentSpec.decode_success(bern_channel(16, 24, 0.1, p=0.02), M16_REP3,
                                  trials=30, base_seed=112),
], ids=["estimate-q0", "decode"])
def test_worker_count_does_not_change_results(spec):
    serial = run(spec, workers=1)
    threaded = run(spec, workers=8)
    assert records_to_jsonl(serial.records) == records_to_jsonl(threaded.records)
    assert json.dumps(serial.summary.to_json()) == json.dumps(threaded.summary.to_json())


def test_rerun_is_bit_identical():
    spec = ExperimentSpec.decode_success(bern_channel(16, 8, 0.2), M16,
                                         trials=25, base_seed=113)
    assert records_to_jsonl(run(spec).records) == records_to_jsonl(run(spec).records)


def test_different_base_seed_differs():
    a = ExperimentSpec.estimate_q0(bern_channel(64, 8, 0.5), trials=5, base_seed=1)
    b = ExperimentSpec.estimate_q0(bern_channel(64, 8, 0.5), trials=5, base_seed=2)
    assert records_to_jsonl(run(a).records) != records_to_jsonl(run(b).records)


# ---------------------------------------------------------------------------
# one-shot checks
# ---------------------------------------------------------------------------

def test_verify_chernoff_default_point():
    check = verify_chernoff(64, 0.05, 0.15, reads=100_000, seed=114)
    assert check.passed
    assert check.empirical <= check.bound + 3 * check.stderr
    # empirical should also sit near the exact binomial tail
    # P(Binom(64, 0.05) >= 10) = 0.0012367131... (exact rational, frozen)
    exact = 0.001236713122242812
    assert abs(check.empirical - exact) < 4 * math.sqrt(exact * (1 - exact) / 100_000)


def test_verify_chernoff_pinned_value():
    # Pinned value: the reads run on generator_from_seed(seed), so any change
    # of random stream shows here, not just a move outside the 4-sigma band.
    check = verify_chernoff(64, 0.05, 0.15, reads=100_000, seed=114)
    assert check.empirical == 0.00119


def test_verify_chernoff_delta_near_p_trivially_passes():
    check = verify_chernoff(64, 0.05, 0.0501, reads=2000, seed=115)
    assert check.bound > 0.99
    assert check.passed


def test_verify_chernoff_noiseless():
    check = verify_chernoff(64, 0.0, 0.15, reads=2000, seed=116)
    assert check.empirical == 0.0
    assert check.passed


def test_undetected_swaps_zero_without_noise():
    assert measure_undetected_swaps(M16, bern_channel(16, 8, 0.2), 50, 117) == 0.0


def test_undetected_swaps_observed_under_heavy_noise():
    # weak outer code + heavy noise: wrong messages slip through as successes
    cfg = CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=4)
    freq = measure_undetected_swaps(cfg, bern_channel(16, 8, 0.0, p=0.2), 400, 118)
    assert freq > 0.0


def test_undetected_swaps_pinned_value():
    # Pinned value: trial t must run on generator_from_seed(derive_seed(7, t)).
    cfg = CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=4)
    freq = measure_undetected_swaps(cfg, bern_channel(16, 8, 0.1, p=0.1), 200, 7)
    assert freq == 178 / 200


def test_undetected_swaps_equal_the_shuffled_reference():
    # measure_undetected_swaps draws no shuffle: decode_output ignores read
    # order, and the shuffle is each trial's last draw on a reset stream.
    channel, trials = bern_channel(16, 24, 0.1, p=0.06), 300
    bad = 0
    for _, rng in trial_streams(121, trials):
        msg = random_message(M16_REP3, rng)
        report = decode_output(transmit(encode_message(msg, M16_REP3), channel, rng), M16_REP3)
        bad += report.ok and not np.array_equal(report.message, msg)
    assert bad > 0
    assert measure_undetected_swaps(M16_REP3, channel, trials, 121) == bad / trials


def test_trials_never_run_the_outer_decode(monkeypatch):
    # The verdict comes from the erasure count: with the RS erasure decode
    # broken, a decode-success run writes the same bytes and fails no trial,
    # while every caller that reads the message still reaches the decode.
    spec = cli._rt_presets(122, 60)["m256-bern"]
    want = run_text(spec)

    def broken(self, symbols, erased):
        raise RuntimeError("outer decode ran")

    monkeypatch.setattr(gf.ReedSolomonErasure, "decode_erasures", broken)
    result = run(spec)
    assert result.failed == 0
    assert records_to_jsonl(result.records) + json.dumps(result.summary.to_json()) == want
    msg = random_message(M16, generator_from_seed(122))
    report = decode_output(transmit(encode_message(msg, M16), bern_channel(16, 8, 0.0),
                                    generator_from_seed(123)), M16)
    assert report.ok
    with pytest.raises(RuntimeError, match="outer decode ran"):
        report.message
    with pytest.raises(RuntimeError, match="outer decode ran"):
        measure_undetected_swaps(M16, bern_channel(16, 8, 0.0), 1, 122)


def test_undetected_swaps_below_union_bound():
    # any undetected swap needs >= 1 inner-decode error, so M * P(read error)
    # bounds the frequency; repetition(5) at p=0.05 keeps that small
    cfg = CodecConfig(M=16, L=40, inner=InnerCodeSpec.repetition(5), outer_k=12)
    p = 0.05
    trials = 1000
    p_bit = sum(math.comb(5, j) * p**j * (1 - p) ** (5 - j) for j in (3, 4, 5))
    p_read = 1 - (1 - p_bit) ** 8
    bound = 16 * p_read
    freq = measure_undetected_swaps(cfg, bern_channel(16, 40, 0.0, p=p), trials, 119)
    stderr = math.sqrt(max(freq * (1 - freq), 1 / trials) / trials)
    assert freq <= bound + 3 * stderr


# ---------------------------------------------------------------------------
# degradation ordering (Monte Carlo, 3 sigma)
# ---------------------------------------------------------------------------

def _success_rate(channel, cfg, trials, seed):
    result = run(ExperimentSpec.decode_success(channel, cfg, trials, seed))
    return result.summary.mean, result.summary.stderr


def test_success_nonincreasing_in_q():
    rates = [_success_rate(bern_channel(16, 8, q), M16, 400, 120)
             for q in (0.05, 0.15, 0.30)]
    for (hi, se_hi), (lo, se_lo) in zip(rates, rates[1:]):
        assert lo <= hi + 3 * math.hypot(se_hi, se_lo)


def test_success_nonincreasing_in_p():
    rates = [_success_rate(bern_channel(16, 24, 0.0, p=p), M16_REP3, 400, 121)
             for p in (0.01, 0.06, 0.12)]
    for (hi, se_hi), (lo, se_lo) in zip(rates, rates[1:]):
        assert lo <= hi + 3 * math.hypot(se_hi, se_lo)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_lambda_sweep_coverage_fractions():
    rows = rate_vs_capacity_sweep("lambda", [1.0, 2.0, 3.0], M16, trials=20,
                                  base_seed=122, beta=5.0)
    limit = 1.0 - 1.0 / 5.0  # lambda -> infinity capacity
    fractions = [row["capacity"] / limit for row in rows]
    targets = [0.6321205588, 0.8646647168, 0.9502129316]
    assert np.allclose(fractions, targets, atol=1e-9)
    assert all(set(row) == {"lambda", "beta", "p", "q", "capacity",
                            "achieved_rate", "success_rate", "failed",
                            "first_error"} for row in rows)
    assert all(row["failed"] == 0 and row["first_error"] is None for row in rows)


def test_sweep_rows_carry_failed_trials():
    # Poisson(1e19) overflows int64 in PTRS, so every trial at that point raises.
    rows = rate_vs_capacity_sweep("lambda", [1e19, 1.0], M16, trials=2,
                                  base_seed=5, beta=2.0)
    assert rows[0]["failed"] == 2 and math.isnan(rows[0]["success_rate"])
    assert rows[0]["first_error"].startswith("trial 0: OverflowError")
    assert rows[1]["failed"] == 0 and rows[1]["first_error"] is None


def test_p_sweep_rate_stays_below_capacity():
    # table-ML inner at beta = 32/4 = 8; rate 0.140625 sits under the
    # noisy capacity everywhere on this grid
    cfg = CodecConfig(M=16, L=32, inner=InnerCodeSpec.table_ml(10, 3), outer_k=12)
    rows = rate_vs_capacity_sweep(
        "p", [0.005, 0.01, 0.02, 0.03], cfg, trials=30, base_seed=123,
        sampling=SamplingSpec.bernoulli(0.0),
    )
    for row in rows:
        assert row["beta"] == 8.0
        assert row["achieved_rate"] < row["capacity"]
        assert 0.0 <= row["success_rate"] <= 1.0


def test_q_sweep_success_degrades():
    rows = rate_vs_capacity_sweep("q", [0.0, 0.3, 0.6], M16, trials=60,
                                  base_seed=124, beta=2.0)
    assert rows[0]["success_rate"] >= rows[-1]["success_rate"]
    assert rows[0]["capacity"] > rows[-1]["capacity"]


def test_tradeoff_sweep_boundary_identity():
    rows = tradeoff_sweep(5.0, [0.5, 1.0, 2.0, 4.0])
    for row in rows:
        assert row["rs_max"] == pytest.approx(row["lambda"] * row["rr_max"], rel=1e-12)
    rs = [row["rs_max"] for row in rows]
    rr = [row["rr_max"] for row in rows]
    assert rs == sorted(rs) and rr == sorted(rr, reverse=True)


def test_region_sweep_drops_large_p_and_increases():
    rows = region_sweep([0.3, 0.01, 0.1, 0.2, 0.25])
    assert [row["p"] for row in rows] == [0.01, 0.1, 0.2]
    betas = [row["beta_min"] for row in rows]
    assert betas == sorted(betas)
    assert betas[0] == pytest.approx(2.3294833952690114, abs=1e-12)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_jsonl_round_trips_through_json(tmp_path):
    spec = ExperimentSpec.estimate_q0(bern_channel(64, 8, 0.5), trials=3,
                                      base_seed=125)
    result = run(spec)
    lines = records_to_jsonl(result.records).splitlines()
    assert len(lines) == 3
    parsed = [json.loads(line) for line in lines]
    assert [p["trial"] for p in parsed] == [0, 1, 2]
    assert all(p["decode_success"] is None for p in parsed)


# Every kind of value a record may hold, and some it should not: numpy
# scalars (json.dumps rejects np.int64 and takes np.float64) and strings.
_RECORD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
    st.sampled_from([np.int64(3), np.float64(0.5), np.bool_(True)]),
    st.text(max_size=8),
    st.sampled_from(["None", "True", "inf", "nan"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.builds(TrialRecord, *[_RECORD_VALUES] * len(TrialRecord._fields)),
                max_size=40))
def test_jsonl_is_json_dumps_of_each_record(records):
    try:
        expected = "".join(json.dumps(r.to_json()) + "\n" for r in records)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            records_to_jsonl(records)
    else:
        assert records_to_jsonl(records) == expected


def test_non_finite_record_fields_are_strict_json():
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    records = [TrialRecord(t, 1, flip_rate=x) for t, x in
               enumerate([math.nan, math.inf, -math.inf, np.float64(math.nan)])]
    lines = records_to_jsonl(records).splitlines()
    assert [json.loads(line, parse_constant=reject)["flip_rate"] for line in lines] == [None] * 4


def test_write_csv_formats_cells(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, [{"a": 1.0 / 3.0, "b": None, "c": 7}], ["a", "b", "c"])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b,c"
    assert text.splitlines()[1] == "0.3333333333,,7"


def test_summary_json_shape():
    s = Summary(metric="x", mean=0.5, stderr=0.1, ci95=(0.3, 0.7), trials=10,
                bound=1.0, verdict="PASS")
    js = s.to_json()
    assert js["ci95"] == [0.3, 0.7]
    assert "expected" not in js and js["verdict"] == "PASS"


@pytest.mark.parametrize("var, sampling, message", [
    ("beta", None, "var must be lambda, q, or p, got 'beta'"),
    ("p", None, "sweeping p requires a fixed sampling spec"),
])
def test_rate_vs_capacity_sweep_argument_checks(var, sampling, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        montecarlo.rate_vs_capacity_sweep(var, [0.1], M16, trials=1, base_seed=1,
                                          sampling=sampling)
