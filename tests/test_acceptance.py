"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria run on the same fixed-seed presets the CLI
exposes (``dnachannel simulate/roundtrip --preset ... --strict``), so this
suite and the CLI agree by construction.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dnachannel import capacity as cap
from dnachannel.channel import ChannelOutput
from dnachannel.cli import DEFAULT_SEED, _rt_presets, _sim_presets
from dnachannel.codec import (
    achieved_rate,
    decode_output,
    encode_message,
    random_message,
    short_molecule_encode,
)
from dnachannel.montecarlo import records_to_jsonl, run, verify_chernoff
from dnachannel.rng import substream
from stat_helpers import permanent, pooled_chi2_pvalue

mpmath.mp.dps = 40


def check(num: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_coverage_fractions():
    limit = cap.noise_free_capacity(0.0, 5.0).value
    targets = {1: 0.6321, 2: 0.8647, 3: 0.9502}
    worst = 0.0
    for lam, target in targets.items():
        q0 = math.exp(-lam)
        fraction = cap.noise_free_capacity(q0, 5.0).value / limit
        worst = max(worst, abs(fraction - target))
    check(1, "coverage fractions at depth 1,2,3", worst < 1e-4,
          f"max |fraction - target| = {worst:.2e}")


def test_criterion_02_cost_optimal_coverage():
    q = 10_000
    lam = cap.optimal_lambda(q)
    residual = abs(math.exp(lam) - lam - 1.0 - q)
    ok = 9.16 <= lam <= 9.26 and residual < 1e-6 * q
    check(2, "cost-optimal coverage depth", ok,
          f"lambda={lam:.6f}, residual={residual:.2e}")


def test_criterion_03_unseen_fraction_concentration():
    presets = _sim_presets(DEFAULT_SEED, None)
    poisson = run(presets["q0-poisson1"]).summary
    bern = run(presets["q0-bern03"]).summary
    ok_p = abs(poisson.mean - math.exp(-1)) <= 0.005
    ok_b = abs(bern.mean - 0.3) <= 0.015
    check(3, "unseen-fraction concentration", ok_p and ok_b,
          f"poisson miss={poisson.mean:.5f} (target e^-1), "
          f"bernoulli miss={bern.mean:.5f} (target 0.3)")


def test_criterion_04_counting_oracle():
    def brute_force(a, b):
        return sum(1 for v in itertools.product(range(b + 1), repeat=a)
                   if sum(v) == b)

    exact_ok = all(
        cap.counting_T(a, b) == brute_force(a, b)
        for a in range(1, 7) for b in range(1, 7)
    )
    bound_ok = all(
        math.log2(cap.counting_T(a, b)) <= cap.counting_T_log_upper(a, b) + 1e-12
        for a in range(1, 51) for b in range(1, 51)
    )
    check(4, "counting exact + log upper bound", exact_ok and bound_ok)


def test_criterion_05_mds_erasure_exhaustive():
    presets = _rt_presets(DEFAULT_SEED, None)
    cfg = presets["m16-clean"].codec
    rng = substream(DEFAULT_SEED, 5)
    msg = random_message(cfg, rng)
    cw = encode_message(msg, cfg)

    four_ok = 0
    for pattern in itertools.combinations(range(16), 4):
        keep = np.setdiff1d(np.arange(16), pattern)
        report = decode_output(ChannelOutput(reads=cw.molecules[keep]), cfg)
        four_ok += report.ok and bool(np.array_equal(report.message, msg))
    five_failed = 0
    for _ in range(1000):
        drop = rng.choice(16, size=5, replace=False)
        keep = np.setdiff1d(np.arange(16), drop)
        report = decode_output(ChannelOutput(reads=cw.molecules[keep]), cfg)
        five_failed += not report.ok
    ok = four_ok == 1820 and five_failed == 1000
    check(5, "MDS erasure exhaustive (M=16, k=12)", ok,
          f"4-erasure recoveries {four_ok}/1820, 5-erasure failures {five_failed}/1000")


def test_criterion_06_end_to_end_clean_ish():
    # independent oracle: with p=0 and Bernoulli(q), failures are exactly
    # the event Binom(256, 0.05) > 26; exact rational tail
    p = Fraction(1, 20)
    predicted = sum(
        Fraction(math.comb(256, j)) * p**j * (1 - p) ** (256 - j)
        for j in range(27)
    )
    summary = run(_rt_presets(DEFAULT_SEED, None)["m256-bern"]).summary
    ok = summary.mean >= 0.99 and float(predicted) >= 0.998
    check(6, "end-to-end M=256 Bernoulli(0.05)", ok,
          f"success={summary.mean:.4f} over 1000 trials, "
          f"oracle P(success)={float(predicted):.6f}")


def test_criterion_07_noisy_end_to_end():
    preset = _rt_presets(DEFAULT_SEED, None)["m16-rep3-noisy"]
    summary = run(preset).summary
    rate = achieved_rate(preset.codec)
    ok = summary.mean >= 0.95 and rate == Fraction(1, 8)
    check(7, "noisy end-to-end repetition(3)", ok,
          f"success={summary.mean:.4f}, rate={float(rate)} (exact 1/8)")


def test_criterion_08_chernoff_bound_empirical():
    result = verify_chernoff(64, 0.05, 0.15, reads=100_000, seed=DEFAULT_SEED)
    # the stated constant is the bound rounded to 4 significant digits;
    # check against both it and the exactly evaluated bound
    ok = (result.empirical <= 0.01114 + 3 * result.stderr) and result.passed
    check(8, "Chernoff read-error bound", ok,
          f"empirical={result.empirical:.5f} <= bound={result.bound:.5f} + 3se")


def test_criterion_09_coupon_tail_bound():
    summary = run(_sim_presets(DEFAULT_SEED, None)["coupon-m1000"]).summary
    ok = summary.mean <= 0.14941
    check(9, "coupon-collector tail bound", ok,
          f"empirical={summary.mean:.5f} <= 0.14941 over 10000 trials")


def test_criterion_10_blahut_arimoto_agreement():
    worst = 0.0
    for p in (0.01, 0.11, 0.25):
        matrix = np.array([[1 - p, p], [p, 1 - p]])
        closed = 1.0 - cap.binary_entropy(p)
        worst = max(worst, abs(cap.dmc_capacity_ba(matrix) - closed))
    check(10, "alternating-maximization vs closed form", worst < 1e-6,
          f"max |BA - (1-H(p))| = {worst:.2e}")


def test_criterion_11_region_checks():
    inside = cap.in_capacity_region(0.01, 2.35)
    margin = cap.region_margin(0.01, 2.35)
    outside_high_p = not cap.in_capacity_region(0.3, 100.0)
    # documented discrepancy: (0.1, 6.4) fails the inequality
    discrepancy = cap.region_margin(0.1, 6.4)
    ok = (inside and abs(margin - 0.0075) < 1e-4 and outside_high_p
          and discrepancy < 0 and not cap.in_capacity_region(0.1, 6.4))
    check(11, "proven-region membership", ok,
          f"margin(0.01,2.35)={margin:.6f}, margin(0.1,6.4)={discrepancy:.4f}")


def test_criterion_12_tradeoff_identity():
    rng = np.random.default_rng(DEFAULT_SEED)
    ok = True
    for _ in range(100):
        lam = rng.uniform(0.01, 20.0)
        beta = rng.uniform(1.0001, 50.0)
        pt = cap.tradeoff_point(lam, beta)
        ok &= abs(pt.rs_max - lam * pt.rr_max) <= math.ulp(pt.rs_max)
        ok &= pt.rs_max < 1.0 - 1.0 / beta
    check(12, "tradeoff identity rs = lambda*rr", ok)


def test_criterion_13_short_molecule_scheme():
    # oracle: 8 segments x 8 replicas each under Poisson(1):
    # P(full recovery) = (1 - e^-8)^8
    oracle = float((1 - mpmath.e ** -8) ** 8)
    payload = short_molecule_encode(
        np.zeros(8, dtype=np.uint8), 64, 4
    )  # validates the 2^(L-1) = 8 bit payload shape
    summary = run(_rt_presets(DEFAULT_SEED, None)["short-l4-m64"]).summary
    ok = summary.mean >= 0.99 and payload.M == 64 and oracle >= 0.99
    check(13, "short-molecule replication scheme", ok,
          f"recovery={summary.mean:.5f} over 10000 trials, oracle={oracle:.5f}")


def test_criterion_14_reproducibility():
    presets = _sim_presets(DEFAULT_SEED, 10)
    rt = _rt_presets(DEFAULT_SEED, 50)
    ok = True
    for spec in (presets["q0-bern03"], rt["m16-rep3-noisy"]):
        serial = records_to_jsonl(run(spec, workers=1).records).encode()
        threaded = records_to_jsonl(run(spec, workers=8).records).encode()
        repeat = records_to_jsonl(run(spec, workers=1).records).encode()
        ok &= serial == threaded == repeat
    check(14, "byte-identical JSONL at 1 and 8 workers", ok)


# ---------------------------------------------------------------------------
# Exact two-sided oracles.  The preset verdicts above are one-sided and
# loose: short-l4-m64's min_rate 0.99 passes any Poisson coverage above
# ~0.84, not just 1.  These test each preset's pooled count against its
# exact law, two-sided, at its default seed and three more: a binomial
# test, or a chi-square test of coupon-m1000's distinct counts.
# ---------------------------------------------------------------------------

EXACT_ALPHA = 1e-3
EXACT_SEEDS = [DEFAULT_SEED, 1, 2, 3]


def successes(spec) -> int:
    result = run(spec)
    assert result.failed == 0
    return sum(r.decode_success for r in result.records)


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_short_molecule_recovery(seed):
    # 8 segments x 8 copies under Poisson(1), p = 0: (1 - e^-8)^8
    spec = _rt_presets(seed, None)["short-l4-m64"]
    ch = spec.channel
    exact = cap.short_molecule_success(ch.sampling.q0(), ch.M, ch.L)
    assert exact == pytest.approx(0.997319, abs=1e-6)
    assert cap.binomial_test(successes(spec), spec.trials, exact) > EXACT_ALPHA


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_index_codec_recovery(seed):
    # Identity inner code at p = 0: a trial fails iff more than M - k of
    # the M molecules are lost, Bin(256, 0.05) > 26.
    spec = _rt_presets(seed, None)["m256-bern"]
    ch = spec.channel
    exact = cap.binomial_cdf(ch.M - spec.codec.outer_k, ch.M, ch.sampling.q0())
    assert exact == pytest.approx(0.999763, abs=1e-6)
    assert cap.binomial_test(successes(spec), spec.trials, exact) > EXACT_ALPHA


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_chernoff_tail_reads(seed):
    # A read is in the tail when flips >= delta * L, the trial's comparison;
    # its flips are Bin(L, p), and the pooled tail reads Bin(reads, tail).
    spec = _sim_presets(seed, None)["chernoff-l64"]
    L = spec.read_len
    first = next(k for k in range(L + 1) if k >= spec.delta * L)
    exact = 1.0 - cap.binomial_cdf(first - 1, L, spec.p)
    assert exact == pytest.approx(0.0012367, rel=1e-4)
    reads = spec.trials * spec.reads_per_trial
    tail = run(spec).summary.mean * reads
    assert tail == pytest.approx(round(tail), abs=1e-6)
    assert cap.binomial_test(round(tail), reads, exact) > EXACT_ALPHA


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_coupon_distinct_counts(seed):
    # The Chebyshev bound (0.149) passes any law that rarely reaches 733
    # distinct; the exact occupancy law has mean 632.30 and P(>= 733) ~ 4e-25.
    spec = _sim_presets(seed, None)["coupon-m1000"]
    pmf = cap.coupon_distinct_pmf(spec.M, round(spec.lam * spec.M))
    d = np.arange(spec.M + 1)
    assert (pmf * d).sum() == pytest.approx(632.3046, abs=1e-4)
    assert pmf[733:].sum() == pytest.approx(3.926e-25, rel=1e-3)
    result = run(spec)
    assert result.failed == 0
    distinct = np.array([r.distinct_seen for r in result.records])
    assert distinct.size == 10_000
    assert pooled_chi2_pvalue(distinct, pmf) > EXACT_ALPHA


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_clean_recovery(seed):
    # m16-clean loses no molecule and flips no bit, so every trial decodes.
    spec = _rt_presets(seed, None)["m16-clean"]
    assert successes(spec) == spec.trials


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_noisy_index_recovery_and_flips(seed):
    # Bernoulli(0) reads each of the M = 2^4 molecules once, so a trial has
    # no erasure iff its decoded indices form a permutation.  Each index bit
    # decodes wrong with probability e = P(rep(3) majority flips),
    # independently, so that is the permanent of A[i][j] = e^d (1-e)^(4-d),
    # d = popcount(i ^ j); (1-e)^64 would leave out index swaps.
    spec = _rt_presets(seed, None)["m16-rep3-noisy"]
    ch = spec.channel
    e = 3 * ch.p**2 * (1 - ch.p) + ch.p**3
    d = np.array([[bin(i ^ j).count("1") for j in range(ch.M)] for i in range(ch.M)])
    exact = permanent(e**d * (1 - e) ** (math.log2(ch.M) - d))
    assert exact == pytest.approx(0.9270239, abs=1e-7)
    result = run(spec)
    assert result.failed == 0
    clean = sum(r.erasures == 0 for r in result.records)
    assert cap.binomial_test(clean, spec.trials, exact) > EXACT_ALPHA
    # Every read's L bits flip independently with probability p.
    bits = ch.M * ch.L
    flips = sum(round(r.flip_rate * bits) for r in result.records)
    assert cap.binomial_test(flips, spec.trials * bits, ch.p) > EXACT_ALPHA
