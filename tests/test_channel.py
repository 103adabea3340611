"""Channel-core tests: sampling law, noise marginal, shuffling, determinism."""

import hashlib
import math
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import stats

from dnachannel import channel
from dnachannel.channel import (
    ChannelOutput,
    ChannelParams,
    CodewordSet,
    SamplingSpec,
    apply_noise,
    mean_coverage,
    q0_of,
    sample_counts,
    shuffle_reads,
    transmit,
    transmit_draws,
    transmit_traced,
)
from dnachannel.rng import (
    _ptrs_budget,
    derive_seed,
    poisson_counts,
    poisson_each,
    substream,
)

mpmath.mp.dps = 30


def rng_for(*path):
    return substream(20240811, *path)


# ---------------------------------------------------------------------------
# q0_of
# ---------------------------------------------------------------------------

def test_q0_bernoulli_is_q():
    assert q0_of(SamplingSpec.bernoulli(0.1)) == 0.1


def test_q0_poisson_matches_high_precision_oracle():
    oracle = float(mpmath.e ** -1)
    assert q0_of(SamplingSpec.poisson(1.0)) == pytest.approx(oracle, abs=1e-15)


def test_q0_poisson_pcr_matches_high_precision_oracle():
    # compound model: exp(-alpha (1 - e^{-lambda/alpha}))
    oracle = float(mpmath.e ** (-2 * (1 - mpmath.e ** -1)))
    assert q0_of(SamplingSpec.poisson_pcr(2.0, 2.0)) == pytest.approx(oracle, abs=1e-15)
    assert oracle == pytest.approx(0.2824535638505403, abs=1e-14)


def test_q0_custom_is_first_entry():
    assert q0_of(SamplingSpec.custom([0.25, 0.5, 0.25])) == 0.25


def test_custom_pmf_validation():
    with pytest.raises(ValueError):
        SamplingSpec.custom([0.5, 0.4])  # mass 0.9
    with pytest.raises(ValueError):
        SamplingSpec.custom([0.5, 0.6])  # mass 1.1
    with pytest.raises(ValueError):
        SamplingSpec.custom([1.5, -0.5])
    with pytest.raises(ValueError):
        SamplingSpec.custom([math.nan])
    with pytest.raises(ValueError):
        SamplingSpec.custom([0.5, math.nan, 0.5])


def test_custom_truncated_renormalizes_and_flags():
    # geometric(1/2) tail cut once cumulative mass reaches 1 - 1e-12
    def geometric():
        p = 0.5
        while True:
            yield p
            p *= 0.5

    spec = SamplingSpec.custom_truncated(geometric())
    assert spec.truncated
    assert abs(sum(spec.pmf) - 1.0) < 1e-12
    assert q0_of(spec) == pytest.approx(0.5, abs=1e-12)


def test_sampling_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec.bernoulli(1.2)
    with pytest.raises(ValueError):
        SamplingSpec.poisson(0.0)
    with pytest.raises(ValueError):
        SamplingSpec.poisson_pcr(1.0, 0.0)
    # NaN used to pass these checks, then hang in the PTRS rejection loop.
    with pytest.raises(ValueError):
        SamplingSpec.poisson(math.nan)
    with pytest.raises(ValueError):
        SamplingSpec.poisson(math.inf)
    with pytest.raises(ValueError):
        SamplingSpec.poisson_pcr(math.nan, 5.0)
    with pytest.raises(ValueError):
        SamplingSpec.poisson_pcr(1.0, math.nan)
    with pytest.raises(ValueError):
        poisson_counts(np.random.default_rng(0), math.nan, 3)
    with pytest.raises(ValueError, match="SamplingSpec.bernoulli"):
        SamplingSpec()


# ---------------------------------------------------------------------------
# sample_counts
# ---------------------------------------------------------------------------

def test_bernoulli_q1_never_samples():
    counts = sample_counts(SamplingSpec.bernoulli(1.0), 5, rng_for(0))
    assert counts.tolist() == [0, 0, 0, 0, 0]


def test_bernoulli_q0_samples_exactly_once():
    counts = sample_counts(SamplingSpec.bernoulli(0.0), 5, rng_for(1))
    assert counts.tolist() == [1, 1, 1, 1, 1]


def test_poisson_counts_mean_law_of_large_numbers():
    counts = sample_counts(SamplingSpec.poisson(2.0), 100_000, rng_for(2))
    assert 1.98 <= counts.mean() <= 2.02


def test_poisson_inversion_distribution_chi_square():
    counts = poisson_counts(rng_for(3), 2.0, 200_000)
    obs = np.bincount(counts, minlength=15)[:15]
    expect = stats.poisson.pmf(np.arange(15), 2.0) * counts.size
    mask = expect > 5
    chi2 = ((obs[mask] - expect[mask]) ** 2 / expect[mask]).sum()
    assert stats.chi2.sf(chi2, mask.sum() - 1) > 1e-4


def test_poisson_rejection_distribution_chi_square():
    # lam > 10 exercises the transformed-rejection path
    counts = poisson_counts(rng_for(4), 30.0, 200_000)
    obs = np.bincount(counts)
    expect = stats.poisson.pmf(np.arange(obs.size), 30.0) * counts.size
    mask = expect > 5
    chi2 = ((obs[mask] - expect[mask]) ** 2 / expect[mask]).sum()
    assert stats.chi2.sf(chi2, mask.sum() - 1) > 1e-4


def test_poisson_pcr_empirical_q0():
    spec = SamplingSpec.poisson_pcr(2.0, 2.0)
    counts = sample_counts(spec, 200_000, rng_for(5))
    miss = (counts == 0).mean()
    sigma = math.sqrt(q0_of(spec) * (1 - q0_of(spec)) / counts.size)
    assert abs(miss - q0_of(spec)) < 4 * sigma


# ---------------------------------------------------------------------------
# poisson_each: the per-molecule PCR draw without one call per molecule
# ---------------------------------------------------------------------------

def per_molecule_pcr_counts(spec, M, rng):
    """The PCR branch as one poisson_counts(rng, m, 1) call per live molecule."""
    copies = poisson_counts(rng, spec.alpha, M)
    counts = np.zeros(M, dtype=np.int64)
    live = copies > 0
    if live.any():
        means = copies[live] * (spec.lam / spec.alpha)
        counts[live] = np.array(
            [poisson_counts(rng, float(m), 1)[0] for m in means], dtype=np.int64
        )
    return counts


def uniforms_consumed(make_rng, draw):
    """How many rng.random() doubles ``draw`` consumed from a fresh generator."""
    rng = make_rng()
    draw(rng)
    nxt = rng.random()
    stream = make_rng().random(4096)
    return int(np.flatnonzero(stream == nxt)[0])


GENERATORS = {
    "philox": lambda seed: substream(20240811, 40, seed),
    "pcg64": lambda seed: np.random.default_rng(seed),
}


# Means of (20, 5) and (100, 3) fall mostly above the PTRS threshold of 10,
# those of (5, 2) on both sides, those of (2, 2) and (0.5, 0.1) below it.
@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("lam,alpha", [(20, 5), (5, 2), (100, 3), (2, 2), (0.5, 0.1)])
def test_pcr_counts_match_per_molecule_reference(lam, alpha, gen):
    spec = SamplingSpec.poisson_pcr(float(lam), float(alpha))
    for seed in range(4):
        ref_rng, rng = GENERATORS[gen](seed), GENERATORS[gen](seed)
        expected = per_molecule_pcr_counts(spec, 300, ref_rng)
        assert np.array_equal(sample_counts(spec, 300, rng), expected)
        # the generator is left where the per-molecule calls leave it
        assert rng.random() == ref_rng.random()


def test_pcr_counts_pinned_digest():
    # sha256 of the little-endian int64 counts, computed with the
    # per-molecule implementation.
    counts = sample_counts(SamplingSpec.poisson_pcr(20.0, 5.0), 256, rng_for(31))
    assert counts.sum() == 4939
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == (
        "4c82d4c0b53378106676b3cfd48a84b865cbed4cda31af9465dfdfa2b438d26f"
    )


def test_poisson_each_empty_and_zero_means_draw_nothing():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    assert poisson_each(rng, []).shape == (0,)
    assert poisson_each(rng, np.zeros(5)).tolist() == [0] * 5
    assert rng.random() == ref.random()


def test_poisson_each_mean_at_threshold_uses_inversion():
    # 10.0 is the last mean drawn by inversion: exactly one uniform.
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert poisson_each(rng, [10.0])[0] == poisson_counts(ref, 10.0, 1)[0]
        assert rng.random() == ref.random()
    make = partial(np.random.default_rng, 0)
    assert uniforms_consumed(make, lambda r: poisson_each(r, [10.0])) == 1


def test_poisson_each_tops_up_after_long_rejection_run():
    # Seed 1446 makes PTRS at mean 10.5 reject six times before accepting:
    # 14 uniforms, more than the first block holds for one PTRS mean.
    make = partial(np.random.default_rng, 1446)
    used = uniforms_consumed(make, lambda r: poisson_counts(r, 10.5, 1))
    assert used == 14 and used > _ptrs_budget(1)
    means = [10.5, 3.0, 0.0, 7.0, 10.0, 25.0]
    rng, ref = make(), make()
    expected = [poisson_counts(ref, m, 1)[0] for m in means]
    assert poisson_each(rng, means).tolist() == expected
    assert rng.random() == ref.random()


def test_poisson_each_tops_up_past_the_block_end():
    # Seed 14839 makes the first two PTRS draws at mean 10.5 take 20
    # uniforms.  The 20 inversion uniforms after them then put the third
    # PTRS mean's first uniform past the end of the first block plus one
    # budget-sized top-up.
    make = partial(np.random.default_rng, 14839)
    two = lambda r: [poisson_counts(r, 10.5, 1) for _ in range(2)]
    assert uniforms_consumed(make, two) == 20
    means = [10.5, 10.5] + [1.0] * 20 + [10.5]
    # third mean reads uniforms 40 and 41; first block 20 + budget(3)
    assert 40 + 2 > 20 + _ptrs_budget(3) + _ptrs_budget(1)
    rng, ref = make(), make()
    expected = [poisson_counts(ref, m, 1)[0] for m in means]
    assert poisson_each(rng, means).tolist() == expected
    assert rng.random() == ref.random()


def test_poisson_each_rejects_bad_means():
    rng = np.random.default_rng(0)
    for bad in ([-1.0], [math.nan], [math.inf], [[1.0]]):
        with pytest.raises(ValueError):
            poisson_each(rng, bad)


# ---------------------------------------------------------------------------
# inversion as a table lookup: same values and stream as sequential search
# ---------------------------------------------------------------------------

def lockstep_inversion(u, lam):
    """Sequential-search inversion in lockstep over all uniforms (reference)."""
    k = np.zeros(u.size, dtype=np.int64)
    p0, k_max = math.exp(-lam), int(lam + 40.0 * math.sqrt(lam) + 50.0)
    p = np.full(u.size, p0)
    cdf = p.copy()
    active = u > cdf
    while active.any():
        k[active] += 1
        p[active] *= lam / k[active]
        cdf[active] += p[active]
        active &= u > cdf
        if k.max() >= k_max:
            break
    return k


def reference_each(rng, means):
    """poisson_each drawn one mean at a time: lockstep inversion up to 10."""
    out = []
    for m in means:
        if m == 0.0:
            out.append(0)
        elif m <= 10.0:
            out.append(int(lockstep_inversion(rng.random(1), m)[0]))
        else:
            out.append(int(poisson_counts(rng, m, 1)[0]))
    return out


class ScriptedUniforms:
    """Generator stand-in returning fixed doubles in order; state = position."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.state = 0
        self.bit_generator = self

    def random(self, size):
        out = self.u[self.state:self.state + size]
        assert out.size == size
        self.state += size
        return out


INVERSION_MEANS = [1e-300, 0.3, 1.0, 5.0, 9.999, 10.0]


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("lam", INVERSION_MEANS)
def test_inversion_matches_lockstep_reference(lam, gen):
    for seed in range(5):
        for size in (0, 1, 777):
            rng, ref = GENERATORS[gen](seed), GENERATORS[gen](seed)
            counts = poisson_counts(rng, lam, size)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, lockstep_inversion(ref.random(size), lam))
            assert rng.random() == ref.random()


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_poisson_each_matches_lockstep_reference(gen):
    pick = np.random.default_rng(77)
    for seed in range(30):
        n = int(pick.integers(0, 120))
        kind = pick.integers(0, 4, n)
        means = np.select(
            [kind == 0, kind == 1, kind == 2],
            [0.0, pick.choice([0.4, 2.0, 4.0, 10.0], n), pick.uniform(1e-6, 10.0, n)],
            pick.uniform(10.5, 40.0, n),
        )
        rng, ref = GENERATORS[gen](seed), GENERATORS[gen](seed)
        assert poisson_each(rng, means).tolist() == reference_each(ref, means)
        assert rng.random() == ref.random()


def sequential_cdf(lam):
    """cdf_0..cdf_kmax summed term by term in Python doubles."""
    k_max = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    p = cdf = math.exp(-lam)
    table = [cdf]
    for k in range(1, k_max + 1):
        p *= lam / k
        cdf += p
        table.append(cdf)
    return np.array(table)


@pytest.mark.parametrize("lam", INVERSION_MEANS)
def test_inversion_boundary_uniforms(lam):
    # Each cdf entry, its neighbours on both sides, and the largest double
    # below 1, which lies past every cdf entry at 9.999 (the k_max cut-off).
    cdf = sequential_cdf(lam)
    u = np.concatenate(
        [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, 1.0 - 2.0**-53]]
    )
    u = u[u < 1.0]
    expected = lockstep_inversion(u, lam)
    assert np.array_equal(poisson_counts(ScriptedUniforms(u), lam, u.size), expected)
    # poisson_each draws a block with room for PTRS, then rewinds to it
    padded = np.concatenate([u, np.full(_ptrs_budget(0), 0.5)])
    each = poisson_each(ScriptedUniforms(padded), np.full(u.size, lam))
    assert np.array_equal(each, expected)
    if lam == 9.999:
        assert expected[-1] == cdf.size - 1 and cdf[-1] < u[-1]


def test_poisson_counts_past_int64_raises():
    # The PTRS cast used to wrap such variates to -2^63 with a RuntimeWarning.
    with pytest.raises(OverflowError):
        sample_counts(SamplingSpec.poisson(1e19), 3, np.random.default_rng(0))
    with pytest.raises(OverflowError):
        poisson_each(np.random.default_rng(0), [1e19])
    big = sample_counts(SamplingSpec.poisson(9e18), 3, np.random.default_rng(0))
    assert (np.abs(big - 9e18) < 1e11).all()


def test_custom_pmf_empirical_frequencies():
    spec = SamplingSpec.custom([0.2, 0.5, 0.3])
    counts = sample_counts(spec, 100_000, rng_for(6))
    freq = np.bincount(counts, minlength=3) / counts.size
    assert np.abs(freq - [0.2, 0.5, 0.3]).max() < 0.006
    assert mean_coverage(spec) == pytest.approx(1.1)


def test_empirical_q0_hoeffding_scale():
    # T * M >= 1e6 puts the estimate well within +-0.005 of q0
    spec = SamplingSpec.poisson(1.0)
    misses = [
        (sample_counts(spec, 100_000, rng_for(7, t)) == 0).mean() for t in range(10)
    ]
    assert abs(np.mean(misses) - q0_of(spec)) < 0.005


# ---------------------------------------------------------------------------
# apply_noise
# ---------------------------------------------------------------------------

def test_noise_p0_is_identity():
    reads = rng_for(8).integers(0, 2, size=(50, 64), dtype=np.uint8)
    assert np.array_equal(apply_noise(reads, 0.0, rng_for(9)), reads)


def test_noise_flip_fraction_binomial_ci():
    reads = np.zeros((100_000, 64), dtype=np.uint8)
    noisy = apply_noise(reads, 0.05, rng_for(10))
    assert abs(noisy.mean() - 0.05) < 0.003


def test_noise_near_half_on_single_long_read():
    read = np.zeros((1, 100_000), dtype=np.uint8)
    p = 0.499
    noisy = apply_noise(read, p, rng_for(11))
    sigma = math.sqrt(p * (1 - p) / read.size)
    assert abs(noisy.mean() - p) < 4 * sigma


def test_noise_rejects_bad_p():
    with pytest.raises(ValueError):
        apply_noise(np.zeros((1, 4), dtype=np.uint8), -0.1, rng_for(12))


NOISE_BIT_GENERATORS = [np.random.Philox, np.random.PCG64, np.random.SFC64,
                        np.random.MT19937]


# The smallest positive double, tiny p, p * 2^53 integral (0.25), the doubles
# just below 1/2 and 1, and p = 1, whose inclusive limit is 2^64 - 1.
@pytest.mark.parametrize("p", [2**-53, 5e-324, 1e-300, 0.01, 0.25, 0.5 - 2**-54,
                               1 - 2**-53, 1.0])
@pytest.mark.parametrize("bitgen", NOISE_BIT_GENERATORS, ids=lambda b: b.__name__)
def test_noise_matches_uniform_reference(monkeypatch, bitgen, p):
    # An odd word count and one word drawn first, so Philox's four-word
    # buffer is part-used on both sides of the call.  301 x 37 reads fit one
    # default chunk, and span 11 chunks of 1000 words plus a partial one;
    # 40 x 50 reads are exactly two such chunks.
    for chunk, shape in [(channel.NOISE_CHUNK, (301, 37)), (1000, (301, 37)),
                         (1000, (40, 50))]:
        monkeypatch.setattr(channel, "NOISE_CHUNK", chunk)
        reads = rng_for(12, 1).integers(0, 2, size=shape, dtype=np.uint8)
        rng, ref = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
        assert rng.random() == ref.random()
        got = apply_noise(reads, p, rng)
        assert got.dtype == np.uint8
        assert np.array_equal(got, reads ^ (ref.random(reads.shape) < p))
        # the generator is left where the reference leaves it
        assert np.array_equal(rng.random(5), ref.random(5))


@pytest.mark.parametrize("bitgen", NOISE_BIT_GENERATORS, ids=lambda b: b.__name__)
def test_noise_threshold_is_exact_at_drawn_uniforms(bitgen):
    # p equal to a drawn uniform must not flip that bit; the next double up must.
    reads = np.zeros((1, 4000), dtype=np.uint8)
    u = np.random.Generator(bitgen(6)).random(reads.shape)
    for k in (0, 1234, 3999):
        for p in (u[0, k], np.nextafter(u[0, k], 1.0)):
            got = apply_noise(reads, float(p), np.random.Generator(bitgen(6)))
            assert np.array_equal(got, (u < p).astype(np.uint8))
        assert got[0, k] == 1


def test_noise_leaves_input_unchanged():
    # A plain array, a read-only one, a non-contiguous view of a wider array
    # and a zero-stride broadcast (as BoundCheck passes); the flips land on
    # each input's bits in C order.
    bits = rng_for(12, 2).integers(0, 2, size=(20, 32), dtype=np.uint8)
    for reads in (bits[:, :16].copy(), ChannelOutput(reads=bits[:, :16]).reads,
                  bits[:, ::2], np.broadcast_to(np.uint8(1), (20, 16))):
        before = bits.copy()
        out = apply_noise(reads, 0.5, rng_for(12, 3))
        assert np.array_equal(bits, before) and out is not reads
        assert out.flags.c_contiguous and out.flags.writeable
        assert np.array_equal(out, reads ^ (rng_for(12, 3).random(reads.shape) < 0.5))


@pytest.mark.parametrize("p", [0.01, 1.0])
@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.MT19937],
                         ids=lambda b: b.__name__)
def test_noise_memory_is_output_plus_one_chunk(bitgen, p):
    # Drawing every word at once held 8 bytes per bit plus a bool mask.
    reads = np.zeros((100_000, 64), dtype=np.uint8)
    rng = np.random.Generator(bitgen(7))
    tracemalloc.start()
    try:
        apply_noise(reads, p, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One chunk: its 8-byte words or doubles and its bool mask.
    assert peak <= reads.nbytes + 9 * channel.NOISE_CHUNK + (64 << 10)


# ---------------------------------------------------------------------------
# shuffle_reads
# ---------------------------------------------------------------------------

def test_shuffle_empty():
    out = shuffle_reads(np.zeros((0, 8), dtype=np.uint8), rng_for(13))
    assert out.shape == (0, 8)


def test_shuffle_preserves_multiset():
    reads = rng_for(14).integers(0, 2, size=(200, 16), dtype=np.uint8)
    shuffled = shuffle_reads(reads, rng_for(15))
    key = lambda a: sorted(map(tuple, a))
    assert key(shuffled) == key(reads)


def test_shuffle_uniformity_chi_square():
    # 3 distinct reads; each of the 6 orderings should appear ~1/6 of the time
    reads = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    rng = rng_for(16)
    trials = 60_000
    counts = {}
    for _ in range(trials):
        perm = tuple(map(tuple, shuffle_reads(reads, rng)))
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / trials
    assert np.abs(freqs - 1 / 6).max() < 0.01


# ---------------------------------------------------------------------------
# transmit
# ---------------------------------------------------------------------------

def _params(M, p, spec, L):
    return ChannelParams(M=M, beta=L / math.log2(M), p=p, sampling=spec, L=L)


def test_transmit_identity_channel():
    molecules = rng_for(17).integers(0, 2, size=(32, 8), dtype=np.uint8)
    cw = CodewordSet(molecules=molecules)
    params = _params(32, 0.0, SamplingSpec.bernoulli(0.0), 8)
    out = transmit(cw, params, rng_for(18))
    key = lambda a: sorted(map(tuple, a))
    assert out.N == 32
    assert key(out.reads) == key(molecules)


def test_transmit_bernoulli_survival_fraction():
    M = 10_000
    cw = CodewordSet(molecules=rng_for(19).integers(0, 2, size=(M, 4), dtype=np.uint8))
    params = _params(M, 0.0, SamplingSpec.bernoulli(0.3), 4)
    out = transmit(cw, params, rng_for(20))
    assert abs(out.N / M - 0.7) < 0.02
    assert out.N <= M  # Bernoulli sampling never duplicates


def test_transmit_poisson_missing_fraction():
    M = 100_000
    cw = CodewordSet(molecules=rng_for(21).integers(0, 2, size=(M, 2), dtype=np.uint8))
    params = _params(M, 0.0, SamplingSpec.poisson(1.0), 2)
    out, sources, counts, _ = transmit_traced(cw, params, rng_for(22))
    missing = (counts == 0).mean()
    assert abs(missing - float(mpmath.e ** -1)) < 0.005
    assert out.N == counts.sum()
    assert np.array_equal(np.bincount(sources, minlength=M), counts)


def test_transmit_multiset_conservation_noise_free():
    for seed in range(5):
        cw = CodewordSet(
            molecules=rng_for(23, seed).integers(0, 2, size=(64, 6), dtype=np.uint8)
        )
        params = _params(64, 0.0, SamplingSpec.poisson(1.5), 6)
        out, sources, counts, _ = transmit_traced(cw, params, rng_for(24, seed))
        key = lambda a: sorted(map(tuple, a))
        assert key(out.reads) == key(cw.molecules[np.repeat(np.arange(64), counts)])


def test_transmit_deterministic_given_seed():
    cw = CodewordSet(molecules=rng_for(25).integers(0, 2, size=(40, 8), dtype=np.uint8))
    params = _params(40, 0.1, SamplingSpec.poisson(2.0), 8)
    a = transmit(cw, params, substream(99, 0))
    b = transmit(cw, params, substream(99, 0))
    assert np.array_equal(a.reads, b.reads)
    c = transmit(cw, params, substream(99, 1))
    assert not np.array_equal(a.reads, c.reads)  # different substream differs


def test_transmit_traced_pinned_digest():
    # sha256 of reads, then little-endian int64 sources and counts, computed
    # with the rng.random(shape) < p noise and fancy-indexed row gathers; the
    # JSONL digests only see flip counts, this sees where every flip lands.
    cw = CodewordSet(molecules=rng_for(27).integers(0, 2, size=(64, 24), dtype=np.uint8))
    params = _params(64, 0.05, SamplingSpec.poisson_pcr(12.0, 3.0), 24)
    out, sources, counts, _ = transmit_traced(cw, params, rng_for(28))
    assert out.N == 637
    digest = hashlib.sha256()
    for part in (out.reads, sources.astype("<i8"), counts.astype("<i8")):
        digest.update(part.tobytes())
    assert digest.hexdigest() == (
        "7682e8a0e38628dd884679ee6c28dc521f29d4ba62621d6d814325f0fc652fca"
    )


@pytest.mark.parametrize("p,spec", [
    (0.0, SamplingSpec.poisson(1.5)),
    (0.05, SamplingSpec.poisson_pcr(12.0, 3.0)),
    (0.05, SamplingSpec.bernoulli(1.0)),  # no reads
])
def test_transmit_draws_rebuild_transmit(p, spec):
    # Same draws in the same order: the reads follow from them, and the
    # generator ends where transmit leaves it.
    cw = CodewordSet(molecules=rng_for(27).integers(0, 2, size=(64, 24), dtype=np.uint8))
    params = _params(64, p, spec, 24)
    rng_a, rng_b = rng_for(28), rng_for(28)
    out = transmit(cw, params, rng_a)
    counts, flips, perm = transmit_draws(params, rng_b)
    reads = cw.molecules.repeat(counts, axis=0)
    assert (flips is None) == (p == 0)
    if flips is not None:
        reads ^= flips
    assert np.array_equal(out.reads, reads[perm])
    assert np.array_equal(rng_a.bit_generator.random_raw(4), rng_b.bit_generator.random_raw(4))


def test_transmit_traced_memory_is_two_read_arrays():
    # Reads far larger than one noise chunk.  Holding the gathered copy, the
    # noisy reads and the shuffled reads at once took three read-sized arrays.
    M, L = 200_000, 48
    cw = CodewordSet(molecules=np.zeros((M, L), dtype=np.uint8))
    params = _params(M, 0.01, SamplingSpec.bernoulli(0.0), L)
    rng = rng_for(31)
    tracemalloc.start()
    try:
        transmit_traced(cw, params, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two uint8 read arrays, three int64 per-read index arrays (sources,
    # the permutation, the permuted sources) and one noise chunk.
    assert peak <= 2 * M * L + 3 * 8 * M + 9 * channel.NOISE_CHUNK + (1 << 20)


@pytest.mark.parametrize("p", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("q", [0.0, 1.0])  # q = 1 samples nothing: N = 0
def test_transmit_traced_flip_count(p, q):
    cw = CodewordSet(molecules=rng_for(29).integers(0, 2, size=(200, 16), dtype=np.uint8))
    params = _params(200, p, SamplingSpec.bernoulli(q), 16)
    out, sources, counts, flips = transmit_traced(cw, params, rng_for(30))
    assert type(flips) is int
    assert flips == np.count_nonzero(out.reads != cw.molecules.take(sources, axis=0))
    assert out.N == (200 if q == 0.0 else 0)
    assert (flips > 0) == (p > 0.0 and q == 0.0)
    # The count costs no draw: the stream is transmit's.
    assert np.array_equal(out.reads, transmit(cw, params, rng_for(30)).reads)


def test_transmit_rejects_mismatched_codeword():
    cw = CodewordSet(molecules=np.zeros((4, 8), dtype=np.uint8))
    params = _params(5, 0.0, SamplingSpec.bernoulli(0.0), 8)
    with pytest.raises(ValueError):
        transmit(cw, params, rng_for(26))


# ---------------------------------------------------------------------------
# types and seed derivation
# ---------------------------------------------------------------------------

def test_channel_params_default_length_and_beta_eff():
    params = ChannelParams(M=100, beta=2.5, p=0.0, sampling=SamplingSpec.poisson(1.0))
    assert params.L == math.ceil(2.5 * math.log2(100))
    assert params.beta_eff >= params.beta


def test_channel_params_validation():
    spec = SamplingSpec.poisson(1.0)
    with pytest.raises(ValueError):
        ChannelParams(M=1, beta=2.0, p=0.0, sampling=spec)
    with pytest.raises(ValueError):
        ChannelParams(M=16, beta=2.0, p=0.5, sampling=spec)
    with pytest.raises(ValueError):
        ChannelParams(M=16, beta=2.0, p=0.0, sampling=spec, L=4)  # beta_eff 1 < 2


@pytest.mark.parametrize("beta,L", [(math.nan, 8), (math.nan, 0), (math.inf, 0),
                                    (math.inf, 8), (0.0, 8), (-1.0, 0)])
def test_channel_params_rejects_non_finite_or_non_positive_beta(beta, L):
    with pytest.raises(ValueError, match=r"^beta must be in \(0, inf\), got"):
        ChannelParams(M=16, beta=beta, p=0.0, sampling=SamplingSpec.bernoulli(0.0), L=L)


def test_codeword_set_rejects_non_bits():
    with pytest.raises(ValueError):
        CodewordSet(molecules=np.full((2, 4), 3, dtype=np.uint8))


@pytest.mark.parametrize("molecules,error", [
    (np.array([[256, 1]]), "only 0/1"),  # the uint8 cast would wrap it to 0
    (np.array([[-1, 1]]), "only 0/1"),
    (np.array([[0.7, 1.2]]), "bool or integer"),  # the cast would truncate to 0, 1
    (np.array([[0.0, 1.0]]), "bool or integer"),
])
def test_codeword_set_checks_before_the_cast(molecules, error):
    with pytest.raises(ValueError, match=error):
        CodewordSet(molecules=molecules)


@pytest.mark.parametrize("molecules", [
    np.array([[0, 1], [1, 0]]), np.array([[False, True], [True, False]]),
])
def test_codeword_set_takes_integer_or_bool_bits(molecules):
    cw = CodewordSet(molecules=molecules)
    assert cw.molecules.dtype == np.uint8
    assert np.array_equal(cw.molecules, molecules)


@pytest.mark.parametrize("reads", [
    np.array([[2, 300]]), np.array([[-1, 0]]), np.array([[0.7, 1.0]]),
    np.array([[np.nan, 1.0]]),
])
def test_channel_output_rejects_reads_the_cast_would_change(reads):
    # [[2, 300]] used to be stored as [[2, 44]].
    with pytest.raises(ValueError, match="do not fit uint8 unchanged"):
        ChannelOutput(reads=reads)


def test_channel_output_casts_reads_that_fit():
    out = ChannelOutput(reads=np.array([[2, 44], [0, 1]]))
    assert out.reads.dtype == np.uint8 and out.reads.tolist() == [[2, 44], [0, 1]]
    assert ChannelOutput(reads=np.array([[1.0, 0.0]])).reads.tolist() == [[1, 0]]


def test_channel_output_counts_rows():
    out = ChannelOutput(reads=np.zeros((7, 3), dtype=np.uint8))
    assert out.N == 7 and out.L == 3


def test_derive_seed_is_pure_function():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)  # per-molecule depth
