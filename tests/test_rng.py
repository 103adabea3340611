"""Per-run seeding against numpy's SeedSequence, and random_bits against
``Generator.integers``."""

import tracemalloc

import numpy as np
import pytest

from dnachannel import rng as rng_module
from dnachannel.rng import (
    _PER_TRIAL_MAX,
    _philox_keys,
    _seed_words,
    derive_seed,
    generator_from_seed,
    random_bits,
    trial_streams,
    word_bits,
)

# 2^128 - 1 fills the SeedSequence pool's four 32-bit words; 2^128 and
# 2^130 + 1 have a fifth, which numpy mixes in past the pool.
BASE_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 9, 2**128 - 1, 2**128, 2**130 + 1]


def plain(state):
    """A bit-generator state dict with its arrays as lists, for ==."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# A start of 0, and the last 300 trials of the uint32 trial column.
@pytest.mark.parametrize("trials,start", [pytest.param(1, 0, id="1"),
                                          pytest.param(300, 0, id="300"),
                                          pytest.param(300, 2**32 - 300, id="300-top")])
@pytest.mark.parametrize("base", BASE_SEEDS)
def test_seed_words_match_derive_seed(base, trials, start):
    words = _seed_words(base, start, start + trials)
    assert words.shape == (trials, 2) and words.dtype == np.uint32
    seeds = [lo | hi << 32 for lo, hi in words.tolist()]
    assert seeds == [derive_seed(base, t) for t in range(start, start + trials)]


@pytest.mark.parametrize("trials", [1, 300])
@pytest.mark.parametrize("base", BASE_SEEDS)
def test_philox_keys_match_seed_sequence(base, trials):
    words = _seed_words(base, 0, trials)
    keys = _philox_keys(words)
    expected = [np.random.SeedSequence(lo | hi << 32).generate_state(2, np.uint64)
                for lo, hi in words.tolist()]
    assert keys.shape == (trials, 2)
    assert keys.tolist() == np.array(expected).tolist()


def test_philox_keys_for_one_word_and_extreme_seeds():
    # Seeds below 2^32 are one entropy word; 0 and 2^64 - 1 are the ends.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = np.array([[s & 0xFFFFFFFF, s >> 32] for s in seeds], dtype=np.uint32)
    expected = [np.random.SeedSequence(s).generate_state(2, np.uint64) for s in seeds]
    assert _philox_keys(words).tolist() == np.array(expected).tolist()


@pytest.mark.parametrize("trials", [1, 300])
@pytest.mark.parametrize("base", BASE_SEEDS)
def test_shared_generator_state_matches_reference(base, trials):
    for t, (seed, rng) in enumerate(trial_streams(base, trials)):
        assert seed == derive_seed(base, t)
        reference = generator_from_seed(seed)
        assert plain(rng.bit_generator.state) == plain(reference.bit_generator.state)
        # Leave a half-used 64-bit word behind for the next reset to clear.
        rng.integers(0, 2, size=1, dtype=np.uint8)
        assert rng.bit_generator.state["has_uint32"] == 1


def test_shared_generator_draws_match_reference():
    for seed, rng in trial_streams(77, 5):
        reference = generator_from_seed(seed)
        assert rng.random(7).tolist() == reference.random(7).tolist()
        assert (rng.integers(0, 256, size=9, dtype=np.uint8).tolist()
                == reference.integers(0, 256, size=9, dtype=np.uint8).tolist())


def test_trial_streams_reuse_one_generator():
    rngs = {id(rng) for _, rng in trial_streams(3, 4)}
    assert len(rngs) == 1


@pytest.mark.parametrize("base,trials", [(-1, 1), (0, 0), (0, 2**32 + 1)])
def test_trial_streams_reject_bad_arguments(base, trials):
    with pytest.raises(ValueError):
        next(trial_streams(base, trials))


# Every count seeded trial by trial, and the first three seeded together.
@pytest.mark.parametrize("trials", range(1, _PER_TRIAL_MAX + 4))
@pytest.mark.parametrize("base", [0, 12345, 2**130 + 1])
def test_trial_streams_either_side_of_per_trial_max(base, trials):
    # Both seeding paths must give derive_seed's seeds and SeedSequence's
    # keys on the shared generator.
    rngs = set()
    for t, (seed, rng) in enumerate(trial_streams(base, trials)):
        assert seed == derive_seed(base, t)
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert rng.bit_generator.state["state"]["key"].tolist() == key.tolist()
        assert plain(rng.bit_generator.state) == plain(
            generator_from_seed(seed).bit_generator.state)
        rng.random(3)  # leave the counter moved for the next reset
        rngs.add(id(rng))
    assert t == trials - 1 and len(rngs) == 1


def test_trial_streams_across_seed_blocks(monkeypatch):
    # 30 trials in blocks of 7: four full blocks and a partial one.
    def seeds_and_draws():
        return [(seed, rng.random(3).tolist()) for seed, rng in trial_streams(9, 30)]

    whole = seeds_and_draws()
    monkeypatch.setattr(rng_module, "_SEED_BLOCK", 7)
    assert seeds_and_draws() == whole
    for t in (0, 6, 7, 13, 14, 27, 28, 29):
        seed = derive_seed(9, t)
        assert whole[t] == (seed, generator_from_seed(seed).random(3).tolist())


def test_trial_streams_first_yield_memory_is_bounded():
    # Seeding all 10^5 trials up front held ~12 MB before the first trial.
    tracemalloc.start()
    try:
        next(trial_streams(7, 100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# random_bits
# ---------------------------------------------------------------------------

# Every numpy bit generator: four 64-bit ones, which buffer the high half
# of a word for the next 32-bit draw, and MT19937, whose draws are 32-bit.
BIT_GENERATORS = [np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                  np.random.SFC64, np.random.MT19937]


def pair(bitgen_type, buffered):
    """Two generators in one state; ``buffered`` leaves a 32-bit half pending."""
    a, b = (np.random.Generator(bitgen_type(2024)) for _ in range(2))
    for g in (a, b):
        g.integers(0, 2**32, size=buffered, dtype=np.uint32)
    return a, b


# Windows of 71 sizes starting at first - 1: every size up to 70, and the
# sizes around 2048 bits; each window adds archive-m4096's 43200 and 43201.
@pytest.mark.parametrize("first", [1, 2048])
@pytest.mark.parametrize("buffered", [0, 1])
@pytest.mark.parametrize("bitgen_type", BIT_GENERATORS)
def test_random_bits_match_integers(bitgen_type, buffered, first):
    for n in [*range(first - 1, first + 70), 43200, 43201]:
        a, b = pair(bitgen_type, buffered)
        if bitgen_type is not np.random.MT19937:
            assert a.bit_generator.state["has_uint32"] == buffered
        expected = a.integers(0, 2, size=n, dtype=np.uint8)
        got = random_bits(b, n)
        assert got.dtype == np.uint8 and got.shape == (n,)
        assert got.tolist() == expected.tolist(), n
        assert plain(b.bit_generator.state) == plain(a.bit_generator.state), n
        # A pending high half (if any) is served first, then fresh words.
        assert (b.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
                == a.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
        assert b.random(2).tolist() == a.random(2).tolist()


# Fresh Philox states, as trial_streams leaves them, one per row of the words
# the short-molecule block pass stacks.  For K = 1, 2 and 4 integers takes one
# 32-bit draw and leaves the word's other half pending; doubles never read it.
@pytest.mark.parametrize("K", [1, 2, 4, 8, 64])
def test_word_bits_of_raw_words_match_integers(K):
    seeds = [2024, 7, 99]
    ref = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    raw = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    expected = [g.integers(0, 2, size=K, dtype=np.uint8).tolist() for g in ref]
    got = word_bits(np.stack([g.bit_generator.random_raw(-(-K // 8)) for g in raw]), K)
    assert got.dtype == np.uint8 and got.tolist() == expected
    for a, b in zip(ref, raw):
        assert a.bit_generator.state["has_uint32"] == (K <= 4)
        assert b.random(5).tolist() == a.random(5).tolist()
