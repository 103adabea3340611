"""Per-run seeding: the vectorised SeedSequence against numpy's own."""

import numpy as np
import pytest

from dnachannel.rng import (
    _philox_keys,
    _seed_words,
    derive_seed,
    generator_from_seed,
    trial_streams,
)

# 2^130 + 1 has five 32-bit words, one more than the SeedSequence pool.
BASE_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 9, 2**130 + 1]


def plain(state):
    """A bit-generator state dict with its arrays as lists, for ==."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("trials", [1, 300])
@pytest.mark.parametrize("base", BASE_SEEDS)
def test_seed_words_match_derive_seed(base, trials):
    words = _seed_words(base, trials)
    assert words.shape == (trials, 2) and words.dtype == np.uint32
    seeds = [lo | hi << 32 for lo, hi in words.tolist()]
    assert seeds == [derive_seed(base, t) for t in range(trials)]


@pytest.mark.parametrize("trials", [1, 300])
@pytest.mark.parametrize("base", BASE_SEEDS)
def test_philox_keys_match_seed_sequence(base, trials):
    words = _seed_words(base, trials)
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
