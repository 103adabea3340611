"""Property test: trial_streams against numpy's SeedSequence on random bases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dnachannel.rng import derive_seed, trial_streams


# Bases in [0, 2^256) have 1-8 entropy words: up to twice the pool size.
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**256 - 1), st.integers(1, 64))
def test_trial_streams_match_seed_sequence(base, trials):
    for t, (seed, rng) in enumerate(trial_streams(base, trials)):
        assert seed == derive_seed(base, t)
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert rng.bit_generator.state["state"]["key"].tolist() == key.tolist()
