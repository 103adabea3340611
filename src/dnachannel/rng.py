"""Deterministic random-number plumbing.

All randomness in this package flows through numpy's Philox bit generator,
a counter-based PRNG, seeded through ``numpy.random.SeedSequence`` with an
index path as the ``spawn_key``, so every stream is a pure function of a base
seed and a few integers.  ``substream(base, *path)`` is the generator for that
path.  A run's trial t runs on a different stream:
``generator_from_seed(derive_seed(base, t))``, a generator seeded with the
trial's derived seed, which is what a trial record's ``seed`` field holds.
So a trial's output does not depend on which trials ran before it, and
``generator_from_seed(record.seed)`` replays it alone.

``trial_streams`` seeds a run's trials by one of two paths, then resets one
shared Philox generator to each trial's key, so the stream is bit for bit
that of ``generator_from_seed(derive_seed(base, t))``.  A run of at most
``_PER_TRIAL_MAX`` trials asks numpy's SeedSequence for each trial's seed
and key, exactly as those two functions do.  A longer run seeds its trials
together, ``_SEED_BLOCK`` trials at a time, one seed per row of uint32
arrays.  Every trial's seed shares the base seed's words, which numpy has
already mixed into ``SeedSequence(base).pool``: ``_seed_words`` hashes only
the trial index into that pool and applies the output hash.  Each seed's
Philox key is numpy's ``mix_entropy`` and ``generate_state`` of the seed's
two words, which ``_philox_keys`` transcribes for that fixed entropy.  That
pass costs about as much for one trial as for a few dozen, numpy's per-call
overhead being most of it, so the two paths cross at about four trials
(timings at ``_PER_TRIAL_MAX``).

Bit contract.  ``rng.integers(0, 2, size=n, dtype=np.uint8)`` spends one
32-bit draw on every 4 bits, low byte first, and keeps each byte's top bit;
``word_bits`` is that decode, over the little-endian bytes of any unsigned
random words.  ``random_bits(rng, n)`` feeds it ceil(n/4) full-range uint32
draws, which give those bits on every bit generator.  A 64-bit generator
serves its 32-bit draws as the low, then the high half of each word, so
from a state with no 32-bit half pending the bytes of
``bit_generator.random_raw(ceil(n/8))`` hold the same bits.  The two leave
different states when ceil(n/4) is odd: numpy keeps the unused high half
pending, the raw draw drops it.  Only a 32-bit draw (``integers`` over a
range below 2^32, ``permutation``) would read that half; doubles and raw
words never do.

Stream contract of the Poisson samplers.  ``poisson_counts(rng, lam, size)``
uses one uniform per variate for lam <= 10 (inversion) and a pair (u, v)
per attempt above that (PTRS), in array order.  Inversion is the first cdf
entry >= u over a cached table of cdf_0..cdf_kmax, capped at k_max; the
table holds the doubles sequential search would sum, so the lookup returns
what that search would.  ``poisson_each(rng, means)`` returns exactly
``[poisson_counts(rng, m, 1)[0] for m in means]``, element by element in
index order, and leaves the generator in the same state.  It walks the means
in one in-order pass over uniforms it draws in blocks, and never draws one
it does not consume: a zero mean takes nothing, a mean up to 10 one uniform
looked up in the same table, a larger mean PTRS's pairs with the same
arithmetic.  Each block holds exactly the fewest uniforms the means not yet
served can use, one per inversion mean and a pair per PTRS mean, so only a
PTRS rejection asks for another.  This relies on ``rng.random(n)`` giving
the same doubles as n calls of ``rng.random(1)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

__all__ = ["derive_seed", "substream", "trial_streams", "random_bits",
           "word_bits", "poisson_counts", "poisson_each"]

# Runs of at most this many trials are seeded one trial at a time.  A whole
# trial_streams run, timeit on a 2-vCPU Xeon (Python 3.11, numpy 2.4), per
# trial vs vectorised: 30/50/66/87/104/124 us vs 72/75/75/76/76/77 us for
# 1/2/3/4/5/6 trials.  Four trials is the first the vectorised path wins.
_PER_TRIAL_MAX = 3

# Longer runs are seeded this many trials at a time, so seeding memory stays
# bounded however many trials a run has (up to 2^32).  Seeding 10^6 trials at
# once took 0.36 s and +122 MB peak RSS before the first trial (host above);
# a block takes ~1 ms and +0.1 MB, at the same cost per trial, and holds a
# whole 2000-trial batch.
_SEED_BLOCK = 1 << 12


def derive_seed(base_seed: int, *path: int) -> int:
    """Derive a 64-bit substream seed from a base seed and an index path."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(base_seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the substream at ``path`` under ``base_seed``."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seed=ss))


def generator_from_seed(seed: int) -> np.random.Generator:
    """Philox generator seeded directly with an integer (e.g. a derived seed)."""
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))


def trial_streams(base_seed: int, trials: int):
    """Yield ``(seed, rng)`` for trials 0..trials-1 of a run, in order.

    ``seed`` is ``derive_seed(base_seed, t)`` and ``rng`` is in the state
    ``generator_from_seed(seed)`` would start in.  ``rng`` is one generator
    reset for every trial, so a trial must be done with it before the next
    pair is drawn.
    """
    if base_seed < 0:
        raise ValueError(f"base seed must be >= 0, got {base_seed}")
    if not 1 <= trials <= 1 << 32:
        raise ValueError(f"trials must be in [1, 2^32], got {trials}")
    bitgen = np.random.Philox(_any_seed())
    rng = np.random.Generator(bitgen)
    inner = {"counter": (0, 0, 0, 0)}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for seeds, keys in _seed_blocks(base_seed, trials):
        for seed, key in zip(seeds, keys):
            inner["key"] = key
            bitgen.state = state
            yield seed, rng


def _seed_blocks(base_seed: int, trials: int):
    """Yield ``(seeds, keys)`` for consecutive blocks of a run's trials."""
    if trials <= _PER_TRIAL_MAX:
        seeds = [derive_seed(base_seed, t) for t in range(trials)]
        yield seeds, [np.random.SeedSequence(s).generate_state(2, np.uint64)
                      for s in seeds]
        return
    for start in range(0, trials, _SEED_BLOCK):
        words = _seed_words(base_seed, start, min(start + _SEED_BLOCK, trials))
        yield _as_uint64(words)[:, 0].tolist(), _philox_keys(words)


# numpy's SeedSequence (numpy/random/bit_generator.pyx), vectorised over
# rows: one seed per row, one 32-bit pool word per column.  All arithmetic
# wraps mod 2^32 on uint32 arrays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# uint32 scalars: cheaper than Python ints as array operands.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_HALF = np.uint32(16)
_POOL = 4
# Calls of the cross-mix: round s hashes word s into each word d != s in
# turn (calls 4+3s..6+3s).  Entry [s, s] is a placeholder call.
_CROSS_CALLS = np.array([[_POOL + 3 * s + d - (d >= s) for d in range(_POOL)]
                         for s in range(_POOL)])


@lru_cache(maxsize=1)
def _any_seed() -> np.random.SeedSequence:
    """Seeds trial_streams' generator before its first reset.

    Cheaper than Philox(key=...), which draws OS entropy for a SeedSequence
    it never uses.  Built on first use: numpy imports numpy.random lazily.
    """
    return np.random.SeedSequence(0)


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(2, n) uint32: the running hash constant before and after each of n calls."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    out = np.array([c[:-1], c[1:]], dtype=np.uint32)
    out.setflags(write=False)
    return out


def _hashmix(value, consts):
    """numpy's hashmix; ``consts``: each call's hash constant before and after."""
    h = value ^ consts[0]
    h *= consts[1]
    h ^= h >> _HALF
    return h


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    r ^= r >> _HALF
    return r


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of 32-bit words, low first, as 64-bit values (numpy's order)."""
    return words.astype("<u4", copy=False).view("<u8")


def _seed_words(base_seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 2) uint32 words of derive_seed(base_seed, t) for t in
    start..stop-1, low word first.

    The entropy is the base seed's n >= 4 words (zero-padded, as numpy pads
    before a spawn key, and as its pool mixes a missing word), then t.
    ``SeedSequence(base_seed).pool`` has mixed the shared words; t, word n,
    is hashed into pool words 0 and 1 by calls 4n and 4n+1.
    ``trial_streams`` has checked the base seed and 0 <= start < stop <= 2^32.
    """
    base_seed = int(base_seed)
    n = max(_POOL, -(-base_seed.bit_length() // 32))
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * n + 2)
    t = np.arange(start, stop, dtype=np.uint32)[:, None]
    pool = np.random.SeedSequence(base_seed).pool[:2]
    pool = _mix(pool, _hashmix(t, a[:, _POOL * n:]))
    return _hashmix(pool, _hash_constants(_INIT_B, _MULT_B, 2))


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 keys SeedSequence(seed).generate_state(2, np.uint64).

    ``words`` holds each seed's low and high 32-bit words, shape (n, 2), the
    entropy of numpy's ``mix_entropy``; a seed below 2^32 is numpy's entropy
    [lo], which mixes like [lo, 0].
    """
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = np.zeros((len(words), _POOL), dtype=np.uint32)
    pool[:, :2] = words  # words 2 and 3 hash a zero
    pool = _hashmix(pool, a[:, :_POOL])
    # No update of round s changes word s, so one array step does all
    # three; it writes a placeholder into column s, restored afterwards.
    cross = a[:, _CROSS_CALLS]
    for s in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, s:s + 1], cross[:, s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    return _as_uint64(_hashmix(pool, _hash_constants(_INIT_B, _MULT_B, _POOL)))


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.integers(0, 2, size=n, dtype=np.uint8)``, leaving the generator
    in the same state (see the module docstring)."""
    return word_bits(rng.integers(0, 1 << 32, size=-(-n // 4), dtype=np.uint32), n)


def word_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits along the last axis of random unsigned words: the top
    bit of each little-endian byte, as uint8 (the module docstring's bit
    contract).  May overwrite ``words``; returns a view.
    """
    # Shifted in place: a second buffer per call cost ~117 minor page
    # faults per archive-m4096 batch in a steady-state loop (0.06 without).
    bits = words.astype(words.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    bits >>= 7
    return bits[..., :n]


# Switch point between the two Poisson sampling algorithms.
_PTRS_THRESHOLD = 10.0


def poisson_counts(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. Poisson(lam) variates with a documented algorithm.

    For lam <= 10 uses inversion (one uniform per variate); above that,
    Hormann's transformed-rejection method PTRS (two uniforms per attempt).
    Both consume the stream in array order, so results are reproducible
    from the generator state alone.
    """
    if not 0 <= lam < math.inf:  # PTRS would loop forever on NaN and overflow on inf
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0:
        return np.zeros(size, dtype=np.int64)
    if lam <= _PTRS_THRESHOLD:
        return _invert(lam, rng.random(size))
    return _poisson_ptrs(rng, lam, size)


def _inversion_cdf(lam: float) -> np.ndarray:
    """cdf_0..cdf_kmax of Poisson(lam), built the way sequential search would.

    p_k = p_{k-1} * (lam / k) and cdf_k = cdf_{k-1} + p_k, both accumulated
    left to right, so every entry is the double the search loop would reach.
    """
    # P(K > lam + 40*sqrt(lam) + 50) is far below the 1e-12 truncation mass.
    k_max = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    steps = np.empty(k_max + 1)
    steps[0] = math.exp(-lam)
    steps[1:] = lam / np.arange(1, k_max + 1)
    return np.cumsum(np.cumprod(steps))


@lru_cache(maxsize=256)
def _search_table(lam: float) -> np.ndarray:
    """cdf_0..cdf_{kmax-1} of ``_inversion_cdf(lam)``, read-only.  Searching
    it returns k_max for any u above them, as the cap would."""
    table = _inversion_cdf(float(lam))[:-1]
    table.setflags(write=False)
    return table


def _invert(lam: float, u: np.ndarray) -> np.ndarray:
    """First k with u <= cdf_k, capped at k_max: inversion by sequential search."""
    return _search_table(lam).searchsorted(u).astype(np.int64, copy=False)


def _ptrs_constants(lam: float) -> tuple[float, float, float, float, float]:
    # Hormann (1993), algorithm PTRS; valid for lam >= 10.
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    return a, b, inv_alpha, v_r, math.log(lam)


def _poisson_ptrs(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    a, b, inv_alpha, v_r, log_lam = _ptrs_constants(lam)

    out = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    while pending.size:
        u = rng.random(pending.size) - 0.5
        v = rng.random(pending.size)
        us = 0.5 - np.abs(u)
        # us = 0 (a uniform of exactly 0.0) would make 2a/us infinite; that
        # attempt divides by 1 instead and is rejected (k = -1), as
        # poisson_each's walk skips it.
        live = us > 0.0
        kf = np.floor((2.0 * a / np.where(live, us, 1.0) + b) * u + lam + 0.43)
        # A candidate outside int64 becomes -1, which the full test rejects
        # (it needs k >= 0); one the squeeze accepts is too large to return.
        fits = live & (np.abs(kf) < 2.0**63)
        k = np.where(fits, kf, -1.0).astype(np.int64)

        accept = (us >= 0.07) & (v <= v_r)
        if (accept & ~fits).any():
            raise OverflowError(f"a Poisson({lam}) variate does not fit in int64")
        # Squeeze failed: do the full acceptance test on the remainder.
        check = ~accept & (k >= 0) & ((us >= 0.013) | (v <= us))
        if check.any():
            kc = k[check]
            with np.errstate(divide="ignore"):  # a ratio of 0 has log -inf: accept
                lhs = np.log(v[check] * inv_alpha / (a / (us[check] ** 2) + b))
            rhs = -lam + kc * log_lam - _log_factorial(kc)
            accept[check] = lhs <= rhs

        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return out


def _log_factorial(k: np.ndarray) -> np.ndarray:
    # Squeeze failures are rare, so the per-element lgamma loop stays cheap.
    return np.array([math.lgamma(float(x) + 1.0) for x in k])


def poisson_each(rng: np.random.Generator, means) -> np.ndarray:
    """Draw one Poisson(means[i]) variate per element, in index order.

    Values and the generator's state afterwards are exactly those of
    ``[poisson_counts(rng, m, 1)[0] for m in means]`` (see the module
    docstring): every uniform drawn is one those calls would consume, drawn
    in a few blocks instead of a call per mean.  Every floating-point
    operation matches :func:`_invert` or :func:`_poisson_ptrs` on a size-1
    draw.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 1:
        raise ValueError(f"means must be 1-D, got shape {means.shape}")
    if not (np.isfinite(means) & (means >= 0.0)).all():
        raise ValueError("means must be finite and >= 0")
    live = means > 0.0  # a zero mean draws nothing
    lams = means[live]
    # Uniforms per step: an inversion takes one, a PTRS attempt a pair.
    steps = np.where(lams > _PTRS_THRESHOLD, 2, 1)
    # least[j]: the fewest uniforms means j onward can use.
    least = steps[::-1].cumsum()[::-1].tolist()
    uni = rng.random(least[0] if least else 0).tolist()
    log = np.log  # the ufunc _poisson_ptrs uses; math.log may differ in an ulp
    tables: dict[float, tuple] = {}  # lam: (uniforms per step, table or constants)
    ks = []
    pos = 0
    for j, lam in enumerate(lams.tolist()):
        entry = tables.get(lam)
        if entry is None:
            entry = tables[lam] = ((1, _search_table(lam).tolist())
                                   if lam <= _PTRS_THRESHOLD else (2, _ptrs_constants(lam)))
        step, c = entry
        while True:  # one pass per inversion, one per PTRS attempt
            if pos + step > len(uni):  # a PTRS rejection ate a later mean's share
                uni += rng.random(pos + least[j] - len(uni)).tolist()
            if step == 1:
                k = bisect_left(c, uni[pos])  # as _invert's searchsorted
                pos += 1
                break
            a, b, inv_alpha, v_r, log_lam = c
            u = uni[pos] - 0.5
            v = uni[pos + 1]
            pos += 2
            us = 0.5 - abs(u)
            if us == 0.0:
                # 2a/us is infinite: the array path floors to a negative k
                # and rejects.
                continue
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                break
            if k >= 0 and (us >= 0.013 or v <= us):
                ratio = v * inv_alpha / (a / (us * us) + b)
                # A ratio of 0 (v = 0, or an underflow) has log -inf and
                # accepts, as in _poisson_ptrs, without numpy's warning.
                if ratio == 0.0 or log(ratio) <= -lam + k * log_lam - math.lgamma(k + 1.0):
                    break
        ks.append(k)
    out = np.zeros(means.size, dtype=np.int64)
    out[live] = ks
    return out
