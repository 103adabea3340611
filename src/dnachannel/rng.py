"""Deterministic random-number plumbing.

All randomness in this package flows through numpy's Philox bit generator,
a counter-based PRNG.  Substreams are derived with ``numpy.random.SeedSequence``
using the substream's index path as the ``spawn_key``, so the stream for
(seed, trial 17) or (seed, trial 17, molecule 3) is a pure function of those
integers.  That makes parallel trial execution bit-identical to serial
execution regardless of worker count.

Stream contract of the Poisson samplers.  ``poisson_counts(rng, lam, size)``
uses one uniform per variate for lam <= 10 (inversion) and a pair (u, v)
per attempt above that (PTRS), in array order.  ``poisson_each(rng, means)``
returns exactly ``[poisson_counts(rng, m, 1)[0] for m in means]``, element
by element in index order, and leaves the generator in the same state: it
draws one block of uniforms, walks it with the same arithmetic, then rewinds
the generator and re-draws exactly the number of uniforms the walk consumed.
Both rely on ``rng.random(n)`` giving the same doubles as n calls of
``rng.random(1)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["derive_seed", "substream", "poisson_counts", "poisson_each"]


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


# Switch point between the two Poisson sampling algorithms.
_PTRS_THRESHOLD = 10.0


def poisson_counts(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. Poisson(lam) variates with a documented algorithm.

    For lam <= 10 uses inversion by sequential search (one uniform per
    variate); above that, Hormann's transformed-rejection method PTRS
    (two uniforms per attempt).  Both consume the stream in array order,
    so results are reproducible from the generator state alone.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0:
        return np.zeros(size, dtype=np.int64)
    if lam <= _PTRS_THRESHOLD:
        return _poisson_inversion(rng, lam, size)
    return _poisson_ptrs(rng, lam, size)


def _poisson_inversion(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    u = rng.random(size)
    k = np.zeros(size, dtype=np.int64)
    p0, k_max = _inversion_constants(lam)
    p = np.full(size, p0)
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


def _inversion_constants(lam: float) -> tuple[float, int]:
    # P(K > lam + 40*sqrt(lam) + 50) is far below the 1e-12 truncation mass.
    return math.exp(-lam), int(lam + 40.0 * math.sqrt(lam) + 50.0)


def _inversion_each(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`_poisson_inversion` with one mean per uniform.

    Same arithmetic and cut-off per element; the constants are taken once
    per distinct mean.  The scalar-mean loop stays separate because routing
    it through here (the mean broadcast per element) measured ~4 % slower
    per short-l4-m64 trial.
    """
    uniq, which = np.unique(lam, return_inverse=True)
    consts = np.array([_inversion_constants(x) for x in uniq.tolist()]).reshape(-1, 2)
    p, k_max = consts[which].T
    cdf = p.copy()
    k = np.zeros(u.size, dtype=np.int64)
    act = np.flatnonzero(u > cdf)
    while act.size:
        k[act] += 1
        p[act] *= lam[act] / k[act]
        cdf[act] += p[act]
        act = act[(u[act] > cdf[act]) & (k[act] < k_max[act])]
    return k


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
        kf = np.floor((2.0 * a / us + b) * u + lam + 0.43)
        # A candidate outside int64 becomes -1, which the full test rejects
        # (it needs k >= 0); one the squeeze accepts is too large to return.
        fits = np.abs(kf) < 2.0**63
        k = np.where(fits, kf, -1.0).astype(np.int64)

        accept = (us >= 0.07) & (v <= v_r)
        if (accept & ~fits).any():
            raise OverflowError(f"a Poisson({lam}) variate does not fit in int64")
        # Squeeze failed: do the full acceptance test on the remainder.
        check = ~accept & (k >= 0) & ((us >= 0.013) | (v <= us))
        if check.any():
            kc = k[check]
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
    docstring), at the cost of one block draw instead of one call per mean.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 1:
        raise ValueError(f"means must be 1-D, got shape {means.shape}")
    if not (np.isfinite(means) & (means >= 0.0)).all():
        raise ValueError("means must be finite and >= 0")
    out = np.zeros(means.size, dtype=np.int64)
    inv = (means > 0.0) & (means <= _PTRS_THRESHOLD)
    ptrs = np.flatnonzero(means > _PTRS_THRESHOLD)
    # Uniforms consumed by each element: none for a zero mean, one per
    # inversion, two per PTRS attempt (filled in by the walk).
    used = inv.astype(np.int64)
    state = rng.bit_generator.state
    block = rng.random(int(used.sum()) + _ptrs_budget(ptrs.size))
    inv_before = (np.cumsum(used) - used)[ptrs].tolist()
    out[ptrs], used[ptrs], block = _walk_ptrs(
        rng, block, means[ptrs].tolist(), inv_before
    )
    start = np.cumsum(used) - used
    total = int(used.sum())
    if block.size < total:
        block = np.concatenate((block, rng.random(total - block.size)))
    out[inv] = _inversion_each(block[start[inv]], means[inv])
    # Rewind, then consume exactly what per-element calls would have.
    rng.bit_generator.state = state
    rng.random(total)
    return out


def _ptrs_budget(n: int) -> int:
    # PTRS takes ~1.2-1.35 attempts per variate for lam > 10; budget 1.5.
    return 3 * n + 4


def _walk_ptrs(rng, block, lams, inv_before):
    """Scalar PTRS over the uniform block, mean by mean.

    ``inv_before[j]`` counts the inversion uniforms that precede mean j in
    the stream.  Returns each mean's variate, the uniforms it consumed, and
    the block, topped up when rejections exhausted it.  Every floating-point
    operation matches :func:`_poisson_ptrs` on a size-1 draw.
    """
    uni = block.tolist()
    log = np.log  # the ufunc _poisson_ptrs uses; math.log may differ in an ulp
    consts: dict[float, tuple] = {}
    ks, taken = [], []
    ptrs_used = 0
    for j, (lam, before) in enumerate(zip(lams, inv_before)):
        c = consts.get(lam)
        if c is None:
            c = consts[lam] = _ptrs_constants(lam)
        a, b, inv_alpha, v_r, log_lam = c
        first = pos = before + ptrs_used
        while True:
            if pos + 2 > len(uni):
                # pos may already lie past the block's end: inversion
                # uniforms before mean j skip over rejections that ran long.
                more = rng.random(pos + 2 - len(uni) + _ptrs_budget(len(lams) - j))
                block = np.concatenate((block, more))
                uni.extend(more.tolist())
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
                lhs = log(v * inv_alpha / (a / (us * us) + b))
                if lhs <= -lam + k * log_lam - math.lgamma(k + 1.0):
                    break
        ks.append(k)
        taken.append(pos - first)
        ptrs_used += pos - first
    return ks, taken, block
