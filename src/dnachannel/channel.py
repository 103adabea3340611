"""The noisy shuffling-sampling channel.

A storage experiment writes M binary molecules of length L.  The channel
(1) samples each molecule a random number of times according to a sampling
distribution, (2) flips each bit of every sampled copy independently with
probability p, and (3) shuffles the surviving reads uniformly, discarding
all ordering information.

Every operation is pure given an explicit ``numpy.random.Generator``; the
stream consumption order inside :func:`transmit` is fixed (counts, then
noise, then one shuffle permutation), so identical inputs and seed give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import poisson_counts, poisson_each

__all__ = [
    "SamplingSpec",
    "ChannelParams",
    "CodewordSet",
    "ChannelOutput",
    "q0_of",
    "sample_counts",
    "apply_noise",
    "shuffle_reads",
    "transmit",
    "transmit_traced",
]

# Finite pmf tables must cover all but this much tail mass.
PMF_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SamplingSpec:
    """How often each stored molecule is sampled (the distribution Q).

    Variants:
      * ``bernoulli``: never sampled with probability q, once with 1-q.
      * ``poisson``: counts are Poisson(lam); lam is the coverage depth.
      * ``poisson_pcr``: amplification draws a Poisson(alpha) number of
        physical copies, then sequencing samples the pool at effective
        depth lam/alpha per copy.
      * ``custom``: explicit finite pmf over counts 0, 1, 2, ...
    """

    kind: str
    q: float | None = None
    lam: float | None = None
    alpha: float | None = None
    pmf: tuple[float, ...] | None = None
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.q is None or not 0.0 <= self.q <= 1.0:
                raise ValueError(f"bernoulli q must be in [0, 1], got {self.q}")
        elif self.kind == "poisson":
            if self.lam is None or self.lam <= 0.0:
                raise ValueError(f"poisson lambda must be > 0, got {self.lam}")
        elif self.kind == "poisson_pcr":
            if self.lam is None or self.lam <= 0.0:
                raise ValueError(f"poisson_pcr lambda must be > 0, got {self.lam}")
            if self.alpha is None or self.alpha <= 0.0:
                raise ValueError(f"poisson_pcr alpha must be > 0, got {self.alpha}")
        elif self.kind == "custom":
            if not self.pmf:
                raise ValueError("custom pmf table is empty")
            arr = np.asarray(self.pmf, dtype=float)
            if (arr < 0.0).any() or (arr > 1.0).any():
                raise ValueError("pmf entries must be probabilities")
            if abs(arr.sum() - 1.0) > PMF_TOLERANCE:
                raise ValueError(
                    f"pmf must sum to 1 within {PMF_TOLERANCE}, got {arr.sum()!r}"
                )
        else:
            raise ValueError(f"unknown sampling kind {self.kind!r}")

    @classmethod
    def bernoulli(cls, q: float) -> "SamplingSpec":
        return cls(kind="bernoulli", q=q)

    @classmethod
    def poisson(cls, lam: float) -> "SamplingSpec":
        return cls(kind="poisson", lam=lam)

    @classmethod
    def poisson_pcr(cls, lam: float, alpha: float) -> "SamplingSpec":
        return cls(kind="poisson_pcr", lam=lam, alpha=alpha)

    @classmethod
    def custom(cls, pmf) -> "SamplingSpec":
        return cls(kind="custom", pmf=tuple(float(x) for x in pmf))

    @classmethod
    def custom_truncated(cls, pmf_terms) -> "SamplingSpec":
        """Build a custom spec from a (possibly unbounded) pmf term iterable.

        Accumulates terms until the cumulative mass reaches 1 - PMF_TOLERANCE,
        renormalizes, and flags the truncation in metadata.
        """
        table: list[float] = []
        total = 0.0
        cut = False
        for term in pmf_terms:
            table.append(float(term))
            total += float(term)
            if total >= 1.0 - PMF_TOLERANCE:
                cut = True
                break
        if not cut:
            raise ValueError(
                f"pmf terms sum to {total}, never reaching 1 - {PMF_TOLERANCE}"
            )
        pmf = tuple(x / total for x in table)
        return cls(kind="custom", pmf=pmf, truncated=True)


def q0_of(spec: SamplingSpec) -> float:
    """Exact probability that one molecule is sampled zero times."""
    if spec.kind == "bernoulli":
        return float(spec.q)
    if spec.kind == "poisson":
        return math.exp(-spec.lam)
    if spec.kind == "poisson_pcr":
        # E[(e^{-lam/alpha})^A] with A ~ Poisson(alpha): the mgf of A at
        # -lam/alpha, giving exp(-alpha * (1 - e^{-lam/alpha})).
        return math.exp(-spec.alpha * (1.0 - math.exp(-spec.lam / spec.alpha)))
    if spec.kind == "custom":
        return float(spec.pmf[0])
    raise ValueError(f"unknown sampling kind {spec.kind!r}")


def mean_coverage(spec: SamplingSpec) -> float:
    """Expected number of reads per stored molecule, E[N_i]."""
    if spec.kind == "bernoulli":
        return 1.0 - spec.q
    if spec.kind in ("poisson", "poisson_pcr"):
        return float(spec.lam)
    if spec.kind == "custom":
        return float(sum(i * p for i, p in enumerate(spec.pmf)))
    raise ValueError(f"unknown sampling kind {spec.kind!r}")


@dataclass(frozen=True)
class ChannelParams:
    """One storage experiment: M molecules of L bits, BSC(p), sampling spec.

    L defaults to ceil(beta * log2 M).  When beta*log2(M) is not integral
    the effective ratio ``beta_eff = L / log2(M)`` exceeds beta; capacity
    comparisons should use ``beta_eff``.
    """

    M: int
    beta: float
    p: float
    sampling: SamplingSpec
    L: int = 0

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0.0 <= self.p < 0.5:
            raise ValueError(f"p must be in [0, 0.5), got {self.p}")
        if self.L == 0:
            object.__setattr__(self, "L", math.ceil(self.beta * math.log2(self.M)))
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.beta_eff < self.beta - 1e-12:
            raise ValueError(
                f"L={self.L} gives beta_eff={self.beta_eff:.6g} < beta={self.beta}"
            )

    @property
    def beta_eff(self) -> float:
        return self.L / math.log2(self.M)


@dataclass(frozen=True)
class CodewordSet:
    """Ordered list of M molecules, stored as an (M, L) uint8 bit array."""

    molecules: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.molecules, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("molecules must be a 2-D (M, L) bit array")
        if not (arr <= 1).all():  # uint8 already, so only 0 and 1 pass
            raise ValueError("molecules must contain only 0/1")
        object.__setattr__(self, "molecules", arr)
        arr.setflags(write=False)

    @property
    def M(self) -> int:
        return self.molecules.shape[0]

    @property
    def L(self) -> int:
        return self.molecules.shape[1]


@dataclass(frozen=True)
class ChannelOutput:
    """Unordered multiset of reads, stored as a shuffled (N, L) bit array."""

    reads: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.reads, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("reads must be a 2-D (N, L) bit array")
        object.__setattr__(self, "reads", arr)
        arr.setflags(write=False)

    @property
    def N(self) -> int:
        return self.reads.shape[0]

    @property
    def L(self) -> int:
        return self.reads.shape[1]


def sample_counts(spec: SamplingSpec, M: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the per-molecule sample counts N_1..N_M i.i.d. from the sampling spec."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if spec.kind == "bernoulli":
        return (rng.random(M) >= spec.q).astype(np.int64)
    if spec.kind == "poisson":
        return poisson_counts(rng, spec.lam, M)
    if spec.kind == "poisson_pcr":
        copies = poisson_counts(rng, spec.alpha, M)
        counts = np.zeros(M, dtype=np.int64)
        live = copies > 0
        if live.any():
            # N_i | A_i=a ~ Poisson(a * lam / alpha); one conditional draw
            # per molecule with surviving copies, in index order, consuming
            # the stream as one poisson_counts(rng, m, 1) call per molecule
            # would (the per-element contract in rng's module docstring).
            means = copies[live] * (spec.lam / spec.alpha)
            counts[live] = poisson_each(rng, means)
        return counts
    if spec.kind == "custom":
        cum = np.cumsum(spec.pmf)
        u = rng.random(M)
        counts = np.searchsorted(cum, u, side="right")
        # Residual mass above the table (only possible within PMF_TOLERANCE
        # roundoff) falls into the last bin.
        return np.minimum(counts, len(spec.pmf) - 1).astype(np.int64)
    raise ValueError(f"unknown sampling kind {spec.kind!r}")


def apply_noise(reads: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p (BSC)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    reads = np.asarray(reads, dtype=np.uint8)
    if p == 0.0 or reads.size == 0:
        return reads.copy()
    flips = rng.random(reads.shape) < p
    return reads ^ flips.astype(np.uint8)


def shuffle_reads(reads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return the reads in uniformly random order (multiset preserved)."""
    reads = np.asarray(reads)
    perm = rng.permutation(reads.shape[0])
    return reads[perm]


def transmit(
    codeword: CodewordSet, params: ChannelParams, rng: np.random.Generator
) -> ChannelOutput:
    """Run one channel use: sample counts, expand, corrupt, shuffle."""
    return transmit_traced(codeword, params, rng)[0]


def transmit_traced(
    codeword: CodewordSet, params: ChannelParams, rng: np.random.Generator
) -> tuple[ChannelOutput, np.ndarray, np.ndarray]:
    """Like :func:`transmit`, but also return (source_index, counts).

    ``source_index[i]`` is the molecule each output read was sampled from.
    Debug side-channel for test harnesses only; decoders must not see it.
    """
    if codeword.M != params.M:
        raise ValueError(f"codeword has {codeword.M} molecules, params say {params.M}")
    if codeword.L != params.L:
        raise ValueError(f"codeword length {codeword.L} != params L={params.L}")
    counts = sample_counts(params.sampling, params.M, rng)
    sources = np.repeat(np.arange(params.M), counts)
    expanded = codeword.molecules[sources]
    noisy = apply_noise(expanded, params.p, rng)
    perm = rng.permutation(noisy.shape[0])
    return ChannelOutput(reads=noisy[perm]), sources[perm], counts
