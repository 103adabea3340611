"""The noisy shuffling-sampling channel.

A storage experiment writes M binary molecules of length L.  The channel
(1) samples each molecule a random number of times according to a sampling
distribution, (2) flips each bit of every sampled copy independently with
probability p, and (3) shuffles the surviving reads uniformly, discarding
all ordering information.

The sampling distribution is a :class:`SamplingSpec` subclass --
:class:`Bernoulli`, :class:`Poisson`, :class:`PoissonPCR` or
:class:`CustomPMF` -- a frozen value that holds its parameters, and
nothing derived from them, and draws its own counts.

Every operation is pure given an explicit ``numpy.random.Generator``; the
stream consumption order inside :func:`transmit` is fixed (counts, then
noise, then one shuffle permutation), so identical inputs and seed give
bit-identical outputs.  :func:`transmit_draws` makes the first two of those
draws, the counts and the noise, without building the reads, for callers
that apply them to many codewords at once and do not need the read order.
:func:`transmit_unshuffled` makes the same two draws and builds the reads,
in source order, for a caller with one codeword whose decoder ignores the
order.

Noise stream contract: :func:`apply_noise` consumes one 64-bit word per bit,
in C order, and flips the bit when the word is at most the integer limit
``(ceil(p * 2^53) << 11) - 1`` (2^64 - 1, every word, when p = 1).  For the
bit generators whose ``random()`` double is ``(word >> 11) * 2^-53``
(Philox, PCG64, PCG64DXSM, SFC64) this is exactly ``rng.random(shape) < p``;
any other bit generator (MT19937) draws ``rng.random(shape) < p`` itself.
The words are drawn ``NOISE_CHUNK`` at a time, so beyond its output the
noise needs memory for one chunk, whatever the number of reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import poisson_counts, poisson_each

__all__ = [
    "SamplingSpec", "Bernoulli", "Poisson", "PoissonPCR", "CustomPMF",
    "ChannelParams",
    "CodewordSet",
    "ChannelOutput",
    "sample_counts",
    "apply_noise",
    "shuffle_reads",
    "transmit",
    "transmit_traced",
    "transmit_unshuffled",
    "transmit_draws",
]

# Finite pmf tables must cover all but this much tail mass.
PMF_TOLERANCE = 1e-12

# apply_noise draws this many 64-bit words at a time (1 MiB).  On a 2-vCPU
# Xeon (numpy 2.4), 2^13..2^17 words time alike per call: 30-55 ms on
# 131 000 reads x 48 bits, against 63-74 ms drawing every word at once.  In
# a deep-pcr-m256 trial (~245 000 bits) 2^13..2^16 cost 150-220 minor page
# faults per trial and ~10 % of its speed: glibc sizes its heap trimming
# from the largest block freed, and the trial's other read-sized arrays
# then outgrow it.  2^17 keeps that trial fault-free at 1 MB less peak RSS.
NOISE_CHUNK = 1 << 17


class SamplingSpec:
    """How often each stored molecule is sampled (the distribution Q): one frozen
    subclass per distribution, built by the classmethods below, implements
    ``q0()``, ``mean_coverage()`` and ``sample(M, rng)``."""

    def __init__(self, *args, **kwargs):
        raise ValueError("SamplingSpec is abstract; build one with SamplingSpec.bernoulli, "
                         ".poisson, .poisson_pcr, .custom or .custom_truncated")

    @classmethod
    def bernoulli(cls, q: float) -> "SamplingSpec":
        return Bernoulli(q)

    @classmethod
    def poisson(cls, lam: float) -> "SamplingSpec":
        return Poisson(lam)

    @classmethod
    def poisson_pcr(cls, lam: float, alpha: float) -> "SamplingSpec":
        return PoissonPCR(lam, alpha)

    @classmethod
    def custom(cls, pmf) -> "SamplingSpec":
        return CustomPMF(tuple(float(x) for x in pmf))

    @classmethod
    def custom_truncated(cls, pmf_terms) -> "SamplingSpec":
        """Build a custom spec from a (possibly unbounded) pmf term iterable.

        Accumulates terms until the cumulative mass reaches 1 - PMF_TOLERANCE,
        renormalizes, and flags the truncation in metadata.
        """
        table: list[float] = []
        total = 0.0
        for term in map(float, pmf_terms):
            table.append(term)
            total += term
            if total >= 1.0 - PMF_TOLERANCE:
                return CustomPMF(tuple(x / total for x in table), truncated=True)
        raise ValueError(f"pmf terms sum to {total}, never reaching 1 - {PMF_TOLERANCE}")


@dataclass(frozen=True)
class Bernoulli(SamplingSpec):
    """Never sampled with probability q, once with probability 1 - q."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"bernoulli q must be in [0, 1], got {self.q}")

    def q0(self) -> float:
        return float(self.q)

    def mean_coverage(self) -> float:
        return 1.0 - self.q

    def sample(self, M: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(M) >= self.q).astype(np.int64)


@dataclass(frozen=True)
class Poisson(SamplingSpec):
    """Poisson(lam) counts; lam is the coverage depth."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:  # False for NaN too
            raise ValueError(f"poisson lambda must be finite and > 0, got {self.lam}")

    def q0(self) -> float:
        return math.exp(-self.lam)

    def mean_coverage(self) -> float:
        return float(self.lam)

    def sample(self, M: int, rng: np.random.Generator) -> np.ndarray:
        return poisson_counts(rng, self.lam, M)


@dataclass(frozen=True)
class PoissonPCR(SamplingSpec):
    """Poisson(alpha) PCR copies per molecule, each read at depth lam/alpha."""

    lam: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.alpha < math.inf):
            raise ValueError(f"poisson_pcr lambda and alpha must be finite and > 0, "
                             f"got lambda={self.lam}, alpha={self.alpha}")

    def q0(self) -> float:
        # E[(e^{-lam/alpha})^A], the mgf of A ~ Poisson(alpha) at -lam/alpha.
        return math.exp(-self.alpha * (1.0 - math.exp(-self.lam / self.alpha)))

    def mean_coverage(self) -> float:
        return float(self.lam)

    def sample(self, M: int, rng: np.random.Generator) -> np.ndarray:
        copies = poisson_counts(rng, self.alpha, M)
        # N_i | A_i=a ~ Poisson(a * lam / alpha): one conditional draw per
        # molecule in index order, consuming the stream as one
        # poisson_counts(rng, m, 1) call per molecule would (the per-element
        # contract in rng's module docstring); no copies, no draw.
        return poisson_each(rng, copies * (self.lam / self.alpha))


@dataclass(frozen=True)
class CustomPMF(SamplingSpec):
    """Explicit finite pmf over counts 0, 1, 2, ...; ``truncated`` marks a cut tail."""

    pmf: tuple[float, ...]
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.pmf, dtype=float)
        if not ((arr >= 0.0) & (arr <= 1.0)).all():  # also rejects NaN
            raise ValueError("pmf entries must be probabilities")
        if abs(arr.sum() - 1.0) > PMF_TOLERANCE:
            raise ValueError(f"pmf must sum to 1 within {PMF_TOLERANCE}, got {arr.sum()!r}")

    def q0(self) -> float:
        return float(self.pmf[0])

    def mean_coverage(self) -> float:
        return float(sum(i * p for i, p in enumerate(self.pmf)))

    def sample(self, M: int, rng: np.random.Generator) -> np.ndarray:
        # Residual mass above the table (only possible within PMF_TOLERANCE
        # roundoff) falls into the last bin, found by searching all but it.
        cdf = np.cumsum(self.pmf)[:-1]
        return cdf.searchsorted(rng.random(M), side="right").astype(np.int64, copy=False)


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
        if not 0.0 < self.beta < math.inf:  # False for NaN too
            raise ValueError(f"beta must be in (0, inf), got {self.beta}")
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
        arr = np.asarray(self.molecules)
        if arr.ndim != 2:
            raise ValueError("molecules must be a 2-D (M, L) bit array")
        if arr.dtype.kind not in "biu":
            raise ValueError(f"molecules must be a bool or integer array, got {arr.dtype}")
        # Checked before the cast to uint8, which would wrap 256 to 0.
        bits = arr <= 1 if arr.dtype == np.uint8 else (arr == 0) | (arr == 1)
        if not bits.all():
            raise ValueError("molecules must contain only 0/1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
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
    """Multiset of reads, an (N, L) bit array in the order its producer gave it."""

    reads: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.reads)
        if arr.ndim != 2:
            raise ValueError("reads must be a 2-D (N, L) bit array")
        if arr.dtype != np.uint8:
            with np.errstate(invalid="ignore"):  # NaN or out of range: caught below
                cast = arr.astype(np.uint8)
            if not (cast == arr).all():
                raise ValueError(f"reads of dtype {arr.dtype} do not fit uint8 unchanged")
            arr = cast
        arr = np.ascontiguousarray(arr)
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
    return spec.sample(M, rng)


def apply_noise(reads: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p (BSC)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    out = np.array(reads, dtype=np.uint8, order="C")  # flipped in place
    if p == 0.0:
        return out
    bitgen = rng.bit_generator
    # The generators whose random() double is (word >> 11) * 2^-53, named at
    # call time: importing the package leaves numpy.random unimported.
    raw = type(bitgen) in (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                           np.random.SFC64)
    # For raw words u < p exactly when word < ceil(p * 2^53) << 11, p * 2^53
    # being exact in a double; the inclusive limit fits uint64 at p = 1 too.
    limit = np.uint64((math.ceil(p * 2.0**53) << 11) - 1)
    bits = out.reshape(-1)
    mask = np.empty(min(bits.size, NOISE_CHUNK), dtype=bool)
    for start in range(0, bits.size, NOISE_CHUNK):
        chunk = bits[start:start + NOISE_CHUNK]
        flips = mask[:chunk.size]
        if raw:
            np.less_equal(bitgen.random_raw(chunk.size), limit, out=flips)
        else:
            np.less(rng.random(chunk.size), p, out=flips)
        chunk ^= flips.view(np.uint8)
    return out


def shuffle_reads(reads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return the reads in uniformly random order (multiset preserved)."""
    reads = np.asarray(reads)
    return reads[rng.permutation(reads.shape[0])]


def transmit(
    codeword: CodewordSet, params: ChannelParams, rng: np.random.Generator
) -> ChannelOutput:
    """Run one channel use: sample counts, expand, corrupt, shuffle."""
    out = transmit_unshuffled(codeword, params, rng)[0]
    return ChannelOutput(reads=shuffle_reads(out.reads, rng))


def transmit_traced(
    codeword: CodewordSet, params: ChannelParams, rng: np.random.Generator
) -> tuple[ChannelOutput, np.ndarray, np.ndarray, int]:
    """Like :func:`transmit`, but also return (source_index, counts, flips).

    ``source_index[i]`` is the molecule each output read was sampled from,
    and ``flips`` is the number of bits the noise flipped over all reads.
    Debug side-channel for test harnesses only; decoders must not see it.
    """
    out, counts, flips = transmit_unshuffled(codeword, params, rng)
    perm = rng.permutation(out.N)
    sources = np.repeat(np.arange(params.M), counts).take(perm)
    return ChannelOutput(reads=out.reads.take(perm, axis=0)), sources, counts, flips


def transmit_unshuffled(
    codeword: CodewordSet, params: ChannelParams, rng: np.random.Generator
) -> tuple[ChannelOutput, np.ndarray, int]:
    """(output, counts, flips) of :func:`transmit_traced` without its last
    draw, the shuffle: the output holds the reads in source order, all
    copies of molecule 0 first, then those of molecule 1, and so on.
    """
    if codeword.M != params.M:
        raise ValueError(f"codeword has {codeword.M} molecules, params say {params.M}")
    if codeword.L != params.L:
        raise ValueError(f"codeword length {codeword.L} != params L={params.L}")
    counts, pattern = transmit_draws(params, rng)
    # Not molecules.repeat: numpy 2.4 copies a read-only array before repeating it.
    reads = codeword.molecules.take(np.repeat(np.arange(params.M), counts), axis=0)
    flips = 0
    if pattern is not None:
        reads ^= pattern
        flips = int(np.count_nonzero(pattern))
    return ChannelOutput(reads=reads), counts, flips


def transmit_draws(
    params: ChannelParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """(counts, flips): the counts and noise :func:`transmit` draws, in its
    order, as the per-molecule counts and the (N, L) uint8 flip pattern of
    the reads in source order (None when p = 0).  :func:`transmit` returns
    ``molecules.repeat(counts, axis=0) ^ flips`` shuffled by its next draw.
    """
    counts = sample_counts(params.sampling, params.M, rng)
    if not params.p:
        return counts, None
    # apply_noise copies its input, so a zero-stride view of one zero is the
    # all-zero input it flips.
    zeros = np.broadcast_to(np.uint8(0), (int(counts.sum()), params.L))
    return counts, apply_noise(zeros, params.p, rng)
