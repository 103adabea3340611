"""Index-based concatenated coding for the shuffling-sampling channel.

Each molecule carries a unique ceil(log2 M)-bit index followed by payload
bits, protected per-molecule by a pluggable inner code (an
:class:`InnerCodeSpec` subclass: :class:`IdentityCode`,
:class:`RepetitionCode` or :class:`TableMLCode`) and across molecules by a
systematic Reed-Solomon erasure code of block length M.  The decoder
inner-decodes every read, uses the indices to sort and deduplicate, erases
missing or conflicting indices and judges success from the erasure count;
it erasure-decodes the outer code only when the message is asked for.

Also provides the short-molecule scheme for L < log2(M): index almost the
whole molecule, store one data bit per index, and rely on massive natural
replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelOutput, CodewordSet
from .gf import ReedSolomonErasure
from .rng import random_bits

__all__ = [
    "ConfigError",
    "InnerCodeSpec", "IdentityCode", "RepetitionCode", "TableMLCode",
    "CodecConfig", "DecodeReport",
    "inner_encode", "inner_decode", "outer_encode", "outer_decode",
    "encode_message", "decode_output", "achieved_rate", "random_message",
    "short_molecule_encode", "short_molecule_decode",
    "short_molecule_values", "short_molecule_vote",
    "dump_reads", "parse_reads", "write_reads_file", "read_reads_file",
]


class ConfigError(ValueError):
    """Inconsistent codec configuration."""


def _word_bytes(width: int) -> int:
    """Bytes of the narrowest word (1, 2, 4 or 8) that holds ``width`` bits."""
    return 1 << max(0, (width - 1).bit_length() - 3)


def int_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Big-endian bits of integers along a new last axis, 0 <= width <= 63.

    Each value is one big-endian word of the narrowest size that holds the
    width; one flat ``np.unpackbits`` of all words gives a word's bits per
    value.  The last ``width`` are copied out, so the wider buffer is freed
    at once (a view would keep it alive).
    """
    if not 0 <= width <= 63:
        raise ValueError(f"bit width must be in 0..63, got {width}")
    values = np.asarray(values)
    nb = _word_bytes(width)
    bits = np.unpackbits(values.astype(f">u{nb}").reshape(-1).view(np.uint8))
    return np.ascontiguousarray(bits.reshape(values.shape + (8 * nb,))[..., 8 * nb - width:])


def bits_to_int(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`int_to_bits`: the int64 value of each (..., width) row.

    The rows are right-aligned in a zeroed buffer of the narrowest words
    that hold them, whose one flat ``np.packbits`` is read back as
    big-endian words.
    """
    bits = np.asarray(bits)
    *lead, width = bits.shape
    if width > 63:
        raise ValueError(f"bit width must be in 0..63, got {width}")
    nb = _word_bytes(width)
    buf = np.zeros((*lead, 8 * nb), dtype=np.uint8)
    buf[..., 8 * nb - width:] = bits
    return np.packbits(buf.reshape(-1)).view(f">u{nb}").astype(np.int64).reshape(lead)[()]


# ---------------------------------------------------------------------------
# Inner codes
# ---------------------------------------------------------------------------

# Bytes of distance temporaries one chunk of the table code's decode may use;
# a single read over a codebook larger than this is still decoded whole.
TABLE_DECODE_BUDGET = 1 << 24


class InnerCodeSpec:
    """Per-molecule code choice: one frozen subclass per code, built by the
    classmethods below, implements ``info_bits(L)``, ``encode(info, L)`` on
    (..., k) uint8 info bits and ``decode(reads, L)`` on (N, L) uint8 reads."""

    def __init__(self, *args, **kwargs):
        raise ConfigError("InnerCodeSpec is abstract; build one with "
                          "InnerCodeSpec.identity, .repetition or .table_ml")

    @classmethod
    def identity(cls) -> "InnerCodeSpec":
        return IdentityCode()

    @classmethod
    def repetition(cls, r: int) -> "InnerCodeSpec":
        return RepetitionCode(r)

    @classmethod
    def table_ml(cls, k_info: int, seed: int) -> "InnerCodeSpec":
        return TableMLCode(k_info, seed)


@dataclass(frozen=True)
class IdentityCode(InnerCodeSpec):
    """Rate 1, no protection: encode and decode return their input array
    itself, not a copy."""

    def info_bits(self, L: int) -> int:
        return L

    def encode(self, bits: np.ndarray, L: int) -> np.ndarray:
        return bits

    decode = encode


@dataclass(frozen=True)
class RepetitionCode(InnerCodeSpec):
    """Each info bit repeated r times (r odd), majority decode."""

    r: int

    def __post_init__(self):
        if self.r < 1 or self.r % 2 == 0:
            raise ConfigError(f"repetition factor must be odd >= 1, got {self.r}")

    def info_bits(self, L: int) -> int:
        if L % self.r != 0:
            raise ConfigError(f"repetition({self.r}) needs r | L, got L={L}")
        return L // self.r

    def encode(self, info: np.ndarray, L: int) -> np.ndarray:
        return np.repeat(info, self.r, axis=-1)

    def decode(self, reads: np.ndarray, L: int) -> np.ndarray:
        r = self.r
        # Row i of one transposed copy holds copy i of every info bit, so
        # the ones among the r copies add up row by row, contiguously, in
        # the narrowest dtype that holds r; majority means > r // 2.
        copies = reads.reshape(-1, r).T.copy()
        ones = copies[0].astype(np.min_scalar_type(r))
        for i in range(1, r):
            ones += copies[i]
        return (ones > r // 2).view(np.uint8).reshape(reads.shape[0], self.info_bits(L))


@dataclass(frozen=True)
class TableMLCode(InnerCodeSpec):
    """Random codebook of 2^k_info length-L words from a seeded stream, decoded
    to the nearest codeword in Hamming distance (ties to the lowest index)."""

    k_info: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.k_info <= 20:
            raise ConfigError(f"table code needs 1 <= k_info <= 20, got {self.k_info}")

    def info_bits(self, L: int) -> int:
        if self.k_info > L:
            raise ConfigError(f"inner info bits {self.k_info} exceed molecule length {L}")
        return self.k_info

    @lru_cache(maxsize=4)
    def codebook(self, L: int) -> np.ndarray:
        """The 2^k_info distinct length-L codewords.  The last four built are
        kept: one is 2^k_info x L bytes, 48 MiB at k_info = 20, L = 48."""
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(self.seed)))
        book = rng.integers(0, 2, size=(1 << self.info_bits(L), L), dtype=np.uint8)
        if np.unique(book, axis=0).shape[0] != book.shape[0]:
            raise ConfigError(f"table_ml seed {self.seed} produced duplicate codewords "
                              f"for k={self.k_info}, L={L}; pick another seed")
        book.setflags(write=False)  # one cached array serves every caller
        return book

    def encode(self, info: np.ndarray, L: int) -> np.ndarray:
        return self.codebook(L)[bits_to_int(info)]

    def decode(self, reads: np.ndarray, L: int) -> np.ndarray:
        book = self.codebook(L)
        # Each read costs L XOR bytes and one 8-byte distance per codeword.
        step = max(1, TABLE_DECODE_BUDGET // (book.shape[0] * (L + 8)))
        best = np.empty(reads.shape[0], dtype=np.int64)
        for i in range(0, reads.shape[0], step):
            # Nearest codeword; argmin takes the first minimum, i.e. lowest index.
            dists = (reads[i:i + step, None, :] ^ book[None, :, :]).sum(axis=2)
            best[i:i + step] = np.argmin(dists, axis=1)
        return int_to_bits(best, self.k_info)


def inner_encode(info: np.ndarray, spec: InnerCodeSpec, L: int) -> np.ndarray:
    """Encode one info word (or a batch) to length-L molecules."""
    info = np.asarray(info, dtype=np.uint8)
    k = spec.info_bits(L)
    if info.shape[-1] != k:
        raise ConfigError(f"expected {k} info bits, got {info.shape[-1]}")
    return spec.encode(info, L)


def inner_decode(read: np.ndarray, spec: InnerCodeSpec, L: int) -> np.ndarray:
    """Decode one read (or a batch) back to info bits."""
    read = np.asarray(read, dtype=np.uint8)
    if read.shape[-1] != L:
        raise ConfigError(f"expected length-{L} reads, got {read.shape[-1]}")
    out = spec.decode(np.atleast_2d(read), L)
    return out[0] if read.ndim == 1 else out


# ---------------------------------------------------------------------------
# Outer code (thin wrappers over the Reed-Solomon erasure codec)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _outer_code(n: int, k: int, w: int) -> ReedSolomonErasure:
    """One Reed-Solomon codec per (n, k, w), built on first use; the last
    few are kept (building one at M = 2^16 peaks at ~7.5 MiB, and it holds
    ~4.6 MiB of read-only tables)."""
    return ReedSolomonErasure(n, k, w)


def outer_encode(symbols: np.ndarray, n: int, k: int, w: int) -> np.ndarray:
    """Systematic RS encoding of k symbols (or a (k, s) block) to n over GF(2^w)."""
    return _outer_code(n, k, w).encode(symbols)


def outer_decode(symbols: np.ndarray, erased: np.ndarray, n: int, k: int, w: int) -> np.ndarray:
    """Recover the k data symbols; raises TooManyErasures past the MDS bound."""
    return _outer_code(n, k, w).decode_erasures(symbols, erased)


# ---------------------------------------------------------------------------
# Full scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecConfig:
    """Full scheme parameters: molecule count/length, inner code, outer code.

    ``field_width`` is the smallest w in [2, 16] with 2^w >= M that
    divides the per-molecule payload (payload bits = inner info bits -
    index bits); each molecule then carries payload_bits / w outer
    symbols, outer codewords being interleaved across molecules.
    """

    M: int
    L: int
    inner: InnerCodeSpec
    outer_k: int
    field_width: int = field(init=False)

    def __post_init__(self):
        if self.M < 2:
            raise ConfigError(f"M must be >= 2, got {self.M}")
        if not 1 <= self.outer_k <= self.M:
            raise ConfigError(f"need 1 <= outer_k <= M, got outer_k={self.outer_k}")
        if self.payload_bits < 1:
            raise ConfigError(
                f"no payload room: inner info bits {self.info_bits} <= "
                f"index bits {self.index_bits}"
            )
        object.__setattr__(self, "field_width", self._auto_field_width())

    def _auto_field_width(self) -> int:
        lo = max(2, self.index_bits)  # GF(2^w) needs w >= 2
        for w in range(lo, self.payload_bits + 1):
            if self.payload_bits % w == 0 and w <= 16:
                return w
        raise ConfigError(
            f"no field width w in [{lo}, 16] divides "
            f"payload bits {self.payload_bits}"
        )

    @property
    def index_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.M)))

    @property
    def info_bits(self) -> int:
        return self.inner.info_bits(self.L)

    @property
    def payload_bits(self) -> int:
        return self.info_bits - self.index_bits

    @property
    def symbols_per_molecule(self) -> int:
        return self.payload_bits // self.field_width

    @property
    def message_bits(self) -> int:
        return self.outer_k * self.payload_bits


@dataclass(frozen=True, eq=False)
class DecodeReport:
    """Outcome of one decode: the verdict, diagnostics and, on demand, the message.

    ``ok`` is the verdict: at most M - outer_k indices are erased, the
    outer code's erasure budget.  ``collisions`` counts indices observed
    with conflicting payloads (all erased); ``undetected_risk`` flags that
    some read decoded to an index >= M, i.e. a certain inner-decode error
    was discarded.  ``kept`` marks the M indices that survived the dedup and
    ``payload`` holds their payload bits, one row per kept index in index
    order: all the Reed-Solomon erasure decode needs.

    ``message`` runs that decode on its first read and caches the result:
    the recovered message bits, or None when not ``ok``.  Within the budget
    the decode cannot fail (every symbol is a w-bit field element), so
    ``ok == (message is not None)``, and a caller that reads only the
    verdict and the counts never runs it.
    """

    ok: bool
    erasures: int
    collisions: int
    undetected_risk: bool
    cfg: CodecConfig = field(repr=False)
    kept: np.ndarray = field(repr=False)
    payload: np.ndarray = field(repr=False)

    @cached_property
    def message(self) -> np.ndarray | None:
        if not self.ok:
            return None
        cfg = self.cfg
        s, w = cfg.symbols_per_molecule, cfg.field_width
        symbols = np.zeros((cfg.M, s), dtype=np.int64)
        symbols[self.kept] = bits_to_int(self.payload.reshape(-1, s, w))
        data = outer_decode(symbols, ~self.kept, cfg.M, cfg.outer_k, w)
        return int_to_bits(data, w).reshape(cfg.message_bits)


def random_message(cfg: CodecConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random message of the exact length the config encodes."""
    return random_bits(rng, cfg.message_bits)


def achieved_rate(cfg: CodecConfig) -> Fraction:
    """Exact data rate in bits per stored base: (k/M) * (info - index) / L."""
    return Fraction(cfg.outer_k, cfg.M) * Fraction(cfg.payload_bits, cfg.L)


def encode_message(msg: np.ndarray, cfg: CodecConfig) -> CodewordSet:
    """Encode message bits into M distinct molecules (outer RS, index, inner)."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape != (cfg.message_bits,):
        raise ConfigError(
            f"message must be exactly {cfg.message_bits} bits, got {msg.shape}"
        )
    s, w = cfg.symbols_per_molecule, cfg.field_width
    # (outer_k, s) data symbols, one column per interleaved outer codeword.
    data = bits_to_int(msg.reshape(cfg.outer_k, s, w))
    payload_syms = outer_encode(data, cfg.M, cfg.outer_k, w)
    payload = int_to_bits(payload_syms, w).reshape(cfg.M, cfg.payload_bits)
    info = np.concatenate([_index_block(cfg.M, cfg.index_bits), payload], axis=1)
    return CodewordSet(molecules=inner_encode(info, cfg.inner, cfg.L))


@lru_cache(maxsize=16)
def _index_block(M: int, index_bits: int) -> np.ndarray:
    """The index bits of molecules 0..M-1, one row each, read-only."""
    block = int_to_bits(np.arange(M), index_bits)
    block.setflags(write=False)
    return block


def decode_output(out: ChannelOutput, cfg: CodecConfig) -> DecodeReport:
    """Decode a channel output: inner-decode every read, sort by index and
    erase missing or conflicting indices.

    The verdict and counts are final on return; the Reed-Solomon erasure
    decode runs only when the report's ``message`` is first read.
    """
    if out.N == 0:  # every index erased, and outer_k >= 1
        return DecodeReport(False, cfg.M, 0, False, cfg, np.zeros(cfg.M, dtype=bool),
                            np.empty((0, cfg.payload_bits), dtype=np.uint8))
    if out.L != cfg.L:
        raise ConfigError(f"reads have length {out.L}, config says {cfg.L}")

    info = cfg.inner.decode(out.reads, cfg.L)
    index = bits_to_int(info[:, : cfg.index_bits])
    in_range = index < cfg.M
    undetected_risk = not in_range.all()
    payload = info[:, cfg.index_bits:]
    if undetected_risk:  # never when M = 2^index_bits
        index = index[in_range]
        payload = payload.compress(in_range, axis=0)
    # Each kept read's payload bits as one void item (a row's bits are
    # contiguous), so a whole row compares at once.
    payload = payload.view(f"V{cfg.payload_bits}").reshape(-1)
    # Identical duplicates merge; an index read with a payload other than
    # its representative's (any one read of that index) has conflicting
    # payloads and is erased.
    rep = np.full(cfg.M, -1, dtype=np.int64)
    rep[index] = np.arange(index.size)
    conflict = np.zeros(cfg.M, dtype=bool)
    conflict[index[payload != payload.take(rep.take(index))]] = True
    kept = (rep >= 0) & ~conflict
    payload = payload.take(rep[kept]).view(np.uint8).reshape(-1, cfg.payload_bits)
    erasures = cfg.M - payload.shape[0]
    return DecodeReport(erasures <= cfg.M - cfg.outer_k, erasures, int(conflict.sum()),
                        undetected_risk, cfg, kept, payload)


# ---------------------------------------------------------------------------
# Short-molecule scheme (beta < 1)
# ---------------------------------------------------------------------------

def short_molecule_encode(bits: np.ndarray, M: int, L: int) -> CodewordSet:
    """Store 2^(L-1) bits on M short molecules by replication.

    Molecule layout is an (L-1)-bit segment index followed by that segment's
    single data bit.  Each of the K = 2^(L-1) segments is emitted
    ceil(M / K) times, interleaved round-robin and truncated to exactly M
    molecules so every segment keeps at least floor(M / K) >= 1 copies.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    K = 1 << (L - 1)
    if bits.shape != (K,):
        raise ConfigError(f"need exactly 2^(L-1)={K} bits, got {bits.shape}")
    if M < K:
        raise ConfigError(f"need M >= 2^(L-1)={K}, got M={M}")
    return CodewordSet(molecules=int_to_bits(short_molecule_values(bits, M, L), L))


def short_molecule_values(bits: np.ndarray, M: int, L: int) -> np.ndarray:
    """The M molecules of :func:`short_molecule_encode` as int64 values
    ``segment << 1 | data bit``, for (..., 2^(L-1)) bits: shape (..., M)."""
    segments = _short_segments(M, L)
    return (segments << 1) | np.take(bits, segments, axis=-1)


@lru_cache(maxsize=16)
def _short_segments(M: int, L: int) -> np.ndarray:
    """Segment of each molecule: 0..K-1 round-robin, truncated to M."""
    K = 1 << (L - 1)
    segments = np.tile(np.arange(K), math.ceil(M / K))[:M]
    segments.setflags(write=False)
    return segments


def short_molecule_decode(out: ChannelOutput, L: int) -> np.ndarray:
    """Majority-vote the data bit of each observed segment index.

    Returns an int8 array of length 2^(L-1): 0/1 where recovered, -1 for
    segments never observed.
    """
    if out.N and out.L != L:
        raise ConfigError(f"reads have length {out.L}, expected {L}")
    return short_molecule_vote(bits_to_int(out.reads), L)[0]


def short_molecule_vote(values: np.ndarray, L: int, owner: np.ndarray | None = None,
                        outputs: int = 1) -> np.ndarray:
    """Majority-vote the data bit of every segment of several outputs at once.

    ``values`` holds reads as integers ``segment << 1 | data bit`` and
    ``owner`` the output (0..outputs-1) each belongs to; None means all
    belong to one.  Returns (outputs, 2^(L-1)) int8: 0/1 where recovered,
    -1 for segments an output never observed; a tie votes 0.
    """
    K = 1 << (L - 1)
    keys = values if owner is None else owner * (2 * K) + values
    # Reads per (output, segment, data bit): one bincount over all outputs.
    tally = np.bincount(keys, minlength=outputs * 2 * K).reshape(outputs, K, 2)
    zeros, ones = tally[..., 0], tally[..., 1]
    return np.where(zeros + ones > 0, (ones > zeros).view(np.int8), np.int8(-1))


# ---------------------------------------------------------------------------
# Wire format: newline-delimited 0/1 strings with an "M=<rows> L=<cols>" header
# ---------------------------------------------------------------------------

def dump_reads(bits: np.ndarray) -> str:
    """Serialize an (N, L) bit array to the delimited text format."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    rows, cols = bits.shape
    lines = [f"M={rows} L={cols}"]
    ascii_rows = (bits + ord("0")).astype(np.uint8)
    lines.extend(r.tobytes().decode("ascii") for r in ascii_rows)
    return "\n".join(lines) + "\n"


def parse_reads(text: str) -> np.ndarray:
    """Parse the delimited text format back to an (N, L) uint8 bit array."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty reads file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=") for part in header)
        rows, cols = int(fields["M"]), int(fields["L"])
    except (ValueError, KeyError) as e:
        raise ValueError(f"bad header line {lines[0]!r}") from e
    # (line number in the file, line) for the non-blank lines after the header
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln]
    if len(body) != rows:
        raise ValueError(f"header says {rows} reads, file has {len(body)}")
    out = np.empty((rows, cols), dtype=np.uint8)
    for row, (i, ln) in enumerate(body):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"line {i} is not a {cols}-bit 0/1 string")
        out[row] = np.frombuffer(ln.encode("ascii"), dtype=np.uint8) - ord("0")
    return out


def write_reads_file(path, bits: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_reads(bits))


def read_reads_file(path) -> np.ndarray:
    with open(path) as fh:
        return parse_reads(fh.read())
