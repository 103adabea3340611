"""Codec tests: inner codes, the indexed concatenated scheme, wire format."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from dnachannel import codec
from dnachannel.channel import ChannelOutput, SamplingSpec, ChannelParams, apply_noise, transmit
from dnachannel.codec import (
    CodecConfig,
    ConfigError,
    InnerCodeSpec,
    achieved_rate,
    bits_to_int,
    decode_output,
    dump_reads,
    encode_message,
    inner_decode,
    inner_encode,
    int_to_bits,
    outer_decode,
    outer_encode,
    parse_reads,
    random_message,
    read_reads_file,
    short_molecule_decode,
    short_molecule_encode,
    write_reads_file,
)
from dnachannel.codec import _index_block
from dnachannel.gf import TooManyErasures
from dnachannel.montecarlo import ExperimentSpec, run
from dnachannel.rng import substream


M16 = CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=12)
M16_REP3 = CodecConfig(M=16, L=24, inner=InnerCodeSpec.repetition(3), outer_k=12)


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


# ---------------------------------------------------------------------------
# bit helpers and inner codes
# ---------------------------------------------------------------------------

def test_bit_helpers_roundtrip():
    vals = np.arange(32)
    assert (bits_to_int(int_to_bits(vals, 6)) == vals).all()
    assert int_to_bits(np.array([5]), 4).tolist() == [[0, 1, 0, 1]]


def _reference_int_to_bits(values, width):
    """The int64 shift form the 64-bit-word helpers replaced."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def _reference_bits_to_int(bits):
    """The int64 matmul form the 64-bit-word helpers replaced."""
    bits = np.asarray(bits, dtype=np.int64)
    weights = 1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64)
    return bits @ weights


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 12, 15, 16, 17, 20, 31, 32, 33, 63])
@pytest.mark.parametrize("shape", [(37,), (5, 7), (2, 3, 4)])
def test_bit_helpers_match_int64_reference(width, shape):
    rng = np.random.default_rng([width, *shape])
    values = rng.integers(0, 1 << width, size=shape, dtype=np.int64)
    values.flat[0] = (1 << width) - 1  # every bit set
    bits = int_to_bits(values, width)
    want = _reference_int_to_bits(values, width)
    assert bits.dtype == np.uint8 and bits.flags.c_contiguous
    assert bits.shape == want.shape and np.array_equal(bits, want)
    back = bits_to_int(want)
    assert back.dtype == np.int64 and np.array_equal(back, values)
    # A column slice of wider rows, as decode_output cuts the index.
    rows = rng.integers(0, 2, size=(*shape, width + 5), dtype=np.uint8)
    assert np.array_equal(bits_to_int(rows[..., :width]),
                          _reference_bits_to_int(rows[..., :width]))
    assert np.array_equal(bits_to_int(rows[..., 5:]), _reference_bits_to_int(rows[..., 5:]))


def test_bit_helpers_one_row_gives_a_scalar():
    assert bits_to_int(bits("1011")) == 11 and np.ndim(bits_to_int(bits("1011"))) == 0
    assert int_to_bits(11, 4).tolist() == [1, 0, 1, 1]


def test_bit_helpers_reject_64_bit_fields():
    with pytest.raises(ValueError, match="0..63"):
        int_to_bits(np.arange(3), 64)
    with pytest.raises(ValueError, match="0..63"):
        bits_to_int(np.zeros((3, 64), dtype=np.uint8))
    with pytest.raises(ValueError, match="0..63"):
        int_to_bits(np.arange(3), -1)


def test_roundtrip_with_molecules_longer_than_64_bits():
    # Every field the codec converts (index, symbol) stays within 16 bits.
    cfg = CodecConfig(M=256, L=80, inner=InnerCodeSpec.identity(), outer_k=200)
    assert (cfg.index_bits, cfg.field_width, cfg.symbols_per_molecule) == (8, 8, 9)
    rng = substream(7, 10)
    msg = random_message(cfg, rng)
    cw = encode_message(msg, cfg)
    assert np.array_equal(bits_to_int(cw.molecules[:, :8]), np.arange(256))
    keep = np.sort(rng.choice(256, size=200, replace=False))
    report = decode_output(ChannelOutput(reads=cw.molecules[rng.permutation(keep)]), cfg)
    assert report.ok and report.erasures == 56 and np.array_equal(report.message, msg)


def test_inner_spec_validation():
    with pytest.raises(ConfigError):
        InnerCodeSpec.repetition(2)  # even
    with pytest.raises(ConfigError):
        InnerCodeSpec.table_ml(21, 0)  # not enumerable
    with pytest.raises(ConfigError):
        InnerCodeSpec(kind="turbo")


def test_identity_inner_roundtrip():
    spec = InnerCodeSpec.identity()
    word = bits("10110100")
    assert (inner_decode(inner_encode(word, spec, 8), spec, 8) == word).all()


def test_identity_inner_returns_its_input():
    # No copy: encode_message's info and decode_output's reads are passed
    # through as they are.
    spec = InnerCodeSpec.identity()
    block = substream(40).integers(0, 2, size=(5, 8), dtype=np.uint8)
    for out in (inner_encode(block, spec, 8), inner_decode(block, spec, 8)):
        assert np.array_equal(out, block) and np.shares_memory(out, block)


def test_repetition_encode_pattern():
    spec = InnerCodeSpec.repetition(3)
    assert "".join(map(str, inner_encode(bits("1010"), spec, 12))) == "111000111000"


def test_repetition_corrects_one_flip_per_group():
    spec = InnerCodeSpec.repetition(3)
    cw = inner_encode(bits("1010"), spec, 12)
    for group in range(4):
        corrupted = cw.copy()
        corrupted[group * 3 + 1] ^= 1
        assert (inner_decode(corrupted, spec, 12) == bits("1010")).all()


@pytest.mark.parametrize("r", [1, 3, 5, 255, 257])
def test_repetition_decode_matches_sum_formula(r):
    spec, k = InnerCodeSpec.repetition(r), 4
    rng = substream(7, 30, r)
    # random reads, then groups holding r // 2 and r // 2 + 1 ones and all ones
    reads = rng.integers(0, 2, size=(60, k * r), dtype=np.uint8)
    edges = np.zeros((3, k, r), dtype=np.uint8)
    edges[0, :, : r // 2] = 1
    edges[1, :, : r // 2 + 1] = 1
    edges[2] = 1
    reads = np.vstack([reads, edges.reshape(3, k * r)])
    groups = reads.reshape(-1, k, r)
    expected = (groups.sum(axis=2) * 2 > r).astype(np.uint8)
    assert np.array_equal(inner_decode(reads, spec, k * r), expected)
    assert expected[-3:].tolist() == [[0] * k, [1] * k, [1] * k]


def test_repetition_requires_divisible_length():
    with pytest.raises(ConfigError):
        inner_encode(bits("101"), InnerCodeSpec.repetition(3), 10)


def test_table_ml_roundtrip_all_inputs():
    spec = InnerCodeSpec.table_ml(4, 7)
    for x in range(16):
        word = int_to_bits(np.array([x]), 4)[0]
        assert (inner_decode(inner_encode(word, spec, 16), spec, 16) == word).all()


def test_table_ml_tie_breaks_to_lowest_index():
    spec = InnerCodeSpec.table_ml(4, 7)
    book = spec.codebook(16)
    # midpoint between codewords 2 and 9: flip half the differing bits of 2
    diff = np.flatnonzero(book[2] ^ book[9])
    read = book[2].copy()
    read[diff[: len(diff) // 2]] ^= 1
    d2 = (read ^ book[2]).sum()
    d9 = (read ^ book[9]).sum()
    if d2 == d9:  # only assert the tie rule when we actually built a tie
        assert bits_to_int(inner_decode(read, spec, 16)) == 2


def test_table_ml_error_rate_below_union_bound():
    """Measured ML decoding error vs the exact pairwise-distance union bound."""
    p = 0.05
    spec = InnerCodeSpec.table_ml(4, 7)
    book = spec.codebook(16)
    n = book.shape[0]
    # exact union bound averaged over sent codewords: the decoder errs toward
    # codeword c iff more than half the differing bits flip, or exactly half
    # with c winning the lowest-index tie-break
    bound_per_sent = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = int((book[i] ^ book[j]).sum())
            p_gt = stats.binom.sf(d // 2, d, p)  # P(B > d/2) for even or odd d
            if d % 2 == 0:
                p_tie = stats.binom.pmf(d // 2, d, p) if j < i else 0.0
            else:
                p_tie = 0.0
            bound_per_sent[i] += p_gt + p_tie
    bound = bound_per_sent.mean()

    rng = substream(2024, 50)
    trials_per_word = 1500
    errors = 0
    total = 0
    for i in range(n):
        sent = np.tile(book[i], (trials_per_word, 1))
        got = spec.decode(apply_noise(sent, p, rng), 16)
        errors += int((bits_to_int(got) != i).sum())
        total += trials_per_word
    empirical = errors / total
    stderr = math.sqrt(empirical * (1 - empirical) / total)
    assert empirical <= bound + 3 * stderr


@pytest.mark.parametrize("budget", [1, 3 * 16 * (16 + 8)])
def test_table_ml_chunked_decode_matches_one_shot(monkeypatch, budget):
    spec = InnerCodeSpec.table_ml(4, 7)
    book = spec.codebook(16)
    # exact midpoints between codeword pairs (ties where the distance is even)
    # and random reads; with three reads per chunk, 100 leave a one-read tail
    mids = []
    for i, j in itertools.combinations(range(16), 2):
        read = book[i].copy()
        diff = np.flatnonzero(book[i] ^ book[j])
        read[diff[: len(diff) // 2]] ^= 1
        mids.append(read)
    rng = substream(2024, 51)
    reads = np.vstack(mids[:60] + [rng.integers(0, 2, size=(40, 16), dtype=np.uint8)])
    one_shot = inner_decode(reads, spec, 16)
    monkeypatch.setattr(codec, "TABLE_DECODE_BUDGET", budget)
    assert np.array_equal(inner_decode(reads, spec, 16), one_shot)


def test_table_ml_decode_memory_bounded():
    # One-shot, these 200 reads need 200 * 2^14 * (32 + 8) bytes, ~131 MB.
    spec, L = InnerCodeSpec.table_ml(14, 0), 32
    reads = substream(2024, 52).integers(0, 2, size=(200, L), dtype=np.uint8)
    spec.codebook(L)  # built and cached outside the measurement
    tracemalloc.start()
    try:
        inner_decode(reads, spec, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * codec.TABLE_DECODE_BUDGET


def test_codec_caches_keep_only_the_last_few():
    # A sweep over many codes must not keep every codec or codebook alive.
    codec._outer_code.cache_clear()
    for k in range(1, 16):
        outer_encode(np.zeros(k, dtype=np.int64), 16, k, 4)
    info = codec._outer_code.cache_info()
    assert info.currsize == info.maxsize < 15
    assert codec._outer_code(16, 15, 4) is codec._outer_code(16, 15, 4)
    books = codec.TableMLCode.codebook
    books.cache_clear()
    for seed in range(8):
        InnerCodeSpec.table_ml(4, seed).codebook(32)
    info = books.cache_info()
    assert info.currsize == info.maxsize < 8


def test_table_ml_duplicate_codebook_rejected():
    # k close to L makes duplicates certain (2^8 words of 4 bits)
    with pytest.raises(ConfigError):
        inner_encode(np.zeros(8, dtype=np.uint8), InnerCodeSpec.table_ml(8, 0), 4)


# ---------------------------------------------------------------------------
# outer code wrappers
# ---------------------------------------------------------------------------

def test_outer_rate_one_identity():
    data = np.arange(8)
    assert (outer_encode(data, 8, 8, 4) == data).all()


def test_outer_exhaustive_four_erasures():
    data = np.arange(12) % 16
    cw = outer_encode(data, 16, 12, 4)
    for pattern in itertools.combinations(range(16), 4):
        erased = np.zeros(16, dtype=bool)
        erased[list(pattern)] = True
        assert (outer_decode(cw, erased, 16, 12, 4) == data).all()


def test_outer_five_erasures_fail():
    cw = outer_encode(np.arange(12) % 16, 16, 12, 4)
    erased = np.zeros(16, dtype=bool)
    erased[3:8] = True
    with pytest.raises(TooManyErasures):
        outer_decode(cw, erased, 16, 12, 4)


# ---------------------------------------------------------------------------
# config and rate accounting
# ---------------------------------------------------------------------------

def test_config_auto_field_width():
    assert M16.field_width == 4
    assert M16.symbols_per_molecule == 1
    assert CodecConfig(M=256, L=16, inner=InnerCodeSpec.identity(),
                       outer_k=230).field_width == 8


def test_config_validation():
    with pytest.raises(ConfigError):
        CodecConfig(M=16, L=4, inner=InnerCodeSpec.identity(), outer_k=4)  # no payload
    with pytest.raises(ConfigError):
        CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=17)  # k > M
    # 17 payload bits: the only divisor >= 4 is 17, wider than GF(2^16).
    with pytest.raises(ConfigError, match=r"no field width w in \[4, 16\] "
                                          r"divides payload bits 17"):
        CodecConfig(M=16, L=21, inner=InnerCodeSpec.identity(), outer_k=12)
    with pytest.raises(TypeError):  # field_width is derived, not an argument
        CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=12,
                    field_width=8)


@pytest.mark.parametrize("L, w", [(3, 2), (4, 3), (5, 2), (7, 2), (9, 2)])
def test_two_molecule_config_roundtrips(L, w):
    # One index bit, but GF(2^w) needs w >= 2, so the width search starts there.
    cfg = CodecConfig(M=2, L=L, inner=InnerCodeSpec.identity(), outer_k=1)
    assert cfg.field_width == w
    channel = ChannelParams(M=2, beta=L, p=0.0, sampling=SamplingSpec.bernoulli(0.0), L=L)
    rng = np.random.default_rng(L)
    msg = random_message(cfg, rng)
    report = decode_output(transmit(encode_message(msg, cfg), channel, rng), cfg)
    assert np.array_equal(report.message, msg)
    result = run(ExperimentSpec.decode_success(channel, cfg, trials=50, base_seed=L,
                                               min_rate=1.0))
    assert result.failed == 0 and result.summary.mean == 1.0


def test_two_molecule_config_needs_two_payload_bits():
    with pytest.raises(ConfigError, match=r"no field width w in \[2, 16\] divides payload bits 1"):
        CodecConfig(M=2, L=2, inner=InnerCodeSpec.identity(), outer_k=1)


def test_achieved_rate_simple_counts():
    cfg = CodecConfig(M=16, L=8, inner=InnerCodeSpec.identity(), outer_k=16)
    assert achieved_rate(cfg) == Fraction(1, 2)


def test_achieved_rate_rep3_exact():
    assert achieved_rate(M16_REP3) == Fraction(1, 8)
    assert float(achieved_rate(M16_REP3)) == 0.125


def test_achieved_rate_approaches_scheme_rate():
    from dnachannel.capacity import scheme_rate

    cfg = CodecConfig(M=2**16, L=64, inner=InnerCodeSpec.identity(), outer_k=62259)
    rate = float(achieved_rate(cfg))
    assert rate == pytest.approx(0.7124977111816406, abs=1e-12)
    assert abs(rate - scheme_rate(0.05, 1.0, 4.0)) < 1e-4  # 0.7125 asymptote


def test_rate_accounting_bits_in_equals_rate_times_bases():
    for cfg in (M16, M16_REP3):
        assert Fraction(cfg.message_bits) == achieved_rate(cfg) * cfg.M * cfg.L


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def identity_output(cw, keep=None) -> ChannelOutput:
    """Noise-free channel output that keeps the given molecule indices."""
    keep = np.arange(cw.M) if keep is None else np.asarray(keep)
    return ChannelOutput(reads=cw.molecules[keep])


def test_minimal_pipeline_m4():
    cfg = CodecConfig(M=4, L=4, inner=InnerCodeSpec.identity(), outer_k=4)
    assert cfg.message_bits == 8
    msg = bits("10110010")
    cw = encode_message(msg, cfg)
    assert cw.M == 4 and cw.L == 4
    report = decode_output(identity_output(cw), cfg)
    assert report.ok and (report.message == msg).all()
    assert report.erasures == 0 and report.collisions == 0


def test_encode_produces_distinct_molecules():
    rng = substream(7, 0)
    for cfg in (M16, M16_REP3):
        cw = encode_message(random_message(cfg, rng), cfg)
        assert np.unique(cw.molecules, axis=0).shape[0] == cfg.M


def test_encode_rejects_wrong_length():
    with pytest.raises(ConfigError):
        encode_message(np.zeros(5, dtype=np.uint8), M16)


def test_decode_recovers_specific_four_drops():
    rng = substream(7, 1)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    keep = [i for i in range(16) if i not in (0, 5, 9, 13)]
    report = decode_output(identity_output(cw, keep), M16)
    assert report.ok and (report.message == msg).all()
    assert report.erasures == 4


def test_decode_fails_on_five_drops():
    rng = substream(7, 2)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    report = decode_output(identity_output(cw, range(5, 16)), M16)
    assert not report.ok
    assert report.message is None
    assert report.erasures == 5


def test_erasure_count_iff_rule_randomized():
    # decode succeeds iff #unsampled <= M - outer_k, across all sizes
    rng = substream(7, 3)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    for n_drop in range(17):
        for _ in range(25):
            drop = rng.choice(16, size=n_drop, replace=False)
            keep = np.setdiff1d(np.arange(16), drop)
            report = decode_output(identity_output(cw, keep), M16)
            assert report.erasures == n_drop
            if n_drop <= 4:
                assert report.ok and (report.message == msg).all()
            else:
                assert not report.ok


def test_collision_erases_both_conflicting_payloads():
    rng = substream(7, 4)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    # extra read reusing index 3 with a flipped payload bit
    fake = cw.molecules[3].copy()
    fake[-1] ^= 1
    reads = np.vstack([cw.molecules, fake])
    report = decode_output(ChannelOutput(reads=reads), M16)
    assert report.collisions == 1
    assert report.erasures == 1  # index 3 erased despite being present
    assert report.ok and (report.message == msg).all()  # RS recovers it


def test_identical_duplicates_merge_not_erase():
    rng = substream(7, 5)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    reads = np.vstack([cw.molecules, cw.molecules[3]])  # exact duplicate
    report = decode_output(ChannelOutput(reads=reads), M16)
    assert report.collisions == 0
    assert report.erasures == 0
    assert report.ok and (report.message == msg).all()


def test_collision_never_blocks_erasure_accounting():
    # three conflicting payloads at one index still count as one collision
    rng = substream(7, 6)
    msg = random_message(M16, rng)
    cw = encode_message(msg, M16)
    fake1, fake2 = cw.molecules[3].copy(), cw.molecules[3].copy()
    fake1[-1] ^= 1
    fake2[-2] ^= 1
    reads = np.vstack([cw.molecules, fake1, fake2])
    report = decode_output(ChannelOutput(reads=reads), M16)
    assert report.collisions == 1 and report.erasures == 1
    assert report.ok and (report.message == msg).all()


def test_out_of_range_index_discarded_and_flagged():
    cfg = CodecConfig(M=10, L=8, inner=InnerCodeSpec.identity(), outer_k=6)
    rng = substream(7, 7)
    msg = random_message(cfg, rng)
    cw = encode_message(msg, cfg)
    ghost = np.concatenate([int_to_bits(np.array([12]), 4)[0],  # index 12 >= M=10
                            bits("1010")])
    reads = np.vstack([cw.molecules, ghost])
    report = decode_output(ChannelOutput(reads=reads), cfg)
    assert report.undetected_risk
    assert report.ok and (report.message == msg).all()
    clean = decode_output(identity_output(cw), cfg)
    assert not clean.undetected_risk


def _reference_dedup(info, cfg):
    """Per-read dict loop that decode_output's vectorised dedup replaces."""
    seen, payload_of, risk = {}, {}, False
    for row in info:
        idx = int(bits_to_int(row[: cfg.index_bits]))
        if idx >= cfg.M:
            risk = True
            continue
        key = row[cfg.index_bits:].tobytes()
        if idx not in seen:
            seen[idx] = key
            payload_of[idx] = row[cfg.index_bits:]
        elif seen[idx] is not None and seen[idx] != key:
            seen[idx] = None
            del payload_of[idx]
    collisions = sum(1 for v in seen.values() if v is None)
    return payload_of, collisions, risk


def test_index_block_cached_read_only():
    block = _index_block(12, 4)
    assert block is _index_block(12, 4)
    assert not block.flags.writeable
    assert np.array_equal(bits_to_int(block), np.arange(12))
    cfg = CodecConfig(M=12, L=12, inner=InnerCodeSpec.identity(), outer_k=8)
    cw = encode_message(random_message(cfg, substream(7, 9)), cfg)
    assert np.array_equal(cw.molecules[:, :4], block)


def test_dedup_matches_reference_loop():
    # M=12 leaves indices 12..15 out of range; s=2 symbols per molecule
    cfg = CodecConfig(M=12, L=12, inner=InnerCodeSpec.identity(), outer_k=8)
    s, w = cfg.symbols_per_molecule, cfg.field_width
    rng = substream(7, 8)
    for _ in range(200):
        cw = encode_message(random_message(cfg, rng), cfg).molecules
        reads = np.vstack([cw, rng.integers(0, 2, size=(4, cfg.L), dtype=np.uint8)])
        reads = reads[rng.integers(0, len(reads), size=rng.integers(0, 40))]
        flips = rng.random(reads.shape) < 0.02
        reads = (reads ^ flips).astype(np.uint8)
        report = decode_output(ChannelOutput(reads=reads.reshape(-1, cfg.L)), cfg)
        payload_of, collisions, risk = _reference_dedup(reads, cfg)
        assert report.erasures == cfg.M - len(payload_of)
        assert (report.collisions, report.undetected_risk) == (collisions, risk)
        assert report.ok == (report.erasures <= cfg.M - cfg.outer_k)
        if report.ok:
            symbols = np.zeros((cfg.M, s), dtype=np.int64)
            erased = np.ones(cfg.M, dtype=bool)
            for idx, p in payload_of.items():
                symbols[idx] = bits_to_int(p.reshape(s, w))
                erased[idx] = False
            data = np.stack([outer_decode(symbols[:, j], erased, cfg.M, cfg.outer_k, w)
                             for j in range(s)], axis=1)
            assert (report.message == int_to_bits(data, w).reshape(-1)).all()


# M = 12 leaves indices 12..15 out of range for every inner code.
PERMUTED_CODECS = {
    "identity": CodecConfig(M=12, L=12, inner=InnerCodeSpec.identity(), outer_k=8),
    "rep3": CodecConfig(M=12, L=24, inner=InnerCodeSpec.repetition(3), outer_k=8),
    "table": CodecConfig(M=12, L=24, inner=InnerCodeSpec.table_ml(8, 1), outer_k=8),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PERMUTED_CODECS)), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 11), max_size=40),
       flips=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 23)), max_size=12))
@example(name="identity", seed=0, picks=[], flips=[])  # N = 0
# Two copies of molecule 3 that conflict, and molecule 4 read as index 12.
@example(name="identity", seed=0, picks=[3, 3, 4] + list(range(12)), flips=[(1, 11), (2, 0)])
def test_decode_output_ignores_read_order(name, seed, picks, flips):
    """The channel's reads are a multiset: any order decodes to one report."""
    cfg = PERMUTED_CODECS[name]
    rng = np.random.default_rng(seed)
    reads = encode_message(random_message(cfg, rng), cfg).molecules[np.array(picks, dtype=np.intp)]
    for i, b in flips:
        if i < len(reads):
            reads[i, b % cfg.L] ^= 1
    want = decode_output(ChannelOutput(reads=reads), cfg)
    # Reversed, each index's first and last reads swap places.
    for order in [np.arange(len(reads))[::-1]] + [rng.permutation(len(reads)) for _ in range(4)]:
        got = decode_output(ChannelOutput(reads=reads[order]), cfg)
        assert (got.erasures, got.collisions, got.undetected_risk, got.ok) == \
            (want.erasures, want.collisions, want.undetected_risk, want.ok)
        assert not want.ok or np.array_equal(got.message, want.message)


# Two codes with M a power of two and two with M = 12, whose index bits
# reach the out-of-range indices 12..15.
LAZY_CODECS = {
    "m16-identity": M16,
    "m16-rep3": M16_REP3,
    "m12-identity": PERMUTED_CODECS["identity"],
    "m12-rep3": PERMUTED_CODECS["rep3"],
}


def _eager_message(reads, cfg):
    """The outer decode run at once on the reference dedup's readout, or
    None where it raises past the erasure budget."""
    s, w = cfg.symbols_per_molecule, cfg.field_width
    payload_of, _, _ = _reference_dedup(inner_decode(reads, cfg.inner, cfg.L), cfg)
    symbols = np.zeros((cfg.M, s), dtype=np.int64)
    erased = np.ones(cfg.M, dtype=bool)
    for idx, p in payload_of.items():
        symbols[idx] = bits_to_int(p.reshape(s, w))
        erased[idx] = False
    try:
        data = outer_decode(symbols, erased, cfg.M, cfg.outer_k, w)
    except TooManyErasures:
        return None
    return int_to_bits(data, w).reshape(cfg.message_bits)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(LAZY_CODECS)), seed=st.integers(0, 2**32 - 1),
       distinct=st.integers(0, 16), copies=st.integers(0, 20),
       flips=st.lists(st.tuples(st.integers(0, 35), st.integers(0, 23)), max_size=10))
@example(name="m16-identity", seed=0, distinct=0, copies=0, flips=[])  # N = 0
@example(name="m16-identity", seed=1, distinct=12, copies=3, flips=[])  # erasures = n - k
@example(name="m16-rep3", seed=2, distinct=11, copies=3, flips=[])  # erasures = n - k + 1
@example(name="m12-identity", seed=3, distinct=12, copies=0, flips=[(0, 0)])  # index >= 12
def test_report_verdict_and_lazy_message(name, seed, distinct, copies, flips):
    """The verdict is the erasure count against the budget; the message,
    decoded on first read and cached, is the eager outer decode's."""
    cfg = LAZY_CODECS[name]
    rng = np.random.default_rng(seed)
    molecules = encode_message(random_message(cfg, rng), cfg).molecules
    picks = rng.permutation(cfg.M)[:distinct]
    reads = molecules[np.concatenate([picks, rng.choice(picks, size=copies if distinct else 0)])]
    for i, b in flips:
        if i < len(reads):
            reads[i, b % cfg.L] ^= 1
    report = decode_output(ChannelOutput(reads=reads), cfg)
    assert report.ok == (report.erasures <= cfg.M - cfg.outer_k)
    want = _eager_message(reads, cfg)
    message = report.message
    assert (message is None) == (want is None) == (not report.ok)
    assert message is None or np.array_equal(message, want)
    assert report.message is message


def test_perfect_channel_roundtrip_many_messages():
    params16 = ChannelParams(M=16, beta=2.0, p=0.0,
                             sampling=SamplingSpec.bernoulli(0.0), L=8)
    params_rep = ChannelParams(M=16, beta=6.0, p=0.0,
                               sampling=SamplingSpec.bernoulli(0.0), L=24)
    suite = [(M16, params16), (M16_REP3, params_rep)]
    rng = substream(7, 8)
    for cfg, params in suite:
        for _ in range(100):
            msg = random_message(cfg, rng)
            out = transmit(encode_message(msg, cfg), params, rng)
            report = decode_output(out, cfg)
            assert report.ok and (report.message == msg).all()


def test_multi_symbol_molecules_roundtrip_and_erasures():
    # payload 8 bits over GF(2^4): two interleaved outer codewords
    cfg = CodecConfig(M=16, L=12, inner=InnerCodeSpec.identity(), outer_k=12)
    assert cfg.symbols_per_molecule == 2
    rng = substream(7, 13)
    msg = random_message(cfg, rng)
    cw = encode_message(msg, cfg)
    report = decode_output(identity_output(cw), cfg)
    assert report.ok and (report.message == msg).all()
    for _ in range(30):
        drop = rng.choice(16, size=4, replace=False)
        keep = np.setdiff1d(np.arange(16), drop)
        report = decode_output(identity_output(cw, keep), cfg)
        assert report.ok and (report.message == msg).all()


def test_poisson_duplicates_merge_through_pipeline():
    # depth > 1 duplicates are identical when p=0 and must merge, not collide
    params = ChannelParams(M=16, beta=2.0, p=0.0,
                           sampling=SamplingSpec.poisson(3.0), L=8)
    rng = substream(7, 14)
    for _ in range(30):
        msg = random_message(M16, rng)
        out = transmit(encode_message(msg, M16), params, rng)
        report = decode_output(out, M16)
        assert report.collisions == 0
        if report.erasures <= 4:
            assert report.ok and (report.message == msg).all()
        else:
            assert not report.ok


def test_repetition_pipeline_corrects_noise():
    params = ChannelParams(M=16, beta=6.0, p=0.02,
                           sampling=SamplingSpec.bernoulli(0.0), L=24)
    rng = substream(7, 9)
    ok = 0
    for _ in range(100):
        msg = random_message(M16_REP3, rng)
        out = transmit(encode_message(msg, M16_REP3), params, rng)
        report = decode_output(out, M16_REP3)
        ok += report.ok and (report.message == msg).all()
    assert ok >= 95


# ---------------------------------------------------------------------------
# short-molecule scheme
# ---------------------------------------------------------------------------

def test_short_molecule_exact_recovery_full_sampling():
    data = bits("10110100")  # 2^(4-1) = 8 bits
    cw = short_molecule_encode(data, 16, 4)
    assert cw.M == 16 and cw.L == 4
    recovered = short_molecule_decode(identity_output(cw), 4)
    assert (recovered == data).all()


def test_short_molecule_payload_is_half_the_type_space():
    for L, M in ((4, 64), (5, 40)):
        data = substream(7, 10).integers(0, 2, size=1 << (L - 1), dtype=np.uint8)
        cw = short_molecule_encode(data, M, L)
        assert cw.M == M
        # every segment index keeps at least floor(M / 2^(L-1)) copies
        idx = bits_to_int(cw.molecules[:, : L - 1])
        assert np.bincount(idx, minlength=1 << (L - 1)).min() >= M // (1 << (L - 1))


def test_short_molecule_encode_matches_concatenated_layout():
    rng = substream(7, 31)
    for L, M in ((4, 64), (5, 40), (3, 7), (1, 3)):
        for _ in range(3):
            K = 1 << (L - 1)
            data = rng.integers(0, 2, size=K, dtype=np.uint8)
            order = np.tile(np.arange(K), math.ceil(M / K))[:M]
            expected = np.concatenate(
                [int_to_bits(order, L - 1), data[order][:, None]], axis=1
            )
            assert np.array_equal(short_molecule_encode(data, M, L).molecules, expected)


def test_short_molecule_missing_segments_marked():
    out = ChannelOutput(reads=np.zeros((0, 4), dtype=np.uint8))
    assert (short_molecule_decode(out, 4) == -1).all()


def test_short_molecule_majority_vote():
    # segment 0 observed as 1,1,0 -> majority 1; segment 1 as 0 -> 0
    reads = np.array([
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
    ], dtype=np.uint8)
    recovered = short_molecule_decode(ChannelOutput(reads=reads), 4)
    assert recovered[0] == 1 and recovered[1] == 0
    assert (recovered[2:] == -1).all()


def test_short_molecule_validation():
    with pytest.raises(ConfigError):
        short_molecule_encode(np.zeros(7, dtype=np.uint8), 16, 4)  # wrong length
    with pytest.raises(ConfigError):
        short_molecule_encode(np.zeros(8, dtype=np.uint8), 4, 4)  # M < 2^(L-1)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_dump_parse_roundtrip():
    rng = substream(7, 11)
    reads = rng.integers(0, 2, size=(9, 12), dtype=np.uint8)
    text = dump_reads(reads)
    assert text.startswith("M=9 L=12\n")
    assert np.array_equal(parse_reads(text), reads)


def test_dump_is_byte_stable():
    reads = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert dump_reads(reads) == "M=2 L=2\n01\n10\n"


def test_file_roundtrip(tmp_path):
    rng = substream(7, 12)
    reads = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
    path = tmp_path / "reads.txt"
    write_reads_file(path, reads)
    assert np.array_equal(read_reads_file(path), reads)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_reads("")
    with pytest.raises(ValueError):
        parse_reads("M=2 L=3\n010\n")  # row count mismatch
    with pytest.raises(ValueError):
        parse_reads("M=1 L=3\n0120\n")  # bad width / charset
    with pytest.raises(ValueError):
        parse_reads("rows=1 cols=3\n010\n")  # bad header


def test_parse_reports_first_bad_line_number():
    good = "010\n111\n"
    with pytest.raises(ValueError, match=r"^line 4 is not a 3-bit 0/1 string$"):
        parse_reads("M=4 L=3\n" + good + "01\n000\n")  # wrong length
    with pytest.raises(ValueError, match=r"^line 3 is not a 3-bit 0/1 string$"):
        parse_reads("M=4 L=3\n010\n0a1\n01\n000\n")  # bad char before bad length
    with pytest.raises(ValueError, match=r"^line 5 is not a 3-bit 0/1 string$"):
        parse_reads("M=4 L=3\n" + good + "000\n1\u00e91\n")  # non-ASCII
    with pytest.raises(ValueError, match=r"^line 4 is not a 3-bit 0/1 string$"):
        parse_reads("M=2 L=3\n\n010\n0a0\n")  # blank lines count


# ---------------------------------------------------------------------------
# Argument checks: each raises ConfigError with a one-line reason
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    # 16 random 4-bit words cannot all differ but with probability ~1e-6.
    pytest.param(lambda: InnerCodeSpec.table_ml(4, seed=0).codebook(4),
                 "table_ml seed 0 produced duplicate codewords for k=4, L=4", id="table_ml"),
    pytest.param(lambda: inner_encode(np.zeros(5), InnerCodeSpec.identity(), 8),
                 "expected 8 info bits, got 5", id="inner_encode"),
    pytest.param(lambda: inner_decode(np.zeros(7), InnerCodeSpec.identity(), 8),
                 "expected length-8 reads, got 7", id="inner_decode"),
    pytest.param(lambda: CodecConfig(M=1, L=8, inner=InnerCodeSpec.identity(), outer_k=1),
                 "M must be >= 2, got 1", id="CodecConfig"),
    pytest.param(lambda: decode_output(ChannelOutput(np.zeros((3, 7), np.uint8)), M16),
                 "reads have length 7, config says 8", id="decode_output"),
    pytest.param(lambda: short_molecule_decode(ChannelOutput(np.zeros((2, 5), np.uint8)), 4),
                 "reads have length 5, expected 4", id="short_molecule_decode"),
])
def test_argument_checks(call, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        call()
