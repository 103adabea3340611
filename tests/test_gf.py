"""Field-arithmetic and Reed-Solomon erasure-codec tests."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from dnachannel.gf import GF2w, ReedSolomonErasure, TooManyErasures


@pytest.mark.parametrize("w", range(2, 17))
def test_field_tables_cover_all_nonzero_elements(w):
    f = GF2w(w)
    assert sorted(f.exp.tolist()) == list(range(1, f.order))
    # log and exp are inverse on the multiplicative group
    assert (f.exp[f.log[np.arange(1, f.order)]] == np.arange(1, f.order)).all()


@pytest.mark.parametrize("w", [2, 4, 8, 12, 16])
def test_field_axioms_sampled(w):
    f = GF2w(w)
    rng = np.random.default_rng(w)
    a, b, c = rng.integers(0, f.order, size=(3, 500))
    assert (f.mul(a, b) == f.mul(b, a)).all()
    assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
    # distributivity over the field addition (xor)
    assert (f.mul(a, b ^ c) == (f.mul(a, b) ^ f.mul(a, c))).all()
    nz = np.where(a == 0, 1, a)
    assert (f.mul(nz, f.inv(nz)) == 1).all()
    assert (f.mul(a, 0) == 0).all()


def test_field_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF2w(4).inv(np.array([0]))


def test_field_invalid_width():
    with pytest.raises(ValueError):
        GF2w(1)
    with pytest.raises(ValueError):
        GF2w(17)


def test_rs_systematic_prefix():
    rs = ReedSolomonErasure(16, 12, 4)
    data = np.arange(12) % 16
    cw = rs.encode(data)
    assert cw.shape == (16,)
    assert (cw[:12] == data).all()


def test_rs_rate_one_is_identity():
    rs = ReedSolomonErasure(8, 8, 4)
    data = np.arange(8)
    assert (rs.encode(data) == data).all()
    decoded = rs.decode_erasures(data, np.zeros(8, dtype=bool))
    assert (decoded == data).all()


def test_rs_all_four_erasure_patterns_recover():
    rs = ReedSolomonErasure(16, 12, 4)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 16, size=12)
    cw = rs.encode(data)
    for pattern in itertools.combinations(range(16), 4):
        erased = np.zeros(16, dtype=bool)
        erased[list(pattern)] = True
        got = rs.decode_erasures(cw, erased)
        assert (got == data).all()


def test_rs_five_erasures_signal_failure():
    rs = ReedSolomonErasure(16, 12, 4)
    cw = rs.encode(np.arange(12))
    erased = np.zeros(16, dtype=bool)
    erased[:5] = True
    with pytest.raises(TooManyErasures):
        rs.decode_erasures(cw, erased)


@pytest.mark.parametrize("n,k,w", [
    (16, 12, 4), (255, 200, 8), (256, 230, 8), (20, 7, 5),
    (8, 8, 4), (10, 1, 4), (256, 100, 16), (4096, 3600, 12),
])
def test_rs_random_erasures_roundtrip(n, k, w):
    rs = ReedSolomonErasure(n, k, w)
    rng = np.random.default_rng(n * 31 + k)
    for _ in range(20):
        data = rng.integers(0, 1 << w, size=k)
        cw = rs.encode(data)
        n_erase = rng.integers(0, n - k + 1)
        erased = np.zeros(n, dtype=bool)
        erased[rng.choice(n, size=n_erase, replace=False)] = True
        # corrupt erased positions to prove they are ignored
        noisy = cw.copy()
        noisy[erased] = rng.integers(0, 1 << w, size=n_erase)
        assert (rs.decode_erasures(noisy, erased) == data).all()


def test_rs_parameter_validation():
    with pytest.raises(ValueError):
        ReedSolomonErasure(17, 4, 4)  # n > 2^w
    with pytest.raises(ValueError):
        ReedSolomonErasure(8, 9, 4)  # k > n
    rs = ReedSolomonErasure(8, 4, 4)
    with pytest.raises(ValueError):
        rs.encode(np.arange(5))  # wrong length
    with pytest.raises(ValueError):
        rs.encode(np.array([0, 1, 2, 99]))  # out of field


# sha256 of the little-endian int64 codeword for data drawn from
# default_rng([n, k, w]), pinned from the k x k matrix implementation.
# (256, 100, 16) sums denominators directly (complement larger than k),
# (4096, 3600, 12) over the complement (smaller than k).
PINNED_CODEWORDS = {
    (16, 12, 4): "02dad6f898ab25943a2a58e88cae0241ff1e420d657b3b3b0b858d4d702a82d5",
    (256, 100, 16): "3edab678f3796ccab40d54e406823601bdd3d5f29252d14137dab85d164b964d",
    (4096, 3600, 12): "6dc92a28c8d67f9bd2598b81546b5e7713d0bda8505a2975a5e6fac9cf1c04c9",
}


@pytest.mark.parametrize("n,k,w", sorted(PINNED_CODEWORDS))
def test_rs_codeword_pinned(n, k, w):
    data = np.random.default_rng([n, k, w]).integers(0, 1 << w, size=k)
    cw = ReedSolomonErasure(n, k, w).encode(data)
    assert hashlib.sha256(cw.astype("<i8").tobytes()).hexdigest() == PINNED_CODEWORDS[n, k, w]


@pytest.mark.parametrize("n,k,w", [(16, 12, 4), (256, 200, 8), (8, 8, 4)])
def test_rs_column_block_matches_columns(n, k, w):
    rs = ReedSolomonErasure(n, k, w)
    rng = np.random.default_rng(n + k)
    data = rng.integers(0, 1 << w, size=(k, 3))
    data[:, 1] = 0  # an all-zero column
    cw = rs.encode(data)
    assert cw.shape == (n, 3)
    for j in range(3):
        assert (cw[:, j] == rs.encode(data[:, j])).all()
    erased = np.zeros(n, dtype=bool)
    erased[rng.choice(n, size=n - k, replace=False)] = True
    noisy = np.where(erased[:, None], 0, cw)
    got = rs.decode_erasures(noisy, erased)
    assert got.shape == (k, 3) and (got == data).all()
    for j in range(3):
        assert (rs.decode_erasures(noisy[:, j], erased) == data[:, j]).all()


def test_rs_memory_linear_at_m4096():
    # The k x k matrix implementation peaked at ~324 MB here.
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        rs = ReedSolomonErasure(4096, 3600, 12)
        data = rng.integers(0, 4096, size=3600)
        cw = rs.encode(data)
        erased = np.zeros(4096, dtype=bool)
        erased[rng.choice(4096, size=205, replace=False)] = True
        got = rs.decode_erasures(cw, erased)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == data).all()
    assert peak < 64 * 2**20
