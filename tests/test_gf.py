"""Field-arithmetic and Reed-Solomon erasure-codec tests."""

import hashlib
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dnachannel.gf import GF2w, ReedSolomonErasure, TooManyErasures, _runs


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
    assert (mul(f, a, b) == mul(f, b, a)).all()
    assert (mul(f, mul(f, a, b), c) == mul(f, a, mul(f, b, c))).all()
    # distributivity over the field addition (xor)
    assert (mul(f, a, b ^ c) == (mul(f, a, b) ^ mul(f, a, c))).all()
    nz = np.where(a == 0, 1, a)
    assert (mul(f, nz, inv(f, nz)) == 1).all()
    assert (mul(f, a, 0) == 0).all()


def test_field_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv(GF2w(4), np.array([0]))


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
    (8, 8, 4), (10, 1, 4), (256, 100, 16), (4096, 3600, 12), (16384, 14400, 14),
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


def test_rs_decode_rejects_symbols_out_of_field():
    rs = ReedSolomonErasure(16, 12, 4)
    cw = rs.encode(np.arange(12))
    erased = np.zeros(16, dtype=bool)
    erased[0] = True
    for bad in (-3, 16):
        noisy = cw.copy()
        noisy[5] = bad  # a kept data row the decode reads
        with pytest.raises(ValueError, match="out of field range"):
            rs.decode_erasures(noisy, erased)
        with pytest.raises(ValueError, match="out of field range"):
            rs.decode_erasures(noisy, np.zeros(16, dtype=bool))  # nothing to recover
    # Erased rows are ignored, and so is a parity row past the first k kept.
    noisy = cw.copy()
    noisy[[0, 15]] = [-3, 99]
    assert (rs.decode_erasures(noisy, erased) == np.arange(12)).all()


def held_arrays(value):
    """Every numpy array in an attribute value, through lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in held_arrays(v)]
    return []


def test_rs_calls_leave_the_codec_unchanged():
    rs = ReedSolomonErasure(256, 200, 8)
    held = dict(vars(rs))
    arrays = held_arrays(list(held.values())) + [rs.field.log, rs.field.exp]
    copies = [a.copy() for a in arrays]
    rng = np.random.default_rng(3)
    for s in (1, 3):
        data = rng.integers(0, 256, size=(200, s))
        cw = rs.encode(data)
    erased = np.zeros(256, dtype=bool)
    erased[rng.choice(256, size=56, replace=False)] = True
    assert (rs.decode_erasures(cw, erased) == data).all()
    assert vars(rs).keys() == held.keys()
    assert all(vars(rs)[name] is value for name, value in held.items())
    for a, before in zip(arrays, copies):
        assert not a.flags.writeable and np.array_equal(a, before)
    with pytest.raises(ValueError, match="read-only"):
        rs.field.log[1] = 0


def test_rs_shared_instance_across_threads():
    """One codec serves calls from several threads at once, of one and of three columns."""
    rs = ReedSolomonErasure(256, 200, 8)
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(8):
        data = rng.integers(0, 256, size=(200, 1 + 2 * (i % 2)))
        erased = np.zeros(256, dtype=bool)
        erased[rng.choice(256, size=56, replace=False)] = True
        jobs.append((data, erased, rs.encode(data)))
    errors = []

    def work(data, erased, cw):
        for _ in range(20):
            if not (np.array_equal(rs.encode(data), cw)
                    and np.array_equal(rs.decode_erasures(cw, erased), data)):
                errors.append("mismatch")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# sha256 of the little-endian int64 codeword for data drawn from
# default_rng([n, k, w]), pinned from the k x k matrix implementation.
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


def _traced_peak_roundtrip(n, k, w):
    """tracemalloc peak of build + encode + 5 %-erasure decode."""
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        rs = ReedSolomonErasure(n, k, w)
        data = rng.integers(0, 1 << w, size=k)
        cw = rs.encode(data)
        erased = np.zeros(n, dtype=bool)
        erased[rng.choice(n, size=round(n / 20), replace=False)] = True
        got = rs.decode_erasures(cw, erased)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == data).all()
    return peak


def test_rs_memory_linear_at_m4096():
    # The k x k matrix implementation peaked at ~324 MB here.
    assert _traced_peak_roundtrip(4096, 3600, 12) < 64 * 2**20


def test_rs_memory_at_m16384():
    # The k x k matrix implementation would need ~5 GB here.
    assert _traced_peak_roundtrip(16384, 14400, 14) < 64 * 2**20


def test_rs_memory_at_m65536():
    # Paper scale; the Walsh-Hadamard bit-plane kernel peaked at ~33.9 MB.
    assert _traced_peak_roundtrip(65536, 56316, 16) <= 33 * 2**20


# ---------------------------------------------------------------------------
# The additive-FFT kernel against plain Lagrange interpolation
# ---------------------------------------------------------------------------

def mul(f, a, b):
    """a * b in the field ``f`` through its log/exp tables."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = f.exp[(f.log[a] + f.log[b]) % f.q]
    return np.where((a == 0) | (b == 0), 0, out)


def inv(f, a):
    """1 / a in the field ``f``; the inverse of 0 raises."""
    a = np.asarray(a, dtype=np.int64)
    if (a == 0).any():
        raise ZeroDivisionError("inverse of 0 in GF(2^w)")
    return f.exp[(f.q - f.log[a]) % f.q]


def _wht(x, row_bits):
    """Unnormalised int64 Walsh-Hadamard transform of the last axis, transposed.

    The last axis (length 2^m) is read as a (2^row_bits, 2^(m - row_bits))
    matrix, transformed along both of its axes and returned as the flattened
    transpose, so ``_wht(_wht(x, r), m - r)`` is 2^m * x in natural order and
    spectra stay in transposed order between the two.  Integer arrays wrap
    on overflow: results are exact modulo 2^64.
    """
    shape, n = x.shape, x.shape[-1]
    y = x.reshape(-1, 1 << row_bits, n >> row_bits).copy()
    _butterflies(y)
    y = np.ascontiguousarray(y.transpose(0, 2, 1))
    _butterflies(y)
    return y.reshape(shape)


def _butterflies(x):
    """In place, the unnormalised WHT along axis 1 of a (batch, 2^r, c) array."""
    batch, r, c = x.shape
    h = 1
    while 4 * h <= r:  # radix 4: H_4 on two index bits at once
        y = x.reshape(batch, r // (4 * h), 4, h * c)
        a, b, u, v = y[:, :, 0], y[:, :, 1], y[:, :, 2], y[:, :, 3]
        s0, d0, s1, d1 = a + b, a - b, u + v, u - v
        np.add(s0, s1, out=a)
        np.add(d0, d1, out=b)
        np.subtract(s0, s1, out=u)
        np.subtract(d0, d1, out=v)
        h *= 4
    if 2 * h == r:
        y = x.reshape(batch, 2, h * c)
        a, b = y[:, 0], y[:, 1]
        s0 = a + b
        np.subtract(a, b, out=b)
        a[...] = s0


def _reference_log_sums(w, m, base):
    """sum_{j in base} log(x ^ x_j) mod q for x < 2^m, by two int64 WHTs."""
    f = GF2w(w)
    ind = np.zeros(1 << m, dtype=np.int64)
    ind[base] = 1
    r = (m + 1) // 2
    spec = _wht(ind, r) * _wht(f.log[: 1 << m].copy(), r)
    return (_wht(spec, m - r) >> m) % f.q


def test_reference_log_sums_is_the_direct_sum():
    f, m = GF2w(5), 4
    base = np.array([0, 3, 4, 9, 15])
    want = [f.log[x ^ base].sum() % f.q for x in range(1 << m)]
    assert _reference_log_sums(5, m, base).tolist() == want


@pytest.mark.parametrize("m", range(1, 17))
def test_log_sums_match_int64_reference(m):
    """The float64 BLAS WHTs, at the widest field, on four kinds of base."""
    n, w = 1 << m, 16
    k = max(1, n * 7 // 8)
    rs = ReedSolomonErasure(n, k, w)
    rng = np.random.default_rng(m)
    bases = [np.array([rng.integers(n)]), np.arange(k), np.arange(n),
             np.sort(rng.choice(n, size=max(1, round(0.95 * n)), replace=False))]
    for base in bases:
        got = rs._log_sums(base)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_log_sums(w, m, base))


def _lagrange(w, base, values, targets):
    """(len(targets), s) values at ``targets`` (none in ``base``) of the
    polynomials through the points ``base`` with the columns of ``values``:
    sum_i value_i * prod_{j != i} (x_t - x_j) / (x_i - x_j).
    """
    f = GF2w(w)
    num = np.ones(targets.size, dtype=np.int64)  # prod_j (x_t - x_j)
    den = np.ones(base.size, dtype=np.int64)  # prod_{j != i} (x_i - x_j)
    for j, x_j in enumerate(base):
        num = mul(f, num, targets ^ x_j)
        diff = base ^ x_j
        diff[j] = 1
        den = mul(f, den, diff)
    out = np.zeros((targets.size, values.shape[1]), dtype=np.int64)
    for i, x_i in enumerate(base):
        basis = mul(f, mul(f, num, inv(f, targets ^ x_i)), inv(f, den[i]))
        out ^= mul(f, basis[:, None], values[i][None, :])
    return out


def _reference_encode(n, k, w, data):
    points = np.arange(n)
    return np.concatenate([data, _lagrange(w, points[:k], data, points[k:])])


def _reference_decode(n, k, w, symbols, erased):
    """Interpolation through the first k surviving positions."""
    data = symbols[:k].copy()
    missing = np.flatnonzero(erased[:k])
    avail = np.flatnonzero(~erased)[:k]
    data[missing] = _lagrange(w, avail, symbols[avail], missing)
    return data


@pytest.mark.parametrize("n,k,w", [
    (2, 1, 4), (16, 1, 4), (16, 15, 4), (16, 12, 4), (11, 5, 4),
    (256, 1, 8), (256, 255, 8), (200, 120, 8), (256, 100, 13),
    (1024, 1, 13), (1024, 1023, 13), (1000, 700, 13),
])
def test_transform_kernel_matches_lagrange(n, k, w):
    rs = ReedSolomonErasure(n, k, w)
    rng = np.random.default_rng([n, k, w])
    data = rng.integers(0, 1 << w, size=(k, 3))
    data[:, 1] = 0  # an all-zero column
    cw = rs.encode(data)
    assert (cw == _reference_encode(n, k, w, data)).all()
    assert (rs.encode(data[:, 0]) == cw[:, 0]).all()
    assert (rs.encode(np.zeros(k, dtype=np.int64)) == 0).all()
    for n_erase in sorted({1, (n - k + 1) // 2, n - k}):
        # One erased data position, so that decoding interpolates.
        erased = np.zeros(n, dtype=bool)
        first = rng.integers(0, k)
        erased[first] = True
        others = np.delete(np.arange(n), first)
        erased[rng.choice(others, size=n_erase - 1, replace=False)] = True
        # Random symbols are no codeword: the kernel still interpolates
        # through the reference's base, the first k surviving positions.
        noisy = rng.integers(0, 1 << w, size=(n, 2))
        got = rs.decode_erasures(noisy, erased)
        assert (got == _reference_decode(n, k, w, noisy, erased)).all()
        assert (rs.decode_erasures(noisy[:, 1], erased) == got[:, 1]).all()
        assert (rs.decode_erasures(cw, erased) == data).all()


@pytest.mark.parametrize("n,k,w", [(16, 5, 4), (200, 120, 8), (1000, 700, 13)])
@pytest.mark.parametrize("s", [1, 3])
def test_evaluate_matches_lagrange_on_every_aligned_block(n, k, w, s):
    """The kernel off the full transform: for every aligned block of 2^j
    points from t0, j = 0..m, its values at the block's points off base."""
    rs = ReedSolomonErasure(n, k, w)
    m, q = rs._m, rs.field.q
    rng = np.random.default_rng([n, k, w, s])
    base = np.sort(rng.choice(n, size=k, replace=False))
    values = rng.integers(0, 1 << w, size=(k, s))
    off = np.setdiff1d(np.arange(1 << m), base)
    want = _lagrange(w, base, values, off)
    sums = rs._log_sums(base)
    base_logs = (-sums[base] % q)[:, None]
    for j in range(m + 1):
        for t0 in range(0, 1 << m, 1 << j):
            c = rs._evaluate(base, values, base_logs, t0, _runs(rs._layers, t0, j))
            at = (off >= t0) & (off < t0 + (1 << j))
            got = rs._scale(c[off[at] - t0], sums[off[at]][:, None])
            assert np.array_equal(got, want[at]), (j, t0)


# The plain Lagrange reference reproduces the pinned codewords as well.
@pytest.mark.parametrize("n,k,w", sorted(PINNED_CODEWORDS))
def test_rs_codeword_pinned_other_kernel(n, k, w):
    data = np.random.default_rng([n, k, w]).integers(0, 1 << w, size=(k, 1))
    cw = _reference_encode(n, k, w, data)[:, 0]
    assert hashlib.sha256(cw.astype("<i8").tobytes()).hexdigest() == PINNED_CODEWORDS[n, k, w]


@pytest.mark.parametrize("symbols, erased", [
    (np.zeros(15), np.zeros(16, bool)),
    (np.zeros(16), np.zeros(15, bool)),
    (np.zeros((16, 2, 2)), np.zeros(16, bool)),
], ids=["short symbols", "short flags", "3-D symbols"])
def test_decode_erasures_checks_shapes(symbols, erased):
    rs = ReedSolomonErasure(16, 12, 4)
    with pytest.raises(ValueError, match=r"^expected 16 symbols and erasure flags"):
        rs.decode_erasures(symbols, erased)
