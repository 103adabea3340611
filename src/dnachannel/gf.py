"""GF(2^w) arithmetic and a systematic Reed-Solomon erasure codec.

Field elements are integers 0..2^w-1; multiplication goes through log/exp
tables built from a fixed primitive polynomial per width, vectorized with
numpy so whole codewords are processed at once.

The Reed-Solomon code evaluates the degree-(k-1) polynomial interpolating
the k data symbols at points 0..n-1, so the first k codeword symbols are
the data itself.  Decoding from erasures re-interpolates from the first k
surviving symbols (Lagrange in log space); any n-k erasures are
recoverable, one more is not, which is reported by raising
:class:`TooManyErasures`.

Two kernels compute the interpolation, and both give the same symbols, also
for inputs that are no codeword, because both use the same base.  A codec
picks one at construction from (n, k, w): the transform from 2^10 points
up wherever the Lagrange work k*(n-k+min(k, 2^w-k)) is at least 1.5 times
the transform's w^2 * 2^m (the measurement is noted at
``_TRANSFORM_CROSSOVER``), Lagrange otherwise.

Lagrange (small codes).  Denominators prod_{j in S, j != i} (x_i - x_j)
over a base set S of k points need no k x k matrix: over the whole field
prod_{y != x} (x - y) is the product of all of GF(2^w)*, which is 1, so the
denominator is the inverse of prod_{y not in S} (x_i - y), and whichever of
S and its complement is smaller is summed.  Basis values are applied to
the data in row blocks of about ``_BLOCK`` elements, so beyond the O(2^w)
lookup tables and the O(n*s) symbols for s interleaved codewords, no work
array exceeds max(_BLOCK, k*s, 2^w - k) elements.  Construction costs
O(k*min(k, 2^w - k)) (the denominators of the data points), encoding
O((n-k)*k*s), and an erasure decode O(k*min(k, 2^w - k)) for the
denominators of its base plus O(erasures*k*s) for the interpolation.

XOR transform (large codes).  In characteristic 2, x_t - x_i = x_t ^ x_i,
and the points 0..2^m - 1 (m = ceil(log2 n)) are closed under XOR.  So the
Lagrange sum sum_i a_i / (x_t - x_i) is a convolution over (Z_2^m, XOR),
and so are the log-sums sum_{j in S} log(x - x_j), which give every
denominator of a base and its vanishing polynomial at every point.
Walsh-Hadamard transforms (WHT) turn both into pointwise products: the
log-sums take two int64 WHTs, and the field-valued sum splits into w bit
planes (GF multiplication is bilinear over GF(2)) and takes 2w WHTs in
wrap-around uint16 (uint32 for m = 16) plus w^2 pointwise products per
codeword column.  Encoding and an erasure decode cost O(w^2 * 2^m * s)
whatever k is, construction O(w * m * 2^m); the tables hold w + 1 spectra
of 2^m entries, and a call's work arrays O(w * 2^m) entries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["GF2w", "ReedSolomonErasure", "TooManyErasures"]

# Primitive polynomials (with the x^w term) making x a generator of GF(2^w)*.
_PRIMITIVE_POLY = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B,
}


# Row blocks of the Lagrange basis and of the denominator sums hold about
# this many int64 elements (128 KiB, so a block's work arrays stay in cache).
_BLOCK = 1 << 14


# Kernel choice.  Per codeword, Lagrange costs about k*(n-k) to encode plus
# k*min(k, 2^w-k) for a decode's denominators; the transform about w^2 * 2^m
# (m = ceil(log2 n)) plus ~150 numpy calls.  Measured as the median encode +
# 5 %-erasure decode with each kernel forced, for n = 256..4096, k/n =
# 0.1..0.995 (2-vCPU Xeon, numpy 2.4): below 2^10 points the transform was
# 1.0-7.6x slower in 23 of 24 codes; from 2^10 points up it was 1.1-16x
# faster wherever the Lagrange work was at least 1.5 * w^2 * 2^m, and 1.4-4.5x
# slower in 6 of the 7 codes below that.
_TRANSFORM_MIN_POINTS = 1 << 10
_TRANSFORM_CROSSOVER = 1.5


def _use_transform(n: int, k: int, w: int) -> bool:
    points = 1 << _log2_ceil(n)
    lagrange_work = k * (n - k + min(k, (1 << w) - k))
    if points < _TRANSFORM_MIN_POINTS:
        return False
    return lagrange_work >= _TRANSFORM_CROSSOVER * w * w * points


def _log2_ceil(n: int) -> int:
    return (n - 1).bit_length()


def _wht(x: np.ndarray, row_bits: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of the last axis, transposed.

    The last axis (length 2^m) is read as a (2^row_bits, 2^(m - row_bits))
    matrix, transformed along both of its axes and returned as the flattened
    transpose, so ``_wht(_wht(x, r), m - r)`` is 2^m * x in natural order and
    spectra stay in transposed order between the two.  Every butterfly acts
    on whole matrix rows, which keeps numpy's inner loops contiguous.
    Integer arrays wrap on overflow: results are exact modulo 2^(dtype bits).
    """
    shape, n = x.shape, x.shape[-1]
    y = x.reshape(-1, 1 << row_bits, n >> row_bits).copy()
    _butterflies(y)
    y = np.ascontiguousarray(y.transpose(0, 2, 1))
    _butterflies(y)
    return y.reshape(shape)


def _butterflies(x: np.ndarray) -> None:
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


class TooManyErasures(Exception):
    """Raised when an erasure pattern exceeds the code's n - k budget."""


@lru_cache(maxsize=None)
def GF2w(w: int) -> "_Field":
    """The (cached) field GF(2^w), 2 <= w <= 16."""
    return _Field(w)


class _Field:
    def __init__(self, w: int):
        if w not in _PRIMITIVE_POLY:
            raise ValueError(f"field width must be in {sorted(_PRIMITIVE_POLY)}, got {w}")
        self.w = w
        self.order = 1 << w
        self.q = self.order - 1  # multiplicative group order
        poly = _PRIMITIVE_POLY[w]
        exp = np.zeros(self.q, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        x = 1
        for i in range(self.q):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= poly
        if x != 1:
            raise AssertionError(f"polynomial {poly:#x} is not primitive for w={w}")
        self.exp = exp
        self.log = log

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self.exp[(self.log[a] + self.log[b]) % self.q]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of 0 in GF(2^w)")
        return self.exp[(self.q - self.log[a]) % self.q]


class ReedSolomonErasure:
    """Systematic [n, k] Reed-Solomon code over GF(2^w), erasure decoding only.

    ``encode`` and ``decode_erasures`` take one codeword as a 1-D array, or
    ``s`` interleaved codewords as the columns of a 2-D array.
    """

    def __init__(self, n: int, k: int, w: int):
        field = GF2w(w)
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > field.order:
            raise ValueError(f"n={n} exceeds 2^w={field.order} evaluation points")
        self.n = n
        self.k = k
        self.field = field
        self._neglog = -field.log % field.q  # log(1/x) for x != 0
        # A kernel is a pair: base_logs(base) holds what interpolation needs
        # to know about a base, interp(base, logs, values, targets) gives
        # the values at the targets.
        if _use_transform(n, k, w):
            self._init_transform()
            self._base_logs, self._interp = self._log_sums, self._interpolate_xor
        else:
            # exp over exponents [0, 2q) followed by q zeros
            self._exp2 = np.concatenate([field.exp, field.exp, np.zeros(field.q, np.int64)])
            self._base_logs, self._interp = self._log_denominators, self._interpolate
        # Parity t is the polynomial through data points 0..k-1 evaluated at
        # point k+t; the logs of that base are kept (k == n means no parity).
        if n > k:
            self._data_logs = self._base_logs(np.arange(k, dtype=np.int64))

    def _log_denominators(self, base: np.ndarray) -> np.ndarray:
        """log prod_{j in base, j != i} (x_i - x_j) for every i in base.

        Over the whole field prod_{y != x} (x - y) is the product of all of
        GF(2^w)*, which is 1, so the product over base is the inverse of the
        product over the complement of base; the smaller set is summed.
        """
        f = self.field
        if 2 * base.size > f.order:
            outside = np.ones(f.order, dtype=bool)
            outside[base] = False
            others, table = np.flatnonzero(outside), self._neglog
        else:
            others, table = base, f.log  # x_i - x_i = 0 adds log[0] = 0
        out = np.empty(base.size, dtype=np.int64)
        step = max(1, _BLOCK // others.size)
        for a in range(0, base.size, step):
            out[a : a + step] = table[base[a : a + step, None] ^ others[None, :]].sum(axis=1)
        return out % f.q

    def _interpolate(self, base: np.ndarray, denom: np.ndarray, values: np.ndarray,
                     targets: np.ndarray) -> np.ndarray:
        """(len(targets), s) values at ``targets`` of the polynomials through
        ``base`` with columns of ``values``; ``denom`` from _log_denominators.
        """
        f = self.field
        q = f.q
        vals = values.T  # (s, k): the reduction runs over the contiguous axis
        # l_i(x_t) value_i = P(x_t) * value_i / (denom_i (x_t - x_i)) with
        # P(x_t) = prod_j (x_t - x_j) a per-row factor applied last.  In
        # logs, value_i / denom_i is in [0, q) and 1 / (x_t - x_i) in [0, q);
        # a zero value points at 2q, where the lookup table holds 0.
        coef = np.where(vals == 0, 2 * q, (f.log[vals] - denom[None, :]) % q)
        out = np.empty((targets.size, vals.shape[0]), dtype=np.int64)
        step = max(1, _BLOCK // max(1, vals.size))
        for a in range(0, targets.size, step):
            neglog = self._neglog[targets[a : a + step, None] ^ base[None, :]]  # (b, k)
            terms = self._exp2[neglog[:, None, :] + coef[None, :, :]]  # (b, s, k)
            sums = np.bitwise_xor.reduce(terms, axis=2)
            p_log = -neglog.sum(axis=1) % q
            out[a : a + step] = f.mul(sums, f.exp[p_log][:, None])
        return out

    def _init_transform(self) -> None:
        """Tables of the transform kernel over the points 0..2^m - 1."""
        f = self.field
        self._m = m = _log2_ceil(self.n)
        self._fwd_bits = (m + 1) // 2  # _wht(., fwd_bits) then _wht(., m - fwd_bits)
        size = 1 << m
        # Only sums modulo 2^(m+1) matter (see _interpolate_xor).
        self._dtype = np.uint16 if m < 16 else np.uint32
        # Spectrum of log(z), z < 2^m (log 0 = 0), for the log-sums.
        self._log_hat = _wht(f.log[:size].copy(), self._fwd_bits)
        # Spectra of the w bit planes of g(z) = 1/z (g(0) = 0), (w, 2^m).
        g = np.zeros(size, dtype=self._dtype)
        g[1:] = f.exp[self._neglog[1:size]]
        self._shifts = np.arange(f.w, dtype=self._dtype)[:, None]
        self._inv_hat = _wht((g >> self._shifts) & 1, self._fwd_bits)
        # Bit e >= w of a carry-less product stands for x^e = alpha^e, whose
        # set bits are the low bits it folds into.
        bits = np.arange(f.w)
        self._fold = [(e, np.flatnonzero((f.exp[e] >> bits) & 1)) for e in range(f.w, 2 * f.w - 1)]

    def _log_sums(self, base: np.ndarray) -> np.ndarray:
        """sum_{j in base} log(x ^ x_j) mod q for every point x < 2^m.

        That is log prod_{j in base, j != i} (x_i - x_j) at x = x_i in base
        (log 0 = 0 drops j = i) and log prod_{j in base} (x - x_j) elsewhere,
        an XOR correlation of the indicator of base with the log table: two
        int64 WHTs.  The exact sum times 2^m is below 2^48, so wrap-around in
        the intermediate sums cannot change it.
        """
        m = self._m
        ind = np.zeros(1 << m, dtype=np.int64)
        ind[base] = 1
        spec = _wht(ind, self._fwd_bits) * self._log_hat
        return (_wht(spec, m - self._fwd_bits) >> m) % self.field.q

    def _interpolate_xor(self, base: np.ndarray, sums: np.ndarray, values: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
        """:meth:`_interpolate` with ``sums`` from :meth:`_log_sums`.

        P(x_t) = prod_j (x_t - x_j) * C(x_t) with C(x) = sum_i a_i / (x ^ x_i),
        a_i = value_i / denom_i: C is an XOR convolution of a with g(z) = 1/z
        over the points 0..2^m - 1.  GF multiplication is bilinear over
        GF(2), so C splits into bit planes: bit e of the carry-less product
        a * g is the parity of sum_{b + c = e} (a_b conv g_c), an integer XOR
        convolution, which is 2^-m times the WHT of sum_{b + c = e} WHT(a_b)
        * WHT(g_c).  Bits e >= w are folded into the low w by the field
        polynomial before the inverse WHT (it is linear), and the parity is
        bit m of its result, which arithmetic modulo 2^(m+1) keeps exact.
        """
        f = self.field
        q, w, m = f.q, f.w, self._m
        vals = values.T  # (s, k)
        coef = np.where(vals == 0, 0, f.exp[(f.log[vals] - sums[base][None, :]) % q])
        out = np.empty((targets.size, vals.shape[0]), dtype=np.int64)
        weights = (1 << np.arange(w, dtype=np.int64))[:, None]
        for j, col in enumerate(coef):
            a = np.zeros(1 << m, dtype=self._dtype)
            a[base] = col
            a_hat = _wht((a >> self._shifts) & 1, self._fwd_bits)  # (w, 2^m)
            prod = np.zeros((2 * w - 1, 1 << m), dtype=self._dtype)
            for b in range(w):
                prod[b : b + w] += a_hat[b] * self._inv_hat
            for e, low in self._fold:
                prod[low] += prod[e]
            conv = _wht(prod[:w], m - self._fwd_bits)[:, targets]
            out[:, j] = (((conv >> m) & 1) * weights).sum(axis=0)
        return f.mul(out, f.exp[sums[targets]][:, None])

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Map k data symbols (or a (k, s) block) to n symbols (systematic)."""
        data = np.asarray(data, dtype=np.int64)
        if data.ndim not in (1, 2) or data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data symbols, got shape {data.shape}")
        if (data < 0).any() or (data >= self.field.order).any():
            raise ValueError("data symbols out of field range")
        if self.n == self.k:
            return data.copy()
        cols = data.reshape(self.k, -1)
        points = np.arange(self.n, dtype=np.int64)
        parity = self._interp(points[: self.k], self._data_logs, cols, points[self.k :])
        return np.concatenate([cols, parity]).reshape((self.n,) + data.shape[1:])

    def decode_erasures(self, symbols: np.ndarray, erased: np.ndarray) -> np.ndarray:
        """Recover the k data symbols (or a (k, s) block) from n symbols.

        ``symbols`` values at erased positions are ignored; one flag per row
        applies to every column.  Raises :class:`TooManyErasures` when more
        than n - k positions are erased.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        erased = np.asarray(erased, dtype=bool)
        if symbols.ndim not in (1, 2) or symbols.shape[0] != self.n or erased.shape != (self.n,):
            raise ValueError(f"expected {self.n} symbols and erasure flags")
        n_erased = int(erased.sum())
        if n_erased > self.n - self.k:
            raise TooManyErasures(
                f"{n_erased} erasures exceed redundancy n-k={self.n - self.k}"
            )
        data = symbols[: self.k].copy()
        missing = np.flatnonzero(erased[: self.k])
        if missing.size == 0:
            return data
        avail = np.flatnonzero(~erased)[: self.k]
        cols = symbols.reshape(self.n, -1)
        recovered = self._interp(avail, self._base_logs(avail), cols[avail], missing)
        data[missing] = recovered.reshape((missing.size,) + symbols.shape[1:])
        return data
