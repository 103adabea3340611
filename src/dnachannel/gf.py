"""GF(2^w) arithmetic and a systematic Reed-Solomon erasure codec.

Field elements are integers 0..2^w-1; multiplication goes through log/exp
tables built from a fixed primitive polynomial per width, vectorized with
numpy so whole codewords are processed at once.

The Reed-Solomon code evaluates the degree-(k-1) polynomial interpolating
the k data symbols at points 0..n-1, so the first k codeword symbols are
the data itself.  Decoding from erasures re-interpolates from the first k
surviving symbols; any n-k erasures are recoverable, one more is not,
which is reported by raising :class:`TooManyErasures`.

One kernel interpolates for every (n, k, w).  It works over the points
0..2^m - 1 (m = ceil(log2 n)), the GF(2)-span of 1, 2, .., 2^(m-1) (in
characteristic 2, x - y is x ^ y), and keeps the Lagrange form
prod_j (x_t - x_j) * sum_i a_i / (x_t - x_i) with a_i = value_i /
prod_{j != i} (x_i - x_j), so its output is that of Lagrange interpolation
bit for bit, also for inputs that are no codeword.  The logs of both
products at every point are an XOR correlation of the base with the log
table: two int64 Walsh-Hadamard transforms (WHT).  The sum is the
derivative of the polynomial through a (zero off the base), which the
additive FFT in the novel polynomial basis of Lin, Chung and Han (FOCS
2014) gives at every point: an inverse FFT, a formal derivative and a
forward FFT, each m layers of 2^(m-1) butterflies.  Encoding and an
erasure decode cost O(m * 2^m * s) table lookups for s interleaved
codewords, whatever k is.  Construction costs O(m * 2^m); a codec holds
O(2^w + 2^m) table entries (log/exp tables, the log spectrum, the
butterfly constants), and a call's work arrays O(2^m * s).
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


def _novel_basis(field: "_Field", m: int) -> tuple[list, np.ndarray]:
    """The additive-FFT constants over the points 0..2^m - 1.

    W_i is the vanishing polynomial of span(1, 2, .., 2^(i-1)) and What_i =
    W_i / W_i(2^i); both are GF(2)-linear, W_0(x) = x and W_{i+1}(x) =
    W_i(x) * (W_i(x) + W_i(2^i)), so W_{i+1}' = W_i' * W_i(2^i) and each
    c_i = What_i' is a constant.  Returns, per layer i, the skews What_i(b)
    of the blocks b = 0, 2^(i+1), 2 * 2^(i+1), .. below 2^m, and per index j
    the log of sigma_j = prod_{bits i of j} c_i.
    """
    log, exp, q = field.log, field.exp, field.q
    at = 1 << np.arange(m)  # W_i(2^j) in entries j > i
    skews, sigma, log_deriv = [], np.zeros(1 << m, dtype=np.int64), 0
    for i in range(m):
        norm, higher = log[at[i]], at[i + 1 :]
        vals = np.zeros(1 << (m - i - 1), dtype=np.int64)
        # What_i(b) is the xor of What_i(2^(i+1+j)) over the bits j of b >> (i+1).
        for j, hat in enumerate(exp[(log[higher] - norm) % q]):
            np.bitwise_xor(vals[: 1 << j], hat, out=vals[1 << j : 2 << j])
        skews.append(vals)
        sigma[1 << i : 2 << i] = (sigma[: 1 << i] + log_deriv - norm) % q
        log_deriv = (log_deriv + norm) % q
        at[i + 1 :] = exp[(log[higher] + log[higher ^ at[i]]) % q]
    return skews, sigma


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
        q = field.q
        self._m = m = _log2_ceil(n)
        self._fwd_bits = (m + 1) // 2  # _wht(., fwd_bits) then _wht(., m - fwd_bits)
        # Spectrum of log(z), z < 2^m (log 0 = 0), for the log-sums.
        self._log_hat = _wht(field.log[: 1 << m].copy(), self._fwd_bits)
        # c * x is _expz[_logz[x] + log c] for logs in [0, q).  A zero factor
        # (x = 0, or the skew of a layer's block 0) has log 2q, which lands
        # in the zeros after the two periods of exp.
        self._logz = field.log.copy()
        self._logz[0] = 2 * q
        self._expz = np.concatenate([field.exp, field.exp, np.zeros(2 * q + 1, np.int64)])
        skews, sigma = _novel_basis(field, m)
        self._skews = [np.where(v == 0, 2 * q, field.log[v])[:, None] for v in skews]
        self._sigma, self._unsigma = sigma[:, None], (-sigma % q)[:, None]
        # Parity t is the polynomial through data points 0..k-1 evaluated at
        # point k+t; the log-sums of that base are kept (k == n means no parity).
        if n > k:
            self._data_logs = self._log_sums(np.arange(k, dtype=np.int64))

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

    def _evaluate(self, base: np.ndarray, sums: np.ndarray, values: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
        """(len(targets), s) values at ``targets`` (none in ``base``) of the
        polynomials through ``base`` with columns of ``values`` (k, s);
        ``sums`` from :meth:`_log_sums`.

        Lagrange gives P(x_t) = prod_j (x_t - x_j) * C(x_t) with C(x) =
        sum_i a_i / (x - x_i) and a_i = value_i / prod_{j != i} (x_i - x_j).
        Put a on all points 0..2^m - 1 (zero off base) and let A be the
        polynomial of degree < 2^m through it: A = (W / W') sum_i a_i / (x -
        x_i), with W the vanishing polynomial of the points and W' its
        constant derivative, so A'(x_t) = C(x_t) at every point off base.
        A is the inverse FFT of a, and A' at every point the forward FFT of
        its formal derivative.  X_j' = sum_{bits i of j} c_i X_{j - 2^i} for
        the basis X_j = prod_{bits i of j} What_i; scaled by sigma_j, the
        coefficients of the derivative are plain XORs of coefficients.
        """
        q, s = self.field.q, values.shape[1]
        a = np.zeros((1 << self._m, s), dtype=np.int64)
        a[base] = self._scale(values, (-sums[base] % q)[:, None])
        coef = self._scale(self._ifft(a), self._sigma)
        deriv = np.zeros_like(coef)
        for i in range(self._m):
            deriv.reshape(-1, 2, s << i)[:, 0] ^= coef.reshape(-1, 2, s << i)[:, 1]
        c = self._fft(self._scale(deriv, self._unsigma))
        return self._scale(c[targets], sums[targets][:, None])

    def _scale(self, x: np.ndarray, log_c) -> np.ndarray:
        """c * x elementwise, c given by its log (broadcast)."""
        return self._expz[self._logz[x] + log_c]

    def _fft(self, x: np.ndarray) -> np.ndarray:
        """Values at every point of the polynomial whose novel-basis
        coefficients are the rows of ``x`` (overwritten), row t for point t.

        Layer i = m-1, .., 0 splits each block of 2^(i+1) points b +
        span(1, .., 2^i), b its first point, into halves on which What_i is
        What_i(b) and What_i(b) + 1, so f0 + What_i * f1 becomes f0 +
        What_i(b) * f1 on the lower half and that plus f1 on the upper.
        Rows are kept with bit i of the index on top, so a layer reads two
        contiguous halves; it writes its output pairs interleaved, which
        moves bit i to the bottom.  Within a half the block number then runs
        fastest, and after m layers the rows are back in natural order.
        """
        m, h, s = self._m, len(x) // 2, x.shape[1]
        expz, logz, skews = self._expz, self._logz, self._skews
        y = np.empty_like(x)
        for i in reversed(range(m)):
            lo, hi = x[:h], x[h:]
            pair = y.reshape(h, 2, s)
            out_lo, out_hi = pair[:, 0], pair[:, 1]
            if i < m - 1:  # the single block of layer m - 1 has skew 0
                prod = expz[logz[hi].reshape(1 << i, -1, s) + skews[i]]
                np.bitwise_xor(lo, prod.reshape(h, s), out=out_lo)
            else:
                out_lo[...] = lo
            np.bitwise_xor(hi, out_lo, out=out_hi)
            x, y = y, x
        return x

    def _ifft(self, x: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`_fft`, also overwriting ``x``."""
        m, h, s = self._m, len(x) // 2, x.shape[1]
        expz, logz, skews = self._expz, self._logz, self._skews
        y = np.empty_like(x)
        for i in range(m):
            pair = x.reshape(h, 2, s)
            lo, hi = pair[:, 0], pair[:, 1]
            out_lo, out_hi = y[:h], y[h:]
            np.bitwise_xor(hi, lo, out=out_hi)
            if i < m - 1:
                prod = expz[logz[out_hi].reshape(1 << i, -1, s) + skews[i]]
                np.bitwise_xor(lo, prod.reshape(h, s), out=out_lo)
            else:
                out_lo[...] = lo
            x, y = y, x
        return x

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
        parity = self._evaluate(points[: self.k], self._data_logs, cols, points[self.k :])
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
        recovered = self._evaluate(avail, self._log_sums(avail), cols[avail], missing)
        data[missing] = recovered.reshape((missing.size,) + symbols.shape[1:])
        return data
