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
table: two integer Walsh-Hadamard transforms (WHT), each a Kronecker product
of +-1 Hadamard matrices of at most 64 points, one per axis of the points
read as a 2- or 3-axis array.  They run as float64 matrix products on BLAS,
exact because every partial sum is an integer below 2^48.  The sum is the
derivative of the polynomial through a (zero off the base), which the
additive FFT in the novel polynomial basis of Lin, Chung and Han (FOCS
2014) gives: an inverse FFT, a formal derivative and a forward FFT, each m
layers of 2^(m-1) butterflies; the forward one only on the aligned block
of 2^j points holding the targets, once m - j layers halve the polynomial
to it.  Encoding and an erasure decode cost O(m * 2^m * s) table lookups
for s interleaved codewords, whatever k is.  Construction costs O(m * 2^m);
a codec holds O(2^w) read-only table entries and a call allocates O(2^m * s)
of its own, so one codec serves any threads at once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

__all__ = ["GF2w", "ReedSolomonErasure", "TooManyErasures"]

# Primitive polynomials (with the x^w term) making x a generator of GF(2^w)*.
_PRIMITIVE_POLY = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B,
}


@lru_cache(maxsize=None)
def _hadamard(bits: int) -> np.ndarray:
    """The float64 Hadamard matrix of 2^bits points, entries (-1)^popcount(i & j)."""
    h = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * bits, np.ones((1, 1)))
    h.setflags(write=False)
    return h


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


# A butterfly layer adds each block's skew to a run of rows in one numpy
# loop per run, so a layer's skews are tiled to runs of at least this many
# rows (or its whole half).
_RUN = 64


def _runs(layers: list, t0: int, j: int) -> list:
    """Per layer i < j, the skew logs of the blocks of the 2^j points from t0
    (a multiple of 2^j) as a column in the order the layer reads its rows,
    the block number fastest, tiled to min(2^(j-1), _RUN) rows or more.
    ``layers[i]`` starts with layer i's skew logs of the blocks of all 2^m
    points."""
    runs = []
    for i in range(j):
        blocks = 1 << (j - i - 1)
        first = t0 >> (i + 1)
        runs.append(np.tile(layers[i][first : first + blocks],
                            (min(1 << i, max(1, _RUN // blocks)), 1)))
    return runs


def _block(first: int, last: int) -> tuple[int, int]:
    """(t0, j): the smallest aligned block of 2^j points from t0 holding
    ``first`` and ``last``."""
    j = (first ^ last).bit_length()
    return first >> j << j, j


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
        exp.setflags(write=False)  # shared by every codec of width w
        log.setflags(write=False)
        self.exp = exp
        self.log = log


class ReedSolomonErasure:
    """Systematic [n, k] Reed-Solomon code over GF(2^w), erasure decoding only.

    ``encode`` and ``decode_erasures`` take one codeword as a 1-D array, or
    ``s`` interleaved codewords as the columns of a 2-D array.  A call never
    changes the codec; threads may share one.
    """

    def __init__(self, n: int, k: int, w: int):
        field = GF2w(w)
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > field.order:
            raise ValueError(f"n={n} exceeds 2^w={field.order} evaluation points")
        self.n, self.k, self.field = n, k, field
        q = field.q
        self._m = m = (n - 1).bit_length()
        # The WHT's axes: the fewest of at most 6 bits, as (pre, 2^bits, post).
        axes = max(1, -(-m // 6))
        bits = [m // axes + (i < m % axes) for i in range(axes)]
        self._wht_axes = [(_hadamard(b), (1 << sum(bits[:i]), 1 << b, 1 << sum(bits[i + 1:])))
                          for i, b in enumerate(bits)]
        # The spectrum of log z, z < 2^m (log 0 = 0).
        self._log_hat = self._wht(field.log[: 1 << m].astype(float)).copy()
        # c * x is _expz[_logz[x] + log c] for logs in [0, q).  A zero factor
        # (x = 0, or the skew of a layer's block 0) has log 2q; every index
        # from 2q up lands, under take's mode="clip", on the final zero after
        # the two periods of exp.
        self._logz = field.log.copy()
        self._logz[0] = 2 * q
        self._expz = np.concatenate([field.exp, field.exp, np.zeros(1, np.int64)])
        skews, sigma = _novel_basis(field, m)
        self._layers = _runs([np.where(v == 0, 2 * q, field.log[v])[:, None] for v in skews], 0, m)
        self._sigma, self._unsigma = sigma[:, None], (-sigma % q)[:, None]
        # Parity t is the polynomial through data points 0..k-1 evaluated at
        # point k+t: the scales of that base and of the parity points, and
        # the parity block's skews, are fixed (k == n means no parity).
        if n > k:
            sums = self._log_sums(np.arange(k))
            t0, j = _block(k, n - 1)
            self._parity = ((-sums[:k] % q)[:, None], sums[k:n, None], t0,
                            _runs(self._layers, t0, j))
        for a in [self._log_hat, self._logz, self._expz, self._sigma, self._unsigma, *self._layers,
                  *(self._parity[:2] + tuple(self._parity[3]) if n > k else ())]:
            a.setflags(write=False)  # no call writes what the codec holds

    def _wht(self, x: np.ndarray) -> np.ndarray:
        """The unnormalised WHT of the float vector ``x`` (left as is), one product per axis."""
        work = np.empty((2, x.size))
        for (h, (pre, d, post)), y in zip(self._wht_axes, itertools.cycle(work)):
            if post == 1:
                np.matmul(x.reshape(pre, d), h, out=y.reshape(pre, d))
            else:
                np.matmul(h, x.reshape(pre, d, post), out=y.reshape(pre, d, post))
            x = y
        return x

    def _log_sums(self, base: np.ndarray) -> np.ndarray:
        """sum_{j in base} log(x ^ x_j) mod q for every point x < 2^m.

        That is log prod_{j in base, j != i} (x_i - x_j) at x = x_i in base
        (log 0 = 0 drops j = i) and log prod_{j in base} (x - x_j) elsewhere:
        2^m times it is the WHT of the product of the WHTs of the indicator
        of base and of the log table.  Any partial sum BLAS forms, in any
        order, is a signed sum of distinct integer inputs of one WHT, so at
        most their l1 norm: |base| <= 2^m, 2^m (q - 1) for the logs, and for
        the product of spectra sqrt(2^m |base|) * 2^m (q - 1) <= 2^(2m) (q -
        1) (Cauchy-Schwarz, Parseval), below 2^48 at m = w = 16: exact in float64.
        """
        indicator = np.zeros(1 << self._m)
        indicator[base] = 1
        spectrum = np.multiply(self._wht(indicator), self._log_hat, out=indicator)
        sums = self._wht(spectrum).astype(np.int64)
        return np.remainder(np.right_shift(sums, self._m, out=sums), self.field.q, out=sums)

    def _evaluate(self, base, values: np.ndarray, base_logs: np.ndarray, t0: int,
                  runs: list) -> np.ndarray:
        """C(x) = sum_i a_i / (x - x_i) at the 2^j points t0 + 0..2^j - 1
        (t0 a multiple of 2^j, j = len(runs)) for the points ``base`` (an
        index array or slice) and a_i the rows of ``values`` (k, s) scaled by
        ``base_logs`` (k, 1), -sums[base] % q for sums from :meth:`_log_sums`;
        ``runs`` is :func:`_runs` of the layers for that block.  The result
        is a view of an array of this call, (2^j, s).

        Lagrange gives P(x_t) = prod_j (x_t - x_j) * C(x_t), off base.  Put a
        on all points 0..2^m - 1 (zero off base); the polynomial A of degree
        < 2^m through it is (W / W') * C, W vanishing on the points and W'
        its constant derivative, so A'(x_t) = C(x_t) off base.  A is the
        inverse FFT of a, A' the forward FFT of its formal derivative.  X_j' =
        sum_{bits i of j} c_i X_{j - 2^i} for the basis X_j = prod_{bits i of
        j} What_i; scaled by sigma_j, the coefficients of the derivative are
        plain XORs of coefficients.

        Layer i >= j keeps only the half holding t0, f0 + (What_i(b) + bit i
        of t0) * f1.
        """
        s, m = values.shape[1], self._m
        a, deriv = np.zeros((2, 1 << m, s), dtype=np.int64)
        a[base] = self._scale(values, base_logs)
        coef = self._scale(self._ifft(a, deriv), self._sigma, out=a)
        deriv.fill(0)  # the inverse FFT ran through it
        for i in range(m):
            if s << i < 8:  # short rows: one strided slice per residue
                for r in range(1 << i):
                    deriv[r :: 2 << i] ^= coef[r + (1 << i) :: 2 << i]
            else:
                deriv.reshape(-1, 2, s << i)[:, 0] ^= coef.reshape(-1, 2, s << i)[:, 1]
        f = self._scale(deriv, self._unsigma, out=deriv)
        for i in reversed(range(len(runs), m)):
            c = int(self._expz[self._layers[i][t0 >> (i + 1), 0]]) ^ (t0 >> i & 1)
            f, hi = f[: len(f) // 2], f[len(f) // 2 :]
            f ^= self._scale(hi, self._logz[c])
        return self._fft(f, coef[: len(f)], t0, runs)

    def _scale(self, x: np.ndarray, log_c, out: np.ndarray | None = None) -> np.ndarray:
        """c * x elementwise, c by its log (broadcast); ``out`` may be ``x``."""
        return self._expz.take(self._logz.take(x, mode="clip") + log_c, out=out, mode="clip")

    def _fft(self, x: np.ndarray, y: np.ndarray, t0: int, runs: list) -> np.ndarray:
        """Values at the points t0 + 0..2^j - 1 (t0 a multiple of 2^j) of the
        polynomial whose novel-basis coefficients are the 2^j rows of ``x``,
        row t for point t0 + t; ``runs`` is :func:`_runs` for that block, and
        ``x`` and ``y`` are overwritten.

        Layer i = j-1, .., 0 splits each block b + span(1, .., 2^i) (b its
        first point) into halves where What_i is What_i(b) and What_i(b) + 1,
        so f0 + What_i * f1 is f0 + What_i(b) * f1 below and that plus f1
        above.  Rows keep bit i of the index on top, so a layer reads two
        contiguous halves; writing output pairs interleaved moves bit i to
        the bottom, the block number then runs fastest within a half, and
        after j layers the rows are in natural order.
        """
        h, s = len(x) // 2, x.shape[1]
        for i in reversed(range(len(runs))):
            pair = y.reshape(h, 2, s)
            out_lo, out_hi = pair[:, 0], pair[:, 1]
            if t0 or i < len(runs) - 1:  # the single block of layer j - 1 from 0 has skew 0
                self._butterfly(x[:h], x[h:], runs[i], out_lo)
            else:
                out_lo[...] = x[:h]
            np.bitwise_xor(x[h:], out_lo, out=out_hi)
            x, y = y, x
        return x

    def _ifft(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`_fft` at t0 = 0."""
        m, h, s = self._m, len(x) // 2, x.shape[1]
        for i in range(m):
            pair = x.reshape(h, 2, s)
            lo, hi = pair[:, 0], pair[:, 1]
            out_lo, out_hi = y[:h], y[h:]
            np.bitwise_xor(hi, lo, out=out_hi)
            if i < m - 1:
                self._butterfly(lo, out_hi, self._layers[i], out_lo)
            else:
                out_lo[...] = lo
            x, y = y, x
        return x

    def _butterfly(self, lo: np.ndarray, hi: np.ndarray, run: np.ndarray,
                   out: np.ndarray) -> None:
        """out = lo + skew * hi for a layer's halves (h, s), the skews by
        their logs ``run`` (a column of :func:`_runs`), repeating along hi."""
        s = hi.shape[1]
        logs = self._logz.take(hi, mode="clip").reshape(-1, len(run), s)
        prod = self._expz.take(np.add(logs, run, out=logs), mode="clip")
        np.bitwise_xor(lo, prod.reshape(-1, s), out=out)

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Map k data symbols (or a (k, s) block) to n symbols (systematic)."""
        data = np.asarray(data, dtype=np.int64)
        if data.ndim not in (1, 2) or data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data symbols, got shape {data.shape}")
        if (data >> self.field.w).any():  # a negative symbol shifts to -1
            raise ValueError("data symbols out of field range")
        if self.n == self.k:
            return data.copy()
        k, cols = self.k, data.reshape(self.k, -1)
        base_logs, parity_logs, t0, runs = self._parity
        c = self._evaluate(slice(0, k), cols, base_logs, t0, runs)
        parity = self._scale(c[k - t0 : self.n - t0], parity_logs)
        return np.concatenate([cols, parity]).reshape((self.n,) + data.shape[1:])

    def decode_erasures(self, symbols: np.ndarray, erased: np.ndarray) -> np.ndarray:
        """Recover the k data symbols (or a (k, s) block) from n symbols.

        ``symbols`` values at erased positions are ignored; one flag per row
        applies to every column.  Raises :class:`TooManyErasures` past n - k
        erasures, and ValueError for a symbol it reads out of the field.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        erased = np.asarray(erased, dtype=bool)
        if symbols.ndim not in (1, 2) or symbols.shape[0] != self.n or erased.shape != (self.n,):
            raise ValueError(f"expected {self.n} symbols and erasure flags")
        n_erased = int(erased.sum())
        if n_erased > self.n - self.k:
            raise TooManyErasures(f"{n_erased} erasures exceed redundancy n-k={self.n - self.k}")
        avail = np.flatnonzero(~erased)[: self.k]  # holds every kept data row
        known = symbols.reshape(self.n, -1)[avail]
        if (known >> self.field.w).any():
            raise ValueError("symbols out of field range")
        data = symbols[: self.k].copy()
        missing = np.flatnonzero(erased[: self.k])
        if missing.size == 0:
            return data
        t0, j = _block(int(missing[0]), int(missing[-1]))
        sums = self._log_sums(avail)
        c = self._evaluate(avail, known, (-sums[avail] % self.field.q)[:, None], t0,
                           self._layers if j == self._m else _runs(self._layers, t0, j))
        recovered = self._scale(c[missing - t0], sums[missing][:, None])
        data[missing] = recovered.reshape((missing.size,) + symbols.shape[1:])
        return data
