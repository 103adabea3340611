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

Lagrange denominators prod_{j in S, j != i} (x_i - x_j) over a base set S
of k points need no k x k matrix: over the whole field
prod_{y != x} (x - y) is the product of all of GF(2^w)*, which is 1, so the
denominator is the inverse of prod_{y not in S} (x_i - y), and whichever of
S and its complement is smaller is summed.  Basis values are applied to
the data in row blocks of about ``_BLOCK`` elements, so beyond the O(2^w)
lookup tables and the O(n*s) symbols for s interleaved codewords, no work
array exceeds max(_BLOCK, k*s, 2^w - k) elements.  Construction costs
O(k*min(k, 2^w - k)) (the denominators of the data points), encoding
O((n-k)*k*s), and an erasure decode O(k*min(k, 2^w - k)) for the
denominators of its base plus O(erasures*k*s) for the interpolation.
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
        # Lookup tables: log(1/x) for x != 0, and exp over exponents [0, 2q)
        # followed by q zeros.
        self._neglog = -field.log % field.q
        self._exp2 = np.concatenate([field.exp, field.exp, np.zeros(field.q, np.int64)])
        # Parity t is the polynomial through data points 0..k-1 evaluated at
        # point k+t; only the k Lagrange denominators of that base are kept
        # (k == n means no parity).
        if n > k:
            self._data_denom = self._log_denominators(np.arange(k, dtype=np.int64))

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
        parity = self._interpolate(
            points[: self.k], self._data_denom, cols, points[self.k :]
        )
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
        recovered = self._interpolate(
            avail, self._log_denominators(avail), cols[avail], missing
        )
        data[missing] = recovered.reshape((missing.size,) + symbols.shape[1:])
        return data
