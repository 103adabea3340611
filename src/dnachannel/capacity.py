"""Closed-form capacities, bounds, and numerical solvers.

Everything here is a pure function over floats (64-bit), except the exact
big-integer type counter :func:`counting_T`.  Capacities are in bits per
stored base.

The central quantities, for M molecules of L = beta*log2(M) bits, sampling
miss probability q0, and per-bit crossover p:

  * noise-free capacity:        (1 - q0) * (1 - 1/beta), zero for beta <= 1
  * noisy (Bernoulli) capacity: (1 - q)  * (1 - H(p) - 1/beta), proven for
    p < 1/4 inside the region 1 - H(2p) - 2/beta > 0
  * upper bound:                (1 - q) * min(1 - H(p), 1 - 1/beta)

Note the proven region is governed strictly by the inequality above: e.g.
(p=0.1, beta=6.4) has margin -0.0344 and is *outside*, even though it may
look comfortably noisy-tolerant; the boundary at p=0.1 is beta ~ 7.19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CapacityResult",
    "TradeoffPoint",
    "binary_entropy",
    "kl_binary",
    "noise_free_capacity",
    "noisy_capacity",
    "capacity_upper_bound",
    "region_margin",
    "in_capacity_region",
    "region_boundary",
    "dmc_capacity_ba",
    "sdmc_capacity",
    "counting_T",
    "counting_T_log_upper",
    "hoeffding_seen_fraction_bound",
    "coupon_tail_bound",
    "chernoff_read_error_bound",
    "binomial_log_pmf",
    "binomial_cdf",
    "binomial_test",
    "short_molecule_success",
    "coupon_distinct_pmf",
    "tradeoff_point",
    "optimal_lambda",
    "short_molecule_bound",
    "scheme_rate",
]


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value plus whether the formula's hypothesis holds.

    ``value`` is clamped at 0 (rates are nonnegative).  ``valid`` reports
    whether the parameters lie in the regime where the formula is the true
    capacity; ``condition_margin`` carries 1 - H(2p) - 2/beta where that
    inequality is the governing condition, else None.
    """

    value: float
    valid: bool
    condition_margin: float | None = None


@dataclass(frozen=True)
class TradeoffPoint:
    """Storage/recovery rate pair achievable at coverage depth lam."""

    lam: float
    rs_max: float
    rr_max: float


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def kl_binary(delta: float, p: float) -> float:
    """Binary KL divergence D(delta || p) in bits.

    Returns +inf when p is degenerate (0 or 1) and delta differs.
    """
    if not 0.0 <= delta <= 1.0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"arguments must be probabilities, got ({delta}, {p})")
    if delta == p:
        return 0.0
    if p == 0.0 or p == 1.0:
        return math.inf
    t1 = delta * math.log2(delta / p) if delta > 0.0 else 0.0
    t2 = (1.0 - delta) * math.log2((1.0 - delta) / (1.0 - p)) if delta < 1.0 else 0.0
    return max(0.0, t1 + t2)  # rounding near delta = p can dip a few ulp negative


def noise_free_capacity(q0: float, beta: float) -> CapacityResult:
    """Capacity (1 - q0)(1 - 1/beta) of the noise-free channel; 0 for beta <= 1."""
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if not 0.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (0, inf), got {beta}")
    if beta <= 1.0:
        return CapacityResult(value=0.0, valid=True)
    return CapacityResult(value=(1.0 - q0) * (1.0 - 1.0 / beta), valid=True)


def noisy_capacity(q: float, p: float, beta: float) -> CapacityResult:
    """Formula (1 - q)(1 - H(p) - 1/beta), clamped at 0.

    The result is the proven capacity only when p < 1/4 and
    1 - H(2p) - 2/beta > 0; outside that region the expression is still
    evaluated but flagged invalid (its status there is open).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must be in [0, 0.5], got {p}")
    if not 0.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (0, inf), got {beta}")
    value = max(0.0, (1.0 - q) * (1.0 - binary_entropy(p) - 1.0 / beta))
    margin = region_margin(p, beta)
    # in_capacity_region rejects p = 0.5, which lies outside the region anyway.
    return CapacityResult(value=value, valid=p < 0.5 and in_capacity_region(p, beta),
                          condition_margin=margin)


def capacity_upper_bound(q: float, p: float, beta: float) -> float:
    """(1 - q) * min(1 - H(p), 1 - 1/beta)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (0, inf), got {beta}")
    return (1.0 - q) * min(1.0 - binary_entropy(p), 1.0 - 1.0 / beta)


def region_margin(p: float, beta: float) -> float:
    """Value of 1 - H(2p) - 2/beta; positive inside the proven region."""
    h2p = binary_entropy(min(2.0 * p, 1.0))
    return 1.0 - h2p - 2.0 / beta


def in_capacity_region(p: float, beta: float) -> bool:
    """True iff p < 1/4 and 1 - H(2p) - 2/beta > 0 (the proven region)."""
    if not 0.0 <= p < 0.5:
        raise ValueError(f"p must be in [0, 0.5), got {p}")
    if not 0.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (0, inf), got {beta}")
    return p < 0.25 and region_margin(p, beta) > 0.0


def region_boundary(p: float) -> float:
    """Smallest beta on the region boundary at crossover p: 2 / (1 - H(2p))."""
    if not 0.0 <= p < 0.25:
        raise ValueError(f"p must be in [0, 1/4), got {p}")
    return 2.0 / (1.0 - binary_entropy(2.0 * p))


# ---------------------------------------------------------------------------
# Discrete memoryless channel capacity (alternating maximization)
# ---------------------------------------------------------------------------

def dmc_capacity_ba(
    transition: np.ndarray, tol: float = 1e-9, max_iter: int = 100_000
) -> float:
    """Capacity in bits of a DMC given its row-stochastic transition matrix.

    Standard alternating maximization with the duality-gap stopping rule:
    with D_x = D(W(.|x) || r) for the current output marginal r, the
    capacity lies in [sum_x p_x D_x, max_x D_x]; iterate until that gap is
    below ``tol`` and return the midpoint.
    """
    W = np.asarray(transition, dtype=float)
    if W.ndim != 2 or W.shape[0] < 1:
        raise ValueError("transition must be a 2-D matrix")
    if not np.isfinite(W).all():  # NaN would pass every comparison below
        raise ValueError("transition probabilities must be finite")
    if (W < 0).any():
        raise ValueError("transition probabilities must be nonnegative")
    rowsums = W.sum(axis=1)
    if np.abs(rowsums - 1.0).max() > 1e-12:
        raise ValueError(f"rows must sum to 1 within 1e-12, got sums {rowsums}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    m = W.shape[0]
    px = np.full(m, 1.0 / m)
    logW = np.where(W > 0, np.log2(np.maximum(W, 1e-300)), 0.0)
    for _ in range(int(max_iter)):
        r = px @ W
        # D_x = sum_y W(y|x) log2(W(y|x) / r_y), terms with W=0 contribute 0.
        with np.errstate(divide="ignore"):
            logr = np.where(r > 0, np.log2(np.maximum(r, 1e-300)), 0.0)
        D = np.einsum("xy,xy->x", W, logW - logr[None, :])
        i_low = float(px @ D)
        i_up = float(D.max())
        if i_up - i_low < tol:
            return 0.5 * (i_low + i_up)
        px = px * np.exp2(D - D.max())
        px /= px.sum()
    raise RuntimeError(f"no convergence to gap < {tol} after {max_iter} iterations")


def sdmc_capacity(
    transition: np.ndarray,
    q: float,
    beta: float,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> CapacityResult:
    """Shuffling-sampling capacity (1 - q) * max(0, C_DMC - 1/beta).

    Holds for symmetric DMCs when beta is large enough; no closed form for
    "large enough" exists, so ``valid`` only reports the necessary condition
    beta > log2(#outputs) (below which the capacity is zero) and is advisory.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (0, inf), got {beta}")
    c_dmc = dmc_capacity_ba(transition, tol=tol, max_iter=max_iter)
    n_outputs = np.asarray(transition).shape[1]
    value = (1.0 - q) * max(0.0, c_dmc - 1.0 / beta)
    return CapacityResult(
        value=value,
        valid=beta > math.log2(n_outputs),
        condition_margin=c_dmc - 1.0 / beta,
    )


# ---------------------------------------------------------------------------
# Counting and concentration bounds
# ---------------------------------------------------------------------------

def counting_T(a: int, b: int) -> int:
    """Number of vectors in Z_+^a with l1 mass exactly b: C(a+b-1, b), exact."""
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    return math.comb(a + b - 1, b)


def counting_T_log_upper(a: int, b: int) -> float:
    """log2 of the bound (e(a+b-1)/b)^b on counting_T(a, b).

    Uses log-gamma-free arithmetic, so it stays finite far beyond the range
    where the exact count fits in floating point.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    if b == 0:
        return 0.0
    return b * math.log2(math.e * (a + b - 1) / b)


def hoeffding_seen_fraction_bound(M: int, delta: float) -> float:
    """Hoeffding bound exp(-2 M delta^2) on the seen fraction exceeding its mean."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not 0.0 <= delta < math.inf:  # False for NaN too
        raise ValueError(f"delta must be in [0, inf), got {delta}")
    return math.exp(-2.0 * M * delta * delta)


def coupon_tail_bound(M: int, lam: float, delta: float) -> float:
    """Chebyshev tail bound on the distinct-coupon count.

    For N = lam*M draws with replacement from M coupons, bounds
    P(Q >= (1 - e^-lam + delta) M) by (1/M) * 2 e^{2 lam} / (xi - e^lam/M)^2
    with xi = ln(e^-lam / (e^-lam - delta)).  May exceed 1 (vacuous); the
    caller clamps for interpretation.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not 0.0 < lam < math.inf:  # False for NaN too
        raise ValueError(f"lambda must be in (0, inf), got {lam}")
    e_neg = math.exp(-lam)
    if not 0.0 < delta <= e_neg / 2.0:
        raise ValueError(f"delta must be in (0, e^-lambda / 2], got {delta}")
    xi = math.log(e_neg / (e_neg - delta))
    slack = xi - math.exp(lam) / M
    if slack <= 0.0:
        raise ValueError(
            f"bound requires xi > e^lambda / M; xi={xi:.6g}, e^lam/M={math.exp(lam)/M:.6g}"
        )
    return (1.0 / M) * 2.0 * math.exp(2.0 * lam) / (slack * slack)


def chernoff_read_error_bound(L: int, p: float, delta: float) -> float:
    """Chernoff bound 2^(-L D(delta||p)) on >= delta*L bit flips in one read."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if delta <= p:
        raise ValueError(f"bound requires delta > p, got delta={delta}, p={p}")
    return 2.0 ** (-L * kl_binary(delta, p))


# ---------------------------------------------------------------------------
# Exact laws: binomial in log space, short-molecule recovery
# ---------------------------------------------------------------------------

def binomial_log_pmf(k: int, n: int, p: float) -> float:
    """ln P(Bin(n, p) = k), from log-gamma, so it stays finite where
    C(n, k) p^k (1-p)^(n-k) would overflow or underflow term by term."""
    if not 0.0 <= p <= 1.0:  # False for NaN too
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not 0 <= k <= n:
        return -math.inf
    if p == 0.0 or p == 1.0:
        return 0.0 if k == n * p else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(Bin(n, p) <= k), summed exactly rounded over the pmf."""
    return math.fsum(math.exp(binomial_log_pmf(j, n, p)) for j in range(k + 1))


def binomial_test(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of k successes in n trials of Bin(n, p).

    The mass of every outcome no more likely than k (relative slack 1e-7
    for rounding), as scipy.stats.binomtest's default computes it.
    """
    cut = binomial_log_pmf(k, n, p) + math.log1p(1e-7)
    logs = (binomial_log_pmf(j, n, p) for j in range(n + 1))
    return min(1.0, math.fsum(math.exp(x) for x in logs if x <= cut))


def short_molecule_success(q0: float, M: int, L: int) -> float:
    """Noise-free recovery probability of the short-molecule scheme.

    Its M molecules hold K = 2^(L-1) segments round-robin, so segment s has
    c_s copies (ceil or floor of M/K), and a trial recovers every bit iff
    every segment is read at least once: prod_s (1 - q0^c_s).
    """
    if not 0.0 <= q0 <= 1.0:  # False for NaN too
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    K = 1 << (L - 1)
    if M < K:
        raise ValueError(f"need M >= 2^(L-1)={K}, got M={M}")
    few, extra = divmod(M, K)
    copies = [few + 1] * extra + [few] * (K - extra)
    return math.prod(1.0 - q0 ** c for c in copies)


def coupon_distinct_pmf(M: int, n: int) -> np.ndarray:
    """Exact law of the distinct count among n uniform draws, with
    replacement, from M coupons: entry d is P(d distinct), d = 0..M.

    With d coupons seen, the next draw is new with probability (M - d)/M;
    n steps of that chain give the occupancy law in O(n M).
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    seen = np.arange(M + 1) / M
    pmf = np.zeros(M + 1)
    pmf[0] = 1.0
    for _ in range(n):
        new = pmf * (1.0 - seen)
        pmf *= seen
        pmf[1:] += new[:-1]
    return pmf


# ---------------------------------------------------------------------------
# Storage-recovery tradeoff
# ---------------------------------------------------------------------------

def tradeoff_point(lam: float, beta: float) -> TradeoffPoint:
    """Max storage & recovery rates under Poisson(lam) sampling, beta > 1.

    rs_max = (1 - e^-lam)(1 - 1/beta) and rr_max = rs_max / lam, so the
    identity rs_max = lam * rr_max holds to within 1 ulp by construction.
    """
    if not 0.0 < lam < math.inf:  # False for NaN too
        raise ValueError(f"lambda must be in (0, inf), got {lam}")
    if not 1.0 < beta < math.inf:
        raise ValueError(f"beta must be in (1, inf), got {beta}")
    rs = (1.0 - math.exp(-lam)) * (1.0 - 1.0 / beta)
    return TradeoffPoint(lam=lam, rs_max=rs, rr_max=rs / lam)


def optimal_lambda(cost_ratio_q: float) -> float:
    """Coverage depth minimizing total cost (q + lam) / (1 - e^-lam).

    The stationarity condition is e^lam = q + lam + 1; solved by safeguarded
    Newton iteration to |e^lam - lam - 1 - q| < 1e-10 (or to the floating
    point limit when roundoff in e^lam dominates).
    """
    q = float(cost_ratio_q)
    if not 0.0 < q < math.inf:  # False for NaN too
        raise ValueError(f"cost ratio must be in (0, inf), got {q}")
    lam = math.log(q + 2.0)
    for _ in range(200):
        f = math.exp(lam) - lam - 1.0 - q
        if abs(f) < 1e-10:
            break
        step = f / (math.exp(lam) - 1.0)
        new = lam - step
        if new == lam:
            break
        lam = new
    return lam


def short_molecule_bound(beta: float) -> float:
    """Upper bound 1/beta - 1 on the short-molecule rate, for beta in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"short-molecule bound requires 0 < beta < 1, got {beta}")
    return 1.0 / beta - 1.0


def scheme_rate(q: float, r_inner: float, beta: float) -> float:
    """Asymptotic rate (1 - q)(r_inner - 1/beta) of the index-based scheme."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0.0 < r_inner <= 1.0:
        raise ValueError(f"r_inner must be in (0, 1], got {r_inner}")
    if not 1.0 < beta < math.inf:  # False for NaN too
        raise ValueError(f"beta must be in (1, inf), got {beta}")
    return max(0.0, (1.0 - q) * (r_inner - 1.0 / beta))
