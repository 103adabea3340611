"""Statistical checks shared by the test modules."""

import numpy as np
from scipy import stats


def pooled_chi2_pvalue(counts, pmf):
    """Chi-square p-value of integer counts against pmf (over 0, 1, ...),
    adjacent bins pooled left to right to an expected count >= 5, the tail
    from the last bin on pooled into one."""
    expected = counts.size * pmf
    observed = np.bincount(counts, minlength=pmf.size)
    bins, e, o = [], 0.0, 0
    for e_n, o_n in zip(expected, observed):
        e, o = e + e_n, o + o_n
        if e >= 5:
            bins.append((e, o))
            e, o = 0.0, 0
    tail = (counts.size - sum(b[0] for b in bins), counts.size - sum(b[1] for b in bins))
    if tail[0] < 5:
        tail = (bins[-1][0] + tail[0], bins[-1][1] + tail[1])
        bins.pop()
    bins.append(tail)
    e, o = np.array(bins).T
    return stats.chi2.sf(((o - e) ** 2 / e).sum(), len(bins) - 1)


def permanent(a):
    """Permanent of a square matrix by Ryser's formula over its 2^n column
    subsets S: (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij."""
    n = a.shape[0]
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    return float(signs @ (subsets @ a.T).prod(axis=1))
