"""Capacity formula tests against high-precision and brute-force oracles.

Frozen constants below were computed with mpmath at 40 digits; each is
re-derived here with the in-test oracle before being trusted.
"""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from dnachannel import capacity as cap

mpmath.mp.dps = 40


def oracle_H(x) -> float:
    x = mpmath.mpf(x)
    if x in (0, 1):
        return 0.0
    return float(-x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2))


def oracle_kl(d, p) -> float:
    d, p = mpmath.mpf(d), mpmath.mpf(p)
    t1 = d * mpmath.log(d / p, 2) if d > 0 else 0
    t2 = (1 - d) * mpmath.log((1 - d) / (1 - p), 2) if d < 1 else 0
    return float(t1 + t2)


# ---------------------------------------------------------------------------
# entropy / KL
# ---------------------------------------------------------------------------

def test_entropy_symmetry_maximum():
    assert cap.binary_entropy(0.5) == 1.0


def test_entropy_degenerate_points():
    assert cap.binary_entropy(0.0) == 0.0
    assert cap.binary_entropy(1.0) == 0.0


def test_entropy_011_oracle():
    assert oracle_H("0.11") == pytest.approx(0.4999159581645280, abs=1e-15)
    assert cap.binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-13)


def test_entropy_domain_error():
    with pytest.raises(ValueError):
        cap.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        cap.binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_range_and_symmetry(x):
    h = cap.binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(cap.binary_entropy(1.0 - x), abs=1e-12)


def test_kl_zero_iff_equal():
    assert cap.kl_binary(0.1, 0.1) == 0.0
    assert cap.kl_binary(0.5, 0.5) == 0.0


def test_kl_015_005_oracle():
    assert oracle_kl("0.15", "0.05") == pytest.approx(0.1013494037439143, abs=1e-15)
    assert cap.kl_binary(0.15, 0.05) == pytest.approx(0.1013494037439143, abs=1e-13)


def test_kl_degenerate_reference_is_infinite():
    assert cap.kl_binary(0.3, 0.0) == math.inf
    assert cap.kl_binary(0.3, 1.0) == math.inf
    assert cap.kl_binary(0.0, 0.0) == 0.0


@given(
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_kl_nonnegative(d, p):
    assert cap.kl_binary(d, p) >= 0.0


# ---------------------------------------------------------------------------
# capacities and bounds
# ---------------------------------------------------------------------------

def test_noise_free_capacity_poisson1_beta5():
    q0 = float(mpmath.e ** -1)
    result = cap.noise_free_capacity(q0, 5.0)
    assert result.value == pytest.approx(0.5056964470628461, abs=1e-15)
    assert result.valid


def test_noise_free_capacity_zero_at_beta_one():
    assert cap.noise_free_capacity(0.3, 1.0).value == 0.0
    assert cap.noise_free_capacity(0.0, 0.5).value == 0.0


def test_noise_free_capacity_lossless_sampling():
    assert cap.noise_free_capacity(0.0, 2.0).value == 0.5


def test_noise_free_monotonicity():
    betas = np.linspace(1.01, 20, 50)
    vals = [cap.noise_free_capacity(0.2, b).value for b in betas]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    q0s = np.linspace(0, 1, 50)
    vals = [cap.noise_free_capacity(q, 5.0).value for q in q0s]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_noisy_capacity_reduces_to_noise_free():
    result = cap.noisy_capacity(0.0, 0.0, 5.0)
    assert result.value == pytest.approx(0.8, abs=1e-15)
    assert result.valid


def test_noisy_capacity_frozen_example():
    result = cap.noisy_capacity(0.1, 0.01, 4.0)
    assert result.value == pytest.approx(0.6022861776936799, abs=1e-13)
    assert result.valid
    assert result.condition_margin == pytest.approx(0.3585594574581794, abs=1e-13)


def test_noisy_capacity_invalid_above_quarter():
    result = cap.noisy_capacity(0.0, 0.3, 50.0)
    assert not result.valid


def test_noisy_capacity_at_half():
    # p = 0.5 is admitted; H(2p) = H(1) = 0, so the margin is 1 - 2/beta.
    result = cap.noisy_capacity(0.1, 0.5, 4.0)
    assert result.value == 0.0
    assert not result.valid
    assert result.condition_margin == pytest.approx(0.5, abs=1e-15)


def test_noisy_capacity_clamps_to_zero():
    assert cap.noisy_capacity(0.0, 0.4, 1.5).value == 0.0
    for beta in (0.3, 0.8, 1.0):
        assert cap.noisy_capacity(0.1, 0.05, beta).value == 0.0


def test_noisy_capacity_monotone_in_p_and_q():
    vals = [cap.noisy_capacity(0.1, p, 8.0).value for p in np.linspace(0, 0.49, 60)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    vals = [cap.noisy_capacity(q, 0.05, 8.0).value for q in np.linspace(0, 1, 60)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_upper_bound_trivial_min():
    assert cap.capacity_upper_bound(0.0, 0.0, 2.0) == 0.5


def test_upper_bound_frozen_example():
    assert cap.capacity_upper_bound(0.1, 0.11, 100.0) == pytest.approx(
        0.4500756376519248, abs=1e-13
    )


def test_upper_bound_dominates_noisy_capacity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = rng.uniform(0, 1)
        p = rng.uniform(0, 0.49)
        beta = rng.uniform(1.0001, 50)
        assert cap.noisy_capacity(q, p, beta).value <= cap.capacity_upper_bound(
            q, p, beta
        ) + 1e-12


BETA_CHECKED = {
    "noise_free_capacity": lambda beta: cap.noise_free_capacity(0.1, beta),
    "noisy_capacity": lambda beta: cap.noisy_capacity(0.1, 0.01, beta),
    "capacity_upper_bound": lambda beta: cap.capacity_upper_bound(0.1, 0.01, beta),
    "in_capacity_region": lambda beta: cap.in_capacity_region(0.01, beta),
    "sdmc_capacity": lambda beta: cap.sdmc_capacity(
        np.array([[0.9, 0.1], [0.1, 0.9]]), 0.1, beta),
}


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(BETA_CHECKED))
def test_capacity_functions_reject_bad_beta(name, beta):
    # NaN compares False with everything, so a bare beta <= 0 check let it by.
    with pytest.raises(ValueError, match=r"^beta must be in \(0, inf\), got"):
        BETA_CHECKED[name](beta)


# The bad value goes to the named parameter; every other argument is valid.
NON_FINITE_CHECKED = {
    "tradeoff_point/lambda": (lambda x: cap.tradeoff_point(x, 5.0), "lambda"),
    "tradeoff_point/beta": (lambda x: cap.tradeoff_point(1.0, x), "beta"),
    "optimal_lambda": (cap.optimal_lambda, "cost ratio"),
    "hoeffding_seen_fraction_bound": (
        lambda x: cap.hoeffding_seen_fraction_bound(100, x), "delta"),
    "coupon_tail_bound": (lambda x: cap.coupon_tail_bound(1000, x, 0.1), "lambda"),
    "scheme_rate": (lambda x: cap.scheme_rate(0.05, 0.9, x), "beta"),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CHECKED))
def test_capacity_functions_reject_non_finite_inputs(name, x):
    # NaN used to print rs_max=nan, lambda_opt=nan or a 0.0 scheme rate.
    call, param = NON_FINITE_CHECKED[name]
    with pytest.raises(ValueError, match=rf"^{param} must be in [(\[]"):
        call(x)


def test_degradation_ordering_noise_free_dominates():
    rng = np.random.default_rng(8)
    for _ in range(500):
        q = rng.uniform(0, 1)
        p = rng.uniform(0, 0.49)
        beta = rng.uniform(0.2, 50)
        assert (
            cap.noise_free_capacity(q, beta).value
            >= cap.noisy_capacity(q, p, beta).value - 1e-12
        )


# ---------------------------------------------------------------------------
# proven region
# ---------------------------------------------------------------------------

def test_region_example_inside():
    assert cap.in_capacity_region(0.01, 2.35)
    assert cap.region_margin(0.01, 2.35) == pytest.approx(0.0074956277, abs=1e-9)


def test_region_high_noise_outside():
    assert not cap.in_capacity_region(0.3, 50.0)
    assert not cap.in_capacity_region(0.3, 100.0)


def test_region_boundary_frozen_value():
    assert cap.region_boundary(0.01) == pytest.approx(2.3294833952690114, abs=1e-12)


def test_region_boundary_limit_p_zero():
    assert cap.region_boundary(0.0) == 2.0


def test_region_boundary_monotone_increasing():
    ps = np.linspace(0.0, 0.24, 100)
    vals = [cap.region_boundary(p) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_region_boundary_rejects_p_above_quarter():
    with pytest.raises(ValueError):
        cap.region_boundary(0.25)


@pytest.mark.parametrize("p", [-0.1, 0.25])
def test_region_boundary_names_its_interval(p):
    with pytest.raises(ValueError) as exc:
        cap.region_boundary(p)
    assert str(exc.value) == f"p must be in [0, 1/4), got {p}"


def test_region_p01_beta64_is_outside():
    # the inequality is authoritative: margin at (0.1, 6.4) is negative
    assert cap.region_margin(0.1, 6.4) == pytest.approx(-0.0344280949, abs=1e-9)
    assert not cap.in_capacity_region(0.1, 6.4)
    assert cap.region_boundary(0.1) == pytest.approx(7.1923842834, abs=1e-9)


def test_region_consistent_with_boundary():
    for p in (0.001, 0.01, 0.05, 0.1, 0.2):
        b = cap.region_boundary(p)
        assert not cap.in_capacity_region(p, b - 1e-9)  # below the boundary
        assert cap.in_capacity_region(p, b + 1e-6)


# ---------------------------------------------------------------------------
# DMC capacity (alternating maximization)
# ---------------------------------------------------------------------------

def bsc_matrix(p):
    return np.array([[1 - p, p], [p, 1 - p]])


@pytest.mark.parametrize("p", [0.01, 0.11, 0.25])
def test_ba_agrees_with_bsc_closed_form(p):
    assert abs(cap.dmc_capacity_ba(bsc_matrix(p)) - (1 - oracle_H(repr(p)))) < 1e-6


def test_ba_identity_channel():
    assert cap.dmc_capacity_ba(np.eye(2)) == pytest.approx(1.0, abs=1e-9)


def test_ba_binary_erasure_channel():
    bec = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
    assert cap.dmc_capacity_ba(bec) == pytest.approx(0.7, abs=1e-9)


def test_ba_z_channel_closed_form():
    # asymmetric channel exercises the iterative path;
    # C = log2(1 + (1-e) e^{e/(1-e)}) for the Z channel
    eps = mpmath.mpf("0.3")
    oracle = float(mpmath.log(1 + (1 - eps) * eps ** (eps / (1 - eps)), 2))
    assert oracle == pytest.approx(0.5036919334848174, abs=1e-15)
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    assert abs(cap.dmc_capacity_ba(z) - oracle) < 1e-6


def test_ba_rejects_non_stochastic():
    with pytest.raises(ValueError):
        cap.dmc_capacity_ba(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        cap.dmc_capacity_ba(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_ba_non_convergence_raises():
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    with pytest.raises(RuntimeError):
        cap.dmc_capacity_ba(z, tol=1e-12, max_iter=2)


def test_sdmc_capacity_bsc_frozen_example():
    result = cap.sdmc_capacity(bsc_matrix(0.11), q=0.1, beta=8.0)
    assert result.value == pytest.approx(0.3375756376519248, abs=1e-7)
    assert result.valid  # beta=8 > log2(2 outputs)


def test_sdmc_capacity_clamps_and_advises():
    result = cap.sdmc_capacity(np.eye(2), q=0.0, beta=0.9)
    assert result.value == 0.0  # 1 - 1/0.9 < 0 clamps
    assert not result.valid  # beta <= log2(|Y|) = 1: capacity is zero

    bec = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
    result = cap.sdmc_capacity(bec, q=0.0, beta=1.5)
    assert not result.valid  # log2(3) ~ 1.585 > 1.5


# ---------------------------------------------------------------------------
# counting and tail bounds
# ---------------------------------------------------------------------------

def brute_force_T(a, b):
    """Enumerate vectors in Z_+^a with l1 mass b (independent oracle)."""
    count = 0
    for combo in itertools.product(range(b + 1), repeat=a):
        if sum(combo) == b:
            count += 1
    return count


def test_counting_matches_brute_force_small():
    for a in range(1, 7):
        for b in range(0, 7):
            assert cap.counting_T(a, b) == brute_force_T(a, b)


def test_counting_spec_examples():
    assert cap.counting_T(2, 3) == 4
    assert cap.counting_T(5, 1) == 5
    assert cap.counting_T(3, 2) == 6
    assert math.log2(cap.counting_T(3, 2)) <= cap.counting_T_log_upper(3, 2)


def test_counting_log_upper_bound_holds_to_50():
    for a in range(1, 51):
        for b in range(1, 51):
            exact = math.log2(cap.counting_T(a, b))
            assert exact <= cap.counting_T_log_upper(a, b) + 1e-12


def test_counting_big_integers_no_overflow():
    # ~1203 bits; exact integer arithmetic must not overflow or round
    t = cap.counting_T(2000, 2000)
    assert t == math.comb(3999, 2000)
    assert math.log2(t) <= cap.counting_T_log_upper(2000, 2000)
    assert cap.counting_T_log_upper(10**6, 10**6) > 0  # finite far beyond floats


def test_hoeffding_bound_values():
    assert cap.hoeffding_seen_fraction_bound(10, 0.0) == 1.0
    assert cap.hoeffding_seen_fraction_bound(100, 0.1) == pytest.approx(
        float(mpmath.e ** -2), abs=1e-15
    )
    assert cap.hoeffding_seen_fraction_bound(10_000, 0.05) == pytest.approx(
        1.928749847963918e-22, rel=1e-12
    )


def test_coupon_tail_bound_frozen_values():
    # xi = ln(e^-1 / (e^-1 - 0.1)); bound = 2 e^2 / (M (xi - e/M)^2)
    assert cap.coupon_tail_bound(1000, 1.0, 0.1) == pytest.approx(
        0.14940934392077385, rel=1e-12
    )
    assert cap.coupon_tail_bound(10**6, 1.0, 0.1) == pytest.approx(
        1.4686221820563393e-4, rel=1e-12
    )


def test_coupon_tail_bound_vacuous_limit():
    # bound grows without limit as delta -> 0+
    bounds = [cap.coupon_tail_bound(1000, 1.0, d) for d in (0.1, 0.01, 0.001)]
    assert bounds[0] < bounds[1] < bounds[2]
    assert bounds[2] > 1.0  # may exceed 1; caller clamps


def test_coupon_tail_bound_preconditions():
    with pytest.raises(ValueError):
        cap.coupon_tail_bound(1000, 1.0, 0.5)  # delta > e^-lam / 2
    with pytest.raises(ValueError):
        cap.coupon_tail_bound(1000, 1.0, 0.0)
    with pytest.raises(ValueError):
        cap.coupon_tail_bound(2, 5.0, 0.001)  # xi <= e^lam / M


def test_chernoff_bound_frozen_example():
    assert cap.chernoff_read_error_bound(64, 0.05, 0.15) == pytest.approx(
        0.011153483356422779, rel=1e-12
    )


def test_chernoff_bound_near_p_tends_to_one():
    assert cap.chernoff_read_error_bound(64, 0.05, 0.05 + 1e-9) == pytest.approx(
        1.0, abs=1e-6
    )


def test_chernoff_bound_doubling_L_squares():
    b1 = cap.chernoff_read_error_bound(64, 0.05, 0.15)
    b2 = cap.chernoff_read_error_bound(128, 0.05, 0.15)
    assert b2 == pytest.approx(b1 * b1, rel=1e-12)


def test_chernoff_bound_requires_delta_above_p():
    with pytest.raises(ValueError):
        cap.chernoff_read_error_bound(64, 0.15, 0.15)


# ---------------------------------------------------------------------------
# tradeoff and short molecules
# ---------------------------------------------------------------------------

def test_tradeoff_lambda_one_equal_rates():
    pt = cap.tradeoff_point(1.0, 5.0)
    assert pt.rs_max == pytest.approx(0.5056964470628461, abs=1e-15)
    assert pt.rr_max == pytest.approx(0.5056964470628461, abs=1e-15)


def test_tradeoff_lambda_two_frozen():
    pt = cap.tradeoff_point(2.0, 5.0)
    assert pt.rs_max == pytest.approx(0.6917317734107098, abs=1e-15)
    assert pt.rr_max == pytest.approx(0.3458658867053549, abs=1e-15)


def test_tradeoff_identity_to_one_ulp():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam = rng.uniform(0.01, 20.0)
        beta = rng.uniform(1.001, 50.0)
        pt = cap.tradeoff_point(lam, beta)
        assert abs(pt.rs_max - lam * pt.rr_max) <= math.ulp(pt.rs_max)
        assert pt.rs_max < 1.0 - 1.0 / beta


def test_tradeoff_rs_saturates_monotonically():
    lams = np.linspace(0.1, 30, 100)
    vals = [cap.tradeoff_point(l, 5.0).rs_max for l in lams]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.8 and vals[-1] > 0.8 - 1e-10


def test_optimal_lambda_frozen_and_residuals():
    lam = cap.optimal_lambda(10_000)
    assert lam == pytest.approx(9.211360987070071, abs=1e-9)
    for q in (100, 1000, 10_000, 100_000):
        lam = cap.optimal_lambda(q)
        assert abs(math.exp(lam) - lam - 1.0 - q) < 1e-6 * q


def test_optimal_lambda_stationarity_oracle():
    # cost (q + lam) / (1 - e^-lam) must not improve in a neighborhood
    q = 10_000
    lam = cap.optimal_lambda(q)
    cost = lambda l: (q + l) / (1 - math.exp(-l))
    for dl in (-1e-3, 1e-3):
        assert cost(lam) <= cost(lam + dl)


def test_short_molecule_bound():
    assert cap.short_molecule_bound(0.5) == 1.0
    assert cap.short_molecule_bound(1 - 1e-9) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        cap.short_molecule_bound(1.0)


def test_scheme_rate_frozen_example():
    r_inner = 1.0 - cap.binary_entropy(0.01)
    assert cap.scheme_rate(0.05, r_inner, 4.0) == pytest.approx(
        0.6357465208988844, abs=1e-13
    )


def test_scheme_rate_clamps():
    assert cap.scheme_rate(0.5, 0.1, 1.5) == 0.0


# ---------------------------------------------------------------------------
# Exact binomial law and short-molecule recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(1, 0.5), (10, 0.3), (64, 0.05), (256, 0.05), (1000, 0.999763)])
def test_binomial_log_pmf_matches_exact_rationals(n, p):
    for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        exact = mpmath.binomial(n, k) * mpmath.mpf(p) ** k * (1 - mpmath.mpf(p)) ** (n - k)
        assert cap.binomial_log_pmf(k, n, p) == pytest.approx(float(mpmath.log(exact)), rel=1e-11)
    assert cap.binomial_log_pmf(-1, n, p) == cap.binomial_log_pmf(n + 1, n, p) == -math.inf


def test_binomial_edges():
    assert cap.binomial_log_pmf(0, 5, 0.0) == cap.binomial_log_pmf(5, 5, 1.0) == 0.0
    assert cap.binomial_log_pmf(1, 5, 0.0) == cap.binomial_log_pmf(4, 5, 1.0) == -math.inf
    assert cap.binomial_cdf(-1, 5, 0.3) == 0.0
    assert cap.binomial_cdf(5, 5, 0.3) == pytest.approx(1.0, abs=1e-15)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            cap.binomial_log_pmf(0, 5, bad)


def test_binomial_cdf_matches_exact_tail():
    # criterion 6's oracle: P(Bin(256, 1/20) <= 26), summed in rationals
    p = mpmath.mpf(1) / 20
    exact = sum(mpmath.binomial(256, j) * p**j * (1 - p) ** (256 - j) for j in range(27))
    assert cap.binomial_cdf(26, 256, 0.05) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("k,n,p", [
    (998, 1000, 0.999763), (3, 10, 0.5), (0, 10, 0.3), (10, 10, 0.3),
    (130, 100_000, 0.0012367), (5, 100_000, 0.0012367), (9972, 10_000, 0.997319),
])
def test_binomial_test_matches_scipy(k, n, p):
    from scipy import stats

    assert cap.binomial_test(k, n, p) == pytest.approx(stats.binomtest(k, n, p).pvalue,
                                                       rel=1e-8)


def test_short_molecule_success():
    q0 = math.exp(-1.0)
    assert cap.short_molecule_success(q0, 64, 4) == pytest.approx((1 - math.exp(-8)) ** 8,
                                                                  rel=1e-15)
    # 10 molecules over 4 segments: copies 3, 3, 2, 2
    assert cap.short_molecule_success(0.5, 10, 3) == pytest.approx(
        (1 - 0.5**3) ** 2 * (1 - 0.5**2) ** 2, rel=1e-15)
    assert cap.short_molecule_success(0.0, 8, 4) == 1.0
    assert cap.short_molecule_success(1.0, 8, 4) == 0.0
    with pytest.raises(ValueError):
        cap.short_molecule_success(0.5, 7, 4)


# ---------------------------------------------------------------------------
# Argument checks: each rejected input raises ValueError naming the argument
# ---------------------------------------------------------------------------

BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


def case(fn, *args, message, **kwargs):
    return pytest.param(fn, args, kwargs, message, id=fn.__name__)


@pytest.mark.parametrize("fn, args, kwargs, message", [
    case(cap.kl_binary, 1.5, 0.1, message="arguments must be probabilities, got (1.5, 0.1)"),
    case(cap.noise_free_capacity, 1.5, 2.0, message="q0 must be in [0, 1], got 1.5"),
    case(cap.noisy_capacity, 1.5, 0.1, 2.0, message="q must be in [0, 1], got 1.5"),
    case(cap.noisy_capacity, 0.1, 0.6, 2.0, message="p must be in [0, 0.5], got 0.6"),
    case(cap.capacity_upper_bound, -0.1, 0.1, 2.0, message="q must be in [0, 1], got -0.1"),
    case(cap.in_capacity_region, 0.5, 2.0, message="p must be in [0, 0.5), got 0.5"),
    case(cap.dmc_capacity_ba, np.array([0.5, 0.5]), message="transition must be a 2-D matrix"),
    case(cap.dmc_capacity_ba, BSC, tol=0.0, message="tol must be > 0, got 0.0"),
    case(cap.sdmc_capacity, BSC, 1.5, 4.0, message="q must be in [0, 1], got 1.5"),
    case(cap.counting_T, 0, 1, message="a must be >= 1, got 0"),
    case(cap.counting_T, 1, -1, message="b must be >= 0, got -1"),
    case(cap.counting_T_log_upper, 0, 1, message="a must be >= 1, got 0"),
    case(cap.counting_T_log_upper, 1, -1, message="b must be >= 0, got -1"),
    case(cap.hoeffding_seen_fraction_bound, 0, 0.1, message="M must be >= 1, got 0"),
    case(cap.coupon_tail_bound, 0, 1.0, 0.1, message="M must be >= 1, got 0"),
    case(cap.chernoff_read_error_bound, 0, 0.05, 0.15, message="L must be >= 1, got 0"),
    case(cap.short_molecule_success, 1.5, 64, 4, message="q0 must be in [0, 1], got 1.5"),
    case(cap.scheme_rate, 1.5, 1.0, 4.0, message="q must be in [0, 1], got 1.5"),
    case(cap.scheme_rate, 0.05, 0.0, 4.0, message="r_inner must be in (0, 1], got 0.0"),
    case(cap.coupon_distinct_pmf, 0, 5, message="M must be >= 1, got 0"),
    case(cap.coupon_distinct_pmf, 5, -1, message="n must be >= 0, got -1"),
])
def test_argument_checks(fn, args, kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        fn(*args, **kwargs)


def test_coupon_distinct_pmf_small_cases():
    # Two draws from two coupons: 1 or 2 distinct, each with probability 1/2.
    assert cap.coupon_distinct_pmf(2, 2).tolist() == [0.0, 0.5, 0.5]
    assert cap.coupon_distinct_pmf(3, 0).tolist() == [1.0, 0.0, 0.0, 0.0]
    # Against enumeration of all 4^3 draw sequences.
    law = cap.coupon_distinct_pmf(4, 3)
    seen = [len(set(draws)) for draws in itertools.product(range(4), repeat=3)]
    assert law == pytest.approx([seen.count(d) / 64 for d in range(5)], abs=1e-15)
