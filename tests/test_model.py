from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndigvol import (
    NDIGParams,
    cgf,
    chf,
    chf_exponent,
    feasible_interval,
    max_damping,
    moments,
)

from conftest import random_params
from oracles import fd_cumulants, fd_derivative, mp_cgf, mp_chf, two_root_interval

# frozen from the arbitrary-precision oracle (oracles.mp_cgf / mp_chf / mp_cumulants)
CGF_AT_1 = 0.0047198176427980113
CHF_ABS_AT_5 = 0.96662756127271738
W_LO = -4.63031490550959
W_HI = 5.1573223923097
MEAN = 0.0032
VARIANCE = 3.04048824881e-3
SKEWNESS = -0.304550100791
KURTOSIS = 24.1128305645  # standardized fourth moment


def params_strategy():
    return st.builds(
        NDIGParams,
        mu3=st.floats(-0.01, 0.01),
        sigma3=st.floats(0.005, 0.2),
        rho=st.floats(-0.05, 0.05),
        lambda_t=st.floats(0.05, 50.0),
        lambda_u=st.floats(0.05, 50.0),
    )


class TestParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            NDIGParams(mu3=0.0, sigma3=0.0, rho=0.0, lambda_t=1.0, lambda_u=1.0)
        with pytest.raises(ValueError):
            NDIGParams(mu3=0.0, sigma3=0.1, rho=0.0, lambda_t=-1.0, lambda_u=1.0)
        with pytest.raises(ValueError):
            NDIGParams(mu3=0.0, sigma3=0.1, rho=0.0, lambda_t=1.0, lambda_u=0.0)

    @pytest.mark.parametrize("field, value, error", [
        ("mu3", math.nan, "mu3 must be finite, got nan"),
        ("rho", -math.inf, "rho must be finite, got -inf"),
        ("sigma3", math.inf, "sigma3 must be positive and finite, got inf"),
        ("lambda_t", math.inf, "lambda_t must be positive and finite, got inf"),
        ("lambda_u", math.inf, "lambda_u must be positive and finite, got inf"),
    ], ids=["mu3", "rho", "sigma3", "lambda_t", "lambda_u"])
    def test_rejects_non_finite_values(self, btc_params, field, value, error):
        with pytest.raises(ValueError) as err:
            replace(btc_params, **{field: value})
        assert str(err.value) == error


class TestCgf:
    def test_zero_argument(self, btc_params):
        assert cgf(0.0, btc_params) == 0.0

    def test_reference_value(self, btc_params):
        assert cgf(1.0, btc_params) == pytest.approx(CGF_AT_1, rel=1e-12)

    def test_domain_error_beyond_upper_endpoint(self, btc_params):
        with pytest.raises(ValueError, match="radicand"):
            cgf(feasible_interval(btc_params)[1] + 0.5, btc_params)

    def test_matches_high_precision_oracle_on_grid(self, btc_params):
        w_lo, w_hi = feasible_interval(btc_params)
        for w in np.linspace(0.9 * w_lo, 0.9 * w_hi, 11):
            assert cgf(float(w), btc_params) == pytest.approx(
                float(mp_cgf(w, btc_params)), rel=1e-12, abs=1e-15
            )


class TestChf:
    def test_at_zero(self, btc_params):
        assert chf(0.0, btc_params) == 1.0 + 0.0j

    def test_hermitian_symmetry(self, btc_params):
        assert chf(-1.0, btc_params) == pytest.approx(
            np.conj(chf(1.0, btc_params)), rel=1e-14
        )

    def test_modulus_reference_value(self, btc_params):
        val = chf(5.0, btc_params)
        assert abs(val) <= 1.0
        assert abs(val) == pytest.approx(CHF_ABS_AT_5, rel=1e-12)
        assert complex(val) == pytest.approx(complex(mp_chf(5.0, btc_params)), rel=1e-12)

    def test_consistent_with_cgf_along_imaginary_axis(self, btc_params):
        w_lo, w_hi = feasible_interval(btc_params)
        for w in np.linspace(0.95 * w_lo, 0.95 * w_hi, 50):
            lhs = math.exp(cgf(float(w), btc_params))
            rhs = chf(-1j * w, btc_params)
            assert abs(rhs.imag) < 1e-14 * abs(rhs)
            assert lhs == pytest.approx(rhs.real, rel=1e-12)

    def test_vectorized_matches_scalar(self, btc_params):
        v = np.array([-2.0, 0.0, 0.7, 3.0])
        vec = chf(v, btc_params)
        for i, vi in enumerate(v):
            assert vec[i] == pytest.approx(chf(float(vi), btc_params), rel=1e-14)

    @given(params_strategy(), st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_modulus_never_exceeds_one(self, p, v):
        assert abs(chf(v, p)) <= 1.0 + 1e-12


class TestMoments:
    def test_reference_values(self, btc_params):
        m = moments(btc_params)
        assert m.mean == pytest.approx(MEAN, rel=1e-12)
        assert m.variance == pytest.approx(VARIANCE, rel=1e-11)
        assert m.skewness == pytest.approx(SKEWNESS, rel=1e-11)
        assert m.kurtosis == pytest.approx(KURTOSIS, rel=1e-11)

    def test_mean_is_drift_plus_loading(self, btc_params):
        assert moments(btc_params).mean == pytest.approx(0.004 - 0.0008, abs=1e-15)

    def test_symmetric_case_has_zero_skew(self):
        p = NDIGParams(mu3=0.001, sigma3=0.08, rho=0.0, lambda_t=2.0, lambda_u=0.5)
        assert moments(p).skewness == 0.0
        assert moments(p).kurtosis > 3.0  # clock mixing is always leptokurtic

    def test_agrees_with_finite_difference_cgf(self, btc_params):
        rng = np.random.default_rng(11)
        cases = [btc_params] + [random_params(rng) for _ in range(8)]
        for p in cases:
            w_lo, w_hi = feasible_interval(p)
            half = min(w_hi, -w_lo)
            k1, k2, k3, k4 = fd_cumulants(lambda w: cgf(w, p), half)
            m = moments(p)
            assert m.mean == pytest.approx(k1, rel=1e-6, abs=1e-9)
            assert m.variance == pytest.approx(k2, rel=1e-6)
            assert m.skewness == pytest.approx(k3 / k2**1.5, rel=1e-4, abs=1e-7)
            assert m.kurtosis == pytest.approx(k4 / k2**2 + 3.0, rel=1e-4)

    def test_gamma_zero_reduction_matches_general(self):
        # independent algebraic path: the cumulants expanded by hand
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng)
            lt, lu, rho, s3sq = p.lambda_t, p.lambda_u, p.rho, p.sigma3**2
            var_r = s3sq + rho * rho * (1.0 / lt + 1.0 / lu)
            k3_r = 3 * rho * (
                rho**2 / lu**2 + (rho**2 / lt + s3sq) / lu + rho**2 / lt**2 + s3sq / lt
            )
            k4_r = (
                15 * rho**4 / lu**3
                + 18 * (rho**2 / lt + s3sq) * rho**2 / lu**2
                + 3 * (rho**2 / lt + s3sq) ** 2 / lu
                + 12 * rho**2 * (rho**2 / lt + s3sq) / (lt * lu)
                + 15 * rho**4 / lt**3
                + 18 * rho**2 * s3sq / lt**2
                + 3 * s3sq**2 / lt
            )
            m = moments(p)
            assert m.mean == pytest.approx(p.mu3 + rho, rel=1e-15, abs=1e-18)
            assert m.variance == pytest.approx(var_r, rel=1e-14)
            assert m.skewness == pytest.approx(k3_r / var_r**1.5, rel=1e-12, abs=1e-14)
            assert m.kurtosis == pytest.approx(k4_r / var_r**2 + 3.0, rel=1e-12)

    def test_fd_stencils_self_check(self):
        # the finite-difference oracle must itself reproduce exp's derivatives
        for order in (1, 2, 3, 4):
            assert fd_derivative(math.exp, order, 0.05) == pytest.approx(1.0, rel=5e-6)


class TestFeasibleInterval:
    def test_symmetric_case_closed_form(self):
        p = NDIGParams(mu3=0.0, sigma3=0.06, rho=0.0, lambda_t=5.0, lambda_u=0.3)
        w_lo, w_hi = feasible_interval(p)
        assert w_hi == pytest.approx(math.sqrt(0.3 / 2) / 0.06, rel=1e-14)
        assert w_lo == pytest.approx(-w_hi, rel=1e-14)

    def test_reference_roots(self, btc_params):
        w_lo, w_hi = feasible_interval(btc_params)
        assert w_lo == pytest.approx(W_LO, rel=1e-12)
        assert w_hi == pytest.approx(W_HI, rel=1e-12)

    def test_quadratic_residual_at_roots(self, btc_params):
        # the endpoints are roots of sigma3^2 w^2 + 2 rho w - lambda_u/2 = 0,
        # equivalently h(w) - d^2 = 0 with d^2 = 1 - lambda_u / (2 lambda_t)
        p = btc_params
        d2 = 1.0 - p.lambda_u / (2.0 * p.lambda_t)
        for w in feasible_interval(p):
            h = 1.0 - (2.0 * p.rho * w + p.sigma3**2 * w * w) / p.lambda_t
            assert abs(h - d2) < 1e-10

    def test_interval_grows_with_outer_shape(self):
        # the outer-radical quadratic widens without bound as lambda_u grows,
        # until the inner-radical (h >= 0) interval caps it
        base = dict(mu3=0.0, sigma3=0.05, rho=0.01, lambda_t=5.0)
        intervals = [
            feasible_interval(NDIGParams(lambda_u=lu, **base))
            for lu in (0.1, 1.0, 10.0)
        ]
        for (prev_lo, prev_hi), (cur_lo, cur_hi) in zip(intervals, intervals[1:]):
            assert cur_hi > prev_hi
            assert cur_lo < prev_lo
        capped_lo, capped_hi = feasible_interval(NDIGParams(lambda_u=1e9, **base))
        disc = math.sqrt(0.01**2 + 0.05**2 * 5.0)
        assert capped_hi == pytest.approx((-0.01 + disc) / 0.05**2, rel=1e-12)
        assert capped_lo == pytest.approx((-0.01 - disc) / 0.05**2, rel=1e-12)

    def test_inner_constraint_binds_for_large_lambda_u(self):
        # with lambda_u / 2 > lambda_t the h(w) >= 0 condition is the binding one
        p = NDIGParams(mu3=0.0, sigma3=0.05, rho=0.0, lambda_t=0.5, lambda_u=100.0)
        assert feasible_interval(p)[1] == pytest.approx(math.sqrt(0.5) / 0.05, rel=1e-12)

    def test_one_quadratic_matches_two_root_intersection(self):
        # bit for bit whichever constraint binds, and at lambda_u = 2 lambda_t
        rng = np.random.default_rng(13)
        draws = [random_params(rng) for _ in range(2000)]
        draws += [replace(p, lambda_u=2.0 * p.lambda_t) for p in draws[:400]]
        outer_binds = sum(p.lambda_u / 2.0 < p.lambda_t for p in draws)
        assert 500 < outer_binds < len(draws) - 400 - 500
        assert all(feasible_interval(p) == two_root_interval(p) for p in draws)

    @given(params_strategy())
    @settings(max_examples=200, deadline=None)
    def test_always_contains_zero(self, p):
        w_lo, w_hi = feasible_interval(p)
        assert w_lo < 0.0 < w_hi
        assert cgf(0.0, p) == 0.0


class TestMaxDamping:
    def test_symmetric_closed_form(self):
        p = NDIGParams(mu3=0.0, sigma3=0.06, rho=0.0, lambda_t=5.0, lambda_u=0.3)
        assert max_damping(p) == pytest.approx(math.sqrt(0.15) / 0.06 - 1.0, rel=1e-14)

    def test_reference_value(self, btc_params):
        # the sufficient outer-radicand condition gives W_HI - 1 = 4.1573; the
        # outer radicand itself stays >= 0 up to w = 7.16677, so the exact
        # bound would be 6.1668 (40-digit mpmath root of the radicand)
        assert max_damping(btc_params) == pytest.approx(W_HI - 1.0, rel=1e-12)

    def test_infeasible_when_interval_excludes_one(self):
        p = NDIGParams(mu3=0.0, sigma3=1.0, rho=0.0, lambda_t=5.0, lambda_u=0.01)
        assert feasible_interval(p)[1] < 1.0
        with pytest.raises(ValueError, match="infeasible"):
            max_damping(p)


def test_chf_exponent_accepts_damped_arguments(btc_params):
    # pricing evaluates the exponent along v - i(1+a); the principal branch
    # must stay continuous there (no sign flips between close arguments)
    a = 0.4
    v = np.linspace(0.0, 500.0, 2001)
    vals = chf_exponent(v - 1j * (1 + a), btc_params)
    jumps = np.abs(np.diff(vals))
    assert np.all(np.isfinite(vals))
    assert jumps.max() < 1.0


def test_cgf_power_identity_matches_powered_chf(btc_params):
    # exp(t * cgf(w)) = chf(-i w)^t for non-integer horizons too
    t = 3.7
    w_lo, w_hi = feasible_interval(btc_params)
    for w in np.linspace(0.9 * w_lo, 0.9 * w_hi, 9):
        lhs = math.exp(t * cgf(float(w), btc_params))
        rhs = chf(-1j * float(w), btc_params) ** t
        assert lhs == pytest.approx(rhs.real, rel=1e-12)


def test_chf_matches_oracle_up_to_huge_lambda_t():
    # the radicands tend to 1 as lambda_t grows, where a direct 1 - sqrt(x)
    # cancels; the exponent's (1 - x) / (1 + sqrt(x)) keeps chf at rounding
    # level against the 40-digit oracle
    rng = np.random.default_rng(17)
    v = np.array([-20.0, -5.0, -1.0, -0.1, 0.1, 1.0, 5.0, 20.0])
    for lambda_t in np.logspace(-1.0, 12.0, 40):
        for _ in range(2):
            p = replace(random_params(rng), lambda_t=float(lambda_t))
            want = np.array([complex(mp_chf(float(x), p)) for x in v])
            assert np.all(np.abs(chf(v, p) - want) <= 1e-14 * np.abs(want))
