from __future__ import annotations

import math

import numpy as np
import pytest

from ndigvol import (
    NDIGParams,
    mc_option_price,
    mc_stats,
    moments,
    sample_ig,
    simulate_paths,
)
from ndigvol.simulate import BLOCK


class TestSampleIg:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_ig(-1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_ig(1.0, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_ig(1.0, 1.0, 0, seed=0)

    def test_positivity(self):
        x = sample_ig(0.05, 1.0, 100_000, seed=3)
        assert np.all(x > 0.0)

    def test_mean_tight_shape(self):
        # IG mean is mu; SE = sqrt(mu^3 / lam / n)
        n = 1_000_000
        x = sample_ig(9.9293, 1.0, n, seed=1)
        se = math.sqrt(1.0 / 9.9293 / n)
        assert abs(x.mean() - 1.0) < 3 * se

    def test_variance_loose_shape(self):
        # Var = mu^3 / lam ~ 6.897 for lam = 0.145, mu = 1
        n = 1_000_000
        x = sample_ig(0.145, 1.0, n, seed=2)
        target = 1.0 / 0.145
        sample_var = x.var(ddof=1)
        m2 = ((x - x.mean()) ** 2).mean()
        m4 = ((x - x.mean()) ** 4).mean()
        se_var = math.sqrt((m4 - m2 * m2) / n)
        assert abs(sample_var - target) < 3 * se_var

    def test_deterministic_for_fixed_seed(self):
        a = sample_ig(2.0, 1.0, 5, seed=42)
        b = sample_ig(2.0, 1.0, 5, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_ig(2.0, 1.0, 5, seed=43)
        assert not np.array_equal(a, c)


class TestSimulatePaths:
    def test_grid_validation(self, btc_params):
        with pytest.raises(ValueError):
            simulate_paths(btc_params, np.array([1.0, 2.0]), 10)
        with pytest.raises(ValueError):
            simulate_paths(btc_params, np.array([0.0, 2.0, 1.0]), 10)
        with pytest.raises(ValueError):
            simulate_paths(btc_params, np.array([0.0]), 10)

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_rejects_non_finite_x0(self, btc_params, x0):
        with pytest.raises(ValueError, match=f"x0 must be finite, got {x0}"):
            simulate_paths(btc_params, np.array([0.0, 1.0]), 10, x0=x0)

    def test_first_column_is_x0(self, btc_params):
        ps = simulate_paths(btc_params, np.array([0.0, 1.0]), 100, x0=3.5, seed=0)
        np.testing.assert_array_equal(ps.paths[:, 0], np.full(100, 3.5))

    def test_pure_drift_limit(self):
        # sigma3 must stay positive, so a negligible value stands in for 0
        p = NDIGParams(mu3=0.01, sigma3=1e-12, rho=0.0, lambda_t=2.0, lambda_u=2.0)
        ps = simulate_paths(p, np.array([0.0, 1.0, 5.0]), 50, x0=1.0, seed=9)
        np.testing.assert_allclose(ps.paths[:, 1], 1.0 + 0.01, atol=1e-9)
        np.testing.assert_allclose(ps.paths[:, 2], 1.0 + 0.05, atol=1e-9)

    def test_path_values_independent_of_n_paths(self, btc_params):
        times = np.array([0.0, 1.0, 3.0])
        small = simulate_paths(btc_params, times, BLOCK + 10, seed=5)
        large = simulate_paths(btc_params, times, 3 * BLOCK, seed=5)
        np.testing.assert_array_equal(small.paths, large.paths[: BLOCK + 10])

    def test_reproducible_bitwise(self, btc_params):
        times = np.array([0.0, 2.0])
        a = simulate_paths(btc_params, times, 1000, seed=77)
        b = simulate_paths(btc_params, times, 1000, seed=77)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_moments_match_model(self, btc_params):
        # smaller-n version of the acceptance check, mean/variance only
        n = 200_000
        ps = simulate_paths(btc_params, np.array([0.0, 1.0]), n, seed=1)
        stats = mc_stats(ps, 1.0)
        m = moments(btc_params)
        assert abs(stats.mean - m.mean) < 3 * stats.se_mean
        assert abs(stats.variance - m.variance) < 3 * stats.se_variance

    def test_subordinator_composition_mean(self):
        # E[T(U(1))] = 1: realized through a unit-variance driver with rho=1,
        # mu3=0, sigma3 tiny so X_1 ~ T(U(1))
        p = NDIGParams(mu3=0.0, sigma3=1e-12, rho=1.0, lambda_t=9.9293, lambda_u=0.145)
        n = 400_000
        ps = simulate_paths(p, np.array([0.0, 1.0]), n, seed=21)
        stats = mc_stats(ps, 1.0)
        assert abs(stats.mean - 1.0) < 3 * stats.se_mean


class TestMcStats:
    def test_horizon_must_be_on_grid(self, btc_params):
        ps = simulate_paths(btc_params, np.array([0.0, 1.0]), 10, seed=0)
        with pytest.raises(ValueError):
            mc_stats(ps, 0.5)

    def test_constant_paths_flagged(self):
        from ndigvol import PathSet

        ps = PathSet(times=np.array([0.0, 1.0]), paths=np.zeros((8, 2)), seed=0)
        stats = mc_stats(ps, 1.0)
        assert stats.variance == 0.0
        assert math.isnan(stats.skewness)
        assert math.isnan(stats.kurtosis)

    def test_two_path_hand_arithmetic(self):
        from ndigvol import PathSet

        ps = PathSet(
            times=np.array([0.0, 1.0]),
            paths=np.array([[0.0, 0.0], [0.0, 2.0]]),
            seed=0,
        )
        stats = mc_stats(ps, 1.0)
        assert stats.mean == 1.0
        assert stats.variance == 2.0  # unbiased


class TestMcOptionPrice:
    def test_zero_strike_recovers_spot(self, btc_params):
        price, se = mc_option_price(
            btc_params, r=0.02, s0=100.0, strike=0.0, maturity=30 / 365,
            n_paths=400_000, seed=4,
        )
        assert abs(price - 100.0) < 3 * se

    def test_far_otm_is_negligible(self, btc_params):
        price, _ = mc_option_price(
            btc_params, r=0.02, s0=100.0, strike=1000.0, maturity=7 / 365,
            n_paths=100_000, seed=4,
        )
        assert price < 0.01

    def test_infeasible_parameters_rejected(self):
        p = NDIGParams(mu3=0.0, sigma3=1.0, rho=0.0, lambda_t=5.0, lambda_u=0.01)
        with pytest.raises(ValueError, match="infeasible"):
            mc_option_price(p, 0.02, 100.0, 100.0, 0.1, 1000, seed=0)
