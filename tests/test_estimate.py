from __future__ import annotations

import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import random_params
from ndigvol import (
    CfQuadrature,
    NDIGParams,
    ReturnSeries,
    chf,
    cumulants,
    empirical_chf,
    empirical_moments,
    feasible_interval,
    fit,
    moments,
    objective,
    rolling_fit,
    simulate_paths,
)
import ndigvol.estimate as estimate
from ndigvol.estimate import (
    FEASIBILITY_PENALTY,
    LAMBDA_CAP,
    NODE_WEIGHT_FLOOR,
    _excludes_w1,
    _k34,
    _PreparedObjective,
)


def make_series(returns) -> ReturnSeries:
    returns = np.asarray(returns, dtype=float)
    d0 = date(2015, 1, 1)
    return ReturnSeries(
        dates=tuple(d0 + timedelta(days=i) for i in range(len(returns))),
        returns=returns,
    )


def simulated_series(p: NDIGParams, n: int, seed: int) -> ReturnSeries:
    # a Levy return series is iid daily increments, so n single-step paths
    # are the same law as one n-step path and vectorize across paths
    paths = simulate_paths(p, np.array([0.0, 1.0]), n, seed=seed)
    return make_series(paths.paths[:, 1])


class TestReturnSeries:
    def test_validation(self):
        d = (date(2020, 1, 1), date(2020, 1, 2))
        with pytest.raises(ValueError):
            ReturnSeries(dates=d, returns=np.array([0.1]))
        with pytest.raises(ValueError):
            ReturnSeries(dates=(d[1], d[0]), returns=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            ReturnSeries(dates=d, returns=np.array([0.1, np.nan]))


class TestEmpiricalMoments:
    def test_constant_series_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            empirical_moments(make_series([1.0, 1.0, 1.0, 1.0]))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 4"):
            empirical_moments(make_series([0.1, 0.2, 0.3]))

    def test_symmetric_series(self):
        s = make_series([-1.0, 1.0] * 500)
        m = empirical_moments(s)
        assert m.mean == 0.0
        assert m.skewness == 0.0
        assert m.variance == pytest.approx(1000 / 999, rel=1e-12)
        assert m.kurtosis == pytest.approx(1.0, rel=1e-12)

    def test_matches_simulation_moments(self, btc_params):
        s = simulated_series(btc_params, 200_000, seed=1)
        emp = empirical_moments(s)
        m = moments(btc_params)
        n = len(s)
        assert abs(emp.mean - m.mean) < 4 * math.sqrt(m.variance / n)
        assert abs(emp.variance - m.variance) / m.variance < 0.05
        # heavy-tail noise keeps skew/kurt loose at this sample size
        assert abs(emp.kurtosis - m.kurtosis) / m.kurtosis < 0.35


class TestEmpiricalChf:
    def test_at_zero(self):
        s = make_series([0.3, -0.2, 0.05, 0.7])
        assert empirical_chf(s, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_single_observation(self):
        s = ReturnSeries(dates=(date(2020, 1, 1),), returns=np.array([math.pi / 2]))
        assert empirical_chf(s, 1.0) == pytest.approx(1j, abs=1e-15)

    def test_hermitian(self):
        s = make_series(np.random.default_rng(0).normal(0, 0.05, 200))
        assert empirical_chf(s, 2.0) == pytest.approx(np.conj(empirical_chf(s, -2.0)))

    def test_vectorized(self):
        s = make_series([0.1, -0.1, 0.2, 0.3])
        v = np.array([0.0, 1.0, -1.0])
        vals = empirical_chf(s, v)
        for i, vi in enumerate(v):
            assert vals[i] == pytest.approx(empirical_chf(s, float(vi)))


class TestObjective:
    def test_nonnegative_terms_and_sum_identity(self, btc_params):
        s = simulated_series(btc_params, 5000, seed=2)
        res = objective(btc_params, s)
        assert all(t >= 0.0 for t in res.term_breakdown)
        assert res.objective_value == pytest.approx(sum(res.term_breakdown), rel=1e-15)

    def test_value_at_truth_small_for_reference_seed(self, btc_params):
        # sampling noise in the skew ratio dominates this statistic; it is
        # below 1e-2 for typical samples whose skew lands near the model's,
        # measured over seeds before freezing this one
        s = simulated_series(btc_params, 100_000, seed=4)
        res = objective(btc_params, s)
        assert res.objective_value < 1e-2

    def test_perturbing_sigma3_increases_objective(self, btc_params):
        for seed in (1, 4, 5):
            s = simulated_series(btc_params, 50_000, seed=seed)
            at_truth = objective(btc_params, s).objective_value
            bumped = replace(btc_params, sigma3=1.5 * btc_params.sigma3)
            assert objective(bumped, s).objective_value > at_truth

    def test_permutation_invariance(self, btc_params):
        s = simulated_series(btc_params, 3000, seed=6)
        shuffled = make_series(np.random.default_rng(1).permutation(s.returns))
        a = objective(btc_params, s)
        b = objective(btc_params, shuffled)
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-10)

    def test_degenerate_series_rejected(self, btc_params):
        with pytest.raises(ValueError, match="degenerate"):
            objective(btc_params, make_series(np.full(200, 0.01)))

    def test_infeasible_parameters_penalized(self, btc_params):
        s = simulated_series(btc_params, 2000, seed=3)
        from ndigvol.estimate import _PreparedObjective

        prep = _PreparedObjective(s, CfQuadrature())
        bad = NDIGParams(mu3=0.0, sigma3=1.0, rho=0.0, lambda_t=5.0, lambda_u=0.01)
        assert prep.value(bad) > 1e6


class TestFoldedQuadrature:
    @pytest.mark.parametrize("kwargs", [{"v_max": 0.0}, {"v_max": -20.0}, {"n_nodes": 1}])
    def test_degenerate_grid_rejected(self, kwargs):
        with pytest.raises(ValueError, match="cf_"):
            CfQuadrature(**kwargs)

    def test_default_grid_keeps_sixteen_nodes(self):
        v, w = CfQuadrature().folded_nodes_and_weights()
        assert len(v) == 16
        assert v[0] == 0.0
        assert np.all(np.diff(v) > 0.0)
        assert np.all(w > 0.0)

    @pytest.mark.parametrize(
        "n_nodes, v_max",
        [(101, 20.0), (100, 20.0), (51, 7.3), (64, 12.5), (33, 6.1), (150, 17.7), (9, 3.0)],
    )
    def test_folded_sum_matches_full_trapezoid(self, btc_params, n_nodes, v_max):
        # |ecf - chf|^2 <= 4, so the pruned nodes move dCF^2 by at most
        # 4 * sum(dropped grid weights); the rest is rounding
        quad = CfQuadrature(v_max=v_max, n_nodes=n_nodes)
        s = simulated_series(btc_params, 1008, seed=21)
        v, w = quad.nodes_and_weights()
        dropped = w[w < NODE_WEIGHT_FLOOR * w.max()].sum()
        prep = _PreparedObjective(s, quad)
        for p in (btc_params, replace(btc_params, sigma3=0.08, rho=0.01, lambda_u=0.5)):
            diff = empirical_chf(s, v) - chf(v, p)
            brute = float(np.sum(w * np.abs(diff) ** 2))
            folded = prep.terms(p)[4]
            assert brute > 0.0
            assert abs(folded - brute) <= 4.0 * dropped + 1e-12 * brute


# sigma3^2 + 2 rho lands exactly on lambda_u / 2 or on lambda_t, with dyadic
# values so that the upper quadratic root is exactly 1 as well
W1_BOUNDARY = [
    NDIGParams(mu3=0.0, sigma3=0.5, rho=0.125, lambda_t=4.0, lambda_u=1.0),
    NDIGParams(mu3=0.0, sigma3=0.5, rho=0.125, lambda_t=0.5, lambda_u=4.0),
    NDIGParams(mu3=0.0, sigma3=1.0, rho=0.0, lambda_t=8.0, lambda_u=2.0),
    NDIGParams(mu3=0.0, sigma3=1.0, rho=-0.25, lambda_t=0.5, lambda_u=2.0),
]
NEAR_W1_BOUNDARY = W1_BOUNDARY + [
    replace(p, lambda_t=p.lambda_t * scale, lambda_u=p.lambda_u * scale)
    for p in W1_BOUNDARY
    for scale in (1.0 - 1e-9, 1.0 + 1e-9)
]


class TestFeasibilityClosedForm:
    def test_matches_feasible_interval(self):
        rng = np.random.default_rng(2024)
        draws = [random_params(rng) for _ in range(2000)] + NEAR_W1_BOUNDARY
        excluded = [_excludes_w1(p) for p in draws]
        assert excluded == [feasible_interval(p).w_hi <= 1.0 for p in draws]
        assert 0 < sum(excluded) < len(draws)
        assert all(_excludes_w1(p) for p in W1_BOUNDARY)

    def test_value_adds_penalty_exactly_when_w1_excluded(self, btc_params):
        prep = _PreparedObjective(simulated_series(btc_params, 2000, seed=3), CfQuadrature())
        rng = np.random.default_rng(7)
        draws = [random_params(rng) for _ in range(300)] + NEAR_W1_BOUNDARY
        for p in draws:
            penalty = FEASIBILITY_PENALTY if feasible_interval(p).w_hi <= 1.0 else 0.0
            assert prep.value(p) == sum(prep.terms(p)) + penalty


class TestFit:
    def test_recovers_sample_moments(self, btc_params):
        s = simulated_series(btc_params, 30_000, seed=1)
        res = fit(s)
        emp = empirical_moments(s)
        m = moments(res.params)
        assert abs(1 - m.mean / emp.mean) <= 0.05
        assert abs(1 - m.variance / emp.variance) <= 0.05
        assert abs(1 - m.skewness / emp.skewness) <= 0.05
        assert abs(1 - m.kurtosis / emp.kurtosis) <= 0.05
        assert res.objective_value <= 1e-2
        assert res.converged

    def test_gaussian_data_drives_out_asymmetry(self):
        # in the Gaussian limit the clock freezes (huge lambdas), which makes
        # the raw rho unidentified: rho * T(U(1)) degenerates to a constant
        # absorbed by the drift.  The identified statement is that rho's
        # distributional footprint vanishes: no skew, no variance share.
        # This sample's excess kurtosis (-0.0057) is below any NDIG law's, so
        # the fit answers with the Gaussian limit and flags it.
        rng = np.random.default_rng(123)
        s = make_series(rng.normal(0.0, 0.05, 50_000))
        res = fit(s)
        m = moments(res.params)
        p = res.params
        clock_var_share = p.rho**2 * (1 / p.lambda_t + 1 / p.lambda_u) / m.variance
        assert abs(m.skewness) <= 0.1
        assert m.kurtosis == pytest.approx(3.0, abs=0.1)
        assert clock_var_share < 0.01
        emp = empirical_moments(s)
        assert not res.converged
        assert p == NDIGParams(
            mu3=emp.mean, sigma3=math.sqrt(emp.variance), rho=0.0,
            lambda_t=LAMBDA_CAP, lambda_u=LAMBDA_CAP,
        )

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit(make_series(np.zeros(500)))

    def test_short_series_rejected(self, btc_params):
        with pytest.raises(ValueError, match="floor"):
            fit(simulated_series(btc_params, 50, seed=0))

    def test_deterministic(self, btc_params):
        s = simulated_series(btc_params, 2000, seed=9)
        assert fit(s) == fit(s)


class TestProfileFit:
    def test_reduced_cumulants_match_model(self):
        # _k34 is model.cumulants at gamma = 0 in units of the variance, and
        # b_edge is where it matches the sample at a = 0
        rng = np.random.default_rng(2024)
        prep = _PreparedObjective(make_series(rng.normal(0.0, 0.05, 200)), CfQuadrature())
        n_edges = 0
        for _ in range(2000):
            p = random_params(rng)
            _, k2, k3, k4 = cumulants(p)
            r = p.rho / math.sqrt(k2)
            got3, got4, _ = _k34(r, 1.0 / p.lambda_u, 1.0 / p.lambda_t)
            assert got3 == pytest.approx(k3 / k2**1.5, rel=1e-14)
            assert got4 == pytest.approx(k4 / k2**2, rel=1e-14)
            prep.emp = moments(p)
            b_edge = prep.b_edge
            if b_edge > 0.0:
                n_edges += 1
                skew = prep.emp.skewness
                edge3, edge4, _ = _k34(skew / (3.0 * b_edge), 0.0, b_edge)
                assert edge3 == pytest.approx(skew, rel=1e-14)
                assert edge4 == pytest.approx(prep.emp.kurtosis - 3.0, rel=1e-14)
        assert n_edges > 1000

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_params(rng)
            r = p.rho / math.sqrt(cumulants(p)[1])
            a, b = 1.0 / p.lambda_u, 1.0 / p.lambda_t
            _, _, (d3r, d3a, d4r, d4a) = _k34(r, a, b)
            hr, ha = 1e-6 * abs(r), 1e-6 * a
            fd3r, fd4r = np.subtract(_k34(r + hr, a, b)[:2], _k34(r - hr, a, b)[:2]) / (2 * hr)
            fd3a, fd4a = np.subtract(_k34(r, a + ha, b)[:2], _k34(r, a - ha, b)[:2]) / (2 * ha)
            assert [fd3r, fd3a] == pytest.approx([d3r, d3a], rel=1e-6, abs=1e-6 * abs(d3r))
            assert [fd4r, fd4a] == pytest.approx([d4r, d4a], rel=1e-6, abs=1e-6 * abs(d4a))

    def test_matched_points_zero_the_moment_terms(self, btc_params):
        # across the whole profile, from lambda_t = LAMBDA_CAP to the edge
        s = simulated_series(btc_params, 2000, seed=9)
        prep = _PreparedObjective(s, CfQuadrature())
        z_cap = math.log(prep.b_edge * LAMBDA_CAP - 1.0)
        assert prep.matched(-z_cap).lambda_t == pytest.approx(LAMBDA_CAP, rel=1e-12)
        for z in np.linspace(-z_cap, z_cap, 25):
            p = prep.matched(float(z))
            assert p is not None
            assert max(prep.terms(p)[:4]) < 1e-28


    def test_narrow_profile_scans_upward(self, btc_params, monkeypatch):
        # with b_edge * LAMBDA_CAP in (1, 2) the cap's z is negative; the
        # scan must still run from low to high z for the bounded search
        s = simulated_series(btc_params, 2000, seed=9)
        b_edge = _PreparedObjective(s, CfQuadrature()).b_edge
        monkeypatch.setattr(estimate, "LAMBDA_CAP", 1.5 / b_edge)
        res = fit(s)
        assert res.converged
        assert max(res.term_breakdown[:4]) < 1e-28


class TestRollingFit:
    def test_window_counting(self, btc_params):
        s = simulated_series(btc_params, 1008, seed=2)
        roll = rolling_fit(s, window=1008)
        assert len(roll.results) == 1
        assert roll.window_end_dates == (s.dates[-1],)

    def test_three_windows_and_end_dates(self, btc_params):
        s = simulated_series(btc_params, 1010, seed=2)
        roll = rolling_fit(s, window=1008, step=1)
        assert len(roll.results) == 3
        assert roll.window_end_dates == (s.dates[1007], s.dates[1008], s.dates[1009])

    def test_too_short_rejected(self, btc_params):
        s = simulated_series(btc_params, 500, seed=2)
        with pytest.raises(ValueError, match="shorter"):
            rolling_fit(s, window=1008)

    def test_each_window_equals_its_fit(self, btc_params):
        s = simulated_series(btc_params, 1012, seed=10)
        roll = rolling_fit(s, window=1008, step=2)
        assert len(roll.results) == 3
        for k, result in enumerate(roll.results):
            assert result == fit(s.window(2 * k, 1008))

    def test_stationary_series_has_stable_trajectory(self, btc_params):
        # level-trajectory translation of the no-trend property: overlapping
        # windows make a naive slope t-test meaningless, so assert the fitted
        # Brownian scale hugs the truth with no first-to-second-half drift
        s = simulated_series(btc_params, 1300, seed=10)
        roll = rolling_fit(s, window=1008, step=4)
        sig = np.array([r.params.sigma3 for r in roll.results])
        assert np.all(np.abs(sig / btc_params.sigma3 - 1.0) < 0.2)
        half = len(sig) // 2
        drift = abs(sig[half:].mean() - sig[:half].mean()) / btc_params.sigma3
        assert drift < 0.05


def test_objective_is_zero_when_model_matches_sample(btc_params):
    # force the prepared sample statistics to the model's own values: every
    # term of the objective must then vanish identically
    s = simulated_series(btc_params, 500, seed=13)
    prep = _PreparedObjective(s, CfQuadrature())
    prep.emp = moments(btc_params)
    prep.ecf = np.asarray(chf(prep.v, btc_params))
    terms = prep.terms(btc_params)
    assert terms == (0.0, 0.0, 0.0, 0.0, 0.0)
