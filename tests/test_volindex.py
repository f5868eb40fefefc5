from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndigvol import (
    ExpiryPair,
    NDIGParams,
    ReturnSeries,
    VolatilitySeries,
    bvix,
    expiry_pair,
    moments,
    ndig_it_vol,
    normalize,
    rolling_std_vol,
    term_variance,
    term_weights,
)
from ndigvol.volindex import MINUTES_30D, BvixConfig, _bvix_one, _rate_lookup

from oracles import flat_bsm_chain


def make_series(returns) -> ReturnSeries:
    returns = np.asarray(returns, dtype=float)
    d0 = date(2015, 1, 1)
    return ReturnSeries(
        dates=tuple(d0 + timedelta(days=i) for i in range(len(returns))),
        returns=returns,
    )


def pair_with_minutes(m1: float, m2: float) -> ExpiryPair:
    from datetime import datetime, time

    base = datetime.combine(date(2021, 3, 1), time(16, 0))
    return ExpiryPair(
        valuation=base,
        near_expiry=base + timedelta(minutes=m1),
        next_expiry=base + timedelta(minutes=m2),
        m_t1=m1,
        m_t2=m2,
    )


class TestExpiryPair:
    def test_friday_valuation_gets_28_days(self):
        d = date(2021, 3, 5)  # a Friday
        pair = expiry_pair(d)
        assert (pair.near_expiry.date() - d).days == 28
        assert (pair.next_expiry.date() - d).days == 35

    def test_minutes_in_30_days(self):
        assert MINUTES_30D == 43200

    def test_windows_over_all_weekdays(self):
        for offset in range(7):
            d = date(2021, 6, 7) + timedelta(days=offset)
            pair = expiry_pair(d)
            near_days = (pair.near_expiry.date() - d).days
            next_days = (pair.next_expiry.date() - d).days
            assert pair.near_expiry.weekday() == 4
            assert pair.next_expiry.weekday() == 4
            assert 23 <= near_days <= 30
            assert next_days == near_days + 7
            assert pair.near_expiry.hour == 16
            assert pair.m_t1 == near_days * 1440.0

    def test_bracketing_invariant_over_a_year(self):
        for offset in range(366):
            pair = expiry_pair(date(2020, 1, 1) + timedelta(days=offset))
            assert pair.m_t1 < MINUTES_30D <= pair.m_t2


class TestTermWeights:
    def test_near_at_30_days(self):
        w1, w2 = term_weights(pair_with_minutes(MINUTES_30D, MINUTES_30D + 7 * 1440))
        assert w1 == pytest.approx(1.0)
        assert w2 == pytest.approx(0.0)

    def test_next_at_30_days(self):
        w1, w2 = term_weights(pair_with_minutes(23 * 1440.0, MINUTES_30D))
        assert w1 == pytest.approx(0.0)
        assert w2 == pytest.approx(1.0)

    def test_symmetric_bracket_by_substitution(self):
        # m1 = 0.8 * m30, m2 = 1.2 * m30:
        # w1 = 0.8 * ((1.2 - 1.0) / (1.2 - 0.8)) = 0.4
        # w2 = 1.2 * ((1.0 - 0.8) / (1.2 - 0.8)) = 0.6
        w1, w2 = term_weights(pair_with_minutes(0.8 * MINUTES_30D, 1.2 * MINUTES_30D))
        assert w1 == pytest.approx(0.4)
        assert w2 == pytest.approx(0.6)
        assert w1 + w2 == pytest.approx(1.0)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            term_weights(pair_with_minutes(40000.0, 40000.0))

    @given(st.integers(23, 29), st.integers(0, 1439))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_unity(self, days, minutes):
        m1 = days * 1440.0 + minutes
        w1, w2 = term_weights(pair_with_minutes(m1, m1 + 7 * 1440.0))
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
        assert -1e-12 <= w1 <= 1.0 + 1e-12
        assert -1e-12 <= w2 <= 1.0 + 1e-12


class TestTermVariance:
    def _flat_chain(self, vol=0.5, tau=24 / 365, s=100.0, r=0.02, n=40):
        """(strikes, calls, puts, forward, rate, term_years) of a flat-vol chain."""
        strikes = np.linspace(0.65 * s, 1.70 * s, n)
        calls, puts = flat_bsm_chain(s, r, tau, vol, strikes)
        return strikes, calls, puts, s * math.exp(r * tau), r, tau

    def test_forward_on_threshold_kills_correction(self):
        k, calls, puts, _, r, t = self._flat_chain()
        # with forward == k0 the correction term vanishes; only the strip remains
        q = np.concatenate((puts[:14], [0.5 * (calls[14] + puts[14])], calls[15:]))
        dk = np.concatenate(([k[1] - k[0]], (k[2:] - k[:-2]) / 2.0, [k[-1] - k[-2]]))
        strip = 2.0 * math.exp(r * t) / t * float(np.sum(dk / (k * k) * q))
        assert term_variance(k, calls, puts, float(k[14]), r, t) == pytest.approx(strip, rel=1e-12)

    def test_flat_chain_recovers_variance(self):
        for vol in (0.2, 0.5, 1.0):
            for tau in (24 / 365, 31 / 365, 36 / 365):
                chain = self._flat_chain(vol=vol, tau=tau)
                assert term_variance(*chain) == pytest.approx(vol * vol, rel=0.05)

    def test_doubling_quotes_doubles_strip(self):
        strikes, calls, puts, forward, r, t = self._flat_chain()
        k0 = strikes[strikes <= forward].max()
        corr = (forward / k0 - 1.0) ** 2 / t
        strip = term_variance(strikes, calls, puts, forward, r, t) + corr
        strip2 = term_variance(strikes, 2 * calls, 2 * puts, forward, r, t) + corr
        assert strip2 == pytest.approx(2.0 * strip, rel=1e-12)

    def test_negative_variance_rejected(self):
        strikes = np.array([90.0, 100.0, 110.0])
        tiny = np.array([1e-12, 1e-12, 1e-12])
        with pytest.raises(ValueError, match="negative term variance"):
            term_variance(strikes, tiny, tiny, 100.5, 0.05, 30 / 365)

    def test_strike_grid_validation(self):
        k, ones = np.array([90.0, 100.0, 110.0]), np.ones(3)
        cases = [  # (strikes, calls, puts, forward, term_years), message
            ((k, ones, np.ones(2), 100.0, 0.1), "must have the same length"),
            ((k[:2], ones[:2], ones[:2], 100.0, 0.1), "at least 3 strikes"),
            ((np.array([100.0, 90.0, 110.0]), ones, ones, 100.0, 0.1), "increasing"),
            ((k, ones, ones, 89.0, 0.1), "no strike at or below the forward"),
            ((k, ones, ones, 100.0, 0.0), "term_years must be positive"),
            ((k, ones, ones, 100.0, -0.1), "term_years must be positive"),
        ]
        for (strikes, calls, puts, forward, term_years), message in cases:
            with pytest.raises(ValueError, match=message):
                term_variance(strikes, calls, puts, forward, 0.0, term_years)


class TestBvix:
    def test_equal_term_variances(self):
        pair = pair_with_minutes(25 * 1440.0, 32 * 1440.0)
        strikes = np.linspace(65.0, 170.0, 40)
        calls, puts = flat_bsm_chain(100.0, 0.0, 25 / 365, 0.5, strikes)
        v1 = term_variance(strikes, calls, puts, 100.0, 0.0, 25 / 365)
        calls2, puts2 = flat_bsm_chain(100.0, 0.0, 32 / 365, 0.5, strikes)
        v2 = term_variance(strikes, calls2, puts2, 100.0, 0.0, 32 / 365)
        value = bvix(pair, v1, v2)
        w1, w2 = term_weights(pair)
        assert value == pytest.approx(100.0 * math.sqrt(w1 * v1 + w2 * v2), rel=1e-14)

    def test_weight_collapse_onto_near_term(self):
        pair = pair_with_minutes(MINUTES_30D, MINUTES_30D + 7 * 1440.0)
        strikes = np.linspace(65.0, 170.0, 40)
        calls, puts = flat_bsm_chain(100.0, 0.0, 30 / 365, 0.4, strikes)
        near = term_variance(strikes, calls, puts, 100.0, 0.0, 30 / 365)
        value = bvix(pair, near, near)
        assert value == pytest.approx(100.0 * math.sqrt(near), rel=1e-14)

    def test_flat_surface_recovery_across_weekdays(self):
        # every valuation weekday, sigma from 20% to 100%: the blended index
        # must land within 5% of the flat input vol
        for offset in (0, 3, 5):
            day = date(2021, 6, 7) + timedelta(days=offset)
            pair = expiry_pair(day)
            for vol in (0.2, 0.5, 1.0):
                terms = []
                for minutes in (pair.m_t1, pair.m_t2):
                    tau = minutes / (1440.0 * 365.0)
                    strikes = np.linspace(65.0, 170.0, 40)
                    calls, puts = flat_bsm_chain(100.0, 0.02, tau, vol, strikes)
                    terms.append(
                        term_variance(strikes, calls, puts, 100.0 * math.exp(0.02 * tau), 0.02, tau)
                    )
                value = bvix(pair, terms[0], terms[1])
                assert value == pytest.approx(100.0 * vol, rel=0.05)


class TestRollingStdVol:
    def test_constant_returns_are_flat_zero(self):
        series = make_series(np.full(1100, 0.01))
        out = rolling_std_vol(series, window=1008)
        assert out.kind == "STD"
        assert len(out.values) == 1100 - 1008 + 1
        np.testing.assert_allclose(out.values, 0.0, atol=1e-8)

    def test_gaussian_level(self):
        rng = np.random.default_rng(8)
        series = make_series(rng.normal(0.0, 0.05, 3000))
        out = rolling_std_vol(series, window=1008, annualization=252.0)
        target = 100.0 * 0.05 * math.sqrt(252.0)
        assert np.all(np.abs(out.values / target - 1.0) < 0.1)

    def test_dates_align_with_window_ends(self):
        series = make_series(np.random.default_rng(0).normal(0, 0.01, 1010))
        out = rolling_std_vol(series, window=1008)
        assert out.dates == series.dates[1007:]

    def test_matches_direct_std(self):
        rng = np.random.default_rng(3)
        series = make_series(rng.standard_t(4, 300) * 0.02)
        out = rolling_std_vol(series, window=250, annualization=252.0)
        direct = 100.0 * np.std(series.returns[17 : 17 + 250], ddof=1) * math.sqrt(252.0)
        assert out.values[17] == pytest.approx(direct, rel=1e-10)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            rolling_std_vol(make_series(np.zeros(100)), window=1008)

    @pytest.mark.parametrize("window", [1, 0])
    def test_window_below_two_rejected(self, window):
        # one return has no sample variance (ddof=1), and no return has no window
        with pytest.raises(ValueError, match=f"window must be at least 2, got {window}"):
            rolling_std_vol(make_series(np.random.default_rng(0).normal(0, 0.01, 50)), window=window)


class TestNdigItVol:
    def test_symmetric_reduces_to_brownian_scale(self):
        p = NDIGParams(mu3=0.0, sigma3=0.04, rho=0.0, lambda_t=3.0, lambda_u=0.5)
        assert ndig_it_vol(p, 252.0) == pytest.approx(100.0 * 0.04 * math.sqrt(252.0), rel=1e-14)

    def test_reference_level(self, btc_params):
        # 100 * sqrt(3.0405e-3 * 252) ~ 87.5 percent
        assert ndig_it_vol(btc_params, 252.0) == pytest.approx(87.53, abs=0.05)

    def test_consistency_with_model_variance(self, btc_params):
        expected = 100.0 * math.sqrt(moments(btc_params).variance * 252.0)
        assert ndig_it_vol(btc_params, 252.0) == expected

    def test_annualization_override(self, btc_params):
        v252 = ndig_it_vol(btc_params, 252.0)
        v365 = ndig_it_vol(btc_params, 365.0)
        assert v365 / v252 == pytest.approx(math.sqrt(365.0 / 252.0), rel=1e-14)


class TestNormalize:
    def test_three_point_example(self):
        s = VolatilitySeries(
            dates=(date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)),
            values=np.array([1.0, 2.0, 3.0]),
            kind="STD",
        )
        np.testing.assert_allclose(normalize(s).values, [-1.0, 0.0, 1.0])

    def test_idempotent(self):
        s = VolatilitySeries(
            dates=tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(50)),
            values=np.random.default_rng(0).uniform(50, 150, 50),
            kind="BVIX",
        )
        once = normalize(s)
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
        assert abs(once.values.mean()) < 1e-12
        assert abs(once.values.std(ddof=1) - 1.0) < 1e-12

    def test_affine_invariance(self):
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(30))
        base = np.random.default_rng(1).uniform(10, 90, 30)
        a = normalize(VolatilitySeries(dates=dates, values=base, kind="STD"))
        b = normalize(VolatilitySeries(dates=dates, values=2.5 * base + 7.0, kind="STD"))
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_zero_variance_rejected(self):
        s = VolatilitySeries(
            dates=(date(2020, 1, 1), date(2020, 1, 2)),
            values=np.array([5.0, 5.0]),
            kind="STD",
        )
        with pytest.raises(ValueError, match="zero-variance"):
            normalize(s)


@pytest.mark.parametrize(
    "band",
    [
        dict(strike_lo=-1.0), dict(strike_lo=0.0), dict(strike_lo=math.nan),
        dict(strike_lo=2.0, strike_hi=1.0), dict(strike_hi=math.inf), dict(n_strikes=2),
    ],
)
def test_bvix_config_rejects_a_band_that_cannot_work(band):
    message = "n_strikes must be at least 3, got 2" if "n_strikes" in band else "strike band"
    with pytest.raises(ValueError, match=message):
        BvixConfig(**band)


@pytest.mark.parametrize("annualization", [0.0, -1.0, math.inf, math.nan])
def test_annualization_must_be_positive(annualization, btc_params):
    message = f"annualization must be positive, got {annualization}"
    with pytest.raises(ValueError, match=message):
        rolling_std_vol(make_series(np.zeros(10)), window=5, annualization=annualization)
    with pytest.raises(ValueError, match=message):
        ndig_it_vol(btc_params, annualization)


class TestBvixEndToEnd:
    def test_bsm_limit_matches_flat_vol(self):
        # degenerate-subordinator parameters price a flat lognormal surface,
        # so the blended index must sit near sigma3 * sqrt(365), annualized
        p = NDIGParams(mu3=0.004, sigma3=0.0551, rho=0.0, lambda_t=1e6, lambda_u=1e6)
        from ndigvol import FFTGridConfig

        cfg = BvixConfig(grid=FFTGridConfig.dense())
        value = _bvix_one(p, spot=100.0, day=date(2021, 7, 14), rate=0.02, config=cfg)
        target = 100.0 * 0.0551 * math.sqrt(365.0)
        assert value == pytest.approx(target, rel=0.05)


def _bvix_per_cell(params, spot, day, rate, config):
    """BVIX with the chain built cell by cell through put_from_parity."""
    from ndigvol import MarketContext, carr_madan_prices, put_from_parity
    from ndigvol.pricing import _interp_calls

    pair = expiry_pair(day)
    strikes = np.linspace(config.strike_lo * spot, config.strike_hi * spot, config.n_strikes)
    terms = []
    for expiry_minutes in (pair.m_t1, pair.m_t2):
        tau = expiry_minutes / (1440.0 * 365.0)
        ctx = MarketContext(s0=spot, r=rate, maturity=tau)
        grid_k, grid_c = carr_madan_prices(params, ctx, config.grid)
        calls = _interp_calls(np.log(grid_k), grid_c, np.log(strikes))
        puts = np.array([put_from_parity(float(c), ctx, float(k))[0] for c, k in zip(calls, strikes)])
        forward = spot * math.exp(rate * tau)
        terms.append(term_variance(strikes, calls, puts, forward, rate, tau))
    return bvix(pair, terms[0], terms[1])


class TestSharedChainBuilder:
    # the BTC reference, then sets spanning the sigma3 range and the
    # lambda/rho/mu3 wander of a rolling fit series
    PARAMS = (
        dict(mu3=0.004, sigma3=0.0551, rho=-0.0008, lambda_t=9.9293, lambda_u=0.145),
        dict(mu3=0.003, sigma3=0.0205, rho=-0.0011, lambda_t=12.1, lambda_u=0.12),
        dict(mu3=0.005, sigma3=0.072, rho=-0.0005, lambda_t=8.3, lambda_u=0.17),
        dict(mu3=0.0042, sigma3=0.038, rho=-0.0009, lambda_t=10.8, lambda_u=0.131),
    )

    def test_bvix_matches_per_cell_parity_bit_for_bit(self):
        config = BvixConfig()
        for q in self.PARAMS:
            p = NDIGParams(**q)
            for day, spot, rate in (
                (date(2021, 7, 14), 100.0, 0.02),
                (date(2020, 3, 13), 5432.1, 0.0),
                (date(2019, 11, 3), 0.37, 0.05),
            ):
                got = _bvix_one(p, spot, day, rate, config)
                assert got == _bvix_per_cell(p, spot, day, rate, config)

    def test_volindex_does_not_interpolate_on_its_own(self):
        import ndigvol.volindex as volindex

        assert not hasattr(volindex, "_interp_calls")


class TestBvixSeries:
    """The BVIX series as the CLI builds it: rolling_fit, then bvix_from_rolling."""

    @staticmethod
    def closes_and_dates(params, n_prices, seed):
        from ndigvol import simulate_paths

        x = simulate_paths(params, np.array([0.0, 1.0]), n_prices - 1, seed=seed).paths[:, 1]
        closes = 1000.0 * np.exp(np.concatenate(([0.0], np.cumsum(x))))
        d0 = date(2019, 3, 1)
        return closes, tuple(d0 + timedelta(days=i) for i in range(n_prices))

    @staticmethod
    def rolling(closes, dates):
        from ndigvol import rolling_fit

        returns = ReturnSeries(dates=dates[1:], returns=np.diff(np.log(closes)))
        return rolling_fit(returns, window=150)

    def test_stationary_series_is_level(self, btc_params):
        from ndigvol import bvix_from_rolling

        n_prices = 161
        closes, dates = self.closes_and_dates(btc_params, n_prices, seed=5)
        rolling = self.rolling(closes, dates)
        series, gaps = bvix_from_rolling(closes, dates, rolling)
        assert len(series.values) == (n_prices - 1) - 150 + 1
        assert not gaps
        assert series.kind == "BVIX"
        assert np.all(series.values > 0.0)
        spread = (series.values.max() - series.values.min()) / series.values.mean()
        assert spread < 0.10  # stationary data: approximately level

    def test_failed_windows_become_gaps(self, btc_params):
        # a rate lookup with no date on or before the window end must surface
        # as a diagnosed gap, not a silent drop
        from ndigvol import bvix_from_rolling

        closes, dates = self.closes_and_dates(btc_params, 152, seed=6)
        rolling = self.rolling(closes, dates)
        series, gaps = bvix_from_rolling(closes, dates, rolling, rates={date(2030, 1, 1): 0.02})
        assert len(series.values) == 0
        assert len(gaps) == 2
        assert all("no rate" in reason for _, reason in gaps)

    @pytest.mark.parametrize(
        "rates", [math.nan, math.inf, {date(2016, 1, 1): 0.01, date(2016, 6, 1): math.nan}, {}]
    )
    def test_unusable_rates_raise_before_any_window(self, btc_params, rates):
        # a rate no window can use is an input error, not a gap in every window
        from ndigvol import bvix_from_rolling

        closes, dates = self.closes_and_dates(btc_params, 152, seed=6)
        rolling = self.rolling(closes, dates)
        with pytest.raises(ValueError, match="rate r must be finite|no rate given"):
            bvix_from_rolling(closes, dates, rolling, rates=rates)

    def test_prices_are_never_dropped_silently(self, btc_params):
        from ndigvol import bvix_from_rolling

        closes, dates = self.closes_and_dates(btc_params, 152, seed=6)
        rolling = self.rolling(closes, dates)
        with pytest.raises(ValueError, match="differ in length: 151 and 152"):
            bvix_from_rolling(closes[:-1], dates, rolling)
        # the last window ends on a day the close series does not hold
        moved = dates[:-1] + (dates[-1] + timedelta(days=30),)
        series, gaps = bvix_from_rolling(closes, moved, rolling)
        assert series.dates == (dates[-2],)
        assert gaps == [(dates[-1], f"no close on {dates[-1]}")]


def _rate_by_scan(rates: dict, day: date) -> float:
    """The forward-fill rule written out: the rate of the latest date on or before day."""
    return float(rates[max(d for d in rates if d <= day)])


def test_rate_lookup_matches_forward_fill_scan():
    rng = np.random.default_rng(77)
    d0 = date(2020, 1, 1)
    for _ in range(200):
        # dates inserted in random order, some days asked for exactly
        offsets = rng.choice(400, size=int(rng.integers(1, 30)), replace=False)
        rates = {d0 + timedelta(days=int(k)): float(rng.uniform(-0.01, 0.1)) for k in offsets}
        lookup = _rate_lookup(rates)
        days = [d0 + timedelta(days=int(k)) for k in rng.integers(-20, 420, size=40)]
        for day in days + list(rates):
            if day < min(rates):
                with pytest.raises(ValueError, match=f"no rate on or before {day}"):
                    lookup(day)
            else:
                assert lookup(day) == _rate_by_scan(rates, day)
    assert _rate_lookup(0.03)(d0) == 0.03
    with pytest.raises(ValueError, match="no rate"):
        _rate_lookup({})(d0)
