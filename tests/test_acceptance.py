"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[ACCEPTANCE] ... PASS/FAIL`` line with the
measured statistic (run pytest with ``-s`` to see the lines as they stream;
they also appear in captured output).  Monte Carlo criteria use fixed seeds
whose behaviour was checked to be typical across seeds before freezing.
"""

from __future__ import annotations

import math
import time
from datetime import date, timedelta

import numpy as np

from ndigvol import (
    FFTGridConfig,
    MarketContext,
    NDIGParams,
    ReturnSeries,
    carr_madan_prices,
    cgf,
    chf,
    empirical_moments,
    feasible_interval,
    fit,
    mc_option_price,
    mc_stats,
    moments,
    price_surface,
    risk_neutral_chf,
    rolling_fit,
    simulate_paths,
    term_inputs_from_chain,
)
from ndigvol.cli import main as cli_main
from ndigvol.volindex import (
    MINUTES_30D,
    bvix,
    expiry_pair,
    ndig_it_series,
    normalize,
    rolling_std_vol,
    term_weights,
)

from conftest import random_params
from oracles import bs_call, flat_bsm_chain, quad_call_price


def _check(label: str, ok: bool, detail: str, t0: float, budget_s: float) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[ACCEPTANCE] {label}: {status} ({detail}; {elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget_s, f"{label}: runtime {elapsed:.1f}s exceeded {budget_s}s"


def _series(returns: np.ndarray) -> ReturnSeries:
    d0 = date(2013, 1, 1)
    return ReturnSeries(
        dates=tuple(d0 + timedelta(days=i) for i in range(len(returns))),
        returns=returns,
    )


def _unit_increments(p: NDIGParams, n: int, seed: int) -> np.ndarray:
    return simulate_paths(p, np.array([0.0, 1.0]), n, seed=seed).paths[:, 1]


def test_c01_chf_cgf_consistency(btc_params):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cases = [btc_params] + [random_params(rng) for _ in range(20)]
    worst = 0.0
    for p in cases:
        iv = feasible_interval(p)
        for w in np.linspace(0.95 * iv.w_lo, 0.95 * iv.w_hi, 50):
            lhs = math.exp(cgf(float(w), p))
            rhs = chf(-1j * float(w), p)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    _check(
        "C1 chf/cgf consistency (50 w x 21 parameter sets)",
        worst <= 1e-12, f"worst rel err {worst:.2e} vs 1e-12", t0, 1.0,
    )


def test_c02_mc_moments_match_analytic(btc_params):
    t0 = time.time()
    n = 1_000_000
    ps = simulate_paths(btc_params, np.array([0.0, 1.0]), n, seed=1)
    stats = mc_stats(ps, 1.0)
    m = moments(btc_params)
    z_mean = abs(stats.mean - m.mean) / stats.se_mean
    z_var = abs(stats.variance - m.variance) / stats.se_variance
    skew_rel = abs(stats.skewness - m.skewness) / abs(m.skewness)
    kurt_rel = abs(stats.kurtosis - m.kurtosis) / m.kurtosis
    ok = z_mean < 3 and z_var < 3 and skew_rel < 0.10 and kurt_rel < 0.15
    _check(
        "C2 analytic vs MC moments (1e6 increments)",
        ok,
        f"mean z={z_mean:.2f}, var z={z_var:.2f}, skew rel={skew_rel:.3f}, "
        f"kurt rel={kurt_rel:.3f}",
        t0, 30.0,
    )


def test_c03_martingale_property(btc_params):
    t0 = time.time()
    n = 1_000_000
    r, s0 = 0.02, 100.0
    k1 = cgf(1.0, btc_params)
    times = np.array([0.0, 7.0, 30.0, 90.0])
    ps = simulate_paths(btc_params, times, n, seed=2)
    worst_z = 0.0
    for j, t_days in enumerate((7.0, 30.0, 90.0), start=1):
        s_t = s0 * np.exp((r / 365.0 - k1) * t_days + ps.paths[:, j])
        disc = math.exp(-r * t_days / 365.0)
        err = disc * s_t.mean() - s0
        se = disc * s_t.std(ddof=1) / math.sqrt(n)
        worst_z = max(worst_z, abs(err) / se)
    worst_rel = 0.0
    for tau in (7 / 365, 30 / 365, 90 / 365, 1.0):
        val = risk_neutral_chf(-1j, btc_params, MarketContext(s0, r, tau))
        worst_rel = max(worst_rel, abs(val - s0 * math.exp(r * tau)) / (s0 * math.exp(r * tau)))
    ok = worst_z < 3.0 and worst_rel <= 1e-10
    _check(
        "C3 martingale property (MC + analytic)",
        ok, f"worst MC z={worst_z:.2f}, worst analytic rel={worst_rel:.1e}", t0, 60.0,
    )


def test_c04_fft_vs_quadrature(btc_params):
    t0 = time.time()
    s0, r = 100.0, 0.02
    grid = FFTGridConfig.dense(damping=0.40)
    worst = 0.0
    for tau in (7 / 365, 30 / 365, 90 / 365, 1.0):
        ctx = MarketContext(s0, r, tau)
        strikes, calls = carr_madan_prices(btc_params, ctx, grid)
        logk = np.log(strikes)
        logc = np.log(calls.clip(1e-300))
        for m in (0.75, 0.9, 1.0, 1.2, 1.5):
            k = math.log(m * s0)
            fft_val = float(np.exp(np.interp(k, logk, logc)))
            oracle = quad_call_price(btc_params, s0, r, tau, m * s0, 0.40)
            worst = max(worst, abs(fft_val - oracle) / oracle)
    _check(
        "C4 FFT pricer vs adaptive quadrature (moneyness 0.75-1.5, 4 maturities)",
        worst <= 1e-4, f"worst rel err {worst:.2e} vs 1e-4", t0, 10.0,
    )


def test_c05_bsm_degenerate_limit():
    t0 = time.time()
    p = NDIGParams(mu3=0.004, sigma3=0.0551, rho=0.0, lambda_t=1e6, lambda_u=1e6)
    vol = 0.0551 * math.sqrt(365.0)
    s0, r = 100.0, 0.02
    strikes = np.linspace(0.75 * s0, 1.5 * s0, 21)
    maturities = [7 / 365, 30 / 365, 90 / 365, 1.0]
    chain = price_surface(p, s0, r, strikes, maturities, grid=FFTGridConfig.dense())
    worst_price = 0.0
    worst_vol = 0.0
    for i, tau in enumerate(maturities):
        ref = np.array([bs_call(s0, k, r, tau, vol) for k in strikes])
        worst_price = max(worst_price, float(np.max(np.abs(chain.call_prices[i] / ref - 1.0))))
        worst_vol = max(worst_vol, float(np.max(np.abs(chain.implied_vols[i] / vol - 1.0))))
    ok = worst_price <= 1e-3 and worst_vol <= 1e-2
    _check(
        "C5 BSM degenerate limit (prices 1e-3, implied surface flat 1%)",
        ok, f"worst price rel {worst_price:.1e}, worst vol rel {worst_vol:.1e}", t0, 10.0,
    )


def test_c06_parity_bounds_monotonicity(btc_params):
    t0 = time.time()
    s0, r = 100.0, 0.02
    strikes = np.linspace(0.75 * s0, 1.5 * s0, 40)
    maturities = [7 / 365, 30 / 365, 90 / 365, 1.0]
    chain = price_surface(btc_params, s0, r, strikes, maturities, grid=FFTGridConfig.dense())
    worst_parity = 0.0
    monotone = True
    bounds_ok = True
    for i, tau in enumerate(maturities):
        disc = math.exp(-r * tau)
        resid = chain.call_prices[i] - chain.put_prices[i] - s0 + strikes * disc
        worst_parity = max(worst_parity, float(np.max(np.abs(resid))))
        monotone &= bool(np.all(np.diff(chain.call_prices[i]) < 0.0))
        lo = np.maximum(s0 - strikes * disc, 0.0)
        unflagged = chain.bound_flags[i] == 0
        bounds_ok &= bool(
            np.all(chain.call_prices[i][unflagged] >= lo[unflagged] - 1e-10)
            and np.all(chain.call_prices[i][unflagged] <= s0 + 1e-10)
        )
    ok = worst_parity <= 1e-10 and monotone and bounds_ok and not chain.bound_flags.any()
    _check(
        "C6 parity residual / strike monotonicity / price bounds",
        ok,
        f"worst parity {worst_parity:.1e}, monotone={monotone}, bounds={bounds_ok}",
        t0, 5.0,
    )


def test_c07_estimation_recovery(btc_params):
    t0 = time.time()
    s = _series(_unit_increments(btc_params, 100_000, seed=1))
    res = fit(s)
    emp = empirical_moments(s)
    m = moments(res.params)
    dms = (
        abs(1 - m.mean / emp.mean),
        abs(1 - m.variance / emp.variance),
        abs(1 - m.skewness / emp.skewness),
        abs(1 - m.kurtosis / emp.kurtosis),
    )
    rng = np.random.default_rng(123)
    gauss = _series(rng.normal(0.0, 0.05, 100_000))
    gres = fit(gauss)
    gm = moments(gres.params)
    gp = gres.params
    rho_share = gp.rho**2 * (1 / gp.lambda_t + 1 / gp.lambda_u) / gm.variance
    ok = (
        max(dms) <= 0.05
        and res.objective_value <= 1e-2
        and abs(gm.skewness) <= 0.1
        and rho_share <= 0.01
    )
    _check(
        "C7 estimation recovery (1e5 model returns + Gaussian control)",
        ok,
        f"max |dMk|={max(dms):.1e}, obj={res.objective_value:.1e}, "
        f"gaussian |skew|={abs(gm.skewness):.3f}, rho variance share={rho_share:.1e}",
        t0, 300.0,
    )


def test_c08_vix_mechanics():
    t0 = time.time()
    weights_ok = True
    windows_ok = True
    day = date(2015, 1, 1)
    for _ in range(3653):  # ten years of valuations
        pair = expiry_pair(day)
        w1, w2 = term_weights(pair)
        weights_ok &= abs(w1 + w2 - 1.0) < 1e-12 and -1e-12 <= w1 <= 1 + 1e-12
        near_days = (pair.near_expiry.date() - day).days
        windows_ok &= (
            23 <= near_days <= 30
            and pair.near_expiry.weekday() == 4
            and pair.m_t1 < MINUTES_30D <= pair.m_t2
        )
        day += timedelta(days=1)

    worst_rec = 0.0
    s0, r = 100.0, 0.02
    for offset in range(7):
        pair = expiry_pair(date(2021, 6, 7) + timedelta(days=offset))
        for vol in (0.2, 0.5, 1.0):
            terms = []
            for minutes in (pair.m_t1, pair.m_t2):
                tau = minutes / (1440.0 * 365.0)
                strikes = np.linspace(0.65 * s0, 1.70 * s0, 40)
                calls, puts = flat_bsm_chain(s0, r, tau, vol, strikes)
                terms.append(
                    term_inputs_from_chain(
                        strikes, calls, puts, s0 * math.exp(r * tau), r, tau
                    )
                )
            value = bvix(pair, terms[0], terms[1])
            worst_rec = max(worst_rec, abs(value / (100.0 * vol) - 1.0))
    ok = weights_ok and windows_ok and worst_rec <= 0.05
    _check(
        "C8 VIX mechanics (10y scan + flat-chain recovery 0.2/0.5/1.0)",
        ok,
        f"weights ok={weights_ok}, windows ok={windows_ok}, worst recovery err={worst_rec:.3f}",
        t0, 30.0,
    )


def test_c09_intrinsic_time_tracks_historical(btc_params):
    t0 = time.time()
    # slowly varying Brownian scale: four regimes over 3000 days
    segments = [(0.03, 750, 11), (0.06, 750, 12), (0.04, 750, 13), (0.08, 750, 14)]
    chunks = []
    for sigma3, length, seed in segments:
        p = NDIGParams(
            mu3=btc_params.mu3, sigma3=sigma3, rho=btc_params.rho,
            lambda_t=btc_params.lambda_t, lambda_u=btc_params.lambda_u,
        )
        chunks.append(_unit_increments(p, length, seed=seed))
    series = _series(np.concatenate(chunks))

    roll = rolling_fit(series, window=1008, step=1)
    it_series = ndig_it_series(roll, annualization=252.0)
    std_series = rolling_std_vol(series, window=1008, annualization=252.0)
    assert it_series.dates == std_series.dates
    a = normalize(it_series).values
    b = normalize(std_series).values
    corr = float(np.corrcoef(a, b)[0, 1])
    _check(
        "C9 normalized intrinsic-time vs rolling-STD co-movement",
        corr >= 0.95, f"Pearson correlation {corr:.4f} vs 0.95 "
        f"({len(roll.results)} rolling fits)", t0, 600.0,
    )


def test_c10_pipeline_determinism(btc_params, tmp_path):
    t0 = time.time()
    prices_path = tmp_path / "prices.csv"
    x = _unit_increments(btc_params, 1059, seed=3)
    closes = 1000.0 * np.exp(np.concatenate(([0.0], np.cumsum(x))))
    d0 = date(2016, 1, 1)
    lines = ["date,close"]
    lines += [
        f"{(d0 + timedelta(days=i)).isoformat()},{float(c)!r}" for i, c in enumerate(closes)
    ]
    prices_path.write_text("\n".join(lines) + "\n")

    outputs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        argv = [
            "pipeline", "--input", str(prices_path), "--output-dir", str(out),
            "--window", "1008", "--seed", "7",
        ]
        assert cli_main(argv) == 0
        outputs.append(out)
    names = [
        "rolling_params.csv", "std.csv", "ndig_it.csv", "bvix.csv",
        "std_norm.csv", "ndig_it_norm.csv", "bvix_norm.csv",
    ]
    identical = all(
        (outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes() for n in names
    )
    rows = (outputs[0] / "std.csv").read_text().splitlines()
    _check(
        "C10 pipeline byte determinism (two runs, same seed)",
        identical and len(rows) == 2 + (1059 - 1008 + 1),
        f"identical={identical}, windows={len(rows) - 2}", t0, 120.0,
    )
