"""Risk-neutral transform, Carr-Madan FFT call pricing and implied vols.

The mean-correcting martingale measure shifts the drift so the discounted
price is a martingale:

    S_t^Q = s0 * exp((r_d - K(1)) * t + X_t),

with K the daily cgf, t in days (365 calendar days per year; daily model
units bridge to annual market units through t = 365 * tau and r_d = r/365).

Calls are priced by inverting the damped transform

    C(k) = exp(-r*tau - a*k) / pi *
           Re∫_0^inf exp(-i v k) phi(v - i(a+1)) / ((a+iv)(a+1+iv)) dv

on a log-strike lattice via a single FFT.  The denominator expands to
a^2 + a - v^2 + i(2a+1)v.  The integral head is trapezoid-corrected (half
weight on the v=0 node): a plain left-rectangle rule would carry a
k-independent bias of dv/2 * phi(-i(a+1))/(a^2+a), orders of magnitude
above any useful tolerance.

A chain (calls, parity puts, bound flags) is built on whole arrays, one FFT
per maturity.  Implied vols of a whole surface are solved in one array
pass: a safeguarded Newton iteration on the log price of the
out-of-the-money option (its slope is vega over price), with a bisection
step whenever Newton would leave the bracket [1e-8, 20] as narrowed so
far.  It stops at a vol tolerance of 1e-14 + 8.9e-16 * vol, and a vol is
returned only if bsm_price reprices the call within 1e-10 * max(1, price);
every other cell gets NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NDIGParams, cgf, chf_exponent, max_damping

__all__ = [
    "DAYS_PER_YEAR",
    "MarketContext",
    "FFTGridConfig",
    "OptionChain",
    "risk_neutral_chf",
    "carr_madan_prices",
    "integrand_tail_ratio",
    "put_from_parity",
    "bsm_price",
    "implied_vol",
    "price_surface",
]

DAYS_PER_YEAR = 365.0
# implied-vol solver: absolute and relative vol tolerances (scipy brentq's
# xtol and rtol, so vols agree with a Brent inversion), repricing tolerance
# relative to max(1, price), iteration cap
_VOL_XTOL = 1e-14
_VOL_RTOL = 8.9e-16
_PRICE_TOL = 1e-10
_MAX_ITER = 200
# implied-vol search bracket
_VOL_LO = 1e-8
_VOL_HI = 20.0
# a call outside max(S - K e^{-r tau}, 0) <= C <= S by more than this times
# max(S, 1) is flagged
_BOUND_TOL = 1e-8
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class MarketContext:
    """Spot, continuously compounded annual rate, and maturity in years."""

    s0: float
    r: float
    maturity: float

    def __post_init__(self) -> None:
        _check_spot_and_rate(self.s0, self.r)
        if not self.maturity > 0.0:
            raise ValueError("maturity must be positive")


def _check_spot_and_rate(s0: float, r: float) -> None:
    if not 0.0 < s0 < math.inf:
        raise ValueError(f"s0 must be positive and finite, got {s0}")
    if not math.isfinite(r):
        raise ValueError(f"rate r must be finite, got {r}")


@dataclass(frozen=True)
class FFTGridConfig:
    """Carr-Madan lattice: n nodes, damping a, frequency spacing dv.

    Log-strike spacing and half-width follow from the FFT span tradeoff
    dv * dk = 2*pi/n, equivalently v_max * k_bar = pi * n.  The damping
    must satisfy 0 < a < max_damping(params) at pricing time.

    Aliasing wraps the damped price with period 2*k_bar in log-strike, so
    the spurious image is of order s0 * exp(-2 * a * k_bar); keep
    2*a*k_bar >= ~18 when choosing custom spacings.
    """

    n: int = 1024
    damping: float = 0.40
    dv: float = 0.25

    def __post_init__(self) -> None:
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two >= 16")
        if not self.damping > 0.0:
            raise ValueError("damping must be positive")
        if not self.dv > 0.0:
            raise ValueError("dv must be positive")

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / (self.n * self.dv)

    @property
    def k_bar(self) -> float:
        return self.n * self.dk / 2.0

    @property
    def v_max(self) -> float:
        return self.n * self.dv

    @classmethod
    def dense(cls, damping: float = 0.40) -> "FFTGridConfig":
        """High-resolution preset: >= 200 lattice strikes across the
        [0.75, 1.5] moneyness band and a negligible alias image."""
        return cls(n=16384, damping=damping, dv=0.125)


@dataclass(frozen=True)
class OptionChain:
    """Call/put prices, implied vols and validation flags on a strike x maturity grid.

    Matrices are (n_maturities, n_strikes).  bound_flag is 1 where a call
    violates max(S - K e^{-r tau}, 0) <= C <= S beyond tolerance or where a
    put had to be floored at 0 by parity; flagged cells are reported, never
    clamped (except the parity floor, which is what the flag records).
    """

    strikes: np.ndarray
    maturities: np.ndarray
    call_prices: np.ndarray
    put_prices: np.ndarray
    implied_vols: np.ndarray
    moneyness: np.ndarray
    bound_flags: np.ndarray


def risk_neutral_chf(v, p: NDIGParams, ctx: MarketContext):
    """Characteristic function of ln S_tau under the mean-correcting measure.

    phi(v) = s0^{iv} exp{[iv(r_d - K(1)) + psi(v)] t} with t in days.
    Raises when cgf(1) is infeasible (no mean correction exists).
    """
    max_damping(p)  # raises when the mean correction cgf(1) does not exist
    return np.exp(_rn_log_chf(v, p, ctx, cgf(1.0, p)))


def _rn_log_chf(u, p: NDIGParams, ctx: MarketContext, k1: float):
    u = np.asarray(u, dtype=complex)
    t = DAYS_PER_YEAR * ctx.maturity
    r_day = ctx.r / DAYS_PER_YEAR
    return 1j * u * math.log(ctx.s0) + t * (1j * u * (r_day - k1) + chf_exponent(u, p))


def _damped_integrand(v: np.ndarray, p: NDIGParams, ctx: MarketContext, a: float, k1: float):
    u = v - 1j * (a + 1.0)
    denom = a * a + a - v * v + 1j * (2.0 * a + 1.0) * v
    return np.exp(_rn_log_chf(u, p, ctx, k1)) / denom


def _checked_damping(p: NDIGParams, grid: FFTGridConfig) -> float:
    """The grid's damping, once it is known to lie in (0, max_damping(p))."""
    a = grid.damping
    a_cap = max_damping(p)
    if not 0.0 < a < a_cap:
        raise ValueError(f"damping {a} outside (0, {a_cap:.4g}) for these parameters")
    return a


def carr_madan_prices(
    p: NDIGParams, ctx: MarketContext, grid: FFTGridConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Call prices on the FFT log-strike lattice; returns (strikes, calls).

    The damped integral is discretized on v_j = j*dv, j = 0..n-1, summed by
    one length-n FFT, and scaled by exp(-r*tau - a*k)/pi on the log-strike
    lattice k_p = ln(s0) - k_bar + p*dk.  Centering the lattice on the log
    spot keeps the covered moneyness band, and the wrap-around image size,
    independent of the price level.
    """
    a = _checked_damping(p, grid)
    k1 = cgf(1.0, p)
    log_s0 = math.log(ctx.s0)
    v = np.arange(grid.n) * grid.dv
    h = _damped_integrand(v, p, ctx, a, k1)
    w = np.full(grid.n, grid.dv)
    w[0] *= 0.5
    transform = np.fft.fft(np.exp(1j * (grid.k_bar - log_s0) * v) * h * w)
    k = log_s0 - grid.k_bar + np.arange(grid.n) * grid.dk
    calls = np.exp(-ctx.r * ctx.maturity - a * k) / math.pi * transform.real
    if not np.all(np.isfinite(calls)):
        raise ValueError("non-finite FFT prices; check grid and damping")
    return np.exp(k), calls


def integrand_tail_ratio(p: NDIGParams, ctx: MarketContext, grid: FFTGridConfig) -> float:
    """|integrand| at v_max = n * dv relative to its peak on the lattice (truncation check).

    Raises ValueError for a damping outside (0, max_damping(p)), as
    ``carr_madan_prices`` does.
    """
    a = _checked_damping(p, grid)
    mags = np.abs(_damped_integrand(np.arange(grid.n + 1) * grid.dv, p, ctx, a, cgf(1.0, p)))
    return float(mags[-1] / mags[:-1].max())


def put_from_parity(call: float, ctx: MarketContext, strike: float) -> tuple[float, bool]:
    """European put via parity P = C - S + K e^{-r tau}.

    Returns (price, floored): negative parity values are floored at 0 and
    flagged so downstream consumers see where parity was violated.
    """
    if call < 0.0:
        raise ValueError("call price must be non-negative")
    raw = call - ctx.s0 + strike * math.exp(-ctx.r * ctx.maturity)
    if raw < 0.0:
        return 0.0, True
    return raw, False


def _mapped(f, x: np.ndarray) -> np.ndarray:
    """The float function f of each element of x, in x's shape."""
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _ndtr(x) -> np.ndarray:
    """Standard normal cdf 0.5 * erfc(-x * sqrt(1/2)), elementwise.

    Relative error at most about (1 + x^2) * 2**-52: rounding x * sqrt(1/2)
    is the x^2 term.  bsm_price evaluates the same expression on floats, and
    the solver's repricing (``_bs_value``) equals it bit for bit, as
    ``test_solver_repricing_equals_bsm_price_exactly`` checks.
    """
    return 0.5 * _mapped(math.erfc, -np.asarray(x, dtype=float) * _SQRT_HALF)


def bsm_price(ctx: MarketContext, strike: float, vol: float) -> float:
    """Black-Scholes-Merton European call value at annualized volatility."""
    if not vol > 0.0:
        raise ValueError("vol must be positive")
    sq = vol * math.sqrt(ctx.maturity)
    d1 = (math.log(ctx.s0 / strike) + (ctx.r + 0.5 * vol * vol) * ctx.maturity) / sq
    d2 = d1 - sq
    n1 = 0.5 * math.erfc(-d1 * _SQRT_HALF)
    n2 = 0.5 * math.erfc(-d2 * _SQRT_HALF)
    return ctx.s0 * n1 - strike * math.exp(-ctx.r * ctx.maturity) * n2


def implied_vol(ctx: MarketContext, strike: float, observed_price: float) -> float:
    """Invert bsm_price for the annualized volatility, price tolerance 1e-10.

    Raises for a strike that is not positive and finite or a non-finite
    price, when the observed price sits outside the no-arbitrage band
    (max(S - K e^{-r tau}, 0), S), or when no vol in [1e-8, 20] reprices it
    within 1e-10 * max(1, price).
    """
    if not 0.0 < strike < math.inf:
        raise ValueError(f"strike must be positive and finite, got {strike}")
    if not math.isfinite(observed_price):
        raise ValueError(f"observed_price must be finite, got {observed_price}")
    intrinsic = max(ctx.s0 - float(_discounted_strikes(strike, ctx.r, ctx.maturity)), 0.0)
    if observed_price <= intrinsic or observed_price >= ctx.s0:
        raise ValueError(f"price {observed_price} outside no-arbitrage band "
                         f"({intrinsic:.6g}, {ctx.s0:.6g}); no implied volatility exists")
    vol = float(_implied_vols(ctx.s0, ctx.r, strike, ctx.maturity, observed_price))
    if math.isnan(vol):
        raise ValueError("implied volatility did not reach the price tolerance")
    return vol


def _discounted_strikes(strikes, r: float, maturities) -> np.ndarray:
    """Strikes times e^{-r tau} (math.exp's, as in bsm_price), broadcast against maturities."""
    return strikes * _mapped(math.exp, -r * np.asarray(maturities, dtype=float))


def _bs_cells(s0: float, r: float, k: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows tau, sqrt(tau), log(s0 / K) (math.log's) and K e^{-r tau} of the 1-d cells (k, tau)."""
    return np.stack([tau, np.sqrt(tau), _mapped(math.log, s0 / k), _discounted_strikes(k, r, tau)])


def _bs_value(vol, s0: float, r: float, cells: np.ndarray, sign=1.0):
    """Black-Scholes call (sign 1) or put (sign -1), and d1, on cells led by ``_bs_cells``'s rows.
    The call is bsm_price's expression term for term, so the two agree bit for bit."""
    tau, sqrt_t, log_m, disc_k = cells[:4]
    sq = vol * sqrt_t
    d1 = (log_m + (r + 0.5 * vol * vol) * tau) / sq
    return sign * (s0 * _ndtr(sign * d1) - disc_k * _ndtr(sign * (d1 - sq))), d1


def _implied_vols(s0, r, strikes, maturities, prices) -> np.ndarray:
    """Black-Scholes implied vols of call prices, elementwise over broadcast arrays.

    NaN where the price leaves the no-arbitrage band, where the root lies
    outside [1e-8, 20], or where the vol found misses the price tolerance.
    Iterates on the log price of the out-of-the-money option (the put
    where the call is in the money, by parity), which is close to linear in
    vol far into the wings where the call price itself is not; every cell
    starts at vol 1.
    """
    cells = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (strikes, maturities, prices)))
    shape = cells[0].shape
    k, tau, c = (a.ravel() for a in cells)
    bs = _bs_cells(s0, r, k, tau)
    intrinsic = np.maximum(s0 - bs[3], 0.0)
    sign = np.where(bs[3] < s0, -1.0, 1.0)
    vols = np.full(c.shape, math.nan)
    with np.errstate(all="ignore"):
        const = np.vstack([bs, sign, np.log(c - intrinsic)])  # _bs_cells rows, sign, log target

        def excess_and_slope(vol, const):
            """(log OTM price - log target, OTM price / vega) at vol."""
            otm, d1 = _bs_value(vol, s0, r, const, const[4])
            vega = s0 * const[1] * np.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI
            return np.log(otm) - const[5], otm / vega

        # a NaN excess is a negative OTM price from rounding: below the target
        ends = excess_and_slope(np.array([[_VOL_LO], [_VOL_HI]]), const[:, None, :])[0]
        live = np.flatnonzero((c > intrinsic) & (c < s0) & ~(ends[0] > 0.0) & (ends[1] >= 0.0))
        const = const[:, live]
        x = np.ones(live.size)
        lo_v, hi_v = np.full(live.size, _VOL_LO), np.full(live.size, _VOL_HI)
        for _ in range(_MAX_ITER):
            if live.size == 0:
                break
            excess, slope = excess_and_slope(x, const)
            above = excess > 0.0
            lo_v, hi_v = np.where(above, lo_v, x), np.where(above, x, hi_v)
            newton = excess * slope
            tol = 0.5 * (_VOL_XTOL + _VOL_RTOL * x)
            # Newton unless it leaves the bracket; a step below tolerance is
            # always taken (x sits on a bracket end once it has converged)
            take = (np.abs(newton) < tol) | ((x - newton > lo_v) & (x - newton < hi_v))
            step = np.where(take, newton, x - 0.5 * (lo_v + hi_v))
            x = x - step
            done = np.abs(step) < tol
            if done.any():
                vols[live[done]] = x[done]
                keep = ~done
                live, x, lo_v, hi_v, const = live[keep], x[keep], lo_v[keep], hi_v[keep], const[:, keep]
        call = _bs_value(vols, s0, r, bs)[0]
        vols[~(np.abs(call - c) <= _PRICE_TOL * np.maximum(1.0, c))] = math.nan
    return vols.reshape(shape)


def _interp_calls(k_grid: np.ndarray, calls: np.ndarray, k_req: np.ndarray) -> np.ndarray:
    """Monotone log-linear interpolation of call prices in log-strike.

    Requests outside the lattice raise rather than clamp: a clamped wing
    quote silently poisons anything built on top of it.
    """
    if np.any(k_req < k_grid[0]) or np.any(k_req > k_grid[-1]):
        raise ValueError(
            f"requested log-strikes outside the FFT lattice "
            f"[{k_grid[0]:.4g}, {k_grid[-1]:.4g}]; enlarge k_bar"
        )
    safe = np.maximum(calls, 1e-300)
    return np.exp(np.interp(k_req, k_grid, np.log(safe)))


def _chain(
    p: NDIGParams,
    s0: float,
    r: float,
    strikes: np.ndarray,
    maturities: np.ndarray,
    grid: FFTGridConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(calls, puts, flags) on the (maturity, strike) grid.

    One carr_madan_prices call per maturity, log-interpolated to the
    strikes; puts by parity in put_from_parity's operation order (so each
    equals its scalar result bit for bit), floored at 0.  flags marks the
    floored puts and the calls outside max(S - K e^{-r tau}, 0) <= C <= S
    by more than _BOUND_TOL * max(S, 1).
    """
    k_req = np.log(strikes)
    calls = np.empty((len(maturities), len(strikes)))
    for i, tau in enumerate(maturities):
        ctx = MarketContext(s0=s0, r=r, maturity=float(tau))
        grid_strikes, grid_calls = carr_madan_prices(p, ctx, grid)
        calls[i] = _interp_calls(np.log(grid_strikes), grid_calls, k_req)
    disc_k = _discounted_strikes(strikes, r, maturities[:, None])
    parity = calls - s0 + disc_k
    floored = parity < 0.0
    slack = _BOUND_TOL * max(s0, 1.0)
    out_of_bounds = (calls < np.maximum(s0 - disc_k, 0.0) - slack) | (calls > s0 + slack)
    return calls, np.where(floored, 0.0, parity), floored | out_of_bounds


def price_surface(
    p: NDIGParams,
    s0: float,
    r: float,
    strikes: Sequence[float],
    maturities: Sequence[float],
    grid: FFTGridConfig | None = None,
) -> OptionChain:
    """Calls via FFT (log-linearly interpolated to the requested strikes),
    puts via parity, implied vols via inversion, with per-cell bound flags.

    Implied vol is NaN on cells whose price leaves the invertible band or
    cannot be inverted within the price tolerance (those cells are flagged).
    """
    _check_spot_and_rate(s0, r)
    strikes = np.asarray(strikes, dtype=float)
    maturities = np.asarray(maturities, dtype=float)
    if not (strikes.size and np.all(np.isfinite(strikes) & (strikes > 0.0))
            and np.all(np.diff(strikes) > 0.0)):
        raise ValueError("strikes must be non-empty, finite, positive and strictly increasing")
    if not (maturities.size and np.all(np.isfinite(maturities) & (maturities > 0.0))):
        raise ValueError("maturities must be non-empty, finite and positive")
    cfg = grid if grid is not None else FFTGridConfig()
    calls, puts, flags = _chain(p, s0, r, strikes, maturities, cfg)
    vols = _implied_vols(s0, r, strikes, maturities[:, None], calls)
    return OptionChain(
        strikes=strikes,
        maturities=maturities,
        call_prices=calls,
        put_prices=puts,
        implied_vols=vols,
        moneyness=strikes / s0,
        bound_flags=(flags | np.isnan(vols)).astype(int),
    )
