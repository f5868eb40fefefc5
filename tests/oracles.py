"""Independent oracles for the test suite.

Everything here is written from the defining formulas, not by calling the
package under test: arbitrary-precision cgf/chf and cumulants (mpmath),
the cgf domain as the intersection of two quadratic root intervals,
fourth-order finite-difference cumulants, a slow adaptive-quadrature call
pricer, a closed-form Black-Scholes chain builder and a bracketing
implied-vol inversion.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.stats import norm

mp.mp.dps = 40

DAYS_PER_YEAR = 365.0


# ---------------------------------------------------------------------------
# arbitrary-precision model functions
# ---------------------------------------------------------------------------

def mp_cgf(w, p):
    """cgf of the daily increment, mpmath precision."""
    w = mp.mpf(w)
    h = 1 - 2 * mp.mpf(p.rho) * w / p.lambda_t - mp.mpf(p.sigma3) ** 2 * w**2 / p.lambda_t
    g = 1 - 2 * (mp.mpf(p.lambda_t) / p.lambda_u) * (1 - mp.sqrt(h))
    return mp.mpf(p.mu3) * w + p.lambda_u * (1 - mp.sqrt(g))


def mp_chf(v, p):
    """chf of the daily increment, mpmath precision."""
    v = mp.mpc(v)
    h = 1 - (2j * v * p.rho - mp.mpf(p.sigma3) ** 2 * v**2) / p.lambda_t
    g = 1 - 2 * (mp.mpf(p.lambda_t) / p.lambda_u) * (1 - mp.sqrt(h))
    return mp.exp(1j * v * p.mu3 + p.lambda_u * (1 - mp.sqrt(g)))


def mp_cumulants(p) -> tuple[float, float, float, float]:
    """Cumulants by high-precision differentiation of the cgf at 0."""
    f = lambda w: mp_cgf(w, p)
    return tuple(float(mp.diff(f, 0, n)) for n in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# cgf domain as the intersection of two root intervals
# ---------------------------------------------------------------------------

def two_root_interval(p) -> tuple[float, float]:
    """Intersection of the root intervals of sigma3^2 w^2 + 2 rho w <= c for
    the sufficient outer-radicand condition (c = lambda_u / 2) and the inner
    radicand h(w) >= 0 (c = lambda_t), each by the quadratic formula."""
    s2 = p.sigma3**2
    discs = [math.sqrt(p.rho * p.rho + s2 * c) for c in (p.lambda_u / 2.0, p.lambda_t)]
    return max((-p.rho - d) / s2 for d in discs), min((-p.rho + d) / s2 for d in discs)


# ---------------------------------------------------------------------------
# fourth-order central finite differences (float arithmetic, tuned step)
# ---------------------------------------------------------------------------

# stencils: (offsets, coefficients, h-power)
_FD_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0), 6.0),
}


def fd_derivative(f, order: int, h: float) -> float:
    offsets, coeffs, denom = _FD_STENCILS[order]
    total = sum(c * f(o * h) for o, c in zip(offsets, coeffs))
    return total / (denom * h**order)


def fd_cumulants(cgf, half_width: float) -> tuple[float, float, float, float]:
    """Cumulants of the daily increment by 4th-order central differences.

    ``half_width`` is the distance from 0 to the nearest feasible-interval
    endpoint; the step stays well inside it because the cgf derivatives
    blow up toward the domain edge.
    """
    h = min(0.1, 0.02 * half_width)
    return tuple(fd_derivative(cgf, n, h) for n in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# slow adaptive-quadrature call pricer (oscillatory-weighted)
# ---------------------------------------------------------------------------

def _rn_log_chf_np(u, p, s0, r, tau):
    u = np.asarray(u, dtype=complex)
    h = 1.0 - (2j * u * p.rho - p.sigma3**2 * u * u) / p.lambda_t
    g = 1.0 - 2.0 * (p.lambda_t / p.lambda_u) * (1.0 - np.sqrt(h))
    psi = 1j * u * p.mu3 + p.lambda_u * (1.0 - np.sqrt(g))

    h1 = 1.0 - (2.0 * p.rho + p.sigma3**2) / p.lambda_t
    g1 = 1.0 - 2.0 * (p.lambda_t / p.lambda_u) * (1.0 - math.sqrt(h1))
    k1 = p.mu3 + p.lambda_u * (1.0 - math.sqrt(g1))

    t = DAYS_PER_YEAR * tau
    return 1j * u * np.log(s0) + t * (1j * u * (r / DAYS_PER_YEAR - k1) + psi)


def quad_call_price(p, s0, r, tau, strike, a, v_max=4000.0) -> float:
    """Damped-transform call price by adaptive quadrature with cos/sin weights.

    Same integrand as the FFT route, evaluated without any lattice:
    exp(-r*tau - a*k)/pi * Re int_0^inf exp(-ivk) phi(v - i(a+1)) /
    ((a+iv)(a+1+iv)) dv.
    """
    k = math.log(strike)

    def hfun(v):
        u = np.asarray(v) - 1j * (a + 1.0)
        denom = a * a + a - np.asarray(v) ** 2 + 1j * (2.0 * a + 1.0) * np.asarray(v)
        return np.exp(_rn_log_chf_np(u, p, s0, r, tau)) / denom

    total = 0.0
    lo = 0.0
    with warnings.catch_warnings():
        # the oscillatory-weighted quadrature reports roundoff saturation at
        # these tolerances; the achieved accuracy still beats the FFT by
        # orders of magnitude
        warnings.simplefilter("ignore", IntegrationWarning)
        for hi in (50.0, 500.0, v_max):
            total += quad(lambda v: float(hfun(v).real), lo, hi, weight="cos", wvar=k,
                          limit=3000, epsabs=1e-13, epsrel=1e-12)[0]
            total += quad(lambda v: float(hfun(v).imag), lo, hi, weight="sin", wvar=k,
                          limit=3000, epsabs=1e-13, epsrel=1e-12)[0]
            lo = hi
    return math.exp(-r * tau - a * k) / math.pi * total


# ---------------------------------------------------------------------------
# Black-Scholes closed forms (test-side reference, written independently)
# ---------------------------------------------------------------------------

def bs_call(s, k, r, tau, vol) -> float:
    sq = vol * math.sqrt(tau)
    d1 = (math.log(s / k) + (r + 0.5 * vol * vol) * tau) / sq
    d2 = d1 - sq
    return s * norm.cdf(d1) - k * math.exp(-r * tau) * norm.cdf(d2)


def bs_put(s, k, r, tau, vol) -> float:
    return bs_call(s, k, r, tau, vol) - s + k * math.exp(-r * tau)


def flat_bsm_chain(s, r, tau, vol, strikes):
    """(calls, puts) arrays for a constant-volatility chain."""
    calls = np.array([bs_call(s, k, r, tau, vol) for k in strikes])
    puts = np.array([bs_put(s, k, r, tau, vol) for k in strikes])
    return calls, puts


def brentq_implied_vol(s, k, r, tau, price, lo=1e-8, hi=20.0):
    """Black-Scholes implied vol by Brent's method on bs_call, or None.

    None when the price leaves the band (max(s - k e^{-r tau}, 0), s), when
    [lo, hi] does not bracket the root, or when the root misses the price
    by more than 1e-10 * max(1, price).
    """
    intrinsic = max(s - k * math.exp(-r * tau), 0.0)
    if not intrinsic < price < s:
        return None
    f = lambda vol: bs_call(s, k, r, tau, vol) - price
    if f(lo) > 0.0 or f(hi) < 0.0:
        return None
    vol = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    if abs(f(vol)) > 1e-10 * max(1.0, price):
        return None
    return vol
