"""Analytic layer of the NDIG (normal double inverse Gaussian) log-price model.

The daily log-price increment is

    X_1 = mu3 + gamma * U(1) + rho * T(U(1)) + sigma3 * B_{T(U(1))}

where U and T are inverse-Gaussian Levy subordinators with unit mean rates
(mu_U = mu_T = 1, an identifiability normalization) and shapes lambda_u,
lambda_t, and B is an independent standard Brownian motion.  This module
provides the cumulant generating function, characteristic function, the
first four moments, the real-domain (feasibility) interval of the cgf, and
the largest usable Carr-Madan damping factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NDIGParams",
    "FeasibleInterval",
    "MomentSet",
    "cgf",
    "chf",
    "chf_exponent",
    "cumulants",
    "moments",
    "feasible_interval",
    "max_damping",
]

ComplexLike = Union[complex, np.ndarray]


@dataclass(frozen=True)
class NDIGParams:
    """The six identifiable model parameters plus the two fixed subordinator means.

    mu3      -- drift per day
    sigma3   -- Brownian scale per sqrt(intrinsic day), > 0
    rho      -- loading on the doubly subordinated clock T(U(t))
    lambda_t -- IG shape of the inner subordinator T, > 0
    lambda_u -- IG shape of the outer subordinator U, > 0
    gamma    -- loading on U(t); 0 in the estimated model
    mu_t, mu_u -- subordinator means, pinned to 1 (constructors reject
                  anything else; freeing them would make gamma and rho
                  unidentifiable)
    """

    mu3: float
    sigma3: float
    rho: float
    lambda_t: float
    lambda_u: float
    gamma: float = 0.0
    mu_t: float = 1.0
    mu_u: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma3 > 0.0:
            raise ValueError(f"sigma3 must be positive, got {self.sigma3}")
        if not self.lambda_t > 0.0:
            raise ValueError(f"lambda_t must be positive, got {self.lambda_t}")
        if not self.lambda_u > 0.0:
            raise ValueError(f"lambda_u must be positive, got {self.lambda_u}")
        if self.mu_t != 1.0 or self.mu_u != 1.0:
            raise ValueError("mu_t and mu_u are fixed to 1 (identifiability normalization)")


@dataclass(frozen=True)
class FeasibleInterval:
    """Real interval of cgf arguments on which the model guarantees both
    nested radicals real.

    w = 0 is always interior (both radicands equal 1 there).  The interval
    is the quadratic-root domain used by the damping bound; it is slightly
    conservative (the outer radicand only fails somewhat beyond w_hi), and
    every operation in this package treats it as the cgf domain.
    """

    w_lo: float
    w_hi: float

    def contains(self, w: float) -> bool:
        return self.w_lo <= w <= self.w_hi


@dataclass(frozen=True)
class MomentSet:
    """First four moments of the unit-time (daily) increment X_1.

    skewness is the standardized third central moment and kurtosis the
    standardized fourth central moment (3 for a Gaussian), so both are
    directly comparable with sample statistics of daily returns.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float


def _h(w: float, p: NDIGParams) -> float:
    """Inner radicand: 1 - 2*rho*w/lambda_t - sigma3^2 w^2 / lambda_t."""
    return 1.0 - (2.0 * p.rho * w + p.sigma3**2 * w * w) / p.lambda_t


def _g(w: float, p: NDIGParams, h: float) -> float:
    """Outer radicand given the inner one."""
    return 1.0 - 2.0 * (p.lambda_t / p.lambda_u) * (1.0 - math.sqrt(h)) - 2.0 * p.gamma * w / p.lambda_u


def cgf(w: float, p: NDIGParams) -> float:
    """Cumulant generating function of X_1 at real argument w.

    K(w) = mu3*w + lambda_u * (1 - sqrt(g(w))) with the nested radicands
    h(w) and g(w); K over horizon t is t * K(w).  The domain enforced here
    is ``feasible_interval``; raises ValueError outside it.
    """
    iv = feasible_interval(p)
    if not iv.contains(w):
        raise ValueError(
            f"cgf argument w={w} outside the feasible interval "
            f"[{iv.w_lo:.6g}, {iv.w_hi:.6g}] (radicand constraint)"
        )
    h = max(_h(w, p), 0.0)
    g = max(_g(w, p, h), 0.0)
    return p.mu3 * w + p.lambda_u * (1.0 - math.sqrt(g))


def chf_exponent(u: ComplexLike, p: NDIGParams) -> ComplexLike:
    """Characteristic exponent psi(u) = log E[exp(i*u*X_1)], complex-safe.

    Accepts scalars or numpy arrays.  For u = v - i*b with damping b such
    that w = 1 + b stays inside the feasible interval, both nested
    radicands keep a positive real part for every real v, so the principal
    square root never crosses a branch cut.
    """
    u = np.asarray(u, dtype=complex)
    # scalar factors are combined before they meet the array, and the gamma
    # term is skipped at gamma = 0: fewer array passes, the same result in
    # every element (the reordered factors 2j and 1j scale exactly)
    h = 1.0 - ((2j * p.rho) * u - p.sigma3**2 * u * u) / p.lambda_t
    g = 1.0 - 2.0 * (p.lambda_t / p.lambda_u) * (1.0 - np.sqrt(h))
    if p.gamma:
        g = g - 2j * u * p.gamma / p.lambda_u
    out = (1j * p.mu3) * u + p.lambda_u * (1.0 - np.sqrt(g))
    return out if out.shape else complex(out)


def chf(v: ComplexLike, p: NDIGParams) -> ComplexLike:
    """Characteristic function of X_1; phi over horizon t is chf(v)**t."""
    return np.exp(chf_exponent(v, p))


def cumulants(p: NDIGParams) -> tuple[float, float, float, float]:
    """First four cumulants of X_1, from the nested-cgf chain rule.

    Derived by differentiating K(w) = mu3*w + phi_U(gamma*w + phi_T(rho*w
    + sigma3^2 w^2 / 2)) at 0, where phi_T, phi_U are the IG Laplace
    exponents with unit mean; validated against arbitrary-precision
    differentiation of the cgf.
    """
    s = p.gamma + p.rho
    sig = p.rho**2 / p.lambda_t + p.sigma3**2
    lt, lu = p.lambda_t, p.lambda_u
    rho, s3sq = p.rho, p.sigma3**2

    k1 = p.mu3 + s
    k2 = sig + s * s / lu
    # third/fourth derivatives of the inner composition at 0
    inner3 = 3.0 * rho**3 / lt**2 + 3.0 * rho * s3sq / lt
    inner4 = 15.0 * rho**4 / lt**3 + 18.0 * rho**2 * s3sq / lt**2 + 3.0 * s3sq**2 / lt
    k3 = 3.0 * s**3 / lu**2 + 3.0 * s * sig / lu + inner3
    k4 = (
        15.0 * s**4 / lu**3
        + 18.0 * sig * s**2 / lu**2
        + 3.0 * sig**2 / lu
        + 4.0 * s * inner3 / lu
        + inner4
    )
    return k1, k2, k3, k4


def moments(p: NDIGParams) -> MomentSet:
    """Mean, variance, skewness and kurtosis of X_1 (daily units)."""
    k1, k2, k3, k4 = cumulants(p)
    return MomentSet(
        mean=k1,
        variance=k2,
        skewness=k3 / k2**1.5,
        kurtosis=k4 / k2**2 + 3.0,
    )


def _root_interval(half_b: float, neg_c: float, sigma3_sq: float) -> tuple[float, float]:
    """Roots of sigma3^2 w^2 + 2*half_b*w - neg_c = 0 (neg_c > 0)."""
    disc = math.sqrt(half_b * half_b + sigma3_sq * neg_c)
    return (-half_b - disc) / sigma3_sq, (-half_b + disc) / sigma3_sq


def feasible_interval(p: NDIGParams) -> FeasibleInterval:
    """Guaranteed-real domain of the cgf (gamma = 0 constraint algebra).

    Intersection of the outer-radical sufficient condition sigma3^2 w^2 +
    2 rho w - lambda_u/2 <= 0 with the inner-radical condition h(w) >= 0,
    both solved by the quadratic formula.  The outer condition binds
    whenever lambda_u / 2 <= lambda_t.
    """
    g_lo, g_hi = _root_interval(p.rho, p.lambda_u / 2.0, p.sigma3**2)
    h_lo, h_hi = _root_interval(p.rho, p.lambda_t, p.sigma3**2)
    return FeasibleInterval(w_lo=max(g_lo, h_lo), w_hi=min(g_hi, h_hi))


def max_damping(p: NDIGParams) -> float:
    """Largest Carr-Madan damping a such that w = 1 + a stays feasible.

    Raises ValueError when the feasible interval excludes w = 1, in which
    case exp-moment pricing is undefined for these parameters.
    """
    w_hi = feasible_interval(p).w_hi
    if w_hi <= 1.0:
        raise ValueError(
            f"pricing infeasible: cgf domain upper endpoint {w_hi:.6g} <= 1, "
            "so the mean correction cgf(1) does not exist"
        )
    return w_hi - 1.0
