"""Monte Carlo engine: inverse Gaussian sampling and doubly subordinated paths.

Every analytic quantity in the model layer is cross-checked against the
sample statistics produced here, so the sampling laws matter:

* Increments of an IG Levy process with unit mean rate over a step d follow
  IG(mean=d, shape=lambda*d^2); this is the unique law consistent with the
  IG convolution property, so increments are exact and no Euler scheme is
  needed.
* Inner-clock increments condition on the realized outer increment dU
  (composite sampling), giving the exact law of T(U(t)) increments.

Reproducibility: one master seed; paths are laid out in fixed-size blocks
of ``BLOCK`` and block ``b`` draws from ``SeedSequence(entropy=seed,
spawn_key=(b,))``.  Path ``i`` therefore depends only on the seed and its
block/offset, never on ``n_paths``, and blocks may be generated in
parallel or out of order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NDIGParams, cgf, max_damping
from .pricing import DAYS_PER_YEAR

__all__ = [
    "BLOCK",
    "PathSet",
    "SampleStats",
    "sample_ig",
    "simulate_paths",
    "mc_stats",
    "mc_option_price",
]

BLOCK = 4096


@dataclass(frozen=True)
class PathSet:
    """Simulated log-price paths: one row per path, one column per grid time."""

    times: np.ndarray
    paths: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True)
class SampleStats:
    """Sample moments of a horizon increment across paths.

    kurtosis is the standardized fourth central moment (3 for a Gaussian),
    matching the convention of ``model.moments``.  skewness/kurtosis are
    NaN for degenerate (zero-variance) samples.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    se_mean: float
    se_variance: float
    n: int


def _ig_draw(rng: np.random.Generator, mean: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Vectorized IG(mean, shape) variates, transform-with-rejection method.

    One standard normal and one uniform per variate; the candidate root of
    the transformed quadratic is accepted with probability mean/(mean+x),
    otherwise mean^2/x is returned.
    """
    nu = rng.standard_normal(mean.shape)
    y = nu * nu
    my = mean * y
    x = mean + (mean / (2.0 * shape)) * (my - np.sqrt(my * (4.0 * shape + my)))
    u = rng.random(mean.shape)
    return np.where(u <= mean / (mean + x), x, mean * mean / x)


def sample_ig(lam: float, mu: float, n: int, seed: int) -> np.ndarray:
    """n independent IG(shape=lam, mean=mu) variates; strictly positive."""
    if not (lam > 0.0 and mu > 0.0):
        raise ValueError(f"IG parameters must be positive, got lam={lam}, mu={mu}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return _ig_draw(rng, np.full(n, float(mu)), np.full(n, float(lam)))


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))


def simulate_paths(
    p: NDIGParams,
    times: np.ndarray,
    n_paths: int,
    x0: float = 0.0,
    seed: int = 0,
) -> PathSet:
    """Simulate NDIG log-price paths on a strictly increasing grid of day times.

    Per step d: dU ~ IG(mean=d, shape=lambda_u*d^2); dT | dU ~ IG(mean=dU,
    shape=lambda_t*dU^2); dX = mu3*d + rho*dT + sigma3*sqrt(dT)*Z.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("times must be a 1-d grid with at least two points")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")

    paths = np.empty((n_paths, len(times)))
    paths[:, 0] = x0
    n_blocks = (n_paths + BLOCK - 1) // BLOCK
    for b in range(n_blocks):
        rng = _block_rng(seed, b)
        lo = b * BLOCK
        hi = min(lo + BLOCK, n_paths)
        x = np.full(BLOCK, x0)
        ones = np.ones(BLOCK)
        for j, d in enumerate(steps):
            du = _ig_draw(rng, ones * d, np.full(BLOCK, p.lambda_u * d * d))
            dt = _ig_draw(rng, du, p.lambda_t * du * du)
            z = rng.standard_normal(BLOCK)
            x = x + p.mu3 * d + p.rho * dt + p.sigma3 * np.sqrt(dt) * z
            paths[lo:hi, j + 1] = x[: hi - lo]
    return PathSet(times=times, paths=paths, seed=seed)


def mc_stats(paths: PathSet, horizon: float) -> SampleStats:
    """Sample moments of X_horizon - X_0 with standard errors for mean/variance."""
    idx = np.nonzero(np.isclose(paths.times, horizon, rtol=0.0, atol=1e-12))[0]
    if len(idx) == 0:
        raise ValueError(f"horizon {horizon} is not on the simulation time grid")
    x = paths.paths[:, idx[0]] - paths.paths[:, 0]
    n = len(x)
    mean = float(x.mean())
    c = x - mean
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        return SampleStats(mean, 0.0, math.nan, math.nan, 0.0, 0.0, n)
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    var = m2 * n / (n - 1) if n > 1 else 0.0
    return SampleStats(
        mean=mean,
        variance=var,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
        se_mean=math.sqrt(m2 / n),
        se_variance=math.sqrt(max(m4 - m2 * m2, 0.0) / n),
        n=n,
    )


def mc_option_price(
    p: NDIGParams,
    r: float,
    s0: float,
    strike: float,
    maturity: float,
    n_paths: int,
    seed: int = 0,
) -> tuple[float, float]:
    """European call by Monte Carlo under the mean-correcting martingale measure.

    S_t^Q = s0 * exp((r_d - cgf(1)) * t + X_t) with t = 365 * maturity days
    and r_d the per-day rate; a single exact step to maturity (Levy
    increments carry no discretization bias).  Returns (price, stderr).
    """
    max_damping(p)  # raises when the mean correction cgf(1) does not exist
    t_days = DAYS_PER_YEAR * maturity
    r_day = r / DAYS_PER_YEAR
    k1 = cgf(1.0, p)
    ps = simulate_paths(p, np.array([0.0, t_days]), n_paths, x0=0.0, seed=seed)
    s_t = s0 * np.exp((r_day - k1) * t_days + ps.paths[:, 1])
    payoff = np.maximum(s_t - strike, 0.0)
    disc = math.exp(-r_day * t_days)
    price = disc * float(payoff.mean())
    stderr = disc * float(payoff.std(ddof=1)) / math.sqrt(n_paths)
    return price, stderr
