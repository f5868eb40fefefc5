"""Seeded benchmark inputs, drawn with numpy only.

Every workload builds its inputs here from the ``--seed`` it is given; the
same seed gives the same inputs.  NDIG increments come from
``Generator.wald`` (both inverse-Gaussian clocks) and
``Generator.standard_normal``.  ``ndigvol.simulate`` is never used, so a
change to the simulator cannot change what the other workloads are fed.

``HELD_OUT_SEED`` is not used while the benchmark or a change is being
tuned.  A change that claims a gain must also show it on this seed.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np

HELD_OUT_SEED = 90210

# Daily BTC reference fit used by the README and the acceptance suite.
BTC_REFERENCE = {
    "mu3": 0.004, "sigma3": 0.0551, "rho": -0.0008,
    "lambda_t": 9.9293, "lambda_u": 0.145,
}
# Brownian-scale regimes of the acceptance test C9, in order.
REGIME_SIGMA3 = (0.03, 0.06, 0.04, 0.08)
FIRST_DAY = date(2016, 1, 1)
START_CLOSE = 1000.0


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per input stream of one workload seed."""
    return np.random.default_rng([*stream, seed])


def ndig_increments(rng: np.random.Generator, n: int, mu3: float, sigma3: float,
                    rho: float, lambda_t: float, lambda_u: float) -> np.ndarray:
    """n daily NDIG increments with gamma = 0 and unit subordinator means.

    dU ~ IG(1, lambda_u); dT | dU ~ IG(dU, lambda_t dU^2);
    dX = mu3 + rho dT + sigma3 sqrt(dT) Z.
    """
    du = rng.wald(1.0, lambda_u, n)
    dt = rng.wald(du, lambda_t * du * du)
    z = rng.standard_normal(n)
    return mu3 + rho * dt + sigma3 * np.sqrt(dt) * z


def days(n: int) -> tuple[date, ...]:
    return tuple(FIRST_DAY + timedelta(days=i) for i in range(n))


def closes_from_increments(x: np.ndarray) -> np.ndarray:
    return START_CLOSE * np.exp(np.concatenate(([0.0], np.cumsum(x))))


# Largest one-day log move a pipeline input may hold.  With lambda_u = 0.145
# the U clock is so heavy-tailed that about 2% of 1028-day series hold a day
# beyond this (a move of more than 2.7x).  Windows that hold such a day fit
# tails too heavy for the pipeline's default damping 0.4 (the cgf domain ends
# below w = 1.4), and ndigvol reports them as BVIX gaps: its documented
# answer to a damping outside the model's domain.  Of the 47 series with the
# largest moves among 5,100 draws, only those with a move of 1.2 or more
# gave gaps; the 40 most kurtotic of 3,600 draws within the cap gave none.
MAX_DAILY_MOVE = 1.0


def regime_closes(seed: int, variant: int, n_closes: int) -> np.ndarray:
    """Close series whose sigma3 steps through the C9 regimes in four equal parts.

    Each ``variant`` is an independent series, so a run that cycles through
    several variants averages over independent draws of the fitting work.
    A draw with a one-day move beyond ``MAX_DAILY_MOVE`` is replaced by the
    next draw of the same stream.
    """
    rng = rng_for(seed, 1, variant)
    n = n_closes - 1
    edges = np.linspace(0, n, len(REGIME_SIGMA3) + 1).astype(int)
    ref = dict(BTC_REFERENCE)
    while True:
        parts = []
        for sigma3, lo, hi in zip(REGIME_SIGMA3, edges[:-1], edges[1:]):
            ref["sigma3"] = sigma3
            parts.append(ndig_increments(rng, hi - lo, **ref))
        x = np.concatenate(parts)
        if np.abs(x).max() <= MAX_DAILY_MOVE:
            return closes_from_increments(x)


def _squash(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map standard normals smoothly into the factor range [lo, hi]."""
    return lo * (hi / lo) ** ((1.0 + np.tanh(z)) / 2.0)


def surface_parameter_batch(seed: int, n_sets: int) -> list[dict[str, float]]:
    """Parameter sets near the BTC reference, all priceable on the CLI grid.

    sigma3 stays within [0.85, 1.4] x reference: below about 0.75 x the
    default 1024-point grid flags far-wing cells of the 7-day expiry (the
    grid error ROADMAP item 4 targets, which bvix-replay measures).
    """
    z = rng_for(seed, 2).standard_normal((n_sets, 4))
    ref = BTC_REFERENCE
    sig = _squash(z[:, 0], 0.85, 1.4)
    lam_t = _squash(z[:, 1], 0.7, 1.4)
    lam_u = _squash(z[:, 2], 0.7, 1.4)
    rho = _squash(z[:, 3], 0.5, 1.5)
    return [
        {"mu3": ref["mu3"], "sigma3": ref["sigma3"] * sig[i], "rho": ref["rho"] * rho[i],
         "lambda_t": ref["lambda_t"] * lam_t[i], "lambda_u": ref["lambda_u"] * lam_u[i]}
        for i in range(n_sets)
    ]


def _smooth_noise(rng: np.random.Generator, n: int, scale: float, phi: float = 0.98) -> np.ndarray:
    """Stationary AR(1) path with marginal standard deviation ``scale``."""
    e = rng.standard_normal(n) * scale * math.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    out[0] = rng.standard_normal() * scale
    for i in range(1, n):
        out[i] = phi * out[i - 1] + e[i]
    return out


# sigma3 range that takes the default-grid BVIX from about 40% to 130%
BVIX_SIGMA3_RANGE = (0.0205, 0.072)


def bvix_parameter_path(seed: int, n_windows: int, variant: int = 0) -> list[dict[str, float]]:
    """Per-window parameters as a rolling fit would report them.

    log sigma3 sweeps from the low end of ``BVIX_SIGMA3_RANGE`` to the high
    end and back, so every seed and ``variant`` spans the same BVIX range;
    the other parameters wander smoothly around the BTC reference.
    """
    rng = rng_for(seed, 3, variant)
    lo, hi = (math.log(s) for s in BVIX_SIGMA3_RANGE)
    tri = 1.0 - np.abs(np.linspace(-1.0, 1.0, n_windows))
    log_sig = lo + (hi - lo) * tri
    wiggle = np.exp(_smooth_noise(rng, n_windows, 0.03))
    ref = BTC_REFERENCE
    lam_t = ref["lambda_t"] * np.exp(_smooth_noise(rng, n_windows, 0.15))
    lam_u = ref["lambda_u"] * np.exp(_smooth_noise(rng, n_windows, 0.15))
    rho = ref["rho"] * (1.0 + _smooth_noise(rng, n_windows, 0.3))
    mu3 = ref["mu3"] * (1.0 + _smooth_noise(rng, n_windows, 0.3))
    sig = np.clip(np.exp(log_sig) * wiggle, *BVIX_SIGMA3_RANGE)
    return [
        {"mu3": float(mu3[i]), "sigma3": float(sig[i]), "rho": float(rho[i]),
         "lambda_t": float(lam_t[i]), "lambda_u": float(lam_u[i])}
        for i in range(n_windows)
    ]


def reference_closes(seed: int, n_closes: int) -> np.ndarray:
    """Close series at the BTC reference parameters."""
    return closes_from_increments(ndig_increments(rng_for(seed, 4), n_closes - 1, **BTC_REFERENCE))


def simulate_seeds(seed: int, n: int) -> list[int]:
    """Seeds handed to ``ndigvol simulate``, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([5, seed]).generate_state(n)]
