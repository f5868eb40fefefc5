"""Parameter estimation from daily log-returns.

The objective combines four relative moment deviations with an empirical
characteristic-function distance:

    obj = dM1^2 + dM2^2 + dM3^2 + dM4^2 + dCF^2,   dMk = 1 - model_k / sample_k,

where dCF^2 is a Gaussian-weighted quadrature of |ecf(v) - chf(v)|^2.  The
weight exp(-v^2) tames the noise-dominated large-|v| region of the ecf,
following the weighted-distance approach of the ecf estimation literature.
The integrand is even in v (ecf and chf are both Hermitian), so the
symmetric trapezoid grid is folded onto its v >= 0 half and the nodes of
negligible weight are dropped: the default 101-node grid is evaluated on 16
nodes (see ``CfQuadrature.folded_nodes_and_weights``).  Both model and
sample moments are read at the unit (daily) horizon.

gamma is held at 0 and the subordinator means at 1 throughout.  For a given
lambda_t the four moment equations fix the other four parameters (mu3 and
sigma3 in closed form, rho and lambda_u by a 2x2 Newton), so the moment
terms vanish and the fit is a one-dimensional profile of the objective over
lambda_t (variable projection, Golub & Pereyra 2003): a fixed scan, then a
bounded Brent search around the best scan point.  Matched points whose cgf
domain excludes w = 1 (which would make the fitted model unpriceable) carry
``FEASIBILITY_PENALTY``.  A sample no NDIG law can match gets the Gaussian
limit, flagged ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.optimize import minimize_scalar

from .model import MomentSet, NDIGParams, chf, cumulants

__all__ = [
    "ReturnSeries",
    "CfQuadrature",
    "FitResult",
    "RollingFitSeries",
    "empirical_moments",
    "empirical_chf",
    "objective",
    "fit",
    "rolling_fit",
]

FEASIBILITY_PENALTY = 1.0e6
# profile value where the moments cannot be matched: above any penalized point
UNMATCHED = 2.0 * FEASIBILITY_PENALTY
# largest lambda_t (and lambda_u) the profile reaches; the Gaussian limit's lambdas
LAMBDA_CAP = 1e6
# points of the profile scan, evenly spaced in z = logit(b / b_edge)
N_SCAN = 24
# Newton steps allowed for the moment match at one lambda_t
MAX_NEWTON = 30
# ecf node pairs whose grid weight is below this share of the largest are dropped
NODE_WEIGHT_FLOOR = 1e-16
# fewest returns fit accepts
MIN_LENGTH = 100


@dataclass(frozen=True)
class ReturnSeries:
    """Dated daily log-returns r_t = ln(P_t / P_{t-1})."""

    dates: tuple[date, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", r)
        if len(self.dates) != len(r):
            raise ValueError("dates and returns must have the same length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(r)):
            raise ValueError("returns contain non-finite values")

    def __len__(self) -> int:
        return len(self.returns)

    def window(self, start: int, length: int) -> "ReturnSeries":
        return ReturnSeries(
            dates=self.dates[start : start + length],
            returns=self.returns[start : start + length],
        )


@dataclass(frozen=True)
class CfQuadrature:
    """Trapezoid grid and weight for the ecf-distance term.

    The infinite integral is truncated to [-v_max, v_max] and weighted by
    exp(-v^2); by +-5 the weight is below 1e-10, so the default span is
    conservative.
    """

    v_max: float = 20.0
    n_nodes: int = 101

    def __post_init__(self) -> None:
        # the fold pairs node k with node n_nodes - 1 - k on an ascending grid
        if not self.v_max > 0.0:
            raise ValueError(f"cf_v_max must be positive, got {self.v_max}")
        if self.n_nodes < 2:
            raise ValueError(f"cf_nodes must be at least 2, got {self.n_nodes}")

    def nodes_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        v = np.linspace(-self.v_max, self.v_max, self.n_nodes)
        dv = np.full(self.n_nodes, v[1] - v[0])
        dv[0] *= 0.5
        dv[-1] *= 0.5
        return v, dv * np.exp(-v * v)

    def folded_nodes_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid folded onto v >= 0 and pruned, for integrands even in v.

        Node k mirrors node n_nodes - 1 - k by construction, so the fold is
        by index rather than by float equality of the nodes: each v > 0 node
        carries its own weight and its mirror's (twice its weight), and the
        v = 0 node of an odd grid keeps its single weight.  Node pairs whose
        grid weight is below ``NODE_WEIGHT_FLOOR`` times the largest grid
        weight are dropped.  Since |ecf - chf| <= 2, folding and pruning
        change dCF^2 by at most 4 * sum(dropped grid weights) in absolute
        terms, beyond rounding.
        """
        v, w = self.nodes_and_weights()
        half = self.n_nodes // 2
        v_half, w_half = v[half:], w[half:]
        folded = 2.0 * w_half
        if self.n_nodes % 2:
            folded[0] = w_half[0]
        keep = w_half >= NODE_WEIGHT_FLOOR * w.max()
        return v_half[keep], folded[keep]


@dataclass(frozen=True)
class FitResult:
    """Best parameters with the objective value and its five squared terms
    (dM1^2, dM2^2, dM3^2, dM4^2, dCF^2)."""

    params: NDIGParams
    objective_value: float
    term_breakdown: tuple[float, float, float, float, float]
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class RollingFitSeries:
    window_end_dates: tuple[date, ...]
    results: tuple[FitResult, ...]
    window_length: int


def empirical_moments(series: ReturnSeries) -> MomentSet:
    """Sample mean, unbiased variance, standardized skewness and kurtosis.

    Raises on series shorter than 4 observations or with zero variance
    (degenerate: the moment-ratio objective would divide by zero).
    """
    r = series.returns
    n = len(r)
    if n < 4:
        raise ValueError(f"need at least 4 returns, got {n}")
    mean = float(r.mean())
    c = r - mean
    m2 = float(np.mean(c * c))
    if m2 <= (1e-13 * max(1.0, abs(mean))) ** 2:
        raise ValueError("degenerate return series: zero variance")
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    return MomentSet(
        mean=mean,
        variance=m2 * n / (n - 1),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
    )


def empirical_chf(series: ReturnSeries, v) -> complex | np.ndarray:
    """Sample average of exp(i * v * r_j); vectorized over v."""
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty(len(v_arr), dtype=complex)
    r = series.returns
    for i, vi in enumerate(v_arr):
        out[i] = np.exp(1j * vi * r).mean()
    return out if np.ndim(v) else complex(out[0])


def _excludes_w1(p: NDIGParams) -> bool:
    """Whether ``feasible_interval(p).w_hi <= 1`` (gamma = 0), in closed form.

    Each bounding quadratic sigma3^2 w^2 + 2 rho w - c (c = lambda_u / 2 or
    lambda_t) is negative at w = 0, so its upper root is at most 1 exactly
    when the quadratic is non-negative at w = 1.
    """
    return p.sigma3**2 + 2.0 * p.rho >= min(p.lambda_t, p.lambda_u / 2.0)


def _k34(r: float, a: float, b: float) -> tuple[float, float, tuple[float, ...]]:
    """The model's standardized third and fourth cumulants, and their Jacobian in (r, a).

    In units of the variance, with r = rho / sqrt(variance), a = 1/lambda_u
    and b = 1/lambda_t (gamma = 0):

        k3 = 3r[(a + b) - r^2 ab],
        k4 = 15r^4a^3 + 18r^2a^2S + 12r^2b(a + b)S + 3(a + b)S^2,  S = 1 - r^2 a.
    """
    rr, ab = r * r, a + b
    s = 1.0 - rr * a
    k3 = 3.0 * r * (ab - rr * a * b)
    k4 = (15.0 * rr * rr * a * a * a + 18.0 * rr * a * a * s
          + 12.0 * rr * b * ab * s + 3.0 * ab * s * s)
    # d/dS of k4, for the chain rule with dS/dr = -2ra and dS/da = -r^2
    k4_s = 18.0 * rr * a * a + 12.0 * rr * b * ab + 6.0 * ab * s
    jacobian = (
        3.0 * ab - 9.0 * rr * a * b,
        3.0 * r * (1.0 - rr * b),
        (60.0 * rr * r * a * a * a + 36.0 * r * a * a * s + 24.0 * r * b * ab * s
         - 2.0 * r * a * k4_s),
        (45.0 * rr * rr * a * a + 36.0 * rr * a * s + 12.0 * rr * b * s + 3.0 * s * s
         - rr * k4_s),
    )
    return k3, k4, jacobian


def _match_moments(b: float, b_edge: float, skew: float,
                   excess: float) -> tuple[float, float] | None:
    """(r, a) of ``_k34`` that give standardized skewness ``skew`` and excess kurtosis ``excess``.

    Newton starts at r = skew / (3 b_edge), a = b_edge - b, the exact root at
    both ends of the profile (a = 0 and b = 0 are NIG laws) and for zero skew.
    Returns None unless it settles within ``MAX_NEWTON`` steps at a > 0 with a
    positive Brownian share 1 - r^2 (a + b).
    """
    r, a = skew / (3.0 * b_edge), b_edge - b
    for _ in range(MAX_NEWTON):
        k3, k4, (j11, j12, j21, j22) = _k34(r, a, b)
        f1, f2 = k3 - skew, k4 - excess
        det = j11 * j22 - j12 * j21
        if not det:
            return None
        dr = (f1 * j22 - f2 * j12) / det
        da = (j11 * f2 - j21 * f1) / det
        r, a = r - dr, a - da
        if abs(dr) <= 1e-12 * abs(r) and abs(da) <= 1e-12 * (a + b):
            return (r, a) if a > 0.0 and r * r * (a + b) < 1.0 else None
    return None


class _PreparedObjective:
    """Per-series precomputation shared across objective evaluations.

    ``terms`` reads the sample moments ``emp`` and the ecf ``ecf`` at the
    folded nodes ``v`` with weights ``weights``; it builds no intermediate
    moment or interval objects.
    """

    def __init__(self, series: ReturnSeries, quadrature: CfQuadrature):
        self.emp = empirical_moments(series)
        for name in ("mean", "variance", "skewness", "kurtosis"):
            if getattr(self.emp, name) == 0.0:
                raise ValueError(f"degenerate return series: zero sample {name}")
        self.v, self.weights = quadrature.folded_nodes_and_weights()
        self.ecf = np.asarray(empirical_chf(series, self.v))

    @property
    def b_edge(self) -> float:
        """Largest matchable b = 1/lambda_t: at a = 0 ``_k34`` gives k3 = 3rb
        and k4 = 12 r^2 b^2 + 3b, so matching both needs k4 = 4 skew^2 / 3 + 3b."""
        return (self.emp.kurtosis - 3.0 - 4.0 * self.emp.skewness**2 / 3.0) / 3.0

    def terms(self, p: NDIGParams) -> tuple[float, float, float, float, float]:
        # the standardization is that of model.moments, term for term
        k1, k2, k3, k4 = cumulants(p)
        emp = self.emp
        dm1 = 1.0 - k1 / emp.mean
        dm2 = 1.0 - k2 / emp.variance
        dm3 = 1.0 - k3 / k2**1.5 / emp.skewness
        dm4 = 1.0 - (k4 / k2**2 + 3.0) / emp.kurtosis
        diff = self.ecf - chf(self.v, p)
        dcf2 = float(np.dot(self.weights, diff.real**2 + diff.imag**2))
        return dm1 * dm1, dm2 * dm2, dm3 * dm3, dm4 * dm4, dcf2

    def value(self, p: NDIGParams) -> float:
        val = sum(self.terms(p))
        if _excludes_w1(p):
            val += FEASIBILITY_PENALTY
        return val

    def matched(self, z: float) -> NDIGParams | None:
        """The moment-matched parameters at b = b_edge / (1 + exp(-z)), or None."""
        b_edge = self.b_edge
        b = b_edge / (1.0 + math.exp(-z))
        root = _match_moments(b, b_edge, self.emp.skewness, self.emp.kurtosis - 3.0)
        if root is None:
            return None
        r, a = root
        var = self.emp.variance
        rho = r * math.sqrt(var)
        return NDIGParams(
            mu3=self.emp.mean - rho,
            sigma3=math.sqrt(var * (1.0 - r * r * (a + b))),
            rho=rho,
            lambda_t=1.0 / b,
            lambda_u=1.0 / a,
        )


def objective(
    p: NDIGParams, series: ReturnSeries, quadrature: CfQuadrature | None = None
) -> FitResult:
    """Evaluate the five-term objective at fixed parameters (no optimization)."""
    prep = _PreparedObjective(series, quadrature or CfQuadrature())
    terms = prep.terms(p)
    return FitResult(
        params=p,
        objective_value=float(sum(terms)),
        term_breakdown=terms,
        converged=True,
        evaluations=1,
    )


def fit(series: ReturnSeries, quadrature: CfQuadrature | None = None) -> FitResult:
    """Fit (mu3, sigma3, rho, lambda_t, lambda_u) with gamma = 0.

    Profiles the objective over z = logit(b / b_edge), b = 1/lambda_t, whose
    ends (lambda_t = ``LAMBDA_CAP`` and lambda_u near ``LAMBDA_CAP``) are
    both near the same NIG law: ``N_SCAN`` evenly spaced points, then a
    bounded Brent search between the best point's neighbours.  The result is
    the best point evaluated, and deterministic.  When no scan point can
    match the sample moments (excess kurtosis at most 4 skew^2 / 3, as for
    Gaussian data), the result is the Gaussian limit: rho = 0, the sample
    mean and variance, both lambdas at ``LAMBDA_CAP``, and
    ``converged=False``.  ``converged`` means the moments were matched.
    """
    if len(series) < MIN_LENGTH:
        raise ValueError(f"series length {len(series)} below floor {MIN_LENGTH}")
    prep = _PreparedObjective(series, quadrature or CfQuadrature())
    evaluated: list[tuple[float, NDIGParams | None]] = []

    def profile(z: float) -> float:
        p = prep.matched(z)
        evaluated.append((UNMATCHED if p is None else prep.value(p), p))
        return evaluated[-1][0]

    b_edge = prep.b_edge
    if b_edge * LAMBDA_CAP > 1.0:
        # -z_cap and z_cap are the lambda_t = LAMBDA_CAP end and its mirror, in either order
        z_cap = abs(math.log(b_edge * LAMBDA_CAP - 1.0))
        scan = np.linspace(-z_cap, z_cap, N_SCAN).tolist()
        values = [profile(z) for z in scan]
        i = values.index(min(values))
        if values[i] < UNMATCHED:
            bounds = (scan[max(i - 1, 0)], scan[min(i + 1, N_SCAN - 1)])
            minimize_scalar(profile, bounds=bounds, method="bounded")
    value, params = min(evaluated, key=lambda e: e[0], default=(UNMATCHED, None))
    converged = params is not None
    if not converged:
        params = NDIGParams(
            mu3=prep.emp.mean, sigma3=math.sqrt(prep.emp.variance), rho=0.0,
            lambda_t=LAMBDA_CAP, lambda_u=LAMBDA_CAP,
        )
        value = prep.value(params)
    return FitResult(
        params=params,
        objective_value=value,
        term_breakdown=prep.terms(params),
        converged=converged,
        evaluations=len(evaluated),
    )


def rolling_fit(
    series: ReturnSeries,
    window: int = 1008,
    step: int = 1,
    quadrature: CfQuadrature | None = None,
) -> RollingFitSeries:
    """``fit`` of each length-``window`` moving window, every ``step`` returns."""
    if len(series) < window:
        raise ValueError(f"series length {len(series)} shorter than window {window}")
    starts = range(0, len(series) - window + 1, step)
    return RollingFitSeries(
        window_end_dates=tuple(series.dates[start + window - 1] for start in starts),
        results=tuple(fit(series.window(start, window), quadrature) for start in starts),
        window_length=window,
    )
