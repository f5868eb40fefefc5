"""Parameter estimation from daily log-returns.

The objective combines four relative moment deviations with an empirical
characteristic-function distance:

    obj = dM1^2 + dM2^2 + dM3^2 + dM4^2 + dCF^2,   dMk = 1 - model_k / sample_k,

where dCF^2 is a Gaussian-weighted quadrature of |ecf(v) - chf(v)|^2 on a
fixed grid of 16 nodes (``ECF_NODES``, ``ECF_WEIGHTS``).  Both model and
sample moments are read at the unit (daily) horizon.

The fit estimates the five parameters of ``NDIGParams``.  For a given
lambda_t the four moment equations fix the other four (mu3 and sigma3 in
closed form, rho and lambda_u by a 2x2 Newton), so the moment terms vanish
and the fit is a one-dimensional profile of the objective over lambda_t
(variable projection, Golub & Pereyra 2003): a fixed scan, then a
parabolic refinement from the best scan point and its two neighbours,
which reuses their three values.  Matched points whose cgf domain
excludes w = 1 (which would make the fitted model unpriceable) carry
``FEASIBILITY_PENALTY``.  A sample no NDIG law can match gets the Gaussian
limit, flagged ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .model import MomentSet, NDIGParams, chf, cumulants, feasible_interval

__all__ = [
    "ReturnSeries",
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
# refinement of the best scan point: tolerance in z, most steps
Z_TOL = 1e-3
MAX_REFINE = 60


def _ecf_grid() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ecf distance, the integral of |ecf(v) - chf(v)|^2 exp(-v^2) dv.

    The weight tames the noise-dominated large-|v| region of the ecf
    (Feuerverger & McDunnough 1981).  The trapezoid rule runs on 101 nodes
    over [-20, 20]; the weight is below 1e-10 beyond |v| = 5, so the span is
    conservative.  The integrand is even in v (ecf and chf are both
    Hermitian), so the grid is folded onto v >= 0 by index, not by float
    equality of the nodes: node k mirrors node 100 - k, each v > 0 node
    carries its own weight and its mirror's, and v = 0 keeps its single
    weight.  Node pairs whose grid weight is below ``NODE_WEIGHT_FLOOR``
    times the largest are dropped, which leaves 16 nodes.  Since
    |ecf - chf| <= 2, folding and pruning change dCF^2 by at most
    4 * sum(dropped grid weights) in absolute terms, beyond rounding.
    """
    v = np.linspace(-20.0, 20.0, 101)
    w = np.full(101, v[1] - v[0])
    w[[0, -1]] *= 0.5
    w *= np.exp(-v * v)
    keep = w[50:] >= NODE_WEIGHT_FLOOR * w.max()
    nodes, weights = v[50:][keep], np.concatenate(([w[50]], 2.0 * w[51:]))[keep]
    nodes.flags.writeable = weights.flags.writeable = False  # module constants
    return nodes, weights


ECF_NODES, ECF_WEIGHTS = _ecf_grid()


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
    return _moments(series.returns)


def _moments(r: np.ndarray) -> MomentSet:
    """``empirical_moments`` of the returns r, in two passes (mean, then centred powers)."""
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
    out = np.exp(1j * np.multiply.outer(v_arr, series.returns)).mean(axis=1)
    return out if np.ndim(v) else complex(out[0])


def _k34(r: float, a: float, b: float) -> tuple[float, float, tuple[float, ...]]:
    """The model's standardized third and fourth cumulants, and their Jacobian in (r, a).

    In units of the variance, with r = rho / sqrt(variance), a = 1/lambda_u
    and b = 1/lambda_t:

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


def _checked_moments(r: np.ndarray) -> MomentSet:
    """``_moments`` of r; the objective divides by each of the four, so none may be zero."""
    emp = _moments(r)
    for name in ("mean", "variance", "skewness", "kurtosis"):
        if getattr(emp, name) == 0.0:
            raise ValueError(f"degenerate return series: zero sample {name}")
    return emp


def _b_edge(emp: MomentSet) -> float:
    """Largest matchable b = 1/lambda_t: at a = 0 ``_k34`` gives k3 = 3rb
    and k4 = 12 r^2 b^2 + 3b, so matching both needs k4 = 4 skew^2 / 3 + 3b."""
    return (emp.kurtosis - 3.0 - 4.0 * emp.skewness**2 / 3.0) / 3.0


def _terms(p: NDIGParams, emp: MomentSet,
           ecf: np.ndarray) -> tuple[float, float, float, float, float]:
    """The five squared terms at p, against sample moments ``emp`` and the ecf at ``ECF_NODES``."""
    # the standardization is that of model.moments, term for term
    k1, k2, k3, k4 = cumulants(p)
    dm1 = 1.0 - k1 / emp.mean
    dm2 = 1.0 - k2 / emp.variance
    dm3 = 1.0 - k3 / k2**1.5 / emp.skewness
    dm4 = 1.0 - (k4 / k2**2 + 3.0) / emp.kurtosis
    diff = ecf - chf(ECF_NODES, p)
    dcf2 = float(np.dot(ECF_WEIGHTS, diff.real**2 + diff.imag**2))
    return dm1 * dm1, dm2 * dm2, dm3 * dm3, dm4 * dm4, dcf2


def _value(p: NDIGParams, emp: MomentSet, ecf: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """The objective at p, plus FEASIBILITY_PENALTY where ``max_damping`` raises, and its terms."""
    terms = _terms(p, emp, ecf)
    return sum(terms) + (FEASIBILITY_PENALTY if feasible_interval(p)[1] <= 1.0 else 0.0), terms


def _matched(z: float, emp: MomentSet, b_edge: float) -> NDIGParams | None:
    """The moment-matched parameters at b = b_edge / (1 + exp(-z)) if all are finite, else None."""
    b = b_edge / (1.0 + math.exp(-z))
    root = _match_moments(b, b_edge, emp.skewness, emp.kurtosis - 3.0)
    if root is None:
        return None
    r, a = root
    rho = r * math.sqrt(emp.variance)
    sigma3 = math.sqrt(emp.variance * (1.0 - r * r * (a + b)))
    try:  # a root this near a = 0 makes lambda_u infinite
        return NDIGParams(emp.mean - rho, sigma3, rho, lambda_t=1.0 / b, lambda_u=1.0 / a)
    except ValueError:
        return None


def _refine(profile, x: tuple[float, float, float], f: tuple[float, float, float]) -> None:
    """Minimize ``profile`` in the bracket x[0] <= x[1] <= x[2], whose best point is x[1].

    Each step evaluates the vertex of the parabola through the three points
    (f = profile(x)), or the midpoint of the wider side when the vertex is
    outside the open bracket or within ``Z_TOL`` of x[1]; the new point
    becomes an end or the best point.  Stops once the bracket's half-width
    is below ``Z_TOL``, or after ``MAX_REFINE`` steps.  Returns nothing.
    """
    (x0, x1, x2), (f0, f1, f2) = x, f
    for _ in range(MAX_REFINE):
        if x2 - x0 < 2.0 * Z_TOL:
            return
        d0, d2 = x1 - x0, x2 - x1
        den = d0 * (f1 - f2) + d2 * (f1 - f0)  # <= 0, as x[1] is the best point
        u = x1 - 0.5 * (d0 * d0 * (f1 - f2) - d2 * d2 * (f1 - f0)) / den if den else x1
        if not (x0 < u < x2 and abs(u - x1) >= Z_TOL):
            u = 0.5 * (x1 + (x0 if d0 > d2 else x2))
        fu = profile(u)
        if fu < f1:
            x0, f0, x2, f2 = (x0, f0, x1, f1) if u < x1 else (x1, f1, x2, f2)
            x1, f1 = u, fu
        elif u < x1:
            x0, f0 = u, fu
        else:
            x2, f2 = u, fu


def objective(p: NDIGParams, series: ReturnSeries) -> FitResult:
    """Evaluate the five-term objective at fixed parameters (no optimization)."""
    terms = _terms(p, _checked_moments(series.returns), empirical_chf(series, ECF_NODES))
    return FitResult(params=p, objective_value=float(sum(terms)), term_breakdown=terms,
                     converged=True, evaluations=1)


def fit(series: ReturnSeries) -> FitResult:
    """Fit the five NDIG parameters (mu3, sigma3, rho, lambda_t, lambda_u).

    Profiles the objective over z = logit(b / b_edge), b = 1/lambda_t, whose
    ends (lambda_t = ``LAMBDA_CAP`` and lambda_u near ``LAMBDA_CAP``) are
    both near the same NIG law: ``N_SCAN`` evenly spaced points, then
    ``_refine`` from the best point and its neighbours (the best point
    twice at an end of the scan) to within ``Z_TOL`` in z.  The result is
    the best point evaluated, and deterministic.  When no scan point can
    match the sample moments (excess kurtosis at most 4 skew^2 / 3, as for
    Gaussian data), the result is the Gaussian limit: rho = 0, the sample
    mean and variance, both lambdas at ``LAMBDA_CAP``, and
    ``converged=False``.  ``converged`` means the moments were matched.
    """
    if len(series) < MIN_LENGTH:
        raise ValueError(f"series length {len(series)} below floor {MIN_LENGTH}")
    return _fit(series.returns, empirical_chf(series, ECF_NODES))


def _fit(returns: np.ndarray, ecf: np.ndarray) -> FitResult:
    """``fit`` of the returns ``returns``, whose ecf at ``ECF_NODES`` is ``ecf``."""
    emp = _checked_moments(returns)
    b_edge = _b_edge(emp)
    evaluated: list[tuple[float, tuple | None, NDIGParams | None]] = []  # value, terms, params

    def profile(z: float) -> float:
        p = _matched(z, emp, b_edge)
        evaluated.append((UNMATCHED, None, None) if p is None else (*_value(p, emp, ecf), p))
        return evaluated[-1][0]

    if b_edge * LAMBDA_CAP > 1.0:
        # -z_cap and z_cap are the lambda_t = LAMBDA_CAP end and its mirror, in either order
        z_cap = abs(math.log(b_edge * LAMBDA_CAP - 1.0))
        scan = np.linspace(-z_cap, z_cap, N_SCAN).tolist()
        values = [profile(z) for z in scan]
        i = values.index(min(values))
        if values[i] < UNMATCHED:
            j = (max(i - 1, 0), i, min(i + 1, N_SCAN - 1))
            _refine(profile, tuple(scan[k] for k in j), tuple(values[k] for k in j))
    value, terms, params = min(evaluated, key=lambda e: e[0], default=(UNMATCHED, None, None))
    converged = params is not None
    if not converged:
        params = NDIGParams(mu3=emp.mean, sigma3=math.sqrt(emp.variance), rho=0.0,
                            lambda_t=LAMBDA_CAP, lambda_u=LAMBDA_CAP)
        value, terms = _value(params, emp, ecf)
    return FitResult(params=params, objective_value=value, term_breakdown=terms,
                     converged=converged, evaluations=len(evaluated))


def rolling_fit(series: ReturnSeries, window: int = 1008, step: int = 1) -> RollingFitSeries:
    """``fit`` of each length-``window`` moving window, every ``step`` returns."""
    if window < MIN_LENGTH:
        raise ValueError(f"window must be at least {MIN_LENGTH} returns, got {window}")
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if len(series) < window:
        raise ValueError(f"series length {len(series)} shorter than window {window}")
    r = series.returns
    # exp(i v r) once per node and return; a window's ecf is the mean of its columns
    table = np.exp(1j * np.multiply.outer(ECF_NODES, r))
    starts = range(0, len(series) - window + 1, step)
    return RollingFitSeries(
        window_end_dates=series.dates[window - 1 :: step],
        results=tuple(_fit(r[s : s + window], table[:, s : s + window].mean(axis=1)) for s in starts),
        window_length=window,
    )
