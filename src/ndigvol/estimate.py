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

Windows are fitted ``FIT_BLOCK`` at a time.  No scan point depends on
another, so a block's moments, scan grids, moment matches and objective
values are arrays computed in one pass, each Newton element stopping where
the scalar form would.  The refinement is sequential, each step placed by
the last three values, about a dozen steps per window, so it runs per
window on scalars: on one point an array pass pays numpy's per-call cost
on every operation (the Newton alone takes about 40 times as long).
``fit`` is the block of one, so a rolling window's fit is the fit of that
window alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from types import SimpleNamespace

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
# windows per array pass; a block copies its returns, FIT_BLOCK x window floats
FIT_BLOCK = 64
# the fields of MomentSet and of NDIGParams, in order
_MOMENTS = ("mean", "variance", "skewness", "kurtosis")
_PARAMS = ("mu3", "sigma3", "rho", "lambda_t", "lambda_u")


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
    return _window(_moments(series.returns[None, :]), 0)


def _moments(r: np.ndarray) -> MomentSet:
    """``empirical_moments`` of each row of r, as arrays, in two passes
    (mean, then centred powers)."""
    n = r.shape[1]
    if n < 4:
        raise ValueError(f"need at least 4 returns, got {n}")
    mean = r.mean(axis=1)
    c = r - mean[:, None]
    c2 = c * c  # products, not pow: c**3 and c**4 would cost 30 times as much
    m2 = np.mean(c2, axis=1)
    if np.any(m2 <= (1e-13 * np.maximum(1.0, np.abs(mean))) ** 2):
        raise ValueError("degenerate return series: zero variance")
    m3 = np.mean(c2 * c, axis=1)
    m4 = np.mean(c2 * c2, axis=1)
    return MomentSet(
        mean=mean,
        variance=m2 * n / (n - 1),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
    )


def _window(emp: MomentSet, i: int) -> MomentSet:
    """Row i of the moment arrays emp, as floats."""
    return MomentSet(*(float(getattr(emp, name)[i]) for name in _MOMENTS))


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
    # _match_all is this loop on arrays, for the scan; the refinement's points
    # come one at a time, and on one point the array form takes about 40 times
    # as long (260 us against 6 us)
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


def _match_all(b: np.ndarray, b_edge: np.ndarray, skew: np.ndarray,
               excess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_match_moments`` of each element of the 1-d arrays: (r, a), NaN where it gives None.

    Each element takes the scalar form's steps in the same float operations,
    and leaves the loop at the step where the scalar form returns.
    """
    root_r, root_a = np.full_like(b, np.nan), np.full_like(b, np.nan)
    live = np.arange(len(b))
    r, a = skew / (3.0 * b_edge), b_edge - b
    # a diverging element overflows, as Python floats do silently, and never settles
    with np.errstate(all="ignore"):
        for _ in range(MAX_NEWTON):
            k3, k4, (j11, j12, j21, j22) = _k34(r, a, b)
            f1, f2 = k3 - skew, k4 - excess
            det = j11 * j22 - j12 * j21
            dr = (f1 * j22 - f2 * j12) / det
            da = (j11 * f2 - j21 * f1) / det
            r, a = r - dr, a - da
            settled = (np.abs(dr) <= 1e-12 * np.abs(r)) & (np.abs(da) <= 1e-12 * (a + b))
            found = settled & (det != 0.0) & (a > 0.0) & (r * r * (a + b) < 1.0)
            root_r[live[found]], root_a[live[found]] = r[found], a[found]
            go = ~settled & (det != 0.0)
            if not go.any():
                break
            live, r, a, b, skew, excess = live[go], r[go], a[go], b[go], skew[go], excess[go]
    return root_r, root_a


def _checked_moments(r: np.ndarray) -> MomentSet:
    """``_moments`` of each row of r; the objective divides by each of the
    four, so none may be zero."""
    emp = _moments(r)
    zero = [getattr(emp, name) == 0.0 for name in _MOMENTS]
    if np.any(zero):
        row = np.flatnonzero(np.any(zero, axis=0))[0]
        name = next(name for name, z in zip(_MOMENTS, zero) if z[row])
        raise ValueError(f"degenerate return series: zero sample {name}")
    return emp


def _b_edge(emp: MomentSet) -> float:
    """Largest matchable b = 1/lambda_t: at a = 0 ``_k34`` gives k3 = 3rb
    and k4 = 12 r^2 b^2 + 3b, so matching both needs k4 = 4 skew^2 / 3 + 3b."""
    return (emp.kurtosis - 3.0 - 4.0 * emp.skewness**2 / 3.0) / 3.0


def _b(z, b_edge):
    """b = 1/lambda_t at z = logit(b / b_edge)."""
    # numpy's exp on floats too: where math.exp rounds differently, one ulp of b
    # moved a scan value 1.6e-14 relative from the refinement's value at that z
    return b_edge / (1.0 + np.exp(-z))


def _root_params(r, a, b, emp: MomentSet) -> tuple:
    """(mu3, sigma3, rho, lambda_t, lambda_u) of the root (r, a) of ``_match_moments`` at b."""
    # on floats numpy's sqrt costs more, and the refinement takes points one at a time
    sqrt = math.sqrt if isinstance(r, float) else np.sqrt
    rho = r * sqrt(emp.variance)
    sigma3 = sqrt(emp.variance * (1.0 - r * r * (a + b)))
    return emp.mean - rho, sigma3, rho, 1.0 / b, 1.0 / a


def _terms(p: NDIGParams, emp: MomentSet,
           ecf: np.ndarray) -> tuple[float, float, float, float, float]:
    """The five squared terms at p, against sample moments ``emp`` and the ecf at ``ECF_NODES``.

    For a batch of m laws, the fields of p and emp are (m, 1) arrays, ecf
    has one row per law, and each term is an (m, 1) array.
    """
    # the standardization is that of model.moments, term for term
    k1, k2, k3, k4 = cumulants(p)
    dm1 = 1.0 - k1 / emp.mean
    dm2 = 1.0 - k2 / emp.variance
    dm3 = 1.0 - k3 / k2**1.5 / emp.skewness
    dm4 = 1.0 - (k4 / k2**2 + 3.0) / emp.kurtosis
    diff = ecf - chf(ECF_NODES, p)
    sq = diff.real**2 + diff.imag**2
    dcf2 = np.add.reduce(ECF_WEIGHTS * sq, axis=-1, keepdims=sq.ndim > 1)
    return dm1 * dm1, dm2 * dm2, dm3 * dm3, dm4 * dm4, dcf2


def _value(p: NDIGParams, emp: MomentSet, ecf: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """The objective at p, plus FEASIBILITY_PENALTY where ``max_damping`` raises, and its terms
    (a batch as in ``_terms``)."""
    terms = _terms(p, emp, ecf)
    return sum(terms) + FEASIBILITY_PENALTY * (feasible_interval(p)[1] <= 1.0), terms


def _matched(z: float, emp: MomentSet, b_edge: float) -> NDIGParams | None:
    """The moment-matched parameters at z if all are finite, else None."""
    b = float(_b(z, b_edge))
    root = _match_moments(b, b_edge, emp.skewness, emp.kurtosis - 3.0)
    if root is None:
        return None
    try:  # a root this near a = 0 makes lambda_u infinite
        return NDIGParams(*_root_params(*root, b, emp))
    except ValueError:
        return None


def _scan(emp: MomentSet, b_edge: np.ndarray, ecf: np.ndarray) -> tuple[np.ndarray, ...]:
    """The profile at ``N_SCAN`` points of each window of a block, in one array pass.

    emp's fields and b_edge hold one value per window, ecf one row.  A window
    with b_edge * LAMBDA_CAP > 1 is scanned at z evenly spaced from -z_cap to
    z_cap, the lambda_t = LAMBDA_CAP end and its mirror in either order.
    Returns z (windows x N_SCAN; NaN rows for windows not scanned), the
    profile values (UNMATCHED where the moments cannot be matched), and the
    five terms and the five parameters at each point (windows x N_SCAN x 5;
    NaN where unmatched).
    """
    scanned = b_edge * LAMBDA_CAP > 1.0
    z = np.full((len(b_edge), N_SCAN), np.nan)
    z[scanned] = np.multiply.outer(np.abs(np.log(b_edge[scanned] * LAMBDA_CAP - 1.0)),
                                   np.linspace(-1.0, 1.0, N_SCAN))
    at = np.flatnonzero(np.repeat(scanned, N_SCAN))  # flat index of each point
    emp_at = MomentSet(*(getattr(emp, name)[at // N_SCAN] for name in _MOMENTS))
    b_edge_at = b_edge[at // N_SCAN]
    b = _b(z.flat[at], b_edge_at)
    r, a = _match_all(b, b_edge_at, emp_at.skewness, emp_at.kurtosis - 3.0)
    with np.errstate(over="ignore"):  # a root this near a = 0 makes lambda_u infinite
        params = np.stack(_root_params(r, a, b, emp_at), axis=1)
    ok = np.isfinite(params).all(axis=1)
    at, params = at[ok], params[ok]
    batch = SimpleNamespace(**{name: params[:, [k]] for k, name in enumerate(_PARAMS)})
    emp_at = MomentSet(*(getattr(emp_at, name)[ok, None] for name in _MOMENTS))
    value, terms = _value(batch, emp_at, ecf[at // N_SCAN])
    out_value = np.full(z.shape, UNMATCHED)
    out_terms, out_params = np.full(z.shape + (5,), np.nan), np.full(z.shape + (5,), np.nan)
    out_value.flat[at] = value[:, 0]
    out_terms.reshape(-1, 5)[at] = np.concatenate(terms, axis=1)
    out_params.reshape(-1, 5)[at] = params
    return z, out_value, out_terms, out_params


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
    emp = _window(_checked_moments(series.returns[None, :]), 0)
    terms = tuple(map(float, _terms(p, emp, empirical_chf(series, ECF_NODES))))
    return FitResult(params=p, objective_value=sum(terms), term_breakdown=terms,
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
    return _fit_windows(series.returns, len(series), range(1))[0]


def _fit_windows(r: np.ndarray, window: int, starts: range) -> list[FitResult]:
    """``fit`` of r[s : s + window] for each s in starts, ``FIT_BLOCK`` windows per array pass."""
    # exp(i v r) once per node and return; a window's ecf is the mean of its columns
    table = np.exp(1j * np.multiply.outer(ECF_NODES, r))
    windows = np.lib.stride_tricks.sliding_window_view(r, window)
    results: list[FitResult] = []
    for lo in range(0, len(starts), FIT_BLOCK):
        block = starts[lo : lo + FIT_BLOCK]
        ecf = np.array([table[:, s : s + window].mean(axis=1) for s in block])
        emp = _checked_moments(windows[block])
        b_edge = _b_edge(emp)
        scan = _scan(emp, b_edge, ecf)
        results += [_fit_one(_window(emp, i), float(b_edge[i]), ecf[i], *(s[i] for s in scan))
                    for i in range(len(block))]
    return results


def _fit_one(emp: MomentSet, b_edge: float, ecf: np.ndarray, z: np.ndarray, values: np.ndarray,
             terms: np.ndarray, params: np.ndarray) -> FitResult:
    """One window's fit from its row of ``_scan``: ``_refine`` from the best scan
    point, then the best point evaluated (the first of equal values)."""
    evaluated: list[tuple[float, tuple | None, NDIGParams | None]] = []  # value, terms, params

    def profile(u: float) -> float:
        p = _matched(u, emp, b_edge)
        evaluated.append((UNMATCHED, None, None) if p is None else (*_value(p, emp, ecf), p))
        return evaluated[-1][0]

    i = int(values.argmin())
    best = (UNMATCHED, None, None)
    if values[i] < UNMATCHED:
        best = (values[i], terms[i], NDIGParams(*params[i].tolist()))
        j = [max(i - 1, 0), i, min(i + 1, N_SCAN - 1)]
        _refine(profile, tuple(z[j].tolist()), tuple(values[j].tolist()))
    value, terms, params = min([best, *evaluated], key=lambda e: e[0])
    converged = params is not None
    if not converged:
        params = NDIGParams(mu3=emp.mean, sigma3=math.sqrt(emp.variance), rho=0.0,
                            lambda_t=LAMBDA_CAP, lambda_u=LAMBDA_CAP)
        value, terms = _value(params, emp, ecf)
    return FitResult(params=params, objective_value=float(value),
                     term_breakdown=tuple(map(float, terms)), converged=converged,
                     evaluations=(0 if np.isnan(z[0]) else N_SCAN) + len(evaluated))


def rolling_fit(series: ReturnSeries, window: int = 1008, step: int = 1) -> RollingFitSeries:
    """``fit`` of each length-``window`` moving window, every ``step`` returns."""
    if window < MIN_LENGTH:
        raise ValueError(f"window must be at least {MIN_LENGTH} returns, got {window}")
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if len(series) < window:
        raise ValueError(f"series length {len(series)} shorter than window {window}")
    starts = range(0, len(series) - window + 1, step)
    return RollingFitSeries(
        window_end_dates=series.dates[window - 1 :: step],
        results=tuple(_fit_windows(series.returns, window, starts)),
        window_length=window,
    )
