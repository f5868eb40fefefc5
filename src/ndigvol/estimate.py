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

gamma is held at 0 and the subordinator means at 1 throughout; positivity
of sigma3 and the lambdas is enforced by log-reparameterization.  The
minimizer is a derivative-free simplex with restarts from perturbed
moment-matched initial points; proposals whose cgf domain excludes w = 1
(which would make the fitted model unpriceable) are penalized, not
rejected, to keep the simplex connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np
from scipy.optimize import minimize

from .model import MomentSet, NDIGParams, chf, cumulants

__all__ = [
    "ReturnSeries",
    "CfQuadrature",
    "FitConfig",
    "FitResult",
    "RollingFitSeries",
    "empirical_moments",
    "empirical_chf",
    "objective",
    "fit",
    "rolling_fit",
]

FEASIBILITY_PENALTY = 1.0e6
# Nelder-Mead stopping tolerances on the parameter vector and the objective
XATOL = 1e-7
FATOL = 1e-12
# evaluation budget of each warm-started window of rolling_fit
WARM_MAX_EVALS = 2000
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
class FitConfig:
    n_restarts: int = 5
    max_evals: int = 5000
    seed: int = 0
    quadrature: CfQuadrature = field(default_factory=CfQuadrature)


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


class _PreparedObjective:
    """Per-series precomputation shared across objective evaluations.

    ``terms`` reads the sample moments ``emp`` and the ecf ``ecf`` at the
    folded nodes ``v`` with weights ``weights``; it builds no intermediate
    moment or interval objects, since the simplex calls it thousands of
    times per fit.
    """

    def __init__(self, series: ReturnSeries, quadrature: CfQuadrature):
        self.emp = empirical_moments(series)
        for name in ("mean", "variance", "skewness", "kurtosis"):
            if getattr(self.emp, name) == 0.0:
                raise ValueError(f"degenerate return series: zero sample {name}")
        self.v, self.weights = quadrature.folded_nodes_and_weights()
        self.ecf = np.asarray(empirical_chf(series, self.v))

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


def _to_vector(p: NDIGParams) -> np.ndarray:
    return np.array(
        [p.mu3, math.log(p.sigma3), p.rho, math.log(p.lambda_t), math.log(p.lambda_u)]
    )


def _from_vector(x: np.ndarray) -> NDIGParams:
    mu3, log_sigma3, rho, log_lambda_t, log_lambda_u = x.tolist()
    return NDIGParams(
        mu3=mu3,
        sigma3=math.exp(min(max(log_sigma3, -50.0), 50.0)),
        rho=rho,
        lambda_t=math.exp(min(max(log_lambda_t, -50.0), 50.0)),
        lambda_u=math.exp(min(max(log_lambda_u, -50.0), 50.0)),
    )


def _moment_matched_start(emp: MomentSet) -> NDIGParams:
    """Initial point from inverting the dominant moment relations.

    Excess kurtosis is carried mostly by the outer clock (about 3/lambda_u),
    skewness mostly by 3*rho*variance/lambda_u; the Brownian scale absorbs
    the rest of the variance.
    """
    excess = max(emp.kurtosis - 3.0, 0.05)
    lam_u = 3.0 / excess
    lam_t = 50.0 * lam_u
    rho = emp.skewness * math.sqrt(emp.variance) * lam_u / 3.0
    resid = emp.variance - rho * rho * (1.0 / lam_t + 1.0 / lam_u)
    sigma3 = math.sqrt(max(resid, 0.25 * emp.variance))
    return NDIGParams(
        mu3=emp.mean - rho, sigma3=sigma3, rho=rho, lambda_t=lam_t, lambda_u=lam_u
    )


def _run_simplex(
    prep: _PreparedObjective, x0: np.ndarray, config: FitConfig
) -> tuple[NDIGParams, float, bool, int]:
    res = minimize(
        lambda x: prep.value(_from_vector(x)),
        x0,
        method="Nelder-Mead",
        options={
            "maxfev": config.max_evals,
            "xatol": XATOL,
            "fatol": FATOL,
            "adaptive": True,
        },
    )
    return _from_vector(res.x), float(res.fun), bool(res.success), int(res.nfev)


def fit(
    series: ReturnSeries,
    config: FitConfig | None = None,
    initial: NDIGParams | None = None,
) -> FitResult:
    """Fit (mu3, sigma3, rho, lambda_t, lambda_u) with gamma = 0.

    Runs ``config.n_restarts`` simplex searches: the first from the
    moment-matched start (or ``initial`` when given, e.g. a warm start),
    the rest from multiplicatively perturbed copies.  Returns the best
    point found; ``converged=False`` flags exhaustion of the evaluation
    budget on the winning restart rather than a hard failure.
    """
    cfg = config or FitConfig()
    if len(series) < MIN_LENGTH:
        raise ValueError(f"series length {len(series)} below floor {MIN_LENGTH}")
    prep = _PreparedObjective(series, cfg.quadrature)
    base = initial if initial is not None else _moment_matched_start(prep.emp)
    rng = np.random.default_rng(cfg.seed)

    starts = [_to_vector(base)]
    for _ in range(cfg.n_restarts - 1):
        x = _to_vector(base).copy()
        x[0] += rng.normal(0.0, 0.5) * max(abs(x[0]), math.sqrt(prep.emp.variance) / 10)
        x[1] += rng.normal(0.0, 0.3)
        x[2] *= math.exp(rng.normal(0.0, 0.5))
        x[3] += rng.normal(0.0, 1.0)
        x[4] += rng.normal(0.0, 1.0)
        starts.append(x)

    best: tuple[NDIGParams, float, bool, int] | None = None
    total_evals = 0
    for x0 in starts:
        cand = _run_simplex(prep, x0, cfg)
        total_evals += cand[3]
        if best is None or cand[1] < best[1]:
            best = cand
    assert best is not None
    params, value, success, _ = best
    return FitResult(
        params=params,
        objective_value=value,
        term_breakdown=prep.terms(params),
        converged=success,
        evaluations=total_evals,
    )


def rolling_fit(
    series: ReturnSeries,
    window: int = 1008,
    step: int = 1,
    warm_start: bool = True,
    config: FitConfig | None = None,
) -> RollingFitSeries:
    """One fit per length-``window`` moving window of the return series.

    With ``warm_start`` each window after the first runs a single simplex
    search initialized at the previous optimum (the data shifts by ``step``
    points, so the optimum barely moves); cold windows rerun the full
    restart schedule.  Warm searches stop after ``WARM_MAX_EVALS``
    evaluations.
    """
    cfg = config or FitConfig()
    n = len(series)
    if n < window:
        raise ValueError(f"series length {n} shorter than window {window}")
    warm_cfg = replace(cfg, n_restarts=1, max_evals=WARM_MAX_EVALS)

    ends: list[date] = []
    results: list[FitResult] = []
    prev: NDIGParams | None = None
    for start in range(0, n - window + 1, step):
        win = series.window(start, window)
        if warm_start and prev is not None:
            result = fit(win, warm_cfg, initial=prev)
        else:
            result = fit(win, cfg)
        prev = result.params if warm_start else None
        ends.append(win.dates[-1])
        results.append(result)
    return RollingFitSeries(
        window_end_dates=tuple(ends),
        results=tuple(results),
        window_length=window,
    )
