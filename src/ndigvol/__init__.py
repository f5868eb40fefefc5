"""NDIG doubly subordinated log-price model.

Parameter estimation from daily log-returns, arbitrage-free FFT option
pricing under the mean-correcting martingale measure, and three volatility
measures (rolling historical, option-implied BVIX, intrinsic-time).
"""

__version__ = "0.1.0"

from .estimate import (
    CfQuadrature,
    FitConfig,
    FitResult,
    ReturnSeries,
    RollingFitSeries,
    empirical_chf,
    empirical_moments,
    fit,
    objective,
    rolling_fit,
)
from .model import (
    FeasibleInterval,
    MomentSet,
    NDIGParams,
    cgf,
    chf,
    chf_exponent,
    cumulants,
    feasible_interval,
    max_damping,
    moments,
)
from .pricing import (
    FFTGridConfig,
    MarketContext,
    OptionChain,
    bsm_price,
    carr_madan_prices,
    implied_vol,
    price_surface,
    put_from_parity,
    risk_neutral_chf,
)
from .simulate import (
    PathSet,
    SampleStats,
    mc_option_price,
    mc_stats,
    sample_ig,
    simulate_paths,
)
from .volindex import (
    BvixConfig,
    ExpiryPair,
    TermVarianceInputs,
    VolatilitySeries,
    bvix,
    bvix_from_rolling,
    expiry_pair,
    ndig_it_series,
    ndig_it_vol,
    normalize,
    rolling_std_vol,
    term_inputs_from_chain,
    term_variance,
    term_weights,
)

__all__ = [
    "__version__",
    "NDIGParams", "FeasibleInterval", "MomentSet",
    "cgf", "chf", "chf_exponent", "cumulants", "moments",
    "feasible_interval", "max_damping",
    "PathSet", "SampleStats", "sample_ig", "simulate_paths", "mc_stats",
    "mc_option_price",
    "ReturnSeries", "CfQuadrature", "FitConfig", "FitResult", "RollingFitSeries",
    "empirical_moments", "empirical_chf", "objective", "fit", "rolling_fit",
    "MarketContext", "FFTGridConfig", "OptionChain", "risk_neutral_chf",
    "carr_madan_prices", "put_from_parity", "bsm_price", "implied_vol",
    "price_surface",
    "ExpiryPair", "TermVarianceInputs", "VolatilitySeries", "BvixConfig",
    "expiry_pair", "term_weights", "term_variance", "term_inputs_from_chain",
    "bvix", "rolling_std_vol", "bvix_from_rolling",
    "ndig_it_vol", "ndig_it_series", "normalize",
]
