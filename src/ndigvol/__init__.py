"""NDIG doubly subordinated log-price model.

Parameter estimation from daily log-returns, arbitrage-free FFT option
pricing under the mean-correcting martingale measure, and three volatility
measures (rolling historical, option-implied BVIX, intrinsic-time).
"""

__version__ = "0.1.0"

from . import estimate, model, pricing, simulate, volindex
from .estimate import *  # noqa: F403
from .model import *  # noqa: F403
from .pricing import *  # noqa: F403
from .simulate import *  # noqa: F403
from .volindex import *  # noqa: F403

__all__ = [
    "__version__",
    *estimate.__all__, *model.__all__, *pricing.__all__, *simulate.__all__, *volindex.__all__,
]
