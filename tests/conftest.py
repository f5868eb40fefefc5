from __future__ import annotations

import numpy as np
import pytest

from ndigvol import NDIGParams


@pytest.fixture(scope="session")
def btc_params() -> NDIGParams:
    """Reference parameter set from a daily bitcoin fit; used throughout."""
    return NDIGParams(
        mu3=0.004, sigma3=0.0551, rho=-0.0008, lambda_t=9.9293, lambda_u=0.145
    )


def random_params(rng: np.random.Generator) -> NDIGParams:
    """A random but sane parameter set (pricing-feasible not guaranteed)."""
    return NDIGParams(
        mu3=float(rng.uniform(-0.01, 0.01)),
        sigma3=float(rng.uniform(0.01, 0.15)),
        rho=float(rng.uniform(-0.03, 0.03)),
        lambda_t=float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))),
        lambda_u=float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))),
    )
