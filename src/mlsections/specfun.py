"""Special functions: real log-gamma and the complex error function.

Thin wrappers over math.lgamma and scipy.special (gammaln, erfc) that keep
the package's domain checks: log-gamma is only defined here for x > 0.
erfc uses the standard normalization erfc(z) = 1 - (2/sqrt(pi)) *
int_0^z exp(-v^2) dv, so erfc(0) = 1 and erfc(+inf) = 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["ln_gamma", "ln_gamma_arr", "erf", "erfc"]


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def ln_gamma_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized ln_gamma for arrays of positive reals."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("ln_gamma_arr requires all x > 0")
    return special.gammaln(x)


def erfc(zeta):
    """Complementary error function on the complex plane, scalar or array."""
    val = special.erfc(np.asarray(zeta, dtype=complex))
    return complex(val) if val.ndim == 0 else val


def erf(zeta):
    """Error function, erf(z) = 1 - erfc(z)."""
    return 1.0 - erfc(zeta)
