"""Special functions: real log-gamma, reciprocal gamma and complex erfc.

ln Gamma (x > 0 only) and 1/Gamma (exactly 0 at x = 0, -1, -2, ...) come
from math.lgamma and math.gamma; erfc alone needs SciPy, imported on its
first call.  erfc(z) = 1 - (2/sqrt(pi)) int_0^z exp(-v^2) dv, so erfc(0) = 1
and erfc(+inf) = 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ln_gamma", "ln_gamma_arr", "rgamma", "erfc"]


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def ln_gamma_arr(x: np.ndarray) -> np.ndarray:
    """ln_gamma over an array of positive reals."""
    return np.vectorize(ln_gamma, otypes=[float])(x)


def rgamma(x):
    """1/Gamma(x) for real x, a scalar or an array; exactly 0 at x = 0, -1, -2, ..."""
    if np.ndim(x):
        return np.vectorize(rgamma, otypes=[float])(x)
    return 0.0 if x <= 0.0 and float(x).is_integer() else 1.0 / math.gamma(x)


def erfc(zeta):
    """Complementary error function on the complex plane, scalar or array."""
    from scipy import special
    val = special.erfc(np.asarray(zeta, dtype=complex))
    return complex(val) if val.ndim == 0 else val
