"""Numerical toolkit for sections and tails of Mittag-Leffler functions.

The package evaluates E_{1/rho} (rho > 1), its partial sums s_n and tails
t_{n+1}, and the combinations I_n(R_n z; lam) = s_n - lam*E at the scaled
argument w = R_n z, all in overflow-safe log-polar arithmetic.  On top of
that sit the limit-curve geometry (generalized Szego curve and relatives),
an argument-principle zero locator, and desk-scale checks of the governing
asymptotic formulas.
"""

from .scaled import (
    ScaledComplex,
    SC_ZERO,
    sc_from_complex,
    sc_to_complex,
    sc_mul,
    sc_add,
    sc_sub,
)
from .specfun import ln_gamma
from .mitlef import (
    MLContext,
    radius,
    ml_series,
    ml_asymptotic,
    section,
    tail,
    combo,
    combo_normalized,
    combo_derivative,
    combo_batch,
    erfc,
)
from .curves import (
    SzegoBranch,
    CurvePoint,
    phase_u,
    szego_sigma,
    s_h_level_r,
    szego_curve,
    t_curve_r,
    region_contains,
    asymptote_distance,
)
from .zeros import (
    Window,
    ZeroRecord,
    ZeroSet,
    winding_number,
    poly_zeros,
    locate_zeros,
    strip_filter,
    BoundaryZeroError,
)

__version__ = "0.1.0"
