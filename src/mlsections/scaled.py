"""Overflow-safe complex arithmetic in (log-magnitude, phase) form.

Quantities like exp(R**rho) / Gamma(1 + n/rho) leave the double-precision
exponent range for moderate n, so every large intermediate in this package
is carried as a ScaledComplex: the natural log of the magnitude plus a
phase normalized to (-pi, pi].  A distinguished zero state (log_mag = -inf)
absorbs under multiplication and is the identity under addition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "ScaledComplex",
    "SC_ZERO",
    "sc_from_complex",
    "sc_to_complex",
    "sc_mul",
    "sc_add",
    "sc_sub",
]

# Largest log-magnitude that still converts to a finite double.
_MAX_EXP = math.log(8.98846567431158e307)  # ln(DBL_MAX / 2)

# Relative mantissa magnitude below which an addition is treated as exact
# cancellation and collapses to the zero state.
_CANCEL_FLOOR = 1e-300


def _wrap_phase(phase: float) -> float:
    """Reduce a phase to the interval (-pi, pi]."""
    p = math.fmod(phase, 2.0 * math.pi)
    if p > math.pi:
        p -= 2.0 * math.pi
    elif p <= -math.pi:
        p += 2.0 * math.pi
    return p


@dataclass(frozen=True)
class ScaledComplex:
    """A complex number stored as exp(log_mag) * exp(i * phase)."""

    log_mag: float
    phase: float

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "ScaledComplex(zero)"
        return f"ScaledComplex(log_mag={self.log_mag:.6g}, phase={self.phase:.6g})"


SC_ZERO = ScaledComplex(-math.inf, 0.0)


def sc_from_complex(w: complex) -> ScaledComplex:
    """Convert an ordinary complex value; 0 maps to the zero state."""
    w = complex(w)
    if w == 0:
        return SC_ZERO
    # math.atan2 instead of cmath.phase: the latter can raise a spurious
    # OverflowError when imag/real underflows on some libm builds.
    return ScaledComplex(math.log(abs(w)), _wrap_phase(math.atan2(w.imag, w.real)))


def sc_to_complex(a: ScaledComplex) -> complex:
    """Convert back to a complex double.

    Raises OverflowError when the magnitude exceeds the exponent range;
    magnitudes below the subnormal range flush to 0.
    """
    if a.is_zero:
        return 0.0 + 0.0j
    if a.log_mag > _MAX_EXP:
        raise OverflowError(
            f"scaled value with log magnitude {a.log_mag:.6g} exceeds double range"
        )
    return math.exp(a.log_mag) * cmath.exp(1j * a.phase)


def sc_mul(a: ScaledComplex, b: ScaledComplex) -> ScaledComplex:
    if a.is_zero or b.is_zero:
        return SC_ZERO
    return ScaledComplex(a.log_mag + b.log_mag, _wrap_phase(a.phase + b.phase))


def sc_add(a: ScaledComplex, b: ScaledComplex) -> ScaledComplex:
    """Add by rescaling both mantissas to the larger log magnitude.

    Near-total cancellation (mantissa sum below 1e-300 of the larger
    input) returns the zero state; anything below that level carries no
    information at working precision.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.log_mag < b.log_mag:
        a, b = b, a
    m = cmath.exp(1j * a.phase) + math.exp(b.log_mag - a.log_mag) * cmath.exp(1j * b.phase)
    r = abs(m)
    if r < _CANCEL_FLOOR:
        return SC_ZERO
    # math.atan2, as in sc_from_complex: cmath.phase raises on underflow
    return ScaledComplex(a.log_mag + math.log(r), _wrap_phase(math.atan2(m.imag, m.real)))


def sc_sub(a: ScaledComplex, b: ScaledComplex) -> ScaledComplex:
    # -b keeps log_mag = -inf, so a negated zero is still the zero state
    return sc_add(a, ScaledComplex(b.log_mag, _wrap_phase(b.phase + math.pi)))
