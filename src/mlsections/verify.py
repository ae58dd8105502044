"""Desk-scale numerical checks of the asymptotic formulas behind the toolkit.

Each check compares an exact finite-n quantity (evaluated through the scaled
series machinery) against the leading term of its limit formula, with the
o(1) factors set to 1.  Theorem 1's exterior term also carries S, the
algebraic expansion of E past its first term (_algebraic_series): its first
correction is of order n^{-1/rho} (zero at rho = 2), too slow for the frozen
ceiling at n = 200 when rho = 3.  The other exception is Theorem 4: its
curve frames leave an O((log n)^2 / n) (part I) or O(n^{-1/rho}) (part II)
term whose size swings with the phase sequence tau_n, so its suite gates on
the residual against the limit plus its closed-form next-order term
(theorem4_rhs) and reports the leading-order residual next to it.  Because
the underlying statements are limits in n, most checks are trend checks
(the deviation must shrink along an n-list); a few absolute thresholds were
frozen after calibration runs and are kept as module constants.

Suites return a plain dict {check_id, params, n_list, metric_list, pass}
(theorem4 adds metric_list_leading) that the CLI serializes verbatim.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .scaled import ScaledComplex, sc_add, sc_from_complex, sc_mul, sc_sub
from .specfun import ln_gamma, rgamma
from .mitlef import (MLContext, _gauss_legendre, _series_kernel, combo_batch, combo_normalized,
                     combo_normalized_batch, ml_series, radius)
from .curves import (REGION_DELTA2, REGION_DELTA3, REGION_H, REGIONS, _check_region_rho,
                     asymptote_distance, phase_u, region_contains, szego_sigma)
from .zeros import Window, locate_zeros

# Calibrated absolute thresholds (frozen after pre-runs; trend checks carry
# the actual burden of proof).
THEOREM1_DEV_AT_200 = 0.05   # relative deviation ceiling at n=200 in-regime
THEOREM3_DEV_AT_200 = 0.05   # |lhs - 1/2| at lam=0, zeta=0, n=200
KN_RATIO_DEV_AT_80 = 0.15    # |ratio - 1| ceiling at n=80
LEMMA4_C1 = 1.0              # documented lower-bound constant for |J1'|
LEMMA4_SMALLNESS = 1e-2      # "o(1)" proxy ceiling at n=200
THEOREM3_GRID_SIDE = 21      # zeta grid points per side, theorem 3
THEOREM4_GRID_SIDE = 7       # zeta grid points per side, theorem 4

# The K_n contour: rays at arg = +-(pi/(2 rho) + KN_NU_MARGIN), cut at
# |t| = KN_RAY_CUTOFF in units of R_n.  Read at call time.
KN_NU_MARGIN = 0.1
KN_RAY_CUTOFF = 4.0


class RegimeError(ValueError):
    """The point violates (or straddles) the requested regime's conditions."""


class ContourError(RuntimeError):
    """The integration contour passes too close to the pole."""


@dataclass(frozen=True)
class ScalingFrame3:
    """Local frame at z = 1: zeta -> z = 1 + sqrt(2/(rho n)) zeta."""

    n: int
    rho: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("frame requires n >= 2")

    def map(self, zeta: complex) -> complex:
        return 1.0 + math.sqrt(2.0 / (self.rho * self.n)) * zeta


@dataclass(frozen=True)
class ScalingFrame4:
    """Local frame at a limit-curve point xi; its part, 'I' (sector) or 'II'
    (arc), follows from arg xi."""

    xi: complex
    n: int
    rho: float
    part: str = field(init=False)
    tau_n: float = field(init=False)

    def __post_init__(self):
        rho, xi = self.rho, complex(self.xi)
        part = _theorem4_part(xi, rho)
        if part == "I":
            if abs(abs(xi) - 1.0) < 1e-12:
                raise ValueError("part I excludes |xi| = 1")
            if abs(phase_u(xi, rho)) > 1e-9:
                raise ValueError("xi must lie on the limit curve (u(xi) = 0)")
        elif abs(abs(xi) - math.exp(-1.0 / rho)) > 1e-9:
            raise ValueError("part II requires |xi| = e^{-1/rho}")
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "tau_n", theorem4_tau(xi, rho, self.n))

    def map(self, zeta: complex) -> complex:
        n, rho, xi = self.n, self.rho, complex(self.xi)
        if self.part == "I":
            denom = (1.0 - xi ** rho) * n
            return xi * (1.0 + math.log(n) / (2.0 * denom) - (zeta - 1j * self.tau_n) / denom)
        # the e^{-zeta} limit on the arc requires the +(zeta - i tau'_n)
        # orientation: the (n+1)-st powers of the frame factor and of xi then
        # cancel their tau'_n phases instead of doubling them
        pert = (0.5 - 1.0 / rho) * math.log(n) / n
        return xi * (1.0 + pert + (zeta - 1j * self.tau_n) / (n + 1))


# --- regime formulas --------------------------------------------------------


def j_primes(z: complex, ctx: MLContext) -> tuple[ScaledComplex, ScaledComplex]:
    """J1 = e^{w^rho} Gamma(1+n/rho) / w^n and J2 = Gamma(1+n/rho) / w^{n+1},
    with w = R_n z, both in scaled form."""
    z = complex(z)
    if z == 0:
        raise ValueError("j_primes requires z != 0")
    n, rho = ctx.n, ctx.rho
    rn = ctx.radius_value
    lw = math.log(rn) + math.log(abs(z))
    phi = cmath.phase(z)
    lg = ln_gamma(1.0 + n / rho)
    wp = (rn ** rho) * (abs(z) ** rho)  # |w|^rho; moderate (~ n/rho * |z|^rho)
    j1 = ScaledComplex(wp * math.cos(rho * phi) + lg - n * lw,
                       wp * math.sin(rho * phi) - n * phi)
    j2 = ScaledComplex(lg - (n + 1) * lw, -(n + 1) * phi)
    return j1, j2


def lemma4_logmag(z: complex, ctx: MLContext) -> tuple[float, float]:
    """Leading log-magnitudes of J1, J2 from the Stirling expansions."""
    r = abs(complex(z))
    phi = abs(cmath.phase(complex(z)))
    n, rho = ctx.n, ctx.rho
    u = r ** rho * math.cos(rho * phi) - 1.0 - rho * math.log(r)
    lj1 = (0.5 * math.log(2.0 * math.pi)
           + (rho - 1.0) / (2.0 * rho) * (r ** rho * math.cos(rho * phi) - 1.0)
           + (n / rho) * u + 0.5 * math.log(n / rho))
    lj2 = (0.5 * math.log(2.0 * math.pi) + 1.0 / rho - (rho - 1.0) / (2.0 * rho)
           + (n + 1) * (-1.0 / rho - math.log(r))
           + (0.5 - 1.0 / rho) * math.log(n / rho))
    return lj1, lj2


def _regime_of(z: complex, rho: float) -> str:
    r = abs(z)
    phi = abs(cmath.phase(z))
    sector = math.pi / (2.0 * rho)
    if phi >= sector + REGION_DELTA3:
        return "exterior"
    if phi <= sector and abs(z - 1.0) >= REGION_DELTA2:
        if r > 1.0:
            return "outer_sector"
        if r < 1.0:
            return "inner_sector"
        raise RegimeError("|z| = 1 straddles the inner/outer sector split")
    raise RegimeError("z lies in none of the covered regimes")


def theorem1_rhs(z: complex, ctx: MLContext) -> ScaledComplex:
    """Leading right-hand side of the expansion in z's regime, o(1) factors = 1;
    in the exterior regime the J2 term carries S (_algebraic_series)."""
    z = complex(z)
    if z == 0 or z == 1:
        raise RegimeError("z = 0 and z = 1 are excluded")
    regime = _regime_of(z, ctx.rho)
    j1, j2 = j_primes(z, ctx)
    pole = sc_from_complex(-z / (1.0 - z))
    if regime == "outer_sector":
        coef = -ctx.lam * ctx.rho
        lead = sc_mul(sc_from_complex(coef), j1)
    elif regime == "inner_sector":
        coef = (1.0 - ctx.lam) * ctx.rho
        lead = sc_mul(sc_from_complex(coef), j1)
    else:
        coef = ((ctx.lam - 1.0) * rgamma(1.0 - 1.0 / ctx.rho)
                * _algebraic_series(ctx.radius_value * z, ctx.rho))
        lead = sc_mul(sc_from_complex(coef), j2)
    return sc_add(lead, pole)


def _algebraic_series(w, rho: float):
    """S = 1 + sum_{k=2}^{floor(rho)+1} Gamma(1-1/rho) / (Gamma(1-k/rho)
    w^{k-1}): the algebraic expansion of E relative to its first term, down
    to order |w|^{-rho} (1/n at w = R_n z); w a scalar or an array."""
    return 1.0 + sum(rgamma(1.0 - k / rho) / (rgamma(1.0 - 1.0 / rho) * w ** (k - 1))
                     for k in range(2, math.floor(rho) + 2))


def theorem1_check(z: complex, ctx: MLContext) -> float:
    """Relative deviation between the normalized combination and its regime
    formula; tends to 0 in n."""
    rhs = theorem1_rhs(z, ctx)
    lhs = combo_normalized(z, ctx)
    diff = sc_sub(lhs, rhs)
    denom = max(lhs.log_mag, rhs.log_mag)
    if denom == -math.inf:
        return 0.0
    return math.exp(diff.log_mag - denom)


# --- contour integral -------------------------------------------------------


def _graded_panels(a: float, b: float, p: float, d: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (panels x 48) of both rules on panels of [a, b] that
    grow d, 2d, 4d, ... away from p, up to 1/8.  With p the point nearest the
    pole and d its distance, each panel lies about its own length from the
    pole.  Under the 1/8 cap the 32-point rule resolves the saddle peak, of
    width (rho n)^{-1/2}, to rounding wherever e^{R_n^rho} is finite."""
    k = max(0, math.ceil(math.log2(0.125 / d)))
    reach = np.cumsum(np.minimum(d * 2.0 ** np.arange(k + math.ceil((b - a) / 0.125)), 0.125))
    ends = np.unique(np.concatenate([[a, p, b], p - reach[reach < p - a],
                                     p + reach[reach < b - p]]))
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    x, w = _gauss_legendre()
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def _kn_integral(z: complex, ctx: MLContext) -> tuple[complex, float]:
    """Integral of e^{wp t^rho} t^{-(n+1)} / (t - z), wp = R_n^rho, over the
    arc |t| = 1, |arg t| <= nu, and the rays arg t = +-nu out to
    KN_RAY_CUTOFF (t-plane, zeta = R_n t), nu = pi/(2 rho) + KN_NU_MARGIN,
    with an absolute error estimate that includes a bound on the cut-off ray
    tails.  The contour is checked: nu <= pi/rho, cos(rho nu) < 0, and the
    pole at least 1e-6 from the arc and the whole rays by exact distance.
    In L = log t the integrand is e^{wp e^{rho L} - n L} / (e^L - z) dL,
    evaluated once on all nodes of the panels graded toward each piece's
    point nearest the pole."""
    n, rho = ctx.n, ctx.rho
    nu, cut = math.pi / (2.0 * rho) + KN_NU_MARGIN, KN_RAY_CUTOFF
    crn = math.cos(rho * nu)
    if not (nu <= math.pi / rho and crn < 0.0):
        raise ValueError("the K_n rays need nu <= pi/rho and cos(rho nu) < 0")
    th = min(max(cmath.phase(z), -nu), nu)  # nearest arc point
    rays = [(sign, cmath.exp(1j * sign * nu)) for sign in (1.0, -1.0)]
    near = [min(max((z * e.conjugate()).real, 1.0), cut) for _, e in rays]
    d_ray = [abs(s * e - z) for s, (_, e) in zip(near, rays)]
    d_arc = abs(cmath.exp(1j * th) - z)
    d_tail = min(abs(max((z * e.conjugate()).real, cut) * e - z) for _, e in rays)
    if min(d_arc, d_tail, *d_ray) < 1e-6:
        raise ContourError("pole within 1e-6 R_n of the contour")

    x, w = _graded_panels(-nu, nu, th, d_arc)
    L, dL = [1j * x], [1j * w]
    for (sign, _), s, d in zip(rays, near, d_ray):
        x, w = _graded_panels(1.0, cut, s, d)
        L.append(np.log(x) + 1j * sign * nu)
        dL.append(sign * w / x)
    L, dL = np.concatenate(L), np.concatenate(dL)
    wp = ctx.radius_value ** rho  # R_n^rho, moderate
    f = np.exp(wp * np.exp(rho * L) - n * L) / (np.exp(L) - z) * dL
    q16, q32 = f[:, :16].sum(), f[:, 16:].sum()

    # tail of each ray beyond the cutoff: |integrand| <= e^{wp s^rho cos(rho nu)}
    # s^{-(n+1)} / d_tail, and the exponent decays at rate >= wp rho cut^{rho-1}|cos|
    tail_log = wp * cut ** rho * crn - (n + 1) * math.log(cut) - math.log(d_tail)
    tail = math.exp(min(tail_log, 700.0)) / (wp * rho * cut ** (rho - 1.0) * abs(crn))
    return complex(q32), float(abs(q16 - q32)) + 2.0 * tail


def kn_quadrature(z: complex, ctx: MLContext) -> tuple[complex, float]:
    """Contour integral of e^{zeta^rho} zeta^{-(n+1)} / (zeta - R_n z) over
    the arc and truncated rays, rescaled to the unit-radius plane.

    Returns (value, estimated absolute error).  The value is the 32-point
    Gauss-Legendre rule on panels graded toward the contour point nearest
    the pole; the error is its distance from the 16-point rule on the same
    panels plus an analytic bound on the truncated ray tails.
    """
    total, err = _kn_integral(complex(z), ctx)
    scale = math.exp(-(ctx.n + 1) * math.log(ctx.radius_value))  # zeta = R_n t
    return total * scale, err * scale


def kn_ratio(z: complex, ctx: MLContext) -> complex:
    """rho (R_n z)^{n+1} K_n / (2 pi i), divided by the predicted
    R_n^n z^n z / ((1-z) Gamma(1+n/rho)); tends to 1 on the good set."""
    z = complex(z)
    n, rho = ctx.n, ctx.rho
    rn = ctx.radius_value
    # the integral of kn_quadrature, kept un-rescaled; combined in logs
    q, _err = _kn_integral(z, ctx)
    if q == 0:
        return 0.0
    # ratio = rho R_n Gamma(1+n/rho) (1-z) K_n / (2 pi i), K_n = R_n^{-(n+1)} Q
    lg = ln_gamma(1.0 + n / rho) - n * math.log(rn)
    val = cmath.log(q) + lg + cmath.log(rho * (1.0 - z) / (2j * math.pi))
    return cmath.exp(val)


# --- scaling-limit pairs ----------------------------------------------------


def _complex_like(zeta, val: np.ndarray):
    """val as a complex for a scalar zeta, as an array for an array.  Scalars
    run as 1-element batches: numpy may round 0-d complex math differently."""
    return complex(val[0]) if np.ndim(zeta) == 0 else val


def theorem3_pair(zeta, ctx: MLContext):
    """Exact finite-n normalized combination at the z = 1 frame vs its
    erfc limit e^{zeta^2}(erfc(zeta)/2 - lam); zeta a scalar or an array."""
    zt = np.atleast_1d(np.asarray(zeta, dtype=complex))
    return (_complex_like(zeta, _theorem3_lhs(zt, ctx)),
            _complex_like(zeta, _theorem3_rhs(zt, ctx.lam)))


def _theorem3_lhs(zt: np.ndarray, ctx: MLContext) -> np.ndarray:
    """The normalized combination of theorem3_pair on the array zt."""
    z = ScalingFrame3(ctx.n, ctx.rho).map(zt)
    log_mag, phase = combo_batch(z, ctx)
    # normalization by (1 + a zeta)^n E(R_n); E(R_n) by the direct series
    e_rn = ml_series(ctx.radius_value, ctx.rho)
    lz = np.log(z)
    return np.exp(log_mag - ctx.n * lz.real - e_rn.log_mag
                  + 1j * (phase - ctx.n * lz.imag - e_rn.phase))


def _theorem3_rhs(zt: np.ndarray, lam: complex) -> np.ndarray:
    """The limit of theorem3_pair on the array zt, E(-zeta)/2 - lam e^{zeta^2}
    with E at rho = 2, from one kernel batch: E(-zeta) = e^{zeta^2} erfc(zeta)."""
    e_log, e_ph, _floor = _series_kernel(-zt, 0, 2.0, 0.0, 0.5)
    return np.exp(e_log + 1j * e_ph) - lam * np.exp(zt * zt)


def _theorem4_part(xi: complex, rho: float) -> str:
    """'I' for 0 < arg xi < pi/(2 rho) (the sector branches), 'II' for
    pi/(2 rho) < arg xi <= pi (the arc)."""
    phi, sector = cmath.phase(xi), math.pi / (2.0 * rho)
    if 0.0 < phi < sector:
        return "I"
    if sector < phi <= math.pi:
        return "II"
    raise ValueError("theorem 4 needs 0 < arg xi <= pi with arg xi != pi/(2 rho)")


def theorem4_tau(xi: complex, rho: float, n: int) -> float:
    """The phase-alignment sequence, reduced to (-pi, pi].

    Part 'I' uses tau = |xi|^rho sin(rho phi) - rho phi (the curve-consistent
    exponent), times n / rho; part 'II' uses (n+1) phi.
    """
    xi = complex(xi)
    phi = cmath.phase(xi)
    if _theorem4_part(xi, rho) == "I":
        raw = (abs(xi) ** rho * math.sin(rho * phi) - rho * phi) / rho * n
    else:
        raw = (n + 1) * phi
    red = math.remainder(raw, 2.0 * math.pi)
    if red <= -math.pi:
        red += 2.0 * math.pi
    return red


def _theorem4_coef(frame: ScalingFrame4, lam: complex) -> complex:
    """Coefficient c of the exponential part of the theorem 4 limit."""
    if frame.part == "I":
        return (1.0 - lam) if abs(frame.xi) < 1.0 else -lam
    return lam - 1.0


def theorem4_rhs(zeta, frame: ScalingFrame4, lam: complex, next_order: bool = False):
    """Limit of the normalized combination at the curve frame, optionally
    with its next-order term; zeta a scalar or an array.

    Leading order (next_order=False), o(1) factors set to 1:
      part I:  c sqrt(2 pi rho) e^{e1 (xi^rho - 1)} e^zeta - xi/(1-xi),
               c = 1 - lam inside the unit disk, -lam outside;
      part II: (lam - 1) Gamma(1-1/rho)^{-1} sqrt(2 pi) rho^{1/rho - 1/2}
               e^{1/rho - e1} e^{-zeta} - xi/(1-xi),
    with e1 = (rho-1)/(2 rho).

    next_order=True multiplies the exponential part by e^{delta} S and takes
    the pole part at the frame point z with its weight correction:
      P(z) = -z/(1-z) + z/(rho n (1-z)^3).
    Pieces, with e2 = 1/4 - rho/12 - 1/(6 rho):
      * Stirling: log R_n = (1/rho) log(n/rho) + e1/n + e2/n^2, hence
        R_n^rho = n/rho + e1 + (e2 + rho e1^2/2)/n, and
        ln Gamma(1 + n/rho) carries rho/(12 n).
      * part I frame: z = xi (1 + A/n), A = (log(n)/2 - zeta + i tau_n)
        / (1 - xi^rho).  Expanding R_n^rho z^rho - n log z in A/n, with
        the Stirling terms above, gives
          delta = [A^2 ((rho-1) xi^rho + 1)/2 + (rho-1) xi^rho A/2
                   + e2 (xi^rho - 1) + rho e1^2 xi^rho/2 + rho/12] / n
                  + [A^3 (xi^rho (rho-1)(rho-2)/6 - 1/3)
                     + xi^rho (rho-1)^2 A^2/4] / n^2;
        the A^3 term is the third order of (n/rho) z^rho - n log z, the
        last one e1 times the second order of z^rho.  Without the 1/n^2
        terms the residual rises between nearby n where |tau_n| is near
        pi.  S = 1 (the algebraic terms of E are exponentially small in
        the sector).
      * part II frame: (n+1) log(z/xi) = B + (1/2 - 1/rho) log(n)/n
        - B^2/(2n) + O(B^3/n^2) with B = (1/2 - 1/rho) log n + zeta
        - i tau'_n; with the Stirling terms above,
        Gamma(1 + n/rho) / (R_n z)^{n+1} gives
          delta = [B^2/2 - (1/2 - 1/rho) log n + rho/12 - e1 - e2] / n,
        and S = 1 + sum_{k=2}^{floor(rho)+1} Gamma(1-1/rho)
        / (Gamma(1-k/rho) (R_n z)^{k-1}) carries the next terms of the
        algebraic expansion of E, down to order 1/n (they are of order
        n^{-(k-1)/rho}; at rho = 2 the k = 2 term vanishes).
      * pole: the tail weights R_n^j Gamma(1+n/rho) / Gamma(1+(n+j)/rho)
        = 1 - j(j+1)/(2 rho n) + O(j^4/n^2), summed against z^j (the
        section's weights outside the disk give the same P).
    delta is O((log n + |tau_n|)^2 / n) and S - 1 is O(n^{-1/rho}), so the
    correction is closed-form, has no fitted constant, and tends to 0.
    """
    zt = np.atleast_1d(np.asarray(zeta, dtype=complex))
    rho, n, xi = frame.rho, frame.n, complex(frame.xi)
    e1 = (rho - 1.0) / (2.0 * rho)
    coef = _theorem4_coef(frame, lam)
    if frame.part == "I":
        xr = cmath.exp(rho * cmath.log(xi))  # principal xi^rho
        # constant exponent (rho-1)/(2 rho): the value consistent with the
        # Stirling expansion of |J1| (and confirmed numerically)
        amp = math.sqrt(2.0 * math.pi * rho) * cmath.exp(e1 * (xr - 1.0)) * np.exp(zt)
    else:
        # the e^{1/rho} factor comes with the Stirling expansion of |J2| on
        # the arc |xi| = e^{-1/rho} (confirmed numerically at several rho)
        amp = (math.sqrt(2.0 * math.pi * math.exp((1.0 - rho) / rho))
               * math.exp(1.0 / rho)
               * rgamma(1.0 - 1.0 / rho) / rho ** (0.5 - 1.0 / rho)) * np.exp(-zt)
    if not next_order:
        return _complex_like(zeta, coef * amp - xi / (1.0 - xi))
    z = frame.map(zt)
    e2 = 0.25 - rho / 12.0 - 1.0 / (6.0 * rho)
    if frame.part == "I":
        a = (0.5 * math.log(n) - zt + 1j * frame.tau_n) / (1.0 - xr)
        delta = ((a * a * ((rho - 1.0) * xr + 1.0) / 2.0 + (rho - 1.0) * xr * a / 2.0
                  + e2 * (xr - 1.0) + rho * e1 * e1 * xr / 2.0 + rho / 12.0) / n
                 + (a ** 3 * (xr * (rho - 1.0) * (rho - 2.0) / 6.0 - 1.0 / 3.0)
                    + xr * (rho - 1.0) ** 2 * a * a / 4.0) / n ** 2)
        series = 1.0
    else:
        lead = (0.5 - 1.0 / rho) * math.log(n)
        b = lead + zt - 1j * frame.tau_n
        delta = (b * b / 2.0 - lead + rho / 12.0 - e1 - e2) / n
        series = _algebraic_series(radius(n, rho) * z, rho)
    pole = -z / (1.0 - z) + z / (rho * n * (1.0 - z) ** 3)
    return _complex_like(zeta, coef * amp * np.exp(delta) * series + pole)


def theorem4_pair(zeta, frame: ScalingFrame4, lam: complex):
    """Exact finite-n normalized combination at the curve frame vs its
    leading-order limit (theorem4_rhs); zeta a scalar or an array."""
    ctx = MLContext(rho=frame.rho, n=frame.n, lam=lam)
    z = frame.map(np.atleast_1d(np.asarray(zeta, dtype=complex)))
    log_mag, phase = combo_normalized_batch(z, ctx)
    return _complex_like(zeta, np.exp(log_mag + 1j * phase)), theorem4_rhs(zeta, frame, lam)


# --- suites -----------------------------------------------------------------

_T1_POINTS = {
    "outer_sector": (2.5, 1.4 * cmath.exp(0.3j)),
    "inner_sector": (0.3, 0.6 * cmath.exp(-0.4j)),
    "exterior": (0.5 * cmath.exp(2.0j), 1.2 * cmath.exp(2.8j)),
}

_OMEGA_SAMPLES = {
    "omega1": (0.3, 0.5 * cmath.exp(0.3j), 0.7),
    "omega2": (cmath.exp(0.35j), 0.95 * cmath.exp(0.35j), 1.02 * cmath.exp(0.4j)),
    "omega3": (1.2 * cmath.exp(1.5j), 0.9 * cmath.exp(2.5j), 2.0 * cmath.exp(1j * math.pi)),
    "omega4": (0.3 * cmath.exp(1j * math.pi), 0.35 * cmath.exp(2.0j), 0.2 * cmath.exp(-1.2j)),
    "omega5": (2.0, 1.5 * cmath.exp(0.2j), 1.8 * cmath.exp(-0.3j)),
}

_KN_POINTS = (0.4, 2.5, 0.6 * cmath.exp(0.5j), 0.5 * cmath.exp(2.0j),
              1.3 * cmath.exp(-2.2j), 0.7 * cmath.exp(1j * math.pi))


def _grid(radius_: float, side: int) -> np.ndarray:
    """side x side grid on the bounding square, masked to |zeta| <= radius."""
    xs = np.linspace(-radius_, radius_, side)
    g = (xs[None, :] + 1j * xs[:, None]).ravel()
    return g[np.abs(g) <= radius_ + 1e-12]


def _nonempty(**lists) -> None:
    """A suite given an empty list would check nothing and pass: refuse it."""
    if empty := [name for name, values in lists.items() if not len(values)]:
        raise ValueError(f"{empty[0]} must not be empty")


def suite_theorem1(rho: float = 2.0, lam: complex = 0.5,
                   n_list: tuple[int, ...] = (50, 200)) -> dict:
    _nonempty(n_list=n_list)
    devs = []
    ok = True
    for n in n_list:
        ctx = MLContext(rho=rho, n=n, lam=lam)
        row = [theorem1_check(z, ctx) for pts in _T1_POINTS.values() for z in pts]
        devs.append(row)
    for j in range(len(devs[0])):
        col = [devs[i][j] for i in range(len(n_list))]
        # deviations already at the rounding floor cannot shrink further
        if any(col[i + 1] > max(col[i], 1e-9) for i in range(len(col) - 1)):
            ok = False
    if n_list[-1] >= 200 and max(devs[-1]) > THEOREM1_DEV_AT_200:
        ok = False
    return {"check_id": "theorem1", "params": {"rho": rho, "lam": _jlam(lam),
            "delta2": REGION_DELTA2, "delta3": REGION_DELTA3},
            "n_list": list(n_list),
            "metric_list": [max(row) for row in devs], "pass": ok}


def suite_theorem2(rho: float = 2.0, lam: complex = 0.5,
                   n_list: tuple[int, ...] = (50, 100),
                   zero_sets: dict | None = None) -> dict:
    """No zero located in the acceptance window [-1.8, 1.8]^2 may fall in
    any of the five excluded regions.

    zero_sets, if given, maps n -> ZeroSet and skips relocating.
    """
    _nonempty(n_list=n_list)
    window = Window(-1.8, 1.8, -1.8, 1.8)
    _check_region_rho(rho)  # before any zero is located
    violations = []
    for n in n_list:
        ctx = MLContext(rho=rho, n=n, lam=lam)
        zs = zero_sets.get(n) if zero_sets else None
        if zs is None:
            zs = locate_zeros(ctx, window)
        bad = sum(1 for rec in zs.records
                  for region in REGIONS if region_contains(rec.location, region, rho))
        violations.append(bad)
    return {"check_id": "theorem2", "params": {"rho": rho, "lam": _jlam(lam),
            "h": REGION_H, "delta2": REGION_DELTA2, "delta3": REGION_DELTA3,
            "window": [window.re_min, window.re_max, window.im_min, window.im_max]},
            "n_list": list(n_list), "metric_list": violations,
            "pass": all(v == 0 for v in violations)}


def suite_theorem3(rho: float = 2.0, lam: complex = 0.0,
                   n_list: tuple[int, ...] = (50, 100, 200)) -> dict:
    _nonempty(n_list=n_list)
    # zeta = 0 (z = 1) rides last in each grid for the centre check at lam = 0
    zetas = np.append(_grid(2.0, THEOREM3_GRID_SIDE), 0.0)
    # the limit does not depend on n
    rhs = _theorem3_rhs(zetas, lam)
    sups = []
    for n in n_list:
        lhs = _theorem3_lhs(zetas, MLContext(rho=rho, n=n, lam=lam))
        sups.append(float(np.abs(lhs - rhs)[:-1].max()))
    ok = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    if lam == 0 and n_list[-1] >= 200 and abs(lhs[-1] - 0.5) > THEOREM3_DEV_AT_200:
        ok = False
    return {"check_id": "theorem3", "params": {"rho": rho, "lam": _jlam(lam),
            "grid_side": THEOREM3_GRID_SIDE}, "n_list": list(n_list),
            "metric_list": sups, "pass": ok}


def theorem4_frames(rho: float, n: int) -> list[ScalingFrame4]:
    """The three acceptance frames: inner/outer sector points at phi = 0.25
    and the arc point at phi = 2."""
    phi = 0.25
    inner = szego_sigma(phi, rho, "inner") * cmath.exp(1j * phi)
    outer = szego_sigma(phi, rho, "outer") * cmath.exp(1j * phi)
    arc = math.exp(-1.0 / rho) * cmath.exp(2.0j)
    return [ScalingFrame4(inner, n, rho),
            ScalingFrame4(outer, n, rho),
            ScalingFrame4(arc, n, rho)]


def suite_theorem4(rho: float = 2.0, lam_list: tuple[complex, ...] = (0.0, 1.0),
                   n_list: tuple[int, ...] = (75, 300)) -> dict:
    """Local limits at the three curve frames, per (lam, frame).

    The exact lhs is evaluated as one array per grid and compared with both
    the leading-order limit and the limit with its next-order term
    (theorem4_rhs).  The verdict gates on the next-order residual: the
    leading-order one carries an O((log n + |tau_n|)^2 / n) term (part I)
    or an O(n^{-1/rho}) term (part II) that swings with the phase tau_n,
    so it need not shrink between two n even though lhs converges.
    metric_list holds the next-order sups at n_list[-1] and
    metric_list_leading the leading-order ones.
    """
    _nonempty(lam_list=lam_list, n_list=n_list)
    zetas = _grid(1.5, THEOREM4_GRID_SIDE)
    frames = [theorem4_frames(rho, n) for n in n_list]
    metrics = []
    metrics_leading = []
    ok = True
    for lam in lam_list:
        for fi in range(3):
            sups = []
            sups_leading = []
            variations = []
            for frame in (f[fi] for f in frames):
                lhs, rhs = theorem4_pair(zetas, frame, lam)
                sups_leading.append(float(np.abs(lhs - rhs).max()))
                rhs = theorem4_rhs(zetas, frame, lam, next_order=True)
                sups.append(float(np.abs(lhs - rhs).max()))
                mags = np.abs(lhs)
                variations.append(mags.max() - mags.min())
            if any(sups[i + 1] > sups[i] for i in range(len(sups) - 1)):
                ok = False
            # lam values that kill the exponential coefficient leave a
            # zeta-constant limit; the exact lhs variation must shrink too
            if _theorem4_coef(frames[0][fi], lam) == 0 and any(
                    variations[i + 1] > variations[i] for i in range(len(variations) - 1)):
                ok = False
            metrics.append(sups[-1])
            metrics_leading.append(sups_leading[-1])
    return {"check_id": "theorem4", "params": {"rho": rho,
            "lam_list": [_jlam(l) for l in lam_list], "grid_side": THEOREM4_GRID_SIDE},
            "n_list": list(n_list), "metric_list": metrics,
            "metric_list_leading": metrics_leading, "pass": ok}


def suite_kn(rho: float = 2.0, n_list: tuple[int, ...] = (20, 80)) -> dict:
    _nonempty(n_list=n_list)
    devs = []
    for n in n_list:
        ctx = MLContext(rho=rho, n=n, lam=0.5)
        devs.append([abs(kn_ratio(z, ctx) - 1.0) for z in _KN_POINTS])
    ok = all(devs[-1][j] <= devs[0][j] for j in range(len(_KN_POINTS)))
    if n_list[-1] >= 80 and max(devs[-1]) > KN_RATIO_DEV_AT_80:
        ok = False
    return {"check_id": "kn", "params": {"rho": rho},
            "n_list": list(n_list),
            "metric_list": [max(row) for row in devs], "pass": ok}


def suite_lemma4(rho: float = 2.0, n_list: tuple[int, ...] = (100, 200)) -> dict:
    _nonempty(n_list=n_list)
    for k, pts in _OMEGA_SAMPLES.items():  # the samples lie in their regions at rho = 2
        for z in pts:
            if not region_contains(z, k, rho):
                raise RegimeError(f"sample {z} lies outside {k} at rho = {rho}")
    ok = True
    metrics = []
    for n in n_list:
        ctx = MLContext(rho=rho, n=n, lam=0.5)
        floor1 = math.log(LEMMA4_C1) + 0.5 * math.log(n / rho)
        growth4 = n * math.log1p(REGION_H * math.exp(1.0 / rho) / 2.0)
        worst = -math.inf
        for k, pts in _OMEGA_SAMPLES.items():
            for z in pts:
                j1, j2 = j_primes(z, ctx)
                if k in ("omega1", "omega5") and j1.log_mag < floor1:
                    ok = False
                if k == "omega2" and n >= 200 and j1.log_mag > math.log(LEMMA4_SMALLNESS):
                    ok = False
                if k == "omega4" and j2.log_mag < growth4:
                    ok = False
                if k == "omega3" and n >= 200 and j2.log_mag > math.log(LEMMA4_SMALLNESS):
                    ok = False
                worst = max(worst, -j1.log_mag + floor1 if k in ("omega1", "omega5")
                            else -j2.log_mag + growth4 if k == "omega4" else -math.inf)
        metrics.append(worst)
    # the explicit Stirling expansion must track |J1'| closely at large n
    ctx = MLContext(rho=rho, n=400, lam=0.5)
    z = 1.5 * cmath.exp(1j * math.pi / 8.0)
    j1, _ = j_primes(z, ctx)
    lj1, _ = lemma4_logmag(z, ctx)
    if abs(j1.log_mag - lj1) > 0.01 * abs(j1.log_mag):
        ok = False
    return {"check_id": "lemma4", "params": {"rho": rho, "h": REGION_H, "C1": LEMMA4_C1},
            "n_list": list(n_list), "metric_list": metrics, "pass": ok}


def suite_lemma1(rho: float = 2.0,
                 r_list: tuple[float, ...] = (10.0, 30.0, 100.0, 300.0)) -> dict:
    """Outer-branch points approach the sector rays no slower than the
    explicit envelope (1 + rho log r) / (r^{rho-1} cos(pi/(2 rho)))."""
    _nonempty(r_list=r_list)
    dists = []
    ok = True
    for r in r_list:
        # phi on the curve at radius r: r^rho cos(rho phi) = 1 + rho log r
        c = (1.0 + rho * math.log(r)) / r ** rho
        phi = math.acos(min(1.0, c)) / rho
        z = r * cmath.exp(1j * phi)
        d = asymptote_distance(z, rho)
        bound = (1.0 + rho * math.log(r)) / (r ** (rho - 1.0)
                                             * math.cos(math.pi / (2.0 * rho)))
        if d > bound:
            ok = False
        dists.append(d)
    if any(dists[i + 1] >= dists[i] for i in range(len(dists) - 1)):
        ok = False
    return {"check_id": "lemma1", "params": {"rho": rho, "r_list": list(r_list)},
            "n_list": [], "metric_list": dists, "pass": ok}


def _jlam(lam: complex) -> list[float]:
    lam = complex(lam)
    return [lam.real, lam.imag]


SUITES = {
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "theorem3": suite_theorem3,
    "theorem4": suite_theorem4,
    "lemma1": suite_lemma1,
    "lemma4": suite_lemma4,
    "kn": suite_kn,
}
