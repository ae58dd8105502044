"""The generalized Szego curve S(rho), auxiliary level curves, and regions.

The scalar field u(r e^{i phi}) = r^rho cos(rho phi) - 1 - rho log r
vanishes on the non-circular part of S(rho) inside the sector
|phi| <= pi/(2 rho); the curve is completed by the circular arc of radius
e^{-1/rho}.  The outer root of u = 0 (r >= 1) is kept as a separately
labelled branch since the large-n zero sets accumulate on it too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "SzegoBranch",
    "CurvePoint",
    "RegionSpec",
    "BracketError",
    "phase_u",
    "szego_sigma",
    "szego_curve",
    "classic_szego_indicator",
    "t_curve_r",
    "s_h_level_r",
    "region_contains",
    "asymptote_distance",
]

RESIDUAL_TOL = 1e-12


class BracketError(RuntimeError):
    """No sign change found for a requested curve root."""


class SzegoBranch(str, Enum):
    INNER = "inner"
    OUTER = "outer"
    ARC = "arc"


@dataclass(frozen=True)
class CurvePoint:
    phi: float
    r: float
    branch: SzegoBranch

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


@dataclass(frozen=True)
class RegionSpec:
    """One of the five zero-free regions with its margin parameters."""

    region_id: str  # "omega1" .. "omega5"
    rho: float
    h: float = 0.2
    delta2: float = 0.2
    delta3: float = 0.2

    def __post_init__(self):
        if self.region_id not in {"omega1", "omega2", "omega3", "omega4", "omega5"}:
            raise ValueError(f"unknown region id {self.region_id!r}")
        if not self.rho > 1.0:
            raise ValueError("rho must be > 1")
        if min(self.h, self.delta2, self.delta3) <= 0.0:
            raise ValueError("region parameters must be strictly positive")
        if not self.delta3 < math.pi / (2.0 * self.rho):
            raise ValueError("delta3 must be below pi/(2 rho)")


def phase_u(z: complex, rho: float) -> float:
    """u(r e^{i phi}) = r^rho cos(rho phi) - 1 - rho log r."""
    z = complex(z)
    if z == 0:
        raise ValueError("phase field is undefined at z = 0")
    r = abs(z)
    phi = cmath.phase(z)
    return r**rho * math.cos(rho * phi) - 1.0 - rho * math.log(r)


def _u_ray(s: float, c: float, rho: float, offset: float = 0.0) -> float:
    return s**rho * c - 1.0 - rho * math.log(s) + offset


def _polish_ray_root(s: float, c: float, rho: float, offset: float) -> float:
    # a couple of Newton steps to push the residual to ~1e-15
    for _ in range(3):
        f = _u_ray(s, c, rho, offset)
        df = rho * s ** (rho - 1.0) * c - rho / s
        if df == 0.0:
            break
        step = f / df
        s -= step
        if abs(step) < 1e-16 * s:
            break
    return s


def _ray_root(c: float, rho: float, offset: float, branch: SzegoBranch) -> float:
    """Root of s^rho c - 1 - rho log s + offset = 0 on the given side of
    the ray minimum s* = c^(-1/rho)."""
    from scipy.optimize import brentq  # deferred: scipy.optimize costs ~20 MiB at import

    if c <= 0.0:
        raise BracketError("cos(rho phi) must be positive for a two-root bracket")
    s_star = c ** (-1.0 / rho)
    u_min = _u_ray(s_star, c, rho, offset)
    if u_min > 0.0:
        raise BracketError(
            f"level {offset:g} not attained on this ray (minimum {u_min:.3g} > 0)"
        )
    if branch == SzegoBranch.INNER:
        lo = s_star * 1e-6
        while _u_ray(lo, c, rho, offset) < 0.0:
            lo *= 0.1
            if lo < 1e-290:
                raise BracketError("no inner bracket found")
        s = brentq(_u_ray, lo, s_star, args=(c, rho, offset), xtol=1e-15, rtol=8.9e-16)
    else:
        hi = 2.0 * s_star
        while _u_ray(hi, c, rho, offset) < 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise BracketError("no outer bracket found")
        s = brentq(_u_ray, s_star, hi, args=(c, rho, offset), xtol=1e-15, rtol=8.9e-16)
    return _polish_ray_root(s, c, rho, offset)


def szego_sigma(phi: float, rho: float, branch: SzegoBranch | str) -> float:
    """Radius sigma(phi) of S(rho) on the ray arg z = phi.

    The inner branch lives on |phi| <= pi/(2 rho) with sigma in
    [e^{-1/rho}, 1]; the outer branch requires |phi| < pi/(2 rho) and has
    sigma >= 1 (it diverges at the boundary angle).
    """
    branch = SzegoBranch(branch)
    if branch == SzegoBranch.ARC:
        return math.exp(-1.0 / rho)
    bound = math.pi / (2.0 * rho)
    if abs(phi) > bound + 1e-15:
        raise ValueError(f"|phi| must be <= pi/(2 rho) = {bound:g}")
    if phi == 0.0:
        return 1.0  # double root; Newton would stall here
    c = math.cos(rho * phi)
    if abs(c) < 1e-15:
        if branch == SzegoBranch.OUTER:
            raise ValueError("outer branch diverges at |phi| = pi/(2 rho)")
        return math.exp(-1.0 / rho)
    return _ray_root(c, rho, 0.0, branch)


def s_h_level_r(phi: float, rho: float, h: float, branch: SzegoBranch | str) -> float:
    """Radius of the level curve u = -h/2 on the ray arg z = phi."""
    if h <= 0.0:
        raise ValueError("h must be > 0")
    branch = SzegoBranch(branch)
    bound = math.pi / (2.0 * rho)
    if abs(phi) > bound + 1e-15:
        raise ValueError(f"|phi| must be <= pi/(2 rho) = {bound:g}")
    c = math.cos(rho * phi)
    if abs(c) < 1e-15:
        if branch == SzegoBranch.OUTER:
            raise BracketError("outer root does not exist at |phi| = pi/(2 rho)")
        return math.exp((h / 2.0 - 1.0) / rho)
    return _ray_root(c, rho, h / 2.0, branch)


def szego_curve(rho: float, samples_per_branch: int, r_max: float = 10.0) -> list[CurvePoint]:
    """Ordered polar samples of S(rho): inner branch, circular arc, outer branch.

    The outer branch is truncated where its radius reaches r_max (it is
    unbounded, approaching the rays arg z = +-pi/(2 rho) asymptotically).
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    bound = math.pi / (2.0 * rho)
    pts: list[CurvePoint] = []
    for i in range(samples_per_branch):
        phi = -bound + 2.0 * bound * i / (samples_per_branch - 1)
        pts.append(CurvePoint(phi, szego_sigma(phi, rho, SzegoBranch.INNER), SzegoBranch.INNER))
    r_arc = math.exp(-1.0 / rho)
    for i in range(samples_per_branch):
        phi = bound + (2.0 * math.pi - 2.0 * bound) * i / (samples_per_branch - 1)
        pts.append(CurvePoint(phi, r_arc, SzegoBranch.ARC))
    # angle at which the outer radius hits r_max: cos(rho phi) = (1 + rho log r)/r^rho
    c_edge = (1.0 + rho * math.log(r_max)) / r_max**rho
    if c_edge >= 1.0:
        raise ValueError("r_max too small for an outer branch")
    phi_edge = math.acos(c_edge) / rho
    for i in range(samples_per_branch):
        phi = -phi_edge + 2.0 * phi_edge * i / (samples_per_branch - 1)
        pts.append(CurvePoint(phi, szego_sigma(phi, rho, SzegoBranch.OUTER), SzegoBranch.OUTER))
    return pts


def classic_szego_indicator(z: complex) -> float:
    """|z e^{1-z}|; the classical curve for e^z is the level set = 1."""
    z = complex(z)
    return abs(z) * math.exp(1.0 - z.real)


def t_curve_r(phi: float, rho: float) -> float:
    """Radius of the curve r^rho = rho phi / sin(rho phi), |phi| < pi/rho."""
    if abs(phi) >= math.pi / rho:
        raise ValueError("t_curve_r requires |phi| < pi/rho")
    x = rho * phi
    if abs(x) < 1e-8:
        # removable singularity: x/sin x = 1 + x^2/6 + O(x^4)
        ratio = 1.0 + x * x / 6.0
    else:
        ratio = x / math.sin(x)
    return ratio ** (1.0 / rho)


def region_contains(z: complex, spec: RegionSpec) -> bool:
    """Membership in one of the zero-free regions (boundaries included)."""
    z = complex(z)
    if z == 0:
        raise ValueError("regions exclude z = 0")
    r = abs(z)
    phi = abs(cmath.phase(z))
    rho, h, d2, d3 = spec.rho, spec.h, spec.delta2, spec.delta3
    sector = math.pi / (2.0 * rho)
    u = phase_u(z, rho)
    if spec.region_id == "omega1":
        return r <= 1.0 and abs(z - 1.0) >= d2 and phi <= sector - d3 and u >= 0.0
    if spec.region_id == "omega2":
        return phi <= sector - d3 and u <= -h
    if spec.region_id == "omega3":
        return r >= math.exp(-1.0 / rho) + h and phi >= sector + d3
    if spec.region_id == "omega4":
        return r <= math.exp(-1.0 / rho) - h and phi >= sector + d3
    # omega5
    return r >= 1.0 and phi <= sector - d3 and u >= h


def asymptote_distance(z: complex, rho: float) -> float:
    """Euclidean distance from z to the nearer ray arg z = +-pi/(2 rho)."""
    z = complex(z)
    if z == 0:
        raise ValueError("distance from the origin is degenerate")
    best = math.inf
    for sign in (1.0, -1.0):
        ang = sign * math.pi / (2.0 * rho)
        d = cmath.exp(1j * ang)
        t = z.real * d.real + z.imag * d.imag
        if t >= 0.0:
            dist = abs(z - t * d)
        else:
            dist = abs(z)
        best = min(best, dist)
    return best
