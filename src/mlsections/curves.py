"""The generalized Szego curve S(rho), auxiliary level curves, and regions.

The scalar field u(r e^{i phi}) = r^rho cos(rho phi) - 1 - rho log r
vanishes on the non-circular part of S(rho) inside the sector
|phi| <= pi/(2 rho); the curve is completed by the circular arc of radius
e^{-1/rho}.  The outer root of u = 0 (r >= 1) is kept as a separately
labelled branch since the large-n zero sets accumulate on it too.

The radius functions take a scalar angle or an array of angles; one array
Newton iteration on u, convex in log r along each ray, finds all radii.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SzegoBranch",
    "CurvePoint",
    "BracketError",
    "phase_u",
    "szego_sigma",
    "szego_curve",
    "t_curve_r",
    "s_h_level_r",
    "region_contains",
    "asymptote_distance",
]

RESIDUAL_TOL = 1e-12

# Margins of the zero-free regions omega1..omega5 (and of the Theorem 1
# regimes): the level offset h of u, the disk radius delta2 about z = 1, and
# the angle delta3 from the rays arg z = +-pi/(2 rho).
REGION_H = 0.2
REGION_DELTA2 = 0.2
REGION_DELTA3 = 0.2
REGIONS = ("omega1", "omega2", "omega3", "omega4", "omega5")


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


def phase_u(z: complex, rho: float) -> float:
    """u(r e^{i phi}) = r^rho cos(rho phi) - 1 - rho log r."""
    z = complex(z)
    if z == 0:
        raise ValueError("phase field is undefined at z = 0")
    r = abs(z)
    phi = cmath.phase(z)
    return r**rho * math.cos(rho * phi) - 1.0 - rho * math.log(r)


def _like(phi, val: np.ndarray):
    """val as a float for a scalar phi, as an array for an array."""
    return float(val[0]) if np.ndim(phi) == 0 else val


def _ray_cos(phi, rho: float) -> np.ndarray:
    """cos(rho phi) on rays inside the sector |phi| <= pi/(2 rho)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    bound = math.pi / (2.0 * rho)
    if (np.abs(phi) > bound + 1e-15).any():
        raise ValueError(f"|phi| must be <= pi/(2 rho) = {bound:g}")
    return np.cos(rho * phi)


def _level_radius(c: np.ndarray, rho: float, offset: float,
                  branch: SzegoBranch) -> np.ndarray:
    """Radii where u + offset = 0 on the rays with cos(rho phi) = c, on the
    branch's side of each ray's minimum.

    With x = log r, u + offset = c e^{rho x} - 1 - rho x + offset is convex,
    with minimum m = log c + offset at x* = -(log c)/rho; in y = rho (x - x*)
    it reads e^y - 1 - y + m, free of cancellation near the double root.
    Newton starts at y = -sqrt(-2m) (inner) or +sqrt(-2m) (outer); it is
    monotone after one step, and each ray stops on its own step, so its
    radius does not depend on the batch.  m = 0 (c rounds to 1 at offset 0)
    is the double root y = 0; rays with |c| < 1e-15 take e^{(offset - 1)/rho}.
    """
    r = np.full(c.shape, math.exp((offset - 1.0) / rho))
    ok = np.abs(c) >= 1e-15
    lc = np.log(c[ok])
    m = lc + offset
    if (m > 0.0).any():
        raise BracketError(f"level {offset:g} not attained on this ray "
                           f"(minimum {m.max():.3g} > 0)")
    y = np.sqrt(-2.0 * m)
    if branch == SzegoBranch.INNER:
        y = -y
    active = m < 0.0
    for _ in range(100):
        if not active.any():
            break
        em1 = np.expm1(y)
        step = np.divide(em1 - y + m, em1, out=np.zeros_like(y), where=active)
        y = y - step
        active &= np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(y))
    r[ok] = np.exp((y - lc) / rho)
    return r


def szego_sigma(phi, rho: float, branch: SzegoBranch | str):
    """Radius sigma(phi) of S(rho) on the ray arg z = phi.

    phi is a scalar (returns a float) or an array (returns an array).  The
    inner branch lives on |phi| <= pi/(2 rho) with sigma in [e^{-1/rho}, 1];
    the outer branch requires |phi| < pi/(2 rho) and has sigma >= 1 (it
    diverges at the boundary angle).
    """
    branch = SzegoBranch(branch)
    if branch == SzegoBranch.ARC:
        return _like(phi, np.full(np.shape(np.atleast_1d(phi)), math.exp(-1.0 / rho)))
    c = _ray_cos(phi, rho)
    if branch == SzegoBranch.OUTER and (np.abs(c) < 1e-15).any():
        raise ValueError("outer branch diverges at |phi| = pi/(2 rho)")
    return _like(phi, _level_radius(c, rho, 0.0, branch))


def s_h_level_r(phi, rho: float, h: float, branch: SzegoBranch | str):
    """Radius of the level curve u = -h/2 on the ray arg z = phi (a scalar
    or an array, as in szego_sigma)."""
    if h <= 0.0:
        raise ValueError("h must be > 0")
    branch = SzegoBranch(branch)
    c = _ray_cos(phi, rho)
    if branch == SzegoBranch.OUTER and (np.abs(c) < 1e-15).any():
        raise BracketError("outer root does not exist at |phi| = pi/(2 rho)")
    return _like(phi, _level_radius(c, rho, h / 2.0, branch))


def szego_curve(rho: float, samples_per_branch: int, r_max: float = 10.0) -> list[CurvePoint]:
    """Ordered polar samples of S(rho): inner branch, circular arc, outer branch.

    The outer branch is truncated where its radius reaches r_max (it is
    unbounded, approaching the rays arg z = +-pi/(2 rho) asymptotically).
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max!r}")
    bound = math.pi / (2.0 * rho)
    # angle at which the outer radius hits r_max: cos(rho phi) = (1 + rho log r)/r^rho
    c_edge = (1.0 + rho * math.log(r_max)) / r_max**rho
    if c_edge >= 1.0:
        raise ValueError("r_max too small for an outer branch")
    phi_edge = math.acos(c_edge) / rho
    inner = np.linspace(-bound, bound, samples_per_branch)
    arc = np.linspace(bound, 2.0 * math.pi - bound, samples_per_branch)
    outer = np.linspace(-phi_edge, phi_edge, samples_per_branch)
    pts: list[CurvePoint] = []
    for branch, phis in ((SzegoBranch.INNER, inner), (SzegoBranch.ARC, arc),
                         (SzegoBranch.OUTER, outer)):
        rs = szego_sigma(phis, rho, branch)
        pts += [CurvePoint(p, r, branch) for p, r in zip(phis.tolist(), rs.tolist())]
    return pts


def t_curve_r(phi, rho: float):
    """Radius of the curve r^rho = rho phi / sin(rho phi), |phi| < pi/rho;
    phi is a scalar (returns a float) or an array (returns an array)."""
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    if (np.abs(phis) >= math.pi / rho).any():
        raise ValueError("t_curve_r requires |phi| < pi/rho")
    x = rho * phis
    # removable singularity: x/sin x = 1 + x^2/6 + O(x^4)
    small = np.abs(x) < 1e-8
    ratio = np.where(small, 1.0 + x * x / 6.0, x / np.sin(np.where(small, 1.0, x)))
    return _like(phi, ratio ** (1.0 / rho))


def _check_region_rho(rho: float) -> None:
    """The regions need 1 < rho < pi/(2 delta3), so that delta3 fits inside
    the sector |arg z| <= pi/(2 rho)."""
    if not 1.0 < rho < math.pi / (2.0 * REGION_DELTA3):
        raise ValueError(f"regions need 1 < rho < pi/(2 delta3) = "
                         f"{math.pi / (2.0 * REGION_DELTA3):.6g}, got rho = {rho:g}")


def region_contains(z: complex, region: str, rho: float) -> bool:
    """Membership in one of the zero-free regions (boundaries included)."""
    if region not in REGIONS:
        raise ValueError(f"unknown region id {region!r}")
    _check_region_rho(rho)
    z = complex(z)
    if z == 0:
        raise ValueError("regions exclude z = 0")
    r = abs(z)
    phi = abs(cmath.phase(z))
    h, d2, d3 = REGION_H, REGION_DELTA2, REGION_DELTA3
    sector = math.pi / (2.0 * rho)
    u = phase_u(z, rho)
    if region == "omega1":
        return r <= 1.0 and abs(z - 1.0) >= d2 and phi <= sector - d3 and u >= 0.0
    if region == "omega2":
        return phi <= sector - d3 and u <= -h
    if region == "omega3":
        return r >= math.exp(-1.0 / rho) + h and phi >= sector + d3
    if region == "omega4":
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
