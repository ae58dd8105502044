"""Tests for the limit-curve geometry: S(rho), level curves, regions."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mlsections
from mlsections.curves import (
    REGIONS,
    RESIDUAL_TOL,
    BracketError,
    SzegoBranch,
    asymptote_distance,
    phase_u,
    region_contains,
    s_h_level_r,
    szego_curve,
    szego_sigma,
    t_curve_r,
)


# ------------------------------------------------------------- phase field

def test_phase_u_values():
    # closed form at phi = 0: r^rho - 1 - rho log r
    assert phase_u(0.5, 2.0) == pytest.approx(0.25 - 1.0 - 2.0 * math.log(0.5),
                                              abs=1e-14)
    assert phase_u(0.5, 2.0) == pytest.approx(0.6362943611198906, abs=1e-12)
    assert phase_u(1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    # on the sector boundary the power term drops out
    z = 0.7 * cmath.exp(1j * math.pi / 4.0)
    assert phase_u(z, 2.0) == pytest.approx(-1.0 - 2.0 * math.log(0.7),
                                            abs=1e-13)
    with pytest.raises(ValueError):
        phase_u(0.0, 2.0)


def test_phase_u_symmetry():
    rng = np.random.default_rng(0)
    for rho in (1.5, 2.0, 4.0):
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
            assert phase_u(z, rho) == pytest.approx(
                phase_u(z.conjugate(), rho), abs=1e-12)


# ------------------------------------------------------------ sigma(phi)

def test_szego_sigma_anchors():
    for rho in (1.5, 2.0, 4.0):
        bound = math.pi / (2.0 * rho)
        # double root at phi = 0, and wherever cos(rho phi) rounds to 1
        assert szego_sigma(0.0, rho, "inner") == pytest.approx(1.0)
        assert szego_sigma(0.0, rho, "outer") == pytest.approx(1.0)
        for branch in ("inner", "outer"):
            assert np.array_equal(szego_sigma(np.array([-1e-9, 0.0, 1e-9]), rho, branch),
                                  [1.0, 1.0, 1.0])
        # inner branch closes onto the circular arc at the sector edge
        assert szego_sigma(bound, rho, "inner") == pytest.approx(
            math.exp(-1.0 / rho), abs=1e-12)
        assert szego_sigma(0.3, rho, "arc") == pytest.approx(
            math.exp(-1.0 / rho))
        with pytest.raises(ValueError):
            szego_sigma(bound, rho, "outer")
        with pytest.raises(ValueError):
            szego_sigma(bound + 0.1, rho, "inner")


def test_szego_sigma_residuals_and_ordering():
    rho = 2.0
    bound = math.pi / (2.0 * rho)
    last_inner, last_outer = None, None
    for k in range(1, 40):
        phi = bound * k / 40.0
        ri = szego_sigma(phi, rho, SzegoBranch.INNER)
        ro = szego_sigma(phi, rho, SzegoBranch.OUTER)
        # both radii satisfy the defining equation
        for r in (ri, ro):
            z = r * cmath.exp(1j * phi)
            assert abs(phase_u(z, rho)) < 1e-11
        assert math.exp(-1.0 / rho) - 1e-12 <= ri <= 1.0
        assert ro >= 1.0
        # inner decreases, outer increases away from phi = 0
        if last_inner is not None:
            assert ri < last_inner
            assert ro > last_outer
        last_inner, last_outer = ri, ro
    # the array form equals the one-point calls and meets the curve equation
    phis = bound * np.arange(1, 40) / 40.0
    for branch in ("inner", "outer"):
        rs = szego_sigma(phis, rho, branch)
        assert np.array_equal(rs, [szego_sigma(p, rho, branch) for p in phis])
        for phi, r in zip(phis, rs):
            assert abs(phase_u(r * cmath.exp(1j * phi), rho)) < RESIDUAL_TOL


# ------------------------------------------------------------- t-curve

def test_t_curve_values():
    assert t_curve_r(0.0, 2.0) == pytest.approx(1.0)
    assert t_curve_r(0.5, 2.0) == pytest.approx((1.0 / math.sin(1.0)) ** 0.5,
                                                abs=1e-12)
    # even in phi
    assert t_curve_r(-0.4, 3.0) == pytest.approx(t_curve_r(0.4, 3.0))
    # smooth through the removable singularity
    assert t_curve_r(1e-9, 2.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        t_curve_r(math.pi / 2.0, 2.0)


# ----------------------------------------------------------- level curves

def test_s_h_level_recovers_szego_as_h_to_0():
    rho = 2.0
    phis = [0.1, 0.3, 0.6]
    for branch in ("inner", "outer"):
        prev_gap = None
        for h in (1e-2, 1e-4, 1e-6):
            gap = max(abs(s_h_level_r(phi, rho, h, branch)
                          - szego_sigma(phi, rho, branch)) for phi in phis)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-5


def test_s_h_level_closed_form_at_sector_edge():
    rho, h = 2.0, 0.2
    bound = math.pi / (2.0 * rho)
    assert s_h_level_r(bound, rho, h, "inner") == pytest.approx(
        math.exp((h / 2.0 - 1.0) / rho), abs=1e-13)
    with pytest.raises(BracketError):
        s_h_level_r(bound, rho, h, "outer")
    with pytest.raises(ValueError):
        s_h_level_r(0.1, rho, -1.0, "inner")


def test_s_h_level_roots_meet_level():
    # the level u = -h/2 sits below the ray minimum near phi = 0, so the
    # curve only exists once the ray dips deep enough
    rho, h = 2.0, 0.2
    with pytest.raises(BracketError):
        s_h_level_r(0.0, rho, h, "inner")
    for phi in (0.4, 0.6):
        ri = s_h_level_r(phi, rho, h, "inner")
        ro = s_h_level_r(phi, rho, h, "outer")
        assert ri < ro
        for r in (ri, ro):
            z = r * cmath.exp(1j * phi)
            assert phase_u(z, rho) == pytest.approx(-h / 2.0, abs=1e-11)
    phis = np.array([-0.7, -0.4, 0.35, 0.4, 0.6, math.pi / (2.0 * rho) - 1e-3])
    for branch in ("inner", "outer"):
        rs = s_h_level_r(phis, rho, h, branch)
        assert np.array_equal(rs, [s_h_level_r(p, rho, h, branch) for p in phis])
        for phi, r in zip(phis, rs):
            assert abs(phase_u(r * cmath.exp(1j * phi), rho) + h / 2.0) < RESIDUAL_TOL
    with pytest.raises(BracketError):  # one ray below the level fails the batch
        s_h_level_r(np.array([0.0, 0.4]), rho, h, "inner")


# -------------------------------------------------------------- sampling

def test_szego_curve_structure():
    rho, m = 2.0, 50
    pts = szego_curve(rho, m, r_max=10.0)
    assert len(pts) == 3 * m
    inner = [p for p in pts if p.branch == SzegoBranch.INNER]
    arc = [p for p in pts if p.branch == SzegoBranch.ARC]
    outer = [p for p in pts if p.branch == SzegoBranch.OUTER]
    assert len(inner) == len(arc) == len(outer) == m
    bound = math.pi / (2.0 * rho)
    # inner branch spans the sector and meets the arc radius at its ends
    assert inner[0].phi == pytest.approx(-bound)
    assert inner[-1].phi == pytest.approx(bound)
    assert inner[0].r == pytest.approx(math.exp(-1.0 / rho), abs=1e-10)
    assert all(p.r == pytest.approx(math.exp(-1.0 / rho)) for p in arc)
    # outer branch truncates at r_max
    assert max(p.r for p in outer) <= 10.0 + 1e-6
    assert outer[0].r == pytest.approx(10.0, rel=1e-6)
    # every non-arc sample satisfies the curve equation
    for p in inner + outer:
        if abs(math.cos(rho * p.phi)) > 1e-12:
            assert abs(phase_u(p.z, rho)) < 1e-9
    with pytest.raises(ValueError):
        szego_curve(rho, 1)
    with pytest.raises(ValueError):
        szego_curve(1.0, 10)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            szego_curve(rho, 20, r_max=bad)


# --------------------------------------------------------------- regions

def test_region_examples():
    assert region_contains(2.0, "omega5", 2.0)
    assert region_contains(0.1 * cmath.exp(1j * math.pi), "omega4", 2.0)
    # z = 1 sits on the curve and inside the delta2 disk: in no region
    for region in REGIONS:
        assert not region_contains(1.0, region, 2.0)
    with pytest.raises(ValueError):
        region_contains(0.0, "omega1", 2.0)
    with pytest.raises(ValueError):
        region_contains(0.5, "omega9", 2.0)
    # delta3 = 0.2 leaves no sector margin once pi/(2 rho) <= 0.2
    with pytest.raises(ValueError):
        region_contains(0.5, "omega1", 8.0)


def test_region_disjoint_pairs():
    rng = np.random.default_rng(1)
    for _ in range(400):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if z == 0:
            continue
        assert not (region_contains(z, "omega2", 2.0) and region_contains(z, "omega5", 2.0))
        assert not (region_contains(z, "omega3", 2.0) and region_contains(z, "omega4", 2.0))


def test_region_membership_matches_definitions():
    rho = 2.0
    # interior of S(rho) near the origin direction: u large positive
    z = 0.5 * cmath.exp(1j * 0.1)
    assert phase_u(z, rho) > 0.2
    assert region_contains(z, "omega1", rho)
    # just outside the curve within the sector: u <= -h
    z2 = 0.99 * cmath.exp(1j * 0.5)
    assert phase_u(z2, rho) <= -0.2
    assert region_contains(z2, "omega2", rho)
    # large radius outside the sector
    assert region_contains(2.0 * cmath.exp(2.0j), "omega3", rho)


# ------------------------------------------------- asymptote geometry

def test_asymptote_distance_geometry():
    rho = 2.0
    ray = cmath.exp(1j * math.pi / 4.0)
    assert asymptote_distance(3.0 * ray, rho) == pytest.approx(0.0, abs=1e-14)
    # perpendicular offset from a ray point
    z = 3.0 * ray + 0.05j * ray
    assert asymptote_distance(z, rho) == pytest.approx(0.05, abs=1e-12)
    # conjugate ray is equally near
    assert asymptote_distance(z.conjugate(), rho) == pytest.approx(
        0.05, abs=1e-12)
    # behind the origin the distance is |z|
    assert asymptote_distance(-1.0 - 1.0j, 2.0) == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        asymptote_distance(0.0, rho)


def test_outer_branch_approaches_asymptote():
    # envelope bound (1 + rho log r) / (r^{rho-1} cos(pi/(2 rho)))
    rho = 2.0
    prev = None
    for r in (10.0, 30.0, 100.0, 300.0):
        c = (1.0 + rho * math.log(r)) / r**rho
        phi = math.acos(c) / rho
        d = asymptote_distance(r * cmath.exp(1j * phi), rho)
        bound = (1.0 + rho * math.log(r)) / (
            r ** (rho - 1.0) * math.cos(math.pi / (2.0 * rho)))
        assert d <= bound
        if prev is not None:
            assert d < prev
        prev = d
    # the spec-scale number at r = 100
    r = 100.0
    assert (1.0 + 2.0 * math.log(r)) / (r * math.cos(math.pi / 4.0)) == \
        pytest.approx(0.14444, abs=5e-4)



def test_no_entry_point_loads_scipy():
    """The package, its evaluators and erfc, the zero locators, the curves
    and every verification suite run without SciPy."""
    src = os.path.dirname(os.path.dirname(mlsections.__file__))
    code = ("import sys, mlsections, mlsections.verify, mlsections.cli\n"
            "from mlsections import MLContext, Window\n"
            "ctx = MLContext(rho=2.0, n=20, lam=0.5)\n"
            "mlsections.combo(0.5 + 0.2j, ctx)\n"
            "mlsections.tail(0.5, ctx)\n"
            "mlsections.ml_series(2.0 + 1.0j, 2.0)\n"
            "mlsections.ml_asymptotic(6.0 + 1.0j, 2.0)\n"
            "mlsections.erfc(1.0 + 1.0j)\n"
            "mlsections.locate_zeros(ctx, Window(-1.8, 1.8, -1.8, 1.8))\n"
            "mlsections.poly_zeros(MLContext(rho=2.0, n=20, lam=0.0))\n"
            "mlsections.szego_curve(2.0, 50)\n"
            "mlsections.s_h_level_r(0.5, 2.0, 0.2, 'outer')\n"
            "for suite in mlsections.verify.SUITES.values():\n"
            "    suite()\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n")[0] == "[]"
