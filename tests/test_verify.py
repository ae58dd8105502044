"""Tests for the asymptotic-law verification suites and their frames."""

import cmath
import inspect
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from mlsections import verify
from mlsections.mitlef import MLContext
from mlsections.curves import szego_sigma
from mlsections.scaled import sc_to_complex
from mlsections.verify import (
    RegimeError,
    ScalingFrame3,
    ScalingFrame4,
    j_primes,
    kn_integral,
    kn_ratio,
    lemma4_logmag,
    suite_kn,
    suite_lemma1,
    suite_lemma4,
    suite_theorem1,
    suite_theorem3,
    suite_theorem4,
    theorem1_check,
    theorem1_rhs,
    theorem3_pair,
    theorem4_frames,
    theorem4_pair,
    theorem4_rhs,
    theorem4_tau,
)


# ---------------------------------------------------------------- frames

def test_scaling_frame3():
    f = ScalingFrame3(n=50, rho=2.0)
    assert f.map(0.0) == 1.0
    assert f.map(1.0) == pytest.approx(1.0 + math.sqrt(2.0 / 100.0))
    with pytest.raises(ValueError):
        ScalingFrame3(n=1, rho=2.0)


def test_scaling_frame4_validation():
    rho = 2.0
    phi = 0.25
    inner = szego_sigma(phi, rho, "inner") * cmath.exp(1j * phi)
    f = ScalingFrame4(inner, 100, rho)
    assert f.part == "I"
    assert -math.pi < f.tau_n <= math.pi
    # off-curve point rejected
    with pytest.raises(ValueError):
        ScalingFrame4(0.5 * cmath.exp(1j * phi), 100, rho)
    # wrong radius for the arc part
    with pytest.raises(ValueError):
        ScalingFrame4(0.9 * cmath.exp(2.0j), 100, rho)
    arc = math.exp(-1.0 / rho) * cmath.exp(2.0j)
    f2 = ScalingFrame4(arc, 100, rho)
    assert f2.part == "II"
    assert abs(abs(f2.map(0.0)) - abs(arc)) < 0.1
    # the conjugate frames lie outside both parts, as does the ray itself
    for xi in (inner.conjugate(), arc.conjugate(), cmath.exp(1j * math.pi / (2.0 * rho))):
        with pytest.raises(ValueError):
            ScalingFrame4(xi, 100, rho)


def test_theorem4_tau_reduction():
    rho = 2.0
    phi = 0.25
    xi = szego_sigma(phi, rho, "inner") * cmath.exp(1j * phi)
    for n in (75, 150, 301):
        t = theorem4_tau(xi, rho, n)
        assert -math.pi < t <= math.pi
    # part II is (n+1) phi reduced
    t2 = theorem4_tau(math.exp(-0.5) * cmath.exp(2.0j), rho, 10)
    assert t2 == pytest.approx(math.remainder(22.0, 2.0 * math.pi))
    with pytest.raises(ValueError):  # a conjugate xi lies in neither part
        theorem4_tau(xi.conjugate(), rho, 10)


# ----------------------------------------------------------- regime RHS

def test_theorem1_rhs_outer_sector_lam0():
    # with lam = 0 the leading exponential has coefficient zero and the
    # regime formula collapses to the pole term -z/(1-z)
    ctx = MLContext(rho=2.0, n=50, lam=0.0)
    v = sc_to_complex(theorem1_rhs(2.0, ctx))
    assert v == pytest.approx(2.0, rel=1e-12)


def test_theorem1_regime_errors():
    ctx = MLContext(rho=2.0, n=50, lam=0.5)
    with pytest.raises(RegimeError):
        theorem1_rhs(1.0, ctx)  # excluded point
    with pytest.raises(RegimeError):
        # inside the delta2 disk around 1: no regime applies
        theorem1_check(1.05, ctx)
    with pytest.raises(RegimeError, match="straddles"):
        # on |z| = 1 in the sector, between the inner and outer regimes
        theorem1_check(cmath.exp(0.3j), ctx)


def test_theorem1_check_shrinks():
    dev50 = theorem1_check(0.3, MLContext(rho=2.0, n=50, lam=0.5))
    dev200 = theorem1_check(0.3, MLContext(rho=2.0, n=200, lam=0.5))
    assert dev200 < dev50
    assert theorem1_check(2.5, MLContext(rho=2.0, n=200, lam=0.0)) < 0.05


# --------------------------------------------------------------- lemma 4

def test_j_primes_against_stirling():
    ctx = MLContext(rho=2.0, n=400, lam=0.5)
    z = 1.5 * cmath.exp(1j * math.pi / 8.0)
    j1, j2 = j_primes(z, ctx)
    lj1, lj2 = lemma4_logmag(z, ctx)
    assert j1.log_mag == pytest.approx(lj1, rel=0.01)
    assert j2.log_mag == pytest.approx(lj2, rel=0.01)
    with pytest.raises(ValueError):
        j_primes(0.0, ctx)


# ------------------------------------------------------------ contour integral

def test_kn_ratio_improves_with_n():
    d20 = abs(kn_ratio(0.4, MLContext(rho=2.0, n=20, lam=0.5)) - 1.0)
    d80 = abs(kn_ratio(0.4, MLContext(rho=2.0, n=80, lam=0.5)) - 1.0)
    assert d80 <= d20
    assert d80 < 0.15


@pytest.mark.parametrize("integral", [kn_integral, kn_ratio])
def test_kn_integrals_check_their_contour(integral):
    with pytest.raises(ValueError):  # rho > 5 pi: nu = pi/(2 rho) + 0.1 > pi/rho
        integral(0.4, MLContext(rho=16.0, n=20, lam=0.5))
    ctx = MLContext(rho=2.0, n=20, lam=0.5)
    with pytest.raises(ValueError):  # pole 1e-9 from the arc
        integral(1.0 + 1e-9j, ctx)
    nu = math.pi / (2.0 * ctx.rho) + verify.KN_NU_MARGIN
    # poles 1e-9 off the arc and off a ray, between the nodes of a uniform
    # 721-point grid per piece: the check must use exact distances
    for z in (cmath.exp(1j * nu / 720.0) * (1.0 + 1e-9),
              cmath.exp(1j * nu) * (1.0 + 1.5 / 720.0 + 1e-9j)):
        with pytest.raises(ValueError):
            integral(z, ctx)
    with pytest.raises(ValueError):  # pole on a ray, past where a cut-off ray would end
        integral(4.5 * cmath.exp(1j * nu), ctx)
    with pytest.raises(ValueError):  # one bad point fails the whole array
        integral(np.array([0.4, 4.5 * cmath.exp(-1j * nu)]), ctx)
    with pytest.raises(ValueError):  # the closed form divides by w^{n+1}
        integral(0.0, ctx)


def test_kn_integrals_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        suite_kn()
        kn_integral(0.4, MLContext(rho=2.0, n=30, lam=0.5))


def test_kn_suite_leaves_numpy_ma_unloaded():
    """suite_kn imports nothing that loads numpy.ma (about 0.5 MiB), as
    np.unique does on its first call."""
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = ("import sys, mlsections.verify\n"
            "mlsections.verify.suite_kn()\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("rho,z", [
    pytest.param(2.0, 1.001 * cmath.exp(0.3j), id="rho2-near-pole-1e-3"),
    pytest.param(2.0, 1.00001 * cmath.exp(0.3j), id="rho2-near-pole-1e-5"),
    pytest.param(2.0, 0.5 * cmath.exp(2.0j), id="rho2-left"),
    pytest.param(1.5, 1.001 * cmath.exp(0.3j), id="rho1.5-near-pole-1e-3"),
    pytest.param(4.0, 1.001 * cmath.exp(0.3j), id="rho4-near-pole-1e-3"),
])
def test_kn_integral_matches_mpmath(rho, z):
    """K_n against the contour integral itself, in mpmath, at n = 80: poles
    just outside the arc, right of the contour, and one left of it.  The
    reference splits the arc at the point nearest the pole, and cuts the
    rays at |t| = 4 (t = zeta / R_n): past the cut the integrand is below
    e^{R_n^rho 4^rho cos(rho nu)} 4^{-81} / |t - z|, which is below e^{-127}
    at rho = 2 (and smaller at 1.5 and 4) against a K_n of e^{R_n^rho} order
    in the t-plane, so the cut leaves the reference exact to far below the
    gate."""
    ctx = MLContext(rho=rho, n=80, lam=0.5)
    n, rn = ctx.n, ctx.radius_value
    nu = math.pi / (2.0 * rho) + verify.KN_NU_MARGIN
    th = min(max(cmath.phase(z), -nu), nu)
    with mp.workdps(20):
        wp = mp.mpf(rn) ** rho

        def f(t):
            return mp.exp(wp * t ** rho - (n + 1) * mp.log(t)) / (t - z)

        ref = mp.quad(lambda s: f(mp.expj(s)) * 1j * mp.expj(s), sorted({-nu, th, nu}))
        for sign in (1.0, -1.0):
            e = mp.expj(sign * nu)
            ref += sign * mp.quad(lambda s: f(s * e) * e, [1.0, 4.0])
        ref = complex(ref * mp.mpf(rn) ** (-(n + 1)))
    assert abs(kn_integral(z, ctx) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_kn_integral_jumps_by_the_residue_across_the_arc(rho):
    """Across the arc K_n jumps by the residue of E's exponential part,
    2 pi i e^{w^rho} / w^{n+1} (w = R_n z).  Points must stay 1e-6 from the
    contour, and the difference D(d) of K_n at z (1 -+ d) carries a term of
    first order in d, which 2 D(d) - D(2 d) cancels.  (Across a ray the
    residue is about 1e-22 of K_n, too small to see.)  An array call gives
    each point what a one-point call gives it, bit for bit."""
    ctx = MLContext(rho=rho, n=40, lam=0.5)
    z = cmath.exp(0.3j)
    points = z * np.array([1.0 - 2e-6, 1.0 + 2e-6, 1.0 - 4e-6, 1.0 + 4e-6])
    vals = kn_integral(points, ctx)
    jump = 2.0 * (vals[0] - vals[1]) - (vals[2] - vals[3])
    w = ctx.radius_value * z
    residue = 2j * math.pi * cmath.exp(w ** rho - (ctx.n + 1) * cmath.log(w))
    assert abs(jump - residue) <= 1e-4 * abs(residue)
    assert list(vals) == [kn_integral(complex(p), ctx) for p in points]


# ------------------------------------------------------------ pair checks


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_pairs_on_arrays_match_one_point(lam):
    rho, n = 2.0, 60
    ctx = MLContext(rho=rho, n=n, lam=lam)
    zetas = np.array([0.0, 0.7 - 0.4j, -1.2 + 0.9j, 1.5j, 1.3, -0.5 - 1.1j])
    pairs = [lambda zt: theorem3_pair(zt, ctx)]
    for frame in theorem4_frames(rho, n):
        pairs.append(lambda zt, f=frame: theorem4_pair(zt, f, lam))
        pairs.append(lambda zt, f=frame: (theorem4_rhs(zt, f, lam, next_order=True), 0.0))
    for pair in pairs:
        lhs, rhs = pair(zetas)
        for zt, l, r in zip(zetas, lhs, np.broadcast_to(rhs, lhs.shape)):
            l1, r1 = pair(complex(zt))
            assert isinstance(l1, complex)
            assert abs(l - l1) <= 1e-12 * abs(l1), (zt, l, l1)
            assert abs(r - r1) <= 1e-12 * abs(r1), (zt, r, r1)

def test_theorem3_pair_small_zeta():
    lhs, rhs = theorem3_pair(0.0, MLContext(rho=2.0, n=200, lam=0.0))
    assert rhs == pytest.approx(0.5)
    assert abs(lhs - 0.5) < 0.05


def test_theorem3_rhs_matches_mpmath_on_the_disc():
    """The Theorem 3 limit E(-zeta)/2 - lam e^{zeta^2} (E at rho = 2) on a
    grid of |zeta| <= 6, against 40-digit mpmath erfc: within 1e-13 of the
    larger of its two terms.  E is the kernel's value itself there (a = 0),
    so the kernel must weigh E's integral against the direct sum at every
    point: where it kept the sum unless that sum lost its last 11 digits,
    points were 1e-11 off."""
    g = np.linspace(-6.0, 6.0, 25)
    zt = (g[:, None] + 1j * g[None, :]).ravel()
    zt = zt[np.abs(zt) <= 6.0]
    with mp.workdps(40):
        half_e = np.array([complex(mp.exp(mp.mpc(z) ** 2) * mp.erfc(mp.mpc(z)) / 2) for z in zt])
        gauss = np.array([complex(mp.exp(mp.mpc(z) ** 2)) for z in zt])
    for lam in (0.0, 0.5, 1.0):
        err = np.abs(verify._theorem3_rhs(zt, lam) - (half_e - lam * gauss))
        assert (err <= 1e-13 * np.maximum(np.abs(half_e), np.abs(lam * gauss))).all(), lam


def test_theorem4_pair_converges_on_arc():
    rho, lam = 2.0, 0.0
    gaps = []
    for n in (75, 300):
        frame = theorem4_frames(rho, n)[2]  # arc point
        lhs, rhs = theorem4_pair(0.3 + 0.2j, frame, lam)
        gaps.append(abs(lhs - rhs))
    assert gaps[1] < gaps[0]


def test_theorem4_next_order_beats_leading_on_inner_frame():
    # the leading-order gap swings with tau_n (4.9 at n=100, 1.6 at n=300);
    # the next-order term must cut it at every n, by well over the factor
    # that the exponent terms alone or the pole terms alone would give
    rho, lam = 2.0, 0.0
    zetas = [0.0] + [1.5 * cmath.exp(0.25j * k * math.pi) for k in range(8)]
    for n in (75, 100, 150, 200, 300):
        frame = theorem4_frames(rho, n)[0]  # inner branch, part I
        lead = nxt = 0.0
        for zt in zetas:
            lhs, rhs = theorem4_pair(zt, frame, lam)
            lead = max(lead, abs(lhs - rhs))
            nxt = max(nxt, abs(lhs - theorem4_rhs(zt, frame, lam, next_order=True)))
        assert nxt < 0.25 * lead, n


def test_theorem4_correction_vanishes_with_n():
    # the correction is O((log n + |tau_n|)^2 / n); tau_n swings across
    # (-pi, pi] between nearby n (tau_75 = -0.75, tau_300 = -2.99), so the
    # decay is checked over factors of 4 in n, where 1/n dominates
    rho, lam, zt = 2.0, 0.0, 0.0
    sizes = []
    for n in (300, 1200, 4800, 19200):
        frame = theorem4_frames(rho, n)[0]
        sizes.append(abs(theorem4_rhs(zt, frame, lam, next_order=True)
                         - theorem4_rhs(zt, frame, lam)))
    assert all(b < a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < 0.05 * sizes[0]


def test_theorem4_next_order_does_not_rise_over_nearby_n():
    # without the A^3/n^2 and xi^rho A^2/n^2 exponent terms the inner-frame
    # lam=0 sup rises from n=75 to 100 and from 200 to 300, and the outer
    # lam=1 one from 100 to 150, where |tau_n| is near pi
    rep = suite_theorem4(rho=2.0, lam_list=(0.0, 1.0), n_list=(75, 100, 150, 200, 300))
    assert rep["pass"] is True


# ------------------------------------------------------------- suites

def test_suite_reports_shape():
    rep = suite_lemma1()
    assert rep["pass"] is True
    assert rep["check_id"] == "lemma1"
    assert len(rep["metric_list"]) == 4

    rep = suite_kn(n_list=(20, 40))
    assert rep["pass"] is True

    rep = suite_lemma4(n_list=(100, 200))
    assert rep["pass"] is True

    rep = suite_theorem1(n_list=(50, 100))
    assert rep["pass"] is True

    rep = suite_theorem3(n_list=(50, 100))
    assert rep["pass"] is True
    assert rep["metric_list"][1] < rep["metric_list"][0]


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_rejects_an_empty_list(suite):
    """A suite given an empty list would check nothing and pass, or fail
    on an index: every list parameter must be non-empty."""
    run = verify.SUITES[suite]
    lists = [name for name in inspect.signature(run).parameters if name.endswith("_list")]
    assert lists
    for name in lists:
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            run(**{name: ()})


# Each case fails one check of its suite: a reversed n list fails the trend
# checks, and a frozen constant set out of reach fails its ceiling or floor.
@pytest.mark.parametrize("suite,kwargs,patches", [
    pytest.param("theorem1", {"n_list": (200, 50)}, {}, id="theorem1-trend"),
    pytest.param("theorem3", {"n_list": (200, 100)}, {}, id="theorem3-trend"),
    pytest.param("theorem4", {"n_list": (300, 75)}, {}, id="theorem4-trend"),
    pytest.param("kn", {"n_list": (80, 20)}, {}, id="kn-trend"),
    pytest.param("kn", {"n_list": (20, 80, 40)}, {}, id="kn-middle-rise"),
    pytest.param("theorem1", {}, {"THEOREM1_DEV_AT_200": 0.0}, id="theorem1-ceiling"),
    pytest.param("theorem3", {}, {"THEOREM3_DEV_AT_200": 0.0}, id="theorem3-centre"),
    pytest.param("kn", {}, {"KN_RATIO_DEV_AT_80": 0.0}, id="kn-ceiling"),
    pytest.param("lemma4", {}, {"LEMMA4_C1": 1e300}, id="lemma4-j1-floor"),
    pytest.param("lemma4", {}, {"LEMMA4_SMALLNESS": 1e-300}, id="lemma4-smallness"),
    pytest.param("lemma4", {}, {"REGION_H": 10.0}, id="lemma4-j2-growth"),
    pytest.param("lemma4", {}, {"lemma4_logmag": lambda z, ctx: (0.0, 0.0)},
                 id="lemma4-stirling"),
])
def test_suite_verdict_can_fail(suite, kwargs, patches, monkeypatch):
    if patches:
        assert verify.SUITES[suite]()["pass"] is True
    for name, value in patches.items():
        monkeypatch.setattr(verify, name, value)
    assert verify.SUITES[suite](**kwargs)["pass"] is False
