"""Tests for the polynomial and argument-principle zero finders."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mlsections.curves import phase_u
from mlsections.mitlef import MLContext, radius
from mlsections.specfun import ln_gamma
from mlsections import mitlef, zeros
from mlsections.zeros import (
    BoundaryZeroError,
    Window,
    ZeroRecord,
    _aberth,
    _certify,
    _certify_roots,
    _contour_integrals,
    _inclusion,
    _newton_polish,
    _start_side,
    locate_zeros,
    poly_zeros,
    strip_filter,
    winding_number,
)

WINDOW = Window(-1.8, 1.8, -1.8, 1.8)


def _match_distance(a, b):
    """Greedy optimal-ish matching distance between two equal-size sets."""
    assert len(a) == len(b)
    b = list(b)
    worst = 0.0
    for z in sorted(a, key=abs):
        j = min(range(len(b)), key=lambda i: abs(b[i] - z))
        worst = max(worst, abs(b.pop(j) - z))
    return worst


# ------------------------------------------------------------ poly_zeros

def test_poly_zeros_n1():
    recs = poly_zeros(MLContext(rho=2.0, n=1, lam=0.0))
    assert len(recs) == 1
    # s_1(R_1 z) = 1 + R_1 z, zero at -1/R_1 scaled back... the finder
    # reports in the scaled z variable where the zero of 1 + z is -1.
    assert recs[0].location == pytest.approx(-1.0, abs=1e-12)
    assert recs[0].certified


def test_poly_zeros_n2_quadratic_oracle():
    rho = 2.0
    ctx = MLContext(rho=rho, n=2, lam=0.0)
    # s_2(w) = 1 + w/G1 + w^2/G2 with w = R_2 z
    g1 = math.exp(ln_gamma(1.0 + 1.0 / rho))
    g2 = math.exp(ln_gamma(1.0 + 2.0 / rho))
    roots_w = np.roots([1.0 / g2, 1.0 / g1, 1.0])
    expected = sorted(roots_w / radius(2, rho), key=lambda z: z.imag)
    got = sorted((r.location for r in poly_zeros(ctx)),
                 key=lambda z: z.imag)
    assert _match_distance(got, expected) < 1e-10


@pytest.mark.filterwarnings("error::mlsections.zeros.ClusterWarning")
@pytest.mark.parametrize("rho,n", [(2.0, 10), (4.0, 25)]
                         + [(rho, n) for n in (50, 300) for rho in (1.0, 1.5, 3.0, 4.0)])
def test_poly_zeros_count_and_conjugacy(rho, n):
    """Aberth, started on S(rho) (at rho = 1 on its inner branch and the
    circle of radius 1/e), certifies every root without a ClusterWarning."""
    recs = poly_zeros(MLContext(rho=rho, n=n, lam=0.0))
    assert len(recs) == n
    locs = [r.location for r in recs]
    # real coefficients: zero set closed under conjugation
    assert _match_distance(locs, [z.conjugate() for z in locs]) < 1e-9
    assert all(r.certified for r in recs)


def _oracle_newton_distance(rho, n, zs, dps=80):
    """|s_n / (R_n s_n')| at R_n z for each z, by Horner in mpmath with the
    exact R_n: the distance Newton's method would still move each root."""
    with mp.workdps(dps):
        rn = mp.gamma(1 + mp.mpf(n) / rho) / mp.gamma(1 + mp.mpf(n - 1) / rho)
        coef = [1 / mp.gamma(1 + mp.mpf(k) / rho) for k in range(n + 1)]
        out = []
        for z in zs:
            w = rn * mp.mpc(z)
            p, dp = coef[n], mp.mpc(0)
            for c in reversed(coef[:n]):
                dp = dp * w + p
                p = p * w + c
            out.append(float(abs(p / (rn * dp))))
    return out


@pytest.mark.filterwarnings("error::mlsections.zeros.ClusterWarning")
def test_poly_zeros_n196_against_oracle():
    """All 196 roots at n = 196, where the coefficients of s_n(R_n z) span
    e^95: distinct, certified, closed under conjugation, and each within
    1e-8 Newton distance of a root."""
    rho, n = 2.0, 196
    recs = poly_zeros(MLContext(rho=rho, n=n, lam=0.0))
    assert len(recs) == n and all(r.certified for r in recs)
    locs = np.array([r.location for r in recs])
    gaps = np.abs(locs[:, None] - locs[None, :]) + np.diag(np.full(n, np.inf))
    assert gaps.min() > 1e-3
    assert _match_distance(locs, locs.conj()) < 1e-8
    assert max(_oracle_newton_distance(rho, n, locs)) < 1e-8


def _polished_roots(rho, n):
    ctx = MLContext(rho=rho, n=n, lam=0.0)
    roots = _aberth(ctx, np.empty((n, n), dtype=complex))
    z, _res, ok, unc = _newton_polish(roots, ctx)
    assert ok.all()
    return ctx, z, unc


@pytest.mark.parametrize("rho,n", [(2.0, 50), (4.0, 25), (1.5, 60)])
def test_inclusion_disks_agree_with_winding(rho, n):
    ctx, z, unc = _polished_roots(rho, n)
    cap = 1e4 * _start_side(z, unc)
    by_disk = _inclusion(ctx, z, cap, np.empty((n, n), dtype=complex))
    by_winding = _certify(z, ctx, unc)
    assert by_disk.all()
    assert np.array_equal(by_disk, by_winding)


def test_duplicated_root_falls_back_and_is_uncertified():
    """Two records on one root: the duplicate's disk is unbounded, so every
    root goes to the winding count, which certifies all but the pair."""
    n = 50
    ctx, z, unc = _polished_roots(2.0, n)
    z[7] = z[3]
    buf = np.empty((n, n), dtype=complex)
    assert not _inclusion(ctx, z, np.full(n, np.inf), buf).any()
    cert = _certify_roots(ctx, z, np.ones(n, dtype=bool), unc, buf)
    assert not cert[3] and not cert[7]
    assert cert.sum() == n - 2


def test_shifted_root_is_not_certified_past_the_radius_cap():
    """A record 1e-4 off its root still has an isolated disk, which holds
    the root; but the disk is wider than any box the winding count would
    try, and no such box around the record holds a root."""
    n = 50
    ctx, z, unc = _polished_roots(2.0, n)
    z[11] += 1e-4
    buf = np.empty((n, n), dtype=complex)
    assert _inclusion(ctx, z, np.full(n, np.inf), buf).all()
    cap = 1e4 * _start_side(z, unc)
    assert not _inclusion(ctx, z, cap, buf)[11]
    cert = _certify_roots(ctx, z, np.ones(n, dtype=bool), unc, buf)
    assert not cert[11]
    assert cert.sum() == n - 1


def test_poly_zeros_newton_pass_stops_on_the_floor(monkeypatch):
    """Aberth's roots already meet the stop rule the Newton polish shares
    with it, so the polish after Aberth takes a few kernel passes, not the
    30 of NEWTON_MAX_ITER rounds.  A pass for a value and its derivative
    is one _series_kernel call, and counts once."""
    calls, newton = [], []
    kernel, polish = zeros._series_kernel, zeros._newton_polish

    def counted_kernel(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    def counted_polish(*args):
        before = len(calls)
        out = polish(*args)
        newton.append(len(calls) - before)
        return out

    # zeros calls the kernel under its own name and through combo_batch
    monkeypatch.setattr(zeros, "_series_kernel", counted_kernel)
    monkeypatch.setattr(mitlef, "_series_kernel", counted_kernel)
    monkeypatch.setattr(zeros, "_newton_polish", counted_polish)
    recs = poly_zeros(MLContext(rho=2.0, n=101, lam=0.0))
    assert len(recs) == 101 and all(r.certified for r in recs)
    assert len(newton) == 1 and newton[0] <= 3


def test_poly_zeros_large_n():
    """n = 600: the coefficients of s_n(R_n z) span more than e^600, past
    the double range, so no coefficient form of s_n can be evaluated."""
    recs = poly_zeros(MLContext(rho=2.0, n=600, lam=0.0))
    assert len(recs) == 600 and all(r.certified for r in recs)


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_szego_starts_lie_on_the_curve(rho):
    """round(n (pi - 2/e) / (2 pi rho)) start points lie on the inner branch
    of S(rho), at equal steps of Im(z^rho - rho log z), and the rest on the
    arc |z| = e^{-1/rho} at equal angles; all turned by e^{0.4 i / n}."""
    n = 300
    z = zeros._szego_starts(n, rho) * cmath.exp(-0.4j / n)
    assert z.size == n
    inner = np.abs(np.angle(z)) <= math.pi / (2.0 * rho)
    assert inner.sum() == round(n * (math.pi - 2.0 / math.e) / (2.0 * math.pi * rho))
    assert max(abs(phase_u(x, rho)) for x in z[inner]) < 1e-9
    level = np.diff((z[inner] ** rho - rho * np.log(z[inner])).imag)
    assert np.ptp(level) < 1e-2 * np.abs(level).mean()
    assert np.allclose(np.abs(z[~inner]), math.exp(-1.0 / rho), rtol=1e-15)
    assert np.ptp(np.diff(np.angle(-z[~inner]))) < 1e-12


def test_poly_zeros_rho1_exponential_section():
    """rho = 1, where E = e^w exactly: the kernel's floor is the rounding of
    e^w, not the asymptotic remainder, so Aberth does not stop short and all
    60 roots of the exponential section come out distinct and certified."""
    n = 60
    recs = poly_zeros(MLContext(rho=1.0, n=n, lam=0.0))
    assert len(recs) == n and all(r.certified for r in recs)
    locs = np.array([r.location for r in recs])
    gaps = np.abs(locs[:, None] - locs[None, :]) + np.diag(np.full(n, np.inf))
    assert gaps.min() > 1e-3
    assert max(_oracle_newton_distance(1.0, n, locs)) < 1e-8


# -------------------------------------------------------- winding number

def test_winding_counts_simple_zero():
    ctx = MLContext(rho=2.0, n=1, lam=0.0)
    assert winding_number(ctx, Window(-1.5, -0.5, -0.5, 0.5)) == 1
    # a window well inside the zero-free exterior region
    assert winding_number(ctx, Window(2.0, 3.0, 0.5, 1.5)) == 0


@pytest.mark.parametrize("rho,n", [(2.0, 8), (1.5, 6)])
def test_winding_equals_degree(rho, n):
    ctx = MLContext(rho=rho, n=n, lam=0.0)
    big = Window(-2.5, 2.5, -2.5, 2.5)
    assert winding_number(ctx, big) == n


def test_winding_additivity_random_splits():
    ctx = MLContext(rho=2.0, n=12, lam=0.0)
    outer = Window(-2.0, 2.0, -2.0, 2.0)
    total = winding_number(ctx, outer)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        left = Window(outer.re_min, x, outer.im_min, outer.im_max)
        right = Window(x, outer.re_max, outer.im_min, outer.im_max)
        assert winding_number(ctx, left) + winding_number(ctx, right) == total


def test_moment_of_winding_one_rectangle_is_its_zero():
    ctx = MLContext(rho=2.0, n=1, lam=0.0)
    counts, moments = _contour_integrals(ctx, [Window(-1.4, -0.4, -0.6, 0.4)])
    assert counts == [1]
    assert abs(moments[0] + 1.0) < 0.1


def test_multi_rectangle_count_fails_only_the_stalled_rectangle():
    # rho = 1, n = 1: I = 1 + z, and the left edge of the second rectangle
    # runs through its zero at -1, which refinement cannot resolve
    ctx = MLContext(rho=1.0, n=1, lam=0.0)
    rects = [Window(-3.0, 0.0, -1.0, 1.0), Window(-1.0, 3.0, -2.0, 2.0),
             Window(0.5, 1.5, -1.0, 1.0), Window(-1.5, -0.5, -0.5, 0.5)]
    assert _contour_integrals(ctx, rects)[0] == [1, None, 0, 1]
    with pytest.raises(BoundaryZeroError):
        winding_number(ctx, rects[1])
    assert [winding_number(ctx, r) for r in rects[::2]] == [1, 0]


def test_exact_zero_on_a_sample_fails_only_its_rectangle(monkeypatch):
    # log|I| = -inf at the sample z = 0.5 puts a zero on the first
    # rectangle's boundary: it gets None, and no -inf enters a moment
    ctx = MLContext(rho=2.0, n=12, lam=0.5)
    field = zeros._field_batch

    def zero_at_half(ctx, zs):
        lm, ph = field(ctx, zs)
        return np.where(zs == 0.5, -np.inf, lm), ph

    monkeypatch.setattr(zeros, "_field_batch", zero_at_half)
    rects = [Window(0.0, 0.5, -0.5, 0.5), Window(-1.0, -0.5, -0.5, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, moments = _contour_integrals(ctx, rects)
    assert counts == [None, _contour_integrals(ctx, rects[1:])[0][0]]
    assert np.isfinite(moments).all()


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.5])
def test_multi_rectangle_count_matches_one_at_a_time(lam):
    ctx = MLContext(rho=2.0, n=12, lam=lam)
    rng = np.random.default_rng(3)
    rects = []
    for _ in range(8):
        x, y = sorted(rng.uniform(-1.8, 1.8, 2)), sorted(rng.uniform(-1.8, 1.8, 2))
        rects.append(Window(x[0], x[1], y[0], y[1]))
    assert _contour_integrals(ctx, rects)[0] == [winding_number(ctx, r) for r in rects]


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.5])
def test_batched_polish_and_certify_match_one_at_a_time(lam):
    """One batch gives the records of the same starts polished one by one.

    Every evaluation is the same in any batch (see
    test_combo_batch_rows_do_not_depend_on_the_batch), so the records are
    bit-identical at every lam.
    """
    ctx = MLContext(rho=2.0, n=12, lam=lam)
    rng = np.random.default_rng(5)
    near = [r.location + 1e-3 for r in locate_zeros(ctx, WINDOW).records[:6]]
    starts = np.concatenate([near, rng.uniform(-1.5, 1.5, 10) + 1j * rng.uniform(-1.5, 1.5, 10),
                             [0.0]])
    z, res, ok, unc = _newton_polish(starts, ctx)
    cert = np.zeros(len(starts), dtype=bool)
    cert[ok] = _certify(z[ok], ctx, unc[ok])
    assert ok[:len(near)].all() and cert[:len(near)].all()
    for k, z0 in enumerate(starts):
        z1, res1, ok1, unc1 = _newton_polish(np.array([z0]), ctx)
        assert ok1[0] == ok[k]
        if ok1[0]:
            assert _certify(z1, ctx, unc1)[0] == cert[k]
        assert (z1[0], res1[0], unc1[0]) == (z[k], res[k], unc[k])


# --------------------------------------------------------- locate_zeros

def test_locate_n1():
    zs = locate_zeros(MLContext(rho=2.0, n=1, lam=0.0), WINDOW)
    assert len(zs.records) == 1
    assert zs.records[0].location == pytest.approx(-1.0, abs=1e-10)
    assert zs.total_winding == 1


def test_locate_jitters_a_window_whose_edge_holds_the_zero(monkeypatch):
    # rho = 1, n = 1: s_1(R_1 z) = 1 + z, whose zero -1 lies on the left edge
    counts = []

    def spy(ctx, rects):
        out = _contour_integrals(ctx, rects)
        counts.append(out[0])
        return out

    monkeypatch.setattr(zeros, "_contour_integrals", spy)
    zs = locate_zeros(MLContext(rho=1.0, n=1, lam=0.0), Window(-1.0, 1.0, -1.0, 1.0))
    assert counts[:2] == [[None], [1]]  # the count stalls, then the jittered one holds
    assert len(zs.records) == 1 and zs.records[0].certified
    assert abs(zs.records[0].location + 1.0) <= 1e-12
    assert zs.total_winding == 1


@pytest.mark.parametrize("rho,n", [(1.5, 5), (2.0, 15), (4.0, 30)])
def test_locate_matches_poly(rho, n):
    ctx = MLContext(rho=rho, n=n, lam=0.0)
    big = Window(-2.5, 2.5, -2.5, 2.5)
    located = locate_zeros(ctx, big)
    poly = poly_zeros(ctx)
    inside = [r.location for r in poly if big.contains(r.location)]
    assert len(located.records) == len(inside)
    got = [r.location for r in located.records]
    assert _match_distance(got, inside) < 1e-8


def test_locate_conjugate_symmetry():
    ctx = MLContext(rho=2.0, n=20, lam=0.5)
    zs = locate_zeros(ctx, WINDOW)
    locs = [r.location for r in zs.records]
    assert locs, "expected zeros in the window"
    assert _match_distance(locs, [z.conjugate() for z in locs]) < 1e-9


@pytest.mark.parametrize("locator,lam,n", [("locate", 0.0, 25), ("locate", 0.5, 25),
                                            ("locate", 1.0, 25), ("poly", 0.0, 100)])
def test_records_list_each_conjugate_pair_lower_member_first(locator, lam, n):
    """The members of a conjugate pair differ in their real parts by a few
    ulps; both locators still list the one with the lower imaginary part
    first, so two runs compare record by record."""
    ctx = MLContext(rho=2.0, n=n, lam=lam)
    recs = locate_zeros(ctx, WINDOW).records if locator == "locate" else poly_zeros(ctx)
    locs = [r.location for r in recs]
    pairs = [(a, b) for a, b in zip(locs, locs[1:]) if abs(a.real - b.real) <= 1e-9]
    assert pairs
    assert all(a.imag < b.imag for a, b in pairs)


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.5, 0.7 + 0.2j])
def test_locate_records_certified_and_distinct(lam):
    recs = locate_zeros(MLContext(rho=2.0, n=20, lam=lam), WINDOW).records
    assert recs and all(r.certified for r in recs)
    locs = np.array([r.location for r in recs])
    gaps = np.abs(locs[:, None] - locs[None, :]) + np.diag(np.full(len(locs), np.inf))
    assert gaps.min() > 1e-6


def test_locate_splits_a_cell_whose_polish_lands_outside(monkeypatch):
    """The first moment-started polish batch lands each root on the next zero
    over, which is a true zero but outside the cell: those cells are split as
    without the polish, and the zero set comes out the same."""
    ctx = MLContext(rho=2.0, n=12, lam=0.5)
    expected = locate_zeros(ctx, WINDOW).records
    locs = np.array([r.location for r in expected])
    polish, shifted = zeros._newton_polish, []

    def lands_outside(zs, *args):
        z, res, ok, unc = polish(zs, *args)
        if not shifted:
            shifted.append(z.size)
            z = np.array([locs[np.argsort(np.abs(locs - a))[1]] for a in z])
        return z, res, ok, unc

    monkeypatch.setattr(zeros, "_newton_polish", lands_outside)
    got = locate_zeros(ctx, WINDOW).records
    assert shifted and shifted[0] > 0
    assert [r.certified for r in got] == [r.certified for r in expected]
    assert _match_distance([r.location for r in got], [r.location for r in expected]) < 1e-10


def test_locate_reports_a_cluster_it_cannot_split(monkeypatch):
    # with the window itself below the smallest cell, no cell is split: the
    # window's zeros come back as one uncertified record carrying its winding
    monkeypatch.setattr(zeros, "MIN_CELL_DIAMETER", 10.0)
    with pytest.warns(zeros.ClusterWarning):
        zs = locate_zeros(MLContext(rho=2.0, n=20, lam=0.5), WINDOW)
    [rec] = zs.records
    assert not rec.certified
    assert rec.cluster_count == zs.total_winding == 29


def test_locate_lam1_masks_origin():
    ctx = MLContext(rho=2.0, n=10, lam=1.0)
    zs = locate_zeros(ctx, Window(-1.2, 1.2, -1.2, 1.2))
    # -tail has a zero of multiplicity n+1 at the origin, reported
    # separately instead of as n+1 coincident records
    assert zs.masked_origin_multiplicity == 11
    assert all(abs(r.location) > 1e-6 for r in zs.records)


# ---------------------------------------------------------- strip_filter

def test_strip_filter_partitions():
    rho = 2.0
    ray = cmath.exp(1j * math.pi / 4.0)
    on_ray = ZeroRecord(location=1.3 * ray, residual_log=-30.0, certified=True)
    off_ray = ZeroRecord(location=-1.0 + 0.0j, residual_log=-30.0,
                         certified=True)
    kept, filtered = strip_filter([on_ray, off_ray], rho, 0.1)
    assert [r.location for r in kept] == [off_ray.location]
    assert [r.location for r in filtered] == [on_ray.location]
    assert filtered[0].near_asymptote and not kept[0].near_asymptote
    with pytest.raises(ValueError):
        strip_filter([], rho, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            strip_filter([on_ray, off_ray], rho, bad)


def test_poly_zeros_requires_lam0():
    with pytest.raises(ValueError, match="requires lam = 0"):
        poly_zeros(MLContext(rho=2.0, n=10, lam=0.5))


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, -1.0, 0.0, 1.0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Window(bad, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        Window(-1.0, 1.0, -1.0, math.inf)
    w = Window(-1.0, 1.0, -1.0, 1.0)
    assert w.center == 0.0
    assert w.contains(0.5 + 0.5j) and not w.contains(2.0)
