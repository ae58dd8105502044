"""Tests for the polynomial and argument-principle zero finders."""

import cmath
import math

import numpy as np
import pytest

from mlsections.mitlef import MLContext, radius
from mlsections.specfun import ln_gamma
from mlsections.zeros import (
    BoundaryZeroError,
    Window,
    ZeroRecord,
    _certify,
    _newton_polish,
    _winding_numbers,
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


@pytest.mark.parametrize("rho,n", [(2.0, 10), (4.0, 25)])
def test_poly_zeros_count_and_conjugacy(rho, n):
    recs = poly_zeros(MLContext(rho=rho, n=n, lam=0.0))
    assert len(recs) == n
    locs = [r.location for r in recs]
    # real coefficients: zero set closed under conjugation
    assert _match_distance(locs, [z.conjugate() for z in locs]) < 1e-9
    assert all(r.certified for r in recs)


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


def test_multi_rectangle_count_fails_only_the_stalled_rectangle():
    # rho = 1, n = 1: I = 1 + z, and the left edge of the second rectangle
    # runs through its zero at -1, which refinement cannot resolve
    ctx = MLContext(rho=1.0, n=1, lam=0.0)
    rects = [Window(-3.0, 0.0, -1.0, 1.0), Window(-1.0, 3.0, -2.0, 2.0),
             Window(0.5, 1.5, -1.0, 1.0), Window(-1.5, -0.5, -0.5, 0.5)]
    assert _winding_numbers(ctx, rects) == [1, None, 0, 1]
    with pytest.raises(BoundaryZeroError):
        winding_number(ctx, rects[1])
    assert [winding_number(ctx, r) for r in rects[::2]] == [1, 0]


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.5])
def test_multi_rectangle_count_matches_one_at_a_time(lam):
    ctx = MLContext(rho=2.0, n=12, lam=lam)
    rng = np.random.default_rng(3)
    rects = []
    for _ in range(8):
        x, y = sorted(rng.uniform(-1.8, 1.8, 2)), sorted(rng.uniform(-1.8, 1.8, 2))
        rects.append(Window(x[0], x[1], y[0], y[1]))
    assert _winding_numbers(ctx, rects) == [winding_number(ctx, r) for r in rects]


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.5])
def test_batched_polish_and_certify_match_one_at_a_time(lam):
    """One batch gives the records of the same starts polished one by one.

    At lam = 0 every evaluation is independent of the batch, so the records
    are bit-identical.  Otherwise the series cutoff is shared by the batch
    and values move at rounding level: roots agree to 1e-12 and the flags
    exactly; ln|I| at a root is rounding noise and is not compared.
    """
    ctx = MLContext(rho=2.0, n=12, lam=lam)
    rng = np.random.default_rng(5)
    near = [r.location + 1e-3 for r in locate_zeros(ctx, WINDOW).records[:6]]
    starts = np.concatenate([near, rng.uniform(-1.5, 1.5, 10) + 1j * rng.uniform(-1.5, 1.5, 10),
                             [0.0]])
    z, res, ok, unc = _newton_polish(starts, ctx, 1e-10)
    cert = np.zeros(len(starts), dtype=bool)
    cert[ok] = _certify(z[ok], ctx, 1e-10, unc[ok])
    assert ok[:len(near)].all() and cert[:len(near)].all()
    for k, z0 in enumerate(starts):
        z1, res1, ok1, unc1 = _newton_polish(np.array([z0]), ctx, 1e-10)
        assert ok1[0] == ok[k]
        if ok1[0]:
            assert _certify(z1, ctx, 1e-10, unc1)[0] == cert[k]
        if lam == 0:
            assert (z1[0], res1[0], unc1[0]) == (z[k], res[k], unc[k])
        else:
            assert abs(z1[0] - z[k]) <= 1e-12 * max(1.0, abs(z[k]))


# --------------------------------------------------------- locate_zeros

def test_locate_n1():
    zs = locate_zeros(MLContext(rho=2.0, n=1, lam=0.0), WINDOW)
    assert len(zs.records) == 1
    assert zs.records[0].location == pytest.approx(-1.0, abs=1e-10)
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


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, -1.0, 0.0, 1.0)
    w = Window(-1.0, 1.0, -1.0, 1.0)
    assert w.center == 0.0
    assert w.contains(0.5 + 0.5j) and not w.contains(2.0)
