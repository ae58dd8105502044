"""Acceptance checks: one test per criterion, one printed verdict line each.

The checks are property-based (convergence trends at desk scale); the
expensive zero sets are computed once in a session fixture and shared.
"""

import cmath
import json
import math
import os

import numpy as np
import pytest

from mlsections.curves import szego_curve
from mlsections.mitlef import (
    MLContext,
    combo,
    ml_asymptotic,
    ml_series,
    section,
    tail,
)
from mlsections.scaled import ScaledComplex, sc_sub, sc_to_complex
from mlsections.verify import (
    suite_kn,
    suite_lemma1,
    suite_lemma4,
    suite_theorem2,
    suite_theorem3,
    suite_theorem4,
)
from mlsections.zeros import Window, locate_zeros, poly_zeros, strip_filter, winding_number

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "series_asym.json")
WINDOW = Window(-1.8, 1.8, -1.8, 1.8)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def zero_sets():
    """(lam, n) -> ZeroSet for the criteria 4/5 matrix, computed once."""
    wanted = [(0.0, n) for n in (25, 50, 100)] \
        + [(1.0, n) for n in (25, 50, 100)] \
        + [(0.5, n) for n in (25, 50, 100)] \
        + [(0.3, n) for n in (50, 100)] \
        + [(0.7 + 0.2j, n) for n in (50, 100)]
    out = {}
    for lam, n in wanted:
        ctx = MLContext(rho=2.0, n=n, lam=lam)
        out[(lam, n)] = locate_zeros(ctx, WINDOW)
    return out


def _polyline_distance(z: complex, poly: list[complex]) -> float:
    best = math.inf
    for a, b in zip(poly, poly[1:]):
        d = b - a
        L2 = abs(d) ** 2
        if L2 == 0.0:
            best = min(best, abs(z - a))
            continue
        t = max(0.0, min(1.0, ((z - a).real * d.real + (z - a).imag * d.imag) / L2))
        best = min(best, abs(z - (a + t * d)))
    return best


@pytest.fixture(scope="session")
def szego_polyline():
    pts = szego_curve(2.0, 600, r_max=3.0)
    chains = {}
    for p in pts:
        chains.setdefault(p.branch.value, []).append(p.z)
    return chains  # branch -> list[complex]


# ---------------------------------------------------------------- criteria

def test_criterion_01_oracle_identities(capsys):
    worst_erf = 0.0
    for x in np.linspace(-3.0, 5.0, 81):
        got = sc_to_complex(ml_series(float(x), 2.0))
        ref = math.exp(x * x) * (1.0 + math.erf(x))
        worst_erf = max(worst_erf, abs(got - ref) / abs(ref))
    rng = np.random.default_rng(11)
    worst_exp = 0.0
    for _ in range(100):
        r = 30.0 * math.sqrt(rng.uniform())
        z = r * cmath.exp(2j * math.pi * rng.uniform())
        got = sc_to_complex(ml_series(z, 1.0))
        # measured against the e^{|z|} scale the power series cancels from
        worst_exp = max(worst_exp, abs(got - cmath.exp(z)) / math.exp(abs(z)))
    ok = worst_erf <= 1e-9 and worst_exp <= 1e-12
    _verdict(capsys, 1, ok,
             f"erf-identity rel {worst_erf:.2e} (tol 1e-9); "
             f"exp rel-to-scale {worst_exp:.2e} (tol 1e-12)")


def test_criterion_02_series_vs_asymptotics(capsys):
    with open(GOLDEN) as f:
        data = json.load(f)
    tol = 10.0 / data["radius"] ** 2
    worst = 0.0
    for e in data["entries"]:
        rho = e["rho"]
        z = complex(e["re"], e["im"])
        ref = ScaledComplex(e["log_mag"], e["phase"])
        gap = sc_sub(ml_asymptotic(z, rho), ref)
        if gap.is_zero:
            continue
        if abs(cmath.phase(z)) <= math.pi / (2.0 * rho):
            measure = math.exp(gap.log_mag - ref.log_mag)  # relative (growth)
        else:
            measure = math.exp(gap.log_mag)  # absolute (decay, |E| = O(1))
        worst = max(worst, measure)
    ok = worst <= tol
    _verdict(capsys, 2, ok,
             f"sup gap {worst:.3e} over 192 golden points (tol {tol})")


def test_criterion_03_splitting_and_forms(capsys):
    lam = 0.3 + 0.2j
    worst_split, worst_form = 0.0, 0.0
    for rho in (1.5, 2.0, 4.0):
        for n in (5, 15, 30):
            ctx = MLContext(rho=rho, n=n, lam=lam)
            for k in range(32):
                z = cmath.exp(2j * math.pi * k / 32)
                sec = sc_to_complex(section(z, ctx))
                tl = sc_to_complex(tail(z, ctx))
                tot = sc_to_complex(ml_series(ctx.radius_value * z, rho))
                scale = max(abs(sec), abs(tl), abs(tot))
                worst_split = max(worst_split, abs(sec + tl - tot) / scale)
                comb = sc_to_complex(combo(z, ctx))
                alt = (1.0 - lam) * sec - lam * tl
                scale2 = max(abs(comb), abs(alt), abs(lam * tl))
                worst_form = max(worst_form, abs(alt - comb) / scale2)
    ok = worst_split <= 1e-12 and worst_form <= 1e-10
    _verdict(capsys, 3, ok,
             f"splitting residual {worst_split:.2e} (tol 1e-12); "
             f"form residual {worst_form:.2e} (tol 1e-10)")


def test_criterion_04_zero_convergence(capsys, zero_sets, szego_polyline):
    poly = sum(szego_polyline.values(), [])
    chains = list(szego_polyline.values())
    details = []
    ok = True
    for lam in (0.0, 1.0, 0.5):
        dists = []
        for n in (25, 50, 100):
            kept, _ = strip_filter(zero_sets[(lam, n)].records, 2.0, 0.1)
            d = max(min(_polyline_distance(r.location, ch) for ch in chains)
                    for r in kept)
            dists.append(d)
        mono = all(dists[i + 1] < dists[i] for i in range(2))
        ok = ok and mono
        details.append(f"lam={lam}: " + "→".join(f"{d:.3f}" for d in dists))
    kept100, _ = strip_filter(zero_sets[(0.0, 100)].records, 2.0, 0.1)
    inside = all(abs(r.location) <= 1.1 for r in kept100)
    ok = ok and inside
    _verdict(capsys, 4, ok,
             "; ".join(details) + f"; lam=0 n=100 |z|<=1.1: {inside}")


def test_criterion_05_zero_free_regions(capsys, zero_sets):
    ok = True
    counts = []
    for lam in (0.0, 1.0, 0.3, 0.7 + 0.2j):
        rep = suite_theorem2(rho=2.0, lam=lam, n_list=(50, 100),
                             zero_sets={n: zero_sets[(lam, n)]
                                        for n in (50, 100)})
        ok = ok and rep["pass"]
        counts.append(f"lam={lam}: {rep['metric_list']}")
    _verdict(capsys, 5, ok, "region violations " + "; ".join(counts))


def test_criterion_06_theorem3(capsys):
    ok = True
    sups = []
    for lam in (0.0, 0.5, 1.0):
        rep = suite_theorem3(rho=2.0, lam=lam, n_list=(50, 100, 200))
        ok = ok and rep["pass"]
        sups.append(f"lam={lam}: " + "→".join(f"{s:.2f}"
                                              for s in rep["metric_list"]))
    _verdict(capsys, 6, ok, "; ".join(sups))


def test_criterion_07_theorem4(capsys):
    rep = suite_theorem4(rho=2.0, lam_list=(0.0, 1.0), n_list=(75, 300))
    _verdict(capsys, 7, rep["pass"],
             "sup errors at n=300 per (lam, frame): "
             + ", ".join(f"{m:.3f}" for m in rep["metric_list"]))


def test_criterion_08_kn_integral(capsys):
    rep = suite_kn(rho=2.0, n_list=(20, 80))
    _verdict(capsys, 8, rep["pass"],
             f"|ratio-1| max {rep['metric_list'][0]:.3f} at n=20 → "
             f"{rep['metric_list'][1]:.3f} at n=80 (tol 0.15)")


def test_criterion_09_lemma4(capsys):
    rep = suite_lemma4(rho=2.0, n_list=(100, 200))
    _verdict(capsys, 9, rep["pass"],
             "J1/J2 bounds hold on all region samples (C1 = "
             f"{rep['params']['C1']})")


def test_criterion_10_lemma1(capsys):
    rep = suite_lemma1(rho=2.0)
    _verdict(capsys, 10, rep["pass"],
             "asymptote distances " + "→".join(f"{d:.3f}"
                                               for d in rep["metric_list"]))


def test_criterion_11_zero_finder_crossval(capsys):
    ok = True
    details = []
    big = Window(-2.5, 2.5, -2.5, 2.5)
    for rho, n in ((2.0, 15), (4.0, 25)):
        ctx = MLContext(rho=rho, n=n, lam=0.0)
        located = [r.location for r in locate_zeros(ctx, big).records]
        expected = [r.location for r in poly_zeros(ctx)
                    if big.contains(r.location)]
        if len(located) != len(expected):
            ok = False
            details.append(f"(rho={rho},n={n}): count mismatch")
            continue
        pool = list(expected)
        worst = 0.0
        for z in sorted(located, key=abs):
            j = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
            worst = max(worst, abs(pool.pop(j) - z))
        ok = ok and worst <= 1e-8
        details.append(f"(rho={rho},n={n}): match {worst:.1e}")
    ctx = MLContext(rho=2.0, n=20, lam=0.5)
    outer = Window(-2.0, 2.0, -2.0, 2.0)
    total = winding_number(ctx, outer)
    rng = np.random.default_rng(17)
    adds = 0
    for _ in range(20):
        if rng.uniform() < 0.5:
            x = rng.uniform(-1.2, 1.2)
            w1 = Window(outer.re_min, x, outer.im_min, outer.im_max)
            w2 = Window(x, outer.re_max, outer.im_min, outer.im_max)
        else:
            y = rng.uniform(-1.2, 1.2)
            w1 = Window(outer.re_min, outer.re_max, outer.im_min, y)
            w2 = Window(outer.re_min, outer.re_max, y, outer.im_max)
        if winding_number(ctx, w1) + winding_number(ctx, w2) == total:
            adds += 1
    ok = ok and adds == 20
    details.append(f"winding additivity {adds}/20 splits")
    _verdict(capsys, 11, ok, "; ".join(details))
