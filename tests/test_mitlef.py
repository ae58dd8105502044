"""Series, sections, tails, radii and the lambda-combination."""

import cmath
import functools
import json
import math
import os
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mlsections import mitlef
from mlsections.mitlef import (
    MLContext,
    TruncationError,
    _LOG_EPS,
    _kernel_at,
    _log_terms,
    _peak_and_cutoff,
    combo,
    combo_batch,
    combo_derivative,
    combo_normalized,
    ml_asymptotic,
    ml_series,
    radius,
    section,
    tail,
)
from mlsections.scaled import ScaledComplex, sc_sub, sc_to_complex
from mlsections.specfun import ln_gamma

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "series_asym.json")
E_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "e_integral.json")


def _rel(a: ScaledComplex, b: ScaledComplex) -> float:
    """|a-b| / max(|a|,|b|), computed from scaled values."""
    d = sc_sub(a, b)
    if d.is_zero:
        return 0.0
    return math.exp(d.log_mag - max(a.log_mag, b.log_mag))


# ---------------------------------------------------------------- radii

def test_radius_values():
    assert radius(1, 2.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
    assert radius(5, 2.0) == pytest.approx(
        math.exp(math.lgamma(3.5) - math.lgamma(3.0)), rel=1e-12)


def test_radius_asymptotic_expansion():
    def stirling(n, rho):
        """Two-term Stirling expansion (n/rho)^(1/rho) (1 + (rho-1)/(2 rho n))."""
        return (n / rho) ** (1.0 / rho) * (1.0 + (rho - 1.0) / (2.0 * rho * n))

    assert abs(radius(100, 2.0) - stirling(100, 2.0)) / radius(100, 2.0) < 1e-4
    # residual is O(1/n^2)
    r3 = abs(radius(1000, 2.0) / stirling(1000, 2.0) - 1.0)
    r4 = abs(radius(10000, 2.0) / stirling(10000, 2.0) - 1.0)
    assert r4 < r3 / 50.0


def test_radius_rejects_n0():
    with pytest.raises(ValueError):
        radius(0, 2.0)


# ---------------------------------------------------------- central index

@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_central_index_jumps(rho):
    for n in range(1, 51):
        rn = radius(n, rho)
        eps = 1e-9 * rn
        assert _peak_and_cutoff(math.log(rn + eps), rho)[1] == n
        assert _peak_and_cutoff(math.log(rn - eps), rho)[1] == n - 1


def test_max_term_small_r():
    assert _peak_and_cutoff(math.log(1e-12), 2.0)[1] == 0


def _brute_cutoff(lr, rho):
    """Peak, its last index and the cutoff, from one long row of log-terms."""
    t = _log_terms(np.array([lr]), 0, 20_000, rho)[0]
    nu = int(np.flatnonzero(t == t.max())[-1])
    first = nu + 1 + int(np.argmax(t[nu + 1:] < t[nu] + math.log(mitlef.REL_TOL)))
    assert first < len(t) - 1
    return float(t[nu]), nu, first + mitlef.TAIL_MARGIN


_CUTOFF_CASES = [(rho, end) for end in (None, 1, 8, 33) for rho in (1.5, 2.0, 4.0)]


@pytest.mark.parametrize("rho,first_end", _CUTOFF_CASES,
                         ids=[f"{r}" if e is None else f"{r}-first{e}" for r, e in _CUTOFF_CASES])
def test_cutoff_matches_brute_force(rho, first_end, monkeypatch):
    if first_end is not None:  # a first chunk that falls short: the scan doubles it
        monkeypatch.setattr(mitlef, "_first_scan_end", lambda lr, rho: first_end)
    # log r from -3 up to a central index of ~10^4
    for lr in np.linspace(-3.0, math.log(1e4 / rho) / rho, 41):
        assert _peak_and_cutoff(lr, rho) == _brute_cutoff(lr, rho)
    for n in range(1, 60):
        # exactly at a jump radius the larger index wins a tie
        lr = math.log(radius(n, rho))
        got = _peak_and_cutoff(lr, rho)
        assert got == _brute_cutoff(lr, rho)
        assert got[1] in (n - 1, n)
    # an exact floating-point tie: rho = 1, r = R_1 = 1, terms 1/k!
    assert _peak_and_cutoff(0.0, 1.0)[1] == 1


def test_cutoff_well_below_old_floor_on_acceptance_window():
    # the scan used to return from its second 4096-term chunk only
    for n in (20, 50, 100):
        lr = math.log(radius(n, 2.0) * abs(1.8 + 1.8j))
        kcut = _peak_and_cutoff(lr, 2.0)[2]
        assert kcut == _brute_cutoff(lr, 2.0)[2]
        assert kcut < 4160


def test_truncation_budget(monkeypatch):
    lr = math.log(radius(50, 2.0) * abs(1.8 + 1.8j))
    kcut = _peak_and_cutoff(lr, 2.0)[2]
    # the peak itself lies past the budget (central index ~ 6.5e5)
    with pytest.raises(TruncationError):
        _peak_and_cutoff(math.log(20.0), 4.0)
    full = {w: ml_series(w, 2.0) for w in (7.0, -7.0, 7.0j)}
    monkeypatch.setattr(mitlef, "MAX_TERMS", kcut)
    assert _peak_and_cutoff(lr, 2.0)[2] == kcut
    monkeypatch.setattr(mitlef, "MAX_TERMS", kcut - 1)
    with pytest.raises(TruncationError):
        _peak_and_cutoff(lr, 2.0)
    monkeypatch.setattr(mitlef, "MAX_TERMS", 16)
    with pytest.raises(TruncationError):
        _peak_and_cutoff(0.0, 2.0)
    # past the budget the asymptotic form serves where e^{-|w|^rho} is below
    # REL_TOL (|w| = 7: central index 98 > 40), and only there (|w| = 5:
    # central index 50 > 40, but e^{-25} is above REL_TOL)
    monkeypatch.setattr(mitlef, "MAX_TERMS", 40)
    monkeypatch.setattr(mitlef, "TAIL_MARGIN", 1)
    for w, ref in full.items():
        assert _rel(ml_series(w, 2.0), ref) < 1e-13
    with pytest.raises(TruncationError):
        ml_series(5.0, 2.0)


# ----------------------------------------------------------------- series

def test_series_trivia():
    assert sc_to_complex(ml_series(0.0, 3.0)) == pytest.approx(1.0)
    assert sc_to_complex(ml_series(1.0, 1.0)) == pytest.approx(math.e,
                                                               rel=1e-13)


def test_series_exponential_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-21, 21), rng.uniform(-21, 21))
        got = sc_to_complex(ml_series(z, 1.0))
        # The power series cancels down from terms as large as e^{|z|}, so
        # the achievable absolute accuracy scales with e^{|z|}, not |e^z|.
        assert abs(got - cmath.exp(z)) <= 1e-12 * math.exp(abs(z))


def test_series_erf_identity():
    for x in np.linspace(-3.0, 5.0, 81):
        got = ml_series(complex(x), 2.0)
        expected = math.exp(x * x) * (1.0 + math.erf(x))
        assert abs(sc_to_complex(got) - expected) <= 1e-9 * abs(expected)


def _ml_mu_mp(w, rho, mu):
    """sum_k w^k / Gamma(mu + k/rho) in mpmath, to 1e-45 of the sum."""
    w, rho, mu = mp.mpc(w), mp.mpf(rho), mp.mpf(mu)
    total, k = mp.mpc(0), 0
    while True:
        term = w ** k / mp.gamma(mu + k / rho)
        total += term
        if k > 10 and abs(term) < mp.mpf(10) ** -45 * abs(total):
            return total
        k += 1


def test_tail_via_ml_mu_identity():
    # t_{n+1}(w) = w^{n+1} sum_k w^k / Gamma(1 + (n+1)/rho + k/rho), summed in
    # 40-digit mpmath, on both sides of |w| = R_{n+1}: inside, tail is its
    # forward sum; outside, that sum can cancel and E - s_n may serve
    n = 20
    with mp.workdps(40):
        for rho in (1.5, 2.0, 4.0):
            ctx = MLContext(rho=rho, n=n)
            rn = radius(n, rho)
            edge = radius(n + 1, rho) / rn
            for mag in (0.5, 0.99 * edge, 1.01 * edge, 1.2):
                for arg in (0.0, math.pi / 8, 2.0, math.pi):
                    z = mag * cmath.exp(1j * arg)
                    w = rn * z
                    ref = mp.mpc(w) ** (n + 1) * _ml_mu_mp(w, rho, 1 + mp.mpf(n + 1) / rho)
                    got = tail(z, ctx)
                    rel = abs(mp.exp(got.log_mag - mp.log(ref)) * mp.expj(got.phase) - 1)
                    assert rel < 1e-12, (rho, mag, arg)


# ------------------------------------------------------------- asymptotics

def test_asymptotic_spot_values():
    v = ml_asymptotic(-20.0, 2.0)
    assert sc_to_complex(v) == pytest.approx(1.0 / (20.0 * math.sqrt(math.pi)),
                                             rel=1e-3)
    g = ml_asymptotic(20.0, 2.0)
    assert g.log_mag == pytest.approx(400.0 + math.log(2.0), abs=1e-6)
    with pytest.raises(ValueError):
        ml_asymptotic(1.0, 2.0)


def test_series_asymptotic_agreement_golden():
    """64-angle comparison on |z| = 20 against frozen high-precision values.

    In the growth sector the gap is measured relative to the function; in
    the decay sector the printed expansion's remainder bound is absolute
    (the next algebraic term is itself ~3% of the function for rho != 2),
    so the absolute gap is compared there.
    """
    with open(GOLDEN) as f:
        data = json.load(f)
    tol = 10.0 / data["radius"] ** 2
    for e in data["entries"]:
        rho = e["rho"]
        z = complex(e["re"], e["im"])
        ref = ScaledComplex(e["log_mag"], e["phase"])
        asym = ml_asymptotic(z, rho)
        gap = sc_sub(asym, ref)
        in_growth = abs(cmath.phase(z)) <= math.pi / (2.0 * rho)
        if in_growth:
            assert math.exp(gap.log_mag - ref.log_mag) <= tol
            # The power series cancels down from peak terms ~ e^{r^rho}, so
            # its absolute error floor sits that far above machine epsilon.
            peak_log = abs(z) ** rho
            if peak_log < 500.0:  # series feasible in double precision
                ser_gap = sc_sub(ml_series(z, rho), ref)
                assert ser_gap.is_zero or ser_gap.log_mag <= peak_log - 25.0
        else:
            assert math.exp(gap.log_mag) <= tol if not gap.is_zero else True


@pytest.mark.parametrize("w,rho", [(20.0, 4.0), (20j, 4.0), (-20.0, 2.0), (-7.0, 2.0),
                                   (15j, 1.5)])
def test_asymptotic_floor_is_not_below_rounding(w, rho):
    # E from its asymptotic form is rounded like any computed value: its
    # floor may not claim less than eps of it, however small the remainder
    val, floor = _kernel_at(w, 0, rho, 0.0, 1.0)
    assert floor >= val.log_mag + _LOG_EPS - 0.5


def test_series_matches_golden_everywhere():
    """ml_series on |z| = 20 against the frozen high-precision values.

    In the decay sector the power series cancels from terms near e^{|z|^rho}
    down to |E| = O(1/|z|), so the value must come from the asymptotic form
    there.  At rho = 4 the series would need ~6e5 terms, beyond MAX_TERMS,
    so every point takes the asymptotic form.
    """
    with open(GOLDEN) as f:
        data = json.load(f)
    assert {e["rho"] for e in data["entries"]} == {1.5, 2.0, 4.0}
    for e in data["entries"]:
        ref = ScaledComplex(e["log_mag"], e["phase"])
        got = ml_series(complex(e["re"], e["im"]), e["rho"])
        assert _rel(got, ref) <= 1e-5, (e["rho"], e["re"], e["im"])


def test_e_integral_floor_holds_against_mpmath():
    """E and E' from _e_integral against mpmath (tools/gen_goldens.py), at
    rho in {1.1, 1.25, 1.5, 2, 3, 4} and |w|^rho from 0.05 to 450 on the
    lines arg w = 0, +-pi/rho and pi: the error never exceeds the returned
    floor, which is finite from |w| = (1.5 _E_S0)^2 on and there within 1e-8
    of |E| (6.4e-9 at rho = 1.5, arg w = pi, where a pole sits on the edge
    of the sector in which e^{-chi^rho} decays).  At rho <= 1.25 the ray
    of pi/(4 rho) would pass a pole; at rho = 4 and small |w| on
    arg w = +-pi/rho the pole comes within |w| sin(pi/16) of it.  The pass
    for both gives each what the pass for it alone gives, bit for bit."""
    with open(E_GOLDEN) as f:
        data = json.load(f)
    assert {e["rho"] for e in data} == {1.1, 1.25, 1.5, 2.0, 3.0, 4.0}
    finite = 0
    for e in data:
        rho, w = e["rho"], complex(e["re"], e["im"])
        for deriv, ref in ((False, complex(*e["e"])), (True, complex(*e["de"]))):
            # arg w = -pi/rho and -pi take the other ray
            for x, r in ((w, ref), (w.conjugate(), ref.conjugate())):
                both = mitlef._e_integral(np.array([x]), rho, (0, 1))
                assert np.array_equal(both[:3], mitlef._e_integral(np.array([x]), rho))
                assert np.array_equal(both[3:], mitlef._e_integral(np.array([x]), rho, (1,)))
                log_mag, phase, log_err = both[3 * deriv:3 * deriv + 3]
                err = abs(cmath.exp(log_mag[0] + 1j * phase[0]) - r)
                assert err <= math.exp(log_err[0]), (rho, x, deriv)
                if abs(x) >= (1.5 * mitlef._E_S0) ** 2:
                    finite += 1
                    assert log_err[0] <= math.log(1e-8 * abs(r)), (rho, x, deriv)
    assert finite >= 450
    # tail at rho = 4, n = 20, z = 1.5 e^{i pi/8}, where the asymptotic
    # expansion's floor once claimed 6.8e-9 with the tail 1.5e-8 off
    rho, n = 4.0, 20
    w = radius(n, rho) * 1.5 * cmath.exp(1j * math.pi / 8)
    val, floor = _kernel_at(w, n, rho, -1.0, 1.0)
    with mp.workdps(60):
        ref = mp.mpc(w) ** (n + 1) * _ml_mu_mp(w, rho, 1 + mp.mpf(n + 1) / rho)
        err = abs(mp.exp(val.log_mag) * mp.expj(val.phase) - ref)
    assert err <= math.exp(floor)


def test_e_integral_stays_small_and_honest_at_extreme_rho():
    """As rho -> 1 (the ray angle phi = (pi - pi/rho)/2 -> 0) and past
    rho = 2 pi (phi = pi/(4 rho) < 1/8), panels growing by 1 + phi would
    take 1/phi of them; the table stays within 28 panels, and the floor
    still bounds the error against mpmath (E' = rho E_{1/rho,1/rho})."""
    for rho in (1 + 1e-9, 1 + 1e-6, 1.001, 1.05, 10.0, 100.0, 1e6):
        for weights in mitlef._e_table(rho)[3]:
            assert weights.size <= 28 * 16, rho
    w = 0.5 + 0.5j
    val = ml_series(w, 1 + 1e-9)
    with mp.workdps(30):
        assert abs(mp.exp(val.log_mag) * mp.expj(val.phase) - _ml_mu_mp(w, 1 + 1e-9, 1)) <= 1e-15
    finite = 0
    for rho in (1 + 1e-6, 1.05, 10.0):
        a = math.pi / rho
        for size in (0.6, 3.0, 20.0):
            for theta in (0.0, 0.5 * a, a - 0.1, a + 0.1, math.pi):
                w = size ** (1 / rho) * cmath.exp(1j * theta)
                with mp.workdps(40):
                    refs = (_ml_mu_mp(w, rho, 1), rho * _ml_mu_mp(w, rho, 1 / mp.mpf(rho)))
                    for deriv, ref in zip((False, True), refs):
                        log_mag, phase, log_err = mitlef._e_integral(np.array([w]), rho, (deriv,))
                        err = abs(mp.exp(log_mag[0]) * mp.expj(phase[0]) - ref)
                        assert err <= math.exp(log_err[0]), (rho, w, deriv)
                        finite += log_err[0] < math.log(1e-8 * abs(ref))
    assert finite >= 60


# ------------------------------------------------------ section/tail/combo

def test_section_closed_forms():
    ctx = MLContext(rho=2.0, n=1)
    for z in (0.3 + 0.1j, -2.0, 1.5j):
        assert sc_to_complex(section(z, ctx)) == pytest.approx(1.0 + z,
                                                               rel=1e-12)
    assert sc_to_complex(section(0.0, ctx)) == pytest.approx(1.0)
    assert abs(sc_to_complex(section(-1.0 + 0j, ctx))) < 1e-14


def test_tail_at_zero():
    assert tail(0.0, MLContext(rho=2.0, n=5)).is_zero


@pytest.mark.parametrize("rho,n", [(1.5, 5), (2.0, 15), (4.0, 30)])
def test_splitting_identity(rho, n):
    ctx = MLContext(rho=rho, n=n)
    for k in range(16):
        z = cmath.exp(2j * math.pi * k / 16)
        total = ml_series(ctx.radius_value * z, rho)
        sec = sc_to_complex(section(z, ctx))
        tl = sc_to_complex(tail(z, ctx))
        # Backward-style measure: section and tail can cancel, so the
        # residual is compared against the largest operand magnitude.
        scale = max(abs(sec), abs(tl), abs(sc_to_complex(total)))
        assert abs(sec + tl - sc_to_complex(total)) <= 1e-12 * scale


def test_tail_two_paths_agree():
    ctx = MLContext(rho=2.0, n=20)
    t_forward = tail(0.5, ctx)
    w = ctx.radius_value * 0.5
    e_minus_s = sc_sub(ml_series(w, 2.0), section(0.5, ctx))
    assert _rel(t_forward, e_minus_s) < 1e-10


def test_tail_warns_only_where_it_loses_half_the_digits():
    # a point about 1e-8 from a zero of t_101 (rho = 1.5, the zero near
    # 1.1530543664 + 0.2476626181i): no form keeps half the digits of so
    # small a tail, which is 9.7e-8 off its 60-digit mpmath value there
    with pytest.warns(mitlef.CancellationWarning):
        tail(1.15305437 + 0.24766262j, MLContext(rho=1.5, n=100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail(0.5, MLContext(rho=2.0, n=50))


def test_combo_special_lambdas():
    ctx0 = MLContext(rho=2.0, n=12, lam=0.0)
    z = 0.6 * cmath.exp(1j * math.pi / 10)
    assert _rel(combo(z, ctx0), section(z, ctx0)) < 1e-11
    ctx1 = MLContext(rho=2.0, n=12, lam=1.0)
    t = tail(z, ctx1)
    c = combo(z, ctx1)
    assert c.log_mag == pytest.approx(t.log_mag, abs=1e-11)
    # phases opposite: combo = -tail
    assert abs(cmath.exp(1j * c.phase) + cmath.exp(1j * t.phase)) < 1e-10


def test_combo_form_identity():
    lam = 0.3 + 0.2j
    ctx = MLContext(rho=2.0, n=25, lam=lam)
    z = 1.4 * cmath.exp(1j * math.pi / 12)
    direct = (1.0 - lam) * sc_to_complex(section(z, ctx)) \
        - lam * sc_to_complex(tail(z, ctx))
    got = sc_to_complex(combo(z, ctx))
    assert abs(direct - got) <= 1e-10 * abs(got)


def test_combo_batch_matches_scalar():
    ctx = MLContext(rho=2.0, n=30, lam=0.5)
    zs = np.array([0.4 + 0.2j, -1.1 + 0.6j, 1.6 - 0.9j, 0.05j])
    lm, ph = combo_batch(zs, ctx)
    for z, l, p in zip(zs, lm, ph):
        c = combo(complex(z), ctx)
        assert l == pytest.approx(c.log_mag, abs=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.7 + 0.2j])
def test_combo_batch_rows_do_not_depend_on_the_batch(lam):
    """Each point's value is the same, bit for bit, in any batch: split
    across chunk boundaries, permuted, or alone.  At lam != 0 the kernel
    sorts the points by their cutoff radius and writes each chunk back to
    its own points; z = 60 (|w| ~ 425) lies past the far rule's radius."""
    ctx = MLContext(rho=2.0, n=100, lam=lam)
    m = 2 * (mitlef._CHUNK_ELEMENTS // (ctx.n + 1)) + 3  # at least three chunks
    rng = np.random.default_rng(11)
    zs = np.concatenate([[60.0], rng.uniform(-1.8, 1.8, m) + 1j * rng.uniform(-1.8, 1.8, m)])
    perm = rng.permutation(zs.size)
    for deriv in (False, True):
        full = combo_batch(zs, ctx, deriv)
        cut = zs.size // 3
        head, rest = combo_batch(zs[:cut], ctx, deriv), combo_batch(zs[cut:], ctx, deriv)
        shuffled = combo_batch(zs[perm], ctx, deriv)
        for whole, a, b, c in zip(full, head, rest, shuffled):
            assert np.array_equal(whole, np.concatenate([a, b]))
            assert np.array_equal(whole[perm], c)
        for i in range(0, zs.size, 97):
            one = combo_batch(zs[i:i + 1], ctx, deriv)
            assert one[0][0] == full[0][i] and one[1][0] == full[1][i]


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 0.7 + 0.2j])
def test_fused_pass_halves_do_not_depend_on_the_batch(lam):
    """The pass for value and derivative gives each point the same six
    arrays, bit for bit, in any batch: split, permuted, or alone; and its
    halves are the value-only and the derivative-only passes, bit for bit.
    z = 1e-20j takes the derivative's first term (|w| < _FLAT)."""
    rho, n = 2.0, 100
    m = 2 * (mitlef._CHUNK_ELEMENTS // (n + 1)) + 3  # at least three chunks
    rng = np.random.default_rng(12)
    zs = np.concatenate([[60.0, 1e-20j],
                         rng.uniform(-1.8, 1.8, m) + 1j * rng.uniform(-1.8, 1.8, m)])
    perm = rng.permutation(zs.size)

    def rows(z, orders=(0, 1)):
        return np.vstack(mitlef._series_kernel(radius(n, rho) * z, n, rho, 1.0, -lam, orders))

    full = rows(zs)
    cut = zs.size // 3
    assert np.array_equal(np.hstack([rows(zs[:cut]), rows(zs[cut:])]), full)
    assert np.array_equal(rows(zs[perm]), full[:, perm])
    for i in range(0, zs.size, 97):
        assert np.array_equal(rows(zs[i:i + 1])[:, 0], full[:, i])
    assert np.array_equal(full[:3], rows(zs, (0,)))
    assert np.array_equal(full[3:], rows(zs, (1,)))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_mixed_routes_match_one_point_calls(lam, monkeypatch):
    """A batch that mixes routes gives each point the value, phase and floor
    of its one-point call, bit for bit.  The routes are read off _routes,
    whose floors come in the order of the suspect points that _e_integral
    receives: at lam = 0 some points take C, at lam = 0.5 some past
    R_{n+1} take B, and in both some take A."""
    rho, n = 2.0, 100
    rng = np.random.default_rng(5)
    z = np.concatenate([[60.0], rng.uniform(-1.8, 1.8, 400) + 1j * rng.uniform(-1.8, 1.8, 400)])
    w = radius(n, rho) * z
    exact, routes, suspect, chosen = mitlef._e_integral, mitlef._routes, [], []

    def spy_exact(wv, *args):
        suspect.extend(wv)
        return exact(wv, *args)

    def spy_routes(*floors):
        use_b, use_c = routes(*floors)
        chosen.append((use_b, use_c))
        return use_b, use_c

    monkeypatch.setattr(mitlef, "_e_integral", spy_exact)
    monkeypatch.setattr(mitlef, "_routes", spy_routes)
    batch = np.stack(mitlef._series_kernel(w, n, rho, 1.0, -lam))
    at = np.array(suspect)
    (use_b, use_c), = chosen
    assert at.size < w.size  # some points take A outright
    if lam == 0:
        assert use_c.any()
    else:
        assert (use_b & (np.abs(at) > radius(n + 1, rho))).any()
    for i in range(w.size):
        one = np.stack(mitlef._series_kernel(w[i:i + 1], n, rho, 1.0, -lam))
        assert np.array_equal(one[:, 0], batch[:, i])


def test_kernel_row_arrays_stay_within_the_chunk_budget(monkeypatch):
    """Each block of series rows and C-route tail rows (_log_terms), of
    their index-weighted magnitudes for the derivative (_norm_sum for
    order 1), and of E rows (_e_sum, complex, one column per quadrature
    node, shared by E and E') the kernel builds holds at most
    _CHUNK_ELEMENTS reals: the pass for both orders adds a row array of the
    same size to each block, not a wider one.  The one-column first tail term of
    the suspect points is a per-point array, like the call's outputs, and
    is not held to the budget."""
    sizes = {"series": [], "weighted": [], "exact": []}
    log_terms, norm_sum, e_sum = mitlef._log_terms, mitlef._norm_sum, mitlef._e_sum

    def terms(lr, k0, k1, *args):
        if k1 - k0 > 1:
            sizes["series"].append(np.size(lr) * (k1 - k0))
        return log_terms(lr, k0, k1, *args)

    def sums(logt, theta, j0, orders=(0,)):
        if 1 in orders:
            sizes["weighted"].append(logt.size)
        return norm_sum(logt, theta, j0, orders)

    def exact_rows(wf, rho, orders):
        sizes["exact"].append(2 * mitlef._e_table(rho)[3][0].size * np.size(wf))
        return e_sum(wf, rho, orders)

    monkeypatch.setattr(mitlef, "_log_terms", terms)
    monkeypatch.setattr(mitlef, "_norm_sum", sums)
    monkeypatch.setattr(mitlef, "_e_sum", exact_rows)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-1.8, 1.8, 4000) + 1j * rng.uniform(-1.8, 1.8, 4000)
    for lam in (0.0, 0.5):
        for deriv in (False, True):
            combo_batch(zs, MLContext(2.0, 100, lam), deriv)
        mitlef._series_kernel(radius(100, 2.0) * zs, 100, 2.0, 1.0, -lam, (0, 1))
    assert len(sizes["exact"]) > 4 and sizes["series"] and sizes["weighted"]
    assert max(sizes["series"] + sizes["weighted"] + sizes["exact"]) <= mitlef._CHUNK_ELEMENTS


def test_combo_normalized_definition_and_regime():
    # At lam=1 the exponentially large part of E drops out of the
    # normalized combination and the limit is the geometric-tail value
    # -z/(1-z); at lam=0 that part dominates for small |z| instead.
    ctx = MLContext(rho=2.0, n=200, lam=1.0)
    v = combo_normalized(0.3, ctx)
    assert abs(sc_to_complex(v) - (-0.3 / 0.7)) < 0.05
    ctx0 = MLContext(rho=2.0, n=200, lam=0.0)
    assert combo_normalized(0.3, ctx0).log_mag > 100.0
    with pytest.raises(ValueError):
        combo_normalized(0.0, ctx0)
    # log-space definition is exact
    ctx2 = MLContext(rho=2.0, n=40, lam=0.5)
    z = 0.8 + 0.3j
    c, cn = combo(z, ctx2), combo_normalized(z, ctx2)
    shift = ln_gamma(1.0 + 20.0) - 40.0 * math.log(abs(ctx2.radius_value * z))
    assert cn.log_mag == pytest.approx(c.log_mag + shift, abs=1e-9)


def test_combo_derivative():
    ctx1 = MLContext(rho=2.0, n=1, lam=0.0)
    for z in (0.2, -1.0 + 0.5j):
        assert sc_to_complex(combo_derivative(z, ctx1)) == pytest.approx(
            1.0, rel=1e-11)
    ctx = MLContext(rho=2.0, n=10, lam=0.4)
    z = 0.8 + 0.1j
    h = 1e-6
    fd = (sc_to_complex(combo(z + h, ctx))
          - sc_to_complex(combo(z - h, ctx))) / (2.0 * h)
    got = sc_to_complex(combo_derivative(z, ctx))
    assert abs(fd - got) <= 1e-6 * abs(got)
    ctx0 = MLContext(rho=2.0, n=7, lam=0.0)
    expected = ctx0.radius_value * math.exp(-ln_gamma(1.0 + 0.5))
    assert sc_to_complex(combo_derivative(0.0, ctx0)) == pytest.approx(
        expected, rel=1e-11)


def test_context_validation():
    with pytest.raises(ValueError):
        MLContext(rho=0.8, n=5)
    with pytest.raises(ValueError):
        MLContext(rho=2.0, n=0)
    for n in (10.5, 10.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            MLContext(rho=2.0, n=n)
    assert MLContext(rho=2.0, n=np.int64(10)).radius_value == radius(10, 2.0)
    for rho, lam in ((math.inf, 0.5), (math.nan, 0.5), (2.0, math.nan), (2.0, complex(0.5, math.inf))):
        with pytest.raises(ValueError, match="must be finite"):
            MLContext(rho=rho, n=5, lam=lam)


# (z, log|s_n(R_n z)|, arg s_n(R_n z)) at rho = 2, n = 600: the points
# theorem4_frames(2, 600)[0].map(zeta) of the inner curve frame for
# zeta = 1.5, -1.5, 1.5i, 0.75+0.75i, with s_n summed in 60-digit mpmath at
# the exact R_n.  s_n cancels there by ~e^{20} below its largest term.
_INNER_FRAME_N600 = [
    (0.7844223452459711, 0.20355847300268606, 172.89019914221885, 1.4678424655842668),
    (0.7892718090275993, 0.2094334198484671, 175.75371325149976, 2.94757795415611),
    (0.7897845505596759, 0.20407121453476249, 174.9078648790804, -2.7567851286322687),
    (0.7871034479028235, 0.20381484376872427, 173.73255399229106, 1.9861607300482045),
]


def test_section_rounding_floor_at_large_n():
    # the ln Gamma(1 + k/rho) log-terms near k = 600 are rounded to ~2e-13
    # absolute, so the direct sum is good only to that times e^{gap}; the
    # error floor must say so and hand these points to E - t_{n+1}
    ctx = MLContext(rho=2.0, n=600, lam=0.0)
    for x, y, log_mag, phase in _INNER_FRAME_N600:
        got = combo(complex(x, y), ctx)
        assert _rel(got, ScaledComplex(log_mag, phase)) <= 1e-9


# (z, log|s_n(R_n z)|, arg s_n(R_n z)) at rho = 2, n = 300, summed in
# 60-digit mpmath at the double R_n.  These points take E - t_{n+1}; the
# row's peak sits near k = 140, far above t_{n+1}, and the tail terms fall
# only by ~e^{-0.37} each, so t_{n+1} needs ~90 terms of its own.
_FORWARD_TAIL_N300 = [
    (-0.27, -0.6300000000000001, 32.78071311806498, -1.380944543621943),
    (0.2699999999999998, -0.6300000000000001, 33.16635756624311, -2.93071099797245),
]


def test_forward_tail_summed_to_its_own_tolerance():
    ctx = MLContext(rho=2.0, n=300, lam=0.0)
    for x, y, log_mag, phase in _FORWARD_TAIL_N300:
        got = combo(complex(x, y), ctx)
        assert _rel(got, ScaledComplex(log_mag, phase)) <= 4e-13



# ------------------------------------------------- wide rows against mpmath


def _section_and_series_mp(w: complex, n: int, rho: float, deriv: bool = False
                           ) -> tuple[complex, complex]:
    """(s_n(w), E(w)), or with deriv their w-derivatives, the sums of
    k t_k / w, summed in mpmath at the exact double w, with enough digits
    to absorb E's cancellation below its largest term (~e^{|w|^rho}).

    For 1/rho = p/q, term k + q is term k times w^q / prod_{j=1..p} (k/rho + j)."""
    p, q = Fraction(1.0 / rho).limit_denominator(8).as_integer_ratio()
    digits = 30 + int(abs(w) ** rho / math.log(10.0))
    with mp.workdps(digits):
        wm = mp.mpc(w)
        terms = [wm ** k / mp.gamma(1 + mp.mpf(k * p) / q) for k in range(q)]
        wq, tol = wm ** q, mp.mpf(10) ** (5 - digits)
        s, e, peak, k = None, mp.mpc(0), mp.mpf(0), 0
        while True:
            term = terms[k % q]
            part = k * term if deriv else term
            e += part
            if k == n:
                s = e
            peak = max(peak, abs(part))
            if k > n and abs(part) < tol * peak:
                return (complex(s / wm), complex(e / wm)) if deriv else (complex(s), complex(e))
            x = mp.mpf(k * p) / q
            for j in range(1, p + 1):
                term /= x + j
            terms[k % q] = term * wq
            k += 1


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [100, 300])
def test_wide_rows_match_mpmath(rho, n):
    # one batch per coefficient pair, so every b != 0 row is as wide as the
    # cutoff of the largest |w|; points whose error floor is within 1e-13 of
    # the scale max(|a s_n|, |b E|) are gated at 1e-11 of it
    rn = radius(n, rho)
    angles = (0.0, 0.4, 1.2, 2.2, math.pi - 0.05, -(math.pi - 0.05))
    w = np.array([rn * r * cmath.exp(1j * phi)
                  for r in (0.6, math.exp(-1.0 / rho), 1.2) for phi in angles])
    refs = [_section_and_series_mp(x, n, rho) for x in w]
    gated = 0
    for a, b in ((1.0, 0.0), (1.0, -0.5), (-1.0, 1.0)):
        log_mag, phase, log_floor = mitlef._series_kernel(w, n, rho, a, b)
        for x, (s, e), lm, ph, fl in zip(w, refs, log_mag, phase, log_floor):
            scale = max(abs(a * s), abs(b * e))
            if fl > math.log(1e-13 * scale):
                continue
            gated += 1
            got = cmath.exp(lm + 1j * ph) if lm > -np.inf else 0.0
            assert abs(got - (a * s + b * e)) <= 1e-11 * scale, (a, b, x)
    assert gated >= 10


@functools.cache
def _derivative_points_mp(n: int) -> tuple:
    """z at rho = 2 inside R_n, near S(2), past R_{n+1} and near 0, with
    (s_n'(w), E'(w)) at w = R_n z from mpmath."""
    rho = 2.0
    angles = (0.0, 0.4, 1.2, 2.2, math.pi - 0.05, -(math.pi - 0.05))
    z = np.array([r * cmath.exp(1j * phi)
                  for r in (0.1, 0.3, 0.6, math.exp(-0.5), 1.2, 2.0) for phi in angles]
                 + [1e-17, 1e-100j, 1e-310])
    return z, [_section_and_series_mp(x, n, rho, deriv=True) for x in radius(n, rho) * z]


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 0.7 + 0.2j])
def test_derivative_matches_mpmath(lam):
    """The derivative, read off the value's magnitudes, the same bit for
    bit alone and in the pass for both orders, is within 1e-12 of mpmath
    wherever its floor is below 1e-14 of it, at n = 100 and 300: past
    R_{n+1} lam != 0 takes E'.  Near 0 it is the first term
    (a + b) / Gamma(1 + 1/rho) to rounding: at z = 1e-17 from the
    magnitudes, at 1e-100i and 1e-310, where those past k = 0 underflow,
    as that term (|w| < _FLAT); at lam = 1 that term is 0."""
    rho = 2.0
    gated = 0
    for n in (100, 300):
        z, refs = _derivative_points_mp(n)
        w = radius(n, rho) * z
        lm, ph, floor = mitlef._series_kernel(w, n, rho, 1.0, -lam, (1,))
        assert np.array_equal(np.vstack(mitlef._series_kernel(w, n, rho, 1.0, -lam, (0, 1))[3:]),
                              np.vstack((lm, ph, floor)))
        got = np.exp(lm + 1j * ph)
        ref = np.array([s - lam * e for s, e in refs])
        ok = floor < lm + math.log(1e-14)
        gated += ok.sum()
        rel = np.abs(got[ok] - ref[ok]) / np.abs(ref[ok])
        assert rel.max() < 1e-12, (n, rel.max())
        assert np.allclose(got[-3:], (1.0 - lam) / math.gamma(1.0 + 1.0 / rho), rtol=2e-15,
                           atol=1e-300)
    # at lam = 1 (a + b = 0) only 3 of these points have a floor below 1e-14
    assert gated >= (3 if lam == 1.0 else 20)
