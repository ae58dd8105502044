"""Mittag-Leffler functions of order rho > 1, their sections and tails.

Everything is evaluated in scaled (log-magnitude, phase) arithmetic: every
sum is normalized by its maximal term before the mantissas are added, which
keeps intermediates finite for section indices up to a few thousand where
raw doubles would overflow around n ~ 100.

Notation used throughout the package:

    E(z)        = sum_k z^k / Gamma(1 + k/rho)        (order-rho function)
    s_n(w)      = sum_{k<=n} w^k / Gamma(1 + k/rho)   (section)
    t_{n+1}(w)  = sum_{k>n} w^k / Gamma(1 + k/rho)    (tail)
    R_n         = Gamma(1 + n/rho) / Gamma(1 + (n-1)/rho)
    combo(z)    = s_n(R_n z) - lam * E(R_n z)

combo is the mixed section/tail combination
(1 - lam) s_n(R_n z) - lam t_{n+1}(R_n z) in its cancellation-safe form.

combo, section, tail and ml_series are all a s_n(w) + b E(w) for one
coefficient pair, (1, -lam), (1, 0), (-1, 1) and (0, 1), and are evaluated
by one kernel (_series_kernel) that picks, per point, between the direct
sum and two forms that take E from its integral representation
(_e_integral), by their error floors.  The kernel
exponentiates only the real log-magnitudes of the series terms; the phase
e^{i k arg w} of term k is the product of two entries of short per-point
tables, built by repeated multiplication (_norm_sum).

The truncation policy is fixed: s_n has its n + 1 terms, and the tail
t_{n+1} is summed forward only where |w| <= R_{n+1}, cut at the first term
past k = n that is below REL_TOL of the peak at |w| = R_{n+1}, plus
TAIL_MARGIN terms; a tail that needs more than MAX_TERMS terms raises
TruncationError.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scaled import SC_ZERO, ScaledComplex, _wrap_phase, sc_add, sc_from_complex
from .specfun import ln_gamma, ln_gamma_arr, rgamma

__all__ = [
    "MLContext",
    "TruncationError",
    "CancellationWarning",
    "radius",
    "ml_series",
    "ml_asymptotic",
    "section",
    "tail",
    "combo",
    "combo_normalized",
    "combo_derivative",
    "combo_batch",
    "combo_normalized_batch",
    "erfc",
]


class TruncationError(RuntimeError):
    """Raised when a series does not converge within the term budget."""


class CancellationWarning(UserWarning):
    """A subtraction lost more than half of the working digits."""


# the truncation policy (see the module docstring)
REL_TOL = 1e-14
MAX_TERMS = 200_000
TAIL_MARGIN = 64


@dataclass(frozen=True)
class MLContext:
    """Parameter bundle (rho, n, lam).

    rho >= 1 is accepted so the rho = 1 exponential oracle can share the
    machinery; theorem-level code additionally requires rho > 1.
    """

    rho: float
    n: int
    lam: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not 1.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 1, got {self.rho!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1 (R_0 is undefined), got {self.n!r}")
        object.__setattr__(self, "lam", complex(self.lam))
        if not cmath.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")

    @property
    def radius_value(self) -> float:
        return radius(self.n, self.rho)


# --- coefficient tables ---------------------------------------------------

# rho -> array L with L[k] = ln Gamma(1 + k/rho), grown on demand
_LGAMMA_TABLES: dict[float, np.ndarray] = {}


def _lgamma_table(rho: float, upto: int) -> np.ndarray:
    tab = _LGAMMA_TABLES.get(rho)
    if tab is None or len(tab) <= upto:
        size = max(2 * upto + 2, 4096)
        k = np.arange(size, dtype=float)
        _LGAMMA_TABLES[rho] = ln_gamma_arr(1.0 + k / rho)
        tab = _LGAMMA_TABLES[rho]
    return tab


def radius(n: int, rho: float) -> float:
    """R_n = Gamma(1 + n/rho) / Gamma(1 + (n-1)/rho)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(ln_gamma(1.0 + n / rho) - ln_gamma(1.0 + (n - 1) / rho))


# --- series terms -----------------------------------------------------------

# columns per block of the phase tables of _norm_sum
_PHASE_BLOCK = 8


def _log_terms(lr: np.ndarray, k0: int, k1: int, rho: float) -> np.ndarray:
    """Log-magnitudes of the series terms k0 <= k < k1, one row per entry
    of lr = log|w|: row i holds k lr_i - ln Gamma(1 + k/rho)."""
    out = np.multiply.outer(lr, np.arange(k0, k1, dtype=float))
    out -= _lgamma_table(rho, k1)[k0:k1]
    return out


def _norm_sum(logt: np.ndarray, logw: np.ndarray, j0: int, orders: tuple = (0,)) -> tuple:
    """Row-wise normalized sums of the terms e^{logt_k} e^{i (j0 + k) theta},
    theta = Im logw, one row per entry of logw.

    logt holds real log-magnitudes, and returns (s, m, top, nu) per order
    asked for, in one flat tuple: the sum is s e^m, and its largest term
    e^top, at column nu.  Order 0 sums the terms themselves, m = top being
    the largest log-magnitude.  Order 1 sums them weighted by their index
    j0 + k, with phases (j0 + k - 1) theta, and divided by |w| = e^{Re logw}:
    where logt_k is (j0 + k) log|w| plus a constant, that is the
    w-derivative of the row sum, w = e^logw.

    Only the magnitudes are exponentiated, once for both orders.  With
    k = _PHASE_BLOCK q + r, the phase of term k is e^{i r theta} times
    e^{i (j0 + _PHASE_BLOCK q) theta}, from two per-row tables built by
    repeated multiplication: a row costs four complex exponentials, not one
    per term.  The block does not depend on the row width, so neither does
    the rounding of a term's phase: a point's terms are the same in any
    batch.
    """
    rows, width = logt.shape
    nu = logt.argmax(axis=1)
    idx = np.arange(rows)
    m = logt[idx, nu]
    b = _PHASE_BLOCK
    q = -(-width // b)
    # the magnitudes as (q, b) blocks, zero-padded
    mag = np.zeros((rows, q, b))
    t = mag.reshape(rows, q * b)[:, :width]
    np.exp(np.subtract(logt, m[:, None], out=t), out=t)
    # tab[r, 0] = e^{i r theta} and tab[q, 1] = e^{i (j0 + b q) theta}
    tab = np.repeat(np.exp(np.multiply.outer(((0.0, 1j * j0), (1j, 1j * b)), logw.imag)),
                    (1, max(b, q) - 1), axis=0)
    np.multiply.accumulate(tab, axis=0, out=tab)
    # the sums over r as one real matrix product with the (cos, sin) pairs
    # of tab[:b, 0], then the sums over q
    pairs = tab[:b, 0].view(float).reshape(b, rows, 2).transpose(1, 0, 2)
    out = ()
    if 0 in orders:
        inner = mag @ pairs
        out += (np.einsum("ij,ji->i", inner.view(complex)[:, :, 0], tab[:q, 1]), m, m, nu)
    if 1 in orders:
        mag *= np.arange(j0, j0 + q * b, dtype=float).reshape(q, b)
        inner = mag @ pairs
        nu_d = mag.reshape(rows, q * b).argmax(axis=1)
        # the index is at least 1 wherever a weighted magnitude is nonzero
        top = logt[idx, nu_d] + np.log(np.maximum(j0 + nu_d, 1))
        s_d = np.einsum("ij,ji->i", inner.view(complex)[:, :, 0], tab[:q, 1]) * tab[1, 0].conj()
        out += (s_d, m - logw.real, top - logw.real, nu_d)
    return out


@functools.lru_cache(maxsize=256)
def _tail_cutoff(n: int, rho: float, policy: tuple) -> int:
    """The cutoff of the forward tail t_{n+1} at |w| = R_{n+1}, kept across
    calls under policy = (REL_TOL, MAX_TERMS, TAIL_MARGIN): the first index
    past n whose term is below REL_TOL of the peak, plus TAIL_MARGIN.

    At |w| = R_{n+1} terms n and n + 1 are equal, and the log-terms
    k log|w| - ln Gamma(1 + k/rho) are concave in k (ln Gamma is convex), so
    the larger of the two is the peak of the whole sequence and every later
    term is lower still.  The scan takes TAIL_MARGIN terms past n + 1, and
    doubles them until one is below tolerance.
    Raises TruncationError when the cutoff exceeds MAX_TERMS.
    """
    row = np.array([math.log(radius(n + 1, rho))])
    width = TAIL_MARGIN
    while True:
        logt = _log_terms(row, n, n + 2 + width, rho)[0]
        below = np.flatnonzero(logt[1:] < logt[:2].max() + math.log(REL_TOL))
        kcut = n + 1 + (int(below[0]) if below.size else width + 1) + TAIL_MARGIN
        if kcut > MAX_TERMS:
            raise TruncationError(f"series did not converge within {MAX_TERMS} terms")
        if below.size:
            return kcut
        width *= 2


def ml_series(z: complex, rho: float) -> ScaledComplex:
    """E(z) from its power series, or from its integral representation where
    that has the lower error floor."""
    return _kernel_at(z, 0, rho, 0.0, 1.0)[0]


def erfc(zeta):
    """Complementary error function on the complex plane, scalar or array:
    erfc(zeta) = 1 - (2/sqrt(pi)) int_0^zeta e^{-v^2} dv = e^{-zeta^2} E(-zeta)
    at rho = 2, with E from the series kernel."""
    zt = np.asarray(zeta, dtype=complex)
    log_mag, phase, _floor = _series_kernel(-zt.ravel(), 0, 2.0, 0.0, 1.0)
    val = np.exp(log_mag - (zt * zt).ravel() + 1j * phase).reshape(zt.shape)
    return complex(val) if val.ndim == 0 else val


ASYMPTOTIC_FLOOR = 5.0  # empirical validity floor for the (2.2)-style expansion


def ml_asymptotic(z: complex, rho: float) -> ScaledComplex:
    """Leading asymptotic expansion of E(z) for |z| >= 5.

    In |arg z| <= pi/(2 rho): rho e^{z^rho} - 1/(z Gamma(1 - 1/rho));
    elsewhere the algebraic term alone.  Principal branch for z^rho.
    """
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    z = complex(z)
    if abs(z) < ASYMPTOTIC_FLOOR:
        raise ValueError(f"asymptotic expansion requires |z| >= {ASYMPTOTIC_FLOOR}")
    alg = sc_from_complex(-rgamma(1.0 - 1.0 / rho) / z)
    if abs(cmath.phase(z)) <= math.pi / (2.0 * rho):
        zr = rho * cmath.log(z)
        expo = cmath.exp(zr)  # z^rho; modest magnitude, exponentiated in log form below
        lead = ScaledComplex(expo.real + math.log(rho), _wrap_phase(expo.imag))
        return sc_add(lead, alg)
    return alg


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16- and 32-point Gauss-Legendre rules on
    [-1, 1], concatenated (the 16-point rule first): Newton's method on P_m
    from cos(pi (i - 1/4) / (m + 1/2)), P_m and P_m' by their recurrence,
    weights 2 / ((1 - x^2) P_m'(x)^2).  No eigensolver, so numpy.polynomial
    stays unloaded."""
    rules = []
    for m in (16, 32):
        x = np.cos(math.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
        for step in range(9):
            p0, p1 = np.ones(m), x
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = m * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
            x = x - p1 / dp if step < 8 else x
        rules.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    return tuple(np.concatenate(r) for r in zip(*rules))


# rho -> the quadrature of _e_integral (_e_table)
_E_TABLES: dict[float, tuple] = {}
# the end of the first s-panel of that quadrature
_E_S0 = 0.45


def _e_table(rho: float) -> tuple:
    """(phi, chi^2, 2 cos(pi/rho) chi, (E weights, E' weights),
    (q + 1)/(q - 1)): the quadrature of _e_integral on the ray arg chi = phi;
    E and E' share its nodes.

    phi = pi/(4 rho), where e^{-chi^rho} decays as e^{-|chi|^rho/sqrt(2)};
    below rho = 3/2, half of pi - pi/rho, the lowest a pole comes to the
    upper ray from above (pi/(4 rho) meets it at rho = 5/4).  chi =
    e^{i phi} s^2 takes the branch point of e^{-chi^rho} out of 0; where
    2 rho is not an integer, e^{-s^{2 rho}} keeps one, and [0, _E_S0] is cut
    into panels that shrink by 4 toward 0.  Past _E_S0 the s-panels grow by
    q = 1 + phi, span at most 16 of s^{2 rho} and end at Re chi^rho = 46;
    16 Gauss-Legendre nodes each.  As phi -> 0 that would take 1/phi panels,
    so a panel may grow by up to 9/8 while e^{-chi^rho} stays near 1 on its
    Bernstein ellipse of b = 1 + sqrt 2 (which reaches e^{1.2 log q} times
    its start: |s|^{2 rho} <= 1/4 there), and below rho = 3/2 everywhere
    (e^{-chi^rho} grows only at |arg s| >= pi/4 there).  This binds only
    past rho = 2 pi and below rho = 1.08, and keeps a row within 28 panels
    from rho = 1 to 1e9.  The pole bound of _e_integral reads the last
    entry at the coarsest ratio, q = 1 + max(phi, 1/8).
    """
    tab = _E_TABLES.get(rho)
    if tab is None:
        phi = min(math.pi / (4.0 * rho), 0.5 * (math.pi - math.pi / rho))
        q, s_max = 1.0 + max(phi, 0.125), (46.0 / math.cos(rho * phi)) ** (0.5 / rho)
        ends = [0.0, _E_S0] if (2.0 * rho).is_integer() else [0.0] + [_E_S0 / 4.0 ** j
                                                                        for j in (3, 2, 1, 0)]
        while ends[-1] < s_max:
            e = ends[-1]
            flat = 0.125 if rho < 1.5 else math.expm1(-(math.log(4.0) / rho + 2.0 * math.log(e)) / 2.4)
            ends.append(min((1.0 + max(phi, min(0.125, flat))) * e,
                            (e ** (2.0 * rho) + 16.0) ** (0.5 / rho)))
        ends = np.array(ends)
        mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
        x, wt = (r[:16] for r in _gauss_legendre())
        s, ds = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()
        ray = cmath.exp(1j * phi)
        chi, chi_rho = ray * s * s, s ** (2.0 * rho) * cmath.exp(1j * rho * phi)
        k = rho * math.sin(math.pi / rho) / math.pi
        # e^{-chi^rho} dchi times K's constant (for E', rho chi^rho (rho/pi) sin(pi/rho))
        wts = np.exp(-chi_rho) * 2.0 * ray * s * ds
        tab = _E_TABLES[rho] = (phi, chi * chi, 2.0 * math.cos(math.pi / rho) * chi,
                                (wts * -k, wts * (rho * k * chi_rho)), (q + 1.0) / (q - 1.0))
    return tab


def _e_integral(w: np.ndarray, rho: float, orders: tuple = (0,)) -> tuple:
    """E(w) (order 0) and E'(w) (order 1) at each nonzero point of the 1-D
    array w, for each order asked for: (log_mag, phase, log_err) per order,
    in one flat tuple, log_err a bound on its error from w alone.  The
    orders share the exponent, the pole bounds and each node's 1/D.

    Gorenflo, Loutchko and Luchko (Fract. Calc. Appl. Anal. 5 (2002) 491):
    E(w) = rho e^{w^rho} [where |arg w| <= pi/rho] plus the integral of
    -(rho/pi) sin(pi/rho) w e^{-chi^rho} / D over chi in [0, inf), with
    D = (chi - w e^{i pi/rho})(chi - w e^{-i pi/rho}); for E' = rho E_{1/rho,1/rho},
    rho^2 w^{rho-1} e^{w^rho} and (rho^2/pi) sin(pi/rho) chi^rho e^{-chi^rho} / D.
    The integral is turned onto the ray of _e_table, away from the pole
    w e^{-i pi/rho}, which crosses no pole: points with 0 <= arg w <= pi/rho
    or arg w < -pi/rho take the upper ray, the others, by
    E(conj w) = conj E(w), are conjugated onto it.  At rho = 1 E = e^w.

    The exponential part is rounded to eps (2 + the size of its exponent's
    terms), the integral to 8 rho eps of its size, at most 1 (E) or |w|^-1,
    |w|^-2 (E').  A simple pole of residue R at Bernstein parameter b from a
    panel costs its 16 nodes about 2 pi |R| b^-33.  A pole at angle g from
    the real s-axis is at b >= e^{asinh(y)}, y = sin(g) (q + 1)/(q - 1), from
    the panel below it, and 5 b^-33 bounds the sum over the panels.  So the
    quadrature error is 40 e^{-33 asinh(y)} times the residue of each of the
    two poles that come near the ray, rho e^{-p^rho} (for E' times
    rho |w|^{rho-1}): one at g = (phi + ||arg w| - pi/rho|)/2, with
    Re p^rho = -|w|^rho cos(rho arg w), one across the negative axis at
    g >= (2 pi - |arg w| - pi/rho - phi)/2, with rho (2 pi - |arg w|) in
    place of rho arg w.  A pole past the sector where e^{-chi^rho} decays
    counts at its edge, Re p^rho = 0: the integrand on the ray never sees
    its growth.  Below |w| = (1.5 _E_S0)^2 the poles crowd the first panel,
    and the bound is +inf.  Where q's floor binds, y can fall below 1 (to
    0 as rho -> 1); the bound then tends to 40 times the residue, which
    held against mpmath from rho = 1 + 1e-6 to 1.05 and at rho = 7 to 50.
    """
    lr, theta = np.log(np.abs(w)), np.arctan2(w.imag, w.real)
    alr, ath = np.abs(lr), np.abs(theta)
    rp, cos = np.exp(rho * lr), np.cos(rho * theta)
    le, pe = rp * cos + math.log(rho), rp * np.sin(rho * theta)
    err0 = np.log(rp * (1.0 + rho * (alr + ath)) + (rho - 1.0) * alr + (2.0 + 2.0 * math.log(rho)))
    # the exponential part of E, and of E' = rho w^{rho-1} times it, where |arg w| <= pi/rho
    exps = [(le + (math.log(rho) + (rho - 1.0) * lr), pe + (rho - 1.0) * theta) if d else (le, pe)
            for d in orders]
    outs = []
    for le_d, pe_d in exps:
        le_d[ath > math.pi / rho] = -np.inf
        outs.append((le_d, pe_d, err0 + (le_d + _LOG_EPS)))
    if rho == 1.0:
        return sum(outs, ())
    phi, _chi2, _chi_c, wts, c = _e_table(rho)
    a = math.pi / rho
    near = -33.0 * np.arcsinh(c * np.sin(0.5 * (phi + np.abs(ath - a)))) \
        - rp * np.maximum(-cos, 0.0)
    far = -33.0 * np.arcsinh(c * np.sin(0.5 * (2.0 * math.pi - a - phi - ath))) \
        - rp * np.maximum(-np.cos(rho * (2.0 * math.pi - ath)), 0.0)
    poles = np.logaddexp(near, far)
    down = (theta < 0) == (ath <= a)
    wf = np.where(down, w.conj(), w)
    # rows per _e_sum call: its complex (rows, nodes) array stays within _CHUNK_ELEMENTS reals
    vals = _in_blocks(_e_sum, wf, max(1, _CHUNK_ELEMENTS // (2 * wts[0].size)), rho, orders)
    for i, (d, (le, pe, err), val) in enumerate(zip(orders, outs, vals)):
        res = math.log(40.0 * rho) + ((math.log(rho) + (rho - 1.0) * lr) if d else 0.0)
        size = _LOG_EPS + math.log(8.0 * rho) - (2.0 if d else 1.0) * np.maximum(lr, 0.0)
        err = np.logaddexp(np.logaddexp(err, res + poles), size)
        err[lr < 2.0 * math.log(1.5 * _E_S0)] = np.inf
        val = np.where(down, val.conj(), val)
        base = np.maximum(le, 0.0)
        total = np.exp(le - base + 1j * pe) + val * np.exp(-base)
        with np.errstate(divide="ignore"):
            outs[i] = np.log(np.abs(total)) + base, np.arctan2(total.imag, total.real), err
    return sum(outs, ())


def _e_sum(wf: np.ndarray, rho: float, orders: tuple) -> tuple:
    """The integral of _e_integral at points wf of the upper ray's side, one
    array per order: one complex rational per node, shared by the orders,
    and each row its own (1, nodes) @ (nodes, 1) product per order, so a
    row's sum depends neither on the number of rows nor on the orders."""
    chi2, chi_c, wts = _e_table(rho)[1:4]
    d = np.multiply.outer(wf, -chi_c)
    d += chi2
    d += (wf * wf)[:, None]
    recip = np.reciprocal(d, out=d)[:, None, :]
    vals = [np.matmul(recip, wts[o][:, None])[:, 0, 0] for o in orders]
    # out of place: numpy rounds an in-place product of one element apart
    return tuple(val if o else val * wf for o, val in zip(orders, vals))


def section(z: complex, ctx: MLContext) -> ScaledComplex:
    """Section s_n(R_n z) in scaled form."""
    return _kernel_at(ctx.radius_value * complex(z), ctx.n, ctx.rho, 1.0, 0.0)[0]


def tail(z: complex, ctx: MLContext) -> ScaledComplex:
    """Tail t_{n+1}(R_n z) in scaled form.

    Summed forward, or as E - s_n where that sum cancels; warns when the
    chosen form still leaves less than half the working digits.
    """
    val, floor = _kernel_at(ctx.radius_value * complex(z), ctx.n, ctx.rho, -1.0, 1.0)
    if not val.is_zero and floor > val.log_mag + 0.5 * _LOG_EPS:
        warnings.warn(
            "tail lost more than half the working digits",
            CancellationWarning,
            stacklevel=2,
        )
    return val


def combo(z: complex, ctx: MLContext) -> ScaledComplex:
    """I_n(R_n z; lam) = s_n(R_n z) - lam E(R_n z), in scaled form."""
    log_mag, phase = combo_batch(np.array([complex(z)]), ctx)
    return _scaled(float(log_mag[0]), float(phase[0]))


def combo_normalized(z: complex, ctx: MLContext) -> ScaledComplex:
    """combo(z) * Gamma(1 + n/rho) / (R_n z)^n, entirely in log space."""
    log_mag, phase = combo_normalized_batch(np.array([complex(z)]), ctx)
    return _scaled(float(log_mag[0]), float(phase[0]))


def combo_derivative(z: complex, ctx: MLContext) -> ScaledComplex:
    """d/dz I_n(R_n z; lam) = R_n (s_n'(R_n z) - lam E'(R_n z))."""
    log_mag, phase = combo_batch(np.array([complex(z)]), ctx, deriv=True)
    return _scaled(float(log_mag[0]), float(phase[0]))


# --- vectorized evaluation over z-grids ------------------------------------


def combo_batch(zs: np.ndarray, ctx: MLContext, deriv: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate combo (or its z-derivative) on an array of points.

    Returns (log_mag, phase) float arrays; exact zeros carry log_mag=-inf.
    This is the hot path behind winding numbers and verification grids.
    """
    zs = np.asarray(zs, dtype=complex)
    rn = ctx.radius_value
    log_mag, phase, _floor = _series_kernel(rn * zs.ravel(), ctx.n, ctx.rho, 1.0, -ctx.lam,
                                            (int(deriv),))
    if deriv:
        log_mag = log_mag + math.log(rn)
    return log_mag.reshape(zs.shape), phase.reshape(zs.shape)


def combo_normalized_batch(zs: np.ndarray, ctx: MLContext) -> tuple[np.ndarray, np.ndarray]:
    """combo_batch(zs) times Gamma(1 + n/rho) / (R_n z)^n, as (log_mag, phase);
    the phase is not reduced to (-pi, pi]."""
    zs = np.asarray(zs, dtype=complex)
    if (zs == 0).any():
        raise ValueError("combo_normalized is undefined at z = 0")
    log_mag, phase = combo_batch(zs, ctx)
    n = ctx.n
    shift = ln_gamma(1.0 + n / ctx.rho) - n * (math.log(ctx.radius_value) + np.log(np.abs(zs)))
    return log_mag + shift, phase - n * np.angle(zs)


_LOG_EPS = math.log(2.0 ** -52)
# elements of the widest row array the kernel builds at once: each series
# chunk, each block of the C-route tail and each block of E rows (_e_sum)
_CHUNK_ELEMENTS = 1 << 14
# glibc maps each block above its mmap threshold (128 KiB at start) to fresh pages
# and raises the threshold to the first such block freed: this 1 MiB one keeps the
# ~128 KiB real chunk arrays on the heap, instead of page faults on every chunk
np.empty(1 << 17)
# A is suspect once its error floor comes within e^23 (~1e-10) of its value: the
# cheapest gap that left no pointwise benchmark point above 1e-10 (e^20 left 2)
_SUSPECT_GAP = 23.0
# below this |w|, s_n' is its first term 1 / Gamma(1 + 1/rho) to rounding (the
# next is at most 2.3 |w| times it); above it the magnitudes of s_n's terms,
# from which the kernel sums s_n', do not underflow
_FLAT = 2.0 ** -60


def _series_kernel(w: np.ndarray, n: int, rho: float, a: complex, b: complex,
                   orders: tuple = (0,)) -> tuple:
    """a s_n(w) + b E(w) (order 0) and its w-derivative (order 1) at each
    point of the 1-D array w, for the orders (0,), (1,) or (0, 1), from one
    pass over the series terms.

    Returns (log_mag, phase, log_floor) per order, in one flat tuple: the
    value in log-polar form (exact zeros carry log_mag = -inf) and the log
    of its estimated absolute error.  The series terms of each point are
    exponentiated once, as real magnitudes with their phases taken from two
    short tables (_norm_sum), and split at column n into the normalized
    sums S = s_n and T = t_{n+1}, which give three representations with
    different error floors:

      A  (a+b) S + b T     direct sum: eps-part of S and T
      B  a S + b E         eps-part of S, |b| times E's error
      C  (a+b) E - a T     |a+b| times E's error, eps-part of the first tail
                           term

    T is summed only where |w| <= R_{n+1}, where the tail terms decrease
    from k = n+1 on.  Past R_{n+1} C has no floor, and neither has A when
    b != 0: B serves there.

    The derivative's S and T are k t_k / w over the same columns: the
    value's exponentiated magnitudes weighted by k, summed with the value's
    phase tables (_norm_sum), times e^{-i arg w} / |w|; below |w| = _FLAT
    its S is its first term, 1 / Gamma(1 + 1/rho).  Asked alone, it takes
    the same magnitudes and tables and leaves the value's sums out.

    E and its error come from its integral representation (_e_integral):
    the error is its rounding and a bound on the quadrature error, +inf at
    small |w|.  At rho = 1 E is e^w and its error its rounding.  E and E'
    share their nodes' 1/D, and a b = 0 C-route tail the magnitudes of its
    terms, at every point where one of the orders needs them.

    The eps-part of a sum is eps * max(1, |log-term|) * (largest term): the
    log-term k log w - ln Gamma(1 + k/rho) of the largest term is rounded
    to eps of its own size before it is exponentiated.  Each order has its
    own floors and route choice.  A point is suspect once A's floor comes
    within e^_SUSPECT_GAP of its value, and at a = 0, where the value is E
    itself, every point is; at a suspect point the lowest floor wins, ties
    to A.

    The work runs in two stages.  First S, n + 1 columns, is summed at
    every point, and, when b != 0, T at every point inside R_{n+1}, out to
    the cutoff at R_{n+1}; both in blocks of at most _CHUNK_ELEMENTS terms,
    into per-call arrays.  Then the floors, the route choice and the B and
    C evaluations run once for the whole call, on every point that needs
    them: E and its error at the suspect points, and, at b = 0, T only at
    the points routed to C.
    """
    a, b = complex(a), complex(b)
    outs = [(np.full(w.shape, -np.inf), np.zeros(w.shape), np.full(w.shape, -np.inf))
            for _ in orders]
    zero = w == 0
    if zero.any():
        # s_n and E (and their derivatives) agree at w = 0
        for d, (out_log, out_ph, _floor) in zip(orders, outs):
            sv = sc_from_complex((a + b) * (rgamma(1.0 + 1.0 / rho) if d else 1.0))
            out_log[zero], out_ph[zero] = sv.log_mag, sv.phase
    live = np.nonzero(~zero)[0]
    if live.size == 0:
        return sum(outs, ())
    la, lb, lab = _log_abs(a), _log_abs(b), _log_abs(a + b)
    logw = np.log(w[live])
    lr_fwd = math.log(radius(n + 1, rho))
    inner = logw.real <= lr_fwd

    def tails(rows: np.ndarray) -> list:
        """(s, m, top, nu) of T per order, at every row of the call: summed at
        the rows given, all inside R_{n+1}, and zero (m = -inf) at the others.
        Inside R_{n+1} the tail falls from t_{n+1} at least as fast as at
        |w| = R_{n+1}, where t_{n+1} is the peak: that cutoff covers each row."""
        parts = [(np.zeros(live.size, complex), np.full(live.size, -np.inf),
                  np.full(live.size, -np.inf), np.zeros(live.size, int)) for _ in orders]
        if rows.size:
            k1 = _tail_cutoff(n, rho, (REL_TOL, MAX_TERMS, TAIL_MARGIN)) + 1
            sums = _in_blocks(lambda lw: _norm_sum(_log_terms(lw.real, n + 1, k1, rho), lw,
                                                   n + 1, orders),
                              logw[rows], _chunk_rows(k1 - n - 1))
            for i, part in enumerate(parts):
                for x, v in zip(part, sums[4 * i:4 * i + 4]):
                    x[rows] = v
        return parts

    # stage 1: S, n + 1 columns at every point; (s, m, top, nu) per order
    sums = _in_blocks(lambda lw: _norm_sum(_log_terms(lw.real, 0, n + 1, rho), lw, 0, orders),
                      logw, _chunk_rows(n + 1))
    s_parts = [sums[4 * i:4 * i + 4] for i in range(len(orders))]
    flat = np.nonzero(logw.real < math.log(_FLAT))[0] if 1 in orders else ()
    if len(flat):
        # there the magnitudes of s_n's terms past k = 0 underflow, and s_n' is its first term
        for x, v in zip(s_parts[-1], (rgamma(1.0 + 1.0 / rho), 0.0, -ln_gamma(1.0 + 1.0 / rho), 1)):
            x[flat] = v
    # A needs T at every point inside R_{n+1}
    t_parts = tails(np.flatnonzero(inner)) if b != 0 else None

    # stage 2: floors and routes, once per call and per order
    fits = []
    for i, d in enumerate(orders):
        s_s, m_s, top_s, nu_s = s_parts[i]
        fl_s = _eps_floor(top_s, nu_s, logw, rho)
        if b != 0:
            s_t, m_t, top_t, nu_t = t_parts[i]
            val_log, val_ph = _combine((a + b, s_s, m_s), (b, s_t, m_t))
            floor = np.maximum(lab + fl_s, lb + _eps_floor(top_t, nu_t + n + 1, logw, rho))
            # past R_{n+1} T is not summed: A has no floor there, and B serves
            floor[~inner] = np.inf
        else:
            val_log, val_ph = _combine((a, s_s, m_s))
            floor = la + fl_s
        # at a = 0 the value is E itself, and every point is suspect
        suspect = (val_log == -np.inf) | (floor > val_log - _SUSPECT_GAP) | (a == 0)
        fits.append((val_log, val_ph, floor, fl_s, suspect))
    every = np.nonzero(functools.reduce(np.logical_or, [fit[4] for fit in fits]))[0]
    if every.size:
        # E and its floor, for each order, at every point suspect in one of them
        exact = _e_integral(w[live[every]], rho, orders)
        first = _log_terms(logw[every].real, n + 1, n + 2, rho)[:, 0]
        routed_c = []
        for i, (d, (val_log, val_ph, floor, fl_s, suspect)) in enumerate(zip(orders, fits)):
            sel = suspect[every] if len(orders) > 1 else slice(None)
            j = every[sel]
            lwj = logw[j]
            e_log, e_ph, e_err = (x[sel] for x in exact[3 * i:3 * i + 3])
            fl_b = np.logaddexp(la + fl_s[j], lb + e_err) if b != 0 else np.inf
            # the derivative's first tail term is (n + 1) t_{n+1} / w
            fl_c = la + _eps_floor(first[sel] + (math.log(n + 1) - lwj.real) if d else first[sel],
                                   n + 1, lwj, rho)
            if a + b != 0:
                fl_c = np.logaddexp(lab + e_err, fl_c)
            fl_c = np.where(inner[j], fl_c, np.inf)
            use_b, use_c = _routes(floor[j], fl_b, fl_c)
            jb = j[use_b]
            if jb.size:
                val_log[jb], val_ph[jb] = _combine((a, s_parts[i][0][jb], s_parts[i][1][jb]),
                                                   (b, np.exp(1j * e_ph[use_b]), e_log[use_b]))
                floor[jb] = fl_b[use_b]
            routed_c.append((j[use_c], e_log[use_c], e_ph[use_c], fl_c[use_c]))
        if b == 0:
            # T at every point routed to C in one of the orders
            t_parts = tails(np.flatnonzero(np.bincount(np.concatenate([jc for jc, *_ in routed_c]),
                                                       minlength=live.size)))
        for (val_log, val_ph, floor, *_), (jc, e_log, e_ph, fl_c), t_part in zip(
                fits, routed_c, t_parts):
            if jc.size:
                val_log[jc], val_ph[jc] = _combine((a + b, np.exp(1j * e_ph), e_log),
                                                   (-a, t_part[0][jc], t_part[1][jc]))
                floor[jc] = fl_c
    for out, fit in zip(outs, fits):
        out[0][live], out[1][live], out[2][live] = fit[:3]
    return sum(outs, ())


def _routes(fl_a: np.ndarray, fl_b, fl_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which points B and which C serve, from the three floors: the lowest
    floor wins, ties to A, then to B."""
    return (fl_b < fl_a) & (fl_b <= fl_c), (fl_c < fl_a) & (fl_c < fl_b)


def _chunk_rows(width: int) -> int:
    """Rows per chunk of series rows width terms wide: the terms, and the
    (at least 4 _PHASE_BLOCK reals wide) phase tables of _norm_sum, stay
    within _CHUNK_ELEMENTS."""
    return max(1, _CHUNK_ELEMENTS // max(width, 4 * _PHASE_BLOCK))


def _in_blocks(f, x: np.ndarray, rows: int, *args) -> tuple:
    """The arrays f(x, *args) returns, computed on blocks of at most rows entries of x."""
    parts = [f(x[i:i + rows], *args) for i in range(0, x.size, rows)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _kernel_at(w: complex, n: int, rho: float, a: complex, b: complex
               ) -> tuple[ScaledComplex, float]:
    """_series_kernel at one point: (value, log of its error floor)."""
    log_mag, phase, floor = _series_kernel(np.array([complex(w)]), n, rho, a, b)
    return _scaled(float(log_mag[0]), float(phase[0])), float(floor[0])


def _eps_floor(m: np.ndarray, nu, logw: np.ndarray, rho: float) -> np.ndarray:
    """Log of eps * max(1, |log-term|) * e^m for sums whose largest term,
    e^m, sits at column nu; |log-term| is bounded by nu |log w| + |ln Gamma|."""
    size = nu * np.abs(logw) + np.abs(_lgamma_table(rho, int(np.asarray(nu).max()) + 1)[nu])
    return _LOG_EPS + np.log(np.maximum(1.0, size)) + m


def _combine(p: tuple, q: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sum of coef * s * e^m over the parts (coef, s, m), per point, in log-polar form.

    A part with coef 0 is left out; m may be -inf, where e^m is 0.
    """
    parts = [x for x in (p, q) if x is not None and x[0] != 0]
    if len(parts) == 1:
        coef, s, m = parts[0]
        return _log_polar(coef * s, m)
    (c1, s1, m1), (c2, s2, m2) = parts
    base = np.maximum(m1, m2)
    base[~np.isfinite(base)] = 0.0
    return _log_polar(c1 * (s1 * np.exp(m1 - base)) + c2 * (s2 * np.exp(m2 - base)), base)


def _log_abs(c: complex) -> float:
    return math.log(abs(c)) if c != 0 else -math.inf


def _scaled(log_mag: float, phase: float) -> ScaledComplex:
    if log_mag == -math.inf:
        return SC_ZERO
    return ScaledComplex(log_mag, _wrap_phase(phase))


def _log_polar(vals: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|vals| + base, arg vals); log_mag = -inf where vals is 0."""
    mag = np.abs(vals)
    log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=mag > 0)
    log_mag += base
    return log_mag, np.arctan2(vals.imag, vals.real)
