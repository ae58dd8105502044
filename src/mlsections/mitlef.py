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
sum and two forms that take E from its asymptotic expansion.  The kernel
exponentiates only the real log-magnitudes of the series terms; the phase
e^{i k arg w} of term k is the product of two entries of short per-point
tables, built by repeated multiplication (_norm_sum).

The truncation policy is fixed: each series is cut at the first term past
its peak that is below REL_TOL of the peak, plus TAIL_MARGIN terms, and a
series that needs more than MAX_TERMS terms raises TruncationError.
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


def _log_terms(lr: np.ndarray, k0: int, k1: int, rho: float,
               deriv: bool = False) -> np.ndarray:
    """Log-magnitudes of the series terms k0 <= k < k1, one row per entry
    of lr = log|w|.

    Row i holds k lr_i - ln Gamma(1 + k/rho), or with deriv those of the
    w-derivative, (k - 1) lr_i + log k - ln Gamma(1 + k/rho).
    """
    k = np.arange(k0, k1, dtype=float)
    logc = -_lgamma_table(rho, k1)[k0:k1]
    if deriv:
        with np.errstate(divide="ignore"):
            logc = logc + np.log(k)
        k = k - 1.0
    out = np.multiply.outer(lr, k)
    out += logc
    return out


def _norm_sum(logt: np.ndarray, theta: np.ndarray, j0: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise normalized sum of the terms e^{logt_k} e^{i (j0 + k) theta}.

    logt holds real log-magnitudes, one row per entry of theta.  Returns
    (m, nu, s) with the row sum s e^m, where m is the largest log-magnitude,
    at column nu.  Only the magnitudes are exponentiated.  With
    k = _PHASE_BLOCK q + r, the phase of term k is e^{i r theta} times
    e^{i (j0 + _PHASE_BLOCK q) theta}, from two per-row tables built by
    repeated multiplication: a row costs four complex exponentials, not one
    per term.  The block does not depend on the row width, so neither does
    the rounding of a term's phase: a point's terms are the same in any
    batch.
    """
    rows, width = logt.shape
    nu = logt.argmax(axis=1)
    m = logt[np.arange(rows), nu]
    b = _PHASE_BLOCK
    q = -(-width // b)
    # the magnitudes as (q, b) blocks, zero-padded
    mag = np.zeros((rows, q, b))
    t = mag.reshape(rows, q * b)[:, :width]
    np.exp(np.subtract(logt, m[:, None], out=t), out=t)
    # tab[r, 0] = e^{i r theta} and tab[q, 1] = e^{i (j0 + b q) theta}
    tab = np.repeat(np.exp(np.multiply.outer(((0.0, 1j * j0), (1j, 1j * b)), theta)),
                    (1, max(b, q) - 1), axis=0)
    np.multiply.accumulate(tab, axis=0, out=tab)
    # the sums over r as one real matrix product with the (cos, sin) pairs
    # of tab[:b, 0], then the sums over q
    inner = mag @ tab[:b, 0].view(float).reshape(b, rows, 2).transpose(1, 0, 2)
    return m, nu, np.einsum("ij,ji->i", inner.view(complex)[:, :, 0], tab[:q, 1])


def _peak_and_cutoff(lr: float, rho: float) -> tuple[float, int, int]:
    """Peak value, its index, and the truncation index of the terms at |w| = e^lr.

    The cutoff is the first index past the peak whose term is below REL_TOL
    of the peak, plus TAIL_MARGIN.  The log-terms
    t_k = k lr - ln Gamma(1 + k/rho) are concave in k (ln Gamma is convex),
    so once a term past the scanned maximum is lower than it, the maximum is
    the peak of the whole sequence and every later term is lower still: the
    first term below tolerance past the peak ends the scan, in whichever
    chunk it falls.  Ties (r exactly at a jump radius R_n) resolve to the
    larger index, matching the right-continuity of the central index.

    The first chunk is sized from the central index nu(r) ~ rho r^rho: past
    the peak the log-terms fall quadratically with curvature ~ 1/(rho nu),
    so they lose |log REL_TOL| within ~ sqrt(2 |log REL_TOL| rho nu) terms;
    the chunk takes about twice that to cover the slower fall at small nu.
    The scan checks the estimate and goes on in doubled chunks if it falls
    short.
    Raises TruncationError when the cutoff exceeds MAX_TERMS.
    """
    log_tol = math.log(REL_TOL)
    row = np.array([lr])
    hi = _first_scan_end(lr, rho)
    best = -math.inf
    nu = 0
    k0 = 0
    while True:
        logt = _log_terms(row, k0, hi, rho)[0]
        m = float(logt.max())
        if m >= best:
            # >= prefers the larger index on an exact tie
            idx = int(np.nonzero(logt == m)[0][-1])
            best = m
            nu = k0 + idx
        # the cutoff is at least hi + TAIL_MARGIN while no term is below yet
        past = max(nu + 1, k0)
        below = np.flatnonzero(logt[past - k0:] < best + log_tol)
        kcut = (past + int(below[0]) if below.size else hi) + TAIL_MARGIN
        if kcut > MAX_TERMS:
            raise TruncationError(f"series did not converge within {MAX_TERMS} terms")
        if below.size:
            return best, nu, kcut
        k0, hi = hi, 2 * hi


def _first_scan_end(lr: float, rho: float) -> int:
    """End of the first cutoff-scan chunk at |w| = e^lr (see _peak_and_cutoff)."""
    est = rho * math.exp(min(rho * lr, math.log(MAX_TERMS)))
    return min(int(est + 3.0 * math.sqrt(-math.log(REL_TOL) * rho * (est + 1.0))) + 1,
               MAX_TERMS + 1)


def ml_series(z: complex, rho: float) -> ScaledComplex:
    """E(z) from its power series, or from the asymptotic expansion where
    the series cancels below its rounding floor."""
    return _kernel_at(z, 0, rho, 0.0, 1.0)[0]


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


_ASYM_COEF_CACHE: dict[float, np.ndarray] = {}
_ASYM_TERMS = 80


def _asym_coefs(rho: float) -> np.ndarray:
    """1/Gamma(1 - k/rho) for k = 1 .. _ASYM_TERMS (0 where 1 - k/rho <= 0 is an integer)."""
    coefs = _ASYM_COEF_CACHE.get(rho)
    if coefs is None:
        coefs = _ASYM_COEF_CACHE[rho] = rgamma(1.0 - np.arange(1, _ASYM_TERMS + 1) / rho)
    return coefs


def _ml_asym_batch(wv: np.ndarray, rho: float, deriv: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """E(w) (or E'(w)) from the full asymptotic expansion, per point.

    rho e^{w^rho} (included where the principal branch applies,
    |arg w| <= pi/rho) minus sum_k w^{-k}/Gamma(1 - k/rho), each divergent
    tail truncated at its smallest term.  Used where direct summation dies
    of cancellation: that requires |w|^rho large, which is exactly where
    this expansion is exponentially accurate.  Returns (log_mag, phase).
    """
    wv = np.asarray(wv, dtype=complex)
    coefs = _asym_coefs(rho)
    # a zero coefficient adds nothing to the sum and never ends it: leave it out
    k = np.flatnonzero(coefs) + 1.0
    winv = 1.0 / wv
    terms = coefs[coefs != 0] * winv[:, None] ** k
    if deriv:
        # d/dw of -sum c_k w^{-k} is +sum k c_k w^{-k-1}
        terms = terms * k * winv[:, None]
    mags = np.abs(terms)
    # optimal truncation: the sum ends before the first strict growth over
    # the running minimum of nonzero magnitudes, or after the last term
    run_min = np.minimum.accumulate(np.where(mags > 0, mags, np.inf), axis=1)
    ends = np.zeros((len(wv), k.size + 1), dtype=bool)
    ends[:, 1:-1] = mags[:, 1:] > run_min[:, :-1]
    ends[:, -1] = True
    csum = np.zeros((len(wv), k.size + 1), dtype=complex)
    np.cumsum(terms, axis=1, out=csum[:, 1:])
    alg = csum[np.arange(len(wv)), ends.argmax(axis=1)]
    if not deriv:
        alg = -alg

    le, pe = _asym_exp(np.log(np.abs(wv)), np.angle(wv), rho, deriv)
    return _combine((1.0, np.exp(1j * pe), le), (1.0, alg, np.zeros(len(wv))))


def _asym_exp(lr: np.ndarray, theta: np.ndarray, rho: float, deriv: bool
              ) -> tuple[np.ndarray, np.ndarray]:
    """(log_mag, phase) of rho e^{w^rho} (or its w-derivative) at w = e^lr e^{i theta},
    the exponential part of _ml_asym_batch; log_mag is -inf outside |arg w| <= pi/rho."""
    rp = np.exp(rho * lr)
    le = rp * np.cos(rho * theta) + math.log(rho)
    pe = rp * np.sin(rho * theta)
    if deriv:
        # d/dw of rho e^{w^rho} = rho^2 w^{rho-1} e^{w^rho}
        le = le + math.log(rho) + (rho - 1.0) * lr
        pe = pe + (rho - 1.0) * theta
    return np.where(np.abs(theta) <= math.pi / rho, le, -np.inf), pe


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
    log_mag, phase, _floor = _series_kernel(rn * zs.ravel(), ctx.n, ctx.rho, 1.0, -ctx.lam, deriv)
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
# chunk, each block of the C-route tail and each block of _ml_asym_batch rows
_CHUNK_ELEMENTS = 1 << 14
# glibc maps each block above its mmap threshold (128 KiB at start) to fresh pages
# and raises the threshold to the first such block freed: this 1 MiB one keeps the
# ~128 KiB real chunk arrays on the heap, instead of page faults on every chunk
np.empty(1 << 17)
# rows per _ml_asym_batch call: its complex (rows, <= _ASYM_TERMS + 1) arrays stay within budget
_ASYM_ROWS = _CHUNK_ELEMENTS // (2 * (_ASYM_TERMS + 1))
# A is suspect once its error floor comes within e^13.8 (~1e6) of its value
_SUSPECT_GAP = 13.8


def _series_kernel(w: np.ndarray, n: int, rho: float, a: complex, b: complex,
                   deriv: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a s_n(w) + b E(w), or its w-derivative, at each point of the 1-D array w.

    Returns (log_mag, phase, log_floor): the value in log-polar form (exact
    zeros carry log_mag = -inf) and the log of its estimated absolute error.
    The series terms of each point are exponentiated once, as real
    magnitudes with their phases taken from two short tables (_norm_sum),
    and split at column n into the normalized sums S = s_n and T = t_{n+1},
    which give three representations with different error floors:

      A  (a+b) S + b T          direct sum: eps-part of S and T
      B  a S + b E_asym         eps-part of S, |b| times E_asym's error
      C  (a+b) E_asym - a T     |a+b| times E_asym's error, eps-part of the
                                first tail term; only while |w| <= R_{n+1},
                                where the tail terms decrease from k = n+1 on

    E_asym's error is its rounding and, for rho > 1, its remainder; at
    rho = 1 E_asym is e^w exactly.

    The eps-part of a sum is eps * max(1, |log-term|) * (largest term): the
    log-term k log w - ln Gamma(1 + k/rho) of the largest term is rounded
    to eps of its own size before it is exponentiated.  A is used unless it
    is suspect (its floor within e^13.8 of its value) and B or C promises a
    lower floor.  When b != 0, a point whose central index rho |w|^rho
    exceeds MAX_TERMS, and where B's remainder e^{-|w|^rho} is below
    REL_TOL, takes B and does not set a cutoff; past the budget every other
    point still raises TruncationError.

    The work runs in two stages.  First the points are summed in chunks of
    at most _CHUNK_ELEMENTS terms, which only fill per-call arrays of S
    (and of T when b != 0).  Then the floors, the route choice and the B
    and C evaluations run once for the whole call, on every point that
    needs them: at b = 0 T is summed only for the points routed to C, and
    E_asym only for those routed to B or C, in blocks of the same budget.
    """
    a, b = complex(a), complex(b)
    la, lb, lab = _log_abs(a), _log_abs(b), _log_abs(a + b)
    out_log = np.full(w.shape, -np.inf)
    out_ph = np.zeros(w.shape)
    out_floor = np.full(w.shape, -np.inf)
    zero = w == 0
    if zero.any():
        # s_n and E (and their derivatives) agree at w = 0
        v = (a + b) * (rgamma(1.0 + 1.0 / rho) if deriv else 1.0)
        sv = sc_from_complex(v)
        out_log[zero] = sv.log_mag
        out_ph[zero] = sv.phase
    live = np.nonzero(~zero)[0]
    if live.size == 0:
        return out_log, out_ph, out_floor
    logw = np.log(w[live])
    # the phase of term k is (k + j0) arg w: j0 = -1 for the derivative
    j0 = -int(deriv)
    # C reads T only where |w| <= R_{n+1}, and needs it to REL_TOL of its
    # first term: there the tail falls from t_{n+1} at least as fast as at
    # |w| = R_{n+1}, where t_{n+1} is the peak, so the cutoff at R_{n+1}
    # covers every C point.  For A the cutoff grows with |w|, and a point
    # sent to B up front (far) needs none past R_{n+1}: sorted by that
    # radius, largest first, each chunk takes the cutoff of its first row.
    lr_fwd = math.log(radius(n + 1, rho))
    # the cutoff at each radius, found once per call: many chunks and C share R_{n+1}'s
    cut = functools.cache(lambda lr: _peak_and_cutoff(lr, rho)[2])
    if b != 0:
        lr_far = max(math.log(MAX_TERMS / rho), math.log(-math.log(REL_TOL))) / rho
        lr_cut = np.where(logw.real > lr_far, lr_fwd, np.maximum(logw.real, lr_fwd))
        order = np.argsort(-lr_cut, kind="stable")
        live, logw, lr_cut = live[order], logw[order], lr_cut[order]

    # stage 1: the chunks only sum, S and (b != 0) T
    sums = []
    c0 = 0
    while c0 < live.size:
        width = n + 1 if b == 0 else cut(float(lr_cut[c0])) + 1
        lw = logw[c0:c0 + _chunk_rows(width)]
        c0 += lw.size
        logt = _log_terms(lw.real, 0, width, rho, deriv)
        sums.append(_norm_sum(logt[:, :n + 1], lw.imag, j0)
                    + (_norm_sum(logt[:, n + 1:], lw.imag, j0 + n + 1) if b != 0 else ()))
        del logt
    m_s, nu_s, s_s, *t_sums = _joined(sums)

    # stage 2: floors and routes, once per call
    fl_s = _eps_floor(m_s, nu_s, logw, rho)
    if b != 0:
        m_t, nu_t, s_t = t_sums
        val_log, val_ph = _combine((a + b, s_s, m_s), (b, s_t, m_t))
        floor = np.maximum(lab + fl_s, lb + _eps_floor(m_t, nu_t + n + 1, logw, rho))
        # a far row stops short of its cutoff: A has no floor there, and B serves
        floor[logw.real > lr_far] = np.inf
    else:
        val_log, val_ph = _combine((a, s_s, m_s))
        floor = la + fl_s
    suspect = (val_log == -np.inf) | (floor > val_log - _SUSPECT_GAP)
    j = np.nonzero(suspect)[0]
    if j.size:
        lwj = logw[j]
        # log of E_asym's error: eps max(1, |w|^rho) times its exponential
        # part; for rho > 1 also eps times its first algebraic term (for E,
        # |w|^-1 / |Gamma(1 - 1/rho)|) and its remainder e^{-|w|^rho}
        lr = lwj.real
        e_err = _LOG_EPS + np.maximum(0.0, rho * lr) + _asym_exp(lr, lwj.imag, rho, deriv)[0]
        if rho > 1:
            e_alg = _LOG_EPS - (2.0 if deriv else 1.0) * lr + math.log(rgamma(1.0 - 1.0 / rho))
            with np.errstate(over="ignore"):
                e_err = np.logaddexp(e_err, np.logaddexp(e_alg, -np.exp(rho * lr)))
        fl_b = np.logaddexp(la + fl_s[j], lb + e_err) if b != 0 else np.full(j.size, np.inf)
        first = _log_terms(lr, n + 1, n + 2, rho, deriv)[:, 0]
        fl_c = np.where(lr <= lr_fwd,
                        np.logaddexp(lab + e_err, la + _eps_floor(first, n + 1, lwj, rho)),
                        np.inf)
        use_b = (fl_b < floor[j]) & (fl_b <= fl_c)
        use_c = (fl_c < floor[j]) & (fl_c < fl_b)
        jb, jc = j[use_b], j[use_c]
        if jb.size:
            e_log, e_ph = _in_blocks(_ml_asym_batch, w[live[jb]], _ASYM_ROWS, rho, deriv)
            val_log[jb], val_ph[jb] = _combine((a, s_s[jb], m_s[jb]),
                                               (b, np.exp(1j * e_ph), e_log))
            floor[jb] = fl_b[use_b]
        if jc.size:
            if b == 0:
                k1 = cut(lr_fwd) + 1
                mt, _nu, st = _in_blocks(
                    lambda lw: _norm_sum(_log_terms(lw.real, n + 1, k1, rho, deriv), lw.imag,
                                         j0 + n + 1),
                    logw[jc], _chunk_rows(k1 - n - 1))
            else:
                mt, st = m_t[jc], s_t[jc]
            e_log, e_ph = _in_blocks(_ml_asym_batch, w[live[jc]], _ASYM_ROWS, rho, deriv)
            val_log[jc], val_ph[jc] = _combine((a + b, np.exp(1j * e_ph), e_log),
                                               (-a, st, mt))
            floor[jc] = fl_c[use_c]
    out_log[live] = val_log
    out_ph[live] = val_ph
    out_floor[live] = floor
    return out_log, out_ph, out_floor


def _chunk_rows(width: int) -> int:
    """Rows per chunk of series rows width terms wide: the terms, and the
    (at least 4 _PHASE_BLOCK reals wide) phase tables of _norm_sum, stay
    within _CHUNK_ELEMENTS."""
    return max(1, _CHUNK_ELEMENTS // max(width, 4 * _PHASE_BLOCK))


def _in_blocks(f, x: np.ndarray, rows: int, *args) -> tuple:
    """The arrays f(x, *args) returns, computed on blocks of at most rows entries of x."""
    return _joined([f(x[i:i + rows], *args) for i in range(0, x.size, rows)])


def _joined(parts: list) -> tuple:
    """Each array of the per-block tuples in parts, joined across the blocks."""
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _kernel_at(w: complex, n: int, rho: float, a: complex, b: complex
               ) -> tuple[ScaledComplex, float]:
    """_series_kernel at one point: (value, log of its error floor)."""
    log_mag, phase, floor = _series_kernel(np.array([complex(w)]), n, rho, a, b)
    return _scaled(float(log_mag[0]), float(phase[0])), float(floor[0])


def _eps_floor(m: np.ndarray, nu, logw: np.ndarray, rho: float) -> np.ndarray:
    """Log of eps * max(1, |log-term|) * e^m for sums whose largest term,
    e^m, sits at column nu; |log-term| is bounded by nu |log w| + |ln Gamma|."""
    size = nu * np.abs(logw) + np.abs(_lgamma_table(rho, int(np.max(nu)) + 1)[nu])
    return _LOG_EPS + np.log(np.maximum(1.0, size)) + m


def _combine(p: tuple, q: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sum of coef * s * e^m over the parts (coef, s, m), per point, in log-polar form.

    A part with coef 0 is left out; m may be -inf.
    """
    parts = [x for x in (p, q) if x is not None and x[0] != 0]
    if len(parts) == 1:
        coef, s, m = parts[0]
        return _log_polar(coef * s, m)
    (c1, s1, m1), (c2, s2, m2) = parts
    base = np.maximum(m1, m2)
    base = np.where(np.isfinite(base), base, 0.0)
    with np.errstate(under="ignore", invalid="ignore"):
        total = c1 * np.where(m1 > -np.inf, s1 * np.exp(m1 - base), 0.0) \
            + c2 * np.where(m2 > -np.inf, s2 * np.exp(m2 - base), 0.0)
    return _log_polar(total, base)


def _log_abs(c: complex) -> float:
    return math.log(abs(c)) if c != 0 else -math.inf


def _scaled(log_mag: float, phase: float) -> ScaledComplex:
    if log_mag == -math.inf:
        return SC_ZERO
    return ScaledComplex(log_mag, _wrap_phase(phase))


def _log_polar(vals: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mag = np.abs(vals)
    with np.errstate(divide="ignore"):
        log_mag = np.where(mag > 0, np.log(np.maximum(mag, 1e-300)) + base, -np.inf)
    return log_mag, np.angle(vals)
