"""Zero location for the section/tail combination inside a window.

For lam = 0 the combination is the polynomial section and all n roots are
found at once by Aberth-Ehrlich simultaneous iteration.  For general lam
a quadtree of winding numbers (argument principle on rectangle boundaries)
isolates the zeros.  Roots are polished by Newton steps on the scaled
evaluation and certified by a winding count of 1 in a small box, both as
batches: each Newton iteration and each refinement pass of the winding
count evaluates every root or rectangle still open in one call.

For lam = 1 the combination is minus the tail, which has a zero of
multiplicity n + 1 at the origin.  All winding arithmetic then runs on
the reduced function I_n(R_n z) / (R_n z)^{n+1}, which is zero-free at
the origin, and the locator reports the known multiplicity separately;
without the reduction the phase whirls n + 1 times around 0 and boundary
sampling aliases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .curves import asymptote_distance
from .mitlef import MLContext, combo_batch, radius
from .specfun import ln_gamma_arr

__all__ = [
    "Window",
    "ZeroRecord",
    "ZeroSet",
    "BoundaryZeroError",
    "ClusterWarning",
    "poly_zeros",
    "winding_number",
    "locate_zeros",
    "strip_filter",
]

POLISH_CELL_DIAMETER = 1e-3
MIN_CELL_DIAMETER = 1e-6
PHASE_STEP_LIMIT = math.pi / 2.0


class BoundaryZeroError(RuntimeError):
    """Adaptive boundary refinement stalled on a (near-)zero of the function."""


class ClusterWarning(UserWarning):
    """A zero cluster did not separate above the minimum cell size."""


@dataclass(frozen=True)
class Window:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window must have positive extent")

    @property
    def diameter(self) -> float:
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max

    def boundary_points(self, per_side: int) -> np.ndarray:
        """Closed counterclockwise polyline (last point repeats the first)."""
        a, b, c, d = self.re_min, self.re_max, self.im_min, self.im_max
        t = np.linspace(0.0, 1.0, per_side, endpoint=False)
        return np.concatenate([a + t * (b - a) + 1j * c, b + 1j * (c + t * (d - c)),
                               b + t * (a - b) + 1j * d, a + 1j * (d + t * (c - d)),
                               [complex(a, c)]])


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    residual_log: float  # natural log of |I_n| at the reported point
    certified: bool
    near_asymptote: bool = False
    cluster_count: int = 1


@dataclass(frozen=True)
class ZeroSet:
    """locate_zeros output: records plus origin-mask bookkeeping."""

    records: tuple[ZeroRecord, ...]
    masked_origin_multiplicity: int = 0
    total_winding: int = 0


def _wrap(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _field_batch(ctx: MLContext, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|.|, arg) of the function whose zeros are isolated.

    For lam = 1 this is the origin-reduced I_n(R_n z) / (R_n z)^{n+1};
    otherwise I_n itself.
    """
    lm, ph = combo_batch(zs, ctx)
    if ctx.lam != 1:
        return lm, ph
    m = ctx.n + 1
    w = ctx.radius_value * zs
    nz = w != 0
    wsafe = np.where(nz, w, 1.0)
    lm = lm - m * np.log(np.abs(wsafe))
    ph = _wrap(ph - m * np.angle(wsafe))
    if (~nz).any():
        # reduced value at the origin is -1/Gamma(1 + (n+1)/rho)
        lm = np.where(nz, lm, -float(ln_gamma_arr(np.array([1.0 + m / ctx.rho]))[0]))
        ph = np.where(nz, ph, math.pi)
    return lm, ph


def _initial_per_side(ctx: MLContext, window: Window) -> int:
    """Sample density estimate from the phase speed of the dominant terms.

    The exponential part of E contributes ~ rho R_n^rho r^{rho-1} = n r^{rho-1}
    radians per unit arclength; zero rows on the limit curve contribute ~ n/2.
    (For lam = 1 the winding field is already origin-reduced, so no extra
    density is needed near 0.)
    """
    r_max = max(abs(complex(x, y)) for x in (window.re_min, window.re_max)
                for y in (window.im_min, window.im_max))
    rate = ctx.n * (r_max ** (ctx.rho - 1.0) + 0.5)
    side = max(window.re_max - window.re_min, window.im_max - window.im_min)
    return int(min(20000, max(16, 1.3 * rate * side / PHASE_STEP_LIMIT)))


def _insert(old: np.ndarray, pos: np.ndarray, at: np.ndarray, new) -> np.ndarray:
    """old with entry i moved to pos[i], and new written at the indices at."""
    out = np.empty(old.size + at.size, dtype=old.dtype)
    out[pos[:old.size]] = old
    out[at] = new
    return out


def _winding_numbers(ctx: MLContext, rects: list[Window], max_depth: int = 48
                     ) -> list[int | None]:
    """Total change of arg I_n along each rectangle boundary, over 2 pi.

    The closed polylines of all rectangles are refined together, with one
    evaluation per pass, until consecutive phase increments are below pi/2.
    A rectangle whose refinement stalls (a zero on or near its boundary), or
    whose phase sum is not close to an integer, gets None; the others go on.
    """
    polys = [r.boundary_points(_initial_per_side(ctx, r)) for r in rects]
    owner = np.repeat(np.arange(len(rects)), [len(p) for p in polys])
    pts = np.concatenate(polys)
    _lm, ph = _field_batch(ctx, pts)
    depth = np.zeros(len(pts) - 1, dtype=int)
    failed = np.zeros(len(rects), dtype=bool)
    while True:
        # a segment between two rectangles' polylines is no boundary segment
        seg = owner[:-1] == owner[1:]
        d = np.where(seg, _wrap(np.diff(ph)), 0.0)
        bad = np.abs(d) >= PHASE_STEP_LIMIT
        failed[owner[:-1][bad & (depth >= max_depth)]] = True
        bad &= ~failed[owner[:-1]]
        if not bad.any():
            break
        mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
        _lm2, ph_mid = _field_batch(ctx, mids)
        # point i moves past the midpoints before it; a midpoint follows its segment's start
        pos = np.arange(len(pts)) + np.concatenate(([0], np.cumsum(bad)))
        at = pos[:-1][bad] + 1
        pts = _insert(pts, pos, at, mids)
        ph = _insert(ph, pos, at, ph_mid)
        owner = _insert(owner, pos, at, owner[:-1][bad])
        depth = _insert(depth + bad, pos, at, depth[bad] + 1)
    total = np.bincount(owner[:-1], weights=d, minlength=len(rects)) / (2.0 * math.pi)
    w = np.round(total)
    failed |= np.abs(total - w) > 1e-3
    return [None if f else int(v) for f, v in zip(failed, w)]


def winding_number(ctx: MLContext, rectangle: Window, max_depth: int = 48) -> int:
    """Total change of arg I_n along the rectangle boundary, over 2 pi; a
    refinement stall raises BoundaryZeroError (callers retry with a jitter)."""
    (w,) = _winding_numbers(ctx, [rectangle], max_depth)
    if w is None:
        raise BoundaryZeroError("phase refinement stalled; zero on or near the boundary")
    return w


def _windings_with_jitter(ctx: MLContext, rects: list[Window], retries: int) -> list[tuple]:
    """(winding number, rectangle it was taken on) per rectangle, with the
    documented deterministic jitter on stalls; None where every attempt stalled."""
    out: list[tuple[int | None, Window]] = [(None, r) for r in rects]
    for attempt in range(retries + 1):
        todo = [i for i, (w, _r) in enumerate(out) if w is None]
        if not todo:
            break
        cur = [rects[i] for i in todo]
        if attempt:
            cur = [Window(r.re_min - e, r.re_max + e * 1.3, r.im_min - e * 0.7, r.im_max + e * 1.1)
                   for r in cur for e in [1e-7 * r.diameter * attempt]]
        for i, w, rect in zip(todo, _winding_numbers(ctx, cur), cur):
            out[i] = (w, rect)
    return out


def _newton_polish(zs: np.ndarray, ctx: MLContext, tol: float, max_iter: int = 30
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton iteration on the scaled evaluation, from each start in zs.

    Returns arrays (root, ln|I| there, ok, uncertainty radius); each
    iteration makes one value and one derivative call for the roots still
    iterating.  Where the combination is a difference of exponentially large
    parts, |I| bottoms out on the rounding-noise floor and the steps stagnate
    above tol; the best iterate is then still accepted, with the stagnation
    scale |I|_floor / |I'| reported as the uncertainty radius."""
    z = np.array(zs, dtype=complex)
    res, ok, unc = np.full(z.size, -np.inf), np.ones(z.size, dtype=bool), np.zeros(z.size)
    best_lm, best_z, d_last = np.full(z.size, np.inf), z.copy(), np.zeros(z.size)
    act, fin = np.arange(z.size), np.arange(0)  # iterating; converged, value pending
    for it in range(max_iter + 1):
        ids = np.concatenate([fin, act]) if it < max_iter else fin
        if ids.size:
            f_lm, f_ph = combo_batch(z[ids], ctx)
            res[fin], f_lm, f_ph = f_lm[:fin.size], f_lm[fin.size:], f_ph[fin.size:]
        if it == max_iter or not act.size:
            break
        live = f_lm > -np.inf  # an exact zero ends with res = -inf, ok, unc = 0
        act, f_lm, f_ph = act[live], f_lm[live], f_ph[live]
        d_lm, d_ph = combo_batch(z[act], ctx, deriv=True)
        flat = d_lm == -np.inf
        res[act[flat]], ok[act[flat]], unc[act[flat]] = f_lm[flat], False, np.inf
        act, f_lm, f_ph, d_lm, d_ph = (x[~flat] for x in (act, f_lm, f_ph, d_lm, d_ph))
        b = f_lm < best_lm[act]
        best_lm[act[b]], best_z[act[b]], d_last[act[b]] = f_lm[b], z[act[b]], d_lm[b]
        step = np.exp(np.minimum(f_lm - d_lm, 100.0) + 1j * (f_ph - d_ph))
        if ctx.lam == 1:
            # Newton on the origin-reduced function g = I / w^{n+1}:
            # g/g' = (I/I') z / (z - (n+1) I/I')
            zr = z[act]
            r = zr != 0
            step[r] = step[r] * zr[r] / (zr[r] - (ctx.n + 1) * step[r])
        z[act] -= step
        done = np.abs(step) < tol
        unc[act[done]] = np.abs(step[done])
        fin, act = act[done], act[~done]
    unc[act] = np.exp(np.minimum(best_lm[act] - d_last[act], 100.0))
    z[act], res[act], ok[act] = best_z[act], best_lm[act], unc[act] < 1e-6
    return z, res, ok, unc


def _certify(zs: np.ndarray, ctx: MLContext, tol: float, radius_unc: np.ndarray) -> np.ndarray:
    """Whether a box around each root has winding number 1.

    Boxes start above both the polish tolerance and the evaluation-noise
    radius, and grow until the boundary phases are clean: within the noise
    radius the winding integral cannot settle, but any box well below the
    inter-zero spacing still isolates a single zero.
    """
    side = np.maximum(max(10.0 * tol, 1e-9), np.maximum(np.abs(zs) * 1e-12, 50.0 * radius_unc))
    cert = np.zeros(zs.size, dtype=bool)
    todo = np.arange(zs.size)
    for _ in range(5):
        boxes = [Window(z.real - h, z.real + h, z.imag - h, z.imag + h)
                 for z, h in zip(zs[todo].tolist(), side[todo].tolist())]
        counts = [w for w, _box in _windings_with_jitter(ctx, boxes, retries=1)]
        stalled = np.array([w is None for w in counts], dtype=bool)
        cert[todo[~stalled]] = [w == 1 for w in counts if w is not None]
        todo = todo[stalled]
        side[todo] *= 10.0
    return cert


def _aberth(c: np.ndarray, r0: float) -> np.ndarray:
    """Roots of the monic sum_k c_k x^k by Aberth-Ehrlich iteration from radius r0."""
    n = len(c) - 1
    pc, pdc = c[::-1].astype(complex), (c[1:] * np.arange(1, n + 1))[::-1].astype(complex)
    roots = r0 * np.exp(1j * (2.0 * math.pi * np.arange(n) / n + 0.4 / n))
    diff = np.empty((n, n), dtype=complex)  # the one n x n array, reused
    for _ in range(400):
        dp = np.polyval(pdc, roots)
        newton = np.polyval(pc, roots) / np.where(dp == 0, 1e-300, dp)
        np.subtract.outer(roots, roots, out=diff)
        np.fill_diagonal(diff, np.inf)
        denom = 1.0 - newton * np.sum(np.divide(1.0, diff, out=diff), axis=1)
        step = newton / np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        roots = roots - step
        if np.max(np.abs(step) / (1.0 + np.abs(roots))) < 1e-15:
            return roots
    warnings.warn("Aberth iteration budget exhausted; roots may be unpolished",
                  ClusterWarning, stacklevel=3)
    return roots


def poly_zeros(ctx: MLContext, tol: float = 1e-12) -> list[ZeroRecord]:
    """All n roots of the section s_n(R_n z) by Aberth-Ehrlich iteration,
    polished and certified as one batch."""
    if ctx.lam != 0:
        raise ValueError("poly_zeros requires lam = 0")
    n, rho = ctx.n, ctx.rho
    k = np.arange(n + 1, dtype=float)
    logc = k * math.log(radius(n, rho)) - ln_gamma_arr(1.0 + k / rho)
    if (spread := logc.max() - logc.min()) > 600.0:
        raise OverflowError(
            f"coefficient spread e^{spread:.0f} exceeds double range; n too large")
    c = np.exp(logc - logc[n])  # monic normalization
    roots = (np.array([-c[0] / c[1]], dtype=complex) if n == 1
             else _aberth(c, math.exp((logc[0] - logc[n]) / n)))
    z, res, ok, runc = _newton_polish(roots[np.lexsort((roots.imag, roots.real))], ctx, tol)
    cert = np.zeros(n, dtype=bool)
    cert[ok] = _certify(z[ok], ctx, tol, runc[ok])
    return [ZeroRecord(complex(a), float(r), bool(c)) for a, r, c in zip(z, res, cert)]


def locate_zeros(ctx: MLContext, window: Window, tol: float = 1e-10) -> ZeroSet:
    """Quadtree subdivision by winding number with Newton polish.

    Cells of winding 1 below the polish diameter are handed to Newton;
    clusters that never separate above the minimum cell size are reported
    unpolished with their count.
    """
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    # lam = 1: winding runs on the origin-reduced function, so the known
    # multiplicity at 0 is reported directly rather than subdivided into.
    masked = ctx.n + 1 if ctx.lam == 1 and window.contains(0.0) else 0
    records: list[ZeroRecord] = []

    ((total, root_win),) = _windings_with_jitter(ctx, [window], retries=5)
    if total is None:
        raise BoundaryZeroError("window boundary stalled on a zero after every jitter")

    def solve(cell: Window, w: int) -> None:
        if w == 0:
            return
        if w == 1 and cell.diameter < POLISH_CELL_DIAMETER:
            z, res, ok, runc = _newton_polish(np.array([cell.center]), ctx, tol)
            inflate = cell.diameter
            near = (cell.re_min - inflate <= z[0].real <= cell.re_max + inflate
                    and cell.im_min - inflate <= z[0].imag <= cell.im_max + inflate)
            if ok[0] and near:
                records.append(ZeroRecord(complex(z[0]), float(res[0]),
                                          bool(_certify(z, ctx, tol, runc)[0])))
                return
            # Newton escaped the cell: isolate further
        if cell.diameter < MIN_CELL_DIAMETER:
            warnings.warn(
                f"cluster of {w} zeros did not separate above diameter {MIN_CELL_DIAMETER}",
                ClusterWarning, stacklevel=2)
            records.append(ZeroRecord(cell.center, math.nan, False, cluster_count=w))
            return
        for attempt in range(6):
            a, b, c, d, s = cell.re_min, cell.re_max, cell.im_min, cell.im_max, 1e-7 * attempt
            cx, cy = 0.5 * (a + b) + s * (b - a), 0.5 * (c + d) + s * (d - c)
            children = [Window(a, cx, c, cy), Window(cx, b, c, cy),
                        Window(a, cx, cy, d), Window(cx, b, cy, d)]
            counts = _winding_numbers(ctx, children)
            if None in counts or sum(counts) != w:
                continue  # a zero sat on the split line; shift and retry
            for ch, cw in zip(children, counts):
                solve(ch, cw)
            return
        raise BoundaryZeroError(
            f"could not split cell {cell} without a boundary zero")

    solve(root_win, total)
    records.sort(key=lambda rec: (rec.location.real, rec.location.imag))
    return ZeroSet(tuple(records), masked_origin_multiplicity=masked,
                   total_winding=total + masked)


def strip_filter(records, rho: float, strip_width: float
                 ) -> tuple[list[ZeroRecord], list[ZeroRecord]]:
    """Partition records by distance to the rays arg z = +-pi/(2 rho).

    Returns (kept, filtered); filtered records get near_asymptote=True.
    """
    if strip_width <= 0.0:
        raise ValueError("strip_width must be > 0")
    kept: list[ZeroRecord] = []
    filtered: list[ZeroRecord] = []
    for rec in records:
        if asymptote_distance(rec.location, rho) < strip_width:
            filtered.append(replace(rec, near_asymptote=True))
        else:
            kept.append(replace(rec, near_asymptote=False))
    return kept, filtered
