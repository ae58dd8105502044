"""Zero location for the section/tail combination inside a window.

For lam = 0 the combination is the polynomial section and all n roots are
found at once by Aberth-Ehrlich simultaneous iteration.  Its Newton ratio
comes from the scaled series kernel, never from polynomial coefficients,
so n has no overflow limit.  It and the Newton polish below stop a root
by one rule, MPSolve's, not by a tolerance: after a step at rounding level
or one from where |I_n| was within e^2 of the kernel's rounding floor.
The roots are certified by Gerschgorin inclusion disks built from the
Weierstrass corrections (MPSolve's test: O(n^2) flops, one evaluation
per root); a root whose disk is not isolated, or is too wide, falls back
to the winding count below.

For general lam a quadtree of winding numbers (argument principle on
rectangle boundaries) isolates the zeros, one level per pass.  The
boundary samples of each count also give the first contour moment
(1/2 pi i) ∮ z I'/I dz, which for a rectangle of winding 1 is its zero
(Delves-Lyness, Math. Comp. 21, 1967).  Such a rectangle is polished at
once from its moment, and is split further only if the root does not
certify inside it.  Roots are polished by Newton steps on the scaled
evaluation and certified by a winding count of 1 in a small box.  Each
pass polishes, certifies and splits its level as batches: each Newton
iteration and each refinement pass of a winding count evaluates every
root or rectangle of the level still open in one call.

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

from .curves import asymptote_distance, szego_sigma
from .mitlef import MLContext, _series_kernel, combo_batch
from .specfun import ln_gamma

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
MAX_REFINE_DEPTH = 48  # halvings of one boundary segment before its rectangle fails
NEWTON_MAX_ITER = 30
# shifted retries of a boundary that stalls: the window's edges, or a cell's split lines
JITTERS = 5


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
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError(f"window edges must be finite, got {self!r}")
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
        lm = np.where(nz, lm, -ln_gamma(1.0 + m / ctx.rho))
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


def _contour_integrals(ctx: MLContext, rects: list[Window]
                       ) -> tuple[list[int | None], np.ndarray]:
    """Winding number and first contour moment of I_n on each rectangle.

    The winding number is the total change of arg I_n along the boundary,
    over 2 pi.  The closed polylines of all rectangles are refined together,
    with one evaluation per pass, until consecutive phase increments are
    below pi/2.  A rectangle whose refinement stalls (a zero on or near its
    boundary), that has a sample at an exact zero (log|I| = -inf), or whose
    phase sum is not close to an integer, gets None; the others go on.  The
    moment (1/2 pi i) ∮ z I'/I dz, which is the zero of a winding-1
    rectangle (Delves-Lyness), comes from the same samples: each segment
    adds its midpoint times its change of log I.
    """
    polys = [r.boundary_points(_initial_per_side(ctx, r)) for r in rects]
    owner = np.repeat(np.arange(len(rects)), [len(p) for p in polys])
    pts = np.concatenate(polys)
    lm, ph = _field_batch(ctx, pts)
    depth = np.zeros(len(pts) - 1, dtype=int)
    failed = np.zeros(len(rects), dtype=bool)
    while True:
        failed[owner[lm == -np.inf]] = True
        # a segment between two rectangles' polylines is no boundary segment
        seg = owner[:-1] == owner[1:]
        d = np.where(seg, _wrap(np.diff(ph)), 0.0)
        bad = np.abs(d) >= PHASE_STEP_LIMIT
        failed[owner[:-1][bad & (depth >= MAX_REFINE_DEPTH)]] = True
        bad &= ~failed[owner[:-1]]
        if not bad.any():
            break
        mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
        lm_mid, ph_mid = _field_batch(ctx, mids)
        # point i moves past the midpoints before it; a midpoint follows its segment's start
        pos = np.arange(len(pts)) + np.concatenate(([0], np.cumsum(bad)))
        at = pos[:-1][bad] + 1
        pts = _insert(pts, pos, at, mids)
        lm = _insert(lm, pos, at, lm_mid)
        ph = _insert(ph, pos, at, ph_mid)
        owner = _insert(owner, pos, at, owner[:-1][bad])
        depth = _insert(depth + bad, pos, at, depth[bad] + 1)
    total = np.bincount(owner[:-1], weights=d, minlength=len(rects)) / (2.0 * math.pi)
    w = np.round(total)
    failed |= np.abs(total - w) > 1e-3
    # a failed rectangle's moment is not read: keep its -inf samples out of it
    lm = np.where(failed[owner], 0.0, lm)
    dm = np.where(seg, 0.5 * (pts[:-1] + pts[1:]) * (np.diff(lm) + 1j * d), 0.0)
    moment = (np.bincount(owner[:-1], weights=dm.real, minlength=len(rects))
              + 1j * np.bincount(owner[:-1], weights=dm.imag, minlength=len(rects)))
    return [None if f else int(v) for f, v in zip(failed, w)], moment / (2j * math.pi)


def winding_number(ctx: MLContext, rectangle: Window) -> int:
    """Total change of arg I_n along the rectangle boundary, over 2 pi; a
    refinement stall raises BoundaryZeroError (callers retry with a jitter)."""
    (w,) = _contour_integrals(ctx, [rectangle])[0]
    if w is None:
        raise BoundaryZeroError("phase refinement stalled; zero on or near the boundary")
    return w


def _value(z: np.ndarray, ctx: MLContext, deriv: bool = False) -> tuple:
    """(log|I_n|, arg I_n, log of its error floor) at R_n z; with deriv, the
    pair of such triples for I_n and its z-derivative, from one kernel pass."""
    rn = ctx.radius_value
    if not deriv:
        return _series_kernel(rn * z, ctx.n, ctx.rho, 1.0, -ctx.lam)
    f_lm, f_ph, floor, d_lm, d_ph, d_floor = _series_kernel(rn * z, ctx.n, ctx.rho, 1.0,
                                                            -ctx.lam, (0, 1))
    return (f_lm, f_ph, floor), (d_lm + math.log(rn), d_ph, d_floor + math.log(rn))


def _stops(f_lm: np.ndarray, floor: np.ndarray, step: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Which roots stop after a step, in Aberth's iteration and Newton's alike:
    a step of at most 1e-14 (1 + |z|), or one from where log|I_n| was within
    2 of the kernel's rounding floor, below which steps follow the noise."""
    return (f_lm <= floor + 2.0) | (np.abs(step) <= 1e-14 * (1.0 + np.abs(z)))


def _newton_polish(zs: np.ndarray, ctx: MLContext
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton iteration on the scaled evaluation, from each start in zs.

    Returns arrays (root, ln|I| there, ok, uncertainty radius).  Each
    iteration makes one kernel call, for the value and the derivative, at
    the roots still iterating and the latest iterates of those that stopped
    (whose values it reads); a root stops by _stops, and its last step is
    its radius.
    Where the kernel's floor under-claims the noise the steps stagnate, and
    after NEWTON_MAX_ITER steps the best iterate is taken, its radius the
    stagnation scale |I| / |I'| there.  ok: the radius is below 1e-6."""
    z = np.array(zs, dtype=complex)
    res, unc = np.full(z.size, -np.inf), np.zeros(z.size)
    best_lm, best_z, d_last = np.full(z.size, np.inf), z.copy(), np.zeros(z.size)
    act, fin = np.arange(z.size), np.arange(0)  # iterating; stopped, value pending
    for it in range(NEWTON_MAX_ITER + 1):
        if it == NEWTON_MAX_ITER or not act.size:
            if fin.size:
                res[fin] = _value(z[fin], ctx)[0]
            break
        ids = np.concatenate([fin, act])  # each root's latest value
        (res[ids], f_ph, floor), (d_lm, d_ph, _d_floor) = _value(z[ids], ctx, deriv=True)
        # the roots still iterating; an exact zero ends with res = -inf, ok, unc = 0
        live = fin.size + np.flatnonzero(res[act] > -np.inf)
        act = ids[live]
        f_lm, f_ph, floor, d_lm, d_ph = (x[live] for x in (res[ids], f_ph, floor, d_lm, d_ph))
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
        done = _stops(f_lm, floor, step, z[act])
        unc[act[done]] = np.abs(step[done])
        fin, act = act[done], act[~done]
    unc[act] = np.exp(np.minimum(best_lm[act] - d_last[act], 100.0))
    z[act], res[act] = best_z[act], best_lm[act]
    return z, res, unc < 1e-6, unc


def _start_side(zs: np.ndarray, radius_unc: np.ndarray) -> np.ndarray:
    """Half-side of the first certification box around each root: at least
    1e-9, and above the evaluation-noise radius."""
    return np.maximum(1e-9, np.maximum(np.abs(zs) * 1e-12, 50.0 * radius_unc))


def _certify(zs: np.ndarray, ctx: MLContext, radius_unc: np.ndarray) -> np.ndarray:
    """Whether a box around each root has winding number 1.

    Boxes start at _start_side and grow tenfold, up to four times, until the
    boundary phases are clean: within the noise radius the winding integral
    cannot settle, but any box well below the inter-zero spacing still
    isolates a single zero.
    """
    side = _start_side(zs, radius_unc)
    cert = np.zeros(zs.size, dtype=bool)
    todo = np.arange(zs.size)
    for _ in range(5):
        if not todo.size:
            break
        boxes = [Window(z.real - h, z.real + h, z.imag - h, z.imag + h)
                 for z, h in zip(zs[todo].tolist(), side[todo].tolist())]
        counts, _moments = _contour_integrals(ctx, boxes)
        stalled = np.array([w is None for w in counts], dtype=bool)
        cert[todo[~stalled]] = [w == 1 for w in counts if w is not None]
        todo = todo[stalled]
        side[todo] *= 10.0
    return cert


def _log_lead(ctx: MLContext) -> float:
    """log of the leading coefficient R_n^n / Gamma(1 + n/rho) of s_n(R_n z)."""
    return ctx.n * math.log(ctx.radius_value) - ln_gamma(1.0 + ctx.n / ctx.rho)


def _szego_starts(n: int, rho: float) -> np.ndarray:
    """n points on S(rho), where the roots of s_n(R_n z) accumulate
    (Edrei, Saff and Varga, 1983).

    The inner branch gets about n (pi - 2/e) / (2 pi rho) of them, its share
    of the roots: along it Im(z^rho - rho log z) falls from pi/2 - 1/e to
    1/e - pi/2, and the points sit at equal steps of it, read off 256
    samples of the branch.  The rest go on the arc |z| = e^{-1/rho} at
    equal angles.  Each point sits mid-step, and all are turned by
    e^{0.4 i / n}, which keeps them off conjugate-symmetric positions.
    """
    half, top = math.pi / (2.0 * rho), math.pi / 2.0 - 1.0 / math.e
    inner = round(n * (math.pi - 2.0 / math.e) / (2.0 * math.pi * rho))
    phi = np.linspace(half, -half, 256)
    r = szego_sigma(phi, rho, "inner")
    level = r ** rho * np.sin(rho * phi) - rho * phi  # rising from -top to top
    at = np.interp(top * (1.0 - (2.0 * np.arange(inner) + 1.0) / inner), level, phi)
    arc = half + (np.arange(n - inner) + 0.5) * (2.0 * math.pi - 2.0 * half) / (n - inner)
    z = np.concatenate([szego_sigma(at, rho, "inner") * np.exp(1j * at),
                        math.exp(-1.0 / rho) * np.exp(1j * arc)])
    return z * np.exp(0.4j / n)


def _aberth(ctx: MLContext, buf: np.ndarray) -> np.ndarray:
    """All n roots of s_n(R_n z) by Aberth-Ehrlich iteration on the scaled kernel.

    Starts on S(rho) (_szego_starts); each round makes one kernel pass, for
    the value and the derivative of the roots still iterating; a root stops
    by _stops.  buf is the n x n scratch array of the pairwise reciprocals.
    """
    n = ctx.n
    act = np.arange(n)
    z = _szego_starts(n, ctx.rho)
    for _ in range(400):
        (f_lm, f_ph, floor), (d_lm, d_ph, _d_floor) = _value(z[act], ctx, deriv=True)
        newton = np.exp(np.minimum(f_lm - d_lm, 100.0) + 1j * (f_ph - d_ph))
        diff = np.subtract.outer(z[act], z, out=buf[:act.size])
        diff[np.arange(act.size), act] = np.inf
        denom = 1.0 - newton * np.sum(np.divide(1.0, diff, out=diff), axis=1)
        step = newton / np.where(denom == 0, 1e-300, denom)
        z[act] -= step
        act = act[~_stops(f_lm, floor, step, z[act])]
        if not act.size:
            return z
    warnings.warn(f"{act.size} Aberth roots neither converged nor reached the rounding floor",
                  ClusterWarning, stacklevel=3)
    return z


def _inclusion(ctx: MLContext, z: np.ndarray, cap: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Whether the Gerschgorin inclusion disk of each of the n points z
    certifies a root of s_n(R_n z).

    With the Weierstrass corrections W_i = p(z_i) / (a_n prod_{j!=i} (z_i - z_j))
    of p(z) = s_n(R_n z), the roots of p are the eigenvalues of diag(z) - 1 W^T,
    so a disk D(z_i, n |W_i|) disjoint from every other disk holds exactly one
    root.  |p(z_i)| is bounded by the computed value plus its rounding floor.
    A disk counts only if its radius is at most cap.  buf holds the n x n
    distances and their logs.
    """
    n = z.size
    f_lm, _ph, floor = _value(z, ctx)
    dist, logd = buf.view(float).reshape(2, n, n)  # the complex buffer as two real halves
    np.subtract.outer(z.real, z.real, out=dist)
    np.subtract.outer(z.imag, z.imag, out=logd)
    np.hypot(dist, logd, out=dist)
    np.fill_diagonal(dist, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.logaddexp(f_lm, floor) - _log_lead(ctx) - np.log(dist, out=logd).sum(axis=1)
        r = n * np.exp(log_w)
    np.subtract(dist, r, out=logd)
    np.fill_diagonal(logd, np.inf)
    return (r <= cap) & (logd.min(axis=1) > r)


def _certify_roots(ctx: MLContext, z: np.ndarray, ok: np.ndarray, radius_unc: np.ndarray,
                   buf: np.ndarray) -> np.ndarray:
    """Certified flags for n polished approximations z of the roots of s_n(R_n z).

    A root is certified by its inclusion disk when that is isolated and no
    larger than the biggest box _certify would try; the other roots that
    polished (ok) are counted by _certify.  A winding box certifies its
    root only if no other point lies within 1.5 cap (beyond the corners of
    the largest box it may grow to), so two points on one root are never
    both certified.
    """
    cap = 1e4 * _start_side(z, radius_unc)
    cert = ok & _inclusion(ctx, z, cap, buf)
    rest = np.nonzero(ok & ~cert)[0]
    if rest.size:
        near = np.abs(np.subtract.outer(z[rest], z, out=buf[:rest.size])) < 1.5 * cap[rest, None]
        cert[rest] = _certify(z[rest], ctx, radius_unc[rest]) & (near.sum(axis=1) == 1)
    return cert


def _sorted(records: list[ZeroRecord]) -> list[ZeroRecord]:
    """Records by real part, rounded to 8 decimals, then imaginary part: the
    members of a conjugate pair differ in their real parts by a few ulps, and
    the rounding lists the lower one first in every run."""
    return sorted(records, key=lambda rec: (round(rec.location.real, 8), rec.location.imag))


def poly_zeros(ctx: MLContext) -> list[ZeroRecord]:
    """All n roots of the section s_n(R_n z): Aberth-Ehrlich iteration on the
    scaled kernel, Newton polish, then inclusion disks with a winding-count
    fallback, each as one batch; both iterations stop a root by _stops."""
    if ctx.lam != 0:
        raise ValueError("poly_zeros requires lam = 0")
    buf = np.empty((ctx.n, ctx.n), dtype=complex)  # the one n x n array, reused
    z, res, ok, runc = _newton_polish(_aberth(ctx, buf), ctx)
    cert = _certify_roots(ctx, z, ok, runc, buf)
    return _sorted([ZeroRecord(complex(a), float(r), bool(c)) for a, r, c in zip(z, res, cert)])


def locate_zeros(ctx: MLContext, window: Window) -> ZeroSet:
    """Quadtree subdivision by winding number with Newton polish, one level per pass.

    Each pass polishes every cell of winding 1 as one batch, from its first
    contour moment (its centre if the moment lies outside it), and certifies
    the candidates as one batch.  A cell of at least the polish diameter
    keeps its root when the root certifies and lies farther inside the cell
    than the largest box _certify may try: the cell then holds exactly one
    zero, and the certified box inside it holds that zero.  A smaller cell
    keeps its root, certified or not, if it lies within one cell diameter.
    Cells below the minimum cell size are reported unpolished with their
    count, as clusters.  The children of every other cell are counted as one
    batch, and a cell whose children miss its count is split again at a
    shifted centre.  The polish stops each root by _stops, not by a tolerance.
    """
    # lam = 1: winding runs on the origin-reduced function, so the known
    # multiplicity at 0 is reported directly rather than subdivided into.
    masked = ctx.n + 1 if ctx.lam == 1 and window.contains(0.0) else 0
    records: list[ZeroRecord] = []

    root_win = window
    for attempt in range(JITTERS + 1):
        if attempt:  # deterministic jitter of a boundary that stalled
            e = 1e-7 * window.diameter * attempt
            root_win = Window(window.re_min - e, window.re_max + e * 1.3,
                              window.im_min - e * 0.7, window.im_max + e * 1.1)
        (total,), moments = _contour_integrals(ctx, [root_win])
        if total is not None:
            break
    else:
        raise BoundaryZeroError("window boundary stalled on a zero after every jitter")

    level = [(root_win, total, moments[0])]  # (cell, winding, moment) of this pass's cells
    while level:
        one = [(i, cell, m) for i, (cell, w, m) in enumerate(level) if w == 1]
        kept = set()
        if one:
            starts = [m if cell.contains(m) else cell.center for _i, cell, m in one]
            z, res, ok, runc = _newton_polish(np.array(starts), ctx)
            edges = np.array([[c.re_min, c.re_max, c.im_min, c.im_max] for _i, c, _m in one]).T
            margin = np.minimum.reduce([z.real - edges[0], edges[1] - z.real,
                                        z.imag - edges[2], edges[3] - z.imag])
            diameter = np.array([cell.diameter for _i, cell, _m in one])
            small = diameter < POLISH_CELL_DIAMETER
            # a small cell's root may lie up to one diameter outside it
            cand = ok & np.where(small, margin >= -diameter,
                                 margin > 1e4 * _start_side(z, runc))
            cert = np.zeros(z.size, dtype=bool)
            if cand.any():
                cert[cand] = _certify(z[cand], ctx, runc[cand])
            keep = cand & (cert | small)
            records.extend(ZeroRecord(complex(a), float(r), bool(c))
                           for a, r, c in zip(z[keep], res[keep], cert[keep]))
            kept = {one[k][0] for k in np.flatnonzero(keep)}
        split = []
        for i, (cell, w, _m) in enumerate(level):
            if w and i not in kept and cell.diameter < MIN_CELL_DIAMETER:
                warnings.warn(
                    f"cluster of {w} zeros did not separate above diameter {MIN_CELL_DIAMETER}",
                    ClusterWarning, stacklevel=2)
                records.append(ZeroRecord(cell.center, math.nan, False, cluster_count=w))
            elif w and i not in kept:
                split.append((cell, w))
        level = []
        for attempt in range(JITTERS + 1):
            if not split:
                break
            kids = []
            for cell, _w in split:  # at the centre, shifted on a retry
                a, b, c, d, s = cell.re_min, cell.re_max, cell.im_min, cell.im_max, 1e-7 * attempt
                cx, cy = 0.5 * (a + b) + s * (b - a), 0.5 * (c + d) + s * (d - c)
                kids += [Window(a, cx, c, cy), Window(cx, b, c, cy),
                         Window(a, cx, cy, d), Window(cx, b, cy, d)]
            kid_counts, kid_moments = _contour_integrals(ctx, kids)
            missed = []
            for j, (cell, w) in enumerate(split):
                got = kid_counts[4 * j:4 * j + 4]
                if None in got or sum(got) != w:
                    missed.append((cell, w))  # a zero sat on a split line: shift and retry
                else:
                    level += zip(kids[4 * j:4 * j + 4], got, kid_moments[4 * j:4 * j + 4])
            split = missed
        if split:
            raise BoundaryZeroError(f"could not split cell {split[0][0]} without a boundary zero")
    return ZeroSet(tuple(_sorted(records)), masked_origin_multiplicity=masked,
                   total_winding=total + masked)


def strip_filter(records, rho: float, strip_width: float
                 ) -> tuple[list[ZeroRecord], list[ZeroRecord]]:
    """Partition records by distance to the rays arg z = +-pi/(2 rho).

    Returns (kept, filtered); filtered records get near_asymptote=True.
    """
    if not math.isfinite(strip_width):
        raise ValueError(f"strip_width must be finite, got {strip_width!r}")
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
