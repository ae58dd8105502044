"""Layer benchmark of the series kernel and the locator, per (n, lam).

combo_batch: times combo_batch on 4,000 seeded points, uniform in
[-1.8, 1.8]^2, at rho = 2, for n in {20, 100, 300} and lam in {0, 0.5, 1}.
Each cell is the median of 5 timed calls after one untimed call, during
which the series terms the kernel builds are counted by wrapping
mitlef._log_terms (its cutoff scans included), its chunks by wrapping
mitlef._norm_sum (one call per chunk and sum), the points each route
serves by wrapping mitlef._routes, and the rows and seconds of E by
wrapping mitlef._e_integral.  It prints microseconds per point, terms per
point, terms per second, _norm_sum calls, the points per route (A/B/C),
the E rows and microseconds per E row.

locate_zeros: times locate_zeros on the same window at rho = 2, for n in
{20, 100} and lam in {0, 0.5, 1}, the median of 3 timed calls after one
untimed call, during which the _contour_integrals calls and the points
evaluated by the series kernel (mitlef._series_kernel) are counted by
wrapping them.

poly_zeros: times poly_zeros at rho = 2 for n in {100, 200, 600, 1000},
the median of 3 timed calls after one untimed call, during which the
series-kernel passes (one per call of mitlef._series_kernel, for a value
or for a value and its derivative) and the points they evaluate are
counted by wrapping it, in total and inside the Newton pass
(zeros._newton_polish); the Aberth rounds by wrapping zeros._stops inside
zeros._aberth (one call per round); and the mitlef._norm_sum calls per
kernel pass.

verify: times each suite of verify.SUITES at its defaults, the median of
3 timed calls after one untimed call, during which its series-kernel calls
and the points they evaluate are counted by wrapping
mitlef._series_kernel.

The four tables go, with nproc, to BENCH_<label>.json in the working
directory.

Run from the repository root:  PYTHONPATH=src python3 tools/bench.py LABEL
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

import numpy as np

from mlsections import mitlef, verify, zeros
from mlsections.mitlef import MLContext, combo_batch

RHO = 2.0
POINTS = 4000
HALF_SIDE = 1.8
NS = (20, 100, 300)
LAMS = (0.0, 0.5, 1.0)
REPEATS = 5
LOCATE_NS = (20, 100)
LOCATE_REPEATS = 3
POLY_NS = (100, 200, 600, 1000)


@contextlib.contextmanager
def _counting(modules: tuple, name: str, size):
    """Count the calls of name, one function under that name in each of
    modules, and the sum of size(*args) over them."""
    inner = getattr(modules[0], name)
    tally = {"calls": 0, "size": 0}

    def wrapper(*args, **kwargs):
        tally["calls"] += 1
        tally["size"] += size(*args)
        return inner(*args, **kwargs)

    for module in modules:
        setattr(module, name, wrapper)
    try:
        yield tally
    finally:
        for module in modules:
            setattr(module, name, inner)


def _median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def _routes_and_rows():
    """Count the points mitlef._routes sends to B and to C, and the rows and
    seconds of mitlef._e_integral."""
    routes, exact = mitlef._routes, mitlef._e_integral
    tally = {"B": 0, "C": 0, "rows": 0, "s": 0.0}

    def counted_routes(*args):
        use_b, use_c = routes(*args)
        tally["B"] += int(np.count_nonzero(use_b))
        tally["C"] += int(np.count_nonzero(use_c))
        return use_b, use_c

    def timed_exact(w, *args):
        t0 = time.perf_counter()
        out = exact(w, *args)
        tally["s"] += time.perf_counter() - t0
        tally["rows"] += np.size(w)
        return out

    mitlef._routes, mitlef._e_integral = counted_routes, timed_exact
    try:
        yield tally
    finally:
        mitlef._routes, mitlef._e_integral = routes, exact


def kernel_rows(zs: np.ndarray) -> list[dict]:
    rows = []
    for n in NS:
        for lam in LAMS:
            ctx = MLContext(RHO, n, lam)
            with _counting((mitlef,), "_log_terms",
                           lambda lr, k0, k1, *_: np.size(lr) * (k1 - k0)) as terms, \
                    _counting((mitlef,), "_norm_sum", lambda *_: 0) as sums, \
                    _routes_and_rows() as routed:
                combo_batch(zs, ctx)
            sec = _median_seconds(lambda: combo_batch(zs, ctx), REPEATS)
            rows.append({"n": n, "lam": lam, "terms": terms["size"],
                         "us_per_point": 1e6 * sec / zs.size, "terms_per_s": terms["size"] / sec,
                         "norm_sums": sums["calls"],
                         "routes": {"A": zs.size - routed["B"] - routed["C"], "B": routed["B"],
                                    "C": routed["C"]},
                         "e_rows": routed["rows"],
                         "us_per_e_row": 1e6 * routed["s"] / max(routed["rows"], 1)})
    return rows


def locate_rows() -> list[dict]:
    window = zeros.Window(-HALF_SIDE, HALF_SIDE, -HALF_SIDE, HALF_SIDE)
    rows = []
    for n in LOCATE_NS:
        for lam in LAMS:
            ctx = MLContext(RHO, n, lam)
            with _counting((zeros,), "_contour_integrals", lambda _ctx, rects: len(rects)) as contours:
                # zeros calls the kernel under its own name and through combo_batch
                with _counting((mitlef, zeros), "_series_kernel", lambda w, *_: np.size(w)) as evals:
                    zeros.locate_zeros(ctx, window)
            sec = _median_seconds(lambda: zeros.locate_zeros(ctx, window), LOCATE_REPEATS)
            rows.append({"n": n, "lam": lam, "seconds": sec,
                         "contour_calls": contours["calls"], "points": evals["size"]})
    return rows


def poly_rows() -> list[dict]:
    rows = []
    for n in POLY_NS:
        ctx = MLContext(RHO, n, 0.0)
        polish, aberth, newton, rounds = zeros._newton_polish, zeros._aberth, {}, {}
        # zeros calls the kernel under its own name and through combo_batch
        with _counting((mitlef, zeros), "_series_kernel", lambda w, *_: np.size(w)) as kernel, \
                _counting((mitlef,), "_norm_sum", lambda *_: 0) as sums, \
                _counting((zeros,), "_stops", lambda *_: 0) as stops:

            def counted_polish(*args):
                before = dict(kernel)
                out = polish(*args)
                newton.update((key, kernel[key] - before[key]) for key in kernel)
                return out

            def counted_aberth(*args):
                before = stops["calls"]
                out = aberth(*args)
                rounds["calls"] = stops["calls"] - before
                return out

            zeros._newton_polish, zeros._aberth = counted_polish, counted_aberth
            try:
                zeros.poly_zeros(ctx)
            finally:
                zeros._newton_polish, zeros._aberth = polish, aberth
        sec = _median_seconds(lambda: zeros.poly_zeros(ctx), LOCATE_REPEATS)
        rows.append({"n": n, "seconds": sec, "kernel_passes": kernel["calls"],
                     "aberth_rounds": rounds["calls"],
                     "points": kernel["size"], "newton_passes": newton["calls"],
                     "newton_points": newton["size"],
                     "norm_sums_per_pass": sums["calls"] / kernel["calls"]})
    return rows


def verify_rows() -> list[dict]:
    rows = []
    for name, suite in verify.SUITES.items():
        # the suites call the kernel under its own name and through mitlef and zeros
        with _counting((mitlef, zeros, verify), "_series_kernel",
                       lambda w, *_: np.size(w)) as kernel:
            suite()
        rows.append({"suite": name, "seconds": _median_seconds(suite, LOCATE_REPEATS),
                     "kernel_calls": kernel["calls"], "points": kernel["size"]})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    label = argv[0]
    rng = np.random.default_rng(0)
    zs = rng.uniform(-HALF_SIDE, HALF_SIDE, POINTS) + 1j * rng.uniform(-HALF_SIDE, HALF_SIDE, POINTS)
    kernel = kernel_rows(zs)
    print(f"combo_batch, rho = {RHO:g}, {POINTS} points in [-{HALF_SIDE}, {HALF_SIDE}]^2, "
          f"median of {REPEATS}, nproc = {os.cpu_count()}")
    print(f"{'n':>5} {'lam':>5} {'terms/point':>12} {'us/point':>10} {'Mterms/s':>10} "
          f"{'_norm_sum calls':>16} {'A/B/C points':>16} {'E rows':>7} {'us/E row':>9}")
    for r in kernel:
        abc = "/".join(str(r["routes"][k]) for k in "ABC")
        print(f"{r['n']:>5} {r['lam']:>5g} {r['terms'] / POINTS:>12.1f} "
              f"{r['us_per_point']:>10.2f} {r['terms_per_s'] / 1e6:>10.1f} {r['norm_sums']:>16} "
              f"{abc:>16} {r['e_rows']:>7} {r['us_per_e_row']:>9.2f}")
    locate = locate_rows()
    print(f"locate_zeros, rho = {RHO:g}, window [-{HALF_SIDE}, {HALF_SIDE}]^2, "
          f"median of {LOCATE_REPEATS}")
    print(f"{'n':>5} {'lam':>5} {'seconds':>9} {'contour calls':>14} {'points':>9}")
    for r in locate:
        print(f"{r['n']:>5} {r['lam']:>5g} {r['seconds']:>9.3f} {r['contour_calls']:>14} "
              f"{r['points']:>9}")
    poly = poly_rows()
    print(f"poly_zeros, rho = {RHO:g}, median of {LOCATE_REPEATS}; kernel passes and points,"
          f" in total and in the Newton pass, and Aberth rounds")
    print(f"{'n':>5} {'seconds':>9} {'passes':>7} {'rounds':>7} {'points':>9} "
          f"{'Newton passes':>14} {'Newton points':>14} {'_norm_sum/pass':>15}")
    for r in poly:
        print(f"{r['n']:>5} {r['seconds']:>9.3f} {r['kernel_passes']:>7} {r['aberth_rounds']:>7} "
              f"{r['points']:>9} {r['newton_passes']:>14} {r['newton_points']:>14} "
              f"{r['norm_sums_per_pass']:>15.2f}")
    checks = verify_rows()
    print(f"verify suites at their defaults, median of {LOCATE_REPEATS}; series-kernel calls"
          f" and points")
    print(f"{'suite':>9} {'seconds':>9} {'calls':>6} {'points':>9}")
    for r in checks:
        print(f"{r['suite']:>9} {r['seconds']:>9.4f} {r['kernel_calls']:>6} {r['points']:>9}")
    out = {"label": label, "rho": RHO, "points": POINTS, "half_side": HALF_SIDE,
           "repeats": REPEATS, "locate_repeats": LOCATE_REPEATS, "nproc": os.cpu_count(),
           "rows": kernel, "locate_rows": locate, "poly_rows": poly,
           "verify_rows": checks}
    with open(f"BENCH_{label}.json", "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
