"""Layer benchmark of the series kernel and the locator, per (n, lam).

combo_batch: times combo_batch on 4,000 seeded points, uniform in
[-1.8, 1.8]^2, at rho = 2, for n in {20, 100, 300} and lam in {0, 0.5, 1}.
Each cell is the median of 5 timed calls after one untimed call, during
which the series terms the kernel builds are counted by wrapping
mitlef._log_terms (its cutoff scans included), and its chunks by wrapping
mitlef._norm_sum (one call per chunk and sum).  It prints microseconds per
point, terms per point, terms per second and _norm_sum calls.

locate_zeros: times locate_zeros on the same window at rho = 2, for n in
{20, 100} and lam in {0, 0.5, 1}, the median of 3 timed calls after one
untimed call, during which the _contour_integrals calls and the points
evaluated by the series kernel (mitlef._series_kernel) are counted by
wrapping them.

poly_zeros: times poly_zeros at rho = 2 for n in {100, 200, 600}, the median
of 3 timed calls after one untimed call, during which the series-kernel
calls and the points they evaluate are counted by wrapping
mitlef._series_kernel, in total and inside the Newton pass
(zeros._newton_polish), and the mitlef._norm_sum calls per kernel call.

The three tables go, with nproc, to BENCH_<label>.json in the working
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

from mlsections import mitlef, zeros
from mlsections.mitlef import MLContext, combo_batch

RHO = 2.0
POINTS = 4000
HALF_SIDE = 1.8
NS = (20, 100, 300)
LAMS = (0.0, 0.5, 1.0)
REPEATS = 5
LOCATE_NS = (20, 100)
LOCATE_REPEATS = 3
POLY_NS = (100, 200, 600)


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


def kernel_rows(zs: np.ndarray) -> list[dict]:
    rows = []
    for n in NS:
        for lam in LAMS:
            ctx = MLContext(RHO, n, lam)
            with _counting((mitlef,), "_log_terms",
                           lambda lr, k0, k1, *_: np.size(lr) * (k1 - k0)) as terms, \
                    _counting((mitlef,), "_norm_sum", lambda *_: 0) as sums:
                combo_batch(zs, ctx)
            sec = _median_seconds(lambda: combo_batch(zs, ctx), REPEATS)
            rows.append({"n": n, "lam": lam, "terms": terms["size"],
                         "us_per_point": 1e6 * sec / zs.size, "terms_per_s": terms["size"] / sec,
                         "norm_sums": sums["calls"]})
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
        polish, newton = zeros._newton_polish, {}
        # zeros calls the kernel under its own name and through combo_batch
        with _counting((mitlef, zeros), "_series_kernel", lambda w, *_: np.size(w)) as kernel, \
                _counting((mitlef,), "_norm_sum", lambda *_: 0) as sums:

            def counted_polish(*args):
                before = dict(kernel)
                out = polish(*args)
                newton.update((key, kernel[key] - before[key]) for key in kernel)
                return out

            zeros._newton_polish = counted_polish
            try:
                zeros.poly_zeros(ctx)
            finally:
                zeros._newton_polish = polish
        sec = _median_seconds(lambda: zeros.poly_zeros(ctx), LOCATE_REPEATS)
        rows.append({"n": n, "seconds": sec, "kernel_calls": kernel["calls"],
                     "points": kernel["size"], "newton_calls": newton["calls"],
                     "newton_points": newton["size"],
                     "norm_sums_per_call": sums["calls"] / kernel["calls"]})
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
          f"{'_norm_sum calls':>16}")
    for r in kernel:
        print(f"{r['n']:>5} {r['lam']:>5g} {r['terms'] / POINTS:>12.1f} "
              f"{r['us_per_point']:>10.2f} {r['terms_per_s'] / 1e6:>10.1f} {r['norm_sums']:>16}")
    locate = locate_rows()
    print(f"locate_zeros, rho = {RHO:g}, window [-{HALF_SIDE}, {HALF_SIDE}]^2, "
          f"median of {LOCATE_REPEATS}")
    print(f"{'n':>5} {'lam':>5} {'seconds':>9} {'contour calls':>14} {'points':>9}")
    for r in locate:
        print(f"{r['n']:>5} {r['lam']:>5g} {r['seconds']:>9.3f} {r['contour_calls']:>14} "
              f"{r['points']:>9}")
    poly = poly_rows()
    print(f"poly_zeros, rho = {RHO:g}, median of {LOCATE_REPEATS}; kernel calls and points,"
          f" in total and in the Newton pass")
    print(f"{'n':>5} {'seconds':>9} {'calls':>7} {'points':>9} {'Newton calls':>13} "
          f"{'Newton points':>14} {'_norm_sum/call':>15}")
    for r in poly:
        print(f"{r['n']:>5} {r['seconds']:>9.3f} {r['kernel_calls']:>7} {r['points']:>9} "
              f"{r['newton_calls']:>13} {r['newton_points']:>14} {r['norm_sums_per_call']:>15.2f}")
    out = {"label": label, "rho": RHO, "points": POINTS, "half_side": HALF_SIDE,
           "repeats": REPEATS, "locate_repeats": LOCATE_REPEATS, "nproc": os.cpu_count(),
           "rows": kernel, "locate_rows": locate, "poly_rows": poly}
    with open(f"BENCH_{label}.json", "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
