"""Layer benchmark of the series kernel: combo_batch throughput per (n, lam).

Times combo_batch on 4,000 seeded points, uniform in [-1.8, 1.8]^2, at
rho = 2, for n in {20, 100, 300} and lam in {0, 0.5, 1}.  Each cell is the
median of 5 timed calls after one warm-up call.  It prints microseconds per
point and series terms per second (points times row width: n + 1 terms at
lam = 0, the truncation index kcut + 1 otherwise) and writes the table, with
nproc, to BENCH_<label>.json in the working directory.

Run from the repository root:  PYTHONPATH=src python3 tools/bench.py LABEL
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

import numpy as np

from mlsections.mitlef import MLContext, _peak_and_cutoff, combo_batch, radius

RHO = 2.0
POINTS = 4000
HALF_SIDE = 1.8
NS = (20, 100, 300)
LAMS = (0.0, 0.5, 1.0)
REPEATS = 5


def _width(zs: np.ndarray, n: int, lam: float) -> tuple[int, int | None]:
    """Row width of the kernel's series array, and its cutoff kcut (None at lam = 0).

    With lam != 0 the cutoff is set by the largest |w| = R_n |z| of the
    batch, but not below R_{n+1} (no point of this window lies past the
    kernel's MAX_TERMS rule at these n)."""
    if lam == 0:
        return n + 1, None
    lr = math.log(radius(n, RHO) * float(np.abs(zs).max()))
    kcut = _peak_and_cutoff(max(lr, math.log(radius(n + 1, RHO))), RHO)[2]
    return kcut + 1, kcut


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    label = argv[0]
    rng = np.random.default_rng(0)
    zs = rng.uniform(-HALF_SIDE, HALF_SIDE, POINTS) + 1j * rng.uniform(-HALF_SIDE, HALF_SIDE, POINTS)
    rows = []
    for n in NS:
        for lam in LAMS:
            ctx = MLContext(RHO, n, lam)
            combo_batch(zs, ctx)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                combo_batch(zs, ctx)
                times.append(time.perf_counter() - t0)
            sec = statistics.median(times)
            width, kcut = _width(zs, n, lam)
            rows.append({"n": n, "lam": lam, "kcut": kcut, "width": width,
                         "us_per_point": 1e6 * sec / POINTS,
                         "terms_per_s": POINTS * width / sec})
    print(f"combo_batch, rho = {RHO:g}, {POINTS} points in [-{HALF_SIDE}, {HALF_SIDE}]^2, "
          f"median of {REPEATS}, nproc = {os.cpu_count()}")
    print(f"{'n':>5} {'lam':>5} {'kcut':>6} {'us/point':>10} {'Mterms/s':>10}")
    for r in rows:
        kcut = "-" if r["kcut"] is None else r["kcut"]
        print(f"{r['n']:>5} {r['lam']:>5g} {kcut:>6} {r['us_per_point']:>10.2f} "
              f"{r['terms_per_s'] / 1e6:>10.1f}")
    out = {"label": label, "rho": RHO, "points": POINTS, "half_side": HALF_SIDE,
           "repeats": REPEATS, "nproc": os.cpu_count(), "rows": rows}
    with open(f"BENCH_{label}.json", "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
