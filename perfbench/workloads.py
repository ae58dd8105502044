"""Workload inputs, generated from the seed alone.

The launcher builds the inputs here and hands them to a fresh worker
process as JSON; the library only ever sees these generated values.
Nothing in this module imports mlsections.

Complex numbers travel as [re, im] pairs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("locate", "roots", "pointwise")

RHO = 2.0
WINDOW = (-1.8, 1.8, -1.8, 1.8)  # the acceptance window [-1.8, 1.8]^2

# locate: one locate_zeros call per lam-branch of combo_batch, at a fixed
# n: drawing n from 20-25 moved the run time by 18% (interquartile range
# over five seeds) and the peak memory by 12%, wider than the bounds
LOCATE_N = 20
# generic lam: 0 < |lam| < 1 and Im lam > 0, kept near the positive real
# axis, where the locator's cost varies least with lam (at n=22 one call
# took 12-13 s for lam in {0.1, 0.5}, but 18 s at lam = 0.3+0.6i)
LOCATE_LAM_ABS = (0.45, 0.65)
LOCATE_LAM_ARG = (0.08, 0.2)

# roots: poly_zeros at three n, one from each band
ROOTS_BANDS = ((96, 104), (146, 154), (196, 204))

# pointwise, part 1: the verification suites at their acceptance
# parameters, run through the CLI (theorem2 only reruns the locator)
SUITES = (
    ("theorem1", ["verify", "theorem1", "--rho", "2"]),
    ("theorem3_lam0", ["verify", "theorem3", "--rho", "2", "--lambda", "0",
                       "--n", "50,100,200"]),
    ("theorem3_lam05", ["verify", "theorem3", "--rho", "2", "--lambda", "0.5",
                        "--n", "50,100,200"]),
    ("theorem3_lam1", ["verify", "theorem3", "--rho", "2", "--lambda", "1",
                       "--n", "50,100,200"]),
    ("theorem4", ["verify", "theorem4", "--rho", "2", "--n", "75,300"]),
    ("kn", ["verify", "kn", "--rho", "2", "--n", "20,80"]),
    ("lemma4", ["verify", "lemma4", "--rho", "2", "--n", "100,200"]),
    ("lemma1", ["verify", "lemma1", "--rho", "2"]),
)

# pointwise, part 2: a sweep of one-point calls
SWEEP_RHOS = (1.5, 2.0, 4.0)
SWEEP_NS = (25, 100, 300)
SWEEP_LAMS = (0.0, 1.0, 0.5, 0.7 + 0.2j)
SWEEP_REGIONS = ("inner", "outer", "exterior", "near_one", "near_curve")
# functions whose value depends on lam, and those that do not
SWEEP_LAM_FNS = ("combo", "combo_derivative", "combo_normalized")
SWEEP_PLAIN_FNS = ("section", "tail", "ml_series")


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def unpair(p) -> complex:
    return complex(p[0], p[1])


def jump_radius(n: int, rho: float) -> float:
    """R_n = Gamma(1 + n/rho) / Gamma(1 + (n-1)/rho)."""
    return math.exp(math.lgamma(1.0 + n / rho) - math.lgamma(1.0 + (n - 1) / rho))


def _szego_radius(phi: float, rho: float, branch: str) -> float:
    """Radius of S(rho) on the ray arg z = phi, by bisection.

    S(rho) is r^rho cos(rho phi) = 1 + rho log r inside the sector
    |phi| < pi/(2 rho); the inner branch has r in [e^{-1/rho}, 1] and the
    outer branch r >= 1.  Written out here so that the inputs do not
    depend on the library under test.
    """
    c = math.cos(rho * phi)
    f = lambda r: r ** rho * c - 1.0 - rho * math.log(r)  # noqa: E731
    if branch == "inner":
        lo, hi = math.exp(-1.0 / rho), 1.0
    else:
        lo, hi = 1.0, 2.0
        while f(hi) < 0.0:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (f(hi) > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _region_point(rng: random.Random, region: str, rho: float, n: int) -> complex:
    """One point z (in the scaled variable) of the named region."""
    bound = math.pi / (2.0 * rho)
    arc = math.exp(-1.0 / rho)
    if region == "inner":  # inside S(rho), in the sector
        phi = rng.uniform(-0.8, 0.8) * bound
        r = rng.uniform(0.3, 0.9) * _szego_radius(phi, rho, "inner")
    elif region == "outer":  # beyond the outer branch, in the sector
        phi = rng.uniform(-0.6, 0.6) * bound
        r = rng.uniform(1.05, 1.3) * _szego_radius(phi, rho, "outer")
    elif region == "exterior":  # outside the sector and outside the arc
        phi = rng.choice((-1.0, 1.0)) * rng.uniform(bound + 0.2, math.pi)
        r = rng.uniform(1.05, 1.3) * arc
    elif region == "near_one":  # the erfc scaling window around z = 1
        return 1.0 + complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) / math.sqrt(n)
    else:  # near_curve: within O(1/n) of the inner branch or the arc
        if rng.random() < 0.5:
            phi = rng.uniform(-0.8, 0.8) * bound
            r = _szego_radius(phi, rho, "inner")
        else:
            phi = rng.choice((-1.0, 1.0)) * rng.uniform(bound + 0.2, math.pi)
            r = arc
        r *= 1.0 + rng.uniform(-2.0, 2.0) / n
    return r * complex(math.cos(phi), math.sin(phi))


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "locate":
        n = LOCATE_N
        lam = rng.uniform(*LOCATE_LAM_ABS) * complex(
            math.cos(a := rng.uniform(*LOCATE_LAM_ARG)), math.sin(a))
        calls = [{"n": n, "lam": pair(v)} for v in (0.0, 1.0, lam)]
        return {"workload": workload, "rho": RHO, "window": list(WINDOW),
                "calls": calls, "warm": [[RHO, n, pair(lam)]]}
    if workload == "roots":
        ns = [rng.randint(lo, hi) for lo, hi in ROOTS_BANDS]
        return {"workload": workload, "rho": RHO, "ns": ns,
                "warm": [[RHO, ns[0], [0.0, 0.0]]]}
    if workload == "pointwise":
        sweep = []
        for rho in SWEEP_RHOS:
            for n in SWEEP_NS:
                lams = list(SWEEP_LAMS)
                rng.shuffle(lams)
                for i, region in enumerate(SWEEP_REGIONS):
                    z = pair(_region_point(rng, region, rho, n))
                    point = {"rho": rho, "n": n, "z": z, "region": region}
                    for fn in SWEEP_PLAIN_FNS:
                        sweep.append({**point, "fn": fn, "lam": [0.0, 0.0]})
                    # ml_series takes the unscaled argument w = R_n z
                    sweep[-1]["w"] = pair(jump_radius(n, rho) * unpair(z))
                    # every lam at every (rho, n), rotated over the regions
                    for lam in (lams[i % 4], lams[(i + 1) % 4]):
                        for fn in SWEEP_LAM_FNS:
                            sweep.append({**point, "fn": fn, "lam": pair(lam)})
        return {"workload": workload, "suites": [list(s) for s in SUITES],
                "sweep": sweep,
                "warm": [[rho, 25, [0.5, 0.0]] for rho in SWEEP_RHOS]}
    raise ValueError(f"unknown workload {workload!r}")
