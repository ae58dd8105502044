"""High-precision reference values for the benchmark's result checks.

E is evaluated by the mpmath oracles of tools/gen_goldens.py (imported,
not copied); the section s_n is summed term by term at a working
precision that absorbs its largest term.  E' comes from a forward
difference of the oracle at a step (1e-30) far below its precision
(at least 60 digits).

Reference values depend only on the inputs and on the returned zeros, so
they are cached per workload and seed in perfbench/.cache and the
(25-900 ms per point) oracle runs once per seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
CACHE_DIR = Path(__file__).resolve().parent / ".cache"

sys.path.insert(0, str(ROOT / "tools"))
import gen_goldens  # noqa: E402  (the repository's mpmath oracle)
from workloads import jump_radius  # noqa: E402


def _peak_log(w_abs: float, n: int, rho: float) -> float:
    """log of the largest section term |w|^k / Gamma(1 + k/rho), k <= n."""
    if w_abs == 0.0:
        return 0.0
    lw = math.log(w_abs)
    return max(k * lw - math.lgamma(1.0 + k / rho) for k in range(n + 1))


def _log_polar(x) -> tuple[float, float]:
    if x == 0:
        return -math.inf, 0.0
    return float(mp.log(abs(x))), float(mp.arg(x))


class Oracle:
    """Cached mpmath evaluation of s_n, E and derivatives at w = R_n z."""

    def __init__(self, cache_name: str):
        self.path = CACHE_DIR / f"{cache_name}.json"
        try:
            self.cache = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.cache = {}
        self.dirty = False
        self._memo: dict = {}

    def save(self) -> None:
        if self.dirty:
            CACHE_DIR.mkdir(exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.cache))
            tmp.replace(self.path)
            self.dirty = False

    def _cached(self, key: str, compute):
        if key not in self.cache:
            self.cache[key] = compute()
            self.dirty = True
        return self.cache[key]

    # --- mpmath evaluation, at the current working precision -------------

    @staticmethod
    def _dps(w: complex, n: int, rho: float) -> int:
        return 40 + int(_peak_log(abs(w), n, rho) / math.log(10.0))

    @staticmethod
    def _section(w, n: int, rho: float):
        """(s_n(w), s_n'(w))."""
        s = mp.mpc(0)
        ds = mp.mpc(0)
        p = mp.mpc(1)  # w^(k-1) while adding term k to ds
        for k in range(n + 1):
            g = mp.rgamma(1 + mp.mpf(k) / rho)
            if k:
                ds += k * p * g
                p *= w
            s += p * g
        return s, ds

    @staticmethod
    def _ml(w, rho: float):
        """(E(w), E'(w)) from the repository's oracle."""
        e = gen_goldens.ml_gamma_mp(w, rho)
        wh = w + mp.mpf(10) ** -30 * max(1, abs(w))
        # divide by the step as rounded, not as requested
        return e, (gen_goldens.ml_gamma_mp(wh, rho) - e) / (wh - w)

    def _parts(self, rho: float, n: int, z: complex, need_e: bool):
        """R_n, w, s, s', E, E' (E parts None when not needed), memoized:
        the sweep asks for several functions at each point."""
        key = (rho, n, z)
        hit = self._memo.get(key)
        if hit is None or (need_e and hit[4] is None):
            rn = mp.gamma(1 + mp.mpf(n) / rho) / mp.gamma(1 + mp.mpf(n - 1) / rho)
            w = rn * mp.mpc(z)
            s, ds = self._section(w, n, rho)
            e, de = self._ml(w, rho) if need_e else (None, None)
            hit = self._memo[key] = (rn, w, s, ds, e, de)
        return hit

    # --- public checks ----------------------------------------------------

    def newton_distance(self, rho: float, n: int, lam: complex, z: complex) -> float:
        """|I_n / I_n'| at R_n z, in the z variable: the distance Newton's
        method would still move a returned zero."""
        key = f"nd|{rho!r}|{n}|{lam.real!r}|{lam.imag!r}|{z.real!r}|{z.imag!r}"

        def compute():
            with mp.workdps(self._dps(jump_radius(n, rho) * z, n, rho)):
                rn, _w, s, ds, e, de = self._parts(rho, n, z, lam != 0)
                f, df = s, ds
                if lam != 0:
                    f = s - mp.mpc(lam) * e
                    df = ds - mp.mpc(lam) * de
                if df == 0:
                    return math.inf
                return float(abs(f / (rn * df)))

        return self._cached(key, compute)

    def reference(self, item: dict) -> list[float]:
        """[log|ref|, arg ref, log scale] for one sweep evaluation.

        The scale is max(|s_n(w)|, |lam E(w)|) (times R_n for the
        derivative, times the normalization for combo_normalized), so an
        error is judged against the size of the parts being combined.
        """
        fn, rho, n = item["fn"], item["rho"], item["n"]
        lam = complex(*item["lam"])
        z = complex(*item["z"])
        key = f"ref|{fn}|{rho!r}|{n}|{lam.real!r}|{lam.imag!r}|{z.real!r}|{z.imag!r}"

        def compute():
            with mp.workdps(self._dps(jump_radius(n, rho) * z, n, rho)):
                if fn == "ml_series":
                    e = gen_goldens.ml_gamma_mp(mp.mpc(complex(*item["w"])), rho)
                    s, _ds = self._section(mp.mpc(complex(*item["w"])), n, rho)
                    return [*_log_polar(e), _log_polar(max(abs(s), abs(e)))[0]]
                rn, w, s, ds, e, de = self._parts(rho, n, z, fn != "section")
                lm = mp.mpc(lam)
                if fn == "section":
                    ref, scale = s, abs(s)
                elif fn == "tail":
                    ref, scale = e - s, max(abs(s), abs(e))
                elif fn == "combo":
                    ref, scale = s - lm * e, max(abs(s), abs(lm * e))
                elif fn == "combo_derivative":
                    ref = rn * (ds - lm * de)
                    scale = rn * max(abs(ds), abs(lm * de))
                elif fn == "combo_normalized":
                    norm = mp.gamma(1 + mp.mpf(n) / rho) / w ** n
                    ref = (s - lm * e) * norm
                    scale = max(abs(s), abs(lm * e)) * abs(norm)
                else:
                    raise ValueError(f"unknown sweep function {fn!r}")
                return [*_log_polar(ref), _log_polar(scale)[0]]

        return self._cached(key, compute)

    def error(self, item: dict, value: list[float]) -> float:
        """|value - reference| / scale for a returned (log|v|, arg v)."""
        lr, pr, ls = self.reference(item)

        def scaled(lm, ph):
            if lm == -math.inf:
                return 0j
            return math.exp(min(lm - ls, 700.0)) * complex(math.cos(ph), math.sin(ph))

        return abs(scaled(*value) - scaled(lr, pr))
