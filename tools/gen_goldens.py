"""Generate frozen reference values for the series/asymptotics comparison.

Two independent mpmath evaluations of E(z) = sum_j z^j / Gamma(1 + j/rho):

* ml_series_mp: brute-force summation at a working precision large enough
  to absorb the cancellation (peak term ~ e^{|z|^rho}).  Exact but slow for
  large |z|^rho, so it is used to cross-validate the second method at
  moderate radius.
* ml_gamma_mp: for rational 1/rho = u/v, the series splits into residue
  classes j = v m + s, each an incomplete-gamma kernel
  sum_m W^m / Gamma(u m + c) with W = z^v, evaluated through the entire
  function gammastar(b, w) = w^-b P(b, w).  Cost is independent of |z|.

Run from the repository root:  python3 tools/gen_goldens.py
Writes tests/golden/series_asym.json (64 angles, |z| = 20,
rho in {1.5, 2, 4}) and tests/golden/e_integral.json: E and E' at
|w|^rho in E_SIZES on the lines arg w = 0, pi/rho and pi, rho in E_RHOS,
E' by a central difference of E at 40 digits.  ml_gamma_mp serves
|w|^rho >= 1 at every rho but 1.1; ml_series_mp serves the rest, where the
incomplete-gamma kernels of a 1/rho = u/v with u > 1 stall (1/1.1 = 10/11
needs 110 of them per point).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath as mp

RADIUS = 20.0
ANGLES = 64
RHOS = (1.5, 2.0, 4.0)
E_RHOS = (1.1, 1.25, 1.5, 2.0, 3.0, 4.0)
E_SIZES = (0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 450.0)


def _alpha_frac(rho: float) -> Fraction:
    fr = Fraction(rho).limit_denominator(100)
    return Fraction(fr.denominator, fr.numerator)  # 1/rho


def _peak_log(r: float, rho: float) -> float:
    """log of the maximal series term at radius r (double precision scan)."""
    nu = max(10, int(rho * r**rho * 1.2))
    best = 0.0
    for j in range(0, nu + 1, max(1, nu // 4000)):
        val = j * math.log(r) - math.lgamma(1.0 + j / rho)
        best = max(best, val)
    return best


def ml_series_mp(z: complex, rho: float, extra: int = 50) -> mp.mpc:
    """Brute-force sum with per-residue-class term recurrences."""
    alpha = _alpha_frac(rho)
    u, v = alpha.numerator, alpha.denominator
    r = abs(z)
    peak = _peak_log(r, rho)
    dps = int(peak / math.log(10.0)) + extra
    with mp.workdps(dps):
        zv = mp.mpc(z) ** v
        total = mp.mpc(0)
        floor_log = mp.mpf(-peak - extra * math.log(10.0) + 10)
        for s in range(v):
            # t_m = z^(vm+s)/Gamma(1 + (vm+s) u/v); argument steps by u
            term = mp.mpc(z) ** s / mp.gamma(1 + mp.mpf(s * u) / v)
            base = mp.mpf(s * u) / v  # Gamma argument offset minus the +1
            m = 0
            while True:
                total += term
                denom = mp.mpf(1)
                for i in range(1, u + 1):
                    denom *= base + m * u + i
                term = term * zv / denom
                m += 1
                if m * v > rho * r**rho and abs(term) != 0 and \
                        mp.log(abs(term)) < floor_log:
                    break
        return +total


def _gammastar(b, w) -> mp.mpc:
    """w^-b P(b, w): entire in w (principal powers cancel consistently)."""
    return w ** (-b) * mp.gammainc(b, 0, w, regularized=True)


def _kernel(v_arg, c) -> mp.mpc:
    """F(v; c) = sum_n v^n / Gamma(n + c)."""
    if c == 1:
        return mp.e ** v_arg
    # gamma(b, w) = w^b e^-w sum_n w^n Gamma(b)/Gamma(b+n+1), so
    # sum_n w^n / Gamma(n + c) = e^w gammastar(c - 1, w)
    return mp.e ** v_arg * _gammastar(c - 1, v_arg)


def _ml_gamma_subtracted(z: complex, v: int, dps: int) -> mp.mpc:
    """E for integer rho = v via the exactly-subtracted exponential.

    With W = z^v and q = z / W^(1/v) (an exact v-th root of unity),
    E = e^W sum_s q^s P(s/v, W)
      = e^W [v if q = 1 else 0] - sum_{s>=1} q^s e^W Gamma(s/v, W)/Gamma(s/v).
    The geometric factor removes the huge e^W analytically, so only
    algebraic-size quantities are ever summed.
    """
    with mp.workdps(dps):
        zc = mp.mpc(z)
        W = zc ** v
        root = W ** (mp.mpf(1) / v)
        q_raw = zc / root
        k = int(mp.nint(mp.arg(q_raw) * v / (2 * mp.pi)))
        q = mp.e ** (2j * mp.pi * k / v)
        if abs(q_raw - q) > mp.mpf(10) ** (-dps // 2):
            raise RuntimeError("root-of-unity snap failed")
        total = mp.mpc(v) * mp.e ** W if k % v == 0 else mp.mpc(0)
        for s in range(1, v):
            b = mp.mpf(s) / v
            upper = mp.gammainc(b, W)  # upper incomplete Gamma(b, W)
            total -= q ** s * (mp.e ** W * upper) / mp.gamma(b)
        return +total


def ml_gamma_mp(z: complex, rho: float, extra: int = 60) -> mp.mpc:
    alpha = _alpha_frac(rho)
    u, v = alpha.numerator, alpha.denominator
    if u == 1:
        return _ml_gamma_subtracted(z, v, dps=extra + 20)
    # generic rational path: recombination of the kernels can cancel the
    # exponential e^{Re U}; absorb it with working precision instead
    r = abs(z)
    stress = max(0.0, r ** rho)
    dps = extra + int(stress / math.log(10.0))
    with mp.workdps(dps):
        zc = mp.mpc(z)
        W = zc ** v
        total = mp.mpc(0)
        for s in range(v):
            c = 1 + mp.mpf(s * u) / v
            U = W ** (mp.mpf(1) / u)
            inner = mp.fsum(
                [_kernel(U * mp.e ** (2j * mp.pi * t / u), c)
                 for t in range(u)]) / u
            total += zc ** s * inner
        return +total


def _log_polar(val: mp.mpc) -> tuple[float, float]:
    return float(mp.log(abs(val))), float(mp.arg(val))


def cross_validate() -> None:
    # 16 angles stress every recombination regime, including the ones
    # where Re z^v > 0 while the function itself is algebraically small
    cases = [(1.5, 20.0), (2.0, 20.0), (4.0, 6.0), (4.0, 3.0)]
    for rho, r in cases:
        for k in range(16):
            phi = -math.pi + (k + 0.37) * 2.0 * math.pi / 16
            z = r * complex(math.cos(phi), math.sin(phi))
            a = ml_series_mp(z, rho)
            b = ml_gamma_mp(z, rho)
            rel = float(abs(a - b) / abs(a))
            if rel > 1e-30:
                raise RuntimeError(
                    f"oracle mismatch rho={rho} z={z}: rel={rel:.2e}")
        print(f"cross-validated rho={rho} |z|={r}")


def e_entries() -> list[dict]:
    """E and E' on the grid of tests/golden/e_integral.json."""
    entries = []
    for rho in E_RHOS:
        for size in E_SIZES:
            oracle = ml_series_mp if rho == 1.1 or size < 1.0 else ml_gamma_mp
            r = size ** (1.0 / rho)
            for phi in (0.0, math.pi / rho, math.pi):
                z = complex(-r, 0.0) if phi == math.pi else r * complex(math.cos(phi),
                                                                       math.sin(phi))
                with mp.workdps(40):
                    zm, h = mp.mpc(z), mp.mpf(10) ** -15
                    val = oracle(zm, rho)
                    der = (oracle(zm + h, rho) - oracle(zm - h, rho)) / (2 * h)
                entries.append({"rho": rho, "re": z.real, "im": z.imag,
                                "e": [float(val.real), float(val.imag)],
                                "de": [float(der.real), float(der.imag)]})
        print(f"generated E, E' at rho={rho}")
    return entries


def _write(name: str, data) -> None:
    out = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "golden", name)
    with open(os.path.normpath(out), "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def main() -> None:
    cross_validate()
    entries = []
    for rho in RHOS:
        for k in range(ANGLES):
            phi = -math.pi + (k + 0.5) * 2.0 * math.pi / ANGLES
            z = RADIUS * complex(math.cos(phi), math.sin(phi))
            val = ml_gamma_mp(z, rho)
            log_mag, phase = _log_polar(val)
            entries.append({"rho": rho, "re": z.real, "im": z.imag,
                            "log_mag": log_mag, "phase": phase})
        print(f"generated rho={rho}")
    _write("series_asym.json", {"radius": RADIUS, "angles": ANGLES, "entries": entries})
    print(f"wrote {len(entries)} entries")
    e = e_entries()
    _write("e_integral.json", e)
    print(f"wrote {len(e)} E entries")


if __name__ == "__main__":
    main()
