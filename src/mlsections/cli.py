"""Command-line front end: curves, zeros, verification suites, SVG plots.

Exit codes: 0 success (all checks pass for ``verify``), 1 a verification
check failed, 2 invalid parameters or malformed input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import math
import sys

from .curves import (
    BracketError,
    CurvePoint,
    SzegoBranch,
    phase_u,
    s_h_level_r,
    szego_curve,
    szego_sigma,
    t_curve_r,
)
from .mitlef import MLContext
from .verify import SUITES
from .zeros import Window, ZeroRecord, locate_zeros, poly_zeros, strip_filter

_FMT = ".15g"  # all numeric output at 15 significant digits


def _num(x: float) -> str:
    return format(float(x), _FMT)


def parse_lambda(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' into a complex number."""
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse lambda {text!r}")


def parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "window must be re_min,re_max,im_min,im_max")
    try:
        a, b, c, d = (float(p) for p in parts)
        return Window(a, b, c, d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}")


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}")


# --------------------------------------------------------------------------
# curve

def _sh_curve(rho: float, h: float, samples: int, r_max: float) -> list[CurvePoint]:
    """Inner/outer samples of the level curve u = -h/2 (no circular arc).

    Along the ray arg z = phi the minimum of u is ln cos(rho phi), so the
    level -h/2 is only attained for |phi| >= acos(e^{-h/2})/rho; the curve
    splits into two lobes symmetric about the real axis.
    """
    bound = math.pi / (2.0 * rho)
    phi_min = math.acos(math.exp(-h / 2.0)) / rho * (1.0 + 1e-9)
    if phi_min >= bound:
        raise ValueError("h too large: the level curve leaves the sector")
    # the outer lobe's minimum radius is e^{h/(2 rho)}, attained at phi_min
    if r_max <= math.exp(h / (2.0 * rho)) * (1.0 + 1e-9):
        raise ValueError("r_max must exceed the outer branch minimum radius "
                         f"{math.exp(h / (2.0 * rho)):.6g}")
    # outer radius reaches r_max where cos(rho phi) = (1 - h/2 + rho ln r)/r^rho
    c_edge = (1.0 - h / 2.0 + rho * math.log(r_max)) / r_max**rho
    phi_edge = math.acos(c_edge) / rho
    pts: list[CurvePoint] = []
    for branch, hi in ((SzegoBranch.INNER, bound), (SzegoBranch.OUTER, phi_edge)):
        for lobe in (-1.0, 1.0):
            phis = [lobe * p for p in _lin(phi_min, hi, samples)]
            if lobe < 0:
                phis.reverse()
            pts += [CurvePoint(phi, s_h_level_r(phi, rho, h, branch), branch)
                    for phi in phis]
    return pts


def _lin(a: float, b: float, m: int) -> list[float]:
    return [a + (b - a) * i / (m - 1) for i in range(m)]


def write_curve_csv(points: list[CurvePoint], path) -> None:
    w = csv.writer(path, lineterminator="\n")
    w.writerow(["branch", "phi", "r", "re", "im"])
    for p in points:
        z = p.z
        w.writerow([p.branch.value, _num(p.phi), _num(p.r),
                    _num(z.real), _num(z.imag)])


def read_curve_csv(path) -> list[CurvePoint]:
    rd = csv.DictReader(path)
    return [CurvePoint(float(row["phi"]), float(row["r"]),
                       SzegoBranch(row["branch"])) for row in rd]


def cmd_curve(args) -> int:
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if args.which == "szego":
        pts = szego_curve(args.rho, args.samples, r_max=args.r_max)
    elif args.which == "t":
        # open sector |phi| < pi/rho; stop short of the endpoints where r
        # blows up.  The midpoint row carries r(0) = 1 exactly.
        m = args.samples if args.samples % 2 == 1 else args.samples + 1
        edge = (math.pi / args.rho) * (1.0 - 1.0 / m)
        pts = [CurvePoint(phi, t_curve_r(phi, args.rho), SzegoBranch.ARC)
               for phi in _lin(-edge, edge, m)]
    else:  # sh
        pts = _sh_curve(args.rho, args.h, args.samples, args.r_max)
    with _open_out(args.out) as f:
        write_curve_csv(pts, f)
    return 0


# --------------------------------------------------------------------------
# zeros

def zero_set_to_json(records, header: dict) -> str:
    payload = {
        "header": header,
        "records": [
            {"re": rec.location.real, "im": rec.location.imag,
             "residual_log": rec.residual_log, "certified": rec.certified,
             "near_asymptote": rec.near_asymptote}
            for rec in records
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def read_zeros_json(path) -> dict:
    return json.load(path)


def cmd_zeros(args) -> int:
    ctx = MLContext(rho=args.rho, n=args.n, lam=args.lam)
    win = args.window
    warnings: list[str] = []
    if args.lam == 0:
        recs = [r for r in poly_zeros(ctx) if win.contains(r.location)]
        masked = 0
        winding = len(recs)
    else:
        zs = locate_zeros(ctx, win, tol=args.tol)
        recs = list(zs.records)
        masked = zs.masked_origin_multiplicity
        winding = zs.total_winding
        captured = sum(r.cluster_count for r in recs) + masked
        if captured != winding:
            warnings.append(
                f"partial: {captured} of {winding} windings resolved")
        if any(not r.certified for r in recs):
            warnings.append("uncertified records present")
    if args.strip_width is not None:
        kept, filtered = strip_filter(recs, args.rho, args.strip_width)
        recs = kept + filtered
    header = {
        "rho": args.rho, "n": args.n,
        "lambda_re": args.lam.real, "lambda_im": args.lam.imag,
        "window": [win.re_min, win.re_max, win.im_min, win.im_max],
        "tol": args.tol, "masked_origin_multiplicity": masked,
        "warnings": warnings,
    }
    with _open_out(args.out) as f:
        f.write(zero_set_to_json(recs, header))
        f.write("\n")
    return 0


# --------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    accepted = inspect.signature(suite).parameters
    kwargs = {"rho": args.rho}
    supplied = {
        "lam": args.lam, "n_list": args.n_list, "h": args.h,
        "delta2": args.delta2, "delta3": args.delta3,
        "r_list": args.r_list, "grid_side": args.grid_side,
    }
    if args.suite == "theorem4" and args.lam is not None:
        supplied["lam_list"] = (args.lam,)
        supplied.pop("lam")
    for key, val in supplied.items():
        if val is not None:
            if key not in accepted:
                raise ValueError(
                    f"suite {args.suite!r} does not take --{key.replace('_', '-')}")
            kwargs[key] = val
    report = suite(**kwargs)
    report["config"] = {
        "suite": args.suite, "rho": args.rho,
        "lambda": None if args.lam is None
        else [args.lam.real, args.lam.imag],
        "n_list": list(args.n_list) if args.n_list else None,
        "h": args.h, "delta2": args.delta2, "delta3": args.delta3,
        "r_list": list(args.r_list) if args.r_list else None,
        "grid_side": args.grid_side,
    }
    with _open_out(args.out) as f:
        f.write(json.dumps(report, indent=1, sort_keys=True))
        f.write("\n")
    return 0 if report["pass"] else 1


# --------------------------------------------------------------------------
# plot

_VIEW = (-2.2, 2.2)  # fixed data viewport, both axes
_SIZE = 640          # svg pixel size

_BRANCH_COLOR = {"inner": "#1f77b4", "arc": "#2ca02c", "outer": "#d62728"}


def _px(x: float) -> str:
    lo, hi = _VIEW
    return format(_SIZE * (x - lo) / (hi - lo), ".2f")


def _py(y: float) -> str:
    lo, hi = _VIEW
    return format(_SIZE * (hi - y) / (hi - lo), ".2f")


def cmd_plot(args) -> int:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<line x1="{_px(_VIEW[0])}" y1="{_py(0)}" x2="{_px(_VIEW[1])}" '
        f'y2="{_py(0)}" stroke="#999" stroke-width="1"/>',
        f'<line x1="{_px(0)}" y1="{_py(_VIEW[0])}" x2="{_px(0)}" '
        f'y2="{_py(_VIEW[1])}" stroke="#999" stroke-width="1"/>',
    ]
    for path in args.curve or []:
        try:
            with open(path, newline="") as f:
                pts = read_curve_csv(f)
        except (OSError, KeyError, ValueError) as exc:
            print(f"malformed curve file {path}: {exc}", file=sys.stderr)
            return 2
        by_branch: dict[str, list[CurvePoint]] = {}
        for p in pts:
            by_branch.setdefault(p.branch.value, []).append(p)
        for branch, chain in sorted(by_branch.items()):
            coords = " ".join(f"{_px(p.z.real)},{_py(p.z.imag)}" for p in chain)
            color = _BRANCH_COLOR.get(branch, "#000")
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
    for path in args.zeros or []:
        try:
            with open(path) as f:
                data = read_zeros_json(f)
            records = data["records"]
        except (OSError, KeyError, ValueError) as exc:
            print(f"malformed zeros file {path}: {exc}", file=sys.stderr)
            return 2
        for rec in records:
            x, y = _px(rec["re"]), _py(rec["im"])
            if rec.get("near_asymptote"):
                # filtered zeros: open square marker
                parts.append(f'<rect x="{float(x) - 3:.2f}" '
                             f'y="{float(y) - 3:.2f}" width="6" height="6" '
                             f'fill="none" stroke="#ff7f0e" stroke-width="1.2"/>')
            else:
                parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" '
                             f'fill="#000"/>')
    parts.append("</svg>")
    with _open_out(args.out) as f:
        f.write("\n".join(parts))
        f.write("\n")
    return 0


# --------------------------------------------------------------------------
# wiring

def _open_out(path: str):
    """An open text file for writing, or stdout (left open) for path '-'."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlsections",
        description="Sections, tails and zero sets of Mittag-Leffler "
                    "functions of order rho > 1.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("curve", help="sample a curve to CSV")
    pc.add_argument("--rho", type=float, default=2.0)
    pc.add_argument("--which", choices=["szego", "t", "sh"], default="szego")
    pc.add_argument("--samples", type=int, default=256,
                    help="points per branch")
    pc.add_argument("--h", type=float, default=0.2,
                    help="level parameter for --which sh")
    pc.add_argument("--r-max", type=float, default=10.0, dest="r_max")
    pc.add_argument("--out", default="-")
    pc.set_defaults(func=cmd_curve)

    pz = sub.add_parser("zeros", help="locate zeros in a window to JSON")
    pz.add_argument("--rho", type=float, default=2.0)
    pz.add_argument("--n", type=int, required=True)
    pz.add_argument("--lambda", type=parse_lambda, default=0.0, dest="lam")
    pz.add_argument("--window", type=parse_window,
                    default=Window(-1.8, 1.8, -1.8, 1.8))
    pz.add_argument("--tol", type=float, default=1e-10)
    pz.add_argument("--strip-width", type=float, default=None,
                    dest="strip_width")
    pz.add_argument("--out", default="-")
    pz.set_defaults(func=cmd_zeros)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(SUITES))
    pv.add_argument("--rho", type=float, default=2.0)
    pv.add_argument("--lambda", type=parse_lambda, default=None, dest="lam")
    pv.add_argument("--n", type=parse_int_list, default=None, dest="n_list")
    pv.add_argument("--h", type=float, default=None)
    pv.add_argument("--delta2", type=float, default=None)
    pv.add_argument("--delta3", type=float, default=None)
    pv.add_argument("--r", type=parse_float_list, default=None, dest="r_list")
    pv.add_argument("--grid-side", type=int, default=None, dest="grid_side")
    pv.add_argument("--out", default="-")
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("plot", help="render curves and zeros to SVG")
    pp.add_argument("--curve", action="append", default=[],
                    help="curve CSV (repeatable)")
    pp.add_argument("--zeros", action="append", default=[],
                    help="zeros JSON (repeatable)")
    pp.add_argument("--out", default="-")
    pp.set_defaults(func=cmd_plot)
    return ap


def _join_values(argv: list[str]) -> list[str]:
    """Merge '--window -2,0,-1,1' style pairs so argparse does not read the
    leading minus of the value as a new option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--window", "--lambda") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_values(list(argv)))
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, BracketError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
