"""Span tracing around the library's public functions, from outside.

Tracer.install() replaces every module-level binding of each public
function of specfun, scaled, mitlef, curves, zeros and verify (and
cli.main) with a wrapper that records one span per call: id, parent id,
name, start, end, and a few call facts (points evaluated, derivative
flag, exception raised).  Modules import each other's functions by name,
so each module's own binding is patched, and the suite table that the
CLI dispatches through as well.  Spans stay in memory; per_layer()
reduces them to the per-layer metrics.

Calls made inside one module through a private helper are not visible:
a layer's time is the time its public entry points were on the stack.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("specfun", "scaled", "mitlef", "curves", "zeros", "verify", "cli")
# the CLI's own commands stay inside cli.main, whose self time is argument
# parsing and report export
CLI_TRACED = ("main",)

ID, PARENT, NAME, T0, T1, POINTS, DERIV, ERR, TAG = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.points: dict[int, np.ndarray] = {}  # combo_batch span -> its points
        self.tag = ""  # label of the suite run in progress
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        is_batch = name == "mitlef.combo_batch"
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, 0, False, "", self.tag]
            spans.append(span)
            if is_batch:
                pts = np.asarray(args[0], dtype=complex).ravel()
                span[POINTS] = pts.size
                span[DERIV] = bool(args[2] if len(args) > 2 else kwargs.get("deriv", False))
                self.points[sid] = pts
            stack.append(sid)
            span[T0] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERR] = type(exc).__name__
                raise
            finally:
                span[T1] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"mlsections.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            names = CLI_TRACED if short == "cli" else getattr(
                mod, "__all__", [k for k in vars(mod) if not k.startswith("_")])
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        holders = list(mods.values()) + [importlib.import_module("mlsections")]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        suites = mods["verify"].SUITES  # the CLI dispatches through this table
        for key, val in list(suites.items()):
            if id(val) in wrapped:
                self._patched.append((suites, key, val))
                suites[key] = wrapped[id(val)]

    def uninstall(self) -> None:
        for holder, attr, val in reversed(self._patched):
            if isinstance(holder, dict):
                holder[attr] = val
            else:
                setattr(holder, attr, val)
        self._patched.clear()

    # --- reduction ------------------------------------------------------------

    def per_layer(self, reps: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics, per repetition (totals divided by reps)."""
        spans = self.spans
        dur = [s[T1] - s[T0] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d

        def ancestors(s):
            p = s[PARENT]
            while p >= 0:
                yield spans[p]
                p = spans[p][PARENT]

        def module(s):
            return s[NAME].split(".", 1)[0]

        def outermost(pred):
            """Spans matching pred with no matching ancestor."""
            return [s for s in spans if pred(s) and not any(pred(a) for a in ancestors(s))]

        def total(ss):
            return sum(dur[s[ID]] for s in ss)

        def self_time(ss):
            return sum(dur[s[ID]] - child[s[ID]] for s in ss)

        def named(name):
            return lambda s: s[NAME] == name

        m: dict[str, float] = {}
        per = 1.0 / reps

        def put(name, value):
            m[name] = float(value) * per

        for fn in ("ln_gamma_arr", "ln_gamma", "erfc"):
            ss = outermost(named(f"specfun.{fn}"))
            put(f"specfun.{fn}.calls", len(ss))
            put(f"specfun.{fn}.s", total(ss))
        for layer in ("scaled", "curves"):
            ss = outermost(lambda s, layer=layer: module(s) == layer)
            put(f"{layer}.calls", len(ss))
            put(f"{layer}.s", total(ss))

        batch = [s for s in spans if s[NAME] == "mitlef.combo_batch"]
        wide = [s for s in batch if s[POINTS] > 1]
        one = [s for s in batch if s[POINTS] <= 1]
        put("mitlef.combo_batch.batch.calls", len(wide))
        put("mitlef.combo_batch.batch.points", sum(s[POINTS] for s in wide))
        put("mitlef.combo_batch.batch.s", total(wide))
        m["mitlef.combo_batch.batch.points_per_s"] = _ratio(
            sum(s[POINTS] for s in wide), total(wide))
        m["mitlef.combo_batch.batch.share"] = _ratio(total(wide), traced_wall)
        put("mitlef.combo_batch.scalar.calls", len(one))
        put("mitlef.combo_batch.scalar.s", total(one))
        m["mitlef.combo_batch.scalar.us_per_call"] = 1e6 * _ratio(total(one), len(one))
        m["mitlef.combo_batch.deriv_share"] = _ratio(
            total([s for s in batch if s[DERIV]]), total(batch))
        for fn in ("ml_series", "section", "tail", "combo_normalized"):
            put(f"mitlef.{fn}.s", total(outermost(named(f"mitlef.{fn}"))))

        locs = outermost(named("zeros.locate_zeros"))
        put("zeros.locate_zeros.s", total(locs))
        put("zeros.locate_zeros.self_s", self_time(locs))
        wind = outermost(named("zeros.winding_number"))
        put("zeros.winding_number.calls", len(wind))
        put("zeros.winding_number.s", total(wind))
        put("zeros.winding_number.self_s", self_time(wind))
        wind_ids = {s[ID] for s in wind}
        under_wind = [s for s in batch if any(a[ID] in wind_ids for a in ancestors(s))]
        wind_points = sum(s[POINTS] for s in under_wind)
        put("zeros.winding_number.points", wind_points)
        m["zeros.winding_number.points_per_call"] = _ratio(wind_points, len(wind))
        put("zeros.winding_number.errors",
            sum(1 for s in spans if s[NAME] == "zeros.winding_number"
                and s[ERR] == "BoundaryZeroError"))

        # distinct / evaluated points over the combo_batch calls of each
        # locate_zeros call (a point evaluated for I and for I' counts twice)
        evaluated = distinct = 0
        for loc in locs:
            groups = defaultdict(list)
            for s in batch:
                if any(a[ID] == loc[ID] for a in ancestors(s)):
                    groups[s[DERIV]].append(self.points[s[ID]])
            for arrs in groups.values():
                allp = np.concatenate(arrs)
                evaluated += allp.size
                distinct += np.unique(allp).size
        m["zeros.eval.distinct_ratio"] = _ratio(distinct, evaluated)

        solvers = {s[ID] for s in spans
                   if s[NAME] in ("zeros.locate_zeros", "zeros.poly_zeros")}
        polish = [s for s in one
                  if not any(a[ID] in wind_ids for a in ancestors(s))
                  and any(a[ID] in solvers for a in ancestors(s))]
        put("zeros.polish.calls", len(polish))
        put("zeros.polish.s", total(polish))
        polys = outermost(named("zeros.poly_zeros"))
        put("zeros.poly_zeros.self_s", self_time(polys))
        poly_ids = {s[ID] for s in polys}
        poly_work = [s for s in polish + wind
                     if any(a[ID] in poly_ids for a in ancestors(s))]
        m["zeros.poly_zeros.polish_cert_share"] = _ratio(total(poly_work), traced_wall)

        suites = defaultdict(float)
        for s in outermost(lambda s: s[NAME].startswith("verify.suite_")):
            suites[s[TAG]] += dur[s[ID]]
        for tag, secs in suites.items():
            put(f"verify.suite_{tag}.s", secs)
        mains = outermost(named("cli.main"))
        put("cli.main.calls", len(mains))
        put("cli.main.self_s", self_time(mains))

        put("trace.spans", len(spans))
        m["trace.wall_s"] = traced_wall * per
        m["trace.overhead_s"] = (traced_wall - untraced_wall) * per
        m["trace.overhead_share"] = _ratio(traced_wall - untraced_wall, untraced_wall)
        return m


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0
