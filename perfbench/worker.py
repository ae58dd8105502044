"""One workload in a fresh interpreter: repetitions against the library.

Started by run.py, never imported.  Reads the generated inputs from a JSON
file, imports mlsections, makes the first-call lazy set-up happen, then
repeats the workload until --seconds have passed (at least once).  With
--trace 1 it repeats for --seconds more under the span tracer and writes
the spans to --spans.  Results and timings go to the --out JSON file; no
oracle runs here, so the process's peak memory is the library's.

With --probe it only imports and warms up, prints "ready" and exits: the
launcher times that from process start as the set-up time.
"""

from __future__ import annotations

import argparse
import cmath
import json
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import unpair  # noqa: E402


def warm(inputs: dict) -> None:
    """First results: builds the ln Gamma table and the asymptotic
    coefficients for every rho the workload uses."""
    from mlsections.mitlef import MLContext, combo, combo_derivative

    for rho, n, lam in inputs["warm"]:
        ctx = MLContext(rho=rho, n=n, lam=unpair(lam))
        for z in (0.5 + 0.5j, 1.6 * cmath.exp(2.0j)):
            combo(z, ctx)
            combo_derivative(z, ctx)


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def run_locate(inputs: dict, state: dict) -> list:
    import mlsections.zeros as zeros
    from mlsections.mitlef import MLContext

    win = zeros.Window(*inputs["window"])
    out = []
    for call in inputs["calls"]:
        ctx = MLContext(rho=inputs["rho"], n=call["n"], lam=unpair(call["lam"]))
        try:
            out.append(zeros.locate_zeros(ctx, win))
        except Exception as exc:  # a raising call is a counted failure
            out.append(_error(exc))
    return out


def run_roots(inputs: dict, state: dict) -> list:
    import mlsections.zeros as zeros
    from mlsections.mitlef import MLContext

    out = []
    for n in inputs["ns"]:
        try:
            out.append(zeros.poly_zeros(MLContext(rho=inputs["rho"], n=n, lam=0.0)))
        except Exception as exc:
            out.append(_error(exc))
    return out


def run_pointwise(inputs: dict, state: dict) -> dict:
    import mlsections.cli as cli
    import mlsections.mitlef as mitlef

    suites = []
    for label, argv in inputs["suites"]:
        state["tag"](label)
        report = state["workdir"] / f"verify-{label}.json"
        try:
            suites.append(cli.main([*argv, "--out", str(report)]))
        except Exception as exc:
            suites.append(_error(exc))
    state["tag"]("")
    perf = time.perf_counter_ns
    values = []
    lat = state["eval_ns"]
    for it in inputs["sweep"]:
        fn = it["fn"]
        ctx = mitlef.MLContext(rho=it["rho"], n=it["n"], lam=unpair(it["lam"]))
        try:
            if fn == "ml_series":
                arg = unpair(it["w"])
                t0 = perf()
                v = mitlef.ml_series(arg, it["rho"])
            else:
                f = getattr(mitlef, fn)
                arg = unpair(it["z"])
                t0 = perf()
                v = f(arg, ctx)
            lat.append(perf() - t0)
            values.append(v)
        except Exception as exc:
            values.append(_error(exc))
    return {"suites": suites, "values": values}


def to_json(workload: str, raw) -> object:
    """Plain-data form of a repetition's results (outside the timed region)."""
    def zero_set(zs):
        if isinstance(zs, dict):
            return zs
        return {"records": [[r.location.real, r.location.imag, r.certified,
                             r.cluster_count] for r in zs.records],
                "masked": zs.masked_origin_multiplicity,
                "total_winding": zs.total_winding}

    if workload == "locate":
        return [zero_set(zs) for zs in raw]
    if workload == "roots":
        return [zs if isinstance(zs, dict) else
                {"records": [[r.location.real, r.location.imag, r.certified, 1]
                             for r in zs]} for zs in raw]
    return {"suites": [s if isinstance(s, dict) else {"exit": s} for s in raw["suites"]],
            "values": [v if isinstance(v, dict) else [v.log_mag, v.phase]
                       for v in raw["values"]]}


BODIES = {"locate": run_locate, "roots": run_roots, "pointwise": run_pointwise}


def repeat(workload: str, inputs: dict, state: dict, seconds: float,
           variants: dict, warn: Counter) -> list[dict]:
    """Run repetitions for at least `seconds`; return their timings."""
    body = BODIES[workload]
    reps = []
    start = time.perf_counter()
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0 = time.process_time()
            t0 = time.perf_counter()
            raw = body(inputs, state)
            t1 = time.perf_counter()
            c1 = time.process_time()
        warn.update(w.category.__name__ for w in caught)
        reps.append({"wall": t1 - t0, "cpu": c1 - c0})
        key = json.dumps(to_json(workload, raw))
        variants[key] = variants.get(key, 0) + 1
        if t1 - start >= seconds:
            return reps


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    inputs = json.loads(Path(args.inputs).read_text())
    import mlsections  # noqa: F401

    warm(inputs)
    if args.probe:
        print("ready", flush=True)
        return 0

    # tag: labels the suite run in progress for the tracer
    state = {"workdir": Path(args.out).parent, "eval_ns": [], "tag": lambda label: None}
    variants: dict[str, int] = {}
    warn: Counter = Counter()
    reps = repeat(args.workload, inputs, state, args.seconds, variants, warn)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    eval_ns = state["eval_ns"]
    result = {"reps": reps, "maxrss_kb": maxrss_kb, "eval_ns": eval_ns}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        state["eval_ns"] = []
        state["tag"] = lambda label: setattr(tracer, "tag", label)
        tracer.install()
        try:
            traced = repeat(args.workload, inputs, state, args.seconds, variants, warn)
        finally:
            tracer.uninstall()
        result["traced_reps"] = traced
        result["per_layer"] = tracer.per_layer(
            len(traced), sum(r["wall"] for r in traced),
            statistics.median(r["wall"] for r in reps) * len(traced))
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    result["variants"] = [[json.loads(k), c] for k, c in variants.items()]
    result["warnings"] = dict(warn)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
