"""Benchmark launcher for mlsections.

    python3 perfbench/run.py --workload locate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Run from the repository root.  For each workload it builds the inputs from
the seed, runs the workload in a fresh interpreter (perfbench/worker.py,
threads pinned to one), times the set-up in further fresh interpreters,
then checks every result against the mpmath oracle (perfbench/oracle.py)
and prints a report.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

attempted/failed count each operation of the seed's inputs once, however
many repetitions ran (every repetition runs the same operations; if their
outputs differ, the output with the most failures is counted):
  locate     each call, and each returned record: a call fails if it raises
             or if sum(cluster_count) + masked multiplicity != total_winding;
             a record fails if uncertified, if its oracle Newton distance
             exceeds 1e-8, or (real lam) if it has no conjugate partner;
  roots      each of the n expected roots of each call: the shortfall of
             distinct, certified, oracle-confirmed roots below n fails;
  pointwise  each suite report (fails if it raises or its verdict is false)
             and each sweep evaluation (fails if it raises or its error
             exceeds 1e-10 max(|s_n(w)|, |lam E(w)|)).
correct is false when a result contradicts the library's own certificate:
a zero it certified that lies farther than 1e-6 from any zero by the
oracle's Newton distance, or a zero set whose records do not add up to its
winding number.  Everything else the oracle finds wrong
(uncertified or missing roots, a false verdict, an inaccurate value) is a
failure counted in failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

PROBES = 5           # fresh interpreters timed for setup_s
RUN_LIMIT_S = 170.0  # whole run, set-up and oracle included
ZERO_TOL = 1e-8      # oracle Newton distance that confirms a zero
CERT_TOL = 1e-6      # a certified zero this far from any zero is a false claim
EVAL_TOL = 1e-10     # sweep error, relative to the scale of the parts
ERR_FLOOR = 1e-18    # errors below this are reported as this, for log10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


# --- running the worker -------------------------------------------------------


def run_worker(workload: str, inputs_path: Path, out_path: Path, seconds: float,
               trace: int, spans_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs_path), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out_path), "--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(out_path.read_text())


def time_setup(workload: str, inputs_path: Path, timeout: float) -> list[float]:
    """Seconds from starting a fresh interpreter to its first result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs_path), "--probe"]
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{err[-2000:]}")
        times.append(t1 - t0)
    return times


# --- result checks --------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.causes: dict[str, int] = {}
        self.errors: list[float] = []  # oracle distances or relative errors
        self.confirmed = 0             # oracle-confirmed zeros

    def fail(self, cause: str, count: int = 1) -> None:
        self.failed += count
        self.causes[cause] = self.causes.get(cause, 0) + count


def _near(a: complex, b: complex) -> bool:
    return abs(a - b) <= ZERO_TOL * max(1.0, abs(a))


def check_locate(inputs, out, oracle, t: Tally) -> None:
    rho = inputs["rho"]
    for call, zs in zip(inputs["calls"], out):
        n, lam = call["n"], complex(*call["lam"])
        t.attempted += 1
        if "error" in zs:
            t.fail(f"locate lam={lam:g}: raised")
            continue
        recs = zs["records"]
        t.attempted += len(recs)
        if sum(r[3] for r in recs) + zs["masked"] != zs["total_winding"]:
            t.fail(f"locate lam={lam:g}: winding count")
            t.incorrect.append(f"locate lam={lam:g}: records do not add up to the winding")
        locs = [complex(r[0], r[1]) for r in recs]
        for (_re, _im, cert, cluster), z in zip(recs, locs):
            d = oracle.newton_distance(rho, n, lam, z) if cluster == 1 else math.inf
            t.errors.append(d)
            if not cert or cluster != 1:
                t.fail(f"locate lam={lam:g}: uncertified")
            elif d > ZERO_TOL:
                t.fail(f"locate lam={lam:g}: not a zero")
                if d > CERT_TOL:
                    t.incorrect.append(f"locate lam={lam:g}: certified {z}"
                                       f" has Newton distance {d:.2e}")
            elif lam.imag == 0 and not any(_near(z.conjugate(), w) for w in locs):
                t.fail(f"locate lam={lam:g}: no conjugate")
            else:
                t.confirmed += 1


def check_roots(inputs, out, oracle, t: Tally) -> None:
    rho = inputs["rho"]
    for n, zs in zip(inputs["ns"], out):
        t.attempted += n
        if "error" in zs:
            t.fail(f"roots n={n}: raised", n)
            continue
        good: list[complex] = []
        for re_, im_, cert, _ in zs["records"]:
            z = complex(re_, im_)
            d = oracle.newton_distance(rho, n, 0j, z)
            t.errors.append(d)
            if not cert:
                continue
            if d > CERT_TOL:
                t.incorrect.append(f"roots n={n}: certified {z} has Newton distance {d:.2e}")
            if d > ZERO_TOL:
                continue
            if not any(_near(z, g) for g in good):
                good.append(z)
        if len(good) < n:
            t.fail(f"roots n={n}: missing", n - len(good))
        t.confirmed += len(good)


def check_pointwise(inputs, out, oracle, t: Tally) -> None:
    for (label, _argv), res in zip(inputs["suites"], out["suites"]):
        t.attempted += 1
        if "error" in res or res["exit"] != 0:
            t.fail(f"suite {label}: {'raised' if 'error' in res else 'verdict false'}")
    for item, val in zip(inputs["sweep"], out["values"]):
        t.attempted += 1
        if isinstance(val, dict):
            t.fail(f"sweep {item['fn']}: raised")
            continue
        err = oracle.error(item, val)
        t.errors.append(err)
        if not err <= EVAL_TOL:
            t.fail(f"sweep {item['fn']} rho={item['rho']} n={item['n']}"
                   f" {item['region']}: error")


CHECKS = {"locate": check_locate, "roots": check_roots, "pointwise": check_pointwise}


# --- one workload -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    from oracle import Oracle  # loads tools/gen_goldens.py, so only after the layout check

    inputs = make_inputs(workload, seed)
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        # the traced run's spans outlive the run, for inspection
        spans = HERE / ".work" / f"spans-{workload}-{seed}.json"
        res = run_worker(workload, inputs_path, work / "result.json", seconds, trace,
                         spans, timeout=deadline - time.monotonic())
        setup = time_setup(workload, inputs_path, timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every repetition runs the same operations, so each is counted once,
    # whatever the number of repetitions; if repetitions disagree, the
    # output with the most failures is the one counted.
    oracle = Oracle(f"{workload}-{seed}")
    tallies = []
    try:
        for out, _count in res["variants"]:
            tallies.append(Tally())
            CHECKS[workload](inputs, out, oracle, tallies[-1])
    finally:
        oracle.save()
    tally = max(tallies, key=lambda t: (len(t.incorrect), t.failed))
    return {"workload": workload, "seed": seed, "inputs": inputs, "res": res,
            "setup": setup, "tally": tally}


def end_to_end(r: dict) -> dict:
    """Every end-to-end metric, gated or not, by name: (value, unit)."""
    res, t = r["res"], r["tally"]
    walls = [x["wall"] for x in res["reps"]]
    wall = statistics.median(walls)
    m = {
        "setup_s": (statistics.median(r["setup"]), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(x["cpu"] for x in res["reps"]), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MiB"),
        "failed_share": (t.failed / t.attempted, "ratio"),
    }
    errs = sorted(max(e, ERR_FLOOR) for e in t.errors)
    if r["workload"] in ("locate", "roots"):
        m["zeros_per_s"] = (t.confirmed / wall, "1/s")
        m["zero_err_log10"] = (math.log10(errs[-1]) if errs else math.nan, "log10")
    else:
        lat = sorted(ns / 1000.0 for ns in res["eval_ns"])
        m["eval_us.p50"] = (percentile(lat, 0.50), "us")
        m["eval_us.p99"] = (percentile(lat, 0.99), "us")
        m["eval_err_log10.p50"] = (math.log10(percentile(errs, 0.50)), "log10")
        m["eval_err_log10.max"] = (math.log10(errs[-1]), "log10")
    return m


def describe(r: dict) -> list[str]:
    res, t, inp = r["res"], r["tally"], r["inputs"]
    w = r["workload"]
    if w == "locate":
        what = "locate_zeros rho=2, n={}, lam in {}".format(
            inp["calls"][0]["n"], ", ".join(f"{complex(*c['lam']):.4g}" for c in inp["calls"]))
    elif w == "roots":
        what = f"poly_zeros rho=2, n in {inp['ns']}"
    else:
        what = f"{len(inp['suites'])} suites + {len(inp['sweep'])} one-point evaluations"
    walls = [x["wall"] for x in res["reps"]]
    q1, q2, q3 = quartiles(walls)
    s1, s2, s3 = quartiles(r["setup"])
    lines = [f"[{w}] seed={r['seed']} {what}",
             f"  nproc={os.cpu_count()} threads=1 repetitions={len(walls)}"
             f" wall quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s;"
             f" setup quartiles {s1:.4f} / {s2:.4f} / {s3:.4f} s"
             f" over {len(r['setup'])} interpreters"]
    for name, (val, unit) in end_to_end(r).items():
        extra = ""
        if name == "failed_share":
            extra = f"  ({t.failed} of {t.attempted} operations)"
        elif name.startswith("eval_us"):
            extra = f"  ({len(res['eval_ns'])} evaluations)"
        elif name.startswith(("eval_err", "zero_err")):
            extra = f"  ({len(t.errors)} checked)"
        lines.append(f"  {name:<20} {val:>14.6g} {unit}{extra}")
    for cause, count in sorted(t.causes.items()):
        lines.append(f"  failed: {cause} x{count}")
    for msg in t.incorrect[:10]:
        lines.append(f"  INCORRECT: {msg}")
    if len(res["variants"]) > 1:
        lines.append(f"  repetitions gave {len(res['variants'])} different outputs")
    if res["warnings"]:
        lines.append(f"  warnings: {res['warnings']}")
    if "per_layer" in res:
        pl = res["per_layer"]
        lines.append(f"  traced: {len(res['traced_reps'])} repetitions,"
                     f" overhead {pl['trace.overhead_s']:.4f} s"
                     f" ({100 * pl['trace.overhead_share']:.1f}%)")
        if w == "locate":
            lines.append(f"  batched combo_batch share of traced time:"
                         f" {100 * pl['mitlef.combo_batch.batch.share']:.1f}% (expected >= 90%)")
        elif w == "roots":
            share = pl["zeros.poly_zeros.polish_cert_share"]
            lines.append(f"  polish + certification share of traced time:"
                         f" {100 * share:.1f}% (expected > 50%)")
        for name in sorted(pl):
            lines.append(f"    {name:<44} {pl[name]:.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    for need in (ROOT / "src" / "mlsections" / "__init__.py",
                 ROOT / "tools" / "gen_goldens.py", ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"benchmark: {need.relative_to(ROOT)} not found; run from a"
                  " checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = RUN_LIMIT_S * (len(names) if args.workload == "all" else 1)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        deadline=start + budget))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3

    metrics = {}
    for r in results:
        for line in describe(r):
            print(line)
        if args.trace:
            values = {k: (v, None) for k, v in r["res"]["per_layer"].items()}
        else:
            values = end_to_end(r)
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {
                "value": values.get(m["name"], (0.0,))[0], "unit": m["unit"]}
    tallies = [r["tally"] for r in results]
    print(json.dumps({
        "correct": not any(t.incorrect for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
