"""nccalc benchmark: drives the CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/nccalc``).  One
client runs a closed loop: the workload's job list is run pass after
pass, one job at a time, while the next pass is predicted to end within
``--seconds`` (at least one pass; two with tracing).  Every output is
checked.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Generated inputs live in ``.perfbench_work/`` and are removed at exit;
per-job digests, timings and spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import inputs as I
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 15
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nccalc.cli
from nccalc.rulefile import load_rule
for path in sys.argv[2:]:
    load_rule(path)
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, or a broken set-up)."""


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "nccalc", "cli.py")):
        raise BenchmarkError(f"no nccalc sources under {SRC}")
    sys.path.insert(0, SRC)
    import nccalc.cli
    if not os.path.abspath(nccalc.cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported nccalc from {nccalc.cli.__file__}, not {SRC}")
    return nccalc.cli.main


def measure_setup(rule_files):
    """Median seconds, over fresh interpreters, to import nccalc.cli and
    load every rule file of the workload, scaled like job times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, *rule_files],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed: {done.stderr.strip()}")
        kernel = (before + kernel_seconds()) / 2
        times.append(float(done.stdout.strip()) * KERNEL_NOMINAL_S / kernel)
    return statistics.median(times), times


# ---- machine speed ----
#
# On a shared host the same job's time drifts by +-20% over tens of
# seconds, in step with every other pure-Python computation.  A fixed
# kernel, timed around every CLI call, tracks that drift (correlation 0.97
# in 10 s windows), so each call's time is scaled to the speed at which the
# kernel takes KERNEL_NOMINAL_S.  Raw times are kept in the results file.

KERNEL_NOMINAL_S = 0.0025
_KERNEL_RULE = I.family_rule("II", v=(1, 0), v1=(0, 1), lam=1, mu=2)
_KERNEL_POLY = I.parse_poly("(x1 + 2*x2)^5", 2)
_KERNEL_MATRIX = [[Fraction((7 * i + 13 * j + i * j) % 11 - 5, 1 + (i + j) % 3)
                   for j in range(8)] for i in range(8)]


def _kernel():
    """Fraction elimination and dict-polynomial arithmetic, the two kinds
    of work nccalc does, on fixed inputs independent of nccalc."""
    m = [row[:] for row in _KERNEL_MATRIX]
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    I.twisted_partials(_KERNEL_RULE, _KERNEL_POLY)


def kernel_seconds():
    """Seconds the fixed kernel takes now (median of three runs)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---- running jobs ----

def run_job(main, job):
    """Run a job's CLI calls.  Returns exit codes, stdout texts, stderr,
    and raw and scaled seconds per call; each call is scaled by the mean
    of the kernel timings just before and just after it."""
    codes, outs, errs, raw, scaled = [], [], [], [], []
    before = kernel_seconds()
    for argv in job.argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main(list(argv)))
        seconds = perf_counter() - t0
        after = kernel_seconds()
        raw.append(seconds)
        scaled.append(seconds * KERNEL_NOMINAL_S / ((before + after) / 2))
        before = after
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    return codes, outs, "".join(errs), raw, scaled


def run_pass(main, jobs, tracer=None):
    runs = []
    start = perf_counter()
    for job in jobs:
        raw = scaled = None
        try:
            if tracer is None:
                codes, outs, err, raw, scaled = run_job(main, job)
            else:
                codes, outs, err, raw, scaled = tracer.call(f"job.{job.kind}", run_job, main, job)
            error = None if all(c == 0 for c in codes) else f"exit codes {codes}: {err.strip()}"
            if job.out_file and error is None:
                with open(job.out_file, encoding="utf-8") as fh:
                    outs[-1] += fh.read()
        except Exception:  # a crashing job is a failed job; the run goes on
            outs, error = None, traceback.format_exc(limit=4)
        digest = None if outs is None else hashlib.sha256(
            "\0".join(outs).encode("utf-8")).hexdigest()
        runs.append({"job": job.name, "seconds": sum(scaled or [0.0]),
                     "raw_seconds": sum(raw or [0.0]), "calls": raw,
                     "digest": digest, "error": error, "outs": outs})
    return perf_counter() - start, runs


def measure(main, jobs, seconds, trace):
    """Closed loop over whole passes; with tracing, passes alternate
    untraced and traced (untraced first)."""
    passes = []
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    begin = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer:
                wall, runs = run_pass(main, jobs, tracer)
        else:
            wall, runs = run_pass(main, jobs)
        passes.append({"traced": traced, "wall_s": wall, "runs": runs})
        elapsed = perf_counter() - begin
        if len(passes) >= (2 if trace else 1) and \
                elapsed + max(p["wall_s"] for p in passes) > seconds:
            return passes, tracer


# ---- verification ----

def verify(jobs, passes):
    """Marks every job run ok or not; returns per-job reports.

    A run fails if it crashed or exited nonzero, if its output differs
    from the job's first run (traced or not), or if the job's first
    output fails the job's check.
    """
    reports = {}
    first = {}
    for p in passes:
        for run in p["runs"]:
            if run["error"] is None and run["job"] not in first:
                first[run["job"]] = run
    for job in jobs:
        ref = first.get(job.name)
        reason = None
        if ref is None:
            reason = "no run succeeded"
        else:
            try:
                job.check(ref["outs"])
            except (W.OutputMismatch, ValueError, TypeError, KeyError, IndexError) as e:
                reason = f"{type(e).__name__}: {e}"
        reports[job.name] = {"kind": job.kind, "argvs": job.argvs, "check": reason,
                             "digest": None if ref is None else ref["digest"]}
    for p in passes:
        for run in p["runs"]:
            rep = reports[run["job"]]
            if run["error"] is not None:
                run["ok"] = False
            elif run["digest"] != rep["digest"]:
                run["ok"], run["error"] = False, "output differs from the job's first run"
            else:
                run["ok"] = rep["check"] is None
    return reports


# ---- metrics ----

def job_medians(passes):
    """Each job's median seconds over the passes (robust to a pass that a
    noisy neighbour slowed)."""
    per_job = {}
    for p in passes:
        for r in p["runs"]:
            per_job.setdefault(r["job"], []).append(r["seconds"])
    return [statistics.median(v) for v in per_job.values()]


def job_list_seconds(passes):
    """Time to finish the job list once."""
    return sum(job_medians(passes))


def end_to_end(passes, setup_s):
    return {
        "wall_s": job_list_seconds(passes),
        "job_p50_s": statistics.median(job_medians(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def layer_unit(name):
    """A per-layer metric's unit, from its name."""
    if name.endswith("_per_job"):
        return "count/job"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".busy_s.Q", ".busy_s.Fp")):
        return "s"
    return "count"


def per_layer(tracer, passes):
    traced = job_list_seconds(p for p in passes if p["traced"])
    plain = job_list_seconds(p for p in passes if not p["traced"])
    k = sum(1 for p in passes if p["traced"])
    agg = tracer.aggregate()
    spans, names = tracer.spans, tracer.names

    # span times are raw; scale them like the traced job times
    traced_runs = [r for p in passes if p["traced"] for r in p["runs"]]
    scale = (sum(r["seconds"] for r in traced_runs)
             / sum(r["raw_seconds"] for r in traced_runs)) / k

    def stat(name, key):
        value = agg.get(name, {}).get(key, 0)
        return value / k if key == "calls" else value * scale

    rref = [(info, spans[idx]) for idx, info in tracer.rref_info.items()]
    nonzero_rows = sum(info[2] for info, _ in rref)
    by_name = {n: i for i, n in enumerate(names)}
    classify_roots = {i for i, rec in enumerate(spans)
                      if rec[3] < 0 and names[rec[0]] == "job.classify2"}
    oi = by_name.get("optimal.optimal_ideal")
    oi_in_classify = sum(1 for rec in spans if rec[0] == oi and rec[4] in classify_roots)

    def dur(recs):
        return sum(rec[2] - rec[1] for rec in recs) * scale

    m = {
        "trace.wall_s": traced,
        "trace.overhead_s": traced - plain,
        "linalg.rref.calls": stat("linalg.rref", "calls"),
        "linalg.rref.busy_s.Q": dur(r for i, r in rref if i[0] == "Q"),
        "linalg.rref.busy_s.Fp": dur(r for i, r in rref if i[0] == "Fp"),
        "linalg.rref.cells": sum(i[1] for i, _ in rref) / k,
        "linalg.rref.rank_ratio":
            sum(i[3] for i, _ in rref) / nonzero_rows if nonzero_rows else 0.0,
        "linalg.nullspace.self_s": stat("linalg.nullspace", "self_s"),
        "linalg.preimage.self_s": stat("linalg.preimage", "self_s"),
        "optimal.largest_invariant.self_s": stat("optimal.largest_invariant", "self_s"),
        "optimal.largest_invariant.rounds":
            len(tracer.children_of("linalg.Subspace.basis_polys", "optimal.largest_invariant")) / k,
        "linalg.Subspace.reduce.calls": stat("linalg.Subspace.reduce", "calls"),
        "linalg.Subspace.reduce.busy_s": stat("linalg.Subspace.reduce", "busy_s"),
        "commrule.CommRule.apply.calls": stat("commrule.CommRule.apply", "calls"),
        "commrule.CommRule.apply.busy_s": stat("commrule.CommRule.apply", "busy_s"),
        "optimal.ideal_check.busy_s":
            dur(tracer.children_of("linalg.Subspace.contains", "optimal.optimal_ideal")),
        "optimal.compute_U.self_s": stat("optimal.compute_U", "self_s"),
        "optimal.optimal_ideal.calls": stat("optimal.optimal_ideal", "calls"),
        "optimal.optimal_ideal.busy_s": stat("optimal.optimal_ideal", "busy_s"),
        "linalg.Subspace.from_vectors.busy_s":
            stat("linalg.Subspace.from_vectors", "busy_s"),
        "calculus.word_partials.calls": stat("calculus.word_partials", "calls"),
        "calculus.word_partials.self_s": stat("calculus.word_partials", "self_s"),
        "calculus.partial.busy_s": stat("calculus.partial", "busy_s"),
        "freealg.NCPoly.__mul__.calls": stat("freealg.NCPoly.__mul__", "calls"),
        "freealg.NCPoly.__mul__.self_s": stat("freealg.NCPoly.__mul__", "self_s"),
        "freealg.NCPoly.__add__.calls": stat("freealg.NCPoly.__add__", "calls"),
        "freealg.NCPoly.__add__.self_s": stat("freealg.NCPoly.__add__", "self_s"),
        "freealg.format_poly.busy_s": stat("freealg.format_poly", "busy_s"),
        "optimal.check_consistent_ideal.busy_s":
            stat("optimal.check_consistent_ideal", "busy_s"),
        "optimal.ideal_component.busy_s": stat("optimal.ideal_component", "busy_s"),
        "linalg.Subspace.contains.calls": stat("linalg.Subspace.contains", "calls"),
        "linalg.Subspace.contains.busy_s": stat("linalg.Subspace.contains", "busy_s"),
        "classify2.match_family.busy_s": stat("classify2.match_family", "busy_s"),
        "classify2.optimal_ideal_per_job":
            oi_in_classify / len(classify_roots) if classify_roots else 0.0,
        "rulefile.load_rule.busy_s": stat("rulefile.load_rule", "busy_s"),
        "parsing.parse_expr.busy_s": stat("parsing.parse_expr", "busy_s"),
    }
    return m


# ---- entry point ----

def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


def run(workload, seed, seconds, trace):
    main = import_cli()
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = W.build(workload, seed, workdir)
        setup_s, setup_times = measure_setup(wl.rule_files)
        passes, tracer = measure(main, wl.jobs, seconds, trace)
        metrics = None if trace else end_to_end(passes, setup_s)
        reports = verify(wl.jobs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = per_layer(tracer, passes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    runs = [r for p in passes for r in p["runs"]]
    failed = sum(1 for r in runs if not r["ok"])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": environment(), "setup_s_samples": setup_times,
        "jobs": reports,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "runs": [{k: r[k] for k in ("job", "seconds", "raw_seconds", "calls",
                                                "digest", "ok", "error")}
                             for r in p["runs"]]} for p in passes],
        "fail_ratio": failed / len(runs), "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    for name, rep in reports.items():
        if rep["check"]:
            print(f"FAILED {name}: {rep['check']}")
    for r in runs:
        if r["error"]:
            print(f"FAILED {r['job']}: {r['error'].strip().splitlines()[-1]}")
    print(f"{workload} seed={seed} passes={len(passes)} jobs/pass={len(wl.jobs)} "
          f"attempted={len(runs)} failed={failed} fail_ratio={failed / len(runs):.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its generated inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
