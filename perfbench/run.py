"""interpolab benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The inputs of the workload are
generated from the seed before anything is timed.  Each pass runs every
op of the workload once, in-process through interpolab.cli.main, in a
fresh single-threaded interpreter (BLAS/OpenMP capped at one thread), so
the program's caches start empty in every pass; passes repeat while the
time budget lasts (at least three).  Each op's wall time is scaled to
reference-host seconds by a calibration kernel timed around it
(calibration.py), and times are medians per op over the run's passes:
pass_s is the sum over ops of each op's median, and the op_s
percentiles are taken over those medians.
Every op's output is checked: exit code, verification window and
stability for `verify`, and for `norm` the value against an independent
reference (reference.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
traced passes alternately and prints the per-layer metrics of the traced
ones with the tracing overhead.  The last stdout line is the result
JSON; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from calibration import REF_KERNEL_S, kernel_s, scaled  # noqa: E402
from tracing import self_times  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_PROBES = 10       # extra set-up samples besides the pass workers
MIN_PASSES = 3          # untraced passes per --trace 0 run, budget or not
DEADLINE_S = 170.0      # a run must end well inside 180 s
NORM_KINDS = ("x0", "x1", "theta", "L", "R", "LL", "RR", "intersection",
              "app")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, work, deadline):
    """Run a worker to the end.

    Returns its set-up time and the kernel times of the pass, all timed
    here: set-up in reference-host seconds, scaled by kernels timed
    before the spawn and after the end, and one kernel time per
    "kernel" line of the worker, which waits meanwhile.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), ROOT] + args
    err_path = os.path.join(work, "worker.err")
    k0 = kernel_s(work)
    t0 = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err,
                                text=True, env=_child_env(), cwd=ROOT)
    # a worker that outlives the deadline is killed; its pipe then closes
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    kernel = []
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        for msg in proc.stdout:
            if msg.strip() != "kernel":
                break
            kernel.append(kernel_s(work))
            proc.stdin.write("\n")
            proc.stdin.flush()
        proc.stdin.close()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        with open(err_path) as fh:
            raise BenchError(f"worker failed ({proc.returncode}): "
                             f"{fh.read()[-2000:]}")
    return float(scaled([setup], [k0, kernel_s(work)])[0]), kernel


def _references(ops, deadline):
    """Reference norm per op key, filled from a cache by reference.py."""
    cache = os.path.join(ROOT, ".bench_work", "refcache.json")
    have = {}
    if os.path.exists(cache):
        with open(cache) as fh:
            have = json.load(fh)
    todo, seen = [], set()
    for op in ops:
        c = op["check"]
        if c["kind"] == "norm" and c["ref"] not in have \
                and c["ref"] not in seen:
            seen.add(c["ref"])
            todo.append([c["ref"], c["desc"], c["fn"]])
    if todo:
        req = os.path.join(ROOT, ".bench_work", f"refreq-{os.getpid()}.json")
        with open(req, "w") as fh:
            json.dump(todo, fh)
        try:
            script = os.path.join(BENCH, "reference.py")
            subprocess.run([sys.executable, script, req, cache],
                           check=True, env=_child_env(),
                           timeout=max(1.0, deadline - time.monotonic()),
                           stdout=subprocess.DEVNULL)
        finally:
            os.remove(req)
        with open(cache) as fh:
            have = json.load(fh)
    return {k: (math.inf if v == "inf" else float(v)) for k, v in have.items()}


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def check_op(op, res, work, refs):
    """(ok, reason, window, stability, relerr) for one op outcome."""
    c = op["check"]
    if res["exc"] is not None:
        return False, "exception: " + res["exc"], None, None, None
    rc = res["rc"]
    if c["kind"] == "verify":
        files = glob.glob(os.path.join(work, "out", op["id"], "*.json"))
        if len(files) != 1:
            return False, f"exit {rc}, {len(files)} report files", \
                None, None, None
        with open(files[0]) as fh:
            agg = json.load(fh)
        win = max(agg["windows"].values(), default=math.inf)
        stab = agg["stability"]
        if rc != 0:
            return False, f"exit {rc}", win, stab, None
        if not (win <= workloads.WINDOW_MAX and
                stab <= workloads.STABILITY_MAX):
            return False, f"window {win} stability {stab}", win, stab, None
        return True, "", win, stab, None
    ref = refs[c["ref"]]
    if rc not in (0, 2):
        return False, f"exit {rc}", None, None, None
    if math.isinf(ref):
        if rc == 2:
            return True, "", None, None, None
        return False, "reported finite, reference divergent", \
            None, None, None
    if rc == 2:
        return False, "reported divergent/inadmissible, reference " \
            f"{ref!r}", None, None, None
    try:
        value = float(res["stdout"][-1])
    except (IndexError, ValueError):
        return False, "no value printed", None, None, None
    relerr = abs(value / ref - 1.0)
    if not relerr <= workloads.NORM_RTOL:
        return False, f"value {value!r} vs reference {ref!r}", \
            None, None, relerr
    return True, "", None, None, relerr


# ---------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------

LAYER_SUMS = {
    # metric prefix -> span names whose calls / self time it sums
    "corpus.sample": ("corpus.sample",),
    "grid.edge_divergent": ("grid.edge_divergent",),
    "grid.log_norm": ("grid.log_norm_lower", "grid.log_norm_upper",
                      "grid.log_norm_between"),
    "grid.lebesgue_prefix": ("grid.lebesgue_prefix",),
    # weight evaluation below the memo is part of the sv layer
    "sv.sv_log_on_grid": ("sv.sv_log_on_grid", "sv.sv_log_eval"),
    "spaces.check_admissible": ("spaces.check_admissible",),
    "spaces.space_from_obj": ("spaces.space_from_obj",),
    "kfun.k_peetre": ("kfun.k_peetre",),
    "kfun.oracle.k_at_log": ("kfun.oracle.k_at_log",),
    "kfun.oracle.profile": ("kfun.oracle.profile",),
    "holmstedt.holmstedt_rhs": ("holmstedt.holmstedt_rhs",),
    "holmstedt.verify_holmstedt": ("holmstedt.verify_holmstedt",),
    "reiteration.reiterate": ("reiteration.reiterate",),
    "reiteration.verify_reiteration": ("reiteration.verify_reiteration",),
    "applications.norm_app": ("applications.norm_app",),
    "applications.verify_identity": ("applications.verify_identity",),
    "report.write": ("report.write",),
    # the cli layer: parsing, descriptor I/O and report summaries
    "cli.main": ("cli.main", "cli.cmd_norm", "cli.cmd_verify"),
}
LAYER_SUMS.update({f"kfun.norm_in_space.{k}": (f"kfun.norm_in_space.{k}",)
                   for k in NORM_KINDS})

PER_LAYER_CALLS = ("corpus.sample", "grid.edge_divergent", "grid.log_norm",
                   "sv.sv_log_on_grid", "spaces.check_admissible",
                   "kfun.oracle.k_at_log", "applications.norm_app") + \
    tuple(f"kfun.norm_in_space.{k}" for k in NORM_KINDS)


def layer_metrics(trace_path, counters):
    z = np.load(trace_path)
    names = [str(s) for s in z["names"]]
    name, parent = z["name"], z["parent"]
    selfs = self_times(z["start"], z["end"], parent)
    dur = z["end"] - z["start"]
    ids = {n: i for i, n in enumerate(names)}
    self_sum = np.bincount(name, weights=selfs, minlength=len(names))
    has_par = parent >= 0
    m, top_calls = {}, {}
    for key, group in LAYER_SUMS.items():
        gid = [ids[g] for g in group if g in ids]
        m[f"{key}.self_s"] = float(self_sum[gid].sum())
        # a call counts once per group, not again inside another member
        in_group = np.isin(name, gid)
        nested = np.zeros(len(name), bool)
        nested[has_par] = in_group[parent[has_par]]
        top_calls[key] = int(np.count_nonzero(in_group & ~nested))
    for key in PER_LAYER_CALLS:
        m[f"{key}.calls"] = top_calls[key]
    ed = top_calls["grid.edge_divergent"]
    m["grid.edge_divergent.true_frac"] = \
        counters.get("grid.edge_divergent.true", 0) / ed if ed else 0.0
    sv = top_calls["sv.sv_log_on_grid"]
    m["sv.sv_log_on_grid.repeat_ratio"] = \
        counters.get("sv.sv_log_on_grid.repeats", 0) / sv if sv else 0.0
    b = ids.get("kfun.oracle.build")
    builds = dur[name == b] if b is not None else np.array([])
    m["kfun.oracle.builds"] = int(len(builds))
    m["kfun.oracle.build_s.p50"] = float(np.median(builds)) if len(builds) \
        else 0.0
    att = counters.get("kfun.oracle.cuts_attempted", 0)
    kept = counters.get("kfun.oracle.cuts_kept", 0)
    m["kfun.oracle.cuts_attempted"] = int(att)
    m["kfun.oracle.cuts_kept"] = int(kept)
    m["kfun.oracle.kept_ratio"] = kept / att if att else 0.0
    m["kfun.oracle.bytes_computed"] = int(
        counters.get("kfun.oracle.bytes_computed", 0))
    m["report.write.bytes"] = int(counters.get("report.write.bytes", 0))
    m["trace.spans"] = int(len(name))
    return m


# ---------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------

def _cache_sizes():
    """L2 / L3 sizes as the kernel reports them (read-only, may be None)."""
    out = {"l2": None, "l3": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for d in sorted(os.listdir(base)):
            if not d.startswith("index"):
                continue
            with open(os.path.join(base, d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, d, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                out["l" + level] = size
    except OSError:
        pass
    return out


def _machine():
    return {"nproc": os.cpu_count(),
            "nproc_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cache": _cache_sizes(),
            "child_thread_env": THREAD_ENV}


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------

def _median(xs):
    return float(statistics.median(xs))


def _median_per_op(passes):
    """Each op's median time in reference-host seconds over the passes."""
    return np.median([scaled([r["s"] for r in p["ops"]], p["kernel_s"])
                      for p in passes], axis=0)


def run(workload, seed, seconds, trace, limit=None):
    """(metadata, result) of one run; limit keeps only the first ops."""
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "interpolab",
                                       "__init__.py")):
        raise BenchError(f"no interpolab sources under {ROOT}/src")
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(workload, seed, seconds, trace, work, base, deadline,
                    limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, work, base, deadline, limit):
    ops = workloads.generate(workload, seed, work)[:limit]
    ops_path = os.path.join(work, "ops.json")
    with open(ops_path, "w") as fh:
        json.dump(ops, fh)
    refs = _references(ops, deadline)

    for _ in range(3):                  # warm the kernel's code and data
        kernel_s(work)
    setups = [_spawn([], work, deadline)[0] for _ in range(SETUP_PROBES)]
    res_path = os.path.join(work, "result.json")
    trace_path = os.path.join(work, "trace.npz")

    passes = {"0": [], "1": []}
    outcomes = []
    layer = []
    walls = []
    t_start = time.perf_counter()
    turn = "0"
    while True:
        t0 = time.perf_counter()
        setup, kernel = _spawn([ops_path, res_path, trace_path, turn],
                               work, deadline)
        walls.append(time.perf_counter() - t0)
        setups.append(setup)
        with open(res_path) as fh:
            res = json.load(fh)
        if len(res["ops"]) != len(ops) or len(kernel) != len(ops) + 1:
            raise BenchError("worker returned a short pass")
        res["kernel_s"] = kernel
        passes[turn].append(res)
        for op, r in zip(ops, res["ops"]):
            outcomes.append((op, check_op(op, r, work, refs)))
        if turn == "1":
            layer.append(layer_metrics(trace_path, res["counters"]))
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            shutil.copyfile(trace_path, os.path.join(
                base, "traces", f"{workload}.npz"))
        if trace:
            turn = "1" if turn == "0" else "0"
        elapsed = time.perf_counter() - t_start
        if trace:
            done = passes["0"] and passes["1"]
        else:
            done = len(passes["0"]) >= MIN_PASSES
        if done and elapsed + _median(walls) > seconds:
            break
        if time.monotonic() + _median(walls) > deadline - 5.0:
            break

    if trace and not passes["1"]:
        raise BenchError("no traced pass fitted before the deadline")
    attempted = len(outcomes)
    failed = [(op, o) for op, o in outcomes if not o[0]]
    unexpected = [op["id"] for op, o in failed
                  if not op["check"].get("known_defect")]
    wins = [o[2] for _, o in outcomes if o[2] is not None]
    errs = [o[4] for _, o in outcomes if o[4] is not None]
    window_max = max(wins) if wins else None
    relerr_max = max(errs) if errs else None

    untraced = passes["0"]
    op_med = _median_per_op(untraced)
    pass_s = float(np.sum(op_med))
    kernel = [k for p in untraced for k in p["kernel_s"]]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(untraced), "traced": len(passes["1"])},
        "ops_per_pass": len(ops),
        "op_s_samples": f"{len(op_med)} ops, median of "
                        f"{len(untraced)} passes each",
        # unscaled: wall time of a whole pass, kernel calls included
        "pass_wall_s_median": _median([p["pass_s"] for p in untraced]),
        "kernel_s_median": _median(kernel),
        "ref_kernel_s": REF_KERNEL_S,
        "setup_samples": len(setups),
        "failed_frac": len(failed) / attempted,
        "failed_ops": sorted({(op["id"], o[1],
                               op["check"].get("known_defect") or "")
                              for op, o in failed}),
        "window_max": window_max,
        "norm_relerr_max": relerr_max,
        "norm_rtol": workloads.NORM_RTOL,
        "machine": _machine(),
    }
    if trace:
        lm = {k: _median([d[k] for d in layer]) for k in layer[0]}
        for k, v in layer[0].items():
            if isinstance(v, int):      # counts repeat exactly across passes
                lm[k] = v
        traced_pass = float(np.sum(_median_per_op(passes["1"])))
        lm["trace.pass_s"] = traced_pass
        lm["trace.overhead_s"] = traced_pass - pass_s
        lm["trace.overhead_frac"] = (traced_pass - pass_s) / pass_s
        lm["ops.failed_frac"] = len(failed) / attempted
        lm["verify.window_max"] = window_max if window_max is not None \
            else 0.0
        lm["norm.relerr_max"] = relerr_max if relerr_max is not None else 0.0
        meta["oracle_bytes_computed"] = lm["kfun.oracle.bytes_computed"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in sorted(lm.items())}
    else:
        meta["oracle_bytes_computed"] = "measured by --trace 1 runs only"
        ms = 1000.0
        values = {
            "setup_s": (_median(setups), "s"),
            "pass_s": (pass_s, "s"),
            "op_s.p50": (float(np.percentile(op_med, 50)) * ms, "ms"),
            "op_s.p90": (float(np.percentile(op_med, 90)) * ms, "ms"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in untraced]),
                            "MB"),
            "ok_frac": ((attempted - len(failed)) / attempted, "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    if unexpected:
        meta["unexpected_failures"] = unexpected
    return meta, result


def _layer_unit(name):
    if name.endswith((".calls", ".builds", ".spans")) or ".cuts_" in name:
        return "count"
    if name.endswith(("_s", ".p50")):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # This process and its workers never compute at the same time (a
    # worker waits while the kernel runs), so one CPU serves both, and the
    # kernel then meets the same core, and the same neighbours, as the ops.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        meta, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
