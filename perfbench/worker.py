"""One pass of a workload in a fresh interpreter.

    python3 worker.py ROOT [OPS.json RESULT.json TRACE.npz TRACE_FLAG]

Imports interpolab from ROOT/src, builds its lazy registries, then
writes "ready" on stdout: the parent times set-up from its spawn call
to that line.  With only ROOT given it stops there (a set-up probe).
Otherwise it runs every op in-process through interpolab.cli.main with
stdout and stderr captured, times each op, and writes the outcomes,
the pass time and the peak RSS to RESULT.json.  Before every op and
after the last it writes "kernel" on stdout and waits for a line on
stdin, while the parent times the calibration kernel (calibration.py).
With TRACE_FLAG = 1 the spans of the pass go to TRACE.npz.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _tail(text: str, n: int = 3) -> list:
    return text.strip().splitlines()[-n:]


def _calibrate():
    """Wait while the parent times the calibration kernel."""
    sys.stdout.write("kernel\n")
    sys.stdout.flush()
    sys.stdin.readline()


def main(argv) -> int:
    root = argv[0]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import interpolab
    from interpolab import applications, cli
    if not os.path.abspath(interpolab.__file__).startswith(
            os.path.abspath(src) + os.sep):
        print(f"interpolab imported from {interpolab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    applications.scenario_names()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if len(argv) == 1:
        return 0

    ops_path, result_path, trace_path, trace = argv[1:5]
    work = os.path.dirname(os.path.abspath(ops_path))
    with open(ops_path) as fh:
        ops = json.load(fh)
    argvs = [[a.replace("{work}", work) for a in op["argv"]] for op in ops]
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(interpolab)

    results = []
    clock = time.perf_counter
    t_pass = clock()
    for k, args in enumerate(argvs):
        if tracer is not None:
            tracer.op_id = k
        _calibrate()
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(args)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:          # an op that raises is a failed op
            rc, exc = None, f"{type(e).__name__}: {e}"
        t1 = clock()
        results.append({"rc": rc, "s": t1 - t0, "exc": exc,
                        "stdout": _tail(out.getvalue()),
                        "stderr": _tail(err.getvalue(), 2)})
    _calibrate()
    pass_s = clock() - t_pass
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w") as fh:
        json.dump({"ops": results, "pass_s": pass_s,
                   "peak_rss_mb": rss_kb / 1024.0,
                   "counters": tracer.counters if tracer else {}}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
