"""Where the wall time of each benchmark op goes, stage by stage.

    python3 tools/sweep_stages.py WORKLOAD SEED [ROOT]

Writes the ops of WORKLOAD at SEED with ``perfbench/workloads.generate``
of this checkout, runs them once, in order, in this process through
``interpolab.cli.main`` (as one benchmark pass does, memos filling on
the way), and prints one line per op: its wall time and the part of it
spent in each stage of a split-point sweep,

    K         kfun.k_peetre
    oracle    building a kfun.TruncationOracle
    edge      grid.edge_diverges, the edge test of every truncated norm
              (through both its grid and its applications bindings)
    rhs       holmstedt.holmstedt_rhs
    k_at_log  TruncationOracle.k_at_log
    to_csv    EquivalenceReport.to_csv
    to_json   EquivalenceReport.to_json
    rest      everything else: sampling, parsing, the CLI

in milliseconds, then the sums over the pass.  A stage called inside
another is charged to the inner one only.  ROOT is the source checkout
whose ``src`` is imported (default: the one this file is in).  The
benchmark's per-layer metrics (``perfbench/run.py --trace 1``) have no
span for ``to_csv``; this tool times it directly, without tracing
anything else.  Op outputs are not checked, and timings are of one
pass: compare two trees over several runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("K", "oracle", "edge", "rhs", "k_at_log", "to_csv", "to_json")


class Stages:
    """Self time of each stage in the current op: a stage's time less
    that of the stages it calls."""

    def __init__(self):
        self.op = dict.fromkeys(STAGES, 0.0)
        self._stack = []

    def wrap(self, fn, stage):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._stack.append(0.0)     # time of the stages inside
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._stack.pop()
                self.op[stage] += dt - inner
                if self._stack:
                    self._stack[-1] += dt
        return timed

    def install(self) -> None:
        from interpolab import (applications, cli, grid, holmstedt, kfun,
                                reiteration, report)
        for mods, name, stage in (
                ((kfun, holmstedt, reiteration, cli), "k_peetre", "K"),
                ((grid, applications), "edge_diverges", "edge"),
                ((holmstedt,), "holmstedt_rhs", "rhs")):
            fn = self.wrap(getattr(mods[0], name), stage)
            for mod in mods:    # every module holding it by name
                setattr(mod, name, fn)
        for cls, attr, stage in (
                (kfun.TruncationOracle, "__init__", "oracle"),
                (kfun.TruncationOracle, "k_at_log", "k_at_log"),
                (report.EquivalenceReport, "to_csv", "to_csv"),
                (report.EquivalenceReport, "to_json", "to_json")):
            setattr(cls, attr, self.wrap(getattr(cls, attr), stage))


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print("usage: python3 tools/sweep_stages.py WORKLOAD SEED [ROOT]",
              file=sys.stderr)
        return 1
    workload, seed = argv[0], int(argv[1])
    root = os.path.abspath(argv[2]) if len(argv) == 3 else HERE
    sys.path.insert(0, os.path.join(HERE, "perfbench"))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    import interpolab
    from interpolab import applications, cli
    print(f"interpolab from {os.path.dirname(interpolab.__file__)}",
          file=sys.stderr)
    applications.scenario_names()   # the registry the benchmark builds first
    stages = Stages()
    stages.install()
    work = tempfile.mkdtemp(prefix="sweep_stages-")
    try:
        ops = workloads.generate(workload, seed, work)
        print(f"{'op':<44}{'total':>8}" + "".join(f"{s:>9}" for s in STAGES)
              + f"{'rest':>8}   (ms)")
        sums = dict.fromkeys(("total",) + STAGES + ("rest",), 0.0)
        for op in ops:
            args = [a.replace("{work}", work) for a in op["argv"]]
            stages.op = dict.fromkeys(STAGES, 0.0)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(args)
                except SystemExit:
                    pass
            row = {"total": time.perf_counter() - t0, **stages.op}
            row["rest"] = row["total"] - sum(stages.op.values())
            for k, v in row.items():
                sums[k] += v
            print(f"{op['id'][:43]:<44}{1e3 * row['total']:8.2f}"
                  + "".join(f"{1e3 * row[s]:9.2f}" for s in STAGES)
                  + f"{1e3 * row['rest']:8.2f}")
        print(f"{'pass (' + str(len(ops)) + ' ops)':<44}"
              f"{1e3 * sums['total']:8.2f}"
              + "".join(f"{1e3 * sums[s]:9.2f}" for s in STAGES)
              + f"{1e3 * sums['rest']:8.2f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
