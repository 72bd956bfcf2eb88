"""Peak RSS of one benchmark pass, read in the worker alone.

    python3 tools/worker_rss.py WORKLOAD SEED [ROOT]

Writes the ops of WORKLOAD at SEED with ``perfbench/workloads.generate``
in one subprocess, runs ``perfbench/worker.py`` once on them in another,
and prints the ``peak_rss_mb`` the worker reports for its pass.  ROOT is
the source checkout whose ``src`` the worker imports (default: the one
this file is in); the ``perfbench`` of this checkout is used either way.

``perfbench/run.py`` spawns its workers from a process that has numpy
imported, and a process's peak RSS starts from its parent's RSS at the
fork, so the benchmark's ``peak_rss_mb`` cannot read below ``run.py``'s
own RSS.  This process imports no numpy; its own peak, printed beside
the worker's, is the floor here.  The calibration waits are answered
at once, and the ops' outputs are not checked.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(HERE, "perfbench")
# as perfbench/run.py sets them for its workers
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
       "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
GENERATE = """import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
ops = workloads.generate(sys.argv[2], int(sys.argv[3]), sys.argv[4])
with open(sys.argv[5], "w") as fh:
    json.dump(ops, fh)
"""


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print("usage: python3 tools/worker_rss.py WORKLOAD SEED [ROOT]",
              file=sys.stderr)
        return 1
    workload, seed = argv[0], argv[1]
    root = os.path.abspath(argv[2]) if len(argv) == 3 else HERE
    env = {**os.environ, **ENV}
    work = tempfile.mkdtemp(prefix="worker_rss-")
    try:
        ops_path = os.path.join(work, "ops.json")
        res_path = os.path.join(work, "result.json")
        subprocess.run([sys.executable, "-c", GENERATE, BENCH, workload,
                        seed, work, ops_path], check=True, env=env)
        with open(ops_path) as fh:
            n_ops = len(json.load(fh))
        # the worker waits for one line before every op and after the last
        subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                        root, ops_path, res_path,
                        os.path.join(work, "trace.npz"), "0"],
                       input="\n" * (n_ops + 1), stdout=subprocess.DEVNULL,
                       text=True, check=True, env=env, cwd=root)
        with open(res_path) as fh:
            peak = json.load(fh)["peak_rss_mb"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload} seed {seed}: worker peak_rss_mb {peak:.2f} "
          f"(this process {own:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
