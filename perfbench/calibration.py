"""Calibration kernel: how fast the host runs at the moment of an op.

On a shared host the same pass of ops takes up to twice as long in a
slow period as in a fast one, and the periods last from seconds to
minutes, so neither best-of-N nor a median over one run's passes
removes them: runs minutes apart disagree.  Most of that drift slows
all code alike, so run.py times a fixed kernel right before every op
and once after the last, while the worker waits, and reports each op's
wall time scaled by REF_KERNEL_S over the geometric mean of the kernel
times on its two sides.  Times are thus in reference-host seconds: the
time the op would take on a host where the kernel takes REF_KERNEL_S.

The kernel runs in the benchmark's own process, not in the worker, so
the program's heap and allocator state do not reach it, and its time
is that of the second of two back-to-back calls, so the caches the op
left behind weigh little: a change to the program's memory use moves
the op times, not the kernel.

The kernel does the kinds of work interpolab ops do, on data it owns,
and reads nothing of the program under test: interpreter and stdlib
work (json, re, sorting, formatting, method calls), many small numpy
calls with least-squares fits, passes over arrays the size of a fine
grid's, a fresh allocation (page faults), and a small file written,
read back and removed (system calls).  On the 2-vCPU build host the
last two matter most: slow periods slow page faults and system calls
more than arithmetic, and a kernel of arithmetic alone tracked only
about half of the drift of a verify pass.
"""

import json
import mmap
import os
import re
import time

import numpy as np

# median kernel time on the 2-vCPU host the benchmark was built on
# (Python 3.11, numpy 2.4); it fixes the unit, not the comparison
REF_KERNEL_S = 3.5e-3

_rng = np.random.default_rng(0)
_doc = {f"k{i}": [i, i * 0.5, f"v{i}", {"a": i}] for i in range(80)}
_text = " ".join(f"word{i}={i * 7};" for i in range(100))
_pat = re.compile(r"word(\d+)=(\d+);")
_arr = _rng.random(1024)
_xs = np.linspace(0.0, 1.0, 1024)
_big = _rng.random(1 << 17)             # 1 MiB, a 2^17-point grid


class _Point:
    def __init__(self, a):
        self.a = a

    def f(self, x):
        return self.a * x + 1


def _kernel(path):
    json.loads(json.dumps(_doc))
    sum(int(a) + int(b) for a, b in _pat.findall(_text))
    sorted(_doc.items(), key=lambda kv: -kv[1][1])
    ",".join(f"{x:.6g}" for x in _arr[:80])
    sum(p.f(2) for p in [_Point(i) for i in range(100)])
    for deg in (1, 2, 3):
        np.polyfit(_xs[:128], _arr[:128], deg)
    np.interp(_arr, _xs, _arr)
    np.searchsorted(_xs, _arr)
    np.maximum.accumulate(_arr)
    np.diff(np.log(_arr + 1.0))
    np.linalg.lstsq(np.vander(_xs[:64], 4), _arr[:64], rcond=None)
    for _ in range(4):
        np.exp(-np.cumsum(_arr[:256]))
    float(np.cumsum(_big)[-1] + np.exp(_big[:1 << 15]).sum())
    m = mmap.mmap(-1, 1 << 20)          # 1 MiB, freshly mapped
    for off in range(0, 1 << 20, 4096):
        m[off] = 1
    m.close()
    with open(path, "w") as fh:
        json.dump(_doc, fh)
    with open(path) as fh:
        json.load(fh)
    os.remove(path)


def kernel_s(scratch_dir):
    """Wall time of the second of two kernel calls; the kernel's file
    lives in scratch_dir."""
    path = os.path.join(scratch_dir, f"kernel-{os.getpid()}.json")
    _kernel(path)
    t0 = time.perf_counter()
    _kernel(path)
    return time.perf_counter() - t0


def scaled(op_s, kernel):
    """Op wall times in reference-host seconds.

    op_s[i] ran between kernel[i] and kernel[i + 1].
    """
    k = np.asarray(kernel, float)
    return np.asarray(op_s, float) * REF_KERNEL_S / np.sqrt(k[:-1] * k[1:])
