"""Rows whose edge verdict is known in closed form, against the verdicts
the package gives.

    python3 tools/edge_truth.py

Family ``theta``: the norm of theta(1/2, 1, Lq) on ``powlog:2,m``,
f*(t) = t^(-1/2) l(t)^m, over full grids from t_min to t_max = 1e8.
Near 0, K(t, f; L1, Linf) = int_0^t f* behaves as 2 t^(1/2) l(t)^m, so
the norm is finite iff q m < -1 (q < inf), and iff m <= 0 (q = inf);
past t = 1, f* is 0 and t^(-1/2) K decays as a power.  The rows are
every t_min in {1e-8, 1e-30, 1e-100}, n in {2^10, 2^12}, q in
{1, 2, inf}, and q m (for q = inf, m itself) in -1.5, -1.3, ..., 0.3.
The verdict got is from ``norm_in_space(k_peetre(corpus.sample(spec,
grid)), d)``; inf, or a ValueError, reads as divergent.

Prints one line per row, the row, its expected verdict, the verdict
got and the repr of the value, then one line per family,
``<family>: <wrong> of <rows> wrong``.  The output is deterministic.
The package is imported from wherever ``PYTHONPATH`` points, else from
the ``src`` directory of this checkout; its path is printed to stderr.
Exit code 0 whatever the count.
"""

from __future__ import annotations

import math
import os
import sys

T_MINS = (1e-8, 1e-30, 1e-100)
LOG2N = (10, 12)
QS = (1.0, 2.0, math.inf)
# q m for q < inf, m itself for q = inf
QM = tuple(round(-1.5 + 0.2 * i, 1) for i in range(10))


def theta_rows():
    """(row, finite expected, value or the ValueError) of each row."""
    from interpolab import corpus
    from interpolab.grid import Grid, RiSpace
    from interpolab.kfun import k_peetre, norm_in_space
    from interpolab.spaces import ThetaSpace
    from interpolab.sv import ONE
    for t_min in T_MINS:
        for k in LOG2N:
            grid = Grid.from_bounds(t_min, 1e8, 2 ** k)
            for q in QS:
                d = ThetaSpace(0.5, ONE, RiSpace(q))
                for qm in QM:
                    m = qm if math.isinf(q) else qm / q
                    spec = f"powlog:2,{m!r}"
                    try:
                        value = norm_in_space(
                            k_peetre(corpus.sample(spec, grid)), d)
                    except ValueError as e:
                        value = e
                    yield (f"tmin={t_min:g} n=2^{k} q={q:g} {spec}",
                           qm <= 0 if math.isinf(q) else qm < -1, value)


FAMILIES = {"theta": theta_rows}


def verdict(finite: bool) -> str:
    return "finite" if finite else "divergent"


def main() -> int:
    try:
        import interpolab
    except ModuleNotFoundError:
        sys.path.insert(0, os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src"))
        import interpolab
    print(f"interpolab from {os.path.dirname(interpolab.__file__)}",
          file=sys.stderr)
    counts = []
    for family, rows in FAMILIES.items():
        wrong = total = 0
        for row, expect, value in rows():
            got = isinstance(value, float) and math.isfinite(value)
            wrong += got != expect
            total += 1
            print(f"{family} {row}  expect {verdict(expect)}  "
                  f"got {verdict(got)}  {value!r}")
        counts.append(f"{family}: {wrong} of {total} wrong")
    print("\n".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
