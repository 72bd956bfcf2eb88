"""Prototype decreasing rearrangements on (0, 1).

The harnesses exercise everything on a small corpus of f* prototypes
described by a mini grammar:

    chi:a        indicator of (0, a), 0 < a <= 1
    pow:r        s^(-1/r)
    powlog:r,m   s^(-1/r) * l^m(s)
    log:m        l^m(s), m > 0
    csv:PATH     step function from a two-column t,value CSV

All prototypes vanish for t > 1 (pow, powlog and log evaluate their
formula only on the nodes with t <= 1) and are repaired to nonincreasing
after sampling (powlog with negative m turns upward near t = 1, where l^m
starts winning; the repair replaces the sample by its running maximum
from the right, which is the rearrangement of the sampled step
function).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .grid import Grid, GridFunction, _running


def _ell(x):
    return 1.0 + np.abs(x)


def _vanish_above_1(formula):
    """fn(x) = formula(x) on the nodes x <= 0 (t <= 1), 0.0 on the rest.

    x is ascending (grid nodes), so the nodes x <= 0 are a prefix that
    searchsorted finds; the formula is evaluated on it alone, and is inf
    where it overflows (far below the grids of the CLI).
    """
    def fn(x):
        k = int(np.searchsorted(x, 0.0, side="right"))
        with np.errstate(over="ignore"):
            head = formula(x[:k])
        return head if k == len(x) else \
            np.concatenate((head, np.zeros(len(x) - k)))
    return fn


def parse_fn(spec: str):
    """Turn a grammar string into (id, callable log t -> values); the
    callable takes ascending x, the nodes of a grid."""
    kind, _, arg = spec.partition(":")
    if kind == "chi":
        a = float(arg)
        if not 0 < a <= 1:
            raise ValueError(f"chi level must be in (0,1], got {a}")
        la = math.log(a)

        def fn(x):
            return (x <= la).astype(float)
    elif kind == "pow":
        r = float(arg)
        if not r > 1:
            raise ValueError(f"pow exponent r must be > 1, got {r}")
        fn = _vanish_above_1(lambda x: np.exp(-x / r))
    elif kind == "powlog":
        r_s, m_s = arg.split(",")
        r, m = float(r_s), float(m_s)
        if not (r > 1 and math.isfinite(m)):
            raise ValueError(f"powlog needs r > 1 and a finite m, "
                             f"got {r}, {m}")
        fn = _vanish_above_1(lambda x: np.exp(-x / r) * _ell(x) ** m)
    elif kind == "log":
        m = float(arg)
        if not 0 < m < math.inf:
            raise ValueError(f"log exponent m must be finite and > 0, "
                             f"got {m}")
        fn = _vanish_above_1(lambda x: _ell(x) ** m)
    elif kind == "csv":
        with open(arg) as fh:
            rows = [r for r in csv.reader(fh) if r and r[0] != "t"]
        pts = np.array(sorted((float(t), float(v)) for t, v in rows))
        if (len(pts) == 0 or not np.isfinite(pts).all()
                or np.any(pts[:, 0] <= 0) or np.any(pts[:, 1] < 0)):
            raise ValueError(f"csv corpus file {arg} needs finite rows "
                             "with positive t and nonnegative values")
        tt, vv = pts[:, 0], pts[:, 1]

        def fn(x):
            with np.errstate(over="ignore"):
                t = np.exp(np.clip(x, -700, 700))
            idx = np.searchsorted(tt, t, side="right") - 1
            out = np.where(idx >= 0, vv[np.maximum(idx, 0)], vv[0])
            return np.where(t <= tt[-1], out, 0.0)
    else:
        raise ValueError(f"unknown corpus function kind {kind!r}")
    return spec, fn


def sample(spec, grid: Grid) -> GridFunction:
    """f* on the grid nodes; spec is a grammar string or a function
    parse_fn made, so a sweep over several grids parses it once."""
    fn = parse_fn(spec)[1] if isinstance(spec, str) else spec
    vals = fn(grid.x)
    # rearrangement repair: nonincreasing envelope from the right, run
    # only when a forward compare finds the samples out of order (a
    # compare on the reversed view costs several times as much)
    if not (vals[1:] <= vals[:-1]).all():
        vals = _running(np.maximum, vals[::-1])[::-1]
    return GridFunction(grid, vals)


STANDARD = ("chi:0.001", "chi:0.1", "chi:1", "pow:2", "pow:4",
            "powlog:2,1", "powlog:4,-1", "log:2")


def parse_corpus(corpus) -> tuple:
    """(spec, fn) from parse_fn for each prototype of corpus: 'standard',
    a sequence of specs, an inline semicolon-separated list, or a file
    of one spec per line.  A sequence may hold pairs parse_fn made; they
    pass through, so a corpus parsed for an input check is used as it
    is, not read again."""
    if isinstance(corpus, (tuple, list)):
        specs = corpus
    elif corpus == "standard":
        specs = STANDARD
    elif ":" in corpus:
        specs = [s for s in corpus.split(";") if s]
    else:
        with open(corpus) as fh:
            specs = [line.strip() for line in fh
                     if line.strip() and not line.startswith("#")]
    return tuple(s if isinstance(s, tuple) else parse_fn(s) for s in specs)
