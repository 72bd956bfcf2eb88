"""Equivalence reports shared by the verification harnesses.

Each harness produces rows (function, grid size, sample point, lhs, rhs);
the report aggregates them into an equivalence window

    C(n) = max(lhs/rhs) / min(lhs/rhs)

over the rows at grid size n, and a refinement stability figure, the
relative change of the window between the two largest grid sizes.
Serialization is deterministic: repeated runs give byte-identical files.

Every harness builds its report with _sweep, one loop over the grid
sizes of its setting and then corpus prototypes; a harness only says
what the rows of one sampled f* are.  Rows are stored by column, in
blocks of one function and grid size (a split-point sweep, or a single
row), and to_csv writes each block from its columns under one
"case,function_id,n," prefix.  The least and greatest finite positive
ratio at each grid size are kept up to date as rows come in, so windows
never rescan the rows.  The ratio of a row is inf where rhs == 0, else
lhs/rhs; numpy and Python divide floats alike (IEEE), so it has the
bits of Row.ratio.

Every number is written as its repr, CPython's shortest round-trip
text, which costs about a microsecond a float.  The split points of a
sweep are grid nodes, the same ones in every sweep on a grid and for
every prototype, so their text is formatted once per process and kept
in _U_TEXT, node -> repr, as sv._GRID_EVALS keeps weights.  It holds
the positive finite split points of the grids swept, and nothing else:
one per eighth interior node, about n/9 entries for a grid of n nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
import json
import math
import os

import numpy as np

from . import corpus as corpus_mod
from .grid import Grid


# the (min, max) ratio range of a grid size with no finite positive ratio
_EMPTY = (math.inf, -math.inf)
# split point -> its repr: the text of every positive finite u written,
# shared by all reports of the process (see the module docstring)
_U_TEXT: dict = {}


def _quote(s: str) -> str:
    """s as one CSV field, quoted only when it must be."""
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


@dataclass(frozen=True)
class Row:
    case: str
    function_id: str
    n: int
    u: float | None
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs


class EquivalenceReport:
    """Rows of one verification case, their windows and their files.

    lhs, rhs and u are floats (u may be None: no sample point).  Each
    block is (function_id, n, us, lhs, rhs, ratio) with one list per
    column; us is None for rows without a sample point.
    """

    def __init__(self, case: str):
        self.case = case
        self.excluded: list = []
        self.notes: list = []
        self._blocks: list = []
        # n -> (min, max) of the finite positive ratios at grid size n,
        # _EMPTY while there are none
        self._ranges: dict = {}

    def add_rows(self, function_id, n, u, lhs, rhs):
        """Rows (u[i], lhs[i], rhs[i]) for one function and grid size,
        from float arrays or sequences (u may be None); an empty add
        adds nothing."""
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if not len(lhs):
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.where(rhs == 0.0, math.inf, lhs / rhs)
        us = None if u is None else np.asarray(u, dtype=float).tolist()
        self._blocks.append((function_id, n, us, lhs.tolist(), rhs.tolist(),
                             ratio.tolist()))
        lo, hi = self._ranges.get(n, _EMPTY)
        ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
        if len(ratio):
            lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
        self._ranges[n] = (lo, hi)

    @property
    def n_rows(self) -> int:
        return sum(len(b[3]) for b in self._blocks)

    @property
    def rows(self) -> tuple:
        """Every row as a Row, in the order added.  Built on each read,
        for tests and demos: no harness or writer reads it."""
        return tuple(
            Row(self.case, fid, n, u, lhs, rhs)
            for fid, n, us, lhss, rhss, _ in self._blocks
            for u, lhs, rhs in zip(repeat(None) if us is None else us,
                                   lhss, rhss))

    def exclude(self, function_id, reason):
        self.excluded.append((function_id, reason))

    def sizes(self) -> list:
        return sorted(self._ranges)

    def ratios(self, n=None) -> list:
        """Finite positive ratios at grid size n in row order (all sizes
        for None, size by size in the order each first came).  Built
        from the blocks on each read, for tests: windows read the
        running ranges."""
        if n is None:
            return [x for m in self._ranges for x in self.ratios(m)]
        return [x for b in self._blocks if b[1] == n for x in b[5]
                if math.isfinite(x) and x > 0]

    def window(self, n=None) -> float:
        ranges = self._ranges.values() if n is None else \
            [self._ranges.get(n, _EMPTY)]
        lo = min((r[0] for r in ranges), default=math.inf)
        hi = max((r[1] for r in ranges), default=-math.inf)
        return hi / lo if lo <= hi else math.inf

    def stability(self) -> float:
        """Relative change of the window between the two largest n."""
        ns = self.sizes()
        if len(ns) < 2:
            return 0.0
        c0, c1 = self.window(ns[-2]), self.window(ns[-1])
        if not (math.isfinite(c0) and c0 > 0):
            return math.inf
        return abs(c1 - c0) / c0

    # -- serialization -------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Rows as csv.writer's minimal quoting writes them: only a text
        field holding a comma, a quote or a line break, such as the id
        powlog:2,-1, is quoted; numbers never need it.  Each block is
        its quoted prefix joined to the repr of its columns, and the
        file is written at once."""
        lines = ["case,function_id,n,u,lhs,rhs,ratio"]
        case = _quote(self.case)
        for fid, n, us, lhs, rhs, ratio in self._blocks:
            head = f"{case},{_quote(fid)},{n},"
            u = repeat("") if us is None else _u_text(us)
            lines += map(",".join, zip(map(head.__add__, u), map(repr, lhs),
                                       map(repr, rhs), map(repr, ratio)))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def aggregate(self) -> dict:
        ns = self.sizes()
        return {
            "case": self.case,
            "sizes": ns,
            "windows": {str(n): self.window(n) for n in ns},
            "window": self.window(ns[-1]) if ns else math.inf,
            "stability": self.stability(),
            "rows": self.n_rows,
            "excluded": [list(e) for e in self.excluded],
            "notes": list(self.notes),
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.aggregate(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write(self, outdir: str, stem: str | None = None) -> tuple[str, str]:
        os.makedirs(outdir, exist_ok=True)
        stem = stem or self.case
        csv_path = os.path.join(outdir, stem + ".csv")
        json_path = os.path.join(outdir, stem + ".json")
        self.to_csv(csv_path)
        self.to_json(json_path)
        return csv_path, json_path


def _u_text(us: list) -> list:
    """repr of each split point in us, read from _U_TEXT where it can."""
    get = _U_TEXT.get
    return [get(u) or _u_repr(u) for u in us]


def _u_repr(u: float) -> str:
    """repr(u), kept in _U_TEXT if u is positive and finite: 0.0 and
    -0.0 are equal keys of another text, and a NaN is found only as the
    object it is."""
    text = repr(u)
    if 0.0 < u < math.inf:
        _U_TEXT[u] = text
    return text


def _sweep(case, corpus, setting, log2n, rows) -> EquivalenceReport:
    """The report of case over the default grids of setting,
    Grid.from_bounds(None, None, 2^k, setting) for k in log2n, and on
    each the prototypes of corpus (None: the standard one), read and
    parsed once (corpus_mod.parse_corpus: a corpus the caller parsed is
    used as it is).  rows(fstar) gets f* sampled on the grid and returns a
    (u, lhs, rhs) block for add_rows (u may be None), or a str: the
    reason to exclude the prototype.
    """
    rep = EquivalenceReport(case)
    fns = corpus_mod.parse_corpus(corpus or corpus_mod.STANDARD)
    for k in log2n:
        grid = Grid.from_bounds(None, None, 1 << k, setting)
        for spec, fn in fns:
            got = rows(corpus_mod.sample(fn, grid))
            if isinstance(got, str):
                rep.exclude(spec, got)
            else:
                rep.add_rows(spec, grid.n, *got)
    return rep
