"""Equivalence reports shared by the verification harnesses.

Each harness produces rows (function, grid size, sample point, lhs, rhs);
the report aggregates them into an equivalence window

    C(n) = max(lhs/rhs) / min(lhs/rhs)

over the rows at grid size n, and a refinement stability figure, the
relative change of the window between the two largest grid sizes.
Serialization is deterministic: repeated runs give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import os


def _quote(s: str) -> str:
    """s as one CSV field, quoted only when it must be."""
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
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


@dataclass
class EquivalenceReport:
    case: str
    rows: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    _by_n: dict | None = field(default=None, init=False, repr=False,
                               compare=False)

    def add(self, function_id, n, u, lhs, rhs):
        self.rows.append(Row(self.case, function_id, n, u, lhs, rhs))
        self._by_n = None

    def exclude(self, function_id, reason):
        self.excluded.append((function_id, reason))

    def _groups(self) -> dict:
        """Finite positive ratios by grid size, every size a key; one
        scan of the rows, repeated only after an add."""
        if self._by_n is None:
            self._by_n = {}
            for r in self.rows:
                g = self._by_n.setdefault(r.n, [])
                if math.isfinite(r.ratio) and r.ratio > 0:
                    g.append(r.ratio)
        return self._by_n

    def sizes(self) -> list:
        return sorted(self._groups())

    def ratios(self, n=None) -> list:
        """Finite positive ratios at grid size n (all sizes for None)."""
        groups = self._groups()
        if n is not None:
            return list(groups.get(n, ()))
        return [x for g in groups.values() for x in g]

    def window(self, n=None) -> float:
        ratios = self.ratios(n)
        if not ratios:
            return math.inf
        return max(ratios) / min(ratios)

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
        powlog:2,-1, is quoted; numbers never need it.  Joined by hand
        and written at once: csv.writer takes about half again as long."""
        lines = ["case,function_id,n,u,lhs,rhs,ratio"]
        for r in self.rows:
            lines.append(",".join([
                _quote(r.case), _quote(r.function_id), str(r.n), _fmt(r.u),
                _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio)]))
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
            "rows": len(self.rows),
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
