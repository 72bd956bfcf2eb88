"""EquivalenceReport: windows from ratios grouped by grid size, and the
CSV rows it writes."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from interpolab.report import EquivalenceReport


def test_windows_follow_every_add(tmp_path):
    rep = EquivalenceReport("c")
    rep.add("f", 512, 0.5, 2.0, 1.0)
    rep.add("f", 512, 0.7, 1.0, 1.0)
    assert rep.window(512) == 2.0
    # rows added after a window was read still count
    rep.add("g", 512, 0.5, 4.0, 1.0)
    rep.add("g", 1024, 0.5, 1.0, 0.0)     # ratio inf: left out
    rep.add("g", 1024, 0.5, 0.0, 1.0)     # ratio 0: left out
    assert rep.sizes() == [512, 1024]
    assert rep.window(512) == 4.0
    assert rep.window(1024) == math.inf
    assert rep.window() == 4.0
    assert sorted(rep.ratios()) == [1.0, 2.0, 4.0]
    assert rep.ratios(2048) == []
    assert rep.stability() == math.inf
    rep.to_csv(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text().splitlines()[-2:] == [
        "c,g,1024,0.5,1.0,0.0,inf", "c,g,1024,0.5,0.0,1.0,0.0"]


def test_csv_round_trip_quotes_ids_with_commas(tmp_path):
    rep = EquivalenceReport("c")
    rep.add("powlog:2,-1", 512, 0.5, 2.0, 1.0)
    rep.add("chi:0.1", 1024, None, 1.5, 3.0)
    rep.add('csv:a "b".csv', 1024, 1e-300, 0.1, 0.3)
    rep.add("csv:two\nlines,.csv", 1024, 2.0, 0.0, 0.0)
    rep.to_csv(tmp_path / "c.csv")
    text = (tmp_path / "c.csv").read_text()
    assert text.splitlines()[:2] == ["case,function_id,n,u,lhs,rhs,ratio",
                                     'c,"powlog:2,-1",512,0.5,2.0,1.0,2.0']
    # the bytes csv.writer writes with minimal quoting and "\n" line ends
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "function_id", "n", "u", "lhs", "rhs", "ratio"])
    writer.writerows([r.case, r.function_id, r.n, "" if r.u is None else
                      repr(r.u), repr(r.lhs), repr(r.rhs), repr(r.ratio)]
                     for r in rep.rows)
    assert text == buf.getvalue()
    with open(tmp_path / "c.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["function_id"], int(r["n"]), r["u"]) for r in rows] == [
        (x.function_id, x.n, "" if x.u is None else repr(x.u))
        for x in rep.rows]
    assert [float(r["ratio"]) for r in rows] == [x.ratio for x in rep.rows]


def test_report_compare_reads_bare_and_quoted_ids(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    import report_compare
    rep = EquivalenceReport("c")
    rep.add("powlog:2,-1", 512, 0.5, 2.0, 1.0)
    rep.add("chi:0.1", 512, None, 1.5, 3.0)
    rep.to_csv(tmp_path / "quoted.csv")
    # the same rows as written before ids were quoted
    (tmp_path / "bare.csv").write_text(
        "case,function_id,n,u,lhs,rhs,ratio\n"
        "c,powlog:2,-1,512,0.5,2.0,1.0,2.0\n"
        "c,chi:0.1,512,,1.5,3.0,0.5\n")
    expect = ([("c", "powlog:2,-1", "512", "0.5"),
               ("c", "chi:0.1", "512", "")],
              [["2.0", "1.0", "2.0"], ["1.5", "3.0", "0.5"]])
    assert report_compare.read_rows(tmp_path / "quoted.csv") == expect
    assert report_compare.read_rows(tmp_path / "bare.csv") == expect
    bad = []
    assert report_compare.compare_csv(tmp_path / "bare.csv",
                                      tmp_path / "quoted.csv", bad, "c") == 0
    assert bad == []


# -- the columnar store against the row-by-row report it replaced --------

class _RefRow:
    def __init__(self, case, function_id, n, u, lhs, rhs):
        self.case, self.function_id, self.n = case, function_id, n
        self.u, self.lhs, self.rhs = u, lhs, rhs

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs


def _ref_quote(s):
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _ref_fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


class _RefReport:
    """EquivalenceReport as a list of one Python object per row, with
    the groups rebuilt by one scan after every add and each CSV field
    formatted on its own."""

    def __init__(self, case):
        self.case, self.rows, self.excluded, self.notes = case, [], [], []
        self._by_n = None

    def add(self, function_id, n, u, lhs, rhs):
        self.rows.append(_RefRow(self.case, function_id, n, u, lhs, rhs))
        self._by_n = None

    def _groups(self):
        if self._by_n is None:
            self._by_n = {}
            for r in self.rows:
                g = self._by_n.setdefault(r.n, [])
                if math.isfinite(r.ratio) and r.ratio > 0:
                    g.append(r.ratio)
        return self._by_n

    def sizes(self):
        return sorted(self._groups())

    def ratios(self, n=None):
        groups = self._groups()
        if n is not None:
            return list(groups.get(n, ()))
        return [x for g in groups.values() for x in g]

    def window(self, n=None):
        ratios = self.ratios(n)
        if not ratios:
            return math.inf
        return max(ratios) / min(ratios)

    def stability(self):
        ns = self.sizes()
        if len(ns) < 2:
            return 0.0
        c0, c1 = self.window(ns[-2]), self.window(ns[-1])
        if not (math.isfinite(c0) and c0 > 0):
            return math.inf
        return abs(c1 - c0) / c0

    def to_csv(self, path):
        lines = ["case,function_id,n,u,lhs,rhs,ratio"]
        for r in self.rows:
            lines.append(",".join([
                _ref_quote(r.case), _ref_quote(r.function_id), str(r.n),
                _ref_fmt(r.u), _ref_fmt(r.lhs), _ref_fmt(r.rhs),
                _ref_fmt(r.ratio)]))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path):
        ns = self.sizes()
        agg = {"case": self.case, "sizes": ns,
               "windows": {str(n): self.window(n) for n in ns},
               "window": self.window(ns[-1]) if ns else math.inf,
               "stability": self.stability(), "rows": len(self.rows),
               "excluded": [list(e) for e in self.excluded],
               "notes": list(self.notes)}
        with open(path, "w", newline="\n") as fh:
            json.dump(agg, fh, indent=2, sort_keys=True)
            fh.write("\n")


IDS = ("pow:2", "powlog:2,-1", 'csv:a "b".csv', "csv:two\nlines.csv",
       "chi:0.1")
SPECIAL = (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300)


def _values(rng, m):
    """Lognormal floats, about a third of them replaced by SPECIAL."""
    v = rng.lognormal(0.0, 3.0, m)
    pick = rng.random(m) < 0.35
    v[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return v


def _summary(rep):
    """Everything a report answers, as reprs (bit for bit, NaN too)."""
    ns = rep.sizes()
    return repr((ns, rep.ratios(), [rep.ratios(n) for n in ns + [4096]],
                 rep.window(), [rep.window(n) for n in ns + [4096]],
                 rep.stability()))


def _fill(rng, rep, ref, steps):
    """Seeded single and bulk adds to both reports, each answer read
    now and then, so rows also arrive after a window was read."""
    for _ in range(steps):
        fid = IDS[rng.integers(len(IDS))]
        n = int(rng.choice((512, 1024, 2048)))
        m = int(rng.choice((0, 1, 2, 7, 40)))
        lhs, rhs = _values(rng, m), _values(rng, m)
        u = None if rng.random() < 0.3 else rng.random(m) * 10.0
        if m and rng.random() < 0.4:        # row by row through add
            for i in range(m):
                args = (fid, n, None if u is None else float(u[i]),
                        float(lhs[i]), float(rhs[i]))
                rep.add(*args)
                ref.add(*args)
        else:
            rep.add_rows(fid, n, u, lhs, rhs)
            for i in range(m):
                ref.add(fid, n, None if u is None else float(u[i]),
                        float(lhs[i]), float(rhs[i]))
        if rng.random() < 0.3:
            assert _summary(rep) == _summary(ref)


@pytest.mark.parametrize("seed", range(6))
def test_columnar_store_matches_row_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rep, ref = EquivalenceReport("c,1"), _RefReport("c,1")
    _fill(rng, rep, ref, 30)
    rep.exclude("pow:4", "a reason, quoted")
    ref.excluded.append(("pow:4", "a reason, quoted"))
    assert _summary(rep) == _summary(ref)
    assert rep.n_rows == len(ref.rows)
    assert [repr(tuple(vars(r).values())) for r in rep.rows] == \
           [repr((r.case, r.function_id, r.n, r.u, r.lhs, r.rhs))
            for r in ref.rows]
    for side, r in (("rep", rep), ("ref", ref)):
        r.to_csv(tmp_path / f"{side}.csv")
        r.to_json(tmp_path / f"{side}.json")
    for ext in ("csv", "json"):
        assert (tmp_path / f"rep.{ext}").read_bytes() == \
               (tmp_path / f"ref.{ext}").read_bytes()


def test_bulk_adds_cover_the_edge_rows(tmp_path):
    rep, ref = EquivalenceReport("c"), _RefReport("c")
    rows = [(None, 0.0, 0.0), (None, 2.0, 0.0), (None, 2.0, -0.0),
            (None, math.inf, 1.0), (None, -math.inf, 1.0),
            (None, 1.0, math.inf), (None, math.nan, 1.0),
            (None, 1.0, math.nan), (None, math.inf, math.inf)]
    u, lhs, rhs = zip(*rows)
    rep.add_rows("powlog:2,-1", 512, None, lhs, rhs)
    rep.add_rows("pow:2", 1024, [], [], [])    # empty: no rows, no size
    assert rep.window(512) == math.inf and rep.sizes() == [512]
    rep.add_rows("pow:2", 512, [0.25, 0.5], [1.0, 3.0], [1.0, 1.0])
    rep.add("pow:2", 512, 0.75, 2.0, 1.0)
    for r in rows:
        ref.add("powlog:2,-1", 512, *r)
    for r in ((0.25, 1.0, 1.0), (0.5, 3.0, 1.0), (0.75, 2.0, 1.0)):
        ref.add("pow:2", 512, *r)
    assert _summary(rep) == _summary(ref)
    assert rep.window(512) == 3.0
    rep.to_csv(tmp_path / "rep.csv")
    ref.to_csv(tmp_path / "ref.csv")
    text = (tmp_path / "rep.csv").read_text()
    assert text == (tmp_path / "ref.csv").read_text()
    assert text.splitlines()[1:4] == ['c,"powlog:2,-1",512,,0.0,0.0,inf',
                                      'c,"powlog:2,-1",512,,2.0,0.0,inf',
                                      'c,"powlog:2,-1",512,,2.0,-0.0,inf']
