"""EquivalenceReport: windows from ratios grouped by grid size, the
CSV rows it writes, and the grid x prototype sweep that fills it."""

import builtins
import csv
import io
import json
import math
import os

import numpy as np
import pytest

from interpolab import corpus, report
from interpolab.grid import UNIT, unit_grid
from interpolab.report import EquivalenceReport, _sweep


def test_windows_follow_every_add(tmp_path):
    rep = EquivalenceReport("c")
    rep.add_rows("f", 512, [0.5], [2.0], [1.0])
    rep.add_rows("f", 512, [0.7], [1.0], [1.0])
    assert rep.window(512) == 2.0
    # rows added after a window was read still count
    rep.add_rows("g", 512, [0.5], [4.0], [1.0])
    rep.add_rows("g", 1024, [0.5], [1.0], [0.0])     # ratio inf: left out
    rep.add_rows("g", 1024, [0.5], [0.0], [1.0])     # ratio 0: left out
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
    rep.add_rows("powlog:2,-1", 512, [0.5], [2.0], [1.0])
    rep.add_rows("chi:0.1", 1024, None, [1.5], [3.0])
    rep.add_rows('csv:a "b".csv', 1024, [1e-300], [0.1], [0.3])
    rep.add_rows("csv:two\nlines,.csv", 1024, [2.0], [0.0], [0.0])
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
    rep.add_rows("powlog:2,-1", 512, [0.5], [2.0], [1.0])
    rep.add_rows("chi:0.1", 512, None, [1.5], [3.0])
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
        if m and rng.random() < 0.4:        # row by row, one-row blocks
            for i in range(m):
                rep.add_rows(fid, n, None if u is None else u[i:i + 1],
                             lhs[i:i + 1], rhs[i:i + 1])
                ref.add(fid, n, None if u is None else float(u[i]),
                        float(lhs[i]), float(rhs[i]))
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
    rep.add_rows("pow:2", 512, [0.75], [2.0], [1.0])
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


def test_one_row_adds_match_the_array_path(tmp_path):
    # one-row blocks take the float path of add_rows; rhs = 0 gives
    # ratio inf and lhs = 0 ratio 0, neither of which enters a window
    rows = [(0.5, 2.0, 0.0), (0.25, 0.0, 1.0), (0.125, 3.0, 1.5),
            (1.0, 1e308, 1e-10), (2.0, 5.0, -0.0), (4.0, math.nan, 1.0),
            (8.0, math.inf, math.inf), (16.0, 1.0, 3.0), (32.0, 0.1, 0.7)]
    one, arr = EquivalenceReport("c"), EquivalenceReport("c")
    for fid, n, with_u in (("pow:2", 512, True), ("chi:1", 1024, False)):
        for k, (u, lhs, rhs) in enumerate(rows):
            kind = (list, tuple, np.asarray)[k % 3]
            one.add_rows(fid, n, kind([u]) if with_u else None,
                         kind([lhs]), kind([rhs]))
        u, lhs, rhs = map(np.asarray, zip(*rows))
        arr.add_rows(fid, n, u if with_u else None, lhs, rhs)
    assert [repr(r) for r in one.rows] == [repr(r) for r in arr.rows]
    assert one.sizes() == arr.sizes() == [512, 1024]
    assert _summary(one) == _summary(arr)
    # 1e308 / 1e-10 overflows to inf and rhs = -0.0 reads as 0
    assert one.ratios(512) == [2.0, 1.0 / 3.0, 0.1 / 0.7]
    one.to_csv(tmp_path / "one.csv")
    arr.to_csv(tmp_path / "arr.csv")
    text = (tmp_path / "one.csv").read_text()
    assert text == (tmp_path / "arr.csv").read_text()
    assert text.splitlines()[1:3] == ["c,pow:2,512,0.5,2.0,0.0,inf",
                                      "c,pow:2,512,0.25,0.0,1.0,0.0"]


@pytest.mark.parametrize("seed", range(4))
def test_running_ranges_match_a_rescan_after_every_add(seed):
    # blocks whose ratios are all inf or all 0, empty adds and adds to a
    # size read before: each answer equals the reference's rescan
    rng = np.random.default_rng(100 + seed)
    rep, ref = EquivalenceReport("c"), _RefReport("c")
    for _ in range(40):
        n = int(rng.choice((512, 1024, 2048)))
        m = int(rng.choice((0, 1, 3, 9)))
        lhs, rhs = _values(rng, m), _values(rng, m)
        pick = rng.random()
        if pick < 0.15:
            rhs[:] = 0.0                    # ratio inf throughout
        elif pick < 0.3:
            lhs[:] = 0.0                    # ratio 0 throughout
        rep.add_rows("f", n, None, lhs, rhs)
        for a, b in zip(lhs.tolist(), rhs.tolist()):
            ref.add("f", n, None, a, b)
        assert _summary(rep) == _summary(ref)
        assert repr([rep.window(n) for n in (None, 512, 1024, 2048)]) == \
            repr([ref.window(n) for n in (None, 512, 1024, 2048)])
        assert repr(rep.stability()) == repr(ref.stability())


def test_split_point_text_is_repr_across_reports(tmp_path):
    # two reports share nodes of one grid; the text of a node written by
    # the first is read by the second, and 0.0, -0.0, NaN, inf and
    # negative points, never kept, keep their own text
    g = unit_grid(1024)
    us = g.t[g.interior()][::8]
    odd = [0.0, -0.0, math.nan, math.inf, -math.inf, -0.5, 5e-324]
    one, two = EquivalenceReport("one"), EquivalenceReport("two")
    one.add_rows("f", 1024, np.r_[us, odd], np.ones(len(us) + 7),
                 np.ones(len(us) + 7))
    shared = np.r_[us[::3], us[1::5] * 1.5]
    two.add_rows("g", 1024, np.r_[odd[::-1], shared],
                 np.ones(len(shared) + 7), np.ones(len(shared) + 7))
    for rep in (one, two, one):
        rep.to_csv(tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            got = [r["u"] for r in csv.DictReader(fh)]
        assert got == [repr(r.u) for r in rep.rows]
    assert "0.0" in got and "-0.0" in got and "nan" in got
    assert all(0.0 < u < math.inf for u in report._U_TEXT)


# -- _sweep: the one grid x prototype loop of the harnesses ---------------

def _spec_of(fstar, specs):
    """The spec in specs whose sample on fstar's grid is fstar."""
    return next(s for s in specs if np.array_equal(
        corpus.sample(s, fstar.grid).values, fstar.values))


def test_sweep_adds_blocks_size_major_in_corpus_order():
    specs = ("chi:1", "chi:0.5", "pow:2")
    calls = []

    def rows(fstar):
        n, spec = fstar.grid.n, _spec_of(fstar, specs)
        calls.append((n, spec))
        if spec == "chi:0.5":
            return f"left out at n={n}, on purpose"
        u = None if spec == "chi:1" else [0.25, 0.5]
        return u, [float(n), 2.0], [1.0, 0.0]

    rep = _sweep("c", specs, UNIT, (9, 10), rows)
    assert rep.case == "c"
    assert calls == [(n, s) for n in (512, 1024) for s in specs]
    assert [(r.function_id, r.n, r.u, r.lhs, r.rhs) for r in rep.rows] == [
        ("chi:1", 512, None, 512.0, 1.0), ("chi:1", 512, None, 2.0, 0.0),
        ("pow:2", 512, 0.25, 512.0, 1.0), ("pow:2", 512, 0.5, 2.0, 0.0),
        ("chi:1", 1024, None, 1024.0, 1.0), ("chi:1", 1024, None, 2.0, 0.0),
        ("pow:2", 1024, 0.25, 1024.0, 1.0), ("pow:2", 1024, 0.5, 2.0, 0.0)]
    assert rep.excluded == [("chi:0.5", "left out at n=512, on purpose"),
                            ("chi:0.5", "left out at n=1024, on purpose")]
    assert rep.window(512) == 1.0 and rep.sizes() == [512, 1024]


def test_sweep_without_a_corpus_runs_the_standard_one():
    seen = []

    def rows(fstar):
        seen.append(_spec_of(fstar, corpus.STANDARD))
        return "x"

    rep = _sweep("c", None, UNIT, (9,), rows)
    assert tuple(seen) == corpus.STANDARD
    assert rep.excluded == [(s, "x") for s in corpus.STANDARD]
    assert rep.n_rows == 0 and rep.sizes() == []


def test_sweep_reads_a_corpus_file_once(tmp_path, monkeypatch):
    path = tmp_path / "corpus.txt"
    path.write_text("# two prototypes\nchi:0.5\npow:2\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rep = _sweep("c", str(path), UNIT, (9, 10, 11),
                 lambda f: (None, [1.0], [1.0]))
    assert len(opened) == 1
    assert [(r.function_id, r.n) for r in rep.rows] == [
        (s, n) for n in (512, 1024, 2048) for s in ("chi:0.5", "pow:2")]


def test_sweep_parses_a_csv_prototype_once(tmp_path, monkeypatch):
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n0.01,3\n0.5,1\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    spec = f"csv:{path}"
    seen = []

    def rows(fstar):
        seen.append(fstar.values)
        return None, [1.0], [1.0]

    _sweep("c", (spec, "chi:0.5"), UNIT, (9, 10, 11), rows)
    assert len(opened) == 1
    # f* sampled from the parsed function is f* sampled from the spec
    want = [corpus.sample(spec, unit_grid(1 << k)).values
            for k in (9, 10, 11)]
    assert all(np.array_equal(a, b) for a, b in zip(seen[::2], want))


def test_sweep_takes_a_parsed_corpus_as_it_is(tmp_path, monkeypatch):
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n0.01,3\n0.5,1\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    spec = f"csv:{path}"
    fns = corpus.parse_corpus(f"{spec};chi:0.5")
    assert [s for s, _ in fns] == [spec, "chi:0.5"] and len(opened) == 1
    assert corpus.parse_corpus(fns) == fns      # the same pairs
    rep = _sweep("c", fns, UNIT, (9, 10), lambda f: (None, [1.0], [1.0]))
    assert len(opened) == 1
    assert [(r.function_id, r.n) for r in rep.rows] == [
        (s, n) for n in (512, 1024) for s in (spec, "chi:0.5")]
