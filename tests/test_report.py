"""EquivalenceReport: windows from ratios grouped by grid size, and the
CSV rows it writes."""

import csv
import io
import math
import os

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
