"""EquivalenceReport: windows from ratios grouped by grid size."""

import math

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
