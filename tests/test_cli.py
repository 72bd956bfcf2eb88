"""Command line entry point: exit codes, printed lines, report files."""

import json
import math

import pytest

from interpolab.cli import main
from interpolab.grid import RiSpace
from interpolab.spaces import ThetaSpace, space_to_obj
from interpolab.sv import ONE

L1 = RiSpace(1.0)
L2 = RiSpace(2.0)


def _write_space(path, desc):
    path.write_text(json.dumps(space_to_obj(desc)))
    return str(path)


def test_norm_ok(tmp_path, capsys):
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert all("[ok]" in ln for ln in lines[:-1])
    value = float(lines[-1])
    assert math.isfinite(value) and value > 0


def test_norm_inadmissible_space(tmp_path, capsys):
    spath = _write_space(tmp_path / "bad.json", ThetaSpace(1.0, ONE, L1))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9"])
    out = capsys.readouterr().out
    assert code == 2
    assert "DIVERGENT" in out


def test_norm_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = main(["norm", "--space", str(p), "--fn", "chi:0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "malformed" in err


def test_norm_missing_file(tmp_path, capsys):
    code = main(["norm", "--space", str(tmp_path / "nope.json"),
                 "--fn", "chi:0.5"])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_norm_bad_function_spec(tmp_path, capsys):
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "wavelet:3",
                 "--grid", "9"])
    assert code == 1
    assert "bad function spec" in capsys.readouterr().err


def test_verify_bad_grid_size(capsys):
    code = main(["verify", "identity", "--name", "ultra-as-theta",
                 "--n", "1000"])
    assert code == 1
    assert "power of two" in capsys.readouterr().err


def test_verify_identity_writes_deterministic_csv(tmp_path, capsys):
    args = ["verify", "identity", "--name", "ultra-as-theta",
            "--grid", "9", "--window-max", "1.5"]
    code = main(args + ["--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    assert code == 0
    assert "window=" in out1 and "excluded=0" in out1
    csv1 = tmp_path / "a" / "identity_ultra-as-theta.csv"
    assert csv1.exists()
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    csv2 = tmp_path / "b" / "identity_ultra-as-theta.csv"
    assert csv1.read_bytes() == csv2.read_bytes()


def test_verify_identity_unknown_name(capsys):
    code = main(["verify", "identity", "--name", "no-such-identity"])
    assert code == 1
    assert "unknown id" in capsys.readouterr().err


def test_verify_holmstedt_inline_corpus(capsys):
    code = main(["verify", "holmstedt", "--case", "R_x0",
                 "--grid", "9", "--corpus", "chi:0.1;pow:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("R_x0:")


def test_verify_holmstedt_unknown_case(capsys):
    code = main(["verify", "holmstedt", "--case", "R_nowhere"])
    assert code == 1
    assert "unknown case" in capsys.readouterr().err


def test_verify_reiteration_alias(capsys):
    code = main(["verify", "reiteration", "--case", "ThmR_interior",
                 "--theta", "0.5", "--grid", "9",
                 "--corpus", "chi:0.1;pow:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("R_interior:")


def test_verify_threshold_exceeded(capsys):
    code = main(["verify", "identity", "--name", "ultra-as-theta",
                 "--grid", "9", "--window-max", "1.0001"])
    out = capsys.readouterr().out
    assert code == 3
    assert "window=" in out


GRAND = {"kind": "grand", "p": 2, "alpha": 1}


def _norm_of_literal(tmp_path, obj):
    p = tmp_path / "desc.json"
    p.write_text(json.dumps(obj))
    return main(["norm", "--space", str(p), "--fn", "chi:0.5",
                 "--grid", "9"])


def test_norm_app_without_setting_is_unit(tmp_path, capsys):
    code = _norm_of_literal(tmp_path, {"kind": "app", "space": GRAND})
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "admissibility: parameter checks passed"
    assert math.isfinite(float(lines[-1]))


@pytest.mark.parametrize("obj", [
    {"kind": "app", "setting": "full", "space": GRAND},
    {"kind": "intersection", "members": []},
    {"kind": "theta", "theta": 0.5, "E": {"q": 2},
     "b": {"kind": "product", "args": []}},
], ids=["app-full", "empty-intersection", "empty-product"])
def test_norm_bad_descriptor_exits_1(tmp_path, capsys, obj):
    code = _norm_of_literal(tmp_path, obj)
    assert code == 1
    assert "bad descriptor field" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["x", "-1", "9,10", "21"])
def test_norm_bad_grid_exits_1_before_building(tmp_path, capsys,
                                               monkeypatch, grid):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr("interpolab.cli.Grid.from_bounds", no_grid)
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
