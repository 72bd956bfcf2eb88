"""Command line entry point: exit codes, printed lines, report files."""

import builtins
import concurrent.futures
import json
import math
import os
import platform
import subprocess
import sys
import warnings

import pytest

import interpolab
from interpolab import cli
from interpolab.applications import GrandLp
from interpolab.cli import main
from interpolab.grid import RiSpace
from interpolab.spaces import (FULL, UNIT, AppMember, EndpointX0,
                               EndpointX1, Intersection, LLSpace, LSpace,
                               RRSpace, RSpace, ThetaSpace)
from interpolab.sv import ONE, EllPow, NormTail

from util import APP_SPACES, couple_reverse

L1 = RiSpace(1.0)
L2 = RiSpace(2.0)


def _write_space(path, desc):
    path.write_text(json.dumps(desc.to_obj()))
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


NEG_CSV = "t,value\n0.001,2\n0.5,-1\n5,-1\n"


@pytest.mark.parametrize("fn", ["bogus:1", "csv:{tmp}/missing.csv",
                                "csv:{tmp}/neg.csv"])
@pytest.mark.parametrize("space", [
    ThetaSpace(1.0, ONE, L1).to_obj(),
    {"kind": "app", "space": {"kind": "grand", "p": 1, "alpha": 1}},
], ids=["theta", "app"])
def test_norm_reads_the_function_before_the_admissibility_verdict(
        tmp_path, capsys, space, fn):
    # both spaces are inadmissible: a bad --fn is still an input error,
    # reported before any verdict is printed
    (tmp_path / "neg.csv").write_text(NEG_CSV)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(space))
    code = main(["norm", "--space", str(p), "--grid", "9",
                 "--fn", fn.replace("{tmp}", str(tmp_path))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad function spec")


def test_norm_of_a_function_outside_l1_plus_linf_exits_2(tmp_path, capsys):
    # K(., f; L1, Linf) cannot be formed from this f*: a verdict, not a
    # traceback
    spath = _write_space(tmp_path / "theta.json", ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "powlog:1.01,1",
                 "--grid", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == (
        "norm: f* is not locally integrable near 0 (not in L1 + Linf)")


@pytest.mark.parametrize("argv", [
    ["identity", "--name", "small-as-L"],
    ["reiteration", "--case", "ThmR_interior"],
    ["holmstedt", "--case", "R_interior"],
], ids=["identity", "reiteration", "holmstedt"])
def test_verify_excludes_a_function_outside_l1_plus_linf(capsys, argv):
    code = main(["verify", *argv, "--grid", "9",
                 "--corpus", "powlog:1.01,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert "rows=0 excluded=1" in captured.out


def test_verify_repeated_grid_size_exits_1(capsys, monkeypatch):
    # a repeated size would sweep twice and compare a grid with itself
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli.holmstedt_mod, "verify_holmstedt", no_sweep)
    code = main(["verify", "holmstedt", "--case", "R_x0", "--corpus",
                 "chi:0.1", "--grid", "9,9"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "distinct" in captured.err


def test_verify_bad_grid_size(capsys):
    code = main(["verify", "identity", "--name", "ultra-as-theta",
                 "--grid", "21"])
    assert code == 1
    assert "must be in [8, 20]" in capsys.readouterr().err


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs
    the calls in this process."""
    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(it) for it in items]


@pytest.mark.parametrize("name,jobs,workers", [
    ("all", "64", "all"), ("all", "3", [3]), ("all", "1", []),
    ("ultra-as-theta", "8", [])])
def test_verify_identity_jobs_start_at_most_one_worker_per_scenario(
        capsys, monkeypatch, name, jobs, workers):
    from interpolab.report import EquivalenceReport
    monkeypatch.setattr(_FakePool, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(cli, "_run_identity",
                        lambda payload: EquivalenceReport(payload[0]))
    n = len(cli.app_mod.scenario_names()) if name == "all" else 1
    main(["verify", "identity", "--name", name, "--jobs", jobs])
    out = capsys.readouterr().out
    assert _FakePool.started == ([n] if workers == "all" else workers)
    assert len(out.strip().splitlines()) == n


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_1_exits_1(capsys, monkeypatch, jobs):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_sweep)
    monkeypatch.setattr(cli, "_run_identity", no_sweep)
    code = main(["verify", "identity", "--name", "all", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: --jobs must be at least 1")


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


@pytest.mark.parametrize("argv", [
    ["verify", "identity", "--n", "1024"],      # was taken as --name
    ["verify", "holmstedt", "--grid", "9", "--corpus", "chi:0.1",
     "--win", "2"],                             # was taken as --window-max
])
def test_option_prefixes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,msg", [
    (["norm", "--fn", "chi:0.5"],
     "the following arguments are required: --space"),
    (["verify", "identity", "--n", "1024"], "unrecognized arguments: --n"),
    (["verify", "nowhere"], "invalid choice: 'nowhere'"),
], ids=["norm-without-space", "verify-n", "bad-target"])
def test_usage_errors_exit_1_with_the_usage(capsys, argv, msg):
    # exit 2 is left to the verdicts (inadmissible space, divergent norm)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: interpolab ")
    assert msg in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: interpolab")


def test_verify_holmstedt_inline_corpus(capsys):
    code = main(["verify", "holmstedt", "--case", "R_x0",
                 "--grid", "9", "--corpus", "chi:0.1;pow:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("R_x0:")


def test_verify_holmstedt_unknown_case(capsys):
    # the error lists the six cases and the reiteration scenarios
    code = main(["verify", "holmstedt", "--case", "R_nowhere"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown case; available: R_interior, R_theta0_zero, R_x0, " \
        "L_interior, L_theta1_one, L_x1;" in err
    assert "l1-grand" in err and "small-ultra" in err


@pytest.mark.parametrize("name", ["l1-grand", "small-ultra"])
def test_verify_holmstedt_by_scenario_name_writes_the_harness_report(
        tmp_path, name):
    # an R couple and an L couple of the reiteration registry, over (0, 1)
    from interpolab.applications import _reiterations
    from interpolab.holmstedt import HolmstedtCase, verify_holmstedt
    corpus = "chi:0.1;pow:4"
    code = main(["verify", "holmstedt", "--case", name, "--grid", "9",
                 "--corpus", corpus, "--out", str(tmp_path / "cli")])
    assert code == 0
    case = HolmstedtCase(*_reiterations()[name].couple)
    verify_holmstedt(case, corpus=corpus, log2n=(9,)).write(
        str(tmp_path / "harness"), f"holmstedt_{name}")
    got, want = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                 for d in ("cli", "harness"))
    assert sorted(got) == [f"holmstedt_{name}.{ext}" for ext in ("csv",
                                                                  "json")]
    assert got == want


def test_verify_reiteration_alias(capsys):
    code = main(["verify", "reiteration", "--case", "ThmR_interior",
                 "--theta", "0.5", "--grid", "9",
                 "--corpus", "chi:0.1;pow:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("R_interior:")


def test_verify_reiteration_unknown_case_lists_plain_names(capsys):
    code = main(["verify", "reiteration", "--case", "bogus"])
    err = capsys.readouterr().err
    assert code == 1
    assert "available: R_interior, R_theta0_zero, R_x0, L_interior, " \
        "L_theta1_one, L_x1," in err
    assert "Thm prefix" in err


def test_verify_reiteration_thm_prefix_writes_the_same_reports(tmp_path):
    # as does --theta -0.0 those of --theta 0: both name one space
    for pair in (("L_x1", "0.5"), ("ThmL_x1", "0.5")), \
            (("ThmR_x0", "-0.0"), ("ThmR_x0", "0")):
        files = []
        for name, theta in pair:
            out = tmp_path / f"{name}_{theta}"
            code = main(["verify", "reiteration", "--case", name, "--theta",
                         theta, "--grid", "9", "--corpus", "chi:0.1;pow:2",
                         "--out", str(out)])
            assert code == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(files[0]) == 2
        assert files[0] == files[1]


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
    # validate passes and leaves no admissibility condition to print
    assert len(lines) == 1 and math.isfinite(float(lines[0]))


_W, _E = {"kind": "const", "c": 1.0}, {"q": 2}


def _ll(theta):
    return {"kind": "LL", "theta": theta, "c": _W, "E": _E, "b": _W,
            "F": _E, "a": _W, "G": _E}


@pytest.mark.parametrize("obj", [
    {"kind": "app", "setting": "full", "space": GRAND},
    {"kind": "intersection", "members": []},
    {"kind": "theta", "theta": 0.5, "E": {"q": 2},
     "b": {"kind": "product", "args": []}},
    _ll(-0.5),
    _ll(2),
    {"kind": "theta", "theta": 0.5, "b": _W, "E": _E, "setting": "unti"},
    {"kind": "intersection", "members": [
        {"kind": "theta", "theta": 0.5, "b": _W, "E": _E, "setting": s}
        for s in ("full", "unit")]},
    {"kind": "theta", "theta": 0.5, "b": {"kind": "ell", "alpha": "nan"},
     "E": _E},
    {"kind": "app", "space": {"kind": "ultra", "p": 2, "E": _E, "b": {
        "kind": "power", "base": {"kind": "ell", "alpha": 1}, "r": "nan"}}},
    {"kind": "theta", "theta": 0.5, "E": _E,
     "b": {"kind": "iterated_ell", "depth": 2.7, "alpha": 1}},
    {"kind": "theta", "theta": 0.5, "E": _E,
     "b": {"kind": "iterated_ell", "depth": 10 ** 400, "alpha": 1}},
    {"kind": "theta", "theta": 0.5, "E": _E,
     "b": {"kind": "iterated_ell", "depth": 10 ** 9, "alpha": 1}},
], ids=["app-full", "empty-intersection", "empty-product", "LL-theta-neg",
        "LL-theta-2", "setting-typo", "mixed-settings", "nan-alpha",
        "nan-power-in-ultra", "fractional-depth", "huge-depth",
        "billion-depth"])
def test_norm_bad_descriptor_exits_1(tmp_path, capsys, obj):
    code = _norm_of_literal(tmp_path, obj)
    assert code == 1
    assert "bad descriptor field" in capsys.readouterr().err


def test_norm_non_utf8_file_exits_1(tmp_path, capsys):
    # a UTF-16 file with its byte-order mark ended in a UnicodeDecodeError
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    code = main(["norm", "--space", str(p), "--fn", "chi:0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: malformed JSON in {p}: ")


@pytest.mark.parametrize("depth,msg", [(600, "bad descriptor field"),
                                       (5000, "malformed JSON")])
def test_norm_deeply_nested_descriptor_exits_1(tmp_path, capsys, depth, msg):
    # power nodes nested 600 deep overflow the recursion limit of the
    # wire decoder, 5000 deep that of the JSON reader; both were
    # RecursionError tracebacks
    b = '{"kind": "ell", "alpha": -1}'
    for _ in range(depth):
        b = f'{{"kind": "power", "base": {b}, "r": 1}}'
    p = tmp_path / "deep.json"
    p.write_text(f'{{"kind": "theta", "theta": 0.5, "E": {{"q": 2}}, '
                 f'"b": {b}}}')
    code = main(["norm", "--space", str(p), "--fn", "chi:0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {msg}")


def _one_descriptor_of_each_kind():
    """One admissible descriptor of each wire kind, an app member of
    each concrete kind among them, by kind."""
    from interpolab.applications import get_scenario
    ell, linf = EllPow(-1.0), RiSpace(math.inf)
    kinds = {
        "x0": EndpointX0(), "x1": EndpointX1(),
        "theta": ThetaSpace(0.5, ONE, L2),
        "L": LSpace(0.5, ell, L2, ONE, linf),
        "R": RSpace(0.5, ell, L2, ONE, linf),
        "LL": LLSpace(0.5, ell, L2, EllPow(-0.5), linf, ONE, L2),
        "RR": RRSpace(0.5, ell, L2, EllPow(-0.5), linf, ONE, L2),
        "intersection": Intersection((ThetaSpace(0.5, ONE, L2),
                                      RSpace(1.0, ell, linf, ONE, L2))),
        "over": get_scenario("small-grand-interior").lhs}
    for space in APP_SPACES:
        kinds[f"app-{space._kind}"] = AppMember(space)
    return kinds


@pytest.mark.parametrize("kind", list(_one_descriptor_of_each_kind()))
def test_norm_of_a_function_vanishing_on_the_grid_is_0(tmp_path, capsys,
                                                       kind):
    # chi:1e-30 is 0 at every node of the default grids: the norm of an
    # f* that is 0 throughout is 0 whatever the space, by the usual path
    desc = _one_descriptor_of_each_kind()[kind]
    spath = _write_space(tmp_path / "space.json", desc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--space", spath, "--fn", "chi:1e-30",
                     "--grid", "9"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 0 and captured.err == ""
    assert lines[-1] == "0.0"
    assert all(ln.startswith("admissibility:") and "DIVERGENT" not in ln
               for ln in lines[:-1])


@pytest.mark.parametrize("space", APP_SPACES, ids=lambda s: s._kind)
def test_norm_app_of_a_sample_past_float_max_at_t_min_names_it(
        tmp_path, capsys, space):
    # f*(t_min) overflows to inf: the A- and B-type recipes took
    # math.log(0) in the head of f**, and grand, small and ggamma warned
    # and printed "divergent" for an integrable f*
    spath = _write_space(tmp_path / "app.json", AppMember(space))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--space", spath, "--fn", "powlog:1.0001,1.51",
                     "--grid", "10", "--tmin", "1e-304", "--tmax", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.splitlines()[-1] == ("norm: the sample of f* at "
                                             "t_min is out of float range")


def test_norm_divergent_tail_norm_parameter_exits_2(tmp_path, capsys):
    # a = ||l^0||_{L1~(0,t)} diverges at every t: no level can be formed
    a = NormTail(EllPow(0.0), L1, "lower")
    spath = _write_space(tmp_path / "tail.json",
                         LSpace(0.5, ONE, L2, a, L2))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("admissibility: parameter tail norm = inf "
                            "[DIVERGENT]\n")
    assert captured.err == ""


@pytest.mark.parametrize("space,msg", [
    ({"kind": "linfq", "q": 0, "beta": -1}, "q must be in [1, inf], got 0.0"),
    ({"kind": "linfq", "q": 0.5, "beta": -3},
     "q must be in [1, inf], got 0.5"),
    ({"kind": "atype", "p": 0.5, "alpha": 0, "E": {"q": 2}},
     "A-type space needs p >= 1"),
    ({"kind": "atype", "p": 0, "alpha": 0, "E": {"q": 2}},
     "A-type space needs p >= 1"),
    ({"kind": "btype", "p": 0, "alpha": 0, "E": {"q": 2}},
     "B-type space needs p >= 1"),
    ({"kind": "btype", "p": -1, "alpha": 0, "E": {"q": 2}},
     "B-type space needs p >= 1"),
    ({"kind": "grand", "p": "inf", "alpha": 1}, "grand space needs p < inf"),
    ({"kind": "small", "p": "inf", "alpha": 1}, "small space needs p < inf"),
    ({"kind": "ggamma", "p": "inf", "q": 2, "w1pow": -1,
      "w1sv": {"kind": "ell", "alpha": -3}, "w2pow": 0,
      "w2sv": {"kind": "const", "c": 1}}, "GGamma needs p < inf"),
    ({"kind": "grand", "p": 2, "alpha": "inf"},
     "grand space needs alpha < inf"),
    ({"kind": "small", "p": 2, "alpha": "inf"},
     "small space needs alpha < inf"),
    ({"kind": "linfq", "q": "inf", "beta": "-inf"}, "needs beta > -inf"),
    ({"kind": "linfq", "q": 2, "beta": "-inf"}, "needs beta > -inf"),
    ({"kind": "atype", "p": 4, "alpha": "-inf", "E": _E},
     "A-type space needs -inf < alpha < 1"),
    ({"kind": "btype", "p": 2, "alpha": "inf", "E": _E},
     "B-type space needs a finite alpha"),
    ({"kind": "btype", "p": 2, "alpha": "-inf", "E": _E},
     "B-type space needs a finite alpha"),
    *(({"kind": "ggamma", "p": 2, "q": 2, "w1pow": -1, "w1sv": _W,
        "w2pow": 0, "w2sv": _W, w: v}, "GGamma needs finite w1pow and w2pow")
      for w in ("w1pow", "w2pow") for v in ("inf", "-inf")),
], ids=["linfq-q0", "linfq-q-half", "atype-p-half", "atype-p0",
        "btype-p0", "btype-p-neg", "grand-p-inf", "small-p-inf",
        "ggamma-p-inf", "grand-alpha-inf", "small-alpha-inf",
        "linfq-q-inf-beta-neg-inf", "linfq-q2-beta-neg-inf",
        "atype-alpha-neg-inf", "btype-alpha-inf", "btype-alpha-neg-inf",
        "ggamma-w1pow-inf", "ggamma-w1pow-neg-inf", "ggamma-w2pow-inf",
        "ggamma-w2pow-neg-inf"])
def test_norm_bad_concrete_space_parameters(tmp_path, capsys, space, msg):
    # q = 0 ended in a ZeroDivisionError traceback; the others passed
    # validation and printed a number, or numpy warnings and "divergent"
    # (ggamma with p = inf printed the same number for every chi:a, and
    # an infinite alpha, beta, w1pow or w2pow printed "divergent")
    code = _norm_of_literal(tmp_path, {"kind": "app", "space": space})
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert captured.out == f"admissibility: {msg} = inf [DIVERGENT]\n"


@pytest.mark.parametrize("space,args,last,code", [
    *((s, ("--fn", "chi:0.5", "--grid", "9"), None, 0) for s in APP_SPACES),
    (GrandLp(2.0, 1.0), ("--fn", "powlog:1.01,1", "--grid", "10"),
     "35196.42347443801", 0),
    (GrandLp(0.5, 1.0), ("--fn", "chi:0.5", "--grid", "9"),
     "admissibility: grand space needs p > 1 = inf [DIVERGENT]", 2),
], ids=[*(s._kind for s in APP_SPACES), "grand-powlog1.01", "grand-p-half"])
def test_norm_concrete_space_alone_is_its_one_member_intersection(
        tmp_path, capsys, space, args, last, code):
    # alone, a concrete space went through a second path: grand(2, 1) on
    # powlog:1.01,1 printed a number where the intersection exited 2 (f*
    # not locally integrable), and with p = 0.5 the two worded the
    # refusal differently.  That number is wrong, as the true norm is
    # infinite: the grand recipe takes no edge decision (ROADMAP defect
    # 10), so its mend moves it.
    got = []
    for desc in (AppMember(space), Intersection((AppMember(space),))):
        spath = _write_space(tmp_path / "space.json", desc)
        rc = main(["norm", "--space", spath, *args])
        got.append((capsys.readouterr().out, rc))
    assert got[0] == got[1] and got[0][1] == code
    assert last is None or got[0][0].splitlines()[-1] == last


@pytest.mark.parametrize("desc", [
    AppMember(APP_SPACES[0]),
    Intersection(tuple(AppMember(s) for s in APP_SPACES))],
    ids=["app", "intersection-of-apps"])
def test_norm_of_concrete_spaces_forms_no_k(tmp_path, capsys, monkeypatch,
                                            desc):
    # no concrete-space norm reads K, so the CLI does not form it
    def refuse(fstar):
        raise AssertionError("k_peetre called")

    monkeypatch.setattr(cli, "k_peetre", refuse)
    spath = _write_space(tmp_path / "space.json", desc)
    code = main(["norm", "--space", spath, "--fn", "chi:0.5", "--grid", "9"])
    assert code == 0
    assert math.isfinite(float(capsys.readouterr().out.splitlines()[-1]))


@pytest.mark.parametrize("side", ["lhs", "reiteration"])
@pytest.mark.parametrize("args,reason", [
    (("--fn", "powlog:1.01,1", "--grid", "10"),
     "f* is not locally integrable near 0 (not in L1 + Linf)"),
    (("--fn", "powlog:1.0001,1.51", "--grid", "10", "--tmin", "1e-304"),
     "the sample of f* at t_min is out of float range"),
], ids=["not-integrable", "sample-out-of-range"])
def test_norm_over_keeps_the_refusals_of_k(tmp_path, capsys, side, args,
                                           reason):
    # an over's oracle is built from K(t, f; L1, Linf), so the CLI forms K
    # for it: an f* whose K cannot be formed is refused with the reason,
    # not normed as divergent
    from interpolab.applications import get_scenario
    desc = getattr(get_scenario("l1-grand"), side)
    spath = _write_space(tmp_path / "over.json", desc)
    code = main(["norm", "--space", spath, *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.splitlines()[-1] == f"norm: {reason}"


def _over_descriptors():
    from interpolab.applications import get_scenario
    from interpolab.holmstedt import DEFAULT_CASES
    from interpolab.spaces import Over
    rhs = get_scenario("small-grand-theta0").rhs
    c = DEFAULT_CASES["L_interior"]
    return {"unit": rhs.members[1],
            "full": Over((c.y0, c.y1), ThetaSpace(0.5, EllPow(-1.0), L2))}


@pytest.mark.parametrize("fn", ["chi:0.5", "pow:2"])
@pytest.mark.parametrize("setting", ["unit", "full"])
def test_norm_over_a_derived_couple(tmp_path, capsys, setting, fn):
    # the norm comes from a truncation oracle; a divergent one exits 2
    spath = _write_space(tmp_path / "over.json",
                         _over_descriptors()[setting])
    code = main(["norm", "--space", spath, "--fn", fn, "--grid", "9"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        assert math.isfinite(float(captured.out.strip().splitlines()[-1]))


def test_norm_over_checks_the_couple_members(tmp_path, capsys):
    from interpolab.applications import GrandLp
    from interpolab.spaces import AppMember, EndpointX0, Over
    bad = Over((EndpointX0(UNIT), AppMember(GrandLp(0.5, 1.0))),
               ThetaSpace(0.5, ONE, L2, UNIT))
    spath = _write_space(tmp_path / "over.json", bad)
    code = main(["norm", "--space", spath, "--fn", "chi:0.5", "--grid", "9"])
    out = capsys.readouterr().out
    assert code == 2
    assert "grand space needs p > 1" in out and "DIVERGENT" in out


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


@pytest.mark.parametrize("setting", [FULL, UNIT])
@pytest.mark.parametrize("bound", [("--tmin", "0"), ("--tmax", "0"),
                                   ("--tmax", "inf"), ("--tmin", "nan"),
                                   ("--tmin", "1e-305"), ("--tmin", "9e-305"),
                                   ("--tmin", "5e-324")],
                         ids=["tmin0", "tmax0", "tmax-inf", "tmin-nan",
                              "tmin-1e-305", "tmin-9e-305", "tmin-subnormal"])
def test_norm_bad_bounds_exit_1(tmp_path, capsys, setting, bound):
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L2, setting))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9", *bound])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad grid:")


@pytest.mark.parametrize("desc,fn,want", [
    (EndpointX0(), "chi:0.5", None),
    (EndpointX0(UNIT), "chi:0.5", None),
    (EndpointX0(), "csv:{tmp}/tiny.csv", None),
    (ThetaSpace(0.5, ONE, L2), "pow:2", "norm: divergent for this function"),
], ids=["x0-chi", "x0-unit-chi", "x0-tiny-csv", "theta-pow"])
def test_norm_tmin_near_exp_minus_700_never_prints_0(tmp_path, capsys, desc,
                                                     fn, want):
    # below e^-700 (~9.9e-305) the K head is not computed and the grid is
    # refused.  Just above it a step of 1e-30 still has v(t_min) t_min =
    # 1e-334 below the least subnormal, so K(t_min) = 0 while K(0.5) =
    # 5e-31; the K/t repair must not start its minimum at that 0
    (tmp_path / "tiny.csv").write_text("t,value\n0.001,1e-30\n0.5,1e-30\n")
    spath = _write_space(tmp_path / "space.json", desc)
    code = main(["norm", "--space", spath, "--fn", fn.format(tmp=tmp_path),
                 "--grid", "10", "--tmin", "1e-304"])
    last = capsys.readouterr().out.splitlines()[-1]
    if want is None:
        assert code == 0 and float(last) > 0.0
    else:
        assert code == 2 and last == want


def test_norm_of_a_step_near_float_max_warns_nothing(tmp_path, capsys):
    # the trapezoid of two samples near 1e308 overflows; a RuntimeWarning
    # used to reach stderr beside the verdict
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("t,value\n0.001,1e308\n0.5,1e308\n")
    spath = _write_space(tmp_path / "theta.json", ThetaSpace(0.5, ONE, L2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--space", spath, "--fn", f"csv:{csv_path}",
                     "--grid", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out == "norm: divergent for this function\n"


def test_norm_of_a_sample_past_float_max_at_t_min_names_it(tmp_path, capsys):
    # f*(t_min) overflows to inf while f*(t_1) = 9.1e307 is finite; the
    # head of K used to take math.log(0) and print "math domain error"
    spath = _write_space(tmp_path / "theta.json", ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "powlog:1.0001,1.51",
                 "--grid", "10", "--tmin", "1e-304"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[-1] == ("norm: the sample of f* at t_min is "
                                    "out of float range")
    assert "math domain error" not in out


@pytest.mark.parametrize("desc,tmin,tmax", [
    (ThetaSpace(1.0, ONE, L1), "2", "10"),
    (ThetaSpace(0.0, ONE, L1), "1e-3", "0.5"),
    (RSpace(1.0, ONE, L1, ONE, L1), "2", "10"),
], ids=["theta1", "theta0", "R"])
def test_norm_full_grid_without_t_1_exits_1(tmp_path, capsys, monkeypatch,
                                            desc, tmin, tmax):
    # the admissibility conditions split at t = 1: on a full-line grid
    # that misses it, a condition over the side it misses has no nodes
    def never(*args, **kwargs):
        raise AssertionError("a norm was taken")

    for name in ("interpolab.cli.k_peetre", "interpolab.cli.norm_in_space"):
        monkeypatch.setattr(name, never)
    spath = _write_space(tmp_path / "space.json", desc)
    code = main(["norm", "--space", spath, "--fn", "chi:0.5", "--grid",
                 "10", "--tmin", tmin, "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad grid:")


def _nothing_is_sampled_or_normed(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a function was sampled or normed")

    for name in ("interpolab.corpus.sample", "interpolab.cli.norm_in_space",
                 "interpolab.applications.norm_app"):
        monkeypatch.setattr(name, never)


@pytest.mark.parametrize("tmax", ["1.5", "10", "1000"])
def test_norm_unit_setting_rejects_tmax_above_1(tmp_path, capsys,
                                                monkeypatch, tmax):
    # the unit setting ends at t = 1: a longer grid would integrate past
    # it, and the grid refuses bounds outside its setting's interval
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L1, UNIT))
    assert main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9", "--tmax", "1"]) == 0
    capsys.readouterr()

    _nothing_is_sampled_or_normed(monkeypatch)
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9", "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad grid:")


def _app_descriptors():
    from interpolab.applications import get_scenario
    from interpolab.spaces import Intersection
    over = get_scenario("small-grand-interior").lhs
    return {"app": over.couple[0], "over": over,
            "intersection": Intersection((ThetaSpace(0.5, ONE, L2, UNIT),
                                          over.couple[1]))}


@pytest.mark.parametrize("kind", ["app", "over", "intersection"])
def test_norm_app_members_need_tmax_1(tmp_path, capsys, monkeypatch, kind):
    # concrete spaces live on (0, 1); a shorter grid used to end in a
    # traceback (app) or pass for a divergent norm (over)
    _nothing_is_sampled_or_normed(monkeypatch)
    spath = _write_space(tmp_path / "app.json", _app_descriptors()[kind])
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9", "--tmax", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad grid: concrete spaces")


def test_norm_refuses_the_co_unit_setting(tmp_path, capsys, monkeypatch):
    # a co_unit descriptor reads (it is what reversal makes of a unit
    # one), but nothing is normed on a co_unit grid
    rev = couple_reverse(ThetaSpace(0.25, ONE, L2, UNIT))
    spath = _write_space(tmp_path / "co_unit.json", rev)
    with open(spath) as fh:
        assert json.load(fh)["setting"] == "co_unit"
    _nothing_is_sampled_or_normed(monkeypatch)
    code = main(["norm", "--space", spath, "--fn", "chi:0.5", "--grid", "9"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_over_of_app_members_on_a_short_grid_is_an_error():
    # the oracle guard in kfun reads a failed build as "f outside
    # Y0 + Y1"; a grid that cuts (0, 1) short is a misuse instead
    from interpolab import corpus
    from interpolab.grid import Grid
    from interpolab.kfun import k_peetre, norm_in_space
    g = Grid.from_bounds(1e-8, 0.5, 512)
    with pytest.raises(ValueError, match="use a unit grid"):
        norm_in_space(k_peetre(corpus.sample("chi:0.5", g)),
                      _app_descriptors()["over"])


@pytest.mark.parametrize("argv", [
    ["reiteration", "--theta", "2"],
    ["reiteration", "--theta", "nan"],
    ["holmstedt", "--corpus", "bogus:1"],
    ["holmstedt", "--corpus", "pow:0"],
    ["holmstedt", "--corpus", "chi:-1"],
    ["holmstedt", "--corpus", "csv:{tmp}/missing.csv"],
    ["identity", "--corpus", "{tmp}/missing-corpus.txt"],
    ["holmstedt", "--corpus", "pow:nan"],
    ["holmstedt", "--corpus", "log:inf"],
    ["holmstedt", "--corpus", "csv:{tmp}/nan.csv"],
    ["holmstedt", "--corpus", "{tmp}/empty-corpus.txt"],
    ["holmstedt", "--case", "R_x0", "--corpus", "chi:0.1",
     "--out", "{tmp}/a-file"],
    ["identity", "--name", "small-ultra", "--corpus", "chi:0.1",
     "--window-max", "nan"],
    ["identity", "--name", "small-ultra", "--corpus", "chi:0.1",
     "--stability-max", "nan"],
    ["holmstedt", "--case", "R_x0", "--corpus", "chi:0.5",
     "--window-max", "0.5"],
    ["identity", "--name", "small-as-L", "--corpus", "chi:1",
     "--stability-max", "-1"],
    ["identity", "--name", "small-linf", "--corpus", "csv:{tmp}/neg.csv"],
    ["holmstedt", "--corpus", "csv:{tmp}/neg.csv"],
    ["holmstedt", "--corpus", ""],
    ["holmstedt", "--corpus", "pow:2;pow:2"],
], ids=["theta2", "theta-nan", "bogus", "pow0", "chi-neg", "csv-missing",
        "corpus-file-missing", "pow-nan", "log-inf", "csv-nan",
        "corpus-empty", "out-is-a-file", "window-max-nan",
        "stability-max-nan", "window-max-below-1", "stability-max-negative",
        "csv-negative-value", "csv-negative-value-holmstedt",
        "corpus-empty-string", "corpus-repeated-spec"])
def test_verify_bad_input_exits_1_before_sweeping(tmp_path, capsys,
                                                  monkeypatch, argv):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    (tmp_path / "nan.csv").write_text("t,value\n0.5,nan\n0.9,1\n")
    (tmp_path / "neg.csv").write_text(NEG_CSV)
    (tmp_path / "empty-corpus.txt").write_text("# no specs\n")
    (tmp_path / "a-file").write_text("")

    monkeypatch.setattr(cli.holmstedt_mod, "verify_holmstedt", no_sweep)
    monkeypatch.setattr(cli, "verify_reiteration", no_sweep)
    monkeypatch.setattr(cli, "_run_identity", no_sweep)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = main(["verify", *argv, "--grid", "9"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
def test_norm_runs_without_mallopt(tmp_path, capsys, monkeypatch, request,
                                   libc):
    calls = []

    def cdll(name):
        calls.append(name)
        if libc == "unloadable":
            raise OSError("no libc")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._hold_heap.cache_clear()
    request.addfinalizer(cli._hold_heap.cache_clear)
    spath = _write_space(tmp_path / "theta.json",
                         ThetaSpace(0.5, ONE, L2))
    code = main(["norm", "--space", spath, "--fn", "chi:0.5",
                 "--grid", "9"])
    assert calls == [None]
    assert code == 0
    assert math.isfinite(float(capsys.readouterr().out.split()[-1]))


_TWICE = """
import contextlib, io, resource, sys
from interpolab.cli import main

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(sys.argv[1:])
    before = faults()
    main(sys.argv[1:])
    after = faults()
print(after - before, *out.getvalue().split())
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="mallopt thresholds are glibc's")
def test_second_norm_reuses_the_heap(tmp_path):
    # an n = 2^16 norm frees dozens of 512 KB temporaries; with the
    # default allocator the next call faults their pages in again
    # (about 1,200 minor faults on glibc 2.36), with the held heap it
    # does not
    spath = _write_space(tmp_path / "l.json",
                         LSpace(0.5, EllPow(-1.0), L2, ONE, L2))
    src = os.path.dirname(os.path.dirname(interpolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _TWICE, "norm", "--space", spath,
         "--fn", "pow:4", "--grid", "16"],
        capture_output=True, text=True, env=env, check=True)
    faults, *out = proc.stdout.split()
    half = len(out) // 2
    assert out[:half] == out[half:]
    assert int(faults) < 300


def _run_op(argv, capsys):
    """Exit code, stdout and stderr of one main call."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(tmp_path, capsys, request):
    spath = _write_space(tmp_path / "theta.json", ThetaSpace(0.5, ONE, L2))
    usage = ["verify", "holmstedt", "--win", "2"]
    ops = [usage,
           ["norm", "--space", spath, "--fn", "chi:0.5", "--grid", "9"],
           ["verify", "holmstedt", "--case", "R_x0", "--grid", "9",
            "--corpus", "chi:0.1;pow:2"],
           usage]
    request.addfinalizer(cli._parser.cache_clear)
    alone = []
    for argv in ops:
        cli._parser.cache_clear()
        alone.append(_run_op(argv, capsys))
    cli._parser.cache_clear()
    together = [_run_op(argv, capsys) for argv in ops]
    assert together == alone
    info = cli._parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    code, out, err = together[0]
    assert code == 1 and out == "" and err.startswith("usage: interpolab ")
    assert "unrecognized arguments: --win 2" in err
    assert [c for c, _, _ in together] == [1, 0, 0, 1]
    assert together[2][1].startswith("R_x0:")


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(interpolab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import interpolab.cli as c; "
         "print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.split() == ["0"]


def _modules_after(code):
    """Whether numpy.ma and concurrent.futures are imported after code
    runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(interpolab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*("
         "m in sys.modules for m in ('numpy.ma', 'concurrent.futures')))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    return proc.stdout.split()[-2:]


def test_importing_the_cli_imports_no_process_pool():
    assert _modules_after("import interpolab.cli")[1] == "False"


def test_verify_holmstedt_imports_no_numpy_ma():
    # np.unique imports numpy.ma; the oracle picks its cuts without it
    got = _modules_after("from interpolab.cli import main\n"
                         "main(['verify', 'holmstedt', '--grid', '9'])")
    assert got == ["False", "False"]


def test_verify_parses_a_csv_prototype_once_per_sweep(tmp_path, capsys,
                                                      monkeypatch):
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n0.001,4\n0.01,2\n0.5,1\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code = main(["verify", "holmstedt", "--case", "R_x0",
                 "--corpus", f"csv:{path}", "--grid", "9,10,11"])
    assert code == 0
    assert "rows=" in capsys.readouterr().out
    # once for the input check, whose parse the sweep over three grids
    # takes over
    assert len(opened) == 1


def test_verify_infinite_thresholds_accept_any_window(capsys):
    code = main(["verify", "identity", "--name", "small-ultra",
                 "--corpus", "chi:0.1", "--grid", "9",
                 "--window-max", "inf", "--stability-max", "inf"])
    assert code == 0
    assert "window=" in capsys.readouterr().out
