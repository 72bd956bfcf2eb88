"""SHA-256 digests of the verification reports the CLI writes.

Runs, in-process through ``interpolab.cli.main``:

* ``verify holmstedt`` for each of the six cases at the default grid;
* ``verify reiteration`` for each of the six ThmR_*/ThmL_* cases at
  theta in {0, 0.5, 1}, so every branch of ``reiterate`` on both sides,
  and at theta = 0.3, which is no dyadic fraction;
* ``verify holmstedt`` for the couple of each of the 10 distinct unit
  couples of the reiteration scenarios, by a scenario's name;
* ``verify identity`` for every registered scenario;
* ``verify holmstedt`` for R_interior and L_interior at ``--grid 13,14``;
* ``verify holmstedt`` for L_interior at ``--grid 13,14`` on a step
  function with 600 distinct values (``steps_csv()``, written here and
  named by a relative path), above the 128-cut cap, so each oracle
  keeps 129 pairs;
* ``verify holmstedt`` for R_x0 on ``chi:1e-9`` and ``pow:2``, which
  excludes ``chi:1e-9`` at both grid sizes: no split point of it is
  admissible;
* ``norm`` on a fixed set of descriptor files, written here as literal
  JSON: every wire kind, the L/R/LL/RR spaces at theta 0, 1/2 and 1
  in both settings, and every app kind alone and as the one member of
  an intersection, on ``chi:0.5`` at ``--grid 10``;
* ``norm`` at ``--grid 14`` and ``16`` with bounds other than the
  default ones, for every corpus kind (chi, pow, powlog with m < 0 and
  m > 0, log, and a csv step file written here) on the x0/x1 spaces,
  the theta, L/R and LL/RR spaces at theta 1/2 of both settings, and
  every app kind;
* ``norm`` on the same descriptor files on ``chi:1e-30``, which is 0 at
  every node of the default grids, at ``--grid 10``;
* ``norm`` on theta(1/2, inverse_arg(w), L2) for a weight w of every
  kind (a tail norm of each side, a composition with rho through a tail
  norm inside and outside), on ``chi:0.5`` and ``powlog:2,-1`` at
  ``--grid 10``, on the default full grid, on ``--tmin 1e-30`` and in
  the unit setting;

and prints one ``<sha256>  <report>`` line per written CSV/JSON file,
one line, ``norm/stdout+exit``, for the stdout and exit codes of the
``norm`` calls on ``chi:0.5`` at ``--grid 10``, one, ``norm/zero``, for
those on ``chi:1e-30``, one line per corpus kind and grid size,
``norm/<kind>/grid<k>``, for those of the finer calls, and one line per
function and grid, ``norm/reverse/<fn>/<grid>``, for the reversal
calls.  Reports
are deterministic, so two checkouts that print the same digests write
byte-identical reports.  A change to
the numerics moves last bits and so every digest; ``report_compare.py``
then checks the reports value by value.  Compare a change against its
parent with

    python3 tools/report_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 tools/report_digest.py > parent.txt
    diff parent.txt change.txt

The package is imported from wherever ``PYTHONPATH`` points, else from
the ``src`` directory of this checkout; its path is printed to stderr.
Exit code 0 whatever the verification windows are: the digests, not
the verdicts, are the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile

HOLMSTEDT = ("R_interior", "R_theta0_zero", "R_x0",
             "L_interior", "L_theta1_one", "L_x1")
REITERATION = ("ThmR_interior", "ThmR_theta0_zero", "ThmR_x0",
               "ThmL_interior", "ThmL_theta1_one", "ThmL_x1")
THETAS = ("0", "0.5", "1", "0.3")
# one scenario name per distinct couple of applications._reiterations()
UNIT_COUPLES = ("small-dual-limit", "llogl-grand", "l1-grand",
                "small-ultra", "small-linfq", "small-linf", "ggamma-ultra",
                "a-type-ultra", "b-type-ultra", "b-as-limit-of-A")
FINE = ("R_interior", "L_interior")


def runs():
    """(subdirectory, argv) of every CLI call, in a fixed order."""
    for case in HOLMSTEDT:
        yield "default", ["verify", "holmstedt", "--case", case]
    for case in REITERATION:
        for th in THETAS:
            yield "default", ["verify", "reiteration", "--case", case,
                              "--theta", th]
    yield "default", ["verify", "identity", "--name", "all"]
    for name in UNIT_COUPLES:
        yield "unit", ["verify", "holmstedt", "--case", name]
    for case in FINE:
        yield "grid13_14", ["verify", "holmstedt", "--case", case,
                            "--grid", "13,14"]
    yield "excluded", ["verify", "holmstedt", "--case", "R_x0",
                       "--corpus", "chi:1e-9;pow:2"]
    yield "steps600", ["verify", "holmstedt", "--case", "L_interior",
                       "--grid", "13,14", "--corpus", f"csv:{STEP_CSV}"]


# the step prototype of runs(), in the working directory of in_step_dir()
STEP_CSV = "steps600.csv"


def steps_csv(m: int = 600) -> str:
    """t,value rows of a nonincreasing step function with m distinct
    values.  The breakpoints sit 0.02 or 0.03 apart in log t from 1e-7,
    so every step spans several nodes of a 2^13 grid, and the values
    fall from 4200 to 9 by 7 less an uneven 0 to 4 per step."""
    x = [math.log(1e-7) + 0.01 * (5 * i // 2) for i in range(m + 1)]
    v = [7 * (m - i) + 13 * i % 5 for i in range(m)]
    # the last row ends the last step: f* is 0 past it
    rows = zip((f"{math.exp(xi):.6g}" for xi in x), v + v[-1:])
    return "t,value\n" + "".join(f"{t},{vi}\n" for t, vi in rows)


@contextlib.contextmanager
def in_step_dir():
    """Run inside a temporary working directory that holds STEP_CSV,
    so the reports name the prototype the same way wherever they go."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, STEP_CSV), "w") as fh:
            fh.write(steps_csv())
        os.chdir(root)
        try:
            yield
        finally:
            os.chdir(cwd)


def _ell(alpha):
    return {"kind": "ell", "alpha": alpha}


def _q(q):
    return {"q": q}


ONE = {"kind": "const", "c": 1.0}
SV_KINDS = {
    "const": {"kind": "const", "c": 2.0},
    "ell": _ell(-0.5),
    "broken_ell": {"kind": "broken_ell", "alpha": -1.0, "beta": 0.5},
    "iterated_ell": {"kind": "iterated_ell", "depth": 2, "alpha": 1.0},
    "exp_log_pow": {"kind": "exp_log_pow", "alpha": 0.5},
    "product": {"kind": "product", "args": [_ell(0.5), ONE, _ell(-1.0)]},
    "power": {"kind": "power", "base": _ell(0.5), "r": -3.0},
    "inverse_arg": {"kind": "inverse_arg",
                    "inner": {"kind": "broken_ell", "alpha": 1.0,
                              "beta": -1.0}},
    "norm_tail": {"kind": "norm_tail", "b": _ell(-2.0), "E": _q(1.0),
                  "side": "upper"},
    "compose_rho": {"kind": "compose_rho", "outer": _ell(-1.0),
                    "gamma": 0.5, "inner": _ell(0.5)},
}
APP_KINDS = [
    {"kind": "grand", "p": 2.0, "alpha": 1.0},
    {"kind": "small", "p": 2.0, "alpha": 1.0},
    {"kind": "ultra", "p": 2.0, "b": _ell(-0.5), "E": _q(2.0)},
    {"kind": "linfq", "q": "inf", "beta": -1.0},
    {"kind": "ggamma", "p": 2.0, "q": 2.0, "w1pow": -1.0,
     "w1sv": _ell(-3.0), "w2pow": 0.0, "w2sv": ONE},
    {"kind": "atype", "p": 4.0, "alpha": 0.0, "E": _q(2.0)},
    {"kind": "btype", "p": 2.0, "alpha": 0.0, "E": _q(2.0)},
]


def norm_descriptors():
    """(name, descriptor JSON object) of every ``norm`` call."""
    for name, b in SV_KINDS.items():
        yield f"theta-{name}", {"kind": "theta", "theta": 0.5, "b": b,
                                "E": _q(2.0), "setting": "full"}
    for setting in ("full", "unit"):
        yield f"x0-{setting}", {"kind": "x0", "setting": setting}
        yield f"x1-{setting}", {"kind": "x1", "setting": setting}
        for th in (0.0, 0.5, 1.0):
            yield f"theta-{th}-{setting}", {
                "kind": "theta", "theta": th, "b": _ell(-1.0),
                "E": _q(2.0), "setting": setting}
            for kind in ("L", "R"):
                yield f"{kind}-{th}-{setting}", {
                    "kind": kind, "theta": th, "b": _ell(-1.0),
                    "E": _q(2.0), "a": ONE, "F": _q("inf"),
                    "setting": setting}
            for kind in ("LL", "RR"):
                yield f"{kind}-{th}-{setting}", {
                    "kind": kind, "theta": th, "c": _ell(-1.0),
                    "E": _q(2.0), "b": _ell(-0.5), "F": _q("inf"),
                    "a": ONE, "G": _q(2.0), "setting": setting}
    yield "intersection", {"kind": "intersection", "members": [
        {"kind": "theta", "theta": 0.5, "b": ONE, "E": _q(2.0),
         "setting": "full"},
        {"kind": "R", "theta": 1.0, "b": _ell(-1.0), "E": _q("inf"),
         "a": ONE, "F": _q(2.0), "setting": "full"}]}
    for space in APP_KINDS:
        yield f"app-{space['kind']}", {"kind": "app", "space": space,
                                       "setting": "unit"}
    # the same as one-member intersections, which norm like the bare ones
    for space in APP_KINDS:
        yield f"app1-{space['kind']}", {"kind": "intersection", "members": [
            {"kind": "app", "space": space, "setting": "unit"}]}


# the further arguments of the norm calls of norm_descriptors()
NORM_ARGS = ("--fn", "chi:0.5", "--grid", "10")
# the same on a function that vanishes on the grid: its f* is all 0
ZERO_ARGS = ("--fn", "chi:1e-30", "--grid", "10")
# the finer norm calls: bounds per setting, the csv steps, and the
# --fn spec of each corpus kind ({csv} is the step file's path)
FINE_GRIDS = ("14", "16")
FINE_BOUNDS = {"full": ["--tmin", "1e-10", "--tmax", "1e6"],
               "unit": ["--tmin", "1e-12"]}
CSV_STEPS = "t,value\n1e-6,40\n1e-3,9\n0.02,3.5\n0.3,1\n0.9,0.25\n"
FINE_FNS = {"chi": "chi:0.3", "pow": "pow:2", "powlog-neg": "powlog:4,-1",
            "powlog-pos": "powlog:2,1", "log": "log:2", "csv": "csv:{csv}"}


_LOWER = {"kind": "norm_tail", "b": _ell(-2.0), "E": _q(1.0),
          "side": "lower"}
_UPPER = {"kind": "norm_tail", "b": _ell(-2.0), "E": _q(2.0),
          "side": "upper"}
# a weight of every kind, every tail finite on full and unit grids
REVERSAL_WEIGHTS = {
    "const": {"kind": "const", "c": 2.0},
    "ell": _ell(-0.5),
    "broken_ell": {"kind": "broken_ell", "alpha": -1.0, "beta": 0.5},
    "iterated_ell": {"kind": "iterated_ell", "depth": 2, "alpha": 1.0},
    "exp_log_pow": {"kind": "exp_log_pow", "alpha": 0.5},
    "product": {"kind": "product", "args": [
        _ell(0.5), {"kind": "broken_ell", "alpha": 1.0, "beta": -1.0}]},
    "power": {"kind": "power", "base": {"kind": "broken_ell", "alpha": 0.5,
                                        "beta": -1.0}, "r": -3.0},
    "norm_tail-lower": _LOWER,
    "norm_tail-upper": _UPPER,
    "compose_rho-tail-inner": {"kind": "compose_rho", "outer": _ell(-1.0),
                               "gamma": 0.5, "inner": _LOWER},
    "compose_rho-tail-outer": {"kind": "compose_rho", "outer": _UPPER,
                               "gamma": 0.5, "inner": _ell(0.5)},
    "inverse_arg": SV_KINDS["inverse_arg"],
}
REVERSAL_FNS = ("chi:0.5", "powlog:2,-1")
# grid label -> (setting, further bounds)
REVERSAL_GRIDS = {"full": ("full", []),
                  "tmin1e-30": ("full", ["--tmin", "1e-30"]),
                  "unit": ("unit", [])}


def reversal_calls():
    """(label, name, descriptor, args) of each reversal ``norm`` call,
    label ``norm/reverse/<fn>/<grid>``."""
    for fn in REVERSAL_FNS:
        for grid, (setting, bounds) in REVERSAL_GRIDS.items():
            for name, w in REVERSAL_WEIGHTS.items():
                yield (f"norm/reverse/{fn}/{grid}", f"reverse-{name}",
                       {"kind": "theta", "theta": 0.5,
                        "b": {"kind": "inverse_arg", "inner": w},
                        "E": _q(2.0), "setting": setting},
                       ["--fn", fn, "--grid", "10", *bounds])


def fine_descriptors():
    """(name, descriptor JSON object) of every finer ``norm`` call: the
    x0/x1 and app descriptors of norm_descriptors(), and its theta, L/R
    and LL/RR ones at theta 1/2."""
    return [(name, obj) for name, obj in norm_descriptors()
            if name.startswith(("x0-", "x1-", "app-")) or "-0.5-" in name]


def norm_call(cli, root: str, name: str, obj,
              args=NORM_ARGS) -> tuple[str, int]:
    """stdout and exit code of ``norm`` on one descriptor, written to root,
    with the further arguments args."""
    path = os.path.join(root, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["norm", "--space", path, *args])
    return buf.getvalue(), rc


def norm_transcript(cli, root: str, calls) -> bytes:
    """Name, stdout and exit code of each ``norm`` call of calls, (name,
    descriptor, args) triples, concatenated."""
    out = io.StringIO()
    for name, obj, args in calls:
        text, rc = norm_call(cli, root, name, obj, args)
        out.write(f"{name}\n{text}exit {rc}\n")
    return out.getvalue().encode()


def fine_calls(root: str):
    """(label, name, descriptor, args) of each finer ``norm`` call, label
    ``norm/<kind>/grid<k>``; the csv step file is written to root."""
    csv_path = os.path.join(root, "steps.csv")
    with open(csv_path, "w") as fh:
        fh.write(CSV_STEPS)
    for kind, spec in FINE_FNS.items():
        for k in FINE_GRIDS:
            for name, obj in fine_descriptors():
                yield (f"norm/{kind}/grid{k}", name, obj,
                       ["--fn", spec.format(csv=csv_path), "--grid", k,
                        *FINE_BOUNDS[obj["setting"]]])


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    try:
        import interpolab
    except ModuleNotFoundError:
        sys.path.insert(0, os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src"))
        import interpolab
    from interpolab import cli
    print(f"interpolab from {os.path.dirname(interpolab.__file__)}",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as root, in_step_dir():
        for sub, argv in runs():
            out = os.path.join(root, sub)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", out])
            print(f"{' '.join(argv)}: exit {rc}", file=sys.stderr)
        for sub in sorted(os.listdir(root)):
            for name in sorted(os.listdir(os.path.join(root, sub))):
                print(f"{digest(os.path.join(root, sub, name))}  "
                      f"{sub}/{name}")
    with tempfile.TemporaryDirectory() as root:
        for label, args in (("stdout+exit", NORM_ARGS),
                            ("zero", ZERO_ARGS)):
            text = norm_transcript(cli, root, (
                (name, obj, args) for name, obj in norm_descriptors()))
            print(f"{hashlib.sha256(text).hexdigest()}  norm/{label}")
        for label, calls in itertools.groupby(
                itertools.chain(fine_calls(root), reversal_calls()),
                lambda c: c[0]):
            text = norm_transcript(cli, root, (c[1:] for c in calls))
            print(f"{hashlib.sha256(text).hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
