"""SHA-256 digests of the verification reports the CLI writes.

Runs, in-process through ``interpolab.cli.main``:

* ``verify holmstedt`` for each of the six cases at the default grid;
* ``verify reiteration`` for each of the six ThmR_*/ThmL_* cases at
  theta in {0, 0.5, 1}, so every branch of ``reiterate`` on both sides;
* ``verify identity`` for every registered scenario;
* ``verify holmstedt`` for R_interior and L_interior at ``--grid 13,14``;
* ``verify holmstedt`` for R_x0 on ``chi:1e-9`` and ``pow:2``, which
  excludes ``chi:1e-9`` at both grid sizes: no split point of it is
  admissible;
* ``norm`` on a fixed set of descriptor files, written here as literal
  JSON: every wire kind, and the L/R/LL/RR spaces at theta 0, 1/2 and 1
  in both settings, on ``chi:0.5`` at ``--grid 10``;
* ``norm`` at ``--grid 14`` and ``16`` with bounds other than the
  default ones, for every corpus kind (chi, pow, powlog with m < 0 and
  m > 0, log, and a csv step file written here) on the x0/x1 spaces,
  the theta, L/R and LL/RR spaces at theta 1/2 of both settings, and
  every app kind;

and prints one ``<sha256>  <report>`` line per written CSV/JSON file,
one line, ``norm/stdout+exit``, for the stdout and exit codes of the
``norm`` calls at ``--grid 10``, and one line per corpus kind and grid
size, ``norm/<kind>/grid<k>``, for those of the finer calls.  Reports
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
import os
import sys
import tempfile

HOLMSTEDT = ("R_interior", "R_theta0_zero", "R_x0",
             "L_interior", "L_theta1_one", "L_x1")
REITERATION = ("ThmR_interior", "ThmR_theta0_zero", "ThmR_x0",
               "ThmL_interior", "ThmL_theta1_one", "ThmL_x1")
THETAS = ("0", "0.5", "1")
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
    for case in FINE:
        yield "grid13_14", ["verify", "holmstedt", "--case", case,
                            "--grid", "13,14"]
    yield "excluded", ["verify", "holmstedt", "--case", "R_x0",
                       "--corpus", "chi:1e-9;pow:2"]


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


# the further arguments of the norm calls of norm_descriptors()
NORM_ARGS = ("--fn", "chi:0.5", "--grid", "10")
# the finer norm calls: bounds per setting, the csv steps, and the
# --fn spec of each corpus kind ({csv} is the step file's path)
FINE_GRIDS = ("14", "16")
FINE_BOUNDS = {"full": ["--tmin", "1e-10", "--tmax", "1e6"],
               "unit": ["--tmin", "1e-12"]}
CSV_STEPS = "t,value\n1e-6,40\n1e-3,9\n0.02,3.5\n0.3,1\n0.9,0.25\n"
FINE_FNS = {"chi": "chi:0.3", "pow": "pow:2", "powlog-neg": "powlog:4,-1",
            "powlog-pos": "powlog:2,1", "log": "log:2", "csv": "csv:{csv}"}


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
    with tempfile.TemporaryDirectory() as root:
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
        text = norm_transcript(cli, root, ((name, obj, NORM_ARGS) for
                                           name, obj in norm_descriptors()))
        print(f"{hashlib.sha256(text).hexdigest()}  norm/stdout+exit")
        for label, calls in itertools.groupby(fine_calls(root),
                                              lambda c: c[0]):
            text = norm_transcript(cli, root, (c[1:] for c in calls))
            print(f"{hashlib.sha256(text).hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
