"""Compare the verification reports of two source trees value by value.

    python3 tools/report_compare.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories holding an
``interpolab`` package.  Each tree runs, in its own process, every CLI
call of ``report_digest.py``: the ``verify`` sweeps of ``runs()``,
``norm`` on each descriptor of ``norm_descriptors()``, the finer
``norm`` calls of ``fine_calls()`` and the reversal calls of
``reversal_calls()``.  The tool then
prints one line per report, ``<worst relative deviation>  <report>``,
and one line ``norm/stdout`` for the ``norm`` calls.

Exit code 1 when an exit code, a row key (case, function, n, u), an
exclusion, a note or a ``norm`` verdict (the printed text with its
numbers taken out, and the exit code) differs, or when any value
deviates by more than 1e-12 relative; 0 otherwise.  The stability
figure is the relative change between two windows, so its deviation is
taken absolute: where the windows nearly agree, a last-bit move in them
is a large relative change of their small difference.  A change that
only moves last bits fails the byte digests of ``report_digest.py`` but
passes here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import report_digest

TOL = 1e-12
HERE = os.path.dirname(os.path.abspath(__file__))
NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def collect(out: str) -> None:
    """Run every call against the interpolab on sys.path, results to out."""
    from interpolab import cli
    exits = {}
    out = os.path.abspath(out)
    with report_digest.in_step_dir():
        for sub, argv in report_digest.runs():
            with contextlib.redirect_stdout(io.StringIO()):
                exits[" ".join(argv)] = cli.main(
                    argv + ["--out", os.path.join(out, "reports", sub)])
    with tempfile.TemporaryDirectory() as root:
        norms = {name: report_digest.norm_call(cli, root, name, obj)
                 for name, obj in report_digest.norm_descriptors()}
        norms.update({f"{label}/{name}": report_digest.norm_call(
            cli, root, name, obj, args) for label, name, obj, args
            in itertools.chain(report_digest.fine_calls(root),
                               report_digest.reversal_calls())})
    with open(os.path.join(out, "calls.json"), "w") as fh:
        json.dump({"exits": exits, "norms": norms}, fh)


def run_tree(src: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), HERE]))
    subprocess.run([sys.executable, "-c",
                    "import sys, report_compare; "
                    "report_compare.collect(sys.argv[1])", out],
                   env=env, check=True)


def rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def split(text: str):
    """(text with its numbers replaced by '#', the numbers)."""
    return NUMBER.sub("#", text), [float(v) for v in NUMBER.findall(text)]


def read_rows(path: str):
    """(keys (case, function_id, n, u), values [lhs, rhs, ratio]) by row.

    Reports from before function ids were quoted write an id such as
    powlog:2,-1 bare, so it spreads over two fields; it is joined back.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rows = [[r[0], ",".join(r[1:-5]), *r[-5:]] for r in rows]
    return [tuple(r[:4]) for r in rows], [r[4:] for r in rows]


def compare_csv(pa: str, pb: str, bad: list, name: str) -> float:
    (ka, va), (kb, vb) = read_rows(pa), read_rows(pb)
    if ka != kb:
        bad.append(f"{name}: row keys differ")
        return math.inf
    return max((rel(float(x), float(y)) for a, b in zip(va, vb)
                for x, y in zip(a, b)), default=0.0)


def compare_json(pa: str, pb: str, bad: list, name: str) -> float:
    with open(pa) as fa, open(pb) as fb:
        a, b = json.load(fa), json.load(fb)
    wa, wb = a.pop("windows"), b.pop("windows")
    if wa.keys() != wb.keys():
        bad.append(f"{name}: sizes differ")
        return math.inf
    sa, sb = a.pop("stability"), b.pop("stability")
    devs = [rel(wa[n], wb[n]) for n in wa] + [
        rel(a.pop("window"), b.pop("window")),
        0.0 if sa == sb else abs(sa - sb)]
    bad.extend(f"{name}: {key} differs" for key in sorted(set(a) | set(b))
               if a.get(key) != b.get(key))
    return max(devs)


def compare(dir_a: str, dir_b: str) -> int:
    bad, lines = [], []
    with open(os.path.join(dir_a, "calls.json")) as fa, \
            open(os.path.join(dir_b, "calls.json")) as fb:
        ca, cb = json.load(fa), json.load(fb)
    for argv, rc in ca["exits"].items():
        if cb["exits"].get(argv) != rc:
            bad.append(f"{argv}: exit {rc} -> {cb['exits'].get(argv)}")
    ra, rb = (os.path.join(d, "reports") for d in (dir_a, dir_b))
    names_a = sorted(os.path.join(s, f) for s in os.listdir(ra)
                     for f in os.listdir(os.path.join(ra, s)))
    names_b = sorted(os.path.join(s, f) for s in os.listdir(rb)
                     for f in os.listdir(os.path.join(rb, s)))
    if names_a != names_b:
        bad.append("the two trees write different report files")
    for name in sorted(set(names_a) & set(names_b)):
        cmp = compare_csv if name.endswith(".csv") else compare_json
        dev = cmp(os.path.join(ra, name), os.path.join(rb, name), bad, name)
        lines.append((dev, name))
    worst = 0.0
    for name, (text, rc) in ca["norms"].items():
        text_b, rc_b = cb["norms"][name]
        (sa, va), (sb, vb) = split(text), split(text_b)
        if rc != rc_b or sa != sb or len(va) != len(vb):
            bad.append(f"norm {name}: verdict differs")
            continue
        worst = max([worst] + [rel(x, y) for x, y in zip(va, vb)])
    lines.append((worst, "norm/stdout"))
    for dev, name in lines:
        print(f"{dev:.3g}  {name}")
    over = [name for dev, name in lines if not dev <= TOL]
    for msg in bad + [f"{name}: deviation above {TOL:g}" for name in over]:
        print(f"DIFFERS  {msg}")
    print(f"worst relative deviation {max(d for d, _ in lines):.3g} over "
          f"{len(lines)} reports; {len(bad) + len(over)} differences")
    return 1 if bad or over else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as root:
        dirs = []
        for i, src in enumerate(argv):
            out = os.path.join(root, str(i))
            os.makedirs(out)
            run_tree(src, out)
            dirs.append(out)
        return compare(*dirs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
