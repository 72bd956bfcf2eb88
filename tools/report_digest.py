"""SHA-256 digests of the verification reports the CLI writes.

Runs, in-process through ``interpolab.cli.main``:

* ``verify holmstedt`` for each of the six cases at the default grid;
* ``verify reiteration`` for ThmR_interior and ThmL_interior at
  theta in {0, 0.5, 1};
* ``verify identity`` for every registered scenario;
* ``verify holmstedt`` for R_interior and L_interior at ``--grid 13,14``;

and prints one ``<sha256>  <report>`` line per written CSV/JSON file.
Reports are deterministic, so two checkouts that print the same digests
write byte-identical reports.  Compare a change against its parent with

    PYTHONPATH=src python3 tools/report_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 tools/report_digest.py > parent.txt
    diff parent.txt change.txt

The package is imported from wherever ``PYTHONPATH`` points; its path is
printed to stderr.  Exit code 0 whatever the verification windows are:
the digests, not the verdicts, are the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

HOLMSTEDT = ("R_interior", "R_theta0_zero", "R_x0",
             "L_interior", "L_theta1_one", "L_x1")
REITERATION = ("ThmR_interior", "ThmL_interior")
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


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
