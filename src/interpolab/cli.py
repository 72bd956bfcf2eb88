"""Command line: norm evaluation and verification reports.

Exit codes: 0 success / verification within thresholds, 1 input error,
2 inadmissible or trivial space, 3 verification window or stability
exceeded; verify exits 1 before it sweeps on a threshold no run can
meet (a --window-max below 1, as a window is max/min, a negative
--stability-max, NaN).  A usage error (an unknown or missing option, a
bad choice) is an input error: it exits 1 with argparse's usage
message, so exit 2 is always a verdict.  Options must be spelled out in
full, since a prefix such as --win is not taken for --window-max.  The
parser is built on the first call to main, not at import, and serves
every later call in the process; the process pool is imported only
when --jobs asks for more than one worker.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

from .grid import Grid, L2, LINF
from .sv import ONE, EllPow
from .spaces import (AppMember, Over, ThetaSpace, check_admissible,
                     contains, space_from_obj)
from .kfun import k_peetre, norm_in_space
from .holmstedt import CASES, DEFAULT_CASES, HolmstedtCase
from .reiteration import verify_reiteration
from . import corpus as corpus_mod
from . import holmstedt as holmstedt_mod
from . import applications as app_mod

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _hold_heap() -> None:
    """Keep freed arrays mapped for the rest of the process.

    glibc's default thresholds start at 128 KiB and grow only as mmapped
    chunks are freed: until then a 512 KB array (an n = 2^16 profile or
    an oracle block) is mmapped afresh on every allocation, and after
    that a freed heap top beyond twice the threshold goes back to the
    kernel, so the next op faults the same pages in again.  Fixed
    thresholds (setting either one turns the growth off) serve every
    array the CLI makes, up to an 8 MiB 2^20 grid vector, from the heap
    and keep it mapped once freed.  Called from the entry points only:
    library callers keep the default allocator.  Without a libc
    mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _parse_log2n(grid: str) -> tuple:
    """log2 grid sizes from --grid, a comma list of distinct k in [8, 20]."""
    try:
        log2n = tuple(int(s) for s in grid.split(","))
    except ValueError:
        raise ValueError(f"bad grid size list {grid!r}") from None
    if not all(8 <= k <= 20 for k in log2n):
        raise ValueError(f"log2 grid sizes must be in [8, 20], got {grid!r}")
    if len(set(log2n)) < len(log2n):
        raise ValueError(f"log2 grid sizes must be distinct, got {grid!r}")
    return log2n


def cmd_norm(args) -> int:
    try:
        log2n = _parse_log2n(args.grid)
        if len(log2n) != 1:
            raise ValueError(f"norm takes one grid size, got {args.grid!r}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    n = 1 << log2n[0]
    try:
        with open(args.space) as fh:
            obj = json.load(fh)
    except OSError as e:
        print(f"error: cannot read descriptor: {e}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as e:   # not UTF-8, or too deep
        print(f"error: malformed JSON in {args.space}: {e}", file=sys.stderr)
        return 1
    try:
        desc = space_from_obj(obj)
    except (KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as e:
        print(f"error: bad descriptor field: {e}", file=sys.stderr)
        return 1

    try:
        grid = Grid.from_bounds(args.tmin, args.tmax, n, desc.setting)
        if contains(desc, AppMember) and grid.truncated("high"):
            raise ValueError("concrete spaces live on (0,1): app members "
                             "need the unit setting and --tmax 1")
    except ValueError as e:
        print(f"error: bad grid: {e}", file=sys.stderr)
        return 1

    try:
        fstar = corpus_mod.sample(args.fn, grid)
    except (ValueError, OSError) as e:
        print(f"error: bad function spec: {e}", file=sys.stderr)
        return 1

    if isinstance(desc, AppMember):
        try:
            desc.space.validate()
            print("admissibility: parameter checks passed")
        except ValueError as e:
            print(f"admissibility: FAILED ({e})")
            return 2
    else:
        try:
            rep = check_admissible(desc, grid)
        except ValueError as e:     # a full-line grid without t = 1
            print(f"error: bad grid: {e}", file=sys.stderr)
            return 1
        for c in rep.conditions:
            tag = "ok" if c.ok else "DIVERGENT"
            print(f"admissibility: {c.name} = {c.value:.6g} [{tag}]")
        if not rep.admissible:
            return 2

    try:    # f is not in X0 + X1, or f*(t_min) is out of float range
        if isinstance(desc, AppMember):
            value = app_mod.norm_app(desc.space, fstar)
        else:
            value = norm_in_space(k_peetre(fstar), desc)
    except ValueError as e:
        print(f"norm: {e}")
        return 2
    if not math.isfinite(value):
        print("norm: divergent for this function")
        return 2
    print(repr(value))
    return 0


def _finish(report, args, stem) -> int:
    sizes = report.sizes()
    win = max(report.window(n) for n in sizes) if sizes else math.inf
    stab = report.stability()
    if args.out:
        report.write(args.out, stem)
    print(f"{report.case}: window={win:.4g} stability={stab:.4g} "
          f"rows={report.n_rows} excluded={len(report.excluded)}")
    ok = win <= args.window_max and stab <= args.stability_max
    return 0 if ok else 3


def cmd_verify(args) -> int:
    try:
        log2n = _parse_log2n(args.grid)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        corpus = None
        if args.corpus is not None:     # parsed once: check and sweep
            corpus = corpus_mod.parse_corpus(args.corpus)
            if not corpus:
                raise ValueError(f"corpus {args.corpus!r} holds no spec")
        if args.target == "holmstedt":
            case = _holmstedt_case(args.case)
        if args.target == "reiteration":
            args.theta += 0.0   # -0.0: the space, case and reports of 0.0
            case = _reiteration_case(args.case, args.theta)
        if args.target == "identity":
            names = app_mod.scenario_names()
            if args.name not in (*names, "all"):
                raise ValueError("unknown id; available: "
                                 + ", ".join(names))
        for opt, least in (("window_max", 1.0), ("stability_max", 0.0)):
            if not getattr(args, opt) >= least:     # NaN too
                raise ValueError(f"--{opt.replace('_', '-')} must be at "
                                 f"least {least:g}, got {getattr(args, opt)}")
        if args.out:        # before the sweep: --out may not be a directory
            os.makedirs(args.out, exist_ok=True)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.target == "holmstedt":
        rep = holmstedt_mod.verify_holmstedt(case, corpus=corpus,
                                             log2n=log2n)
        return _finish(rep, args, f"holmstedt_{args.case}")

    if args.target == "reiteration":
        rep = verify_reiteration(case, corpus=corpus, log2n=log2n)
        kind = args.case.removeprefix("Thm")
        return _finish(rep, args, f"reiteration_{kind}_theta{args.theta:g}")

    # identity scenarios
    picked = names if args.name == "all" else (args.name,)
    codes = []
    # the pool forks all its workers at the first submit: no idle ones
    workers = min(args.jobs, len(picked))
    if workers > 1:
        # imported here: every other run of the CLI goes without it.  A
        # parsed prototype does not pickle, so the workers get its spec.
        from concurrent.futures import ProcessPoolExecutor
        specs = corpus and tuple(spec for spec, _ in corpus)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_identity,
                                    [(nm, log2n, specs) for nm in picked]))
    else:
        reports = [_run_identity((nm, log2n, corpus)) for nm in picked]
    for rep in reports:
        codes.append(_finish(rep, args, f"identity_{rep.case}"))
    return max(codes) if codes else 0


def _holmstedt_case(name: str) -> HolmstedtCase:
    """A case by its name, or the couple of a reiteration scenario."""
    if name in DEFAULT_CASES:
        return DEFAULT_CASES[name]
    reits = app_mod._reiterations()
    if name not in reits:
        raise ValueError("unknown case; available: " + ", ".join(CASES)
                         + "; or a reiteration scenario: "
                         + ", ".join(reits))
    return HolmstedtCase(*reits[name].couple)


def _reiteration_case(name: str, theta: float) -> Over:
    kind = name.removeprefix("Thm")
    if kind not in DEFAULT_CASES:
        raise ValueError("unknown case; available: " + ", ".join(CASES)
                         + ", each with an optional Thm prefix")
    c = DEFAULT_CASES[kind]
    # with b = 1, E = Linf the endpoint branches reduce to the same
    # expression on both sides; use a nontrivial weight
    b, E = (EllPow(-1.0), L2) if theta in (0.0, 1.0) else (ONE, LINF)
    return Over((c.y0, c.y1), ThetaSpace(theta, b, E, c.setting))


def _run_identity(payload):
    _hold_heap()
    name, log2n, corpus = payload
    return app_mod.verify_identity(name, log2n=log2n, corpus=corpus)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the input-error code; its
    subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The command line parser, built on the first call to main and
    kept for the rest of the process."""
    ap = _Parser(
        prog="interpolab", allow_abbrev=False,
        description="K-functional norms and verification reports")
    sub = ap.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("norm", allow_abbrev=False,
                        help="evaluate a descriptor norm")
    pn.add_argument("--space", required=True, help="descriptor JSON path")
    pn.add_argument("--fn", required=True, help="function spec "
                    "(chi:a | pow:r | powlog:r,m | log:m | csv:PATH)")
    pn.add_argument("--grid", default="12", help="log2 of grid size")
    pn.add_argument("--tmin", type=float)
    pn.add_argument("--tmax", type=float)

    pv = sub.add_parser("verify", allow_abbrev=False,
                        help="run a verification scenario")
    pv.add_argument("target", choices=("holmstedt", "reiteration",
                                       "identity"))
    pv.add_argument("--case", default="R_interior",
                    help="case id (reiteration: Thm prefix optional; "
                    "holmstedt: or a reiteration scenario's name)")
    pv.add_argument("--name", default="all", help="identity scenario id")
    pv.add_argument("--theta", type=float, default=0.5,
                    help="outer theta for reiteration")
    pv.add_argument("--grid", default="9,10",
                    help="comma list of log2 grid sizes")
    pv.add_argument("--corpus", default=None,
                    help="'standard', inline 'spec;spec', or file path")
    pv.add_argument("--out", default=None, help="report output directory")
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--window-max", type=float, default=100.0)
    pv.add_argument("--stability-max", type=float, default=0.10)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _hold_heap()
    return (cmd_norm if args.command == "norm" else cmd_verify)(args)


if __name__ == "__main__":
    sys.exit(main())
