"""Seeded inputs for the three benchmark workloads.

generate(workload, seed, work) writes every input file the ops need
(descriptor JSONs, csv step prototypes) under `work` and returns the op
list.  Each op is a dict with
  id     stable name within the pass,
  argv   the `interpolab` command line; "{work}" stands for the work dir,
  check  what the benchmark compares the output against.
The same seed gives the same ops and files; nothing here imports the
program under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("verify-coarse", "oracle-fine", "norm-fine")

# identity scenario ids with the prototypes of their own corpus
IDENTITY_CORPORA = {
    "ultra-as-theta": ("chi:0.01", "chi:0.1", "pow:4", "powlog:4,1", "log:1"),
    "grand-as-R": ("chi:1", "chi:0.01", "pow:4", "powlog:2,-1", "log:1"),
    "small-as-L": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1", "log:1"),
    "small-dual-limit": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1", "log:1"),
    "grand-vs-ultra-interior": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1",
                                "log:1"),
    "grand-vs-ultra-theta0": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1",
                              "log:1"),
    "grand-vs-ultra-theta1": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1",
                              "log:1"),
    "small-grand-interior": ("chi:1", "chi:0.01", "pow:4", "log:1"),
    "small-grand-theta0": ("chi:1", "chi:0.01", "pow:4", "log:1"),
    "small-grand-theta1": ("chi:1", "chi:0.01", "pow:4", "log:1"),
    "llogl-grand": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1", "log:1"),
    "l1-grand": ("chi:1", "chi:0.01", "pow:4", "powlog:4,1", "log:1"),
    "small-ultra": ("chi:1", "chi:0.1", "chi:0.01", "log:1"),
    "small-linfq": ("chi:1", "chi:0.1", "chi:0.01", "chi:0.001"),
    "small-linf": ("chi:1", "chi:0.1", "chi:0.01", "chi:0.001"),
    "ggamma-ultra": ("chi:1", "chi:0.1", "chi:0.01", "log:1"),
    "a-type-ultra": ("chi:1", "chi:0.1", "chi:0.01", "chi:0.001"),
    "b-type-ultra": ("chi:1", "chi:0.1", "chi:0.01", "log:1"),
    "b-as-limit-of-A": ("chi:1", "chi:0.1", "chi:0.01", "log:1"),
    "ultra-between-AB": ("chi:1", "chi:0.1", "chi:0.01", "chi:0.001"),
}

# verification thresholds the CLI applies by default (exit 3 beyond them)
WINDOW_MAX = 100.0
STABILITY_MAX = 0.10

# a finite norm must match its reference to this relative tolerance
NORM_RTOL = 1e-2


def _verify(op_id, argv):
    return {"id": op_id,
            "argv": argv + ["--out", "{work}/out/" + op_id],
            "check": {"kind": "verify"}}


def _shuffled(ops, rng, lead):
    """The ops in seeded order after the op with id `lead`.

    The first op of a pass pays the interpreter's first-call costs (lazy
    imports, first BLAS calls); pinning it keeps that cost on one op
    whatever the seed, so it does not move the op time percentiles.
    """
    first = [op for op in ops if op["id"] == lead]
    rest = [op for op in ops if op["id"] != lead]
    assert len(first) == 1, lead
    return first + [rest[i] for i in rng.permutation(len(rest))]


# ---------------------------------------------------------------------
# verify-coarse: ops of the default sweep, op order drawn from the seed
# ---------------------------------------------------------------------

# A slice of the `verify` sweep at the default grid (2^9, 2^10), one op
# per (case, prototype), that a pass runs in about 3 s: the host drifts
# between fast and slow periods, so a run needs many passes to give each
# op a steady median.  It holds the interior Holmstedt cases,
# reiteration to a theta space and to an intersection (L and LL), every
# identity scenario on its step prototypes (direct norms, one-cut
# oracles), and four identity scenarios whose oracles hit the cut cap.
COARSE_PROTOS = ("chi:0.1", "pow:2", "log:2")
COARSE_HOLMSTEDT = ("R_interior", "L_interior")
COARSE_REITERATION = (("ThmR_interior", "0.5"), ("ThmL_interior", "0"))
COARSE_IDENTITY_CAPPED = ("small-grand-interior", "small-dual-limit",
                          "llogl-grand", "l1-grand")


def verify_coarse(rng, work):
    ops = []
    for p in COARSE_PROTOS:
        for c in COARSE_HOLMSTEDT:
            ops.append(_verify(f"holmstedt-{c}-{p}",
                               ["verify", "holmstedt", "--case", c,
                                "--corpus", p]))
        for c, th in COARSE_REITERATION:
            q = "pow:4" if p == "pow:2" else p
            ops.append(_verify(f"reiteration-{c}-{th}-{q}",
                               ["verify", "reiteration", "--case", c,
                                "--theta", th, "--corpus", q]))
    for name, corpus in IDENTITY_CORPORA.items():
        for spec in corpus:
            if spec.startswith("chi:") or (
                    spec == "pow:4" and name in COARSE_IDENTITY_CAPPED):
                ops.append(_verify(f"identity-{name}-{spec}",
                                   ["verify", "identity", "--name", name,
                                    "--corpus", spec]))
    return _shuffled(ops, rng, "holmstedt-R_interior-chi:0.1")


# ---------------------------------------------------------------------
# oracle-fine: fine grids, standard plus seeded step prototypes
# ---------------------------------------------------------------------

# distinct values (= oracle cuts) of the csv step prototypes: fixed
# levels from 1 to past the 128-cut cap, so every seed turns the dial the
# same way and only the positions and heights of the steps are drawn
CUT_COUNTS = (1, 16, 600)
# (case, prototypes): one-cut standard prototypes on both sides, and one
# prototype at the cut cap per side, standard for R and csv for L; six of
# the ten ops cost about the same, so op_s.p50 falls inside one group
FINE_CASES = (("R_interior", ("chi:0.1", "chi:0.001", "pow:2", "m1", "m16")),
              ("L_interior", ("chi:0.1", "chi:0.001", "m600", "m1", "m16")))


def step_rows(rng, m):
    """(t, value) rows of a nonincreasing step function with m values.

    Breakpoints sit on a 0.01 lattice in log t, so every step spans
    many grid cells at n >= 2^13 and survives sampling.
    """
    a = float(np.exp(rng.uniform(math.log(0.05), 0.0)))
    lo = math.log(1e-7)
    slots = np.arange(lo, math.log(a) - 0.01, 0.01)
    cuts = np.sort(rng.choice(slots, size=m - 1, replace=False)) \
        if m > 1 else np.array([])
    vals = np.sort(np.exp(rng.uniform(0.0, math.log(1000.0), m)))[::-1]
    while len(np.unique(vals)) < m:
        vals = np.sort(np.exp(rng.uniform(0.0, math.log(1000.0), m)))[::-1]
    ts = np.exp(cuts)
    first = ts[0] / 2 if m > 1 else a / 2
    rows = [(first, vals[0])]
    rows += [(float(t), float(v)) for t, v in zip(ts, vals[1:])]
    rows.append((a, vals[-1]))
    return rows


def oracle_fine(rng, work):
    os.makedirs(os.path.join(work, "csv"), exist_ok=True)
    specs = {}
    for m in CUT_COUNTS:
        name = f"step-m{m}.csv"
        with open(os.path.join(work, "csv", name), "w") as fh:
            fh.write("t,value\n")
            for t, v in step_rows(rng, m):
                fh.write(f"{float(t)!r},{float(v)!r}\n")
        specs[f"m{m}"] = "csv:{work}/csv/" + name
    ops = []
    for case, protos in FINE_CASES:
        for p in protos:
            ops.append(_verify(f"{case}-{p}",
                               ["verify", "holmstedt", "--case", case,
                                "--grid", "13,14",
                                "--corpus", specs.get(p, p)]))
    return _shuffled(ops, rng, "R_interior-chi:0.1")


# ---------------------------------------------------------------------
# norm-fine: direct descriptor norms with independent references
# ---------------------------------------------------------------------

PROTOS = ("chi:0.02", "chi:0.1", "chi:0.3", "chi:0.7", "chi:1",
          "pow:3", "pow:5", "pow:8", "log:0.5", "log:1", "log:2",
          "powlog:4,0.5", "powlog:6,1", "powlog:8,2")
THETAS = (0.3, 0.4, 0.5, 0.6)
QS = (1.0, 2.0, 3.0, 4.0)
BETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
NEG_BETAS = (-1.0, -0.5)
# part of an integral beyond the grid must be below exp(-MARGIN)
MARGIN = 9.5
# log10 of the grid bounds: tmin = 10^-U, tmax = 10^U
BOUND_DECADES = (10.0, 14.0)
GRIDS_PER_SIZE = 2
SIZES = (14, 16)


def _proto_exps(spec):
    """(kappa, mu): K(t) ~ t^kappa l(t)^mu as t -> 0."""
    kind, _, arg = spec.partition(":")
    if kind == "chi":
        return 1.0, 0.0
    if kind == "pow":
        return 1.0 - 1.0 / float(arg), 0.0
    if kind == "log":
        return 1.0, float(arg)
    r, m = arg.split(",")
    return 1.0 - 1.0 / float(r), float(m)


def _edge_ok(rate, logpow, X):
    """A tail like e^{-rate X} l^logpow is below exp(-MARGIN) at X."""
    return rate > 0 and rate * X - max(logpow, 0.0) * math.log1p(X) >= MARGIN


def _ell(a):
    return {"kind": "ell", "alpha": a} if a else {"kind": "const", "c": 1.0}


def _ri(q):
    return {"q": "inf" if math.isinf(q) else q}


def _draw_family(fam, rng, spec, X_lo, X_hi):
    """A descriptor of family `fam` for prototype spec, or None when the
    draw leaves the regime where a truncated grid resolves the norm."""
    kappa, mu = _proto_exps(spec)
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    if fam == "x0":
        return {"kind": "x0", "setting": "full"}
    if fam == "x1":
        return {"kind": "x1", "setting": "full"}
    if fam in ("theta-full", "theta-unit"):
        th, beta = pick(THETAS), pick(BETAS)
        q = math.inf if rng.random() < 0.25 else pick(QS)
        qq = 1.0 if math.isinf(q) else q
        ok = _edge_ok(qq * (kappa - th), qq * (mu + abs(beta)), X_lo)
        if fam == "theta-full":
            ok = ok and _edge_ok(qq * th, qq * beta, X_hi)
        if not ok:
            return None
        return {"kind": "theta", "theta": th, "b": _ell(beta), "E": _ri(q),
                "setting": "full" if fam == "theta-full" else "unit"}
    if fam in ("L-unit", "L-full", "R-unit", "R-full"):
        th, alpha_a = pick(THETAS), pick((-0.5, 0.0, 0.5))
        F = pick(QS)
        sup_outer = fam != "L-unit"
        beta = pick(NEG_BETAS) if sup_outer else pick(BETAS)
        E = math.inf if sup_outer else pick(QS)
        qmin = F if sup_outer else min(F, E)
        qmax = F if sup_outer else max(F, E)
        lp = qmax * (mu + abs(alpha_a) + abs(beta))
        if fam.startswith("L") or fam == "R-unit":
            ok = _edge_ok(qmin * (kappa - th), lp, X_lo)
        else:
            ok = True
        if fam == "R-full":
            ok = _edge_ok(F * (kappa - th), lp, X_lo) and \
                _edge_ok(F * th, F * abs(alpha_a), X_hi)
        if not ok:
            return None
        full = fam.endswith("full")
        return {"kind": fam[0], "theta": th, "b": _ell(beta), "E": _ri(E),
                "a": _ell(alpha_a), "F": _ri(F),
                "setting": "full" if full else "unit"}
    if fam in ("LL-unit", "RR-unit"):
        th = pick(THETAS)
        G, F = pick(QS), pick(QS)
        alpha_a, beta_b = pick((-0.5, 0.0, 0.5)), pick(NEG_BETAS)
        if fam == "LL-unit":
            E, gamma = pick(QS), pick(BETAS)
        else:
            E, gamma = math.inf, pick(NEG_BETAS)
            # the middle suffix norm must converge at 0: F * beta_b < -1
            if not F * beta_b < -1.0:
                return None
        qq = (G, F) if math.isinf(E) else (G, F, E)
        lp = max(qq) * (mu + abs(alpha_a) + abs(beta_b) + abs(gamma))
        if not _edge_ok(min(qq) * (kappa - th), lp, X_lo):
            return None
        return {"kind": fam[:2], "theta": th, "c": _ell(gamma), "E": _ri(E),
                "b": _ell(beta_b), "F": _ri(F), "a": _ell(alpha_a),
                "G": _ri(G), "setting": "unit"}
    if fam == "intersection":
        a = _draw_family("theta-unit", rng, spec, X_lo, X_hi)
        b = _draw_family("L-unit", rng, spec, X_lo, X_hi)
        if a is None or b is None:
            return None
        return {"kind": "intersection", "members": [a, b]}
    if fam in ("grand", "small"):
        p, alpha = pick((1.5, 2.0, 3.0)), pick((0.5, 1.0, 2.0))
        # f*^p ~ t^(-p (1 - kappa)) must be integrable near 0, with room
        if p * (1.0 - kappa) > 0.75:
            return None
        if fam == "small":
            rate = (1.0 - p * (1.0 - kappa)) / p
            lp = mu + abs(alpha * (p - 1) / p - 1.0)
            if not _edge_ok(rate, lp, X_lo):
                return None
        return {"kind": "app", "setting": "unit",
                "space": {"kind": fam, "p": p, "alpha": alpha}}
    raise ValueError(fam)


# (family, setting, ops per grid size); x1 draws half of its prototypes
# from the bounded chi family so both verdicts occur
NORM_FAMILIES = (("x0", "full", 4), ("x1", "full", 4),
                 ("theta-full", "full", 8), ("theta-unit", "unit", 6),
                 ("L-unit", "unit", 6), ("L-full", "full", 3),
                 ("R-unit", "unit", 6), ("R-full", "full", 3),
                 ("LL-unit", "unit", 4), ("RR-unit", "unit", 4),
                 ("intersection", "unit", 3), ("grand", "unit", 4),
                 ("small", "unit", 4))

# "Known defects" of ROADMAP.md, run as ops: while a defect stands its
# op fails and counts as a failed op; it is never filtered out.
KNOWN_DEFECTS = (
    ("defect-admissible-theta0-l-1.05-L1",
     {"kind": "theta", "theta": 0.0, "b": _ell(-1.05), "E": _ri(1.0),
      "setting": "full"}, "chi:0.5",
     "admissible space reported inadmissible (exit 2)"),
    ("defect-sup-theta0-l0.01-Linf",
     {"kind": "theta", "theta": 0.0, "b": _ell(0.01), "E": _ri(math.inf),
      "setting": "full"}, "chi:0.5",
     "infinite sup reported finite"),
    ("defect-mass-beyond-grid-theta0.95-L1",
     {"kind": "theta", "theta": 0.95, "b": _ell(0.0), "E": _ri(1.0),
      "setting": "full"}, "chi:1",
     "mass beyond the grid dropped silently"),
)


def ref_key(desc, spec):
    return json.dumps([desc, spec], sort_keys=True)


def norm_fine(rng, work):
    os.makedirs(os.path.join(work, "desc"), exist_ok=True)
    ops = []

    def add(op_id, desc, spec, grid, known=None):
        path = f"desc/{op_id}.json"
        with open(os.path.join(work, path), "w") as fh:
            json.dump(desc, fh, sort_keys=True)
        argv = ["norm", "--space", "{work}/" + path, "--fn", spec,
                "--grid", str(grid["log2n"])]
        for bound in ("tmin", "tmax"):
            if bound in grid:
                argv += ["--" + bound, repr(grid[bound])]
        ops.append({"id": op_id, "argv": argv,
                    "check": {"kind": "norm", "ref": ref_key(desc, spec),
                              "desc": desc, "fn": spec,
                              "known_defect": known}})

    for log2n in SIZES:
        grids = {"full": [], "unit": []}
        for setting in grids:
            for _ in range(GRIDS_PER_SIZE):
                lo = float(rng.uniform(*BOUND_DECADES))
                g = {"log2n": log2n, "tmin": 10.0 ** -lo, "X_lo": lo *
                     math.log(10.0), "X_hi": 0.0}
                if setting == "full":
                    hi = float(rng.uniform(*BOUND_DECADES))
                    g["tmax"] = 10.0 ** hi
                    g["X_hi"] = hi * math.log(10.0)
                grids[setting].append(g)
        for fam, setting, count in NORM_FAMILIES:
            for k in range(count):
                grid = grids[setting][int(rng.integers(GRIDS_PER_SIZE))]
                desc = None
                while desc is None:
                    if fam == "x1" and k % 2 == 0:
                        spec = PROTOS[int(rng.integers(5))]
                    else:
                        spec = PROTOS[int(rng.integers(len(PROTOS)))]
                    desc = _draw_family(fam, rng, spec, grid["X_lo"],
                                        grid["X_hi"])
                add(f"{log2n}-{fam}-{k}", desc, spec, grid)
        # on the CLI's default bounds (1e-8, 1e8), where they were found
        for op_id, desc, spec, why in KNOWN_DEFECTS:
            add(f"{log2n}-{op_id}", desc, spec, {"log2n": log2n},
                known=why)
    return _shuffled(ops, rng, f"{SIZES[0]}-x0-0")


def generate(workload, seed, work):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(work, exist_ok=True)
    if workload == "verify-coarse":
        return verify_coarse(rng, work)
    if workload == "oracle-fine":
        return oracle_fine(rng, work)
    if workload == "norm-fine":
        return norm_fine(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
