"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a
single PASS line (written to the real stdout so it survives capture):

 1. exact K-functional for the square-root profile
 2. truncation oracle tightness against the exact K
 3. closed-form tail-norm identities for log weights
 4. two-sided envelope for weighted tail norms of power functions
 5. split-point formulas for all six registered decompositions
 6. reiteration for interior and endpoint outer parameters
 7. identity scenarios tying concrete function spaces to descriptors
 8. exact norm invariance under couple reversal
 9. weighted Hardy inequalities and the nested-norm collapse
10. byte-identical verification reports across reruns
"""

import math
import time

import numpy as np

from interpolab.grid import (Grid, GridFunction, L1, L2, LINF, UNIT,
                             full_grid, unit_grid, tilde_norm,
                             log_norm_lower, log_norm_upper,
                             lebesgue_prefix, lebesgue_suffix)
from interpolab.sv import EllPow, BrokenEll, ONE, sv_log_on_grid
from interpolab.kfun import k_peetre, norm_in_space, TruncationOracle
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, Over)
from interpolab.holmstedt import DEFAULT_CASES, verify_holmstedt
from interpolab.reiteration import verify_reiteration
from interpolab.applications import verify_identity
from interpolab.cli import main
from interpolab import corpus

from util import couple_reverse, kprofile_reverse


def _report(capsys, line):
    # bypass output capture so each criterion leaves one visible line
    with capsys.disabled():
        print(line, flush=True)


def _weighted(grid, exponent, b, values):
    lb = sv_log_on_grid(b, grid)
    with np.errstate(divide="ignore"):
        return GridFunction(grid, np.exp(exponent * grid.x + lb) * values)


def _window(ratios):
    r = np.asarray(ratios, dtype=float)
    return float(np.max(r) / np.min(r))


def test_criterion_01_peetre_sqrt_profile(capsys):
    # f*(s) = s^(-1/2) gives K(t; L1, Linf) = 2 sqrt(t) exactly
    t0 = time.perf_counter()
    g = unit_grid(4096)
    K = k_peetre(GridFunction(g, np.exp(-0.5 * g.x)))
    sl = g.interior(0.05)
    err = np.max(np.abs(np.exp(K.logk[sl]) / (2.0 * np.sqrt(g.t[sl])) - 1.0))
    dt = time.perf_counter() - t0
    assert err < 1e-3, err
    assert dt < 1.0, dt
    _report(capsys, f"criterion 1: PASS sqrt-profile K, interior error "
            f"{err:.2e}, {dt:.2f}s")


def test_criterion_02_oracle_tightness(capsys):
    # truncation decompositions over-estimate K by at most 5 percent
    g = full_grid(1024)
    sl = g.interior(0.05)
    worst = 1.0
    for spec in ("chi:0.1", "pow:2", "powlog:2,1", "log:2"):
        f = corpus.sample(spec, g)
        K = k_peetre(f)
        exact = np.exp(K.logk[sl])
        est = TruncationOracle(K, EndpointX0(), EndpointX1()).k_at(g.t[sl])
        ratio = est / exact
        assert np.all(ratio > 1.0 - 1e-9), (spec, ratio.min())
        assert np.all(ratio <= 1.05), (spec, ratio.max())
        worst = max(worst, float(ratio.max()))
    _report(capsys, f"criterion 2: PASS oracle within 5% of exact K "
            f"(worst ratio {worst:.4f})")


def test_criterion_03_log_weight_tail_identities(capsys):
    # || l^-2 ||_{L1~(0,u)} = 1 / l(u), with l(t) = 1 + |log t|
    n = 1 << 20
    g1 = Grid(-6e4, 0.0, n, UNIT)
    ell = 1.0 - g1.x
    pref = np.exp(log_norm_lower(np.log(ell ** -2.0), L1.q, g1.dx))
    mask = (g1.x >= math.log(1e-6)) & (g1.x <= math.log(0.5))
    ratio = pref[mask] * ell[mask]
    err = float(np.max(np.abs(ratio - 1.0)))
    assert err <= 1e-3, err

    # sweep of closed-form tail norms, windows within 1.2
    g2 = Grid(-6e4, math.log(0.5), n)
    ell2 = 1.0 - g2.x
    mask2 = (g2.x >= math.log(1e-6)) & (g2.x <= math.log(0.5))
    wins = {}
    # prefix norms on (0, u): (sigma, q) with closed forms
    lower = {(-2.0, 1.0): 1.0 / ell2, (-1.0, math.inf): 1.0 / ell2,
             (0.0, math.inf): np.ones(g2.n)}
    for (sigma, q), closed in lower.items():
        got = np.exp(log_norm_lower(np.log(ell2 ** sigma), q, g2.dx))
        wins[(sigma, q, "lower")] = _window(got[mask2] / closed[mask2])
    # suffix norm on (u, 1/2) of l itself
    suf = np.exp(log_norm_upper(np.log(ell2), L1.q, g2.dx))
    closed = 0.5 * (ell2 ** 2 - ell2[-1] ** 2)
    sl = g2.interior(0.05)
    wins[(1.0, 1.0, "upper")] = _window(suf[sl] / closed[sl])
    worst = max(wins.values())
    assert worst <= 1.2, wins
    assert err <= 1e-3
    _report(capsys, f"criterion 3: PASS tail identities, pointwise error "
            f"{err:.2e}, sweep windows <= {worst:.5f}")


def test_criterion_04_power_tail_envelope(capsys):
    # || s^a b ||_{E~(0,t)} ~ t^a b(t) and the mirrored suffix form.
    # Each side is measured on the half line where the log weight is a
    # single monotone branch; across both branches at once the exact
    # ratio spread for l at alpha = 1/4, q = 1 is about 7.4.
    grids = {n: full_grid(n) for n in (512, 1024)}
    weights = (ONE, EllPow(1.0), EllPow(-1.0), BrokenEll(1.0, -1.0))
    worst_w, worst_drift = 1.0, 0.0
    for b in weights:
        for alpha in (0.25, 1.0):
            for E in (L1, L2, LINF):
                for side, scan, sgn in (("lower", log_norm_lower, alpha),
                                        ("upper", log_norm_upper, -alpha)):
                    wins = {}
                    for n, g in grids.items():
                        lb = sv_log_on_grid(b, g)
                        target = np.exp(sgn * g.x + lb)
                        got = np.exp(scan(np.log(target), E.q, g.dx))
                        mask = np.zeros(g.n, dtype=bool)
                        mask[g.interior(0.25)] = True
                        mask &= (g.x <= 0) if side == "lower" else (g.x >= 0)
                        wins[n] = _window(got[mask] / target[mask])
                        assert wins[n] <= 5.0, (b, alpha, E, side, wins[n])
                    drift = abs(wins[1024] / wins[512] - 1.0)
                    assert drift <= 0.10, (b, alpha, E, side, drift)
                    worst_w = max(worst_w, wins[1024])
                    worst_drift = max(worst_drift, drift)
    _report(capsys, f"criterion 4: PASS power-tail envelope, worst window "
            f"{worst_w:.3f}, worst drift {worst_drift:.4f}")


def test_criterion_05_split_point_formulas(capsys):
    t0 = time.perf_counter()
    lines = []
    for name, case in DEFAULT_CASES.items():
        rep = verify_holmstedt(case, log2n=(9, 10))
        win = max(rep.window(n) for n in rep.sizes())
        stab = rep.stability()
        assert win <= 100.0, (name, win)
        assert stab <= 0.10, (name, stab)
        lines.append(f"{name} {win:.3g}")
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(capsys, "criterion 5: PASS split-point windows "
            + ", ".join(lines) + f" ({dt:.1f}s)")


def test_criterion_06_reiteration(capsys):
    runs = []
    for kind in ("R_interior", "L_interior"):
        c = DEFAULT_CASES[kind]
        for theta in (0.25, 0.5, 0.75):
            runs.append(Over((c.y0, c.y1), ThetaSpace(theta, ONE, LINF)))
        for theta in (0.0, 1.0):
            runs.append(Over((c.y0, c.y1), ThetaSpace(theta, EllPow(-1.0),
                                                      L2)))
    worst = 1.0
    for case in runs:
        rep = verify_reiteration(case, log2n=(9, 10))
        win = max(rep.window(n) for n in rep.sizes())
        assert win <= 100.0, (rep.case, win)
        assert rep.stability() <= 0.10
        worst = max(worst, win)
    _report(capsys, f"criterion 6: PASS reiteration over {len(runs)} "
            f"configurations, worst window {worst:.3f}")


def test_criterion_07_identity_scenarios(capsys):
    bounds = {"ultra-as-theta": 1.5, "grand-as-R": 20.0,
              "small-as-L": 20.0, "small-grand-interior": 50.0}
    lines = []
    for name, bound in bounds.items():
        rep = verify_identity(name, log2n=(9, 10))
        win = max(rep.window(n) for n in rep.sizes())
        stab = rep.stability()
        assert win <= bound, (name, win, bound)
        assert stab <= 0.10, (name, stab)
        lines.append(f"{name} {win:.3g}<={bound:g}")
    _report(capsys, "criterion 7: PASS identities " + ", ".join(lines))


def test_criterion_08_couple_reversal_exact(capsys):
    g = full_grid(1024)
    descriptors = (
        ThetaSpace(0.25, EllPow(0.5), L2),
        ThetaSpace(0.5, ONE, LINF),
        RSpace(0.25, EllPow(0.5), L2, ONE, L2),
        LSpace(0.5, EllPow(0.5), L2, ONE, L2),
    )
    finite, total, worst = 0, 0, 0.0
    for spec in corpus.STANDARD:
        K = k_peetre(corpus.sample(spec, g))
        R = kprofile_reverse(K)
        for d in descriptors:
            total += 1
            a = norm_in_space(K, d)
            bb = norm_in_space(R, couple_reverse(d))
            if math.isinf(a) or math.isinf(bb):
                # divergence must be symmetric as well
                assert math.isinf(a) and math.isinf(bb), (spec, d)
                continue
            rel = abs(a - bb) / max(a, bb)
            assert rel <= 1e-6, (spec, d, rel)
            worst = max(worst, rel)
            finite += 1
    assert total == 32 and finite >= 12
    _report(capsys, f"criterion 8: PASS couple reversal on {total} pairs, "
            f"{finite} finite (worst rel diff {worst:.1e})")


def test_criterion_09_hardy_and_nested_collapse(capsys):
    g = full_grid(1024)
    specs = ("chi:0.001", "chi:0.1", "chi:1", "pow:4", "powlog:4,-1",
             "log:2")
    weights = (ONE, EllPow(1.0), EllPow(-1.0))
    worst_c = 0.0
    for spec in specs:
        f = corpus.sample(spec, g)
        pref = lebesgue_prefix(f.values, g)
        suf = lebesgue_suffix(f.values, g)
        for alpha in (0.25, 0.5, 1.0):
            for b in weights:
                for E in (L1, L2, LINF):
                    lhs = tilde_norm(_weighted(g, -alpha, b, pref), E)
                    rhs = tilde_norm(_weighted(g, 1 - alpha, b, f.values), E)
                    if math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0:
                        assert lhs <= 10.0 * rhs, (spec, alpha, b, E)
                        worst_c = max(worst_c, lhs / rhs)
                for E in (L2, LINF):
                    lhs = tilde_norm(_weighted(g, alpha, b, suf), E)
                    rhs = tilde_norm(_weighted(g, 1 + alpha, b, f.values), E)
                    if math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0:
                        assert lhs <= 10.0 * rhs, (spec, alpha, b, E)
                        worst_c = max(worst_c, lhs / rhs)
    lo, hi = math.inf, 0.0
    for spec in ("chi:0.001", "chi:0.1", "chi:1", "pow:4"):
        f = corpus.sample(spec, g)
        for alpha, beta in ((-0.5, 1.0), (-0.25, 0.5)):
            for a in (ONE, EllPow(0.5)):
                for b in (ONE, EllPow(0.5)):
                    for E, F in ((L2, L2), (L2, LINF), (LINF, L2)):
                        inner = np.exp(log_norm_upper(_weighted(
                            g, alpha, a, f.values).log_values(), F.q, g.dx))
                        lhs = tilde_norm(_weighted(g, beta, b, inner), E)
                        rhs = tilde_norm(
                            _weighted(g, alpha + beta, a * b, f.values), E)
                        if not (math.isfinite(lhs) and math.isfinite(rhs)
                                and rhs > 0 and lhs > 0):
                            continue
                        r = lhs / rhs
                        assert 0.1 <= r <= 10.0, (spec, alpha, beta, r)
                        lo, hi = min(lo, r), max(hi, r)
    _report(capsys, f"criterion 9: PASS Hardy constants <= {worst_c:.2f} (bound "
            f"10), nested collapse ratios in [{lo:.2f}, {hi:.2f}]")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    args = ["verify", "identity", "--name", "ultra-as-theta",
            "--grid", "9", "--window-max", "1.5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    pa = tmp_path / "a" / "identity_ultra-as-theta.csv"
    pb = tmp_path / "b" / "identity_ultra-as-theta.csv"
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.stat().st_size > 0
    _report(capsys, "criterion 10: PASS byte-identical CSV reports across reruns")
