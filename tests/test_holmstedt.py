"""Split-point estimates for K over derived couples."""

import math
from dataclasses import replace

import numpy as np
import pytest

from interpolab.grid import (L1, L2, LINF, full_grid, log_norm_lower,
                             log_norm_upper)
from interpolab.sv import EllPow, BrokenEll, ONE, sv_log_on_grid
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, UNIT, CO_UNIT, couple_reverse)
from interpolab.holmstedt import (HolmstedtCase, CASES, R_CASES, L_CASES,
                                  DEFAULT_CASES, holmstedt_rhs,
                                  verify_holmstedt)
from interpolab.kfun import TruncationOracle, k_peetre, _cut_cap
from interpolab.applications import GrandLp, SmallLp, _reiterations
from interpolab import corpus


def test_case_registry():
    assert set(CASES) == set(R_CASES) | set(L_CASES)
    assert len(CASES) == 6
    assert set(DEFAULT_CASES) == set(CASES)


def test_members_shapes():
    c = DEFAULT_CASES["R_interior"]
    y0, y1 = c.y0, c.y1
    assert isinstance(y0, ThetaSpace) and isinstance(y1, RSpace)
    c = DEFAULT_CASES["R_x0"]
    y0, y1 = c.y0, c.y1
    assert isinstance(y0, EndpointX0)
    c = DEFAULT_CASES["L_x1"]
    y0, y1 = c.y0, c.y1
    assert isinstance(y0, LSpace) and isinstance(y1, EndpointX1)


def test_rho_exponents():
    gamma, _ = DEFAULT_CASES["R_interior"].rho_params()
    assert gamma == pytest.approx(0.25)      # theta1 - theta0
    gamma, _ = DEFAULT_CASES["R_x0"].rho_params()
    assert gamma == pytest.approx(0.5)       # theta1
    gamma, _ = DEFAULT_CASES["L_theta1_one"].rho_params()
    assert gamma == pytest.approx(0.75)      # 1 - theta0


def test_case_validation():
    with pytest.raises(ValueError):
        HolmstedtCase(ThetaSpace(0.5, ONE, L2),
                      RSpace(0.25, ONE, LINF, ONE, L2))
    # a couple in no configuration: a theta space, then an L-space
    with pytest.raises(ValueError):
        HolmstedtCase(ThetaSpace(0.25, ONE, L2),
                      LSpace(0.5, ONE, LINF, ONE, L2))


# -- the configuration is read off the couple ----------------------------

_MIRROR = dict(zip(L_CASES, R_CASES))


@pytest.mark.parametrize("kind", CASES)
def test_default_couples_classify_as_their_key(kind):
    c = DEFAULT_CASES[kind]
    assert HolmstedtCase(c.y0, c.y1).kind == kind


@pytest.mark.parametrize("kind", L_CASES)
def test_reversed_l_couple_is_the_mirror_r_case(kind):
    c = DEFAULT_CASES[kind]
    rev = HolmstedtCase(couple_reverse(c.y1), couple_reverse(c.y0))
    assert rev.kind == _MIRROR[kind]
    assert HolmstedtCase(couple_reverse(rev.y1), couple_reverse(rev.y0)) == c


@pytest.mark.parametrize("couple", [
    (SmallLp(2.0, 1.0).descriptor(), GrandLp(4.0, 1.0).descriptor()),
    (ThetaSpace(0.25, ONE, L2), ThetaSpace(0.5, ONE, L2)),
    (RSpace(0.25, ONE, L2, ONE, L2), ThetaSpace(0.5, ONE, L2)),
    (EndpointX0(), EndpointX1()),
    (ThetaSpace(0.25, ONE, L2, UNIT), RSpace(0.5, ONE, LINF, ONE, L2)),
    (ThetaSpace(0.5, ONE, L2), RSpace(0.5, ONE, LINF, ONE, L2)),
    (ThetaSpace(0.75, ONE, L2), RSpace(0.5, ONE, LINF, ONE, L2)),
], ids=["L-R", "theta-theta", "R-theta", "X0-X1", "mixed-settings",
        "interior-equal-thetas", "interior-decreasing-thetas"])
def test_couples_in_no_configuration_are_refused(couple):
    with pytest.raises(ValueError):
        HolmstedtCase(*couple)


def test_l_case_error_names_the_l_case():
    with pytest.raises(ValueError, match="L_interior .* R_interior"):
        HolmstedtCase(LSpace(0.5, ONE, LINF, ONE, L2),
                      ThetaSpace(0.25, ONE, L2))


@pytest.mark.parametrize("kind", L_CASES)
def test_l_case_in_the_unit_setting_is_the_co_unit_r_case(kind):
    # reversal maps (0, 1) onto (1, inf): a unit L couple reads its kind
    # off the reversed couple, an R case in the co_unit setting
    c = DEFAULT_CASES[kind]
    u = HolmstedtCase(replace(c.y0, setting=UNIT), replace(c.y1, setting=UNIT))
    assert u.kind == kind and u.setting == UNIT
    rev = HolmstedtCase(couple_reverse(u.y1), couple_reverse(u.y0))
    assert rev.kind == _MIRROR[kind] and rev.setting == CO_UNIT
    assert rev == HolmstedtCase(*(replace(couple_reverse(y), setting=CO_UNIT)
                                  for y in (c.y1, c.y0)))


def test_verify_holmstedt_runs_every_unit_couple():
    # the 10 distinct couples of the registered reiterations, all over
    # (0, 1), on their default unit grids and the standard corpus, under
    # the tier-1 bounds; only the prototypes no decomposition of the
    # couple can split are left out
    couples = dict.fromkeys(d.couple for d in _reiterations().values())
    assert len(couples) == 10
    for couple in couples:
        rep = verify_holmstedt(HolmstedtCase(*couple), log2n=(9, 10))
        assert rep.sizes() == [512, 1024]
        assert max(rep.window(n) for n in rep.sizes()) <= 100.0, couple
        assert rep.stability() <= 0.10, couple
        for spec, reason in rep.excluded:
            assert spec in ("pow:2", "powlog:2,1"), (couple, spec)
            assert reason.startswith("no finite decomposition found"), reason


def test_rhs_tables_are_finite_inside():
    c = DEFAULT_CASES["R_interior"]
    g = full_grid(512)
    f = corpus.sample("chi:0.1", g)
    lrho, lrhs = holmstedt_rhs(c, k_peetre(f))
    sl = g.interior()
    assert np.all(np.isfinite(lrho[sl]))
    assert np.all(np.isfinite(lrhs[sl]))
    # rho = u^gamma x slowly varying: the power factor wins across the grid
    assert lrho[sl][-1] > lrho[sl][0] + 1.0


def test_verify_interior_case_window():
    rep = verify_holmstedt(DEFAULT_CASES["R_interior"],
                           corpus=("chi:0.1", "pow:2"), log2n=(9, 10))
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0
    assert rep.stability() <= 0.10
    assert not rep.excluded


def test_verify_endpoint_case_excludes_outsiders():
    # f* = t^-1/2 type prototypes lie outside Y0 + Linf for L_x1
    rep = verify_holmstedt(DEFAULT_CASES["L_x1"],
                           corpus=("chi:0.1", "pow:2"), log2n=(9,))
    assert any(fid == "pow:2" for fid, _ in rep.excluded)
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0


def test_report_determinism():
    kw = dict(corpus=("chi:0.1", "log:2"), log2n=(9,))
    r1 = verify_holmstedt(DEFAULT_CASES["L_interior"], **kw)
    r2 = verify_holmstedt(DEFAULT_CASES["L_interior"], **kw)
    assert [(a.function_id, a.n, a.u, a.lhs, a.rhs) for a in r1.rows] == \
           [(a.function_id, a.n, a.u, a.lhs, a.rhs) for a in r2.rows]


def _verify_rows_ref(case, specs, k):
    """The sweep as first written: one row at a time, with K(., f; X0,
    X1) recomputed by k_peetre.  ((id, n, u, lhs, rhs) rows, excluded)."""
    y0, y1 = case.y0, case.y1
    rows, excluded = [], []
    n = 1 << k
    grid = full_grid(n)
    sel = grid.interior(0.05)
    idx = np.arange(sel.start, sel.stop)[::8]
    for spec in specs:
        fstar = corpus.sample(spec, grid)
        try:
            orc = TruncationOracle(k_peetre(fstar), y0, y1,
                                   max_cuts=_cut_cap(grid))
        except ValueError as e:
            excluded.append((spec, str(e)))
            continue
        lrho, lrhs = holmstedt_rhs(case, k_peetre(fstar))
        live = idx[np.isfinite(lrho[idx]) & np.isfinite(lrhs[idx])]
        lhs_all = np.exp(orc.k_at_log(lrho[live]))
        rhs_all = np.exp(lrhs[live])
        added = 0
        for i, lhs, rhs in zip(live, lhs_all.tolist(), rhs_all.tolist()):
            if not (math.isfinite(lhs) and lhs > 0 and rhs > 0):
                continue
            rows.append((spec, n, float(grid.t[i]), lhs, rhs))
            added += 1
        if not added:
            excluded.append((spec, f"no admissible split points at n={n}"))
    return rows, excluded


@pytest.mark.parametrize("kind", ["R_interior", "L_x1"])
def test_bulk_rows_match_the_row_loop(kind):
    case = DEFAULT_CASES[kind]
    rep = verify_holmstedt(case, corpus=corpus.STANDARD, log2n=(9,))
    rows, excluded = _verify_rows_ref(case, corpus.STANDARD, 9)
    assert repr([(r.function_id, r.n, r.u, r.lhs, r.rhs)
                 for r in rep.rows]) == repr(rows)
    assert rep.excluded == excluded
    assert rep.n_rows == len(rows) > 0


def test_oracle_carries_the_k_peetre_profile():
    g = full_grid(512)
    c = DEFAULT_CASES["R_interior"]
    y0, y1 = c.y0, c.y1
    for spec in corpus.STANDARD:
        fstar = corpus.sample(spec, g)
        orc = TruncationOracle(k_peetre(fstar), y0, y1, max_cuts=_cut_cap(g))
        want = k_peetre(fstar)
        assert orc.kprofile.logk.tobytes() == want.logk.tobytes()
        assert orc.kprofile.fstar.tobytes() == want.fstar.tobytes()


# -- the folded split formula against the separate R and L tables ------

def _logsum(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = np.logaddexp(out, p)
    return out


def _rhs_ref(case, K):
    grid, x, dx, logk = K.grid, K.grid.x, K.grid.dx, K.logk
    gamma, sv = case.rho_params()
    lrho = gamma * x + sv_log_on_grid(sv, grid)
    y0, y1 = case.y0, case.y1
    k = case.kind
    if k in R_CASES:
        la = sv_log_on_grid(y1.a, grid)
        lb1 = sv_log_on_grid(y1.b, grid)
        b1_low = log_norm_lower(lb1, y1.E.q, dx)
        aK_up = log_norm_upper(-y1.theta * x + la + logk, y1.F.q, dx)
        q1 = log_norm_upper(lb1 + aK_up, y1.E.q, dx)
        if k == "R_interior":
            lb0 = sv_log_on_grid(y0.b, grid)
            p0 = log_norm_lower(-y0.theta * x + lb0 + logk, y0.E.q, dx)
        elif k == "R_theta0_zero":
            lb0 = sv_log_on_grid(y0.b, grid)
            p0 = log_norm_lower(lb0 + logk, y0.E.q, dx)
        else:
            p0 = np.full_like(x, -np.inf)
        return lrho, _logsum(p0, lrho + _logsum(b1_low + aK_up, q1))
    la = sv_log_on_grid(y0.a, grid)
    lb0 = sv_log_on_grid(y0.b, grid)
    b0_up = log_norm_upper(lb0, y0.E.q, dx)
    aK_low = log_norm_lower(-y0.theta * x + la + logk, y0.F.q, dx)
    t1 = log_norm_lower(lb0 + aK_low, y0.E.q, dx)
    if k == "L_interior":
        lb1 = sv_log_on_grid(y1.b, grid)
        t3 = lrho + log_norm_upper(-y1.theta * x + lb1 + logk,
                                   y1.E.q, dx)
    elif k == "L_theta1_one":
        lb1 = sv_log_on_grid(y1.b, grid)
        t3 = lrho + log_norm_upper(-x + lb1 + logk, y1.E.q, dx)
    else:
        t3 = np.full_like(x, -np.inf)
    return lrho, _logsum(t1, b0_up + aK_low, t3)


_EDGE_CASES = [
    HolmstedtCase(ThetaSpace(0.1, EllPow(-1.0), L1),
                  RSpace(0.9, EllPow(-2.0), L2, EllPow(0.5), L1)),
    HolmstedtCase(ThetaSpace(0.0, EllPow(-2.0), L1),
                  RSpace(1.0, ONE, LINF, BrokenEll(1.0, -1.0), L2)),
    HolmstedtCase(LSpace(0.0, EllPow(-2.0), L1, BrokenEll(1.0, -1.0), L2),
                  ThetaSpace(1.0, EllPow(-1.0), LINF)),
    HolmstedtCase(LSpace(0.0, EllPow(-1.0), L2, EllPow(-1.0), L2),
                  EndpointX1()),
]


@pytest.mark.parametrize("case", list(DEFAULT_CASES.values()) + _EDGE_CASES,
                         ids=list(DEFAULT_CASES) + [
                             f"edge-{c.kind}" for c in _EDGE_CASES])
def test_folded_rhs_matches_side_tables(case):
    g = full_grid(512)
    for spec in ("chi:0.1", "pow:2", "powlog:2,1", "log:2"):
        K = k_peetre(corpus.sample(spec, g))
        got = holmstedt_rhs(case, K)
        want = _rhs_ref(case, K)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (case.kind, spec)
