"""K-functional computation, couple reversal and the truncation oracle."""

import ast
import inspect
import math
import os
import time

import numpy as np
import pytest

from interpolab.grid import (Grid, GridFunction, L1, L2, LINF, full_grid,
                             unit_grid, edge_diverges, _final)
from interpolab.sv import EllPow, ONE
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, RSpace,
                               Intersection, Over, FULL, UNIT, CO_UNIT)
from interpolab.kfun import (KProfile, k_peetre, norm_in_space,
                             TruncationOracle, _cut_cap)
from interpolab.holmstedt import DEFAULT_CASES
from interpolab import corpus, kfun

from util import (rel_err, kprofile_reverse, mirror, k_all_pairs,
                  k_log_all_pairs)


def test_kfun_imports_nothing_from_applications():
    # the concrete spaces norm themselves (AppSpace.norm): kfun, the
    # lower layer, reaches a recipe through the app member it norms
    for node in ast.walk(ast.parse(inspect.getsource(kfun))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            assert not any("applications" in n for n in names), node.lineno


def test_peetre_exact_sqrt():
    # f*(s) = s^-1/2 on (0,1): K(t; L1, Linf) = int_0^t f* = 2 sqrt(t)
    g = unit_grid(4096)
    f = GridFunction(g, np.exp(-0.5 * g.x))
    K = k_peetre(f).values
    err = np.abs(K / (2.0 * np.sqrt(g.t)) - 1.0)
    sl = g.interior()
    assert np.max(err[sl]) < 1e-3


def test_k_monotone_properties():
    g = full_grid(1024)
    for spec in corpus.STANDARD:
        f = corpus.sample(spec, g)
        K = k_peetre(f).values
        assert np.all(np.diff(K) >= -1e-12 * K[:-1]), spec
        ratio = K / g.t
        assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1]), spec


def test_kprofile_reverse_is_involution():
    g = full_grid(512)       # symmetric in log t about t = 1
    f = corpus.sample("powlog:2,1", g)
    K = k_peetre(f)
    back = kprofile_reverse(kprofile_reverse(K))
    assert np.allclose(back.logk, K.logk, atol=1e-12)


def test_kprofile_reverse_lands_on_the_reflected_grid():
    # a profile reverses onto the grid of t -> 1/t (util.mirror): a unit
    # profile onto the co_unit grid, and back onto the unit nodes
    g = unit_grid(512)
    K = k_peetre(corpus.sample("chi:0.1", g))
    R = kprofile_reverse(K)
    assert np.array_equal(R.grid.x, mirror(g).x)
    assert R.grid.setting == CO_UNIT
    assert np.array_equal(R.logk, R.grid.x + K.logk[::-1])
    back = kprofile_reverse(R)
    assert np.array_equal(back.grid.x, g.x) and back.grid.setting is UNIT
    assert np.allclose(back.logk, K.logk, atol=1e-12)


def test_kprofile_reverse_pointwise():
    # K_rev(t) = t K(1/t): on a symmetric grid node i maps to n-1-i
    g = full_grid(512)
    f = corpus.sample("chi:0.1", g)
    K = k_peetre(f)
    R = kprofile_reverse(K)
    expect = g.x + K.logk[::-1]
    assert np.allclose(R.logk, expect, atol=1e-12)


def test_oracle_tightness_endpoint_couple():
    # the truncation family contains the exact optimizer for (L1, Linf)
    g = full_grid(1024)
    sl = g.interior()
    for spec in ("chi:0.1", "pow:2", "powlog:4,-1", "log:2"):
        f = corpus.sample(spec, g)
        K = np.exp(k_peetre(f).logk)
        est = TruncationOracle(k_peetre(f), EndpointX0(),
                               EndpointX1()).k_at(g.t)
        ratio = est[sl] / K[sl]
        assert np.min(ratio) > 1.0 - 1e-9, spec
        assert np.max(ratio) <= 1.05, spec


def test_theta_norm_analytic():
    # f* = chi_(0,a): K = min(t, a) and || t^-1/2 K ||_{L~2}^2 = 2a
    g = full_grid(2048)
    a = 0.01
    f = GridFunction(g, (g.t <= a).astype(float))
    val = norm_in_space(k_peetre(f), ThetaSpace(0.5, ONE, L2))
    assert rel_err(val, math.sqrt(2.0 * a)) < 5e-3


def test_endpoint_norms_flag_divergence():
    g = full_grid(1024)
    # f* = t^-1/2 on the whole line: outside both L1 and Linf
    f = GridFunction(g, np.exp(-0.5 * g.x))
    K = k_peetre(f)
    assert norm_in_space(K, EndpointX1()) == math.inf
    assert norm_in_space(K, EndpointX0()) == math.inf
    # f* = chi_(0,a) is in both
    fc = corpus.sample("chi:0.1", g)
    Kc = k_peetre(fc)
    assert rel_err(norm_in_space(Kc, EndpointX0()), 0.1) < 1e-2
    assert rel_err(norm_in_space(Kc, EndpointX1()), 1.0) < 1e-9


def test_intersection_norm_is_max():
    g = full_grid(512)
    f = corpus.sample("chi:0.1", g)
    K = k_peetre(f)
    d1 = ThetaSpace(0.5, ONE, L2)
    d2 = ThetaSpace(0.25, ONE, L2)
    both = norm_in_space(K, Intersection((d1, d2)))
    assert both == max(norm_in_space(K, d1), norm_in_space(K, d2))


def test_oracle_profile_upper_bounds_k():
    g = full_grid(512)
    f = corpus.sample("pow:4", g)
    orc = TruncationOracle(k_peetre(f), EndpointX0(), EndpointX1(),
                           max_cuts=64)
    K = np.exp(k_peetre(f).logk)
    est = orc.k_at(g.t)
    assert np.all(est >= K * (1.0 - 1e-9))


def test_oracle_k_at_log_matches_k_at():
    g = full_grid(512)
    f = corpus.sample("powlog:2,1", g)
    orc = TruncationOracle(k_peetre(f), EndpointX0(), EndpointX1(),
                           max_cuts=64)
    xs = g.x[100:400:50]
    assert np.allclose(np.exp(orc.k_at_log(xs)), orc.k_at(np.exp(xs)),
                       rtol=1e-10)


# -- K off the lower envelope against the formulas over all pairs ---------

def _same(got, want):
    """Bit for bit, but any NaN for a NaN: np.min leaves the sign bit of
    the NaN of t B = inf times 0 open."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _k_is_all_pairs(orc, grid, exact_at_breaks=False):
    """k_at and k_at_log equal the all-pairs formulas bit for bit on the
    grid, on x from 50 below to 50 above it, and where t is 0,
    subnormal or past float range; returns the number of pairs.

    At each t where a hull line starts, and one ulp either side, the
    result is within two ulps above the all-pairs one: where pairs lie on
    one line, their lines meet near one t, and there a line off the hull
    can compute an ulp lower than the hull lines (the R_x0 oracles).
    With exact_at_breaks it must equal it there too."""
    xs = np.r_[grid.x, np.linspace(grid.x[0] - 50.0, grid.x[-1] + 50.0,
                                   2001),
               -np.inf, -1e4, -745.0, -720.0, 710.0, 1e4, np.inf]
    tv = orc._envelope[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ts = np.exp(xs)
        near = np.r_[tv, np.nextafter(tv, 0.0), np.nextafter(tv, np.inf)]
        for k, k_ref, pts, at in (
                (orc.k_at, k_all_pairs, ts, near),
                (orc.k_at_log, k_log_all_pairs, xs, np.log(near))):
            assert _same(k(pts), k_ref(orc.A, orc.B, pts))
            got, want = k(at), k_ref(orc.A, orc.B, at)
            assert _same(got, want) or not exact_at_breaks and np.all(
                (got == want) | (got > want)
                & (got <= want + 2 * np.spacing(np.abs(want))))
    return len(orc.A)


@pytest.mark.parametrize("kind", sorted(DEFAULT_CASES))
@pytest.mark.parametrize("k", (9, 10))
def test_k_from_the_envelope_is_k_over_all_pairs(kind, k):
    c = DEFAULT_CASES[kind]
    g = Grid.from_bounds(None, None, 1 << k, c.setting)
    sizes = []
    for spec in corpus.STANDARD:
        try:
            orc = TruncationOracle(k_peetre(corpus.sample(spec, g)), c.y0,
                                   c.y1, max_cuts=_cut_cap(g))
        except ValueError:
            continue
        sizes.append(_k_is_all_pairs(orc, g))
    assert max(sizes) > 100     # some prototype hits the cut cap


def test_k_from_the_envelope_on_600_steps(tmp_path, monkeypatch):
    # the step prototype of tools/report_digest.py: 600 values, past the
    # cut cap, so 129 pairs, 74 of them on the hull
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    import report_digest
    path = tmp_path / "steps.csv"
    path.write_text(report_digest.steps_csv())
    c = DEFAULT_CASES["L_interior"]
    g = Grid.from_bounds(None, None, 1 << 13, c.setting)
    f = corpus.sample(f"csv:{path}", g)
    assert len(np.unique(f.values[f.values > 0])) == 600
    orc = TruncationOracle(k_peetre(f), c.y0, c.y1, max_cuts=_cut_cap(g))
    assert _k_is_all_pairs(orc, g) == 129


def test_k_from_the_envelope_with_few_pairs():
    g = full_grid(512)
    K = k_peetre(corpus.sample("chi:0.5", g))   # one value: no cut
    trivial = TruncationOracle(K, EndpointX0(), EndpointX1())
    assert (trivial.A == 0.0).sum() == (trivial.B == 0.0).sum() == 1
    assert _k_is_all_pairs(trivial, g) == 2
    # int K^2 dt/t diverges at inf: only the splitting 0 + f is finite
    one = TruncationOracle(K, ThetaSpace(0.0, ONE, L2), EndpointX1())
    assert _k_is_all_pairs(one, g) == 1 and one.A[0] == 0.0


def test_k_from_the_envelope_with_duplicate_pairs():
    # the hull keeps one of equal lines, and one of equal intercepts
    orc = object.__new__(TruncationOracle)
    orc.A = np.array([3.0, 0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 3.0, 2.0, 0.5])
    orc.B = np.array([0.0, 4.0, 1.0, 1.0, 0.5, 1.0, 4.0, 0.0, 0.25, 3.0])
    assert _k_is_all_pairs(orc, full_grid(512), exact_at_breaks=True) == 10
    assert len(orc._envelope[0]) < 10


def test_oracle_rejects_nonintegrable():
    g = full_grid(512)
    f = GridFunction(g, np.exp(-1.5 * g.x))   # f* = t^-3/2 not in L1 + Linf?
    with pytest.raises(ValueError):
        TruncationOracle(k_peetre(f), EndpointX0(), EndpointX1())


def test_oracle_trivial_gap():
    # for an R-space member couple the cut family must beat the trivial
    # splittings somewhere, otherwise the oracle degenerates
    g = full_grid(512)
    f = corpus.sample("pow:2", g)
    y1 = RSpace(0.5, ONE, LINF, ONE, L2, FULL)
    orc = TruncationOracle(k_peetre(f), ThetaSpace(0.25, ONE, L2), y1,
                           max_cuts=64)
    gap = orc.trivial_gap(g.t[g.interior()])
    assert np.max(gap) > 1.0


def test_peetre_runtime():
    g = unit_grid(4096)
    f = GridFunction(g, np.exp(-0.5 * g.x))
    t0 = time.perf_counter()
    k_peetre(f)
    assert time.perf_counter() - t0 < 1.0


def test_over_norms_a_stack_row_by_row():
    # an Over that is a member of another couple is normed on the stacked
    # cut profiles of that couple's oracle: each row as if alone
    g = full_grid(512)
    fs = [corpus.sample(s, g) for s in ("chi:0.1", "pow:4")]
    d = Over((EndpointX0(), ThetaSpace(0.5, ONE, L2)),
             ThetaSpace(0.25, ONE, L2))
    stack = k_peetre(GridFunction(g, np.stack([f.values for f in fs])))
    alone = [norm_in_space(k_peetre(f), d) for f in fs]
    assert norm_in_space(stack, d).tolist() == alone
    assert all(math.isfinite(v) and v > 0 for v in alone)
    nested = Over((d, EndpointX1()), ThetaSpace(0.5, ONE, L2))
    assert math.isfinite(norm_in_space(k_peetre(fs[0]), nested))


def test_over_a_couple_without_a_decomposition_is_infinite():
    # pow:2 = s^(-1/2) has K(t) = 2 t^(1/2), while both members need K
    # to vanish faster than t^0.9 at 0: f lies outside Y0 + Y1, and the
    # Over reads the oracle's refusal as a divergent norm
    g = full_grid(512)
    K = k_peetre(corpus.sample("pow:2", g))
    couple = (ThetaSpace(0.9, ONE, L1), ThetaSpace(0.95, ONE, L1))
    with pytest.raises(ValueError, match="no finite decomposition found"):
        TruncationOracle(K, *couple)
    assert norm_in_space(K, Over(couple, ThetaSpace(0.5, ONE, L2))) \
        == math.inf


def _endpoint_ref(K, d):
    """The endpoint norms as sup K (X0) and sup K(t)/t (X1), with the
    edge test at the end where the sup is approached."""
    g = K.grid
    if isinstance(d, EndpointX0):
        lw, side = K.logk, "high"
    else:
        lw, side = K.logk - g.x, "low"
    return np.where(edge_diverges(lw, math.inf, g, side), math.inf,
                    _final(np.max(lw, axis=-1)))


def _same_bits(got, ref):
    return np.asarray(got, float).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("log2n", [9, 10])
@pytest.mark.parametrize("setting", [FULL, UNIT])
def test_endpoint_norms_are_the_sups_of_k(setting, log2n):
    g = (full_grid if setting == FULL else unit_grid)(1 << log2n)
    for spec in corpus.STANDARD:
        K = k_peetre(corpus.sample(spec, g))
        for d in (EndpointX0(setting), EndpointX1(setting)):
            assert _same_bits(norm_in_space(K, d), _endpoint_ref(K, d)), \
                (spec, d)


@pytest.mark.parametrize("case", ["R_x0", "L_x1"])
def test_endpoint_norms_of_the_oracle_cuts_are_the_sups_of_k(
        monkeypatch, case):
    # R_x0 has Y0 = X0 and L_x1 has Y1 = X1: the oracle norms its
    # stacks of cut profiles in them
    seen = []

    def spy(K, d):
        out = norm_in_space(K, d)
        if isinstance(d, (EndpointX0, EndpointX1)):
            seen.append((K, d, out))
        return out

    monkeypatch.setattr(kfun, "norm_in_space", spy)
    g = full_grid(512)
    c = DEFAULT_CASES[case]
    for spec in ("chi:0.1", "pow:4", "powlog:4,-1", "log:2"):
        TruncationOracle(k_peetre(corpus.sample(spec, g)), c.y0, c.y1,
                         max_cuts=64)
    assert any(np.ndim(out) == 1 for _, _, out in seen)
    for K, d, out in seen:
        assert _same_bits(out, _endpoint_ref(K, d)), d
