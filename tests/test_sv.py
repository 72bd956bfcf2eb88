"""Slowly varying weights: evaluation, tail norms, contracts, JSON."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpolab import sv
from interpolab.grid import (Grid, L1, L2, LINF, UNIT, CO_UNIT, full_grid,
                             unit_grid)
from interpolab.sv import (SvExpr, Const, EllPow, BrokenEll, IteratedEll,
                           ExpLogPow, Product, Power, InverseArg, NormTail,
                           ComposeWithRho, ONE, SvDivergenceError,
                           inverse_arg, sv_log_eval, sv_log_on_grid)
from interpolab.wire import to_json

from util import (SV_WEIGHTS, rel_err, interior_ratio_window, mirror,
                  sv_eval, sv_verify)


def test_ellpow_values():
    assert sv_eval(EllPow(2.0), 1.0) == 1.0
    assert rel_err(sv_eval(EllPow(2.0), math.e), 4.0) < 1e-12
    # symmetric in log t
    assert rel_err(sv_eval(EllPow(-1.0), math.e),
                   sv_eval(EllPow(-1.0), 1.0 / math.e)) < 1e-12


def test_broken_ell_values():
    b = BrokenEll(1.0, -1.0)
    assert rel_err(sv_eval(b, math.exp(-1.0)), 2.0) < 1e-12
    assert rel_err(sv_eval(b, math.exp(1.0)), 0.5) < 1e-12


def test_iterated_ell_values():
    # (l o l)(t) = 1 + log(1 + |log t|)
    b = IteratedEll(2, 1.0)
    t = math.exp(math.e - 1.0)
    assert rel_err(sv_eval(b, t), 2.0) < 1e-12
    with pytest.raises(ValueError):
        IteratedEll(1, 1.0)


def test_iterated_ell_depth_is_capped():
    # each composition is one pass over the grid and the iterate tends to
    # 1, so a depth of 10^9 bought nothing but a hang
    assert sv_eval(IteratedEll(64, 1.0), 1e-300) > 1.0
    with pytest.raises(ValueError, match="at most 64"):
        IteratedEll(65, 1.0)
    with pytest.raises(ValueError, match="at most 64"):
        IteratedEll(10 ** 9, 1.0)


def test_explogpow_values():
    b = ExpLogPow(0.5)
    assert rel_err(sv_eval(b, math.exp(4.0)), math.exp(2.0)) < 1e-12
    with pytest.raises(ValueError):
        ExpLogPow(1.5)


def test_product_power_algebra():
    e = EllPow(1.0) * Power(EllPow(2.0), -0.5)
    # l(t) * l(t)^-1 = 1
    t = 123.0
    assert rel_err(sv_eval(e, t), 1.0) < 1e-12
    e2 = EllPow(3.0) ** (1.0 / 3.0)
    assert rel_err(sv_eval(e2, t), sv_eval(EllPow(1.0), t)) < 1e-12


def test_inverse_arg_collapses():
    assert inverse_arg(EllPow(2.0)) == EllPow(2.0)
    assert inverse_arg(BrokenEll(1.0, -1.0)) == BrokenEll(-1.0, 1.0)
    e = ExpLogPow(0.5)
    assert inverse_arg(inverse_arg(e)) == e
    # numeric: b(1/t)
    t = 7.0
    w = inverse_arg(BrokenEll(1.0, -1.0))
    assert rel_err(sv_eval(w, t), sv_eval(BrokenEll(1.0, -1.0), 1.0 / t)) < 1e-12


def _inverse_arg_nodes(e):
    """The InverseArg nodes of e, at any depth."""
    if isinstance(e, InverseArg):
        yield e
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, SvExpr):
            yield from _inverse_arg_nodes(v)


@pytest.mark.parametrize("make", [
    lambda: unit_grid(1024), lambda: Grid.from_bounds(1e-30, 1e8, 4096)],
    ids=["unit", "full-asymmetric"])
@pytest.mark.parametrize("kind", SV_WEIGHTS)
def test_reversal_is_the_weight_on_the_grid_of_one_over_t(kind, make):
    # inverse_arg(e) on a grid is e on the grid of t -> 1/t, reversed
    g, e = make(), SV_WEIGHTS[kind]
    r = inverse_arg(e)
    got = sv_log_on_grid(r, g)
    want = sv_log_on_grid(e, mirror(g))[::-1]
    if kind == "compose_rho-tail-outer":
        # its outer tail is read between nodes by np.interp, which
        # starts from the left node of a cell: on the mirror grid that
        # is the other node, so a value may move in its last bit
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    else:
        assert np.array_equal(got, want)
    assert np.array_equal(sv_log_on_grid(InverseArg(e), g), got)
    assert not list(_inverse_arg_nodes(r))
    # an involution; an InverseArg written out is its own closed form
    back = inverse_arg(e.inner) if isinstance(e, InverseArg) else e
    assert inverse_arg(r) == back


def test_inverse_arg_refuses_an_unknown_node():
    with pytest.raises(TypeError, match="unknown SvExpr node"):
        inverse_arg(SvExpr())


def test_reciprocal_inner_folds_under_reversal():
    # (1/t)^gamma inner(1/t) = 1 / (t^gamma / inner(1/t)): the reversed
    # inner is a reciprocal, and reversing again folds it away
    tail = NormTail(EllPow(-2.0), L1, "lower")
    e = ComposeWithRho(EllPow(-1.0), 0.5, Power(tail, -1.0))
    r = inverse_arg(e)
    assert r == ComposeWithRho(EllPow(-1.0), 0.5,
                               NormTail(EllPow(-2.0), L1, "upper"))
    assert inverse_arg(r) == e


def test_const_validation():
    with pytest.raises(ValueError):
        Const(0.0)
    with pytest.raises(ValueError):
        Const(-2.0)


def test_norm_tail_analytic_identity():
    # || l^-2 ||_{L~1(0,u)} = l^-1(u) - l^-1(t_min edge)
    g = Grid(-6e4, 0.0, 1 << 18, UNIT)
    tail = NormTail(EllPow(-2.0), L1, "lower")
    vals = np.exp(sv_log_on_grid(tail, g))
    mask = (g.x >= math.log(1e-6)) & (g.x <= math.log(0.5))
    ell = 1.0 + np.abs(g.x[mask])
    ratio = vals[mask] * ell
    assert abs(ratio.max() - 1.0) < 5e-3
    assert abs(ratio.min() - 1.0) < 5e-3


def test_norm_tail_sup_exact():
    # sup_{(0,u)} l^-1 = l^-1(u) for u <= 1
    g = unit_grid(2048)
    tail = NormTail(EllPow(-1.0), LINF, "lower")
    vals = np.exp(sv_log_on_grid(tail, g))
    expect = 1.0 / (1.0 + np.abs(g.x))
    sl = g.interior()
    assert np.max(np.abs(vals[sl] / expect[sl] - 1.0)) < 1e-10


def test_norm_tail_divergence_raises():
    g = unit_grid(1024)
    tail = NormTail(EllPow(-1.0), L1, "lower")   # int_0 l^-1 dt/t = inf
    with pytest.raises(SvDivergenceError):
        sv_log_on_grid(tail, g)


@pytest.mark.parametrize("b,side", [
    (BrokenEll(-2.0, 1.0), "lower"),
    (BrokenEll(1.0, -2.0), "upper"),
], ids=["lower", "upper"])
def test_norm_tail_tests_only_its_own_edge(b, side):
    # b is integrable against dt/t at the edge the norm runs towards and
    # grows at the other; only the first edge decides divergence
    g = full_grid(1024)
    lb = sv_log_on_grid(NormTail(b, L1, side), g)
    x = g.x if side == "lower" else -g.x
    sl = (x <= 0) & (x > x.min() + 1.0)
    # int l^-2 dt/t from the grid edge: 1/l(t) - 1/l(t_edge)
    expect = 1.0 / (1.0 + np.abs(x[sl])) - 1.0 / (1.0 + np.abs(x).max())
    assert np.max(np.abs(np.exp(lb[sl]) / expect - 1.0)) < 1e-3


def test_reflected_tail_norm_reads_the_reflected_table():
    # under t -> 1/t an upper tail is the lower tail of the reversed
    # weight, tabulated on the grid itself: the table of the upper tail
    # on the grid of t -> 1/t, reversed, bit for bit
    g = Grid.from_bounds(1e-30, 1e8, 4096)
    tail = NormTail(EllPow(-1.0), L2, "upper")
    got = sv_log_on_grid(InverseArg(tail), g)
    want = sv_log_on_grid(tail, mirror(g))[::-1]
    assert np.array_equal(got, want)
    # at t = 1e-25 it is || l^-1 ||_{L~2(1e25, 1e30)}, about 0.0530: the
    # mass beyond the grid's end 1e30 is not there (0.131 with it)
    i = g.index_of(1e-25)
    exact = math.sqrt(1.0 / (1.0 - g.x[i]) - 1.0 / (1.0 - g.x[0]))
    assert abs(math.exp(got[i]) / exact - 1.0) < 1e-3
    assert round(math.exp(got[i]), 4) == 0.053


def test_unit_tail_norm_reflects_onto_co_unit():
    # a lower tail on the co_unit grid of t -> 1/t runs from its true
    # edge t = 1, and reversed it is the upper tail on the unit grid,
    # which runs to it: || l^-1/2 ||_{L~1(t, 1)} = 2 (sqrt(l(t)) - 1)
    g = unit_grid(2048)
    tail = NormTail(EllPow(-0.5), L1, "lower")
    lb = sv_log_on_grid(InverseArg(tail), g)
    r = mirror(g)
    assert r.setting == CO_UNIT and not r.truncated("low")
    assert np.array_equal(lb, sv_log_on_grid(tail, r)[::-1])
    val = np.exp(lb)
    exact = 2.0 * (np.sqrt(1.0 - g.x) - 1.0)
    sl = slice(0, g.n - 2)
    assert np.max(np.abs(val[sl] / exact[sl] - 1.0)) < 1e-5


def test_tail_norm_property():
    # || s^alpha b ||_{E~(0,t)} ~ t^alpha b(t) for alpha > 0 (one instance;
    # the full sweep is an acceptance criterion)
    g = full_grid(1024)
    from interpolab.grid import log_norm_lower
    lb = sv_log_on_grid(EllPow(1.0), g)
    alpha = 0.5
    low = np.exp(log_norm_lower(alpha * g.x + lb, 2.0, g.dx))
    expect = np.exp(alpha * g.x + lb)
    assert interior_ratio_window(low, expect, g) < 5.0


def test_leaf_weights_keep_one_table_per_grid(monkeypatch):
    # constants and powers of l(t) share the grid's log l(t) table; a
    # constant is a zero-stride view that holds one float
    monkeypatch.setattr(sv, "_GRID_EVALS", {})
    grids = (full_grid(1000), unit_grid(1 << 16))
    consts = [Const(c) for c in (1.0, 0.25, 3e7)]
    ells = [EllPow(a) for a in (-1.0, -0.5, 0.5, 1.0)]
    for g in grids:
        for expr in consts + ells:
            for _ in range(2):
                got = sv_log_on_grid(expr, g)
                want = sv_log_eval(expr, g.x, g)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), expr
                assert not got.flags.writeable
                if isinstance(expr, Const):
                    assert got.strides == (0,)
    tables = {}
    for (expr, gkey), arr in sv._GRID_EVALS.items():
        if arr.strides != (0,):
            tables.setdefault(gkey, []).append(expr)
    assert tables == {g.key: [EllPow(1.0)] for g in grids}


def test_sv_verify_families():
    for b in (ONE, EllPow(1.0), EllPow(-1.0), BrokenEll(1.0, -1.0),
              IteratedEll(2, 1.0), ExpLogPow(0.5),
              Product(EllPow(1.0), Power(EllPow(-0.5), 2.0))):
        rep = sv_verify(b)
        assert rep.passed, (b, rep)


def test_sv_verify_rejects_powers():
    # t^0.5 is not slowly varying: make a fake weight through ComposeWithRho
    # of the identity is not expressible, so check via a steep ExpLogPow-free
    # proxy: b(t) = exp(|log t|^0.9) has scale constants that blow up
    rep = sv_verify(ExpLogPow(0.9), eps=0.01)
    assert not rep.passed


def test_compose_with_rho_evaluates():
    # b(rho(u)) with rho(u) = u^0.5 * 1 at u = e^2: l(e) = 2
    e = ComposeWithRho(EllPow(1.0), 0.5, ONE)
    assert rel_err(sv_eval(e, math.exp(2.0)), 2.0) < 1e-12
    with pytest.raises(ValueError):
        ComposeWithRho(EllPow(1.0), -0.5, ONE)


def test_norm_tail_validation():
    with pytest.raises(ValueError):
        NormTail(EllPow(-2.0), L1, "middle")


_EXAMPLES = (ONE, Const(2.5), EllPow(-1.5), BrokenEll(1.0, -1.0),
             IteratedEll(2, 0.5), ExpLogPow(0.25),
             Product(EllPow(1.0), Const(3.0)), Power(EllPow(2.0), -0.5),
             InverseArg(ExpLogPow(0.5)),
             NormTail(EllPow(-2.0), L2, "lower"),
             NormTail(EllPow(-2.0), LINF, "upper"),
             ComposeWithRho(EllPow(1.0), 0.25, EllPow(-0.5)))


def test_json_round_trip():
    for e in _EXAMPLES:
        assert SvExpr.from_obj(json.loads(to_json(e))) == e


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-1.5, 1.5).filter(lambda r: abs(r) > 1e-3))
def test_product_power_closure(a1, a2, r):
    b = Product(EllPow(a1), Power(EllPow(a2), r))
    # eps = 1: the quasi-monotonicity dip of l^alpha stays below ~(|alpha|/e)^alpha
    rep = sv_verify(b, eps=1.0, grid=Grid.from_bounds(1e-8, 1e8, 513))
    assert rep.passed


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_json_round_trip_random_ellpow(alpha):
    e = Product(EllPow(alpha), BrokenEll(alpha, -alpha))
    assert SvExpr.from_obj(json.loads(to_json(e))) == e
