"""Reduction of a second interpolation step to endpoint descriptors."""

import functools

import numpy as np
import pytest

from interpolab import corpus
from interpolab.grid import L2, LINF, GridFunction, full_grid, unit_grid
from interpolab.kfun import k_peetre, norm_in_space
from interpolab.sv import (EllPow, BrokenEll, ONE, ComposeWithRho, NormTail,
                           Power, Product, compose_rho, sv_log_on_grid)
from interpolab.spaces import (ThetaSpace, LSpace, RSpace, LLSpace, RRSpace,
                               Intersection, EndpointX0, Over)
from interpolab.reiteration import reiterate, verify_reiteration, _pair
from interpolab.holmstedt import CASES, DEFAULT_CASES, HolmstedtCase
from interpolab.applications import _reiterations

from test_holmstedt import _EDGE_CASES
from util import reiterate_by_reversal, rho_by_reversal

L_CASES = tuple(k for k in CASES if k.startswith("L_"))


def _over(c, theta, b=ONE, E=LINF):
    """The outer space (theta, b, E) over the couple of case c."""
    return Over((c.y0, c.y1), ThetaSpace(theta, b, E, c.setting))


def test_interior_theta_mixes_linearly():
    # R_interior has theta0=1/4, theta1=1/2: theta=1/2 -> 3/8
    case = _over(DEFAULT_CASES["R_interior"], 0.5)
    d = reiterate(case)
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.375)


def test_interior_theta_l_side():
    case = _over(DEFAULT_CASES["L_interior"], 0.5)
    d = reiterate(case)
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.375)


def test_endpoint_branches_structure():
    # theta = 0 on the R side collapses to a single L-space
    d0 = reiterate(_over(DEFAULT_CASES["R_interior"], 0.0))
    assert isinstance(d0, LSpace) and d0.theta == pytest.approx(0.25)
    # theta = 1 on the R side needs the R/RR intersection
    d1 = reiterate(_over(DEFAULT_CASES["R_interior"], 1.0))
    assert isinstance(d1, Intersection)
    kinds = {type(m) for m in d1.members}
    assert kinds == {RSpace, RRSpace}
    # mirrored on the L side
    e0 = reiterate(_over(DEFAULT_CASES["L_interior"], 0.0))
    assert isinstance(e0, Intersection)
    assert {type(m) for m in e0.members} == {LSpace, LLSpace}
    e1 = reiterate(_over(DEFAULT_CASES["L_interior"], 1.0))
    assert isinstance(e1, RSpace) and e1.theta == pytest.approx(0.5)
    # a theta member at theta0 = 0 or theta1 = 1 adds a theta space there
    for kind, theta, single in (("R_theta0_zero", 0.0, LSpace),
                                ("L_theta1_one", 1.0, RSpace)):
        d = reiterate(_over(DEFAULT_CASES[kind], theta))
        assert [type(m) for m in d.members] == [ThetaSpace, single]
        assert [m.theta for m in d.members] == [theta, theta]


def test_x_end_takes_the_interior_formula_without_a_zero_power():
    # R_x0 at theta = 0: D^0 = 1 is left out, since D's L2 tail is 0 at
    # the first node and 0 * log D would make the weight NaN there
    c = HolmstedtCase(EndpointX0(), RSpace(0.5, EllPow(-1.0), L2, ONE, L2))
    d = reiterate(_over(c, 0.0, EllPow(-1.0), L2))
    gamma, sv = c.rho_params()
    assert d == ThetaSpace(0.0, ComposeWithRho(EllPow(-1.0), gamma, sv), L2)
    K = k_peetre(corpus.sample("pow:2", full_grid(512)))
    assert np.isfinite(norm_in_space(K, d))


def test_x_case_branches():
    d = reiterate(_over(DEFAULT_CASES["R_x0"], 0.5))
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.25)     # theta * theta1
    e = reiterate(_over(DEFAULT_CASES["L_x1"], 0.5))
    assert isinstance(e, ThetaSpace)
    assert e.theta == pytest.approx(0.75)     # (1-theta) theta0 + theta


def test_composed_weight_shortcut():
    # a constant outer weight never wraps in ComposeWithRho
    d = reiterate(_over(DEFAULT_CASES["R_interior"], 0.5))
    assert not isinstance(d.b, ComposeWithRho)
    d2 = reiterate(_over(DEFAULT_CASES["R_interior"], 0.5,
                         b=EllPow(-1.0), E=L2))
    assert "ComposeWithRho" in repr(d2.b)


def test_theta_validation():
    with pytest.raises(ValueError):
        _over(DEFAULT_CASES["R_interior"], 1.5)


def test_reiterate_needs_a_case_and_an_outer_theta_space():
    c = DEFAULT_CASES["R_interior"]
    with pytest.raises(ValueError, match="theta space"):
        reiterate(Over((c.y0, c.y1), c.y1))
    with pytest.raises(ValueError, match="configurations"):
        reiterate(Over((c.y1, c.y0), ThetaSpace(0.5, ONE, LINF)))


def test_verify_interior_window():
    case = _over(DEFAULT_CASES["R_interior"], 0.5)
    rep = verify_reiteration(case, corpus=("chi:0.1", "log:2"), log2n=(9, 10))
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0
    assert rep.stability() <= 0.10


def test_verify_excludes_f_outside_l1_plus_linf_with_the_reason():
    # no K(., f; L1, Linf) for this f*: its rows give k_peetre's reason
    case = _over(DEFAULT_CASES["R_interior"], 0.5)
    rows = _pair(case, reiterate(case), ("outer", "reduced"))
    assert rows(corpus.sample("powlog:1.01,1", full_grid(512))) == (
        "f* is not locally integrable near 0 (not in L1 + Linf)")
    rep = verify_reiteration(case, corpus=("powlog:1.01,1", "chi:0.1"),
                             log2n=(9,))
    assert rep.n_rows == 1
    assert [fid for fid, _ in rep.excluded] == ["powlog:1.01,1"]


def test_verify_endpoint_window():
    # theta = 0 with a nontrivial outer weight (b = 1, E = Linf would make
    # both sides the same expression)
    case = _over(DEFAULT_CASES["L_interior"], 0.0, b=EllPow(-1.0), E=L2)
    rep = verify_reiteration(case, corpus=("chi:0.1", "chi:1"), log2n=(9,))
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0


# The split formula and the reduction read each member by its own kind.
# They must agree with the route the L cases took first, through the R
# case of the reversed couple (util.rho_by_reversal and
# util.reiterate_by_reversal; an R case reverses to an L one), bit for
# bit where every theta is dyadic and within 1e-14 elsewhere: at outer
# theta 0.3, for R_interior(0.1, 0.9) and for L_interior(0.1, 0.3),
# whose broken weights are not symmetric under t -> 1/t.  An L case must
# also agree, within 1e-12, with the L formulas written out below.
_UNIT = {}      # the first scenario name of each distinct unit couple
for _name, _d in _reiterations().items():
    _UNIT.setdefault(_d.couple, _name)
_CASES = [pytest.param(c, id=f"{c.kind}-{c.y0.theta}") for c in (
    *DEFAULT_CASES.values(),
    HolmstedtCase(LSpace(0.1, BrokenEll(-0.5, -1.0), LINF,
                         BrokenEll(0.25, -0.25), L2),
                  ThetaSpace(0.3, EllPow(0.5), L2)))] + [
    pytest.param(c, id=f"edge-{c.kind}") for c in _EDGE_CASES] + [
    pytest.param(HolmstedtCase(*couple), id=f"unit-{name}")
    for couple, name in _UNIT.items()]


def _direct_rho(c):
    y0, y1 = c.y0, c.y1
    up0 = NormTail(y0.b, y0.E, "upper")
    if c.kind == "L_interior":
        return y1.theta - y0.theta, Product(y0.a, Product(
            up0, Power(y1.b, -1.0)))
    if c.kind == "L_theta1_one":
        return 1.0 - y0.theta, Product(y0.a, Product(
            up0, Power(NormTail(y1.b, y1.E, "lower"), -1.0)))
    return 1.0 - y0.theta, Product(y0.a, up0)


def _direct_reiterate(c, d):
    y0, y1, out = c.y0, c.y1, d.desc
    th = out.theta
    gamma, rho_sv = _direct_rho(c)
    brho = compose_rho(out.b, gamma, rho_sv)
    b0_up = NormTail(y0.b, y0.E, "upper")
    a_b0 = Product(y0.a, b0_up)
    if th == 0.0:
        return Intersection((
            LSpace(y0.theta, Product(b0_up, brho), out.E, y0.a, y0.F),
            LLSpace(y0.theta, brho, out.E, y0.b, y0.E, y0.a, y0.F)))
    if c.kind == "L_interior":
        if th == 1.0:
            return RSpace(y1.theta, brho, out.E, y1.b, y1.E)
        tmix = (1 - th) * y0.theta + th * y1.theta
        bmix = Product(Power(a_b0, 1 - th), Power(y1.b, th))
        return ThetaSpace(tmix, Product(bmix, brho), out.E)
    if c.kind == "L_theta1_one":
        b1_low = NormTail(y1.b, y1.E, "lower")
        if th == 1.0:
            return Intersection((
                ThetaSpace(1.0, Product(b1_low, brho), out.E),
                RSpace(1.0, brho, out.E, y1.b, y1.E)))
        tmix = (1 - th) * y0.theta + th
        bmix = Product(Power(a_b0, 1 - th), Power(b1_low, th))
        return ThetaSpace(tmix, Product(bmix, brho), out.E)
    tmix = (1 - th) * y0.theta + th
    if th == 1.0:       # a_b0^0 = 1, also where a_b0's tail is 0
        return ThetaSpace(tmix, brho, out.E)
    return ThetaSpace(tmix, Product(Power(a_b0, 1 - th), brho), out.E)


def _dyadic(*thetas):
    return all((64 * t).is_integer() for t in thetas)


def _assert_same(a, b, exact=False, rtol=1e-14):
    a, b = np.asarray(a, float), np.asarray(b, float)
    if exact:
        assert a.tobytes() == b.tobytes(), (a, b)
        return
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    assert np.all((a == b) | (rel <= rtol)), (a, b)


@pytest.fixture(scope="module")
def standard_k():
    """K of the standard corpus on a grid of each setting."""
    out = {}
    for g in (full_grid(512), unit_grid(512)):
        rows = [corpus.sample(s, g).values for s in corpus.STANDARD]
        out[g.setting] = k_peetre(GridFunction(g, np.stack(rows)))
    return out


@pytest.mark.parametrize("c", _CASES)
def test_l_case_matches_direct_formulas(c, standard_k):
    K = standard_k[c.setting]
    dyadic = _dyadic(c.y0.theta, c.y1.theta)
    # each reference: rho, the reduction, bit for bit where dyadic, rtol
    refs = [(rho_by_reversal, reiterate_by_reversal, True, 1e-14)]
    if c.kind in L_CASES:
        refs.append((_direct_rho, functools.partial(_direct_reiterate, c),
                     False, 1e-12))

    def rho(gamma, sv):
        return np.exp(gamma * K.grid.x + sv_log_on_grid(sv, K.grid))

    for rho_ref, _, exact, rtol in refs:
        _assert_same(rho(*c.rho_params()), rho(*rho_ref(c)),
                     exact and dyadic, rtol)
    finite = 0
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0, 0.3):
        for b, E in ((ONE, LINF), (EllPow(-1.0), L2)):
            case = _over(c, theta, b, E)
            d = reiterate(case)
            v = norm_in_space(K, d)
            for _, reduce_ref, exact, rtol in refs:
                d_ref = reduce_ref(case)
                assert type(d) is type(d_ref)
                _assert_same(v, norm_in_space(K, d_ref),
                             exact and dyadic and _dyadic(theta), rtol)
            finite += int(np.isfinite(v).sum())
    assert finite >= 40         # at least a third of the comparisons
