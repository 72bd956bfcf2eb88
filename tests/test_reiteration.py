"""Reduction of a second interpolation step to endpoint descriptors."""

import math

import pytest

from interpolab.grid import L2, LINF
from interpolab.sv import EllPow, ONE, ComposeWithRho
from interpolab.spaces import (ThetaSpace, LSpace, RSpace, LLSpace, RRSpace,
                               Intersection, couple_reverse)
from interpolab.reiteration import (ReiterationCase, reiterate,
                                    verify_reiteration)
from interpolab.holmstedt import DEFAULT_CASES


def test_interior_theta_mixes_linearly():
    # R_interior has theta0=1/4, theta1=1/2: theta=1/2 -> 3/8
    case = ReiterationCase(DEFAULT_CASES["R_interior"], 0.5)
    d = reiterate(case)
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.375)


def test_interior_theta_l_side():
    case = ReiterationCase(DEFAULT_CASES["L_interior"], 0.5)
    d = reiterate(case)
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.375)


def test_endpoint_branches_structure():
    # theta = 0 on the R side collapses to a single L-space
    d0 = reiterate(ReiterationCase(DEFAULT_CASES["R_interior"], 0.0))
    assert isinstance(d0, LSpace) and d0.theta == pytest.approx(0.25)
    # theta = 1 on the R side needs the R/RR intersection
    d1 = reiterate(ReiterationCase(DEFAULT_CASES["R_interior"], 1.0))
    assert isinstance(d1, Intersection)
    kinds = {type(m) for m in d1.members}
    assert kinds == {RSpace, RRSpace}
    # mirrored on the L side
    e0 = reiterate(ReiterationCase(DEFAULT_CASES["L_interior"], 0.0))
    assert isinstance(e0, Intersection)
    assert {type(m) for m in e0.members} == {LSpace, LLSpace}
    e1 = reiterate(ReiterationCase(DEFAULT_CASES["L_interior"], 1.0))
    assert isinstance(e1, RSpace) and e1.theta == pytest.approx(0.5)


def test_x_case_branches():
    d = reiterate(ReiterationCase(DEFAULT_CASES["R_x0"], 0.5))
    assert isinstance(d, ThetaSpace)
    assert d.theta == pytest.approx(0.25)     # theta * theta1
    e = reiterate(ReiterationCase(DEFAULT_CASES["L_x1"], 0.5))
    assert isinstance(e, ThetaSpace)
    assert e.theta == pytest.approx(0.75)     # (1-theta) theta0 + theta


def test_composed_weight_shortcut():
    # a constant outer weight never wraps in ComposeWithRho
    d = reiterate(ReiterationCase(DEFAULT_CASES["R_interior"], 0.5))
    assert not isinstance(d.b, ComposeWithRho)
    d2 = reiterate(ReiterationCase(DEFAULT_CASES["R_interior"], 0.5,
                                   b=EllPow(-1.0), E=L2))
    assert "ComposeWithRho" in repr(d2.b)


def test_theta_validation():
    with pytest.raises(ValueError):
        ReiterationCase(DEFAULT_CASES["R_interior"], 1.5)


def test_verify_interior_window():
    case = ReiterationCase(DEFAULT_CASES["R_interior"], 0.5)
    rep = verify_reiteration(case, corpus=("chi:0.1", "log:2"), log2n=(9, 10))
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0
    assert rep.stability() <= 0.10


def test_verify_endpoint_window():
    # theta = 0 with a nontrivial outer weight (b = 1, E = Linf would make
    # both sides the same expression)
    case = ReiterationCase(DEFAULT_CASES["L_interior"], 0.0,
                           b=EllPow(-1.0), E=L2)
    rep = verify_reiteration(case, corpus=("chi:0.1", "chi:1"), log2n=(9,))
    win = max(rep.window(n) for n in rep.sizes())
    assert win <= 100.0


def test_l_interior_is_reverse_of_r_interior():
    # the L-side interior reduction agrees with reversing the couple,
    # running the R-side reduction, and reversing back
    r = DEFAULT_CASES["R_interior"]
    l_case = ReiterationCase(DEFAULT_CASES["L_interior"], 0.5)
    d_l = reiterate(l_case)
    assert isinstance(d_l, ThetaSpace)
    d_rev = couple_reverse(d_l)
    assert isinstance(d_rev, ThetaSpace)
    assert d_rev.theta == pytest.approx(1.0 - d_l.theta)
