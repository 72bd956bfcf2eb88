"""Reduction of a second interpolation step to endpoint descriptors."""

import numpy as np
import pytest

from interpolab import corpus
from interpolab.grid import L2, LINF, GridFunction, full_grid
from interpolab.kfun import k_peetre, norm_in_space
from interpolab.sv import (EllPow, BrokenEll, ONE, ComposeWithRho, NormTail,
                           Power, Product, compose_rho, sv_log_on_grid)
from interpolab.spaces import (ThetaSpace, LSpace, RSpace, LLSpace, RRSpace,
                               Intersection, EndpointX1, Over)
from interpolab.reiteration import reiterate, verify_reiteration, _pair
from interpolab.holmstedt import DEFAULT_CASES, HolmstedtCase


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


# The L cases are derived from the R cases of the reversed couple.  The
# table below is the direct L formulas they replaced; the two must give
# the same norms.  L_interior(0.1, 0.3) has thetas that are no dyadic
# fractions, so 1 - (1 - theta) may differ from theta in the last bit,
# and broken weights that are not symmetric under t -> 1/t.
_L_CASES = [DEFAULT_CASES[k] for k in ("L_interior", "L_theta1_one", "L_x1")]
_L_CASES.append(HolmstedtCase(
    LSpace(0.1, BrokenEll(-0.5, -1.0), LINF, BrokenEll(0.25, -0.25), L2),
    ThetaSpace(0.3, EllPow(0.5), L2)))


def _direct_members(c):
    y0 = LSpace(c.y0.theta, c.y0.b, c.y0.E, c.y0.a, c.y0.F)
    if c.kind == "L_x1":
        return y0, EndpointX1()
    return y0, ThetaSpace(c.y1.theta, c.y1.b, c.y1.E)


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
    return ThetaSpace(tmix, Product(Power(a_b0, 1 - th), brho), out.E)


def _assert_same(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    assert np.all((a == b) | (rel <= 1e-12)), (a, b)


@pytest.fixture(scope="module")
def standard_k():
    g = full_grid(512)
    rows = [corpus.sample(s, g).values for s in corpus.STANDARD]
    return k_peetre(GridFunction(g, np.stack(rows)))


@pytest.mark.parametrize("c", _L_CASES, ids=lambda c: f"{c.kind}-{c.y0.theta}")
def test_l_case_matches_direct_formulas(c, standard_k):
    K = standard_k
    for y, y_direct in zip((c.y0, c.y1), _direct_members(c)):
        assert type(y) is type(y_direct)
        _assert_same(norm_in_space(K, y), norm_in_space(K, y_direct))
    (gamma, sv), (gamma_d, sv_d) = c.rho_params(), _direct_rho(c)
    assert gamma == pytest.approx(gamma_d, rel=1e-12)
    _assert_same(np.exp(sv_log_on_grid(sv, K.grid)),
                 np.exp(sv_log_on_grid(sv_d, K.grid)))
    finite = 0
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        for b, E in ((ONE, LINF), (EllPow(-1.0), L2)):
            case = _over(c, theta, b, E)
            d, d_direct = reiterate(case), _direct_reiterate(c, case)
            assert type(d) is type(d_direct)
            v = norm_in_space(K, d)
            _assert_same(v, norm_in_space(K, d_direct))
            finite += int(np.isfinite(v).sum())
    assert finite >= 40         # at least half the comparisons are of numbers
