"""Concrete function-space norms and the identity scenario registry."""

import math

import numpy as np
import pytest

from interpolab.grid import (Grid, GridFunction, L1, L2, LINF, RiSpace,
                             full_grid, unit_grid)
from interpolab.sv import EllPow, Power, ONE
from interpolab.kfun import k_peetre, norm_in_space
from interpolab.spaces import (EndpointX0, EndpointX1, LSpace, RSpace,
                               ThetaSpace, AppMember, Over, UNIT, CO_UNIT,
                               couple_reverse, parts)
from interpolab.holmstedt import HolmstedtCase
from interpolab.reiteration import reiterate, verify_reiteration, _pair
from interpolab.report import _sweep
from interpolab.applications import (AppSpace, GrandLp, SmallLp, UltraLp,
                                     LinfQBeta, GGamma, AType, BType,
                                     norm_app, scenario_names, get_scenario,
                                     verify_identity, _reiterations)
from interpolab import corpus

from util import APP_SPACES, rel_err


# -- parameter validation ----------------------------------------------

def test_validate_rejects_bad_params():
    with pytest.raises(ValueError):
        GrandLp(1.0, 1.0).validate()
    with pytest.raises(ValueError):
        GrandLp(2.0, 0.0).validate()
    with pytest.raises(ValueError):
        SmallLp(0.5, 1.0).validate()
    with pytest.raises(ValueError):
        UltraLp(0.5, ONE, L2).validate()
    with pytest.raises(ValueError):
        LinfQBeta(2.0, -0.25).validate()     # beta + 1/q = 0.25 >= 0
    with pytest.raises(ValueError):
        LinfQBeta(math.inf, 0.5).validate()  # q = inf needs beta <= 0
    with pytest.raises(ValueError):
        AType(2.0, 0.5, L2).validate()       # (alpha-1) q = -1, not < -1
    with pytest.raises(ValueError):
        GGamma(2.0, math.inf, -1.0, ONE, 0.0, ONE).validate()


def test_validate_accepts_registry_params():
    for s in (GrandLp(2.0, 1.0), SmallLp(4.0, 1.0),
              UltraLp(2.0, EllPow(-0.5), L2), LinfQBeta(2.0, -1.0),
              LinfQBeta(math.inf, 0.0), AType(4.0, 0.0, L2),
              GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE)):
        s.validate()


# -- norm recipes against hand integrals --------------------------------

def test_ultra_reduces_to_lp():
    # b = 1, E = L_p: || t^(1/p) f* ||_{L~p} is the plain L_p norm
    g = unit_grid(2048)
    a, p = 0.1, 2.0
    f = corpus.sample(f"chi:{a}", g)
    val = norm_app(UltraLp(p, ONE, RiSpace(p)), f)
    a_eff = float(g.t[np.flatnonzero(f.values > 0)[-1]])
    assert rel_err(val, a_eff ** (1.0 / p)) < 1e-2


def test_linfq_sup_recipe():
    g = unit_grid(1024)
    f = corpus.sample("chi:1", g)
    # sup l^0 f* = 1 and sup l^-1 f* = 1 (attained at t = 1)
    assert rel_err(norm_app(LinfQBeta(math.inf, 0.0), f), 1.0) < 1e-9
    assert rel_err(norm_app(LinfQBeta(math.inf, -1.0), f), 1.0) < 1e-9


def test_linfq_integral_recipe():
    # || l^-2 chi_(0,1) ||_{L~1(0,1)} = 1 - l^-1(t_min)
    g = unit_grid(2048)
    f = corpus.sample("chi:1", g)
    expect = 1.0 - 1.0 / (1.0 + abs(float(g.x[0])))
    assert rel_err(norm_app(LinfQBeta(1.0, -2.0), f), expect) < 1e-3


def test_grand_matches_direct_maximization():
    g = unit_grid(4096)
    p, alpha = 2.0, 1.0
    f = corpus.sample("chi:0.1", g)
    got = norm_app(GrandLp(p, alpha), f)
    # independent evaluation of sup_t l^(-alpha/p)(t) ||f||_{L_p(t,1)}
    from interpolab.grid import lebesgue_suffix
    tailp = lebesgue_suffix(f.values ** p, g)
    direct = np.max((1.0 + np.abs(g.x)) ** (-alpha / p) *
                    tailp ** (1.0 / p))
    assert rel_err(got, float(direct)) < 1e-6


def test_all_norms_are_homogeneous():
    g = unit_grid(1024)
    spaces = (GrandLp(2.0, 1.0), SmallLp(4.0, 1.0),
              UltraLp(2.0, EllPow(-0.5), L2), LinfQBeta(2.0, -1.0),
              GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE),
              AType(4.0, 0.0, L2), BType(2.0, 0.0, L2))
    f = corpus.sample("chi:0.1", g)
    f3 = GridFunction(g, 3.0 * f.values)
    for s in spaces:
        v1 = norm_app(s, f)
        v3 = norm_app(s, f3)
        assert math.isfinite(v1) and v1 > 0, s
        assert rel_err(v3, 3.0 * v1) < 1e-9, s


def test_norms_are_monotone():
    g = unit_grid(1024)
    small = corpus.sample("chi:0.01", g)
    large = corpus.sample("chi:0.5", g)
    for s in (GrandLp(2.0, 1.0), SmallLp(4.0, 1.0), LinfQBeta(2.0, -1.0),
              BType(2.0, 0.0, L2)):
        assert norm_app(s, small) <= norm_app(s, large), s


def test_norm_app_needs_unit_grid():
    f = corpus.sample("chi:0.1", full_grid(512))
    with pytest.raises(ValueError):
        norm_app(GrandLp(2.0, 1.0), f)


@pytest.mark.parametrize("space", APP_SPACES, ids=lambda s: s._kind)
def test_norm_app_and_the_app_member_norm_agree_bit_for_bit(space):
    # two doors to the space's one recipe: norm_app on f*, and
    # norm_in_space on an app member, which reads the f* K carries
    g = unit_grid(1024)
    for spec in corpus.STANDARD:
        f = corpus.sample(spec, g)
        got = norm_app(space, f)
        want = norm_in_space(k_peetre(f), AppMember(space))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), spec


def test_app_obj_round_trip():
    for s in (GrandLp(2.0, 1.0), SmallLp(4.0, 1.0),
              UltraLp(2.0, EllPow(-0.5), L2), LinfQBeta(math.inf, -1.0),
              GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE),
              AType(4.0, 0.0, L2), BType(2.0, 0.0, L2)):
        assert AppSpace.from_obj(s.to_obj()) == s
    with pytest.raises(ValueError):
        AppSpace.from_obj({"kind": "heptagon"})


# -- scenario registry ---------------------------------------------------

_EXPECTED = {
    "ultra-as-theta", "grand-as-R", "small-as-L", "small-dual-limit",
    "grand-vs-ultra-interior", "grand-vs-ultra-theta0",
    "grand-vs-ultra-theta1", "small-grand-interior", "small-grand-theta0",
    "small-grand-theta1", "llogl-grand", "l1-grand", "small-ultra",
    "small-linfq", "small-linf", "ggamma-ultra", "a-type-ultra",
    "b-type-ultra", "b-as-limit-of-A", "ultra-between-AB", "ggamma-as-L"}


def test_registry_names():
    names = scenario_names()
    assert set(names) == _EXPECTED
    assert len(names) == 21


def test_get_scenario_unknown():
    with pytest.raises(KeyError):
        get_scenario("pentagon-grand")


def test_scenarios_have_corpora():
    for nm in scenario_names():
        sc = get_scenario(nm)
        assert sc.corpus, nm
        for spec in sc.corpus:
            corpus.parse_fn(spec)


def test_verify_identity_runs_clean():
    rep = verify_identity("ultra-as-theta", log2n=(9,))
    assert not rep.excluded
    assert rep.window(512) <= 1.5


def test_verify_identity_reports_exclusions():
    # a user corpus with an unbounded prototype is excluded with a reason,
    # not silently dropped
    rep = verify_identity("small-linf", log2n=(9,), corpus=("chi:0.1", "pow:2"))
    ids = {fid for fid, _ in rep.excluded}
    rows = {r.function_id for r in rep.rows}
    assert "chi:0.1" in rows
    assert ids | rows >= {"chi:0.1", "pow:2"}


# -- identity scenarios as reiteration cases ----------------------------

_GRAND = ("small-dual-limit", "grand-vs-ultra-interior",
          "grand-vs-ultra-theta0", "grand-vs-ultra-theta1", "llogl-grand",
          "l1-grand")
_GG = GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE)


def test_grand_cases_name_their_couples():
    cases = _reiterations()
    grand = GrandLp(4.0, 1.0).descriptor()
    first = {"R_interior": UltraLp(2.0, ONE, L2).descriptor(),
             "R_theta0_zero": ThetaSpace(0.0, ONE, L1, UNIT),
             "R_x0": EndpointX0(UNIT)}
    kinds = {name: HolmstedtCase(*cases[name].couple).kind
             for name in _GRAND}
    assert set(kinds.values()) == set(first)
    for name in _GRAND:
        d = cases[name]
        assert d.setting == UNIT
        assert d.couple == (first[kinds[name]], grand), name
        sc = get_scenario(name)
        assert sc.lhs.couple[0] == first[kinds[name]]
        assert sc.lhs.couple[1].space == GrandLp(4.0, 1.0)
        assert sc.lhs.desc == d.desc


_A_TYPE = ("a-type-ultra", "b-as-limit-of-A")
_AT, _BT = AType(4.0, 0.0, L2), BType(2.0, 0.0, L2)


def test_l_type_cases_name_their_couples():
    # (small, ultra), (small, Linf), (small, L_inf,2,-1), (GGamma, ultra)
    # and (B, ultra) are unit-setting L couples; each scenario's lhs
    # norms its concrete members from f*
    cases = _reiterations()
    small = SmallLp(2.0, 1.0).descriptor()
    ultra = UltraLp(4.0, ONE, RiSpace(4.0)).descriptor()
    lq = LinfQBeta(2.0, -1.0)
    sm = AppMember(SmallLp(2.0, 1.0))
    want = {"small-ultra": ((small, ultra), "L_interior", (sm, ultra)),
            "small-linf": ((small, EndpointX1(UNIT)), "L_x1",
                           (sm, EndpointX1(UNIT))),
            "small-linfq": ((small, LinfQBeta(2.0, -1.0).descriptor()),
                            "L_theta1_one", (sm, AppMember(lq))),
            "ggamma-ultra": ((_GG.descriptor(), ultra), "L_interior",
                             (AppMember(_GG), ultra)),
            "b-type-ultra": ((BType(2.0, 0.0, L2).descriptor(), ultra),
                             "L_interior", (AppMember(_BT), ultra))}
    assert set(cases) == {*_GRAND, *_A_TYPE, *want}
    assert len(cases) == 13
    for name, (couple, kind, members) in want.items():
        d = cases[name]
        assert d.couple == couple and d.setting == UNIT
        assert d.desc == ThetaSpace(0.5, ONE, L2, UNIT)
        assert HolmstedtCase(*couple).kind == kind
        lhs = get_scenario(name).lhs
        assert lhs.couple == members
        assert lhs.desc == d.desc


def test_a_type_cases_name_their_couples():
    # A(4, 0, L2) is an R-space with theta = 3/4, so (ultra, A) is an
    # R_interior couple; b-as-limit-of-A takes its outer theta = 0
    cases = _reiterations()
    at = AType(4.0, 0.0, L2).descriptor()
    y0 = UltraLp(2.0, EllPow(-1.0), LINF).descriptor()
    want = {"a-type-ultra": (UltraLp(2.0, ONE, L2).descriptor(), 0.5, ONE),
            "b-as-limit-of-A": (y0, 0.0, ONE)}
    for name, (y0, theta, b) in want.items():
        d = cases[name]
        assert d.couple == (y0, at)
        assert HolmstedtCase(*d.couple).kind == "R_interior"
        assert d.desc == ThetaSpace(theta, b, L2, UNIT)
        lhs = get_scenario(name).lhs
        assert lhs.couple == (y0, AppMember(_AT))
        assert lhs.desc == d.desc


def test_b_type_is_the_theta_0_limit_of_a_type():
    # the theorem's theta = 0 branch gives the B-type descriptor itself
    d = reiterate(_reiterations()["b-as-limit-of-A"])
    assert d == BType(2.0, 0.0, L2).descriptor()
    assert get_scenario("b-as-limit-of-A").rhs == AppMember(_BT)


@pytest.mark.parametrize("log2n", [9, 10, 11, 12])
@pytest.mark.parametrize("p, alpha, E", [(4.0, 0.0, L2),
                                         (3.0, -1.0, RiSpace(3.0)),
                                         (2.0, 0.0, L2), (2.0, -0.5, L1)])
def test_a_and_b_type_recipes_are_their_descriptors(p, alpha, E, log2n):
    # the same integrand, s^(1/p) f**(s) = s^-(1 - 1/p) K(s), normed
    # through the concrete recipe and through the descriptor levels
    g = unit_grid(1 << log2n)
    K = k_peetre(GridFunction(g, np.stack(
        [corpus.sample(spec, g).values for spec in corpus.STANDARD])))
    fstar = GridFunction(g, K.fstar)
    for space in (AType(p, alpha, E), BType(p, alpha, E)):
        desc = space.descriptor()
        got, want = norm_app(space, fstar), norm_in_space(K, desc)
        inf = np.isinf(want)
        assert np.array_equal(np.isinf(got), inf), space
        assert np.all(np.abs(got[~inf] - want[~inf])
                      <= 1e-12 * want[~inf]), space


def _nested(d):
    yield d
    for m in parts(d):
        yield from _nested(m)


def test_reiterations_are_their_lhs_over_descriptors():
    # each registered reiteration is its scenario's lhs with every
    # concrete member replaced by that space's descriptor
    covered = 0
    for name in scenario_names():
        sc = get_scenario(name)
        d = sc.reiteration
        if d is None:
            continue
        covered += 1
        assert not any(isinstance(m, AppMember) for m in _nested(d)), name
        assert d.desc == sc.lhs.desc, name
        for y, z in zip(sc.lhs.couple, d.couple, strict=True):
            want = y.space.descriptor() if isinstance(y, AppMember) else y
            assert z == want, name
        assert _reiterations()[name] is d
    assert covered == len(_reiterations()) == 13


def test_ggamma_descriptor_needs_slowly_varying_weights():
    assert _GG.descriptor() == LSpace(0.5, Power(EllPow(-3.0), 0.5), L2,
                                      Power(ONE, 0.5), L2, UNIT)
    for g in (GGamma(2.0, 2.0, -0.5, ONE, 0.0, ONE),
              GGamma(2.0, 2.0, -1.0, ONE, 0.5, ONE)):
        with pytest.raises(ValueError, match="slowly varying"):
            g.descriptor()


def test_descriptor_right_sides_are_reiterated():
    cases = _reiterations()
    for name in ("grand-vs-ultra-theta0", "grand-vs-ultra-theta1"):
        assert get_scenario(name).rhs == reiterate(cases[name])


@pytest.mark.parametrize("name", sorted(_reiterations()))
def test_reiterated_matches_concrete_right_side(name):
    # the CLI's default bounds: they catch a divergent side or a grossly
    # wrong exponent, but every unit grid starts at t = 1e-8, so doubling
    # one log exponent moves these windows by less than a factor 2
    sc = get_scenario(name)
    rep = _sweep(name, sc.corpus, UNIT, (9, 10),
                 _pair(reiterate(_reiterations()[name]), sc.rhs,
                       ("reiterated", "concrete")))
    assert not rep.excluded
    assert rep.n_rows == 2 * len(sc.corpus)
    assert max(rep.window(n) for n in rep.sizes()) <= 100.0
    assert rep.stability() <= 0.10


# small-dual-limit and llogl-grand are left out: their ratios settle
# slowly (the local slope falls from +0.21 / +0.16 at a = 1e-2 to +0.015
# / +0.004 at a = 1e-150), so this family fits +0.11 / +0.06 to correct
# exponents.  small-ultra and small-linf are left out for the same
# reason (fits +0.083 / +0.075): their reduced weight (2(sqrt(l) - 1))^(1/2)
# approaches sqrt(2) l^(1/4) only like (1 - l^(-1/2))^(1/2), and so is
# small-linfq (fit -0.108), whose weight settles as slowly.
# b-as-limit-of-A reduces to the B-type descriptor itself (fit 0)
@pytest.mark.parametrize("name", ["grand-vs-ultra-interior", "l1-grand",
                                  "ggamma-ultra", "a-type-ultra",
                                  "b-type-ultra"])
def test_reiterated_log_exponent_matches_concrete_right_side(name):
    # a wrong log exponent in reiterate(case) makes the ratio of the two
    # norms of chi_(0,a) a power of l(a) = 1 + |log a|; a unit grid from
    # t = 1e-30 lets a run down to 1e-25, and the fitted power must stay
    # near 0 (correct code: about -0.006, -0.009, +0.0007, -0.0067 and
    # +0.0040).  The outer b is 1, so rho drops out and its exponents are
    # not seen here
    g = unit_grid(4096, t_min=1e-30)
    j = np.arange(2, 26)
    K = k_peetre(GridFunction(g, np.stack(
        [corpus.sample(f"chi:1e-{k}", g).values for k in j])))
    reduced = norm_in_space(K, reiterate(_reiterations()[name]))
    concrete = norm_in_space(K, get_scenario(name).rhs)
    slope = np.polyfit(np.log1p(j * math.log(10.0)),
                       np.log(reduced / concrete), 1)[0]
    assert abs(slope) <= 0.03, slope


def test_l_case_in_the_unit_setting_reverses_to_co_unit():
    # reversal maps (0, 1) onto (1, inf): the unit L couple is the R case
    # of the reversed couple there, and reduces to a unit descriptor
    c = HolmstedtCase(LSpace(0.25, EllPow(-0.5), LINF, ONE, L2, UNIT),
                      ThetaSpace(0.5, EllPow(0.5), L2, UNIT))
    assert c.kind == "L_interior"
    rev = HolmstedtCase(couple_reverse(c.y1), couple_reverse(c.y0))
    assert rev.kind == "R_interior" and rev.setting == CO_UNIT
    assert isinstance(rev.y1, RSpace)
    d = reiterate(Over((c.y0, c.y1), ThetaSpace(0.5, ONE, L2, UNIT)))
    assert d.setting == UNIT


@pytest.mark.parametrize("name", sorted(_reiterations()))
def test_reiteration_holds_in_the_unit_setting(name):
    # the outer space over the descriptor couple (X, grand) against
    # reiterate(case), both on unit grids.  powlog:4,1 is excluded for
    # now: its outer norm reads inf, although the reduced side is finite
    # (ROADMAP.md, "Identity sides that disagree are excluded")
    rep = verify_reiteration(_reiterations()[name],
                             corpus=get_scenario(name).corpus)
    assert rep.n_rows > 0
    assert max(rep.window(n) for n in rep.sizes()) <= 100.0
    assert rep.stability() <= 0.10
