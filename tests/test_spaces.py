"""Descriptor admissibility, couple reversal and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from interpolab.grid import (Grid, L1, L2, LINF, full_grid, unit_grid,
                             checked_norm, edge_diverges, log_norm_lower,
                             log_norm_upper)
from interpolab.sv import (EllPow, BrokenEll, ExpLogPow, InverseArg, ONE,
                           Power, inverse_arg, sv_log_on_grid)
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, LLSpace, RRSpace, Intersection,
                               AppMember, Over,
                               FULL, UNIT, CO_UNIT, SpaceDescriptor,
                               check_admissible)
from interpolab.wire import to_json
from interpolab.kfun import k_peetre, norm_in_space
from interpolab import corpus
from interpolab.holmstedt import DEFAULT_CASES
from interpolab.applications import GrandLp

from util import SV_WEIGHTS, couple_reverse, kprofile_reverse


# -- admissibility -----------------------------------------------------

def test_theta_interior_always_admissible():
    assert check_admissible(ThetaSpace(0.5, ONE, L2)).admissible
    assert check_admissible(ThetaSpace(0.25, EllPow(3.0), L1)).admissible


def test_theta_endpoint_needs_tail():
    # theta = 1 with b = 1 gives || t^-1 K ||, divergent near 0
    assert not check_admissible(ThetaSpace(1.0, ONE, L1)).admissible
    assert not check_admissible(ThetaSpace(0.0, ONE, L1)).admissible
    # a decaying weight with a convergent tail repairs it
    assert check_admissible(ThetaSpace(1.0, EllPow(-1.0), L2)).admissible
    assert check_admissible(ThetaSpace(0.0, EllPow(-1.0), L2)).admissible
    # ... but not when the tail still diverges
    assert not check_admissible(ThetaSpace(1.0, EllPow(-1.0), L1)).admissible


def test_admissibility_report_structure():
    rep = check_admissible(ThetaSpace(1.0, ONE, L1))
    assert rep.conditions
    assert any(not c.ok for c in rep.conditions)
    names = [c.name for c in rep.conditions]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("desc,t_min,t_max", [
    (ThetaSpace(1.0, ONE, L1), 2.0, 10.0),
    (ThetaSpace(0.0, ONE, L1), 1e-3, 0.5),
    (RSpace(1.0, ONE, L1, ONE, L1), 2.0, 10.0),
    (LSpace(0.0, ONE, L1, ONE, L1), 1e-3, 1.0),
], ids=["theta1-above", "theta0-below", "R-above", "L-to-1"])
def test_admissibility_needs_t_1_inside_a_full_grid(desc, t_min, t_max):
    # the conditions split at t = 1: a full-line grid that misses it
    # leaves one side without nodes, which would read 0 [ok]
    with pytest.raises(ValueError, match="t_min < 1 < t_max"):
        check_admissible(desc, Grid.from_bounds(t_min, t_max, 1024))
    # a unit grid may stop short of t = 1
    unit = dataclasses.replace(desc, setting=UNIT)
    check_admissible(unit, Grid.from_bounds(1e-3, 0.5, 1024, UNIT))


def test_default_case_members_admissible():
    for case in DEFAULT_CASES.values():
        for member in (case.y0, case.y1):
            rep = check_admissible(member)
            assert rep.admissible, (member, [c for c in rep.conditions
                                             if not c.ok])


# -- couple reversal ---------------------------------------------------

def test_reverse_theta_descriptor():
    d = couple_reverse(ThetaSpace(0.25, EllPow(1.0), L2))
    assert d == ThetaSpace(0.75, EllPow(1.0), L2)   # l is log-symmetric
    d2 = couple_reverse(ThetaSpace(0.25, BrokenEll(1.0, -1.0), L2))
    assert d2.b == BrokenEll(-1.0, 1.0)


def test_reverse_swaps_orientation():
    L = LSpace(0.25, EllPow(1.0), L2, ONE, LINF, FULL)
    R = couple_reverse(L)
    assert isinstance(R, RSpace) and R.theta == 0.75
    assert isinstance(couple_reverse(R), LSpace)
    LL = LLSpace(0.25, ONE, L2, EllPow(1.0), L2, ONE, LINF, FULL)
    assert isinstance(couple_reverse(LL), RRSpace)


def test_reverse_endpoints_and_intersections():
    assert couple_reverse(EndpointX0()) == EndpointX1()
    assert couple_reverse(EndpointX1()) == EndpointX0()
    d = Intersection((ThetaSpace(0.25, ONE, L2), EndpointX0()))
    r = couple_reverse(d)
    assert isinstance(r, Intersection)
    assert r.members[0].theta == 0.75
    assert r.members[1] == EndpointX1()


def test_reverse_maps_the_unit_setting_onto_co_unit():
    # t -> 1/t maps (0, 1) onto (1, inf) and the full line onto itself
    r = couple_reverse(ThetaSpace(0.25, ONE, L2, UNIT))
    assert r == ThetaSpace(0.75, ONE, L2, CO_UNIT)
    assert couple_reverse(r).setting == UNIT
    assert couple_reverse(ThetaSpace(0.25, ONE, L2)).setting == FULL
    o = Over((EndpointX0(UNIT), EndpointX1(UNIT)),
             ThetaSpace(0.5, ONE, L2, UNIT))
    with pytest.raises(ValueError, match="cannot reverse Over"):
        couple_reverse(o)


def test_reversed_unit_descriptor_round_trips_as_co_unit():
    r = couple_reverse(LSpace(0.5, EllPow(-0.5), L1, ONE, L2, UNIT))
    obj = json.loads(to_json(r))
    assert obj["setting"] == "co_unit"
    back = SpaceDescriptor.from_obj(obj)
    assert back == r and back.setting is CO_UNIT


def test_setting_is_coerced_to_its_interval():
    d = ThetaSpace(0.5, ONE, L2, "co_unit")
    assert d.setting is CO_UNIT and d.setting == "co_unit"
    assert AppMember(GrandLp(2.0, 1.0), "unit").setting is UNIT
    with pytest.raises(ValueError):
        AppMember(GrandLp(2.0, 1.0), CO_UNIT)


def test_reverse_norm_equality():
    # || f ||_{(X0,X1)desc} = || f ||_{(X1,X0)reversed desc} via eKK,
    # exactly at the quadrature level on a log-symmetric grid
    g = full_grid(1024)
    descs = (ThetaSpace(0.5, EllPow(1.0), L2),
             ThetaSpace(0.25, ONE, L2),
             RSpace(0.5, EllPow(-0.5), LINF, ONE, L2, FULL),
             LSpace(0.25, EllPow(-0.5), LINF, ONE, L2, FULL))
    for spec in ("chi:0.1", "powlog:4,-1"):
        K = k_peetre(corpus.sample(spec, g))
        Kr = kprofile_reverse(K)
        for d in descs:
            a = norm_in_space(K, d)
            b = norm_in_space(Kr, couple_reverse(d))
            if math.isinf(a) or math.isinf(b):
                assert a == b, (d, spec)
            else:
                assert abs(a - b) <= 1e-6 * abs(b), (d, spec)


# -- serialization -----------------------------------------------------

_DESCS = (EndpointX0(), EndpointX1(),
          ThetaSpace(0.375, EllPow(-0.5), L2),
          ThetaSpace(0.5, ONE, LINF, UNIT),
          LSpace(0.25, EllPow(1.0), L2, ONE, LINF, FULL),
          RSpace(0.5, Power(EllPow(2.0), -0.25), L1, EllPow(0.5), L2, FULL),
          LLSpace(0.25, ONE, L2, EllPow(1.0), L2, ONE, LINF, FULL),
          RRSpace(0.75, EllPow(-1.0), LINF, ONE, L2, EllPow(1.0), L1, FULL),
          Intersection((ThetaSpace(0.5, ONE, L2), EndpointX1())))


def test_space_json_round_trip():
    for d in _DESCS:
        assert SpaceDescriptor.from_obj(json.loads(to_json(d))) == d


def test_space_json_rejects_garbage():
    with pytest.raises((KeyError, ValueError)):
        SpaceDescriptor.from_obj(json.loads('{"kind": "pentagon"}'))


def test_theta_range_validation():
    with pytest.raises(ValueError):
        ThetaSpace(1.5, ONE, L2)
    with pytest.raises(ValueError):
        LSpace(-0.25, ONE, L2, ONE, L2, FULL)
    for cls in (LLSpace, RRSpace):
        for theta in (-0.5, 2.0):
            with pytest.raises(ValueError):
                cls(theta, ONE, L2, ONE, L2, ONE, L2, FULL)


@pytest.mark.parametrize("d", [d for d in _DESCS
                               if not isinstance(d, Intersection)]
                         + [AppMember(GrandLp(2.0, 1.0))],
                         ids=lambda d: d.to_obj()["kind"])
def test_unknown_setting_is_rejected(d):
    with pytest.raises(ValueError):
        dataclasses.replace(d, setting="unti")


def test_composite_descriptors_have_one_setting():
    full, unit = ThetaSpace(0.5, ONE, L2, FULL), ThetaSpace(0.5, ONE, L2, UNIT)
    for members in ((full, unit), (unit, full), (full, EndpointX1(UNIT))):
        with pytest.raises(ValueError):
            Intersection(members)
    with pytest.raises(ValueError):
        Over((EndpointX0(), EndpointX1()), unit)
    with pytest.raises(ValueError):
        Over((EndpointX0(UNIT), EndpointX1()), unit)
    assert Over((EndpointX0(UNIT), EndpointX1(UNIT)), unit).setting == UNIT


_MIRROR = {EndpointX0: EndpointX1, ThetaSpace: ThetaSpace, LSpace: RSpace,
           LLSpace: RRSpace, Intersection: Intersection}


def _in_unit(d):
    if isinstance(d, Intersection):
        return Intersection(tuple(map(_in_unit, d.members)))
    return dataclasses.replace(d, setting=UNIT)


# every descriptor of _DESCS, and each full-line one moved to (0, 1)
@pytest.mark.parametrize("d", [*_DESCS, *(_in_unit(d) for d in _DESCS
                                          if d.setting == FULL)],
                         ids=lambda d: d.to_obj()["kind"]
                         + ("" if d.setting == FULL else "-unit"))
def test_reverse_is_an_involution_onto_the_mirror_class(d):
    r = couple_reverse(d)
    mirror = {**_MIRROR, **{v: k for k, v in _MIRROR.items()}}
    assert type(r) is mirror[type(d)]
    assert r.setting == d.setting.reversed()
    assert r.setting == (CO_UNIT if d.setting == UNIT else FULL)
    assert couple_reverse(r) == d


@pytest.mark.parametrize("setting", [FULL, UNIT])
@pytest.mark.parametrize("kind", SV_WEIGHTS)
def test_reverse_is_an_involution_on_every_weight_kind(kind, setting):
    def descs(w):
        return (ThetaSpace(0.5, w, L2, setting),
                LSpace(0.25, w, L2, w, LINF, setting),
                RRSpace(0.75, w, LINF, ONE, L2, w, L1, setting))
    w = SV_WEIGHTS[kind]
    # an InverseArg reverses into its closed form, which then round-trips
    w0 = inverse_arg(w.inner) if isinstance(w, InverseArg) else w
    for d, d0 in zip(descs(w), descs(w0)):
        assert couple_reverse(couple_reverse(d)) == d0


# -- the folded L/R admissibility against the mirrored tables ----------

def _nested_ref(la, lb, qF, qE, dx, grid, inner_side, inner_from_one,
                outer_range, i_one):
    n = len(la)
    if inner_side == "lower":
        if inner_from_one:
            inner = np.full(n, -np.inf)
            inner[i_one:] = log_norm_lower(la[i_one:], qF, dx)
        else:
            inner = log_norm_lower(la, qF, dx)
            if edge_diverges(la, qF, grid, "low"):
                return math.inf
    else:
        if inner_from_one:
            inner = np.full(n, -np.inf)
            inner[:i_one + 1] = log_norm_upper(la[:i_one + 1], qF, dx)
        else:
            inner = log_norm_upper(la, qF, dx)
            if edge_diverges(la, qF, grid, "high"):
                return math.inf
    lo, hi = outer_range
    return checked_norm(lb + inner, qE, grid, lo, hi)


def _admissible_ref(d, grid):
    """(name, value) pairs as the separate L and R tables give."""
    unit = d.setting == UNIT
    dx, n, i_one = grid.dx, grid.n, grid.index_of(1.0)
    conds = []

    def norm_of(expr, q, lo, hi):
        return checked_norm(sv_log_on_grid(expr, grid), q, grid, lo, hi)

    nested = isinstance(d, (LLSpace, RRSpace))
    b_out = d.c if nested else d.b
    F_in = d.G if nested else d.F
    la = sv_log_on_grid(d.a, grid)
    lb = sv_log_on_grid(b_out, grid)
    E = d.E
    if isinstance(d, (LSpace, LLSpace)):
        if not unit:
            conds.append(("||b||_{E~(1,inf)}",
                          norm_of(b_out, E.q, i_one, n - 1)))
        if d.theta == 0.0 and not unit:
            conds.append(("||b(t)||a||_{F~(1,t)}||_{E~(1,inf)}",
                          _nested_ref(la, lb, F_in.q, E.q, dx, grid,
                                      "lower", True, (i_one, n - 1), i_one)))
            conds.append(("||ab||_{E~(1,inf)}",
                          norm_of(d.a * b_out, E.q, i_one, n - 1)))
        if d.theta == 1.0:
            conds.append(("||b(t)||a||_{F~(0,t)}||_{E~(0,1)}",
                          _nested_ref(la, lb, F_in.q, E.q, dx, grid,
                                      "lower", False, (0, i_one), i_one)))
        return conds
    conds.append(("||b||_{E~(0,1)}", norm_of(b_out, E.q, 0, i_one)))
    if d.theta == 0.0 and not unit:
        conds.append(("||b(t)||a||_{F~(t,inf)}||_{E~(1,inf)}",
                      _nested_ref(la, lb, F_in.q, E.q, dx, grid,
                                  "upper", False, (i_one, n - 1), i_one)))
    if d.theta == 1.0:
        conds.append(("||b(t)||a||_{F~(t,1)}||_{E~(0,1)}",
                      _nested_ref(la, lb, F_in.q, E.q, dx, grid,
                                  "upper", True, (0, i_one), i_one)))
        conds.append(("||ab||_{E~(0,1)}",
                      norm_of(d.a * b_out, E.q, 0, i_one)))
    return conds


# (b, E, a, F): convergent and divergent tails at each end
_PARAMS = [(ONE, LINF, ONE, L2), (EllPow(-1.0), L2, ONE, L1),
           (EllPow(-1.0), L1, EllPow(0.5), LINF),
           (BrokenEll(-2.0, 1.0), L1, EllPow(-1.0), L2),
           (BrokenEll(1.0, -2.0), L2, BrokenEll(-2.0, 0.5), L1),
           (EllPow(-0.5), LINF, EllPow(-2.0), L1)]


@pytest.mark.parametrize("setting", [FULL, UNIT])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_folded_admissibility_matches_side_tables(setting, theta):
    grid = unit_grid(257) if setting == UNIT else full_grid(257)
    for b, E, a, F in _PARAMS:
        for d in (LSpace(theta, b, E, a, F, setting),
                  RSpace(theta, b, E, a, F, setting),
                  LLSpace(theta, b, E, a, F, a, F, setting),
                  RRSpace(theta, b, E, a, F, a, F, setting)):
            rep = check_admissible(d, grid)
            conds = _admissible_ref(d, grid)
            assert [(c.name, c.value) for c in rep.conditions] == conds, d
