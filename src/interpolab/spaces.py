"""Descriptors for the interpolation spaces built from a K-functional.

A descriptor says how to turn the profile t -> K(t, f) into a norm:

* x0 / x1          the endpoint norms: theta = 0 / 1, b = 1, E = Linf
* theta            || t^-theta b(t) K(t,f) ||_{E~}
* L / R            an inner prefix/suffix norm in F~ weighted by
                   s^-theta a(s), then an outer E~ norm against b
* LL / RR          the same with two nested inner levels; side names
                   the end the inner norms run to (grid.checked_scan)
* intersection     max of the member norms
* app              a concrete function-space norm computed straight
                   from f* by the space itself (AppSpace.norm)
* over             a descriptor applied to K(., f; Y0, Y1) of a derived
                   couple (Y0, Y1) instead of the endpoint couple

A setting is the t-interval a space lives on (grid.Setting): FULL
(0, inf), UNIT (0, 1) or CO_UNIT (1, inf), where reversal takes UNIT;
the members of an intersection or over share one.  theta lies in
[0, 1].  Admissibility follows the parameter tables that make the space
nontrivial; conditions involving (1, inf) are dropped in the unit
setting.

Each descriptor has a JSON form through its wire tag (see wire.py).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math
from typing import TYPE_CHECKING

import numpy as np

from .grid import (Grid, RiSpace, LINF, Setting, FULL, UNIT, CO_UNIT,
                   checked_norm, checked_scan, log_norm_lower,
                   log_norm_upper)
from .sv import ONE, SvExpr, sv_log_on_grid, inverse_arg, SvDivergenceError
from .wire import Wire

if TYPE_CHECKING:
    from .applications import AppSpace

class SpaceDescriptor(Wire):
    """Base class for the descriptor variants; coerces the setting and
    checks theta (intersection, over and app check their own)."""

    setting: Setting

    def __post_init__(self):
        object.__setattr__(self, "setting", Setting(self.setting))
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class EndpointX0(SpaceDescriptor, kind="x0"):
    setting: Setting = FULL
    theta = 0.0     # not a field: X0 is normed as a theta space (levels)


@dataclass(frozen=True)
class EndpointX1(SpaceDescriptor, kind="x1"):
    setting: Setting = FULL
    theta = 1.0


@dataclass(frozen=True)
class ThetaSpace(SpaceDescriptor, kind="theta"):
    theta: float
    b: SvExpr
    E: RiSpace
    setting: Setting = FULL


@dataclass(frozen=True)
class LSpace(SpaceDescriptor, kind="L"):
    theta: float
    b: SvExpr
    E: RiSpace
    a: SvExpr
    F: RiSpace
    setting: Setting = FULL
    side = "low"    # not a field: its inner norms run to t = 0


@dataclass(frozen=True)
class RSpace(SpaceDescriptor, kind="R"):
    theta: float
    b: SvExpr
    E: RiSpace
    a: SvExpr
    F: RiSpace
    setting: Setting = FULL
    side = "high"   # not a field: its inner norms run to t = inf


@dataclass(frozen=True)
class LLSpace(SpaceDescriptor, kind="LL"):
    """Outer (c, E), middle (b, F), inner (a, G), all prefix norms."""
    theta: float
    c: SvExpr
    E: RiSpace
    b: SvExpr
    F: RiSpace
    a: SvExpr
    G: RiSpace
    setting: Setting = FULL
    side = "low"


@dataclass(frozen=True)
class RRSpace(SpaceDescriptor, kind="RR"):
    """Outer (c, E), middle (b, F), inner (a, G), all suffix norms."""
    theta: float
    c: SvExpr
    E: RiSpace
    b: SvExpr
    F: RiSpace
    a: SvExpr
    G: RiSpace
    setting: Setting = FULL
    side = "high"


@dataclass(frozen=True)
class Intersection(SpaceDescriptor, kind="intersection"):
    members: tuple[SpaceDescriptor, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("an intersection needs at least one member")
        if len({m.setting for m in self.members}) > 1:
            raise ValueError("intersection members must share one setting")

    @property
    def setting(self):
        return self.members[0].setting


@dataclass(frozen=True)
class AppMember(SpaceDescriptor, kind="app"):
    """Wraps a concrete function space (applications.AppSpace)."""
    space: AppSpace
    setting: Setting = UNIT

    def __post_init__(self):
        if self.setting != UNIT:
            raise ValueError("concrete spaces live on (0,1): setting must "
                             f"be '{UNIT}'")
        object.__setattr__(self, "setting", UNIT)


@dataclass(frozen=True)
class Over(SpaceDescriptor, kind="over"):
    """desc applied to K(., f; Y0, Y1) for the couple (Y0, Y1).

    Y0 and Y1 are descriptors over the endpoint couple in desc's setting;
    kfun takes their K-functional from a truncation oracle on f*.
    """
    couple: tuple[SpaceDescriptor, ...]
    desc: SpaceDescriptor

    def __post_init__(self):
        if len(self.couple) != 2:
            raise ValueError("a couple has exactly two members")
        if any(y.setting != self.desc.setting for y in self.couple):
            raise ValueError("a couple must be in its descriptor's setting")

    @property
    def setting(self):
        return self.desc.setting


def parts(d: SpaceDescriptor) -> tuple:
    """Intersection members, or an over's desc and couple; else ()."""
    if isinstance(d, Intersection):
        return d.members
    return (d.desc, *d.couple) if isinstance(d, Over) else ()


def contains(d: SpaceDescriptor, kinds) -> bool:
    """Is d, or any descriptor it is built from, an instance of kinds?"""
    return isinstance(d, kinds) or any(contains(m, kinds) for m in parts(d))


def levels(d: SpaceDescriptor) -> tuple:
    """(weight, space) of each level of an x0/x1, theta, L/R or LL/RR
    descriptor, from the inner level out; () for the other kinds.  X0
    and X1 are the theta spaces with b = 1 and E = Linf."""
    if isinstance(d, (LLSpace, RRSpace)):
        return ((d.a, d.G), (d.b, d.F), (d.c, d.E))
    if isinstance(d, (LSpace, RSpace)):
        return ((d.a, d.F), (d.b, d.E))
    if isinstance(d, (EndpointX0, EndpointX1)):
        return ((ONE, LINF),)
    return ((d.b, d.E),) if isinstance(d, ThetaSpace) else ()


# ---------------------------------------------------------------------
# couple reversal
# ---------------------------------------------------------------------

_MIRROR = {EndpointX0: EndpointX1, ThetaSpace: ThetaSpace, LSpace: RSpace,
           LLSpace: RRSpace, Intersection: Intersection}
_MIRROR.update({v: k for k, v in _MIRROR.items()})


def couple_reverse(d: SpaceDescriptor) -> SpaceDescriptor:
    """Descriptor of the same space built from the reversed couple.

    Uses K(t, f; X1, X0) = t K(1/t, f; X0, X1): theta goes to 1 - theta,
    every slowly varying parameter is precomposed with t -> 1/t, so is
    the setting (UNIT <-> CO_UNIT), members are reversed in turn, and the
    class goes to its mirror (X0 <-> X1, L <-> R, LL <-> RR).
    """
    if type(d) not in _MIRROR:
        raise ValueError(f"cannot reverse {type(d).__name__}")

    def rev(name, v):
        if name == "theta":
            return 1.0 - v
        if name == "setting":
            return v.reversed()
        if isinstance(v, SvExpr):
            return inverse_arg(v)
        return tuple(map(couple_reverse, v)) if isinstance(v, tuple) else v
    return _MIRROR[type(d)](**{f.name: rev(f.name, getattr(d, f.name))
                               for f in fields(d)})


# ---------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------

@dataclass
class Condition:
    name: str
    value: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value)


@dataclass
class AdmissibilityReport:
    """Conditions in order.  R-space conditions are implemented exactly
    as the printed theta=1 table reads; LL/RR ones are the L/R table's
    applied to the outer level."""
    conditions: list

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.conditions)


def _nested_cond(la, lb, qF, qE, grid, side, from_one, outer_range, i_one):
    """Conditions of shape || b(t) || a ||_{F~(I(t))} ||_{E~(J)}.

    I(t) is (0,t) for side 'low', else (t,inf), checked at that end;
    from_one starts it at 1 instead: (1,t) for t >= 1, or (t,1) for t <= 1.
    """
    if from_one:
        part, norm = ((slice(i_one, None), log_norm_lower) if side == "low"
                      else (slice(None, i_one + 1), log_norm_upper))
        inner = np.full(len(la), -np.inf)
        inner[part] = norm(la[part], qF, grid.dx)
    else:
        inner, div = checked_scan(la, qF, grid, side)
        if div:
            return math.inf
    return checked_norm(lb + inner, qE, grid, *outer_range)


def check_admissible(d: SpaceDescriptor, grid: Grid | None = None) -> AdmissibilityReport:
    """Evaluate the parameter conditions that keep the space nontrivial.

    Conditions are truncated integrals on a reference grid; a condition
    holds when the integral is finite under the edge-stability rule.  A
    full-line grid must hold t = 1 inside, else ValueError.
    """
    if parts(d):
        return AdmissibilityReport([c for m in parts(d) for c in
                                    check_admissible(m, grid).conditions])
    if isinstance(d, (EndpointX0, EndpointX1)):
        return AdmissibilityReport([])
    if isinstance(d, AppMember):
        try:
            d.space.validate()
            return AdmissibilityReport([])
        except ValueError as e:
            return AdmissibilityReport([Condition(str(e), math.inf)])

    unit = d.setting == UNIT
    grid = grid or Grid.from_bounds(None, None, 4097, d.setting)
    if grid.setting == FULL and not grid.x[0] < 0.0 < grid.x[-1]:
        raise ValueError("a full-line grid must have t_min < 1 < t_max")
    n = grid.n
    i_one = grid.index_of(1.0)
    conds: list[Condition] = []

    def norm_of(expr, q, lo, hi):
        try:
            lw = sv_log_on_grid(expr, grid)
        except SvDivergenceError:
            return math.inf
        return checked_norm(lw, q, grid, lo, hi)

    if isinstance(d, ThetaSpace):
        if d.theta == 0.0 and not unit:
            conds.append(Condition("||b||_{E~(1,inf)}",
                                   norm_of(d.b, d.E.q, i_one, n - 1)))
        if d.theta == 1.0:
            conds.append(Condition("||b||_{E~(0,1)}",
                                   norm_of(d.b, d.E.q, 0, i_one)))
        return AdmissibilityReport(conds)

    lv = levels(d)
    if len(lv) < 2:
        raise TypeError(f"unknown descriptor {type(d).__name__}")
    # R is L with the inner norm reversed: (0,1) <-> (1,inf) and
    # theta = 0 <-> theta = 1.  "far" is where ||b||_E must always be
    # finite: (1,inf) for L, (0,1) for R.  (a, F) is the inner level,
    # (b, E) the outer one.
    (a, F), *_, (b, E) = lv
    low = d.side == "low"
    try:
        la = sv_log_on_grid(a, grid)
        lb = sv_log_on_grid(b, grid)
    except SvDivergenceError:
        return AdmissibilityReport([Condition("parameter tail norm",
                                              math.inf)])
    nodes = {"(0,1)": (0, i_one), "(1,inf)": (i_one, n - 1)}
    far, near = ("(1,inf)", "(0,1)") if low else ("(0,1)", "(1,inf)")
    in_far, in_near = ("(1,t)", "(0,t)") if low else ("(t,1)", "(t,inf)")
    theta_far = 0.0 if low else 1.0
    if not (unit and far == "(1,inf)"):
        conds.append(Condition(f"||b||_{{E~{far}}}",
                               norm_of(b, E.q, *nodes[far])))
        if d.theta == theta_far:
            conds.append(Condition(
                f"||b(t)||a||_{{F~{in_far}}}||_{{E~{far}}}",
                _nested_cond(la, lb, F.q, E.q, grid, d.side,
                             True, nodes[far], i_one)))
            conds.append(Condition(f"||ab||_{{E~{far}}}",
                                   norm_of(a * b, E.q, *nodes[far])))
    if d.theta == 1.0 - theta_far and not (unit and near == "(1,inf)"):
        conds.append(Condition(
            f"||b(t)||a||_{{F~{in_near}}}||_{{E~{near}}}",
            _nested_cond(la, lb, F.q, E.q, grid, d.side,
                         False, nodes[near], i_one)))
    return AdmissibilityReport(conds)


# ---------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------

def space_from_obj(o: dict) -> SpaceDescriptor:
    return SpaceDescriptor.from_obj(o)
