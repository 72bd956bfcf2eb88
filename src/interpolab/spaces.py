"""Descriptors for the interpolation spaces built from a K-functional.

A descriptor says how to turn the profile t -> K(t, f) into a norm:

* x0 / x1          the endpoint norms themselves
* theta            || t^-theta b(t) K(t,f) ||_{E~}
* L / R            an inner prefix/suffix norm in F~ weighted by
                   s^-theta a(s), then an outer E~ norm against b
* LL / RR          the same with two nested inner levels
* intersection     max of the member norms
* app              a concrete function-space norm computed straight
                   from f* (see applications.py)

Settings: "full" norms run over the whole truncated line (0, inf),
"unit" over (0, 1) with t = 1 a genuine edge.  Admissibility follows the
parameter tables that make the space nontrivial; conditions involving
(1, inf) are dropped in the unit setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .grid import (Grid, RiSpace, full_grid, unit_grid, edge_divergent,
                   log_norm_lower, log_norm_upper, log_norm_between,
                   _edge_diverges)
from .sv import SvExpr, sv_to_obj, sv_from_obj, sv_log_on_grid, \
    inverse_arg, SvDivergenceError

FULL = "full"
UNIT = "unit"


class SpaceDescriptor:
    """Base class for the descriptor variants."""

    setting: str


@dataclass(frozen=True)
class EndpointX0(SpaceDescriptor):
    setting: str = FULL


@dataclass(frozen=True)
class EndpointX1(SpaceDescriptor):
    setting: str = FULL


@dataclass(frozen=True)
class ThetaSpace(SpaceDescriptor):
    theta: float
    b: SvExpr
    E: RiSpace
    setting: str = FULL

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class LSpace(SpaceDescriptor):
    theta: float
    b: SvExpr
    E: RiSpace
    a: SvExpr
    F: RiSpace
    setting: str = FULL

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class RSpace(SpaceDescriptor):
    theta: float
    b: SvExpr
    E: RiSpace
    a: SvExpr
    F: RiSpace
    setting: str = FULL

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class LLSpace(SpaceDescriptor):
    """Outer (c, E), middle (b, F), inner (a, G), all prefix norms."""
    theta: float
    c: SvExpr
    E: RiSpace
    b: SvExpr
    F: RiSpace
    a: SvExpr
    G: RiSpace
    setting: str = FULL


@dataclass(frozen=True)
class RRSpace(SpaceDescriptor):
    """Outer (c, E), middle (b, F), inner (a, G), all suffix norms."""
    theta: float
    c: SvExpr
    E: RiSpace
    b: SvExpr
    F: RiSpace
    a: SvExpr
    G: RiSpace
    setting: str = FULL


@dataclass(frozen=True)
class Intersection(SpaceDescriptor):
    members: tuple

    @property
    def setting(self):
        return self.members[0].setting


@dataclass(frozen=True)
class AppMember(SpaceDescriptor):
    """Wraps a concrete function space (applications.AppSpace)."""
    space: object
    setting: str = UNIT


# ---------------------------------------------------------------------
# couple reversal
# ---------------------------------------------------------------------

def couple_reverse(d: SpaceDescriptor) -> SpaceDescriptor:
    """Descriptor of the same space built from the reversed couple.

    Uses K(t, f; X1, X0) = t K(1/t, f; X0, X1): theta goes to 1 - theta,
    every slowly varying parameter is precomposed with t -> 1/t, and the
    L/R (LL/RR) orientations swap.  Only meaningful on the full line.
    """
    if d.setting != FULL:
        raise ValueError("couple reversal needs the full-line setting")
    if isinstance(d, EndpointX0):
        return EndpointX1()
    if isinstance(d, EndpointX1):
        return EndpointX0()
    if isinstance(d, ThetaSpace):
        return ThetaSpace(1.0 - d.theta, inverse_arg(d.b), d.E)
    if isinstance(d, LSpace):
        return RSpace(1.0 - d.theta, inverse_arg(d.b), d.E,
                      inverse_arg(d.a), d.F)
    if isinstance(d, RSpace):
        return LSpace(1.0 - d.theta, inverse_arg(d.b), d.E,
                      inverse_arg(d.a), d.F)
    if isinstance(d, LLSpace):
        return RRSpace(1.0 - d.theta, inverse_arg(d.c), d.E,
                       inverse_arg(d.b), d.F, inverse_arg(d.a), d.G)
    if isinstance(d, RRSpace):
        return LLSpace(1.0 - d.theta, inverse_arg(d.c), d.E,
                       inverse_arg(d.b), d.F, inverse_arg(d.a), d.G)
    if isinstance(d, Intersection):
        return Intersection(tuple(couple_reverse(m) for m in d.members))
    raise ValueError(f"cannot reverse {type(d).__name__}")


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
    conditions: list
    notes: list = field(default_factory=list)

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.conditions)


def _norm_piece(lw, q, dx, i0, i1, grid):
    """Norm over node range, inf when divergent at a truncated grid edge."""
    if edge_divergent(lw, q, dx, i0, i1, grid):
        return math.inf
    v = log_norm_between(lw, q, dx, i0, i1)
    return math.exp(v) if v < 700 else math.inf


def _nested_cond(la, lb, qF, qE, dx, grid, inner_side, inner_from_one,
                 outer_range, i_one):
    """Conditions of shape || b(t) || a ||_{F~(I(t))} ||_{E~(J)}."""
    n = len(la)
    if inner_side == "lower":
        if inner_from_one:
            # || a ||_{F~(1, t)} for t >= 1
            inner = np.full(n, -np.inf)
            inner[i_one:] = log_norm_lower(la[i_one:], qF, dx)
        else:
            inner = log_norm_lower(la, qF, dx)
            if grid.truncated_low and _edge_diverges(la, qF, dx,
                                                     grid.x[0], "low"):
                return math.inf
    else:
        if inner_from_one:
            # || a ||_{F~(t, 1)} for t <= 1
            inner = np.full(n, -np.inf)
            inner[:i_one + 1] = log_norm_upper(la[:i_one + 1], qF, dx)
        else:
            inner = log_norm_upper(la, qF, dx)
            if grid.truncated_high and _edge_diverges(la, qF, dx,
                                                      grid.x[n - 1], "high"):
                return math.inf
    lo, hi = outer_range
    return _norm_piece(lb + inner, qE, dx, lo, hi, grid)


def check_admissible(d: SpaceDescriptor, grid: Grid | None = None) -> AdmissibilityReport:
    """Evaluate the parameter conditions that keep the space nontrivial.

    Conditions are truncated integrals on a reference grid; a condition
    holds when the integral is finite under the edge-stability rule.
    """
    if isinstance(d, Intersection):
        reps = [check_admissible(m, grid) for m in d.members]
        out = AdmissibilityReport([c for r in reps for c in r.conditions],
                                  [n for r in reps for n in r.notes])
        return out
    if isinstance(d, (EndpointX0, EndpointX1)):
        return AdmissibilityReport([])
    if isinstance(d, AppMember):
        try:
            d.space.validate()
            return AdmissibilityReport([])
        except ValueError as e:
            return AdmissibilityReport([Condition(str(e), math.inf)])

    unit = d.setting == UNIT
    if grid is None:
        grid = unit_grid(4097) if unit else full_grid(4097)
    dx = grid.dx
    n = grid.n
    i_one = grid.index_of(1.0)
    conds: list[Condition] = []
    notes: list[str] = []

    def norm_of(expr, q, lo, hi):
        try:
            lw = sv_log_on_grid(expr, grid)
        except SvDivergenceError:
            return math.inf
        return _norm_piece(lw, q, dx, lo, hi, grid)

    if isinstance(d, ThetaSpace):
        if d.theta == 0.0 and not unit:
            conds.append(Condition("||b||_{E~(1,inf)}",
                                   norm_of(d.b, d.E.q, i_one, n - 1)))
        if d.theta == 1.0:
            conds.append(Condition("||b||_{E~(0,1)}",
                                   norm_of(d.b, d.E.q, 0, i_one)))
        return AdmissibilityReport(conds, notes)

    if isinstance(d, (LSpace, LLSpace)):
        b_out = d.b if isinstance(d, LSpace) else d.c
        E_out = d.E
        a_in = d.a
        F_in = d.F if isinstance(d, LSpace) else d.G
        if isinstance(d, LLSpace):
            notes.append("LL conditions taken from the L table applied to "
                         "the outer level")
        try:
            la = sv_log_on_grid(a_in, grid)
            lb = sv_log_on_grid(b_out, grid)
        except SvDivergenceError:
            return AdmissibilityReport([Condition("parameter tail norm",
                                                  math.inf)], notes)
        if not unit:
            conds.append(Condition("||b||_{E~(1,inf)}",
                                   norm_of(b_out, E_out.q, i_one, n - 1)))
        if d.theta == 0.0 and not unit:
            conds.append(Condition(
                "||b(t)||a||_{F~(1,t)}||_{E~(1,inf)}",
                _nested_cond(la, lb, F_in.q, E_out.q, dx, grid,
                             "lower", True, (i_one, n - 1), i_one)))
            conds.append(Condition("||ab||_{E~(1,inf)}",
                                   norm_of(a_in * b_out, E_out.q, i_one, n - 1)))
        if d.theta == 1.0:
            conds.append(Condition(
                "||b(t)||a||_{F~(0,t)}||_{E~(0,1)}",
                _nested_cond(la, lb, F_in.q, E_out.q, dx, grid,
                             "lower", False, (0, i_one), i_one)))
        return AdmissibilityReport(conds, notes)

    if isinstance(d, (RSpace, RRSpace)):
        b_out = d.b if isinstance(d, RSpace) else d.c
        E_out = d.E
        a_in = d.a
        F_in = d.F if isinstance(d, RSpace) else d.G
        notes.append("R-space conditions implemented exactly as the printed "
                     "theta=1 table reads")
        if isinstance(d, RRSpace):
            notes.append("RR conditions taken from the R table applied to "
                         "the outer level")
        try:
            la = sv_log_on_grid(a_in, grid)
            lb = sv_log_on_grid(b_out, grid)
        except SvDivergenceError:
            return AdmissibilityReport([Condition("parameter tail norm",
                                                  math.inf)], notes)
        conds.append(Condition("||b||_{E~(0,1)}",
                               norm_of(b_out, E_out.q, 0, i_one)))
        if d.theta == 0.0 and not unit:
            conds.append(Condition(
                "||b(t)||a||_{F~(t,inf)}||_{E~(1,inf)}",
                _nested_cond(la, lb, F_in.q, E_out.q, dx, grid,
                             "upper", False, (i_one, n - 1), i_one)))
        if d.theta == 1.0:
            conds.append(Condition(
                "||b(t)||a||_{F~(t,1)}||_{E~(0,1)}",
                _nested_cond(la, lb, F_in.q, E_out.q, dx, grid,
                             "upper", True, (0, i_one), i_one)))
            conds.append(Condition("||ab||_{E~(0,1)}",
                                   norm_of(a_in * b_out, E_out.q, 0, i_one)))
        return AdmissibilityReport(conds, notes)

    raise TypeError(f"unknown descriptor {type(d).__name__}")


# ---------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------

def _ri_to_obj(E: RiSpace):
    return {"q": "inf" if math.isinf(E.q) else E.q}


def _ri_from_obj(o) -> RiSpace:
    q = o["q"]
    return RiSpace(math.inf if q == "inf" else float(q))


def space_to_obj(d: SpaceDescriptor) -> dict:
    if isinstance(d, EndpointX0):
        return {"kind": "x0", "setting": d.setting}
    if isinstance(d, EndpointX1):
        return {"kind": "x1", "setting": d.setting}
    if isinstance(d, ThetaSpace):
        return {"kind": "theta", "theta": d.theta, "b": sv_to_obj(d.b),
                "E": _ri_to_obj(d.E), "setting": d.setting}
    if isinstance(d, (LSpace, RSpace)):
        return {"kind": "L" if isinstance(d, LSpace) else "R",
                "theta": d.theta, "b": sv_to_obj(d.b), "E": _ri_to_obj(d.E),
                "a": sv_to_obj(d.a), "F": _ri_to_obj(d.F),
                "setting": d.setting}
    if isinstance(d, (LLSpace, RRSpace)):
        return {"kind": "LL" if isinstance(d, LLSpace) else "RR",
                "theta": d.theta, "c": sv_to_obj(d.c), "E": _ri_to_obj(d.E),
                "b": sv_to_obj(d.b), "F": _ri_to_obj(d.F),
                "a": sv_to_obj(d.a), "G": _ri_to_obj(d.G),
                "setting": d.setting}
    if isinstance(d, Intersection):
        return {"kind": "intersection",
                "members": [space_to_obj(m) for m in d.members]}
    if isinstance(d, AppMember):
        return {"kind": "app", "space": d.space.to_obj(), "setting": d.setting}
    raise TypeError(f"unknown descriptor {type(d).__name__}")


def space_from_obj(o: dict) -> SpaceDescriptor:
    kind = o["kind"]
    setting = o.get("setting", FULL)
    if kind == "x0":
        return EndpointX0(setting)
    if kind == "x1":
        return EndpointX1(setting)
    if kind == "theta":
        return ThetaSpace(float(o["theta"]), sv_from_obj(o["b"]),
                          _ri_from_obj(o["E"]), setting)
    if kind in ("L", "R"):
        cls = LSpace if kind == "L" else RSpace
        return cls(float(o["theta"]), sv_from_obj(o["b"]), _ri_from_obj(o["E"]),
                   sv_from_obj(o["a"]), _ri_from_obj(o["F"]), setting)
    if kind in ("LL", "RR"):
        cls = LLSpace if kind == "LL" else RRSpace
        return cls(float(o["theta"]), sv_from_obj(o["c"]), _ri_from_obj(o["E"]),
                   sv_from_obj(o["b"]), _ri_from_obj(o["F"]),
                   sv_from_obj(o["a"]), _ri_from_obj(o["G"]), setting)
    if kind == "intersection":
        return Intersection(tuple(space_from_obj(m) for m in o["members"]))
    if kind == "app":
        from . import applications
        return AppMember(applications.app_from_obj(o["space"]), setting)
    raise ValueError(f"unknown descriptor kind {kind!r}")


def space_to_json(d: SpaceDescriptor) -> str:
    return json.dumps(space_to_obj(d), sort_keys=True)


def space_from_json(s: str) -> SpaceDescriptor:
    return space_from_obj(json.loads(s))
