"""Two-sided K-functional estimates between a couple and its limiting
interpolation spaces.

A case is a couple (Y0, Y1) of descriptors over the endpoint couple
(X0, X1), in one of six configurations.  Three have an R-space as the
second member:

  R_interior      Y0 = (theta0, b0, E0) with 0 < theta0 < theta1 < 1
  R_theta0_zero   Y0 = (0, b0, E0),          theta1 in (0, 1]
  R_x0            Y0 = X0 itself,            theta1 in (0, 1]

and three have an L-space as the first member:

  L_interior      Y1 = (theta1, b1, E1) with 0 < theta0 < theta1 < 1
  L_theta1_one    Y1 = (1, b1, E1),          theta0 in [0, 1)
  L_x1            Y1 = X1 itself,            theta0 in [0, 1)

HolmstedtCase reads the configuration off the couple as given, the
members' classes and thetas; a refusal states the case's range in the
couple's own thetas.  The members share one setting: FULL, or UNIT for
couples over (0, 1).

In every case K(rho(u), f; Y0, Y1) is comparable, uniformly in u and f,
to an explicit expression in K(., f; X0, X1) split at u (Holmstedt,
Math. Scand. 26, 1970); rho has one factor and the expression one term
per member, read off its own kind and place.  verify_holmstedt
measures the two sides on a corpus of K-profiles and reports the ratio
spread over a range of u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import L2, LINF, log_norm_lower, log_norm_upper
from .sv import ONE, EllPow, Power, Product, NormTail, sv_log_on_grid
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace,
                     EndpointX0, EndpointX1)
from .kfun import KProfile, TruncationOracle, k_peetre, _cut_cap
from .report import EquivalenceReport, _sweep

CASES = ("R_interior", "R_theta0_zero", "R_x0",
         "L_interior", "L_theta1_one", "L_x1")


@dataclass(frozen=True)
class HolmstedtCase:
    """The couple (Y0, Y1) whose K-functional is being estimated; kind
    names its configuration, and a couple in none is a ValueError."""
    y0: SpaceDescriptor
    y1: SpaceDescriptor
    kind: str = field(init=False)

    def __post_init__(self):
        y0, y1 = self.y0, self.y1
        if y0.setting != y1.setting:
            raise ValueError("a case's members must share one setting")
        if isinstance(y1, RSpace) and isinstance(y0, (EndpointX0, ThetaSpace)):
            kind = ("R_x0" if isinstance(y0, EndpointX0) else
                    "R_theta0_zero" if y0.theta == 0 else "R_interior")
            need, ok = "theta1 in (0,1]", y1.theta > 0
        elif (isinstance(y0, LSpace)
              and isinstance(y1, (EndpointX1, ThetaSpace))):
            kind = ("L_x1" if isinstance(y1, EndpointX1) else
                    "L_theta1_one" if y1.theta == 1 else "L_interior")
            need, ok = "theta0 in [0,1)", y0.theta < 1
        else:
            raise ValueError(f"({type(y0).__name__}, {type(y1).__name__}) "
                             "is in none of the six configurations")
        if kind.endswith("_interior"):
            need, ok = "0 < theta0 < theta1 < 1", 0 < y0.theta < y1.theta < 1
        if not ok:
            raise ValueError(f"{kind} needs {need}")
        object.__setattr__(self, "kind", kind)

    @property
    def setting(self) -> str:
        return self.y0.setting

    def factors(self):
        """(N, D) with rho(u) = u^(theta1 - theta0) N(u) / D(u), one
        factor per member (_factor)."""
        return _factor(self.y0, "upper"), _factor(self.y1, "lower")

    def rho_params(self):
        """(gamma, sv) with rho(u) = u^gamma * sv(u)."""
        n, d = self.factors()
        d = d and Power(d, -1.0)
        sv = Product(n, d) if n and d else n or d
        return self.y1.theta - self.y0.theta, sv


def _factor(y: SpaceDescriptor, side: str):
    """Member y's factor of rho, side 'upper' for Y0 and 'lower' for Y1:
    a ||b||_{E~} over that side of u for an L or R member, ||b||_{E~}
    there for a theta member at theta 0 or 1, b for an interior one and
    None for X0 or X1."""
    if isinstance(y, (LSpace, RSpace)):
        return Product(y.a, NormTail(y.b, y.E, side))
    if isinstance(y, ThetaSpace):
        return NormTail(y.b, y.E, side) if y.theta in (0.0, 1.0) else y.b
    return None


# the couples used by `verify holmstedt` and `verify reiteration`; the
# thetas sit strictly inside the admissible ranges and each SV/Lq
# pairing keeps every tail norm finite.
DEFAULT_CASES = {c.kind: c for c in (
    HolmstedtCase(ThetaSpace(0.25, EllPow(0.5), L2),
                  RSpace(0.5, EllPow(-0.5), LINF, ONE, L2)),
    HolmstedtCase(ThetaSpace(0.0, EllPow(-0.5), LINF),
                  RSpace(0.5, ONE, LINF, ONE, L2)),
    HolmstedtCase(EndpointX0(), RSpace(0.5, ONE, LINF, ONE, LINF)),
    HolmstedtCase(LSpace(0.25, EllPow(-0.5), LINF, ONE, L2),
                  ThetaSpace(0.5, EllPow(0.5), L2)),
    HolmstedtCase(LSpace(0.25, EllPow(-0.5), LINF, ONE, L2),
                  ThetaSpace(1.0, EllPow(-0.5), LINF)),
    HolmstedtCase(LSpace(0.5, EllPow(-0.5), LINF, ONE, L2), EndpointX1()),
)}


def holmstedt_rhs(case: HolmstedtCase, K: KProfile):
    """Per-node arrays: (log rho(u_i), log RHS(u_i)) for every grid node.

    RHS(u) = T(Y0) + rho(u) T(Y1), one term per member (_term), none for
    X0 or X1.  Entries where a tail norm has not converged on the
    truncated grid are -inf/NaN free: the caller restricts to interior
    nodes anyway, so the scans are unchecked on purpose (no
    grid.checked_scan); test_folded_rhs_matches_side_tables pins them.
    """
    gamma, sv = case.rho_params()
    lrho = gamma * K.grid.x + sv_log_on_grid(sv, K.grid)
    t0 = _term(case.y0, K, log_norm_lower, "upper")
    t1 = _term(case.y1, K, log_norm_upper, "lower")
    if t1 is None:
        return lrho, t0
    return lrho, lrho + t1 if t0 is None else np.logaddexp(t0, lrho + t1)


def _term(y: SpaceDescriptor, K: KProfile, scan, far: str):
    """log of member y's term at each u, scanned towards y's end, over
    (0, u) for Y0 and (u, inf) for Y1; far names the other side.

    A theta member gives || t^-theta_m b_m K ||_{E_m~}; an L member
    (theta_m, b_m, E_m, a, F) its mixed term

        || b_m ||_{E_m~(u,inf)} || s^-theta_m a K ||_{F~(0,u)}
          + || b_m(t) || s^-theta_m a K ||_{F~(0,t)} ||_{E_m~(0,u)},

    and an R member the same with (0, u) <-> (u, inf).  || b_m ||_{E_m~}
    is the tail table of rho's factor, built and edge-checked there.
    """
    if not isinstance(y, (ThetaSpace, LSpace, RSpace)):
        return None
    grid, x, dx, logk = K.grid, K.grid.x, K.grid.dx, K.logk
    lb = sv_log_on_grid(y.b, grid)
    if isinstance(y, ThetaSpace):
        return scan(-y.theta * x + lb + logk, y.E.q, dx)
    la = sv_log_on_grid(y.a, grid)
    aK = scan(-y.theta * x + la + logk, y.F.q, dx)
    tail = sv_log_on_grid(NormTail(y.b, y.E, far), grid)
    return np.logaddexp(tail + aK, scan(lb + aK, y.E.q, dx))


def verify_holmstedt(case: HolmstedtCase, corpus=None, log2n=(9, 10)
                     ) -> EquivalenceReport:
    """Measure LHS/RHS over a corpus and a sweep of split points u.

    LHS is K(rho(u), f; Y0, Y1) from a truncation oracle over the member
    couple; RHS is the explicit split expression over K(., f; X0, X1),
    the k_peetre profile the oracle is built from.  The split points are
    every 8th node of the grid interior (5% of the nodes dropped at each
    end).  report._sweep adds one block per (grid size, prototype) on the
    grids of the case's setting: the rows at u with both sides finite
    and positive.  A prototype whose oracle or rho weight fails, or with
    no such u, is excluded with the reason.
    """

    def rows(fstar):
        grid = fstar.grid
        idx = np.arange(grid.n)[grid.interior()][::8]
        try:
            K = k_peetre(fstar)
            orc = TruncationOracle(K, case.y0, case.y1,
                                   max_cuts=_cut_cap(grid))
            lrho, lrhs = holmstedt_rhs(case, K)
        except ValueError as e:     # SvDivergenceError included
            return str(e)
        live = idx[np.isfinite(lrho[idx]) & np.isfinite(lrhs[idx])]
        lhs = np.exp(orc.k_at_log(lrho[live]))
        rhs = np.exp(lrhs[live])
        ok = np.isfinite(lhs) & (lhs > 0) & (rhs > 0)
        if not ok.any():
            return f"no admissible split points at n={grid.n}"
        return grid.t[live[ok]], lhs[ok], rhs[ok]

    return _sweep(case.kind, corpus, case.setting, log2n, rows)
