"""Two-sided K-functional estimates between a couple and its limiting
interpolation spaces.

Six cases are covered.  Three have an R-space as the second member:

  R_interior      Y0 = (theta0, b0, E0) with 0 < theta0 < theta1 < 1
  R_theta0_zero   Y0 = (0, b0, E0),          theta1 in (0, 1]
  R_x0            Y0 = X0 itself,            theta1 in (0, 1]

and three have an L-space as the first member:

  L_interior      Y1 = (theta1, b1, E1) with 0 < theta0 < theta1 < 1
  L_theta1_one    Y1 = (1, b1, E1),          theta0 in [0, 1)
  L_x1            Y1 = X1 itself,            theta0 in [0, 1)

Each L case is the R case of the reversed couple (X1, X0), since
K(t, f; X1, X0) = t K(1/t, f; X0, X1): theta goes to 1 - theta, every
slowly varying parameter to its value at 1/t, and the members swap
(HolmstedtCase._reversed).  Only the R cases are written out.
A case's members are descriptors in its setting: FULL, or UNIT for
couples over (0, 1).  An L case needs FULL, as reversal maps (0, 1)
onto (1, inf).  verify_holmstedt runs on the full line.

In every case K(rho(u), f; Y0, Y1) is comparable, uniformly in u and f,
to an explicit expression in K(., f; X0, X1) split at u.  verify_holmstedt
measures the two sides on a corpus of K-profiles and reports the ratio
spread over a range of u.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .grid import (RiSpace, L2, LINF, full_grid, log_norm_lower,
                   log_norm_upper)
from .sv import (SvExpr, ONE, EllPow, Power, Product, NormTail,
                 inverse_arg, sv_log_on_grid, SvDivergenceError)
from .spaces import (ThetaSpace, LSpace, RSpace, EndpointX0, FULL, UNIT,
                     couple_reverse)
from .kfun import KProfile, TruncationOracle, _cut_cap
from .report import EquivalenceReport
from . import corpus as corpus_mod

R_CASES = ("R_interior", "R_theta0_zero", "R_x0")
L_CASES = ("L_interior", "L_theta1_one", "L_x1")
CASES = R_CASES + L_CASES


@dataclass(frozen=True)
class HolmstedtCase:
    kind: str
    theta0: float = 0.0
    theta1: float = 1.0
    b0: SvExpr = ONE
    E0: RiSpace = RiSpace(math.inf)
    b1: SvExpr = ONE
    E1: RiSpace = RiSpace(math.inf)
    a: SvExpr = ONE
    F: RiSpace = RiSpace(math.inf)
    setting: str = FULL

    def __post_init__(self):
        if self.kind not in CASES:
            raise ValueError(f"unknown case {self.kind!r}")
        if self.kind in L_CASES:
            if self.setting == UNIT:
                raise ValueError(f"{self.kind} needs the full line: couple "
                                 "reversal maps (0, 1) onto (1, inf)")
            try:
                self._reversed()
            except ValueError as e:
                raise ValueError(
                    f"{self.kind} is the reversed couple's "
                    f"{R_CASES[L_CASES.index(self.kind)]} with theta0 -> "
                    f"1 - theta1, theta1 -> 1 - theta0, and {e}") from None
            return
        t0, t1 = self.theta0, self.theta1
        if self.kind == "R_interior" and not 0 < t0 < t1 < 1:
            raise ValueError("R_interior needs 0 < theta0 < theta1 < 1")
        if self.kind == "R_theta0_zero" and not (t0 == 0 and 0 < t1 <= 1):
            raise ValueError("R_theta0_zero needs theta0 = 0, theta1 in (0,1]")
        if self.kind == "R_x0" and not 0 < t1 <= 1:
            raise ValueError("R_x0 needs theta1 in (0,1]")

    def _reversed(self) -> HolmstedtCase:
        """The R case over the reversed couple (X1, X0) that an L case is."""
        return HolmstedtCase(R_CASES[L_CASES.index(self.kind)],
                             1.0 - self.theta1, 1.0 - self.theta0,
                             inverse_arg(self.b1), self.E1,
                             inverse_arg(self.b0), self.E0,
                             inverse_arg(self.a), self.F)

    def members(self):
        """The couple (Y0, Y1) whose K-functional is being estimated."""
        if self.kind in L_CASES:
            y0, y1 = self._reversed().members()
            return couple_reverse(y1), couple_reverse(y0)
        s = self.setting
        y1 = RSpace(self.theta1, self.b1, self.E1, self.a, self.F, s)
        if self.kind == "R_x0":
            return EndpointX0(s), y1
        return ThetaSpace(self.theta0, self.b0, self.E0, s), y1

    def rho_params(self):
        """(gamma, sv) with rho(u) = u^gamma * sv(u)."""
        if self.kind in L_CASES:
            # rho(u) = 1 / rho'(1/u) for the rho' of the reversed case
            gamma, sv = self._reversed().rho_params()
            return gamma, Power(inverse_arg(sv), -1.0)
        sv = Product(Power(self.a, -1.0),
                     Power(NormTail(self.b1, self.E1, "lower"), -1.0))
        if self.kind == "R_interior":
            return self.theta1 - self.theta0, Product(self.b0, sv)
        if self.kind == "R_theta0_zero":
            return self.theta1, Product(NormTail(self.b0, self.E0, "upper"),
                                        sv)
        return self.theta1, sv


# parameter choices used by `verify holmstedt` and `verify reiteration`;
# the thetas sit strictly inside the admissible ranges and each SV/Lq
# pairing keeps every tail norm finite.
DEFAULT_CASES = {
    "R_interior": HolmstedtCase("R_interior", 0.25, 0.5,
                                b0=EllPow(0.5), E0=L2,
                                b1=EllPow(-0.5), E1=LINF, a=ONE, F=L2),
    "R_theta0_zero": HolmstedtCase("R_theta0_zero", 0.0, 0.5,
                                   b0=EllPow(-0.5), E0=LINF,
                                   b1=ONE, E1=LINF, a=ONE, F=L2),
    "R_x0": HolmstedtCase("R_x0", 0.0, 0.5, b1=ONE, E1=LINF,
                          a=ONE, F=LINF),
    "L_interior": HolmstedtCase("L_interior", 0.25, 0.5,
                                b0=EllPow(-0.5), E0=LINF,
                                b1=EllPow(0.5), E1=L2, a=ONE, F=L2),
    "L_theta1_one": HolmstedtCase("L_theta1_one", 0.25, 1.0,
                                  b0=EllPow(-0.5), E0=LINF,
                                  b1=EllPow(-0.5), E1=LINF, a=ONE, F=L2),
    "L_x1": HolmstedtCase("L_x1", 0.5, 1.0, b0=EllPow(-0.5), E0=LINF,
                          a=ONE, F=L2),
}


def holmstedt_rhs(case: HolmstedtCase, K: KProfile):
    """Per-node arrays: (log rho(u_i), log RHS(u_i)) for every grid node.

    For L, RHS is a mixed term over the L member (theta_m, b_m, E_m, a, F)

        || b_m ||_{E_m~(u,inf)} || s^-theta_m a K ||_{F~(0,u)}
          + || b_m(t) || s^-theta_m a K ||_{F~(0,t)} ||_{E_m~(0,u)}

    plus rho(u) times an endpoint term || t^-theta b K ||_{E~(u,inf)}
    over the theta member (none for X1).  R is the mirror image: every
    interval reversed, (0,u) <-> (u,inf), and rho multiplying the mixed
    term instead.  Entries where a tail norm has not converged on the
    truncated grid are -inf/NaN free: the caller restricts to interior
    nodes anyway.
    """
    grid = K.grid
    x = grid.x
    dx = grid.dx
    logk = K.logk

    gamma, sv = case.rho_params()
    lrho = gamma * x + sv_log_on_grid(sv, grid)

    y0, y1 = case.members()
    low = isinstance(y0, LSpace)
    mixed, end = (y0, y1) if low else (y1, y0)
    pre, suf = (log_norm_lower, log_norm_upper) if low else \
        (log_norm_upper, log_norm_lower)
    la = sv_log_on_grid(mixed.a, grid)
    lb = sv_log_on_grid(mixed.b, grid)
    aK = pre(-mixed.theta * x + la + logk, mixed.F.q, dx)
    rhs = np.logaddexp(suf(lb, mixed.E.q, dx) + aK,
                       pre(lb + aK, mixed.E.q, dx))
    if not low:
        rhs = lrho + rhs
    if isinstance(end, ThetaSpace):
        lb = sv_log_on_grid(end.b, grid)
        e = suf(-end.theta * x + lb + logk, end.E.q, dx)
        rhs = np.logaddexp(rhs, lrho + e if low else e)
    return lrho, rhs


def verify_holmstedt(case: HolmstedtCase, corpus=None, log2n=(9, 10)
                     ) -> EquivalenceReport:
    """Measure LHS/RHS over a corpus and a sweep of split points u.

    LHS is K(rho(u), f; Y0, Y1) from a truncation oracle over the member
    couple; RHS is the explicit split expression over the oracle's
    K(., f; X0, X1) profile.  The split points are every 8th node of the
    grid interior (5% of the nodes dropped at each end).  One report row
    per (prototype, grid size, u) with both sides finite and positive,
    added in one block per (prototype, grid size).
    """
    y0, y1 = case.members()
    rep = EquivalenceReport(case.kind)
    specs = corpus_mod.resolve_corpus(corpus) if corpus else \
        corpus_mod.STANDARD
    for kk in log2n:
        n = 1 << kk
        grid = full_grid(n)
        sel = grid.interior()
        idx = np.arange(sel.start, sel.stop)[::8]
        for spec in specs:
            fstar = corpus_mod.sample(spec, grid)
            try:
                orc = TruncationOracle(fstar, y0, y1,
                                       max_cuts=_cut_cap(grid))
            except ValueError as e:
                rep.exclude(spec, str(e))
                continue
            try:
                lrho, lrhs = holmstedt_rhs(case, orc.kprofile)
            except SvDivergenceError as e:
                rep.exclude(spec, str(e))
                continue
            live = idx[np.isfinite(lrho[idx]) & np.isfinite(lrhs[idx])]
            lhs = np.exp(orc.k_at_log(lrho[live]))
            rhs = np.exp(lrhs[live])
            ok = np.isfinite(lhs) & (lhs > 0) & (rhs > 0)
            if not ok.any():
                rep.exclude(spec, f"no admissible split points at n={n}")
                continue
            rep.add_rows(spec, n, grid.t[live[ok]], lhs[ok], rhs[ok])
    return rep
