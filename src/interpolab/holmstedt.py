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

In every case K(rho(u), f; Y0, Y1) is comparable, uniformly in u and f,
to an explicit expression in K(., f; X0, X1) split at u.  verify_holmstedt
measures the two sides on a corpus of K-profiles and reports the ratio
spread over a range of u.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .grid import RiSpace, full_grid, log_norm_lower, log_norm_upper
from .sv import (SvExpr, ONE, Power, Product, NormTail, sv_log_on_grid,
                 SvDivergenceError)
from .spaces import (ThetaSpace, LSpace, RSpace, EndpointX0, EndpointX1,
                     FULL)
from .kfun import KProfile, TruncationOracle, k_peetre
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

    def __post_init__(self):
        if self.kind not in CASES:
            raise ValueError(f"unknown case {self.kind!r}")
        t0, t1 = self.theta0, self.theta1
        if self.kind == "R_interior" and not 0 < t0 < t1 < 1:
            raise ValueError("R_interior needs 0 < theta0 < theta1 < 1")
        if self.kind == "R_theta0_zero" and not (t0 == 0 and 0 < t1 <= 1):
            raise ValueError("R_theta0_zero needs theta0 = 0, theta1 in (0,1]")
        if self.kind == "R_x0" and not 0 < t1 <= 1:
            raise ValueError("R_x0 needs theta1 in (0,1]")
        if self.kind == "L_interior" and not 0 < t0 < t1 < 1:
            raise ValueError("L_interior needs 0 < theta0 < theta1 < 1")
        if self.kind == "L_theta1_one" and not (t1 == 1 and 0 <= t0 < 1):
            raise ValueError("L_theta1_one needs theta1 = 1, theta0 in [0,1)")
        if self.kind == "L_x1" and not 0 <= t0 < 1:
            raise ValueError("L_x1 needs theta0 in [0,1)")

    def members(self):
        """The couple (Y0, Y1) whose K-functional is being estimated."""
        k = self.kind
        if k in R_CASES:
            y1 = RSpace(self.theta1, self.b1, self.E1, self.a, self.F, FULL)
            if k == "R_interior":
                y0 = ThetaSpace(self.theta0, self.b0, self.E0, FULL)
            elif k == "R_theta0_zero":
                y0 = ThetaSpace(0.0, self.b0, self.E0, FULL)
            else:
                y0 = EndpointX0(FULL)
            return y0, y1
        y0 = LSpace(self.theta0, self.b0, self.E0, self.a, self.F, FULL)
        if k == "L_interior":
            y1 = ThetaSpace(self.theta1, self.b1, self.E1, FULL)
        elif k == "L_theta1_one":
            y1 = ThetaSpace(1.0, self.b1, self.E1, FULL)
        else:
            y1 = EndpointX1(FULL)
        return y0, y1

    def rho_params(self):
        """(gamma, sv) with rho(u) = u^gamma * sv(u)."""
        k = self.kind
        inv_a = Power(self.a, -1.0)
        if k == "R_interior":
            sv = Product(self.b0, Product(
                inv_a, Power(NormTail(self.b1, self.E1, "lower"), -1.0)))
            return self.theta1 - self.theta0, sv
        if k == "R_theta0_zero":
            sv = Product(NormTail(self.b0, self.E0, "upper"), Product(
                inv_a, Power(NormTail(self.b1, self.E1, "lower"), -1.0)))
            return self.theta1, sv
        if k == "R_x0":
            sv = Product(inv_a,
                         Power(NormTail(self.b1, self.E1, "lower"), -1.0))
            return self.theta1, sv
        if k == "L_interior":
            sv = Product(self.a, Product(
                NormTail(self.b0, self.E0, "upper"), Power(self.b1, -1.0)))
            return self.theta1 - self.theta0, sv
        if k == "L_theta1_one":
            sv = Product(self.a, Product(
                NormTail(self.b0, self.E0, "upper"),
                Power(NormTail(self.b1, self.E1, "lower"), -1.0)))
            return 1.0 - self.theta0, sv
        sv = Product(self.a, NormTail(self.b0, self.E0, "upper"))
        return 1.0 - self.theta0, sv


def _logsum(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = np.logaddexp(out, p)
    return out


def holmstedt_rhs(case: HolmstedtCase, K: KProfile):
    """Per-node arrays: (log rho(u_i), log RHS(u_i)) for every grid node.

    Entries where a tail norm has not converged on the truncated grid
    are -inf/NaN free: the caller restricts to interior nodes anyway.
    """
    grid = K.grid
    x = grid.x
    dx = grid.dx
    logk = K.logk
    lell = np.log1p(np.abs(x))

    gamma, sv = case.rho_params()
    lrho = gamma * x + sv_log_on_grid(sv, grid)

    la = sv_log_on_grid(case.a, grid)
    k = case.kind
    if k in R_CASES:
        lb1 = sv_log_on_grid(case.b1, grid)
        # prefix/suffix tables in log domain
        b1_low = log_norm_lower(lb1, case.E1.q, dx)          # ||b1||_(0,u)
        g1 = -case.theta1 * x + la + logk
        aK_up = log_norm_upper(g1, case.F.q, dx)             # ||t^-th1 aK||_(u,oo)
        # Q1(u) = || b1(t) ||s^-th1 aK||_F(t,oo) ||_E1(u,oo)
        q1 = log_norm_upper(lb1 + aK_up, case.E1.q, dx)
        if k == "R_interior":
            lb0 = sv_log_on_grid(case.b0, grid)
            p0 = log_norm_lower(-case.theta0 * x + lb0 + logk, case.E0.q, dx)
        elif k == "R_theta0_zero":
            lb0 = sv_log_on_grid(case.b0, grid)
            p0 = log_norm_lower(lb0 + logk, case.E0.q, dx)
        else:
            p0 = np.full_like(x, -np.inf)
        r1 = b1_low + aK_up
        rhs = _logsum(p0, lrho + _logsum(r1, q1))
        return lrho, rhs

    lb0 = sv_log_on_grid(case.b0, grid)
    b0_up = log_norm_upper(lb0, case.E0.q, dx)               # ||b0||_(u,oo)
    g0 = -case.theta0 * x + la + logk
    aK_low = log_norm_lower(g0, case.F.q, dx)                # ||t^-th0 aK||_(0,u)
    # T1(u) = || b0(t) ||s^-th0 aK||_F(0,t) ||_E0(0,u)
    t1 = log_norm_lower(lb0 + aK_low, case.E0.q, dx)
    t2 = b0_up + aK_low
    if k == "L_interior":
        lb1 = sv_log_on_grid(case.b1, grid)
        t3 = lrho + log_norm_upper(-case.theta1 * x + lb1 + logk,
                                   case.E1.q, dx)
    elif k == "L_theta1_one":
        lb1 = sv_log_on_grid(case.b1, grid)
        t3 = lrho + log_norm_upper(-x + lb1 + logk, case.E1.q, dx)
    else:
        t3 = np.full_like(x, -np.inf)
    rhs = _logsum(t1, t2, t3)
    return lrho, rhs


def verify_holmstedt(case: HolmstedtCase, corpus=None, log2n=(9, 10),
                     u_stride: int = 8, interior: float = 0.05,
                     max_cuts: int | None = 128) -> EquivalenceReport:
    """Measure LHS/RHS over a corpus and a sweep of split points u.

    LHS is K(rho(u), f; Y0, Y1) from a truncation oracle over the member
    couple; RHS is the explicit split expression.  One report row per
    (prototype, grid size, u).
    """
    y0, y1 = case.members()
    rep = EquivalenceReport(case.kind)
    specs = corpus_mod.resolve_corpus(corpus) if corpus else \
        corpus_mod.STANDARD
    for kk in log2n:
        n = 1 << kk
        grid = full_grid(n)
        sel = grid.interior(interior)
        idx = np.arange(sel.start, sel.stop)[::u_stride]
        for spec in specs:
            fstar = corpus_mod.sample(spec, grid)
            try:
                orc = TruncationOracle(fstar, y0, y1, max_cuts=max_cuts)
            except ValueError as e:
                rep.exclude(spec, str(e))
                continue
            try:
                lrho, lrhs = holmstedt_rhs(case, k_peetre(fstar))
            except SvDivergenceError as e:
                rep.exclude(spec, str(e))
                continue
            live = idx[np.isfinite(lrho[idx]) & np.isfinite(lrhs[idx])]
            lhs_all = np.exp(orc.k_at_log(lrho[live]))
            for i, lhs in zip(live, lhs_all.tolist()):
                rhs = float(np.exp(lrhs[i]))
                if not (math.isfinite(lhs) and lhs > 0 and rhs > 0):
                    continue
                rep.add(spec, n, float(grid.t[i]), lhs, rhs)
            if not any(r.function_id == spec and r.n == n for r in rep.rows):
                rep.exclude(spec, f"no admissible split points at n={n}")
    return rep
