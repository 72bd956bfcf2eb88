"""Reduction of a second interpolation step to a single descriptor.

Given a couple (Y0, Y1) in one of the six configurations of
holmstedt.CASES and an outer space (theta, b, E) applied to
K(., f; Y0, Y1), reiterate() returns a descriptor over the original
endpoint K-functional whose norm is equivalent.  verify_reiteration
measures both sides on a corpus: the left side through a truncation
oracle for the member couple, the right side directly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .grid import RiSpace, full_grid
from .sv import (SvExpr, ONE, Power, Product, NormTail, compose_rho,
                 SvDivergenceError)
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace, LLSpace,
                     RRSpace, Intersection, FULL)
from .holmstedt import HolmstedtCase, R_CASES
from .kfun import TruncationOracle, k_peetre, norm_in_space
from .report import EquivalenceReport
from . import corpus as corpus_mod


@dataclass(frozen=True)
class ReiterationCase:
    inner: HolmstedtCase
    theta: float
    b: SvExpr = ONE
    E: RiSpace = RiSpace(math.inf)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("outer theta must lie in [0, 1]")


def reiterate(case: ReiterationCase) -> SpaceDescriptor:
    """Descriptor over the endpoint couple equivalent to the outer space."""
    c = case.inner
    th = case.theta
    gamma, rho_sv = c.rho_params()
    brho = compose_rho(case.b, gamma, rho_sv)
    k = c.kind

    if k in R_CASES:
        b1_low = NormTail(c.b1, c.E1, "lower")
        a_b1 = Product(c.a, b1_low)
        if th == 1.0:
            return Intersection((
                RSpace(c.theta1, Product(b1_low, brho), case.E,
                       c.a, c.F, FULL),
                RRSpace(c.theta1, brho, case.E, c.b1, c.E1, c.a, c.F, FULL)))
        if k == "R_interior":
            if th == 0.0:
                return LSpace(c.theta0, brho, case.E, c.b0, c.E0, FULL)
            tmix = (1 - th) * c.theta0 + th * c.theta1
            bmix = Product(Power(c.b0, 1 - th), Power(a_b1, th))
            return ThetaSpace(tmix, Product(bmix, brho), case.E, FULL)
        if k == "R_theta0_zero":
            b0_up = NormTail(c.b0, c.E0, "upper")
            if th == 0.0:
                return Intersection((
                    ThetaSpace(0.0, Product(b0_up, brho), case.E, FULL),
                    LSpace(0.0, brho, case.E, c.b0, c.E0, FULL)))
            bmix = Product(Power(b0_up, 1 - th), Power(a_b1, th))
            return ThetaSpace(th * c.theta1, Product(bmix, brho),
                              case.E, FULL)
        # R_x0
        return ThetaSpace(th * c.theta1,
                          Product(Power(a_b1, th), brho), case.E, FULL)

    b0_up = NormTail(c.b0, c.E0, "upper")
    a_b0 = Product(c.a, b0_up)
    if th == 0.0:
        return Intersection((
            LSpace(c.theta0, Product(b0_up, brho), case.E, c.a, c.F, FULL),
            LLSpace(c.theta0, brho, case.E, c.b0, c.E0, c.a, c.F, FULL)))
    if k == "L_interior":
        if th == 1.0:
            return RSpace(c.theta1, brho, case.E, c.b1, c.E1, FULL)
        tmix = (1 - th) * c.theta0 + th * c.theta1
        bmix = Product(Power(a_b0, 1 - th), Power(c.b1, th))
        return ThetaSpace(tmix, Product(bmix, brho), case.E, FULL)
    if k == "L_theta1_one":
        b1_low = NormTail(c.b1, c.E1, "lower")
        if th == 1.0:
            return Intersection((
                ThetaSpace(1.0, Product(b1_low, brho), case.E, FULL),
                RSpace(1.0, brho, case.E, c.b1, c.E1, FULL)))
        tmix = (1 - th) * c.theta0 + th
        bmix = Product(Power(a_b0, 1 - th), Power(b1_low, th))
        return ThetaSpace(tmix, Product(bmix, brho), case.E, FULL)
    # L_x1
    tmix = (1 - th) * c.theta0 + th
    return ThetaSpace(tmix, Product(Power(a_b0, 1 - th), brho),
                      case.E, FULL)


def verify_reiteration(case: ReiterationCase, corpus=None, log2n=(9, 10),
                       max_cuts: int | None = 128) -> EquivalenceReport:
    """Compare the outer norm over (Y0, Y1) with the reduced descriptor.

    One row per (prototype, grid size), no split point.
    """
    y0, y1 = case.inner.members()
    outer = ThetaSpace(case.theta, case.b, case.E, FULL)
    target = reiterate(case)
    name = f"{case.inner.kind}:theta={case.theta:g}"
    rep = EquivalenceReport(name)
    specs = corpus_mod.resolve_corpus(corpus) if corpus else \
        corpus_mod.STANDARD
    for kk in log2n:
        n = 1 << kk
        grid = full_grid(n)
        for spec in specs:
            fstar = corpus_mod.sample(spec, grid)
            try:
                rhs = norm_in_space(k_peetre(fstar), target)
            except SvDivergenceError:
                rhs = math.inf
            if not (math.isfinite(rhs) and rhs > 0):
                rep.exclude(spec, f"reduced norm not finite/positive at n={n}")
                continue
            try:
                orc = TruncationOracle(fstar, y0, y1, max_cuts=max_cuts)
            except ValueError as e:
                rep.exclude(spec, str(e))
                continue
            lhs = norm_in_space(orc.profile(), outer)
            if not math.isfinite(lhs):
                rep.exclude(spec, f"outer norm not finite at n={n}")
                continue
            rep.add(spec, n, None, lhs, rhs)
    return rep
