"""Reduction of a second interpolation step to a single descriptor.

Given a couple (Y0, Y1) in one of the six configurations of
holmstedt.CASES and an outer space (theta, b, E) applied to
K(., f; Y0, Y1), reiterate() returns a descriptor over the original
endpoint K-functional whose norm is equivalent.  Only the R cases are
written out: an L case is the R case of the reversed couple
(HolmstedtCase._reversed), and since K(t; Y0, Y1) = t K(1/t; Y1, Y0)
its outer space (theta, b, E) is (1 - theta, b(1/.), E) there; the
reduced descriptor is then reversed back (spaces.couple_reverse).
Both sides are in the inner case's setting.

verify_reiteration measures both sides on a corpus: the outer space
over the member couple (a spaces.Over, through a truncation oracle)
against the reduced descriptor.  verify_identity shares its row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .grid import RiSpace, full_grid, unit_grid
from .sv import SvExpr, ONE, Power, Product, NormTail, compose_rho, inverse_arg
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace, RRSpace,
                     Intersection, Over, UNIT, couple_reverse)
from .holmstedt import HolmstedtCase, L_CASES
from .kfun import k_peetre, norm_in_space
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

    def outer_space(self) -> ThetaSpace:
        """(theta, b, E), the space applied to K(., f; Y0, Y1)."""
        return ThetaSpace(self.theta, self.b, self.E, self.inner.setting)


def reiterate(case: ReiterationCase) -> SpaceDescriptor:
    """Descriptor over the endpoint couple equivalent to the outer space."""
    c = case.inner
    th = case.theta
    s = c.setting
    if c.kind in L_CASES:
        rev = ReiterationCase(c._reversed(), 1.0 - th, inverse_arg(case.b),
                              case.E)
        return couple_reverse(reiterate(rev))
    gamma, rho_sv = c.rho_params()
    brho = compose_rho(case.b, gamma, rho_sv)
    b1_low = NormTail(c.b1, c.E1, "lower")
    a_b1 = Product(c.a, b1_low)
    if th == 1.0:
        return Intersection((
            RSpace(c.theta1, Product(b1_low, brho), case.E, c.a, c.F, s),
            RRSpace(c.theta1, brho, case.E, c.b1, c.E1, c.a, c.F, s)))
    if c.kind == "R_interior":
        if th == 0.0:
            return LSpace(c.theta0, brho, case.E, c.b0, c.E0, s)
        tmix = (1 - th) * c.theta0 + th * c.theta1
        bmix = Product(Power(c.b0, 1 - th), Power(a_b1, th))
        return ThetaSpace(tmix, Product(bmix, brho), case.E, s)
    if c.kind == "R_theta0_zero":
        b0_up = NormTail(c.b0, c.E0, "upper")
        if th == 0.0:
            return Intersection((
                ThetaSpace(0.0, Product(b0_up, brho), case.E, s),
                LSpace(0.0, brho, case.E, c.b0, c.E0, s)))
        bmix = Product(Power(b0_up, 1 - th), Power(a_b1, th))
        return ThetaSpace(th * c.theta1, Product(bmix, brho), case.E, s)
    # R_x0
    return ThetaSpace(th * c.theta1, Product(Power(a_b1, th), brho),
                      case.E, s)


def _sweep(rep: EquivalenceReport, corpus, make_grid, log2n,
           lhs: SpaceDescriptor, rhs: SpaceDescriptor, sides: tuple
           ) -> EquivalenceReport:
    """One row per (grid size, prototype): the norms of f in lhs and rhs.

    Both come from K(., f; X0, X1) on make_grid(n).  A prototype is
    excluded when its rhs norm is not finite and positive, or its lhs
    norm is not finite; sides names the two in the reason.
    """
    for k in log2n:
        grid = make_grid(1 << k)
        n = grid.n
        for spec in corpus_mod.resolve_corpus(corpus):
            K = k_peetre(corpus_mod.sample(spec, grid))
            r = norm_in_space(K, rhs)
            if not (math.isfinite(r) and r > 0):
                rep.exclude(spec, f"{sides[1]} norm not finite/positive "
                            f"at n={n}")
                continue
            v = norm_in_space(K, lhs)
            if not math.isfinite(v):
                rep.exclude(spec, f"{sides[0]} norm not finite at n={n}")
                continue
            rep.add(spec, n, None, v, r)
    return rep


def verify_reiteration(case: ReiterationCase, corpus=None, log2n=(9, 10)
                       ) -> EquivalenceReport:
    """Compare the outer norm over (Y0, Y1) with the reduced descriptor.

    One row per (prototype, grid size), no split point.
    """
    outer = Over(case.inner.members(), case.outer_space())
    rep = EquivalenceReport(f"{case.inner.kind}:theta={case.theta:g}")
    grid = unit_grid if case.inner.setting == UNIT else full_grid
    return _sweep(rep, corpus or corpus_mod.STANDARD, grid, log2n,
                  outer, reiterate(case), ("outer", "reduced"))
