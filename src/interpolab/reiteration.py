"""Reduction of a second interpolation step to a single descriptor.

A reiteration is an Over((Y0, Y1), (theta, b, E)): the outer theta
space over a couple in one of the six configurations of
holmstedt.CASES.  reiterate() returns a descriptor over the endpoint
K-functional whose norm is equivalent.  Only the R cases are written
out: an L case is the R case of the reversed couple, and since
K(t; Y0, Y1) = t K(1/t; Y1, Y0) its outer space reverses too, to
(1 - theta, b(1/.), E); the reduced descriptor is then reversed back
(spaces.couple_reverse).  Both sides are in the couple's setting; a
unit L case reduces through an R case over (1, inf), never normed.

verify_reiteration measures both sides on a corpus: the Over (through
a truncation oracle) against the reduced descriptor.  It and
applications.verify_identity build their rows with one _pair and
sweep them with report._sweep.
"""

from __future__ import annotations

import math

from .sv import Power, Product, NormTail, compose_rho
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace, RRSpace,
                     Intersection, Over, couple_reverse)
from .holmstedt import HolmstedtCase, L_CASES
from .kfun import k_peetre, norm_in_space
from .report import EquivalenceReport, _sweep


def reiterate(d: Over) -> SpaceDescriptor:
    """Descriptor over the endpoint couple equivalent to d, an outer
    theta space over a case's couple."""
    c = HolmstedtCase(*d.couple)
    out = d.desc
    if not isinstance(out, ThetaSpace):
        raise ValueError("reiterate needs an outer theta space")
    if c.kind in L_CASES:
        rev = c._reversed()
        return couple_reverse(reiterate(
            Over((rev.y0, rev.y1), couple_reverse(out))))
    y0, y1 = c.y0, c.y1
    th, E, s = out.theta, out.E, c.setting
    gamma, rho_sv = c.rho_params()
    brho = compose_rho(out.b, gamma, rho_sv)
    b1_low = NormTail(y1.b, y1.E, "lower")
    a_b1 = Product(y1.a, b1_low)
    if th == 1.0:
        return Intersection((
            RSpace(y1.theta, Product(b1_low, brho), E, y1.a, y1.F, s),
            RRSpace(y1.theta, brho, E, y1.b, y1.E, y1.a, y1.F, s)))
    if c.kind == "R_interior":
        if th == 0.0:
            return LSpace(y0.theta, brho, E, y0.b, y0.E, s)
        tmix = (1 - th) * y0.theta + th * y1.theta
        bmix = Product(Power(y0.b, 1 - th), Power(a_b1, th))
        return ThetaSpace(tmix, Product(bmix, brho), E, s)
    if c.kind == "R_theta0_zero":
        b0_up = NormTail(y0.b, y0.E, "upper")
        if th == 0.0:
            return Intersection((
                ThetaSpace(0.0, Product(b0_up, brho), E, s),
                LSpace(0.0, brho, E, y0.b, y0.E, s)))
        bmix = Product(Power(b0_up, 1 - th), Power(a_b1, th))
        return ThetaSpace(th * y1.theta, Product(bmix, brho), E, s)
    # R_x0
    return ThetaSpace(th * y1.theta, Product(Power(a_b1, th), brho), E, s)


def _pair(lhs: SpaceDescriptor, rhs: SpaceDescriptor, sides: tuple):
    """rows for report._sweep: one row per f*, the norms of f in lhs
    and rhs, both from K(., f; X0, X1).  f is excluded when its rhs
    norm is not finite and positive, or its lhs norm is not finite;
    sides names the two in the reason.  An f* whose K cannot be formed
    is excluded with k_peetre's reason."""
    def rows(fstar):
        try:
            K = k_peetre(fstar)
        except ValueError as e:
            return str(e)
        n = fstar.grid.n
        r = norm_in_space(K, rhs)
        if not (math.isfinite(r) and r > 0):
            return f"{sides[1]} norm not finite/positive at n={n}"
        v = norm_in_space(K, lhs)
        if not math.isfinite(v):
            return f"{sides[0]} norm not finite at n={n}"
        return None, [v], [r]
    return rows


def verify_reiteration(d: Over, corpus=None, log2n=(9, 10)
                       ) -> EquivalenceReport:
    """Compare the outer norm d over (Y0, Y1) with the reduced descriptor.

    One row per (grid size, prototype), no split point, in d's setting.
    """
    kind = HolmstedtCase(*d.couple).kind
    return _sweep(f"{kind}:theta={d.desc.theta:g}", corpus, d.setting,
                  log2n, _pair(d, reiterate(d), ("outer", "reduced")))
