"""Reduction of a second interpolation step to a single descriptor.

A reiteration is an Over((Y0, Y1), (theta, b, E)): the outer theta
space over a couple in one of the six configurations of
holmstedt.CASES.  reiterate() returns a descriptor over the endpoint
K-functional whose norm is equivalent, in the couple's setting, reading
each member by its own kind and place as the split formula does.

verify_reiteration measures both sides on a corpus: the Over (through
a truncation oracle) against the reduced descriptor.  It and
applications.verify_identity build their rows with one _pair and
sweep them with report._sweep.
"""

from __future__ import annotations

import functools
import math

from .sv import Power, Product, NormTail, compose_rho
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace, LLSpace,
                     RRSpace, Intersection, Over)
from .holmstedt import HolmstedtCase
from .kfun import k_peetre, norm_in_space
from .report import EquivalenceReport, _sweep


def reiterate(d: Over) -> SpaceDescriptor:
    """Descriptor over the endpoint couple equivalent to d, an outer
    theta space over a case's couple.  With N, D the factors of rho
    (HolmstedtCase.factors) and b o rho the outer weight composed with
    rho, theta in (0, 1), or at the end of X0 or X1, gives theta((1 -
    theta) theta0 + theta theta1, N^(1-theta) D^theta b o rho, E).  At
    the end of the L or R member it gives that member's one- and
    two-level spaces intersected, L and LL at 0, R and RR at 1; at the
    end of the theta member, an L (at 0) or R (at 1) space over its
    (b, E), and where the member sits at that theta, that space
    intersected with theta(theta, ||b||_{E~} b o rho, E)."""
    c = HolmstedtCase(*d.couple)
    out = d.desc
    if not isinstance(out, ThetaSpace):
        raise ValueError("reiterate needs an outer theta space")
    th, E, s = out.theta, out.E, c.setting
    brho = compose_rho(out.b, *c.rho_params())
    # at theta 0 (1): Y0 (Y1), the side of its tail norm in rho, and the
    # one- and two-level spaces of that end
    y, side, one, two = ((c.y0, "upper", LSpace, LLSpace) if th == 0.0
                         else (c.y1, "lower", RSpace, RRSpace))
    if th in (0.0, 1.0) and isinstance(y, (ThetaSpace, LSpace, RSpace)):
        w = Product(NormTail(y.b, y.E, side), brho)
        if isinstance(y, ThetaSpace):
            single = one(y.theta, brho, E, y.b, y.E, s)
            return single if y.theta != th else Intersection((
                ThetaSpace(y.theta, w, E, s), single))
        return Intersection((one(y.theta, w, E, y.a, y.F, s),
                             two(y.theta, brho, E, y.b, y.E, y.a, y.F, s)))
    # a factor to the power 0 is 1, also where its tail is 0 at the edge
    mix = [Power(f, r) for f, r in zip(c.factors(), (1 - th, th)) if f and r]
    return ThetaSpace((1 - th) * c.y0.theta + th * c.y1.theta,
                      functools.reduce(Product, [*mix, brho]), E, s)


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
