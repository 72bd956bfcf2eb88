"""Shared helpers for the test suite, and the functions only tests call:
the reversed Peetre profile, the slow-variation check, the oracle's K
over all its pairs, couple reversal, and the configuration of a couple,
the split formula's rho and the reduction of a reiteration through the
reversed couple."""

from dataclasses import dataclass, fields
import math

import numpy as np

from interpolab.applications import (GrandLp, SmallLp, UltraLp, LinfQBeta,
                                     GGamma, AType, BType)
from interpolab.grid import Grid, L1, L2
from interpolab.holmstedt import CASES, HolmstedtCase
from interpolab.kfun import KProfile
from interpolab.reiteration import reiterate
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, LLSpace, RRSpace, Intersection, Over)
from interpolab.sv import (ONE, Const, EllPow, BrokenEll, IteratedEll,
                           ExpLogPow, Product, Power, InverseArg, NormTail,
                           ComposeWithRho, SvExpr, inverse_arg, sv_log_eval,
                           sv_log_on_grid)

# one concrete space of each kind
APP_SPACES = (GrandLp(2.0, 1.0), SmallLp(2.0, 1.0),
              UltraLp(2.0, EllPow(-0.5), L2), LinfQBeta(math.inf, -1.0),
              GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE),
              AType(4.0, 0.0, L2), BType(2.0, 0.0, L2))

# one weight of each kind, a tail norm of each side and a composition
# with rho through a tail norm inside and outside; every tail is finite
# on full and unit grids
_LOWER = NormTail(EllPow(-2.0), L1, "lower")
_UPPER = NormTail(EllPow(-2.0), L2, "upper")
SV_WEIGHTS = {
    "const": Const(2.0), "ell": EllPow(-0.5),
    "broken_ell": BrokenEll(-1.0, 0.5), "iterated_ell": IteratedEll(2, 1.0),
    "exp_log_pow": ExpLogPow(0.5),
    "product": Product(EllPow(0.5), BrokenEll(1.0, -1.0)),
    "power": Power(BrokenEll(0.5, -1.0), -3.0),
    "norm_tail-lower": _LOWER, "norm_tail-upper": _UPPER,
    "compose_rho-tail-inner": ComposeWithRho(EllPow(-1.0), 0.5, _LOWER),
    "compose_rho-tail-outer": ComposeWithRho(_UPPER, 0.5, EllPow(0.5)),
    "inverse_arg": InverseArg(BrokenEll(1.0, -1.0)),
}


def window(ratios):
    """max/min spread of a collection of positive finite ratios."""
    r = [v for v in ratios if math.isfinite(v) and v > 0]
    if not r:
        return math.inf
    return max(r) / min(r)


def rel_err(a, b):
    return abs(a - b) / abs(b)


def interior_ratio_window(lhs, rhs, grid, frac=0.05):
    """Spread of lhs/rhs over the grid interior, ignoring bad nodes."""
    sl = grid.interior(frac)
    a = np.asarray(lhs, float)[sl]
    b = np.asarray(rhs, float)[sl]
    m = np.isfinite(a) & np.isfinite(b) & (a > 0) & (b > 0)
    if not m.any():
        return math.inf
    r = a[m] / b[m]
    return float(r.max() / r.min())


def mirror(g):
    """The grid of t -> 1/t in the reversed setting, nodes exactly -x
    reversed; its memo key is its own, even where the nodes agree."""
    m = Grid(-g.x[-1], -g.x[0], g.n, g.setting.reversed())
    m.x, m.key = -g.x[::-1], m.key + ("mirror",)
    return m


def kprofile_reverse(K):
    """K(t; X1, X0) = t K(1/t; X0, X1), on the mirror grid."""
    g = mirror(K.grid)
    return KProfile(g, g.x + K.logk[..., ::-1], None)


_MIRROR = {EndpointX0: EndpointX1, ThetaSpace: ThetaSpace, LSpace: RSpace,
           LLSpace: RRSpace, Intersection: Intersection}
_MIRROR.update({v: k for k, v in _MIRROR.items()})


def couple_reverse(d):
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


def kind_by_reversal(y0, y1):
    """The configuration of (Y0, Y1) as first named, a ValueError for a
    couple in none: an L couple's is the mirror of its reversed couple's
    R case, with theta0 -> 1 - theta1 and theta1 -> 1 - theta0.  The
    rule HolmstedtCase took first."""
    if y0.setting != y1.setting:
        raise ValueError("a case's members must share one setting")
    low = isinstance(y0, LSpace)
    r0, r1 = map(couple_reverse, (y1, y0)) if low else (y0, y1)
    if not (isinstance(r1, RSpace)
            and isinstance(r0, (EndpointX0, ThetaSpace))):
        raise ValueError(f"({type(y0).__name__}, {type(y1).__name__}) "
                         "is in none of the six configurations")
    t0, t1 = r0.theta, r1.theta
    if t0 == 0:
        kind = "R_x0" if isinstance(r0, EndpointX0) else "R_theta0_zero"
        ok = t1 > 0
    else:
        kind, ok = "R_interior", t0 < t1 < 1
    if not ok:
        raise ValueError(f"{kind} needs its range (reversed couple)")
    return CASES[CASES.index(kind) + 3] if low else kind


def reversed_case(c):
    """The case over the reversed couple (X1, X0): an L case's is an R
    case and an R case's an L case, in the reversed setting."""
    return HolmstedtCase(couple_reverse(c.y1), couple_reverse(c.y0))


def rho_by_reversal(c):
    """(gamma, sv) of case c through its reversed case: rho(u) =
    1 / rho'(1/u) for the rho' of the reversed case, since K(t; Y0, Y1)
    = t K(1/t; Y1, Y0).  The route the L cases took first."""
    gamma, sv = reversed_case(c).rho_params()
    return gamma, Power(inverse_arg(sv), -1.0)


def reiterate_by_reversal(d):
    """reiterate(d) through the reversed couple: the outer space
    reverses to (1 - theta, b(1/.), E), and the reduced descriptor back.
    The route the L cases took first."""
    rev = reversed_case(HolmstedtCase(*d.couple))
    return couple_reverse(reiterate(
        Over((rev.y0, rev.y1), couple_reverse(d.desc))))


def k_all_pairs(A, B, tvals):
    """min_c (A_c + t B_c) over every pair (A_c, B_c) at each t: the
    truncation oracle's k_at as first written, a (points x pairs)
    array, the reference for its walk along the lower envelope."""
    tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
    return np.min(A + tvals[:, None] * B, axis=1)


def k_log_all_pairs(A, B, xvals):
    """log K at x = log t over every pair: k_at_log as first written."""
    xvals = np.atleast_1d(np.asarray(xvals, dtype=float))
    with np.errstate(divide="ignore"):
        la = np.log(A[None, :])
        lb = np.log(B[None, :])
    return np.min(np.logaddexp(la, xvals[:, None] + lb), axis=1)


def sv_eval(expr, t, grid=None):
    """b(t) in the linear domain, for t inside float range."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(sv_log_eval(expr, np.log(t), grid))


@dataclass
class SvCheckReport:
    eps: float
    c_up: float      # t^eps b(t) is within factor c_up of nondecreasing
    c_down: float    # t^-eps b(t) within factor c_down of nonincreasing
    passed: bool


def sv_verify(expr, eps=0.25, grid=None, tol=50.0) -> SvCheckReport:
    """Check b is slowly varying: t^eps b quasi-increasing, t^-eps b
    quasi-decreasing, with quasi-monotonicity constants below tol.

    The constants depend on eps and on the weight (for l^alpha the dip
    behaves like (alpha/eps)^alpha), so the default tolerance is loose;
    what matters is that they are finite and stable.  Constants are
    measured on the grid interior (5% of nodes dropped at each end,
    where truncation artifacts of embedded tail norms live).
    """
    if grid is None:
        grid = Grid.from_bounds(1e-8, 1e8, 4097)
    lb = sv_log_on_grid(expr, grid)
    sl = grid.interior()
    x = grid.x[sl]
    w_up = eps * x + lb[sl]
    w_dn = -eps * x + lb[sl]
    # how far w_up dips below its running max (quasi-increase defect)
    c_up = float(np.exp(np.max(np.maximum.accumulate(w_up) - w_up)))
    c_dn = float(np.exp(np.max(w_dn - np.minimum.accumulate(w_dn))))
    return SvCheckReport(eps, c_up, c_dn, passed=(c_up <= tol and c_dn <= tol))
