"""Concrete function spaces over (0, 1) and the identity scenarios.

The spaces: grand and small Lebesgue, ultrasymmetric L_{p,b,E},
Lorentz-Zygmund L_{inf,q,beta}, generalized Gamma with double weight,
and the A / B-type spaces built on f**.  Each class norms f* by its
own recipe, its _norm method, reached through AppSpace.norm (and
norm_app), and coincides with an interpolation-space descriptor over
the couple (L1, Linf) on (0, 1), which its descriptor() method builds.

verify_identity checks those coincidences and the interpolation
formulas between the concrete spaces numerically: for every corpus
prototype it evaluates the two norm recipes and reports the spread of
their ratios.  13 of the 21 scenarios are reiterations: their lhs is
an outer space over a couple of concrete spaces, and
Scenario.reiteration is that lhs over their descriptors, which a
theorem reduces (_reiterations collects them).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .grid import (GridFunction, RiSpace, L1, L2, LINF, checked_norm,
                   edge_diverges, lebesgue_prefix, lebesgue_suffix,
                   log_norm_upper, _final, Grid)
from .sv import (SvExpr, EllPow, NormTail, Power, Product, ONE,
                 sv_log_on_grid, compose_rho, SvDivergenceError)
from .spaces import (SpaceDescriptor, ThetaSpace, LSpace, RSpace,
                     RRSpace, Intersection, EndpointX0, EndpointX1,
                     AppMember, Over, UNIT)
from .wire import Wire
from .kfun import _unstack, _check_first_sample
from .reiteration import reiterate, _pair
from .report import EquivalenceReport, _sweep


def _pp(p: float) -> float:
    """Conjugate exponent."""
    return p / (p - 1.0)


def _fss_log(grid: Grid, f: np.ndarray) -> np.ndarray:
    """log f**(t) = log( K(t)/t )."""
    pref = lebesgue_prefix(f, grid)
    with np.errstate(divide="ignore"):
        return np.log(pref) - grid.x


class AppSpace(Wire):
    """A concrete space over (0, 1); written through its wire tag."""

    def validate(self) -> None:
        pass

    def norm(self, grid: Grid, f: np.ndarray) -> np.ndarray:
        """The space's own recipe, _norm, on f* sampled on a unit grid (one
        norm per row of a stack); the first sample of f* must be finite."""
        if grid.truncated("high"):
            raise ValueError("concrete spaces live on (0,1): use a unit grid")
        _check_first_sample(f)
        return self._norm(grid, f)


@dataclass(frozen=True)
class GrandLp(AppSpace, kind="grand"):
    """|| l^(-alpha/p)(t) || f* ||_{L_p(t,1)} ||_{L_inf(0,1)}."""
    p: float
    alpha: float

    def validate(self):
        # SmallLp's checks too: each message names the space's kind
        for ok, need in ((self.p > 1, "p > 1"), (self.p < math.inf, "p < inf"),
                         (self.alpha > 0, "alpha > 0")):
            if not ok:
                raise ValueError(f"{self._kind} space needs {need}")

    def descriptor(self) -> SpaceDescriptor:
        return RSpace(1.0 - 1.0 / self.p, EllPow(-self.alpha / self.p), LINF,
                      ONE, RiSpace(self.p), UNIT)

    def _norm(self, grid, f):
        suf = lebesgue_suffix(f ** self.p, grid)
        with np.errstate(divide="ignore"):
            lw = sv_log_on_grid(EllPow(-self.alpha / self.p), grid) \
                + np.log(suf) / self.p
        return _final(np.max(lw, axis=-1))


@dataclass(frozen=True)
class SmallLp(AppSpace, kind="small"):
    """|| l^(alpha/p'-1)(t) || f* ||_{L_p(0,t)} ||_{L~1(0,1)}."""
    p: float
    alpha: float

    validate = GrandLp.validate

    def descriptor(self) -> SpaceDescriptor:
        b = EllPow(self.alpha / _pp(self.p) - 1.0)
        return LSpace(1.0 - 1.0 / self.p, b, L1, ONE, RiSpace(self.p), UNIT)

    def _norm(self, grid, f):
        pref = lebesgue_prefix(f ** self.p, grid)
        with np.errstate(divide="ignore"):
            inner = np.log(pref) / self.p
        lw = sv_log_on_grid(EllPow(self.alpha / _pp(self.p) - 1.0),
                            grid) + inner
        return np.where(np.isfinite(pref).all(axis=-1),
                        checked_norm(lw, 1.0, grid), math.inf)


@dataclass(frozen=True)
class UltraLp(AppSpace, kind="ultra"):
    """|| t^(1/p) b(t) f*(t) ||_{E~(0,1)}."""
    p: float
    b: SvExpr
    E: RiSpace

    def validate(self):
        if not self.p >= 1:
            raise ValueError("ultrasymmetric space needs p >= 1")

    def descriptor(self) -> SpaceDescriptor:
        return ThetaSpace(1.0 - 1.0 / self.p, self.b, self.E, UNIT)

    def _norm(self, grid, f):
        try:
            with np.errstate(divide="ignore"):
                lw = grid.x / self.p + sv_log_on_grid(self.b, grid) \
                    + np.log(f)
        except SvDivergenceError:
            return np.full(f.shape[:-1], math.inf)
        return checked_norm(lw, self.E.q, grid)


@dataclass(frozen=True)
class LinfQBeta(AppSpace, kind="linfq"):
    """|| l^beta(t) f*(t) ||_{L~q(0,1)} (beta + 1/q < 0, or q=inf, beta<=0)."""
    q: float
    beta: float

    def validate(self):
        if not self.q >= 1:
            raise ValueError(f"q must be in [1, inf], got {self.q}")
        if math.isinf(self.q):
            if self.beta > 0:
                raise ValueError("needs beta <= 0 when q = inf")
        elif not self.beta + 1.0 / self.q < 0:
            raise ValueError("needs beta + 1/q < 0")

    def descriptor(self) -> SpaceDescriptor:
        return ThetaSpace(1.0, EllPow(self.beta), RiSpace(self.q), UNIT)

    def _norm(self, grid, f):
        with np.errstate(divide="ignore"):
            lw = sv_log_on_grid(EllPow(self.beta), grid) + np.log(f)
        return checked_norm(lw, self.q, grid)


@dataclass(frozen=True)
class GGamma(AppSpace, kind="ggamma"):
    """Generalized Gamma with double weight.

    Weights are w_i(u) = u^pow_i * sv_i(u); the identification with an
    L-space descriptor needs u*w1(u) and w2 slowly varying, i.e.
    w1pow = -1 and w2pow = 0.
    """
    p: float
    q: float
    w1pow: float
    w1sv: SvExpr
    w2pow: float
    w2sv: SvExpr

    def validate(self):
        if not (self.p >= 1 and 1 <= self.q and not math.isinf(self.q)):
            raise ValueError("GGamma needs 1 <= p, q < inf")
        if math.isinf(self.p):
            raise ValueError("GGamma needs p < inf")

    def descriptor(self) -> SpaceDescriptor:
        if self.w1pow != -1.0 or self.w2pow != 0.0:
            raise ValueError("descriptor form needs u*w1 and w2 slowly "
                             "varying")
        return LSpace(1.0 - 1.0 / self.p, Power(self.w1sv, 1.0 / self.q),
                      RiSpace(self.q), Power(self.w2sv, 1.0 / self.p),
                      RiSpace(self.p), UNIT)

    def _norm(self, grid, f):
        x = grid.x
        w2 = np.exp(self.w2pow * x + sv_log_on_grid(self.w2sv, grid))
        inner = lebesgue_prefix(w2 * f ** self.p, grid)
        ok = np.isfinite(inner).all(axis=-1)
        # rows outside the space drop out before the outer integral
        inner = np.where(ok[..., None], inner, 0.0)
        w1 = np.exp(self.w1pow * x + sv_log_on_grid(self.w1sv, grid))
        total = lebesgue_prefix(w1 * inner ** (self.q / self.p), grid)
        vals = [v ** (1.0 / self.q) if math.isfinite(v) else math.inf
                for v in total[..., -1].ravel().tolist()]
        return np.where(ok, np.reshape(vals, ok.shape), math.inf)


@dataclass(frozen=True)
class AType(AppSpace, kind="atype"):
    """|| l^(alpha-1)(t) int_t^1 s^(1/p) f**(s) ds/s ||_{E~(0,1)}."""
    p: float
    alpha: float
    E: RiSpace

    def validate(self):
        if not self.p >= 1:
            raise ValueError("A-type space needs p >= 1")
        if not self.alpha < 1:
            raise ValueError("A-type space needs alpha < 1")
        # l^(alpha-1) must lie in E~ near 0
        q = self.E.q
        if math.isinf(q):
            ok = self.alpha - 1 <= 0
        else:
            ok = (self.alpha - 1) * q < -1
        if not ok:
            raise ValueError("l^(alpha-1) not in E~(0,1)")

    def descriptor(self) -> SpaceDescriptor:
        return RSpace(1.0 - 1.0 / self.p, EllPow(self.alpha - 1.0), self.E,
                      ONE, L1, UNIT)

    def _norm(self, grid, f):
        # not checked_scan: the suffix scan runs to t = 1, a true edge,
        # but f is outside when int_0^1 s^(1/p) f** ds/s diverges at 0
        li = grid.x / self.p + _fss_log(grid, f)
        inner = log_norm_upper(li, 1.0, grid.dx)
        lw = sv_log_on_grid(EllPow(self.alpha - 1.0), grid) + inner
        return np.where(edge_diverges(li, 1.0, grid, "low"), math.inf,
                        checked_norm(lw, self.E.q, grid))


@dataclass(frozen=True)
class BType(AppSpace, kind="btype"):
    """|| sup_{0<s<t} s^(1/p) l^(alpha-1)(s) f**(s) ||_{E~(0,1)}."""
    p: float
    alpha: float
    E: RiSpace

    def validate(self):
        if not self.p >= 1:
            raise ValueError("B-type space needs p >= 1")

    def descriptor(self) -> SpaceDescriptor:
        return LSpace(1.0 - 1.0 / self.p, ONE, self.E,
                      EllPow(self.alpha - 1.0), LINF, UNIT)

    def _norm(self, grid, f):
        lss = _fss_log(grid, f)
        g = grid.x / self.p \
            + sv_log_on_grid(EllPow(self.alpha - 1.0), grid) + lss
        sup = np.maximum.accumulate(g, axis=-1)
        return checked_norm(sup, self.E.q, grid)


def norm_app(space: AppSpace, fstar: GridFunction):
    """Direct norm recipe on f*, math.inf if outside the space; for a
    (rows x n) stack, one norm per row, each what that row gives alone.
    """
    return _unstack(space.norm(fstar.grid, fstar.values))


# ---------------------------------------------------------------------
# identity scenarios
# ---------------------------------------------------------------------

@dataclass
class Scenario:
    """One numerical identity check: the norms of f in lhs and in rhs.

    An interpolation identity has an lhs over a derived couple,
    Over((Y0, Y1), outer space); a direct characterization compares two
    norm recipes on the endpoint couple.  Where a theorem reduces the
    lhs, reiteration is that lhs with each concrete member replaced by
    its descriptor; else it is None.
    """
    name: str
    corpus: tuple
    lhs: SpaceDescriptor
    rhs: SpaceDescriptor
    reiteration: Over | None = None


def _reiterations() -> dict:
    """The reiteration of each scenario a theorem covers, by name."""
    return {name: sc.reiteration for name, sc in _scenarios().items()
            if sc.reiteration}


@functools.cache
def _scenarios() -> dict:
    """The identity scenarios by name, in report order.

    13 are reiterations, each declared through reiterated.  grand(4, 1)
    and A(4, 0, L2) are R-spaces, so (X, grand) is an R_interior,
    R_theta0_zero or R_x0 couple over (0, 1) for X = L2, LlogL or L1,
    and (ultra, A) an R_interior one, also at outer theta = 0
    (b-as-limit-of-A).  small(2, 1), GGamma and B(2, 0, L2) are
    L-spaces, so (small, ultra), (GGamma, ultra) and (B, ultra) are
    L_interior couples, (small, Linf) an L_x1 one and (small,
    L_inf,2,-1) an L_theta1_one one, L_inf,q,beta being a theta = 1
    space.  Hand-written remain the four (L, R) couples neither theorem
    covers, (small, grand) at three outer thetas and (B, A), and the
    four direct characterizations (*-as-*), which compare one space with
    its own descriptor and reduce nothing.
    """
    reg = {}
    smooth = ("chi:1", "chi:0.01", "pow:4", "powlog:4,1", "log:1")
    chi_log = ("chi:1", "chi:0.1", "chi:0.01", "log:1")
    chi_pow = ("chi:1", "chi:0.01", "pow:4", "log:1")
    # bounded prototypes only: the cut family resolves them exactly,
    # while unbounded ones leave a residual floor below the grid scale
    chis = ("chi:1", "chi:0.1", "chi:0.01", "chi:0.001")
    gg = GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE)

    def put(s):
        reg[s.name] = s

    def reiterated(name, couple, rhs=None, corpus=smooth, theta=0.5, b=ONE,
                   E=L2):
        # with no concrete rhs, the rhs is the theorem's reduction
        outer = ThetaSpace(theta, b, E, UNIT)
        d = Over(tuple(y.space.descriptor() if isinstance(y, AppMember)
                       else y for y in couple), outer)
        put(Scenario(name, corpus, Over(couple, outer),
                     AppMember(rhs) if rhs else reiterate(d), d))

    # -- direct characterizations --------------------------------------
    for name, corpus, s in (
            ("ultra-as-theta",
             ("chi:0.01", "chi:0.1", "pow:4", "powlog:4,1", "log:1"),
             UltraLp(2.0, ONE, RiSpace(2.0))),
            ("grand-as-R",
             ("chi:1", "chi:0.01", "pow:4", "powlog:2,-1", "log:1"),
             GrandLp(2.0, 1.0)),
            ("small-as-L", smooth, SmallLp(2.0, 1.0)),
            ("ggamma-as-L", smooth, gg)):
        put(Scenario(name, corpus, AppMember(s), s.descriptor()))

    # -- (X, grand) family: reiteration cases ----------------------------
    p0, p1, alpha, beta = 2.0, 4.0, 1.0, 1.0
    grand, small = AppMember(GrandLp(p1, beta)), AppMember(SmallLp(p0, alpha))
    th = 0.5
    p_mid = 1.0 / ((1 - th) / p0 + th / p1)
    pa = 1.0 / (1 - th + th / p1)
    l2 = ThetaSpace(0.5, ONE, L2, UNIT)
    reiterated("small-dual-limit", (l2, grand), SmallLp(p0, alpha),
               theta=0.0, b=EllPow(-0.5), E=L1)
    # interior: (L_{p0}, grand)_{1/2,1,L2} = ultra(8/3, l^{-1/8}, L2)
    reiterated("grand-vs-ultra-interior", (l2, grand),
               UltraLp(p_mid, EllPow(-beta * th / p1), RiSpace(2.0)))
    reiterated("grand-vs-ultra-theta0", (l2, grand), theta=0.0, b=EllPow(-0.5))
    reiterated("grand-vs-ultra-theta1", (l2, grand), theta=1.0,
               b=EllPow(-1.0), E=LINF)

    # -- (small, grand) family: an (L, R) couple, derived by hand -------
    r = 2.0
    A = alpha * (1 - th) / _pp(p0) - beta * th / p1
    put(Scenario("small-grand-interior", chi_pow,
                 lhs=Over((small, grand),
                          ThetaSpace(th, ONE, RiSpace(r), UNIT)),
                 rhs=AppMember(UltraLp(p_mid, EllPow(A), RiSpace(r)))))
    # theta = 0: intersection; the second member is an L-space over the
    # derived couple (L_{p0}, grand), evaluated through its own oracle.
    put(Scenario("small-grand-theta0", chi_pow,
                 lhs=Over((small, grand),
                          ThetaSpace(0.0, ONE, RiSpace(r), UNIT)),
                 rhs=Intersection((
                     LSpace(1.0 - 1.0 / p0, EllPow(alpha / _pp(p0)),
                            RiSpace(r), ONE, RiSpace(p0), UNIT),
                     Over((UltraLp(p0, ONE, RiSpace(p0)).descriptor(), grand),
                          LSpace(0.0, ONE, RiSpace(r),
                                 EllPow(alpha / _pp(p0) - 1.0), L1,
                                 UNIT))))))
    # rho(u) = u^(1/p0 - 1/p1) l^(alpha/p0' + beta/p1)
    b_t1 = EllPow(-1.0)
    brho_sg = compose_rho(b_t1, 1.0 / p0 - 1.0 / p1,
                          EllPow(alpha / _pp(p0) + beta / p1))
    put(Scenario("small-grand-theta1", chi_pow,
                 lhs=Over((small, grand), ThetaSpace(1.0, b_t1, LINF, UNIT)),
                 rhs=Intersection((
                     RSpace(1.0 - 1.0 / p1,
                            Product(EllPow(-beta / p1), brho_sg), LINF,
                            ONE, RiSpace(p1), UNIT),
                     RRSpace(1.0 - 1.0 / p1, brho_sg, LINF,
                             EllPow(-beta / p1), LINF, ONE, RiSpace(p1),
                             UNIT)))))

    # -- (LlogL, grand) and (L1, grand): reiteration cases ---------------
    reiterated("llogl-grand", (ThetaSpace(0.0, ONE, L1, UNIT), grand),
               UltraLp(pa, EllPow(1 - th - beta * th / p1), RiSpace(2.0)))
    reiterated("l1-grand", (EndpointX0(UNIT), grand),
               UltraLp(pa, EllPow(-beta * th / p1), RiSpace(2.0)))

    # -- (small, *) family: ultra, linfq and linf ------------------------
    ultra = UltraLp(4.0, ONE, RiSpace(4.0)).descriptor()
    reiterated("small-ultra", (small, ultra),
               UltraLp(p_mid, EllPow(alpha * (1 - th) / _pp(p0)),
                       RiSpace(2.0)), chi_log)
    p_lz, q1, beta_lz = p0 / (1 - th), 2.0, -1.0
    reiterated("small-linfq", (small, AppMember(LinfQBeta(q1, beta_lz))),
               UltraLp(p_lz, EllPow((1 - th) * alpha / _pp(p0)
                                    + th * (beta_lz + 1.0 / q1)),
                       RiSpace(2.0)), chis)
    reiterated("small-linf", (small, EndpointX1(UNIT)),
               UltraLp(p_lz, EllPow(alpha * (1 - th) / _pp(p0)),
                       RiSpace(2.0)), chis)

    # -- generalized Gamma: a reiteration case ---------------------------
    tailw1 = NormTail(Power(EllPow(-3.0), 0.5), RiSpace(2.0), "upper")
    reiterated("ggamma-ultra", (AppMember(gg), ultra),
               UltraLp(p_mid, Power(tailw1, 1 - th), RiSpace(2.0)), chi_log)

    # -- A and B-type: reiteration cases ---------------------------------
    at = AppMember(AType(4.0, 0.0, RiSpace(2.0)))
    bt = AppMember(BType(2.0, 0.0, RiSpace(2.0)))
    tail_a = NormTail(EllPow(-1.0), RiSpace(2.0), "lower")
    reiterated("a-type-ultra", (l2, at),
               UltraLp(p_mid, Power(tail_a, th), RiSpace(2.0)), chis)
    # B_theta = (l^(alpha-1) * phi_E0(l))^{1-theta} b1^theta: with
    # alpha = 0, E0 = L2 this is l^{-1} * l^{1/2} = l^{-1/2}, power 1-theta
    reiterated("b-type-ultra", (bt, ultra),
               UltraLp(p_mid, EllPow(-0.5 * (1 - th)), RiSpace(2.0)),
               chi_log)
    reiterated("b-as-limit-of-A",
               (UltraLp(2.0, EllPow(-1.0), LINF).descriptor(), at), bt.space,
               chi_log, theta=0.0)
    # (B, A) is an (L, R) couple, derived by hand
    put(Scenario("ultra-between-AB", chis,
                 lhs=Over((bt, at), ThetaSpace(th, ONE, RiSpace(2.0), UNIT)),
                 rhs=AppMember(UltraLp(
                     p_mid, Product(EllPow(-0.5 * (1 - th)),
                                    Power(tail_a, th)), RiSpace(2.0)))))
    return reg


def scenario_names() -> tuple:
    return tuple(_scenarios())


def get_scenario(name: str) -> Scenario:
    reg = _scenarios()
    if name not in reg:
        raise KeyError(f"unknown identity scenario {name!r}")
    return reg[name]


def verify_identity(name: str, log2n=(9, 10), corpus=None
                    ) -> EquivalenceReport:
    """Compare the two sides of one identity over the corpus.

    One row per (grid size, prototype); the report window is the spread
    of lhs/rhs ratios, i.e. the numerical equivalence constant squared.
    """
    sc = get_scenario(name)
    return _sweep(name, corpus or sc.corpus, sc.lhs.setting, log2n,
                  _pair(sc.lhs, sc.rhs, ("lhs", "rhs")))
