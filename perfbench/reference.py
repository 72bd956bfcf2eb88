"""Reference norms for the `norm-fine` workload, computed without interpolab.

Every prototype used by the workload has a closed-form K-functional for
the couple (L1, Linf) (incomplete gamma functions), so each descriptor
norm reduces to one-dimensional integrals over x = log t on the whole
line, not on a truncated grid:

* theta spaces: scipy quadrature on (-inf, 0] plus the exact tail on
  [0, inf), where K is constant (every prototype vanishes for t > 1);
* nested prefix/suffix norms (L, R, LL, RR, grand, small): the chain of
  running integrals is integrated as an ODE system in log form with a
  tight tolerance, started inside the exponentially small tail, and a
  sup-type outer norm is maximised on the dense solution.

Run as a script it fills a JSON cache of reference values:

    python3 perfbench/reference.py REQUESTS.json CACHE.json

REQUESTS.json is a list of [key, descriptor object, function spec].
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy import integrate, optimize, special
import mpmath

INF = math.inf
X_FAR = 120.0        # start of a chain inside the exponentially small tail
RTOL = 1e-11


# ---------------------------------------------------------------------
# prototypes: log f*(x) and log K(x) with x = log t
# ---------------------------------------------------------------------

class Proto:
    """Closed forms for one corpus prototype on (0, 1)."""

    def __init__(self, spec: str):
        kind, _, arg = spec.partition(":")
        self.spec = spec
        if kind == "chi":
            self.la = math.log(float(arg))
            self.r, self.m = INF, 0.0
        elif kind == "pow":
            self.la, self.r, self.m = 0.0, float(arg), 0.0
        elif kind == "log":
            self.la, self.r, self.m = 0.0, INF, float(arg)
        elif kind == "powlog":
            r, m = arg.split(",")
            self.la, self.r, self.m = 0.0, float(r), float(m)
            if self.m < 0:
                raise ValueError("reference needs m >= 0 (no repair)")
        else:
            raise ValueError(f"no closed form for {spec!r}")
        self.kind = kind
        self.c = 1.0 - (0.0 if math.isinf(self.r) else 1.0 / self.r)
        self.logk_inf = float(self._logk_scalar(min(self.la, 0.0)))

    @property
    def breakpoints(self):
        return sorted({self.la, 0.0})

    def logf(self, x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            if self.kind == "chi":
                return np.where(x <= self.la, 0.0, -np.inf)
            v = -(1.0 - self.c) * x + self.m * np.log1p(np.abs(x))
            return np.where(x <= 0, v, -np.inf)

    def _logk_scalar(self, x):
        if self.kind == "chi":
            return min(x, self.la)
        x = min(x, 0.0)
        c, m = self.c, self.m
        if m == 0.0:
            return c * x - math.log(c)
        # int_{-inf}^x e^{c y} (1 - y)^m dy = e^c c^-(m+1) Gamma(m+1, c(1-x))
        z = c * (1.0 - x)
        lg = float(special.gammaincc(m + 1.0, z))
        if lg > 1e-280:
            lgam = math.log(lg) + special.gammaln(m + 1.0)
        else:
            lgam = float(mpmath.log(mpmath.gammainc(m + 1.0, z)))
        return c - (m + 1.0) * math.log(c) + lgam

    def logk(self, x):
        x = np.asarray(x, float)
        if self.kind == "chi":
            return np.minimum(x, self.la)
        if self.m == 0.0:
            return self.c * np.minimum(x, 0.0) - math.log(self.c)
        xs = np.minimum(x, 0.0)
        z = self.c * (1.0 - xs)
        g = special.gammaincc(self.m + 1.0, z)
        with np.errstate(divide="ignore"):
            out = (self.c - (self.m + 1.0) * math.log(self.c)
                   + special.gammaln(self.m + 1.0) + np.log(g))
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.array(out, float)
            for i in np.flatnonzero(bad):
                out.flat[i] = self._logk_scalar(float(xs.flat[i]))
        return out

    def sup_f(self) -> float:
        return 1.0 if self.kind == "chi" else INF


# ---------------------------------------------------------------------
# weights and exponents
# ---------------------------------------------------------------------

def _q(o) -> float:
    return INF if o["q"] == "inf" else float(o["q"])


def _weight(o):
    """(log w(x), d/dx log w(x)) for the weight kinds the workload uses."""
    if o["kind"] == "const":
        lc = math.log(float(o["c"]))
        return (lambda x: np.full(np.shape(x), lc)), (lambda x: 0.0 * x)
    if o["kind"] == "ell":
        a = float(o["alpha"])
        return (lambda x: a * np.log1p(np.abs(x)),
                lambda x: a * np.sign(x) / (1.0 + np.abs(x)))
    raise ValueError(f"reference has no weight kind {o['kind']!r}")


# ---------------------------------------------------------------------
# theta spaces: quadrature plus the exact tail beyond t = 1
# ---------------------------------------------------------------------

def _theta_tail(theta, beta, q, logk_inf):
    """log of the norm piece over x >= 0, where K = K(inf).

    Returns (value, kind): kind 'int' gives log int_0^inf (...)^q dx,
    kind 'sup' gives log sup_{x>=0} (...); +inf when divergent.
    """
    if math.isinf(q):
        if theta == 0.0:
            return (INF if beta > 0 else logk_inf), "sup"
        xs = max(0.0, beta / theta - 1.0)
        return -theta * xs + beta * math.log1p(xs) + logk_inf, "sup"
    a = q * beta + 1.0
    if theta == 0.0:
        if a >= 0:
            return INF, "int"
        return q * logk_inf + math.log(-1.0 / a), "int"
    z = q * theta
    val = mpmath.e ** z * z ** (-a) * mpmath.gammainc(a, z)
    return q * logk_inf + float(mpmath.log(val)), "int"


def theta_norm(theta, bobj, q, proto, full):
    lb, _ = _weight(bobj)
    if bobj["kind"] == "ell":
        beta = float(bobj["alpha"])
        lconst = 0.0
    else:
        beta, lconst = 0.0, math.log(float(bobj["c"]))

    def lw(x):
        return -theta * x + lb(x) + proto.logk(x)

    pts = [p for p in proto.breakpoints if p < 0] + [0.0]
    if math.isinf(q):
        best = -INF
        lo = -X_FAR
        for hi in pts:
            xs = np.linspace(lo, hi, 4001)
            vals = lw(xs)
            i = int(np.argmax(vals))
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            res = optimize.minimize_scalar(lambda z: -float(lw(z)),
                                           bounds=(a, b), method="bounded",
                                           options={"xatol": 1e-12})
            best = max(best, float(vals[i]), -float(res.fun))
            lo = hi
        if full:
            tail, _ = _theta_tail(theta, beta, q, proto.logk_inf)
            best = max(best, tail + lconst)
        return math.exp(best) if best < 700 else INF

    # scale by the peak so quad works on O(1) values
    xs = np.linspace(-X_FAR, 0.0, 20001)
    qlw = q * lw(xs)
    peak = float(np.max(qlw))
    xpeak = float(xs[int(np.argmax(qlw))])
    total = 0.0
    lo = -X_FAR
    for hi in pts:
        inner = [z for z in (xpeak - 5.0, xpeak, xpeak + 5.0) if lo < z < hi]
        v, _ = integrate.quad(lambda z: math.exp(q * float(lw(z)) - peak),
                              lo, hi, epsabs=0.0, epsrel=1e-12, limit=400,
                              points=inner or None)
        total += v
        lo = hi
    if full:
        tail, _ = _theta_tail(theta, beta, q, proto.logk_inf)
        if math.isinf(tail):
            return INF
        total += math.exp(tail + q * lconst - peak)
    return math.exp((math.log(total) + peak) / q)


# ---------------------------------------------------------------------
# nested running norms: ODE chains in log form
# ---------------------------------------------------------------------

class Chain:
    """S_i(x) = int over the running side of exp(q_i g_{i-1}), with
    g_0 = h0 and g_i = w_i + log(S_i) / q_i; the outer norm (q_out, w_out)
    is taken over the whole domain [lo, hi].

    side 'lower' integrates from lo up, 'upper' from hi down.  All inner
    q_i are finite.
    """

    def __init__(self, h0, dh0, levels, w_out, q_out, side, lo, hi,
                 breakpoints, hi_is_edge):
        self.h0, self.dh0 = h0, dh0
        self.levels = levels            # [(q, (w, dw)), ...]; first w unused
        self.w_out = w_out
        self.q_out = q_out
        self.side = side
        self.lo, self.hi = lo, hi
        self.bps = [b for b in sorted(set(breakpoints)) if lo < b < hi]
        self.hi_is_edge = hi_is_edge

    def _g(self, i, x, L):
        """g_i at x given log-states L (i = 0 is h0)."""
        if i == 0:
            return self.h0(x)
        q = self.levels[i - 1][0]
        w = self.levels[i][1][0] if i < len(self.levels) else self.w_out[0]
        return w(x) + L[i - 1] / q

    def _rhs(self, x, L):
        sgn = 1.0 if self.side == "lower" else -1.0
        out = np.empty_like(L)
        for i, (q, _) in enumerate(self.levels):
            with np.errstate(over="ignore", invalid="ignore"):
                out[i] = sgn * np.exp(q * self._g(i, x, L) - L[i])
        if self.q_out is not None:
            j = len(self.levels)
            with np.errstate(over="ignore", invalid="ignore"):
                out[j] = sgn * np.exp(self.q_out * self._g(j, x, L) - L[j])
        return np.nan_to_num(out, nan=0.0, posinf=1e300)

    def _all_q(self):
        qs = [q for q, _ in self.levels]
        if self.q_out is not None:
            qs.append(self.q_out)
        return qs

    def _start(self):
        """Start point and log-states from the local tail model."""
        qs = self._all_q()
        L = np.empty(len(qs))
        if self.side == "lower" or not self.hi_is_edge:
            # exponential tail: S_i ~ exp(q_i g_{i-1}) / |rate_i|
            x0 = self.lo if self.side == "lower" else self.hi
            sgn = 1.0 if self.side == "lower" else -1.0
            dg = float(self.dh0(x0))
            for i, q in enumerate(qs):
                g = float(self._g(i, x0, L))
                rate = abs(q * dg)
                L[i] = q * g - math.log(rate)
                if i + 1 < len(qs):
                    w_d = (self.levels[i + 1][1][1] if i + 1 < len(self.levels)
                           else self.w_out[1])
                    dg = float(w_d(x0)) + sgn * rate / q
            return x0, L
        # upper chain at a genuine edge: S_i ~ C_i delta^{p_i}
        delta = 1e-9
        x0 = self.hi - delta
        lc, p, qprev = 0.0, 0.0, None
        for i, q in enumerate(qs):
            if i == 0:
                lc, p = q * float(self.h0(self.hi - 1e-15)), 1.0
            else:
                w = (self.levels[i][1][0] if i < len(self.levels)
                     else self.w_out[0])
                p_new = p * q / qprev + 1.0
                lc = q * float(w(self.hi)) + lc * q / qprev - math.log(p_new)
                p = p_new
            L[i] = lc + p * math.log(delta)
            qprev = q
        return x0, L

    def solve(self):
        x0, L = self._start()
        if self.side == "lower":
            knots = [x0] + self.bps + [self.hi]
        else:
            knots = [x0] + self.bps[::-1] + [self.lo]
        sols = []
        for a, b in zip(knots[:-1], knots[1:]):
            if a == b:
                continue
            s = integrate.solve_ivp(self._rhs, (a, b), L, method="DOP853",
                                    rtol=RTOL, atol=1e-12, dense_output=True)
            if not s.success:
                raise RuntimeError(s.message)
            sols.append((min(a, b), max(a, b), s.sol))
            L = s.y[:, -1]
        self.sols = sols
        return L

    def value(self) -> float:
        L = self.solve()
        if self.q_out is not None:
            return math.exp(L[-1] / self.q_out)
        # sup of g_m over the domain, on the dense solution
        m = len(self.levels)

        def gm(x):
            for a, b, sol in self.sols:
                if a <= x <= b:
                    return float(self._g(m, x, sol(x)))
            return -INF

        best = -INF
        for a, b, sol in self.sols:
            xs = np.linspace(a, b, 2001)
            Ls = sol(xs)
            vals = np.array([self._g(m, xs[k], Ls[:, k])
                             for k in range(len(xs))])
            i = int(np.nanargmax(vals))
            lo_, hi_ = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            res = optimize.minimize_scalar(lambda z: -gm(z), bounds=(lo_, hi_),
                                           method="bounded",
                                           options={"xatol": 1e-12})
            best = max(best, float(vals[i]), -float(res.fun))
        return math.exp(best)


def _k_chain_parts(proto, theta, aobj):
    la, dla = _weight(aobj)

    def h0(x):
        return -theta * x + la(x) + proto.logk(x)

    def dh0(x):
        # (log K)' = t f*(t) / K(t)
        return -theta + dla(x) + math.exp(float(x + proto.logf(x)
                                                - proto.logk(x)))
    return h0, dh0


def _f_chain_parts(proto, p):
    """(y + p log f*) / p: the p-th root integrand of int f*^p ds."""
    def h0(x):
        return (x + p * proto.logf(x)) / p

    def dh0(x):
        return (1.0 - p * (1.0 - proto.c)) / p
    return h0, dh0


def nested_norm(d, proto, full):
    kind = d["kind"]
    lo = -X_FAR
    hi = X_FAR if full else 0.0
    side = "lower" if kind in ("L", "LL") else "upper"
    theta = float(d["theta"])
    if kind in ("L", "R"):
        inner = [(_q(d["F"]), None)]
        w_out, q_out = _weight(d["b"]), _q(d["E"])
    else:
        inner = [(_q(d["G"]), None), (_q(d["F"]), _weight(d["b"]))]
        w_out, q_out = _weight(d["c"]), _q(d["E"])
    h0, dh0 = _k_chain_parts(proto, theta, d["a"])
    ch = Chain(h0, dh0, inner, w_out, None if math.isinf(q_out) else q_out,
               side, lo, hi, proto.breakpoints, hi_is_edge=not full)
    return ch.value()


def app_norm(space, proto):
    p, alpha = float(space["p"]), float(space["alpha"])
    h0, dh0 = _f_chain_parts(proto, p)
    hi = min(proto.la, 0.0)
    if space["kind"] == "grand":
        w = {"kind": "ell", "alpha": -alpha / p}
        ch = Chain(h0, dh0, [(p, None)], _weight(w), None, "upper",
                   -X_FAR, hi, proto.breakpoints, hi_is_edge=True)
        return ch.value()
    if space["kind"] == "small":
        pp = p / (p - 1.0)
        w = {"kind": "ell", "alpha": alpha / pp - 1.0}
        # the outer L~1 norm runs on to t = 1 past the support of f*
        ch = Chain(h0, dh0, [(p, None)], _weight(w), 1.0, "lower",
                   -X_FAR, 0.0, proto.breakpoints, hi_is_edge=True)
        return ch.value()
    raise ValueError(f"reference has no concrete space {space['kind']!r}")


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def reference_norm(d: dict, spec: str) -> float:
    """|| f || in the space d over the whole half line; inf if divergent."""
    proto = Proto(spec)
    kind = d["kind"]
    full = d.get("setting", "full") == "full"
    if kind == "x0":
        return math.exp(proto.logk_inf)
    if kind == "x1":
        return proto.sup_f()
    if kind == "theta":
        return theta_norm(float(d["theta"]), d["b"], _q(d["E"]), proto, full)
    if kind in ("L", "R", "LL", "RR"):
        return nested_norm(d, proto, full)
    if kind == "intersection":
        return max(reference_norm(m, spec) for m in d["members"])
    if kind == "app":
        return app_norm(d["space"], proto)
    raise ValueError(f"reference has no descriptor kind {kind!r}")


def fill_cache(requests, cache_path):
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            cache = json.load(fh)
    for key, d, spec in requests:
        if key not in cache:
            v = reference_norm(d, spec)
            cache[key] = "inf" if math.isinf(v) else v
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cache, fh, sort_keys=True)
    os.replace(tmp, cache_path)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        fill_cache(json.load(fh), sys.argv[2])
