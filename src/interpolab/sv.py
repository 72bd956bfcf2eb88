"""Slowly varying weight expressions.

A small closed term language for the weights b(t) that modulate the
interpolation norms: powers of l(t) = 1 + |log t|, broken and iterated
logarithms, exp of a fractional power of |log t|, products, real powers,
the substitution t -> b(1/t), composition with rho(t) = t^gamma * b1(t)
for gamma > 0, and the running tail norms

    B0(t) = || b ||_{E~(0,t)},      Binf(t) = || b ||_{E~(t, +edge)},

which are again slowly varying and keep appearing as derived parameters.
t -> b(1/t) is a rewrite into the same kinds (inverse_arg), so every
weight is tabulated on the grid it is normed on.

Everything evaluates as a function of x = log t, so expressions stay
finite on grids whose t range leaves float64.  Every node has a JSON
form through its wire tag (see wire.py).

At a grid's own nodes (sv_log_on_grid) the leaf weights share one
n-long table per grid, log l(t): a constant is a zero-stride view of
its log and a power of l is a multiple of that table.  Every other
weight (tail tables, products, powers, compositions) is kept per
(expr, grid).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .grid import Grid, RiSpace, checked_scan
from .wire import Wire


class SvDivergenceError(ValueError):
    """A NormTail integral diverges on the requested grid."""


class SvExpr(Wire):
    """Base class; subclasses are frozen dataclasses, hence hashable."""

    def __mul__(self, other):
        return Product(self, other)

    def __pow__(self, r):
        return Power(self, float(r))


@dataclass(frozen=True)
class Const(SvExpr, kind="const"):
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("constant weight must be positive")


@dataclass(frozen=True)
class EllPow(SvExpr, kind="ell"):
    """l^alpha(t) = (1 + |log t|)^alpha."""
    alpha: float


@dataclass(frozen=True)
class BrokenEll(SvExpr, kind="broken_ell"):
    """l^alpha for t <= 1, l^beta for t > 1."""
    alpha: float
    beta: float


@dataclass(frozen=True)
class IteratedEll(SvExpr, kind="iterated_ell"):
    """(l o l o ... o l)^alpha with `depth` compositions, 2 <= depth <= 64."""
    depth: int
    alpha: float

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError("use EllPow for depth 1")
        if self.depth > 64:
            raise ValueError("iterated_ell depth must be at most 64")


@dataclass(frozen=True)
class ExpLogPow(SvExpr, kind="exp_log_pow"):
    """exp(|log t|^alpha), 0 < alpha < 1."""
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0,1)")


@dataclass(frozen=True)
class Product(SvExpr, kind="product"):
    """left * right, written as {"args": [left, right]}; reading folds
    any number of args from the left."""
    left: SvExpr
    right: SvExpr

    def to_obj(self) -> dict:
        return {"kind": "product",
                "args": [self.left.to_obj(), self.right.to_obj()]}

    @classmethod
    def _decode(cls, o) -> SvExpr:
        args = [SvExpr.from_obj(a) for a in o["args"]]
        if not args:
            raise ValueError("product needs at least one factor")
        return functools.reduce(Product, args)


@dataclass(frozen=True)
class Power(SvExpr, kind="power"):
    base: SvExpr
    r: float


@dataclass(frozen=True)
class InverseArg(SvExpr, kind="inverse_arg"):
    """t -> inner(1/t)."""
    inner: SvExpr


@dataclass(frozen=True)
class NormTail(SvExpr, kind="norm_tail"):
    """t -> || b ||_{E~(0,t)} (side='lower') or || b ||_{E~(t,edge)} ('upper').

    Finiteness is checked the first time a table is built on a grid;
    a divergent tail raises SvDivergenceError then.
    """
    b: SvExpr
    E: RiSpace
    side: str

    def __post_init__(self):
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")


@dataclass(frozen=True)
class ComposeWithRho(SvExpr, kind="compose_rho"):
    """t -> outer(t^gamma * inner(t)), gamma > 0 (closure under rho)."""
    outer: SvExpr
    gamma: float
    inner: SvExpr

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


ONE = Const(1.0)


def inverse_arg(e: SvExpr) -> SvExpr:
    """t -> e(1/t) in closed form, never an InverseArg: a tail norm
    changes side, ||b||_{E~(0,1/t)} = ||b(1/.)||_{E~(t,inf)}, and
    (1/t)^gamma inner(1/t) = 1 / (t^gamma / inner(1/t))."""
    if isinstance(e, (Const, EllPow, IteratedEll, ExpLogPow)):
        return e    # functions of |log t|
    if isinstance(e, BrokenEll):
        return BrokenEll(e.beta, e.alpha)
    if isinstance(e, Product):
        return Product(inverse_arg(e.left), inverse_arg(e.right))
    if isinstance(e, Power):
        return Power(inverse_arg(e.base), e.r)
    if isinstance(e, InverseArg):
        return inverse_arg(inverse_arg(e.inner))  # e.inner, written out
    if isinstance(e, NormTail):
        side = "upper" if e.side == "lower" else "lower"
        return NormTail(inverse_arg(e.b), e.E, side)
    if isinstance(e, ComposeWithRho):
        # 1/inner undoes a reciprocal, as (-1)((-1) v) is v bit for bit
        r = inverse_arg(e.inner)
        r = r.base if isinstance(r, Power) and r.r == -1.0 else Power(r, -1.0)
        return ComposeWithRho(inverse_arg(e.outer), e.gamma, r)
    raise TypeError(f"unknown SvExpr node {e!r}")


def compose_rho(b: SvExpr, gamma: float, sv: SvExpr) -> SvExpr:
    """t -> b(t^gamma * sv(t)), leaving a constant b as it is."""
    if isinstance(b, Const):
        return b
    return ComposeWithRho(b, gamma, sv)


# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------

def _tail_table(expr: NormTail, grid: Grid) -> np.ndarray:
    """log of the running tail norm at the grid nodes, uncached.

    sv_log_on_grid keeps the result.
    """
    lb = sv_log_on_grid(expr.b, grid)
    low = expr.side == "lower"
    # only the edge the norm runs towards: 0 for the lower, inf the upper
    table, div = checked_scan(lb, expr.E.q, grid, "low" if low else "high")
    if div:
        raise SvDivergenceError(
            f"{expr.side} tail norm of {expr.b!r} in L_{expr.E.q} "
            f"diverges at {'0' if low else 'inf'}")
    return table


def sv_log_eval(expr: SvExpr, x: np.ndarray, grid: Grid | None = None) -> np.ndarray:
    """log b(t) at x = log t (vectorized).

    NormTail needs the grid that holds its table; points off the table
    are linearly interpolated in x (clamped at the ends).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(expr, Const):
        return np.full(x.shape, math.log(expr.c))
    if isinstance(expr, EllPow):
        return expr.alpha * np.log1p(np.abs(x))
    if isinstance(expr, BrokenEll):
        a = np.where(x <= 0, expr.alpha, expr.beta)
        return a * np.log1p(np.abs(x))
    if isinstance(expr, IteratedEll):
        y = np.log1p(np.abs(x))  # log of l(t)
        for _ in range(expr.depth - 1):
            y = np.log1p(np.abs(y))
        return expr.alpha * y
    if isinstance(expr, ExpLogPow):
        return np.abs(x) ** expr.alpha
    if isinstance(expr, Product):
        return sv_log_eval(expr.left, x, grid) + sv_log_eval(expr.right, x, grid)
    if isinstance(expr, Power):
        return expr.r * sv_log_eval(expr.base, x, grid)
    if isinstance(expr, InverseArg):
        return sv_log_eval(inverse_arg(expr.inner), x, grid)
    if isinstance(expr, ComposeWithRho):
        logv = expr.gamma * x + sv_log_eval(expr.inner, x, grid)
        return sv_log_eval(expr.outer, logv, grid)
    if isinstance(expr, NormTail):
        if grid is None:
            raise ValueError("NormTail evaluation needs a grid context")
        return np.interp(x, grid.x, sv_log_on_grid(expr, grid))
    raise TypeError(f"unknown SvExpr node {expr!r}")


_GRID_EVALS: dict = {}
_ELL = EllPow(1.0)      # its table is log l(t) = log1p(|log t|)


def sv_log_on_grid(expr: SvExpr, grid: Grid) -> np.ndarray:
    """sv_log_eval at the grid's own nodes, bit for bit, read-only.

    The one weight memo.  Per grid it keeps one n-long table for the
    leaf weights, log l(t), under the key of EllPow(1.0): EllPow(alpha)
    is alpha times that table, formed on each call as sv_log_eval forms
    it, and a Const is a zero-stride view of log c, kept per
    (expr, grid) at the cost of one float.  Every other weight is kept
    per (expr, grid) as an n-long array; a NormTail's value here is its
    tail table, which sv_log_eval interpolates off the nodes.
    """
    leaf = _ELL if isinstance(expr, EllPow) else expr
    key = (leaf, grid.key)
    out = _GRID_EVALS.get(key)
    if out is None:
        if isinstance(leaf, Const):
            out = np.broadcast_to(math.log(leaf.c), grid.x.shape)
        elif isinstance(leaf, NormTail):
            out = _tail_table(leaf, grid)
        else:
            out = sv_log_eval(leaf, grid.x, grid)
        out.setflags(write=False)
        _GRID_EVALS[key] = out
    if leaf is not expr:
        out = expr.alpha * out
        out.setflags(write=False)
    return out
