"""Geometric grids and quadrature against dt/t.

Everything downstream works on a uniform grid in x = log t.  Working in x
rather than t keeps the arithmetic finite across the enormous dynamic
ranges that show up in weighted norms (t^{-theta*q} spans dozens of
decades on the default full-line grid), and lets a grid reach far below
the float64 underflow threshold when a slowly converging log-integral
needs it.  A grid lies in the t-interval of its Setting.

Two kinds of integral live here:

* "tilde" norms, i.e. L_q norms against the measure dt/t.  These are
  trapezoid sums in x on log-scale values.  Terms are exponentiated
  after a shift by the max of their row, so nothing overflows, and the
  prefix scans sum them with one cumsum a row; a row that cannot be
  shifted safely goes through np.logaddexp term by term.  Whether such
  an integral diverges past a truncated end of the grid is decided by
  one function, edge_diverges; the norms it checks are checked_norm
  (both ends of a full range tested in one edge call) and checked_scan
  (nested norms towards one end, tested there), which the other
  modules call rather than test the grid's ends themselves.  The
  least-squares design of an edge strip depends only on the grid end,
  so it is built once per end and kept in a small memo of read-only
  arrays.
* plain Lebesgue integrals of nonnegative samples (used for the
  K-functional of the couple (L1, Linf) and a few inner norms in the
  concrete function spaces).  Those use a piecewise power-law model
  (log-log linear between nodes) which is exact on pure powers and
  extrapolates the head (0, t_min) by the power fitted to the first
  cell.  Each cell takes one rule (_segment_integrals): a flat cell,
  equal positive samples, the closed form of the power law at p = 1; a
  curved one the power law, run as in-place ufuncs over the span of
  cells curved in some row; any other cell, or one whose power law is
  not finite, the trapezoid.  The head is not computed below
  t = e^-700, so Grid.from_bounds refuses a t_min there.  The running
  max/min repairs of f* and K (_running) skip their scans when the
  samples are already in order, and otherwise scan only the stretch out
  of order.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
import functools
import math

import numpy as np

from .wire import Wire

NEG_INF = -np.inf
_X_TINY = -700.0    # log t below which the K head is not computed


@dataclass(frozen=True)
class RiSpace(Wire):
    """The rearrangement invariant parameter space E = L_q, q in [1, inf].

    Only the Lebesgue scale is supported; the fundamental function is
    phi_E(t) = t^(1/q).  Written untagged, as {"q": ...}.
    """

    q: float

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise ValueError(f"q must be in [1, inf], got {self.q}")


L1 = RiSpace(1.0)
L2 = RiSpace(2.0)
LINF = RiSpace(math.inf)


class Setting(str, enum.Enum):
    """The t-interval a space lives on: FULL = (0, inf), UNIT = (0, 1) and
    its image under t -> 1/t, CO_UNIT = (1, inf).  UNIT == "unit"."""

    FULL = "full"
    UNIT = "unit"
    CO_UNIT = "co_unit"

    __str__ = str.__str__

    def reversed(self) -> Setting:
        """The image of this interval under t -> 1/t."""
        return {UNIT: CO_UNIT, CO_UNIT: UNIT}.get(self, self)


FULL, UNIT, CO_UNIT = Setting


class Grid:
    """Uniform grid in x = log t on [x_min, x_max] with n nodes, in its
    setting's interval.  An end stands in for t = 0 or inf, and needs
    divergence checks, exactly when it stops short of that interval."""

    __slots__ = ("x", "dx", "n", "setting", "key", "_truncated", "_t")

    def __init__(self, x_min: float, x_max: float, n: int,
                 setting: Setting = FULL):
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if not x_max > x_min:
            raise ValueError("empty grid range")
        self.setting = setting = Setting(setting)
        lo = 0.0 if setting is CO_UNIT else -math.inf     # in log t
        hi = 0.0 if setting is UNIT else math.inf
        if not (lo <= x_min and x_max <= hi):
            raise ValueError(f"the {setting} setting has log t in [{lo:g}, "
                             f"{hi:g}], not [{x_min:.6g}, {x_max:.6g}]")
        step = (x_max - x_min) / (n - 1)
        x = x_min + step * np.arange(n)
        x[-1] = x_max
        self.x = x
        self.dx = step
        self.n = n
        self.key = (x[0], x[-1], n, self.setting)
        self._truncated = (bool(x_min > lo), bool(x_max < hi))
        self._t = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bounds(cls, t_min: float | None, t_max: float | None, n: int,
                    setting: Setting = FULL) -> "Grid":
        """The grid from t_min to t_max; None stands for 1e-8 and 1e8, cut
        to the interval.  The co_unit setting is refused: reversal
        rewrites weights, so nothing is normed on a co_unit grid."""
        if Setting(setting) is CO_UNIT:
            raise ValueError("nothing is normed on a co_unit grid: norm "
                             "the unit space it reverses")
        t_min = 1e-8 if t_min is None else t_min
        t_max = (1.0 if setting == UNIT else 1e8) if t_max is None else t_max
        if not 0 < t_min < t_max < math.inf:
            raise ValueError("need 0 < t_min < t_max < inf")
        if math.log(t_min) < _X_TINY:
            raise ValueError(f"t_min = {t_min:g} is below e^{_X_TINY:g} "
                             "(~9.9e-305), where K(t_min) is not computed")
        return cls(math.log(t_min), math.log(t_max), n, setting)

    # -- conveniences --------------------------------------------------

    def truncated(self, side: str) -> bool:
        """Does the end on side ('low' or 'high') stand in for 0 or inf?"""
        return self._truncated[side == "high"]

    @property
    def t(self) -> np.ndarray:
        if self._t is None:
            with np.errstate(over="ignore", under="ignore"):
                self._t = np.exp(self.x)
        return self._t

    def index_of(self, t: float) -> int:
        """Nearest node to t, clamped into range."""
        i = int(round((math.log(t) - self.x[0]) / self.dx))
        return min(max(i, 0), self.n - 1)

    def interior(self, frac: float = 0.05) -> slice:
        """Index slice with frac of the nodes dropped at each end."""
        k = int(self.n * frac)
        return slice(k, self.n - k)


def full_grid(n: int) -> Grid:
    """Default truncation of (0, inf): t from 1e-8 to 1e8."""
    return Grid.from_bounds(None, None, n)


def unit_grid(n: int, t_min: float | None = None) -> Grid:
    """Default truncation of (0, 1), from t_min (1e-8) to the edge 1."""
    return Grid.from_bounds(t_min, None, n, UNIT)


@dataclass
class GridFunction:
    """Nonnegative samples at the grid nodes.

    values may also be a (rows x n) stack, one function per row; the
    integrals and norms below then work row by row along the last axis.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-1:] != (self.grid.n,):
            raise ValueError("values shape does not match grid")
        if not (self.values >= 0).all():    # NaN fails the compare too
            raise ValueError("values must be nonnegative (NaN refused)")

    def log_values(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.values)


# ---------------------------------------------------------------------
# log-domain trapezoid machinery for dt/t integrals
# ---------------------------------------------------------------------
#
# Every function here takes one log integrand of length n or a stack of
# them, (rows x n), and works along the last axis; a row of a stack
# gives bit for bit what the same row gives alone.

_GUARD = 575.0     # a term further below its row max than this
                   # (e^-575 ~ 1e-250) nears the subnormals, e^-708


def _logaddexp_scan(lw: np.ndarray, q: float, dx: float) -> np.ndarray:
    """Reference prefix scan: log || w ||_{L~q(x_0, x_i)} for every i.

    Every trapezoid cell and every running sum goes through np.logaddexp,
    so no dynamic range over- or underflows, but each running sum rounds
    a log: against exactly summed cells the norm's relative error grows
    with n, measured at up to 7.7e-13 at n = 2^14 and 2.3e-12 at 2^16
    (seeded random-walk rows, q in {1, 2, 3.5}).  The fast kernel falls
    back to it for rows it cannot shift safely.
    """
    lq = q * lw
    cells = np.logaddexp(lq[..., :-1], lq[..., 1:]) + math.log(dx / 2.0)
    out = np.full(lw.shape, NEG_INF)
    out[..., 1:] = np.logaddexp.accumulate(cells, axis=-1) / q
    return out


def _shifted_scan(lw: np.ndarray, q: float, dx: float):
    """log_norm_lower for q < inf on a (rows x n) stack, one shift a row.

    Returns (log norms of the rows kept, rows to redo).  A row is redone
    by the reference path when its max is +inf or NaN, or when a finite
    term sits more than _GUARD below its max; that is decided first, and
    each row kept is exponentiated after a shift by its max, its
    trapezoid cells are summed with one cumsum, and each node costs one
    log.
    """
    e = np.multiply(lw, q)
    top = e.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.where(top > NEG_INF, top, 0.0)
        e -= shift[:, None]
        redo = ((e < -_GUARD) & (e > NEG_INF)).any(axis=1) | ~(top < np.inf)
        if redo.any():
            e, shift = e[~redo], shift[~redo]
        out = np.empty(e.shape)
        out[:, 0] = NEG_INF
        cells = out[:, 1:]
        np.exp(e, out=e)
        np.add(e[:, :-1], e[:, 1:], out=cells)
        np.cumsum(cells, axis=1, out=cells)
        np.log(cells, out=cells)
    cells += (shift + math.log(dx / 2.0))[:, None]
    cells /= q
    return out, redo


def log_norm_lower(lw: np.ndarray, q: float, dx: float) -> np.ndarray:
    """log of || w ||_{L~q} over (x_0, x_i), for every node i.

    For q = inf this is the running sup (node i included); for q < inf
    the value at i = 0 is -inf (empty interval -> norm 0), and each row
    is the one-shift scan of _shifted_scan, or _logaddexp_scan where
    that row has a term it cannot shift.
    """
    if math.isinf(q):
        return np.maximum.accumulate(lw, axis=-1)
    lw = np.asarray(lw, dtype=float)
    flat = lw.reshape(math.prod(lw.shape[:-1]), lw.shape[-1])
    out, redo = _shifted_scan(flat, q, dx)
    if redo.any():
        kept, out = out, np.empty(flat.shape)
        out[~redo] = kept
        out[redo] = _logaddexp_scan(flat[redo], q, dx)
    return out.reshape(lw.shape)


def log_norm_upper(lw: np.ndarray, q: float, dx: float) -> np.ndarray:
    """Mirror of log_norm_lower: norm over (x_i, x_{n-1})."""
    return log_norm_lower(lw[..., ::-1], q, dx)[..., ::-1]


def log_norm_between(lw: np.ndarray, q: float, dx: float,
                     i0: int, i1: int):
    """log norm over the node range [i0, i1] (empty -> -inf).

    A float for one integrand, an array with one value per row for a
    stack.  For q < inf: with M the row max of q lw, the trapezoid sum
    is e^M dx sum_k w_k e^{q lw_k - M}, w_k = 1/2 at both ends and 1
    between; a row whose max is not finite goes the reference path.
    """
    lw = np.asarray(lw, dtype=float)
    if i1 <= i0:
        out = np.full(lw.shape[:-1], NEG_INF)
    elif math.isinf(q):
        out = np.max(lw[..., i0:i1 + 1], axis=-1)
    else:
        seg = lw[..., i0:i1 + 1].reshape(-1, i1 + 1 - i0)
        e = q * seg
        top = e.max(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            e -= top[:, None]
            np.exp(e, out=e)
            s = e.sum(axis=-1) - 0.5 * (e[:, 0] + e[:, -1])
            out = (top + np.log(dx * s)) / q
        redo = ~np.isfinite(top)
        if redo.any():
            out[redo] = _logaddexp_scan(seg[redo], q, dx)[:, -1]
        out = out.reshape(lw.shape[:-1])
    return float(out) if lw.ndim == 1 else out


_EDGE_PTOL = 1e-6      # |slope| below this counts as flat in x
_EDGE_STOL = 0.02      # sup-norm log-power growth threshold


@functools.lru_cache(maxsize=64)
def _strip_design(x_edge: float, x_far: float, k: int):
    """The least-squares design of the edge strip of k + 1 nodes from
    x_edge to x_far, which depends on the grid alone.

    Returns (ua, saa, ub, sbb): the centred abscissae of the e^{p x}
    model, x, and of the |x|^sigma model, log|x|, each with its sum of
    squares; ub and sbb are None where the strip reaches |x| < 2.  The
    arrays are read-only: every edge test of the grid shares them.
    """
    xs = np.linspace(x_edge, x_far, k + 1)
    ua = xs - xs.mean()
    ub = sbb = None
    if min(abs(x_edge), abs(x_far)) >= 2.0:
        u = np.log(np.abs(xs))
        ub = u - u.mean()
        ub.flags.writeable = False
        sbb = ub @ ub
    ua.flags.writeable = False
    return ua, ua @ ua, ub, sbb


def edge_diverges(lw: np.ndarray, q: float, grid: Grid,
                  side: str) -> np.ndarray:
    """Does int e^{q lw} dx (sup e^lw for q = inf) diverge past an end?

    The one edge-divergence test.  lw holds one log integrand or a stack
    of them, (rows x m), whose first and last nodes are the low and high
    ends of grid; side is the end tested, 'low' or 'high', or 'both',
    which ORs the two answers in one call.  One answer per row; an end
    that is a true edge of the setting's interval (Grid.truncated)
    answers False.

    The integrand is fit over a log(2)-wide strip at each tested end by
    two local models, each by a closed-form least-squares line: e^{p x}
    (a power of t) and |x|^sigma (a power of |log t|, only where the
    strip keeps |x| >= 2).  The strips of both ends are stacked, so the
    finite, NaN and centring passes run once (the NaN pass and the zero
    fill only if some value is not finite); each end is fit with its own
    strip design, the centred abscissae and their sums of squares, which
    depend on the grid end alone and come from a small memo
    (_strip_design).  The better fit is extrapolated past the edge: a
    power tail diverges unless it decays by more than _EDGE_PTOL, a
    |log t|^sigma tail iff q sigma >= -1 (sigma > _EDGE_STOL for the
    sup).  A NaN in the strip counts as divergent, an edge value of -inf
    (nothing at the edge) as convergent, and any other -inf in the strip
    as divergent: all mass then sits at the edge, and a flat
    continuation past it diverges.
    """
    lw = np.asarray(lw, dtype=float)
    dx = grid.dx
    k = max(2, int(math.ceil(math.log(2.0) / dx)))
    ends = [s for s in (("low", "high") if side == "both" else (side,))
            if grid.truncated(s)]
    out = np.zeros(lw.shape[:-1], bool)
    if not ends or lw.shape[-1] - 1 <= k:
        return out
    # each strip runs from its edge node inwards
    h = np.concatenate([lw[None, ..., :k + 1] if s == "low"
                        else lw[None, ..., :-k - 2:-1] for s in ends])
    finite = np.isfinite(h).all(axis=-1)
    bad = None
    if not finite.all():
        bad = np.isnan(h).any(axis=-1) | (~finite & (h[..., 0] != NEG_INF))
        h = np.where(finite[..., None], h, 0.0)
    # centred once for both fits; add.reduce / (k + 1) has the bits of
    # mean(), and each fit keeps the operation order of a centred line
    hc = h - np.add.reduce(h, axis=-1, keepdims=True) / (k + 1)
    for e, s in enumerate(ends):
        x_edge = grid.x[0] if s == "low" else grid.x[-1]
        x_far = x_edge + k * dx if s == "low" else x_edge - k * dx
        ua, saa, ub, sbb = _strip_design(float(x_edge), float(x_far), k)
        p = hc[e] @ ua / saa
        r = hc[e] - p[..., None] * ua
        res_a = np.einsum("...i,...i->...", r, r)
        if ub is not None:
            sigma = hc[e] @ ub / sbb
            r = hc[e] - sigma[..., None] * ub
            res_b = np.einsum("...i,...i->...", r, r)
        else:
            sigma, res_b = np.zeros_like(p), np.full_like(p, math.inf)
        slope = p if x_edge > x_far else -p     # growth towards the edge
        if math.isinf(q):
            div = np.where(res_b <= res_a, sigma > _EDGE_STOL,
                           slope > _EDGE_PTOL)
        else:
            # numerically flat power tails diverge for q < inf
            div = np.where(res_b <= res_a, q * sigma >= -1.0,
                           slope >= -_EDGE_PTOL)
        if bad is not None:
            div = bad[e] | (finite[e] & div)
        out |= div
    return out


def _final(logval) -> np.ndarray:
    """exp of log norms: 0 for -inf, inf from 700 on.

    math.exp value by value, not np.exp on the array: reports print
    repr(float), and the two differ in the last bit for some arguments.
    """
    v = np.asarray(logval, dtype=float)
    out = [0.0 if lv == NEG_INF else math.exp(lv) if lv < 700 else math.inf
           for lv in v.ravel().tolist()]
    return np.reshape(out, v.shape)


def checked_norm(lw: np.ndarray, q: float, grid: Grid, i0: int = 0,
                 i1: int | None = None):
    """|| e^lw ||_{L~q} over the node range [i0, i1] (default: all nodes).

    The one checked truncated norm: log_norm_between, then _final, then
    math.inf wherever an end of [i0, i1] is an end of the grid and one
    edge_diverges call on lw[..., i0:i1 + 1] fires there.  An empty
    range gives 0.  A float for one integrand, an array with one value
    per row for a stack.
    """
    lw = np.asarray(lw, dtype=float)
    i1 = grid.n - 1 if i1 is None else i1
    val = _final(log_norm_between(lw, q, grid.dx, i0, i1))
    lo, hi = i0 == 0, i1 == grid.n - 1
    if i1 > i0 and (lo or hi):
        side = "both" if lo and hi else "low" if lo else "high"
        val = np.where(edge_diverges(lw[..., i0:i1 + 1], q, grid, side),
                       math.inf, val)
    return float(val) if val.ndim == 0 else val


def checked_scan(lw: np.ndarray, q: float, grid: Grid, side: str):
    """(log_norm_lower for side 'low' or log_norm_upper for 'high',
    edge_diverges at that end): the nested norms miss the mass past it."""
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    scan = log_norm_lower if side == "low" else log_norm_upper
    return scan(lw, q, grid.dx), edge_diverges(lw, q, grid, side)


def tilde_norm(g: GridFunction, E: RiSpace,
               interval=(0.0, math.inf)) -> float:
    """|| g ||_{E~(interval)}, the L_q norm of g against dt/t.

    Interval ends snap to the nearest grid nodes (0 and inf mean the
    grid edges).  Returns math.inf when the divergence heuristic fires
    at a truncated edge (checked_norm).
    """
    lo, hi = interval
    i0 = 0 if lo <= 0 else g.grid.index_of(lo)
    i1 = g.grid.n - 1 if math.isinf(hi) else g.grid.index_of(hi)
    return checked_norm(g.log_values(), E.q, g.grid, i0, i1)


# ---------------------------------------------------------------------
# Lebesgue integrals of nonnegative samples (power-law cell model)
# ---------------------------------------------------------------------

def _segment_integrals(values: np.ndarray, grid: Grid) -> np.ndarray:
    """int_{t_j}^{t_{j+1}} v(s) ds for each cell (each row of a stack).

    One rule per cell, from its samples v0 = v(t_j) and v1 = v(t_{j+1}):

    * flat, v1 == v0 > 0: (v0 t_j) expm1(dx).  This is the power law
      below with p = 1, which v1 / v0 == 1.0 gives exactly;
    * curved, v1 != v0 and both positive: the power law through the two
      samples (exact for v = C s^gamma): with p = log(v1/v0)/dx + 1 the
      cell is (v0 t_j) expm1(dx p)/p, and (v0 t_j) dx where |p| < 1e-12;
    * any other cell, and one whose power law is not finite: the linear
      trapezoid (v0 + v1)/2 (t_{j+1} - t_j).

    The trapezoid is formed on every cell first; the other two rules
    overwrite it where they apply and are finite.  The power law runs as
    in-place ufuncs over the span of cells from the first to the last
    where some row has both samples positive (every corpus f* vanishes
    for t > 1), and its divide, log and expm1 only from the first cell
    curved in some row to the last; the flat cells around that stretch
    take the closed form.  A flat cell inside the stretch goes through
    the power law, whose p = 1 gives the same bits.
    """
    values = np.asarray(values, dtype=float)
    t, dx = grid.t, grid.dx
    v0, v1 = values[..., :-1], values[..., 1:]
    # cells outside `both` compute garbage that copyto drops; a sum or
    # a power law past float range is inf, silently
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.add(v0, v1)                    # the trapezoid
        out *= 0.5
        out *= t[1:] - t[:-1]
        pos = values > 0
        both = pos[..., :-1] & pos[..., 1:]
        lo, hi = _span(both)
        if lo < hi:
            a, b = v0[..., lo:hi], v1[..., lo:hi]
            k = np.multiply(a, t[lo:hi])        # v0 t_j
            c0, c1 = _span(np.not_equal(a, b))  # the curved cells
            if c0 < c1:
                c = slice(c0, c1)
                p = np.divide(b[..., c], a[..., c])
                np.log(p, out=p)
                p /= dx
                p += 1.0
                pw = np.multiply(p, dx)
                np.expm1(pw, out=pw)
                pw /= p
                np.copyto(pw, dx, where=np.abs(p, out=p) < 1e-12)
                k[..., c] *= pw
            if c0 > 0 or c1 < hi - lo:          # flat cells around them
                em = np.expm1(np.full(1, dx))
                k[..., :c0] *= em
                k[..., c1:] *= em
            good = np.isfinite(k)
            good &= both[..., lo:hi]
            np.copyto(out[..., lo:hi], k, where=good)
    return out


def _span(mask: np.ndarray) -> tuple:
    """(lo, hi): the cells from the first to the last that are True in
    some row of mask; lo == hi if none is."""
    if mask.ndim > 1:
        mask = mask.reshape(-1, mask.shape[-1]).any(axis=0)
    lo = int(mask.argmax())
    if not mask[lo]:
        return 0, 0
    return lo, len(mask) - int(mask[::-1].argmax())


def _head_integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """int_0^{t_min} by power-law extrapolation of the first cell.

    One value per row; scalar math.log per row keeps every row's head
    the same whether it is integrated alone or in a stack.  Below
    x = _X_TINY the head is taken as nil (Grid.from_bounds refuses
    such a t_min).
    """
    t0, dx = grid.t[0], grid.dx
    tiny = grid.x[0] < _X_TINY

    def head(v0, v1):
        if v0 == 0.0 or tiny:
            return 0.0
        gamma = math.log(v1 / v0) / dx if v1 > 0 else 0.0
        p = gamma + 1.0
        if p <= 1e-9:
            return math.inf  # local power <= -1: not locally integrable
        return v0 * t0 / p

    v0 = values[..., 0].ravel().tolist()
    v1 = values[..., 1].ravel().tolist()
    return np.reshape([head(a, b) for a, b in zip(v0, v1)],
                      values.shape[:-1])


def lebesgue_prefix(values: np.ndarray, grid: Grid) -> np.ndarray:
    """F(t_i) = int_0^{t_i} v(s) ds at every node (head extrapolated); a
    sum past float range is inf, silently, as a cell's integral is."""
    segs = _segment_integrals(values, grid)
    out = np.empty(values.shape)
    out[..., 0] = _head_integral(values, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(segs, axis=-1, out=out[..., 1:])
        out[..., 1:] += out[..., :1]
    return out


def lebesgue_suffix(values: np.ndarray, grid: Grid) -> np.ndarray:
    """G(t_i) = int_{t_i}^{t_max} v(s) ds at every node."""
    segs = _segment_integrals(values, grid)
    out = np.zeros(values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        out[..., :-1] = np.cumsum(segs[..., ::-1], axis=-1)[..., ::-1]
    return out


def _running(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.accumulate along the last axis, ufunc np.maximum or np.minimum.

    A running max (min) of a nondecreasing (nonincreasing) array is the
    array itself, and sampled f* and K almost always are in order, so
    one vector compare over the whole array decides whether a scan runs
    at all; the result is then a itself.  Otherwise only the stretch
    out of order in some row is scanned, from the node before its first
    break to its last: up to that node a is its own running value, and
    past the stretch each node is in order, so its running value is
    ufunc of the node and the stretch's last one (min and max do not
    round).  The scan and the skip can differ only in the sign of a tie
    between 0.0 and -0.0.
    """
    ordered = np.greater_equal if ufunc is np.maximum else np.less_equal
    ok = ordered(a[..., 1:], a[..., :-1])
    if ok.all():
        return a
    # cell i compares node i + 1 with node i; lo and hi - 2 are the
    # first and last cells out of order in some row
    cells = ok.reshape(-1, ok.shape[-1]).all(axis=0)
    lo = int(cells.argmin())
    hi = a.shape[-1] - int(cells[::-1].argmin())
    out = np.empty(a.shape, a.dtype)
    out[..., :lo] = a[..., :lo]
    ufunc.accumulate(a[..., lo:hi], axis=-1, out=out[..., lo:hi])
    ufunc(a[..., hi:], out[..., hi - 1:hi], out=out[..., hi:])
    return out


def rearrange(values: np.ndarray, weights: np.ndarray,
              grid: Grid) -> GridFunction:
    """Nonincreasing rearrangement of a simple function.

    (values, weights) describe a nonnegative simple function taking
    value[k] on a set of measure weight[k]; the result samples its
    rearrangement f*(t) at the grid nodes (right-continuous step).
    Only tests call it; it stays for the Lorentz parameters L^{p,r} of
    ROADMAP item 9, whose norm needs the rearrangement with respect to
    dt/t: this one, with weights that are dt/t measures.
    """
    values = np.asarray(values, float)
    weights = np.asarray(weights, float)
    if np.any(values < 0) or np.any(weights < 0):
        raise ValueError("values and weights must be nonnegative")
    order = np.argsort(-values)
    v = values[order]
    edges = np.cumsum(weights[order])
    t = grid.t
    idx = np.searchsorted(edges, t, side="left")
    out = np.where(idx < len(v), v[np.minimum(idx, len(v) - 1)], 0.0)
    return GridFunction(grid, out)

