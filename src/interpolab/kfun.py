"""K-functionals: exact profile for (L1, Linf), norms from descriptors,
and a decomposition oracle for derived couples.

For the couple (L1, Linf) over a measure space, K(t, f) = int_0^t f*(s) ds,
computed here with the power-law cell model (exact on pure powers).
repair_k enforces K nondecreasing and K(t)/t nonincreasing; each of its
two running scans costs one vector compare when the samples are already
in order, as they almost always are, and otherwise scans only the
stretch of nodes out of order (grid._running).  k_peetre runs only the
K(t)/t scan (repair_slope): a head plus a cumsum of nonnegative cells is
nondecreasing as computed, and finite exactly when its last node is.
That scan starts past the first nodes where K underflowed below the
least normal float; a 0 there is rounding, not a zero f*.  The oracle's
cut blocks, clipped differences of two K, need both scans, and their
zeros are exact.

For a derived couple (Y0, Y1) no closed form exists, so TruncationOracle
takes an infimum over an explicit family of decompositions f = g_c + h_c
built by truncating f* at height c:

    g_c = (f* - c)_+,        h_c = min(f*, c),

plus the two trivial splittings.  Since the cut pieces do not depend on
the argument t, the member norms (A_c, B_c) are computed once per cut and
K(t) = min_c (A_c + t B_c) is then available at every t for free.  The
estimate is an upper bound on the true K; it is exact at the endpoint
couple itself and two-sided within the equivalence constants everywhere
the verification harnesses use it.

The cuts are built and normed together: their profiles form a
(cuts x n) array, taken in row blocks of at most _BLOCK_ELEMS elements,
and norm_in_space works along the last axis of such a stack.  A block
is built in place: S - c t broadcast once, each row's constant tail
past its cut written once, then the clip, the repair and the logs.  A
block holds only the pieces its members read (_reads): log K of a piece
for a member normed from K, the piece itself for a concrete one; the
first block also carries the trivial splittings as its row 0.  Every
truncated integral it takes goes through the one edge test,
grid.edge_diverges (a closed-form least-squares fit per row): the inner
levels are the nested norms of grid.checked_scan towards the
descriptor's side (L and LL run to 0, R and RR to inf), and the outer
norm is the one checked norm, grid.checked_norm.  The levels of an
x0/x1, theta, L/R or LL/RR descriptor (spaces.levels: X0 and X1 are
the theta = 0 and theta = 1 spaces with b = 1, E = Linf) run through
one loop from the inner level out.  Every row gives bit for bit what
the same profile gives on its own.  Most cuts never attain the minimum,
so they are normed in rounds, each refining only the gaps between
normed cuts that the envelope of the pairs so far cannot rule out.

norm_in_space evaluates a spaces.Over descriptor, a space over a derived
couple, through such an oracle built from the profile: from the K of a
single profile k_peetre formed, else from f*.  That oracle, and the ones
the verification harnesses build, take at most _cut_cap(grid) cuts: 128,
or 192 where t = 1 ends the grid.  The cap moves answers: uncapped, the
R_x0 Holmstedt window is 1.0565 / 1.0519 at n = 2^9 / 2^10 against
1.0615 / 1.0591, and log K drops by up to 6.3e-2 (R_x0, powlog:2,1, n =
2^13); the cost grows with the cut count.  See open item 7 of ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .grid import (Grid, GridFunction, lebesgue_prefix, checked_norm,
                   checked_scan, _running)
from .sv import sv_log_on_grid, SvDivergenceError
from .spaces import (SpaceDescriptor, Intersection, AppMember, Over,
                     contains, levels)

# elements (cut rows x grid nodes) of one block of cut profiles; bounds
# the oracle's working memory whatever the grid size and cut count
_BLOCK_ELEMS = 1 << 16
_TINY = np.finfo(float).tiny    # the least normal float


def _cut_cap(grid: Grid) -> int:
    """Cut cap of the oracles on grid (see the module docstring)."""
    return 128 if grid.truncated("high") else 192


@dataclass
class KProfile:
    """t -> K(t, f), stored as log K at the grid nodes.

    ``fstar`` optionally carries the rearrangement the profile came
    from; concrete-space member norms need it.  A profile k_peetre formed
    keeps K itself too (``_k``), which an oracle over its f* cuts.
    ``logk`` is None in a block of cut pieces only concrete members read.
    """

    grid: Grid
    logk: np.ndarray | None
    fstar: np.ndarray | None = None
    _k: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.logk)


def repair_k(grid: Grid, k: np.ndarray) -> np.ndarray:
    """Enforce K nondecreasing and K(t)/t nonincreasing (row by row).

    Returns a new array.  Each running scan is skipped when its input
    is already in order (grid._running), as sampled K almost always is.
    """
    k = _running(np.maximum, k)
    with np.errstate(over="ignore", invalid="ignore"):
        return _cap_slope(grid, k, k / grid.t)


def repair_slope(grid: Grid, k: np.ndarray) -> np.ndarray:
    """The K(t)/t half of repair_k, for a K that lebesgue_prefix made.

    Such a K is below the least normal float at its first nodes only
    where v(t_0) t_0 and the first cells underflow, as a step of 1e-30
    does at t_min = 1e-304: K is 0 or a few subnormal ulps there, and
    its K/t is not the slope of f*.  Those nodes keep their K and the
    minimum of K/t starts past them, where repair_k's would start at
    that 0 (or a slope too low by up to half) and carry it to every
    later node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slope = k / grid.t
        if not (k[..., 0] >= _TINY).all():
            slope[k < _TINY] = np.inf
        return _cap_slope(grid, k, slope)


def _cap_slope(grid: Grid, k: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """min(K, t min_{s <= t} slope(s)); slope = K/t is overwritten."""
    slope = _running(np.minimum, slope)
    slope *= grid.t
    return np.minimum(k, slope, out=slope)


def k_peetre(fstar: GridFunction) -> KProfile:
    """K(t, f; L1, Linf) = int_0^t f*(s) ds at the grid nodes, repaired;
    the profile keeps K itself beside its log.

    K is its head plus a cumsum of nonnegative cells, so it is
    nondecreasing as computed, and finite everywhere exactly when its
    last node is: only the K(t)/t half of repair_k runs.
    """
    k = lebesgue_prefix(fstar.values, fstar.grid)
    if not np.isfinite(k[..., -1]).all():
        raise ValueError("f* is not locally integrable near 0 "
                         "(not in L1 + Linf)")
    k = repair_slope(fstar.grid, k)
    with np.errstate(divide="ignore"):
        return KProfile(fstar.grid, np.log(k), fstar.values, k)


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------
#
# The helpers below take one log profile (length n) or a stack of them
# (rows x n) and return numpy values with one entry per row; the public
# entry points turn the single-profile answer back into a float.

def _unstack(val):
    """A float for a single profile, the per-row array for a stack."""
    return float(val) if np.ndim(val) == 0 else val


def norm_in_space(K: KProfile, d: SpaceDescriptor):
    """|| f || in the space described by d, from the profile K(t, f).

    Returns math.inf when a defining integral diverges at a truncated
    edge (the descriptor is then trivial or f lies outside the space).
    K.logk (and K.fstar) may be a (rows x n) stack of profiles; the
    result is then an array with one norm per row, each equal to what
    that row gives alone.  K.fstar is taken as valid, not checked again.
    """
    return _unstack(_norms(K, d))


def _reads(d: SpaceDescriptor) -> tuple:
    """(log K, f*): the parts of a profile the norm of d reads; an
    Intersection reads what its members read."""
    if isinstance(d, Intersection):
        return tuple(map(any, zip(*map(_reads, d.members))))
    return bool(levels(d)), isinstance(d, (AppMember, Over))


def _norms(K: KProfile, d: SpaceDescriptor) -> np.ndarray:
    grid = K.grid
    try:
        if lv := levels(d):
            # x0/x1, theta, L/R, LL/RR: from the inner level out, each
            # level weights the prefix (L, LL) or suffix (R, RR) norms of
            # the level inside it, each checked at the end it runs to.
            # X0 = sup K and X1 = sup K(t)/t are the theta spaces with
            # b = 1, E = Linf.
            div = np.zeros(K.logk.shape[:-1], bool)   # rows found divergent
            lw = -d.theta * grid.x + sv_log_on_grid(lv[0][0], grid) + K.logk
            for (_, F), (w, _) in zip(lv, lv[1:]):
                scan, edge = checked_scan(lw, F.q, grid, d.side)
                div |= edge
                lw = sv_log_on_grid(w, grid) + scan
            return np.where(div, math.inf,
                            checked_norm(lw, lv[-1][1].q, grid))
        if isinstance(d, Intersection):
            return np.maximum.reduce([_norms(K, m) for m in d.members])
        if not isinstance(d, (AppMember, Over)):
            raise TypeError(f"unknown descriptor {type(d).__name__}")
        if K.fstar is None:
            raise ValueError("a concrete space or derived couple needs "
                             "f*, but the profile carries none")
        if isinstance(d, Over):
            rows = [K] if np.ndim(K.fstar) == 1 else \
                [KProfile(grid, None, f) for f in K.fstar.reshape(-1, grid.n)]
            return np.reshape([_over(r, d) for r in rows],
                              np.shape(K.fstar)[:-1])
        from .applications import _norm_app
        return np.asarray(_norm_app(d.space, grid, K.fstar))
    except SvDivergenceError:
        rows = K.fstar if K.logk is None else K.logk
        return np.full(np.shape(rows)[:-1], math.inf)


def _over(K: KProfile, d: Over) -> float:
    """d.desc over the couple d.couple, for the one f* K carries."""
    if K.grid.truncated("high") and contains(d, AppMember):
        raise ValueError("concrete spaces live on (0,1): use a unit grid")
    try:
        orc = TruncationOracle(K, *d.couple, max_cuts=_cut_cap(K.grid))
    except ValueError:      # f lies outside Y0 + Y1
        return math.inf
    return float(_norms(orc.profile(), d.desc))


# ---------------------------------------------------------------------
# decomposition oracle
# ---------------------------------------------------------------------

class TruncationOracle:
    """K(t, f; Y0, Y1) from truncation decompositions of f*.

    K is the profile K(., f; X0, X1) with its f*, kept as kprofile; the
    cuts are built from the K that k_peetre formed, or from k_peetre of
    K.fstar if K is another profile.

    A and B hold (|| f ||_{Y0}, 0) and (0, || f ||_{Y1}) when finite,
    then (|| g_c ||_{Y0}, || h_c ||_{Y1}) for the normed cuts with both
    finite, in cut order; k_at evaluates min_c (A_c + t B_c).  The cuts
    are distinct values of f* in descending order (at most max_cuts,
    evenly spaced), so A does not decrease along them and B does not
    increase.  They are normed in rounds of row blocks within
    _BLOCK_ELEMS elements: max(2, _BLOCK_ELEMS // n) evenly spaced cuts,
    the first and last among them, then the midpoints of the gaps i < k
    between normed cuts that are not dropped.  A gap with both ends
    finite is dropped when A_i + t B_k, below every cut inside, is not
    below the lower envelope of the finite pairs so far at any of its
    vertices, so k_at, k_at_log, profile and trivial_gap keep the bits
    of all the cuts.  Couples with app or over members norm every cut.

    Each member gets one norm_in_space call per block, on the pieces it
    reads (_reads): log K(g_c) or log K(h_c), (f* - c)_+ or min(f*, c).
    The trivial splittings ride in row 0 of the first block (log K or f*
    itself), which so holds one row more than _BLOCK_ELEMS // n; an
    oracle with no cut norms them on their own.
    """

    def __init__(self, K: KProfile, Y0: SpaceDescriptor,
                 Y1: SpaceDescriptor, max_cuts: int | None = None):
        if K._k is None:
            K = k_peetre(GridFunction(K.grid, K.fstar))
        grid, f, S, logS = K.grid, K.fstar, K._k, K.logk
        self.grid, self.fstar, self.kprofile = grid, f, K

        cuts = _distinct(f[f > 0])[::-1]
        if max_cuts is not None and len(cuts) > max_cuts:
            idx = _distinct(np.linspace(0, len(cuts) - 1,
                                        max_cuts).astype(int))
            cuts = cuts[idx]

        # cut c keeps the j nodes where f* > c in g_c; the top value
        # gives g_c = 0 and is no cut
        j = np.searchsorted(-f, -cuts, side="left")
        cuts, j = cuts[j > 0], j[j > 0]
        # rows 0 and 1: the trivial decompositions f + 0 and 0 + f
        A, B = np.zeros(len(cuts) + 2), np.zeros(len(cuts) + 2)
        if not len(cuts):
            A[0], B[1] = norm_in_space(K, Y0), norm_in_space(K, Y1)
        normed = np.arange(len(A)) < 2
        rows = max(2, _BLOCK_ELEMS // grid.n)
        todo = 2 + _distinct(np.linspace(0, len(cuts) - 1,
                                         min(rows, len(cuts))).astype(int))
        (k0, f0), (k1, f1) = _reads(Y0), _reads(Y1)
        # app and over members read f*: their norms as sampled need not
        # be monotone along the cuts
        if f0 or f1:
            todo = np.arange(2, len(A))
        top = 1     # the first block norms the trivial splittings in row 0
        while len(todo):
            for s in range(0, len(todo), rows):
                r = todo[s:s + rows]
                c = cuts[r - 2, None]
                lg = lh = fg = fh = None
                if k0 or k1:
                    # K(., g_c) is S - c t up to node j - 1, constant after
                    kg = np.multiply(c, grid.t)
                    np.subtract(S, kg, out=kg)
                    for row, jr in zip(kg, j[r - 2].tolist()):
                        row[jr:] = row[jr - 1]
                    np.clip(kg, 0.0, None, out=kg)
                    kg = repair_k(grid, kg)
                    if k1:
                        kh = np.subtract(S, kg)
                        np.clip(kh, 0.0, None, out=kh)
                        lh = _log_block(kh, top, logS)
                    if k0:
                        lg = _log_block(kg, top, logS)
                if f0:
                    fg = _block(len(r), top, f)
                    np.subtract(f, c, out=fg[top:])
                    np.maximum(fg[top:], 0.0, out=fg[top:])
                if f1:
                    fh = _block(len(r), top, f)
                    np.minimum(f, c, out=fh[top:])
                a = norm_in_space(KProfile(grid, lg, fg), Y0)
                b = norm_in_space(KProfile(grid, lh, fh), Y1)
                if top:
                    A[0], B[1], top = a[0], b[0], 0
                    a, b = a[1:], b[1:]
                A[r], B[r] = a, b
                normed[r] = True
            todo = _next_cuts(A, B, normed)
        ok = normed & np.isfinite(A) & np.isfinite(B)
        self.A, self.B = A[ok], B[ok]
        if not len(self.A):
            raise ValueError("no finite decomposition found: f outside Y0 + Y1")

    def k_at(self, tvals) -> np.ndarray:
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        return np.min(self.A + tvals[:, None] * self.B, axis=1)

    def k_at_log(self, xvals) -> np.ndarray:
        """log K at x = log t, robust to t outside float range."""
        xvals = np.atleast_1d(np.asarray(xvals, dtype=float))
        with np.errstate(divide="ignore"):
            la = np.log(self.A[None, :])
            lb = np.log(self.B[None, :])
        cand = np.logaddexp(la, xvals[:, None] + lb)
        return np.min(cand, axis=1)

    def profile(self) -> KProfile:
        k = repair_k(self.grid, self.k_at(self.grid.t))
        with np.errstate(divide="ignore"):
            return KProfile(self.grid, np.log(k), self.fstar)

    def trivial_gap(self, tvals) -> np.ndarray:
        """How much the cut family beats the trivial splittings alone."""
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        t = (self.A == 0.0) | (self.B == 0.0)
        triv = np.min(self.A[t] + tvals[:, None] * self.B[t], axis=1,
                      initial=math.inf)
        return triv / self.k_at(tvals)


def _block(m: int, top: int, first: np.ndarray) -> np.ndarray:
    """An empty block of top + m rows, its row 0 set to first if top."""
    out = np.empty((top + m, len(first)))
    out[:top] = first
    return out


def _log_block(k: np.ndarray, top: int, first: np.ndarray) -> np.ndarray:
    """log k, in place, or below the row first in a new block if top."""
    out = _block(len(k), top, first) if top else k
    with np.errstate(divide="ignore"):
        np.log(k, out=out[top:])
    return out


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-d array without NaN: its sorted distinct values.
    np.unique would import numpy.ma, whose import costs more than the
    first oracle's cut selection."""
    a = np.sort(a)
    keep = np.empty(len(a), bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _vertices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t = 0 and each t where the line attaining min(a + t b) changes."""
    o = np.lexsort((b, a))      # by a, keeping only each new lowest b
    o = o[b[o] < np.minimum.accumulate(np.r_[np.inf, b[o][:-1]])]
    a, b, hull, tv = a[o].tolist(), b[o].tolist(), [0], [0.0]
    for k in range(1, len(a)):  # lower hull: drop lines that never attain
        while (t := (a[k] - a[hull[-1]]) / (b[hull[-1]] - b[k])) <= tv[-1] \
                and len(hull) > 1:
            del hull[-1], tv[-1]
        hull.append(k)
        tv.append(t)
    return np.asarray(tv)


def _next_cuts(A, B, normed) -> np.ndarray:
    """Rows to norm next: midpoints of the gaps between normed cuts not
    dropped (see TruncationOracle), or all rows left if no pair is finite."""
    fin = normed & np.isfinite(A) & np.isfinite(B)
    if not fin.any():
        return np.flatnonzero(~normed)
    i, k = np.flatnonzero(normed)[:-1], np.flatnonzero(normed)[1:]
    i, k = i[k > i + 1], k[k > i + 1]
    keep = ~(fin[i] & fin[k])
    if not keep.all():
        tv = _vertices(A[fin], B[fin])
        env = np.min(A[fin] + tv[:, None] * B[fin], axis=1)
        keep[~keep] = ~np.all(A[i[~keep], None] + tv * B[k[~keep], None]
                              >= env, axis=1)
    return (i[keep] + k[keep]) // 2
