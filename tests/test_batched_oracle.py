"""The truncation oracle norms its cuts as (rows x n) stacks.

Every stacked path is checked against a one-at-a-time reference kept
here: the least-squares edge test against the np.polyfit rule it
replaced and against its form before the strip design was memoized,
stacked norms against the same norms row by row, and the
oracle's pairs and K against the per-cut loop.
"""

import math

import numpy as np
import pytest

from interpolab import corpus
from interpolab.grid import (GridFunction, Grid, RiSpace, L1, L2, LINF,
                             full_grid, unit_grid, lebesgue_prefix, rearrange,
                             checked_norm, edge_diverges, log_norm_between,
                             _final, _strip_design, _EDGE_PTOL, _EDGE_STOL)
from interpolab.sv import EllPow, ONE, NormTail
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, LLSpace, RRSpace, Intersection,
                               AppMember, Over, FULL, UNIT, contains)
from interpolab.kfun import (KProfile, k_peetre, norm_in_space,
                             TruncationOracle, repair_k, _distinct, _cut_cap)
from interpolab.applications import (GrandLp, SmallLp, UltraLp, LinfQBeta,
                                     GGamma, AType, BType, norm_app,
                                     get_scenario, scenario_names)
from interpolab.holmstedt import DEFAULT_CASES

from util import k_all_pairs, k_log_all_pairs


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# -- (a) edge test -------------------------------------------------------

def polyfit_rule(h, xa, xb, q):
    """The edge rule as first written: np.polyfit on one strip."""
    h = np.asarray(h, dtype=float)
    if np.isnan(h).any():
        return True
    if h[0] == -np.inf:
        return False
    if not np.all(np.isfinite(h)):
        return True
    xs = np.linspace(xa, xb, len(h))
    p, ca = np.polyfit(xs, h, 1)
    res_a = float(np.sum((h - (p * xs + ca)) ** 2))
    if min(abs(xa), abs(xb)) >= 2.0:
        u = np.log(np.abs(xs))
        sigma, cb = np.polyfit(u, h, 1)
        res_b = float(np.sum((h - (sigma * u + cb)) ** 2))
    else:
        sigma, res_b = 0.0, math.inf
    if res_b <= res_a:
        if math.isinf(q):
            return sigma > _EDGE_STOL
        return q * sigma >= -1.0
    slope = p * (1.0 if xa > xb else -1.0)
    if slope > _EDGE_PTOL:
        return True
    if slope < -_EDGE_PTOL:
        return False
    return not math.isinf(q)


def _strip_rows(x, rng):
    """Seeded log integrands on the nodes x, one per row."""
    ax = np.abs(x)
    ell = np.log1p(ax)
    rows = []
    for p in rng.uniform(-2.0, 2.0, 12):                  # power tails
        rows.append(p * x + rng.normal())
    for p in (2e-6, -2e-6, 5e-7, -5e-7, 1e-9):           # near-flat powers
        rows.append(p * x + rng.normal())
    for q in (1.0, 2.0, 4.0):                            # q sigma near -1
        for s in rng.uniform(-1.3, -0.7, 6) / q:
            rows.append(s * ell + rng.normal())
            rows.append(s * np.log(np.maximum(ax, 1e-3)))
    for c in rng.normal(size=4):                          # flat strips
        rows.append(np.full(x.shape, c))
        rows.append(c + 1e-13 * rng.normal(size=x.shape))
    for s in _EDGE_STOL + rng.uniform(-0.01, 0.01, 8):    # sup growth
        rows.append(s * ell)
        rows.append(s * np.log(np.maximum(ax, 1e-3)))
    for _ in range(6):                                    # rough data
        rows.append(np.cumsum(rng.normal(scale=0.1, size=x.shape)))
    bad = []
    for r in rows[:6]:
        head = r.copy()
        head[0] = head[-1] = -np.inf                      # empty edges
        bad.append(head)
        inner = r.copy()
        inner[len(r) // 2] = -np.inf                      # hole inside
        inner[1] = inner[-2] = -np.inf
        bad.append(inner)
        nan = r.copy()
        nan[3] = nan[-4] = np.nan
        bad.append(nan)
        both = head.copy()
        both[2] = both[-3] = np.nan
        bad.append(both)
        top = r.copy()
        top[0] = top[-1] = np.inf
        bad.append(top)
    return np.array(rows + bad)


@pytest.mark.parametrize("grid", [full_grid(512), unit_grid(1024),
                                  Grid(-750.0, 30.0, 4096)],
                         ids=["full512", "unit1024", "deep4096"])
def test_edge_kernel_matches_polyfit_rule(grid):
    rng = np.random.default_rng(20240611)
    stack = _strip_rows(grid.x, rng)
    dx = grid.dx
    k = max(2, int(math.ceil(math.log(2.0) / dx)))
    # the same nodes with both ends truncated, so that every edge of the
    # three grids runs the kernel
    cut = Grid(grid.x[0], grid.x[-1], grid.n)
    assert np.array_equal(cut.x, grid.x) and cut.dx == dx
    checked = 0
    for q in (1.0, 2.0, 4.0, math.inf):
        for side in ("low", "high"):
            x_edge = grid.x[0] if side == "low" else grid.x[-1]
            x_far = x_edge + k * dx if side == "low" else x_edge - k * dx
            got = edge_diverges(stack, q, cut, side)
            assert got.shape == (len(stack),)
            for row, g in zip(stack, got):
                h = row[:k + 1] if side == "low" else row[::-1][:k + 1]
                assert bool(g) == polyfit_rule(h, x_edge, x_far, q), \
                    (q, side, h)
                assert edge_diverges(row, q, cut, side) == g
                checked += 1
    assert checked == 8 * len(stack)


def test_checked_norm_on_sub_ranges():
    g = full_grid(1024)
    ell = np.log1p(np.abs(g.x))
    stack = np.stack([-2.0 * ell, -0.5 * ell, 0.5 * g.x, np.zeros(g.n)])
    for i0, i1 in ((0, g.n - 1), (0, g.n // 2), (g.n // 2, g.n - 1),
                   (5, 5), (0, 3)):
        seg = stack[:, i0:i1 + 1]
        div = np.zeros(len(stack), bool)
        if i1 > i0 and i0 == 0:
            div |= edge_diverges(seg, 1.0, g, "low")
        if i1 > i0 and i1 == g.n - 1:
            div |= edge_diverges(seg, 1.0, g, "high")
        want = np.where(div, math.inf, _final(
            log_norm_between(stack, 1.0, g.dx, i0, i1)))
        got = checked_norm(stack, 1.0, g, i0, i1)
        assert np.array_equal(bits(got), bits(want)), (i0, i1)
        for lw, w in zip(stack, want):
            out = checked_norm(lw, 1.0, g, i0, i1)
            assert type(out) is float and bits([out]) == bits([w])
    # over the whole line l^-2 converges, l^-1/2, t^1/2 (at infinity) and
    # 1 diverge; a range that stops short of both ends is never tested
    assert np.isinf(checked_norm(stack, 1.0, g)).tolist() == \
        [False, True, True, True]
    assert np.isfinite(checked_norm(stack, 1.0, g, 1, g.n - 2)).all()
    # t = 1 ends the unit grid: never tested, all False in the row shape
    u = unit_grid(1024)
    rows = np.stack([2.0 * u.x, np.zeros(u.n), np.full(u.n, np.nan)])
    for q in (1.0, math.inf):
        out = edge_diverges(rows.reshape(3, 1, u.n), q, u, "high")
        assert out.shape == (3, 1) and not out.any()


def _lsq_line_ref(u, h):
    """The least-squares line as first written: each call centres both
    its abscissae and its rows."""
    uc = u - u.mean()
    hc = h - h.mean(axis=-1, keepdims=True)
    slope = hc @ uc / (uc @ uc)
    r = hc - slope[..., None] * uc
    return slope, np.einsum("...i,...i->...", r, r)


def edge_diverges_ref(lw, q, grid, side):
    """The edge test before its strip design was memoized."""
    lw = np.asarray(lw, dtype=float)
    dx = grid.dx
    k = max(2, int(math.ceil(math.log(2.0) / dx)))
    low = side == "low"
    if not grid.truncated(side) or lw.shape[-1] - 1 <= k:
        return np.zeros(lw.shape[:-1], bool)
    if low:
        x_edge = grid.x[0]
        h, x_far = lw[..., :k + 1], x_edge + k * dx
    else:
        x_edge = grid.x[-1]
        h, x_far = lw[..., ::-1][..., :k + 1], x_edge - k * dx
    finite = np.isfinite(h).all(axis=-1)
    nan = np.isnan(h).any(axis=-1)
    hf = np.where(finite[..., None], h, 0.0)
    xs = np.linspace(x_edge, x_far, k + 1)
    p, res_a = _lsq_line_ref(xs, hf)
    if min(abs(x_edge), abs(x_far)) >= 2.0:
        sigma, res_b = _lsq_line_ref(np.log(np.abs(xs)), hf)
    else:
        sigma, res_b = np.zeros_like(p), np.full_like(p, math.inf)
    slope = p if x_edge > x_far else -p
    if math.isinf(q):
        div = np.where(res_b <= res_a, sigma > _EDGE_STOL,
                       slope > _EDGE_PTOL)
    else:
        div = np.where(res_b <= res_a, q * sigma >= -1.0,
                       slope >= -_EDGE_PTOL)
    return nan | (~finite & (h[..., 0] != -np.inf)) | (finite & div)


# strips whose nodes keep |x| >= 2 (both models fit), and strips that
# reach |x| < 2 at one end or at both (the power model alone)
EDGE_GRIDS = {"full512": full_grid(512), "unit1024": unit_grid(1024),
              "straddle": Grid(-2.3, 2.4, 300),
              "near0": Grid(-1.0, 1.0, 257),
              "unit-short": unit_grid(300, t_min=0.05)}


@pytest.mark.parametrize("name", EDGE_GRIDS)
def test_memoized_edge_test_matches_the_unmemoized_one(name):
    grid = EDGE_GRIDS[name]
    rng = np.random.default_rng(20261019)
    stack = _strip_rows(grid.x, rng)
    k = max(2, int(math.ceil(math.log(2.0) / grid.dx)))
    cube = stack[:len(stack) // 2 * 2].reshape(2, -1, grid.n)
    for q in (1.0, 2.0, 3.5, math.inf):
        for side in ("low", "high"):
            want = edge_diverges_ref(stack, q, grid, side)
            got = edge_diverges(stack, q, grid, side)
            assert got.dtype == bool and np.array_equal(got, want)
            for row, w in zip(stack, want):
                assert edge_diverges(row, q, grid, side) == w
            assert np.array_equal(edge_diverges(cube, q, grid, side),
                                  edge_diverges_ref(cube, q, grid, side))
            if not grid.truncated(side):
                assert not got.any()
            # segments no longer than the strip are never tested
            for m in (k, k + 1, k + 2):
                seg = stack[:, :m] if side == "low" else stack[:, -m:]
                assert np.array_equal(edge_diverges(seg, q, grid, side),
                                      edge_diverges_ref(seg, q, grid, side))
        # checked_norm on [0, i1], i1 < n - 1: the low end alone is tested
        for i1 in (k + 1, grid.n // 2, grid.n - 2):
            seg = stack[:, :i1 + 1]
            div = edge_diverges_ref(seg, q, grid, "low")
            with np.errstate(invalid="ignore"):
                want = np.where(div, math.inf, _final(
                    log_norm_between(stack, q, grid.dx, 0, i1)))
                got = checked_norm(stack, q, grid, 0, i1)
            assert np.array_equal(bits(got), bits(want)), (q, i1)


def test_strip_design_is_memoized_and_read_only():
    g = full_grid(512)
    lw = -2.0 * np.log1p(np.abs(g.x))
    edge_diverges(lw, 1.0, g, "low")
    before = _strip_design.cache_info()
    edge_diverges(lw, 2.0, g, "low")
    edge_diverges(lw[None], 1.0, g, "low")
    after = _strip_design.cache_info()
    assert after.hits == before.hits + 2
    assert after.currsize == before.currsize
    k = max(2, int(math.ceil(math.log(2.0) / g.dx)))
    for x_edge, x_far in ((g.x[0], g.x[0] + k * g.dx),
                          (-1.0, -1.0 + k * g.dx)):
        ua, saa, ub, sbb = _strip_design(float(x_edge), float(x_far), k)
        assert ua.shape == (k + 1,)
        for a in (ua, ub):
            if a is None:
                continue
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    # the strip at x = -1 reaches |x| < 2: no |log t|^sigma model there
    assert ub is None and sbb is None


@pytest.mark.parametrize("name", EDGE_GRIDS)
def test_both_ends_in_one_edge_call_is_the_or_of_the_two(name):
    # unit1024 and unit-short end at t = 1: their high end is never
    # tested, so "both" is the low end alone there
    grid = EDGE_GRIDS[name]
    stack = _strip_rows(grid.x, np.random.default_rng(20261020))
    finite = stack[np.isfinite(stack).all(axis=1)]  # the skip path
    cube = stack[:len(stack) // 2 * 2].reshape(2, -1, grid.n)
    k = max(2, int(math.ceil(math.log(2.0) / grid.dx)))
    for q in (1.0, 2.0, 3.5, math.inf):
        for lw in (stack, finite, cube, stack[0], stack[-1],
                   stack[:, :k + 1], stack[:, :k + 2]):
            want = edge_diverges(lw, q, grid, "low") | \
                edge_diverges(lw, q, grid, "high")
            got = edge_diverges(lw, q, grid, "both")
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == bool
            assert np.array_equal(got, want), q
            ref = edge_diverges_ref(lw, q, grid, "low") | \
                edge_diverges_ref(lw, q, grid, "high")
            assert np.array_equal(got, ref), q
            if not grid.truncated("high"):
                assert np.array_equal(got, edge_diverges(lw, q, grid, "low"))
        for row, w in zip(stack, edge_diverges(stack, q, grid, "both")):
            assert edge_diverges(row, q, grid, "both") == w
        # checked_norm over every node: one call tests both ends
        div = edge_diverges_ref(stack, q, grid, "low") | \
            edge_diverges_ref(stack, q, grid, "high")
        with np.errstate(invalid="ignore"):
            want = np.where(div, math.inf, _final(
                log_norm_between(stack, q, grid.dx, 0, grid.n - 1)))
            got = checked_norm(stack, q, grid)
        assert np.array_equal(bits(got), bits(want)), q


# -- (b) stacked norms ---------------------------------------------------

def _stack(grid, specs):
    """Peetre profiles of several prototypes, stacked row-wise."""
    fs = [corpus.sample(s, grid).values for s in specs]
    ks = [k_peetre(GridFunction(grid, f)).logk for f in fs]
    return np.array(ks), np.array(fs)


def _rowwise(grid, logk, fstar, d):
    return [norm_in_space(KProfile(grid, lk, fs), d)
            for lk, fs in zip(logk, fstar)]


FULL_DESCRIPTORS = [
    EndpointX0(), EndpointX1(),
    ThetaSpace(0.5, EllPow(0.5), L2),
    ThetaSpace(0.0, EllPow(-1.0), L1),
    ThetaSpace(1.0, ONE, LINF),
    LSpace(0.25, EllPow(-0.5), LINF, ONE, L2),
    RSpace(0.5, EllPow(-0.5), LINF, ONE, L2),
    RSpace(0.5, ONE, LINF, EllPow(-1.0), L1),
    LLSpace(0.25, EllPow(-0.5), L2, ONE, L2, ONE, L1),
    RRSpace(0.5, ONE, LINF, EllPow(-0.5), LINF, ONE, L2),
    Intersection((ThetaSpace(0.5, ONE, L2),
                  RSpace(0.5, ONE, LINF, ONE, L2))),
    ThetaSpace(0.5, NormTail(EllPow(-0.5), L1, "lower"), L2),
]


@pytest.mark.parametrize("d", FULL_DESCRIPTORS,
                         ids=lambda d: type(d).__name__)
def test_stacked_norm_in_space_matches_rows(d):
    g = full_grid(512)
    logk, fstar = _stack(g, corpus.STANDARD)
    got = norm_in_space(KProfile(g, logk, fstar), d)
    want = _rowwise(g, logk, fstar, d)
    assert got.shape == (len(corpus.STANDARD),)
    assert np.array_equal(bits(got), bits(want))
    assert all(type(v) is float for v in want)


APP_SPACES = [
    GrandLp(2.0, 1.0), GrandLp(4.0, 1.0),
    SmallLp(2.0, 1.0),
    UltraLp(2.0, ONE, L2), UltraLp(8.0 / 3.0, EllPow(-0.125), L2),
    LinfQBeta(2.0, -1.0), LinfQBeta(math.inf, 0.0),
    GGamma(2.0, 2.0, -1.0, EllPow(-3.0), 0.0, ONE),
    GGamma(2.0, 3.0, -1.0, EllPow(-3.0), 0.0, EllPow(0.5)),
    AType(4.0, 0.0, L2), BType(2.0, 0.0, L2),
]


@pytest.mark.parametrize("space", APP_SPACES,
                         ids=lambda s: type(s).__name__)
def test_stacked_app_norms_match_rows(space):
    g = unit_grid(512)
    specs = corpus.STANDARD + ("pow:1.5", "powlog:2,-3")
    logk, fstar = _stack(g, specs)
    # the oracle's cut pieces (f* - c)_+ and min(f*, c) as extra rows
    f = corpus.sample("pow:4", g).values
    cs = np.unique(f[f > 0])[::-40][:, None]
    fstar = np.vstack([fstar, np.maximum(f - cs, 0.0), np.minimum(f, cs)])
    got = norm_app(space, GridFunction(g, fstar))
    want = [norm_app(space, GridFunction(g, row)) for row in fstar]
    assert np.array_equal(bits(got), bits(want))
    assert all(type(v) is float for v in want)
    member = AppMember(space, UNIT)
    got = norm_in_space(KProfile(g, logk, fstar[:len(specs)]), member)
    assert np.array_equal(bits(got), bits(want[:len(specs)]))


def test_final_is_math_exp_value_by_value():
    # reports print repr(float): np.exp on an array may differ from
    # math.exp in the last bit, so stacked norms must not use it
    rng = np.random.default_rng(7)
    logv = np.concatenate([rng.uniform(-700.0, 699.0, 4000),
                           [-np.inf, 700.0, 800.0, np.inf, np.nan]])
    want = [0.0 if v == -np.inf else math.exp(v) if v < 700 else math.inf
            for v in logv.tolist()]
    assert np.array_equal(bits(_final(logv)), bits(want))
    assert np.array_equal(bits(_final(logv.reshape(5, -1))),
                          bits(np.reshape(want, (5, -1))))


def test_stacked_lebesgue_integrals_match_rows():
    g = unit_grid(512)
    _, fstar = _stack(g, corpus.STANDARD)
    stacked = lebesgue_prefix(fstar, g)
    for row, f in zip(stacked, fstar):
        assert np.array_equal(bits(row), bits(lebesgue_prefix(f, g)))


# -- (c) oracle against the per-cut loop ---------------------------------

def per_cut_oracle(fstar, Y0, Y1, max_cuts):
    """(A, B) built one cut at a time with 1-D norms."""
    grid = fstar.grid
    f = fstar.values
    S = repair_k(grid, lebesgue_prefix(f, grid))
    t = grid.t
    cuts = np.unique(f[f > 0])[::-1]
    if max_cuts is not None and len(cuts) > max_cuts:
        idx = np.unique(np.linspace(0, len(cuts) - 1, max_cuts).astype(int))
        cuts = cuts[idx]
    A, B = [], []
    with np.errstate(divide="ignore"):
        kp = KProfile(grid, np.log(S), f)
    a0, b0 = norm_in_space(kp, Y0), norm_in_space(kp, Y1)
    if math.isfinite(a0):
        A.append(a0)
        B.append(0.0)
    if math.isfinite(b0):
        A.append(0.0)
        B.append(b0)
    for c in cuts:
        j = int(np.searchsorted(-f, -c, side="left"))
        if j <= 0:
            continue
        kg = np.where(np.arange(grid.n) < j, S - c * t,
                      S[j - 1] - c * t[j - 1])
        kg = repair_k(grid, np.clip(kg, 0.0, None))
        kh = np.clip(S - kg, 0.0, None)
        with np.errstate(divide="ignore"):
            a = norm_in_space(
                KProfile(grid, np.log(kg), np.maximum(f - c, 0.0)), Y0)
            b = norm_in_space(
                KProfile(grid, np.log(kh), np.minimum(f, c)), Y1)
        if math.isfinite(a) and math.isfinite(b):
            A.append(a)
            B.append(b)
    if not A:
        raise ValueError("no finite decomposition found: f outside Y0 + Y1")
    return np.asarray(A), np.asarray(B)


def same_as_per_cut(fstar, Y0, Y1, max_cuts):
    """Both builds fail alike, or give the same K bit for bit.

    The oracle norms only the cuts that can attain K, so its A/B are
    the per-cut loop's pairs with some cuts left out: the trivial
    splittings first, then a subsequence of the cut pairs, each equal
    bit for bit to the loop's value for that cut.  k_at on the grid and
    k_at_log on a range wider than it equal the envelope of all the
    loop's pairs.  Returns the loop's len(A).
    """
    try:
        A, B = per_cut_oracle(fstar, Y0, Y1, max_cuts)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e).replace("+", r"\+")):
            TruncationOracle(k_peetre(fstar), Y0, Y1, max_cuts=max_cuts)
        return 0
    orc = TruncationOracle(k_peetre(fstar), Y0, Y1, max_cuts=max_cuts)
    triv = int(np.sum((A == 0.0) | (B == 0.0)))
    assert np.array_equal(bits(orc.A[:triv]), bits(A[:triv]))
    assert np.array_equal(bits(orc.B[:triv]), bits(B[:triv]))
    rest = iter(zip(bits(A[triv:]).tolist(), bits(B[triv:]).tolist()))
    for pair in zip(bits(orc.A[triv:]).tolist(), bits(orc.B[triv:]).tolist()):
        assert pair in rest     # consumes the loop's pairs up to a match
    g = fstar.grid
    xs = np.linspace(g.x[0] - 40.0, g.x[-1] + 40.0, 1001)
    assert np.array_equal(bits(orc.k_at(g.t)), bits(k_all_pairs(A, B, g.t)))
    assert np.array_equal(bits(orc.k_at_log(xs)),
                          bits(k_log_all_pairs(A, B, xs)))
    return len(A)


@pytest.mark.parametrize("kind", sorted(DEFAULT_CASES))
def test_oracle_matches_per_cut_loop(kind):
    g = full_grid(512)
    c = DEFAULT_CASES[kind]
    y0, y1 = c.y0, c.y1
    built = [same_as_per_cut(corpus.sample(spec, g), y0, y1, 128)
             for spec in corpus.STANDARD]
    assert max(built) > 100     # some prototype hits the cut cap


def test_oracle_matches_per_cut_loop_on_app_members():
    sc = get_scenario("small-grand-interior")
    g = unit_grid(512)
    f = corpus.sample("pow:4", g)
    assert same_as_per_cut(f, *sc.lhs.couple, 192) > 2


def test_oracle_matches_per_cut_loop_with_an_intersection_member():
    # an Intersection member reads what its members read: log K for two
    # K-normed members, log K and f* with an app member among them
    g = full_grid(512)
    y0 = ThetaSpace(0.25, EllPow(0.5), L2)
    y1 = Intersection((ThetaSpace(0.75, ONE, L2),
                       RSpace(0.75, ONE, LINF, ONE, L2)))
    built = {spec: same_as_per_cut(corpus.sample(spec, g), y0, y1, 128)
             for spec in corpus.STANDARD}
    assert min(built[s] for s in ("pow:2", "powlog:2,1", "log:2")) > 60
    g = unit_grid(512)
    y0 = ThetaSpace(0.25, EllPow(0.5), L2, UNIT)
    y1 = Intersection((AppMember(GrandLp(4.0, 1.0)),
                       ThetaSpace(0.9, ONE, L2, UNIT)))
    assert same_as_per_cut(corpus.sample("pow:4", g), y0, y1, 128) > 2


def _identity_couples():
    """The first scenario of each (couple, corpus) of the identities
    whose lhs is an Over: every couple has an app member."""
    first = {}
    for name in scenario_names():
        sc = get_scenario(name)
        if isinstance(sc.lhs, Over):
            assert any(contains(y, AppMember) for y in sc.lhs.couple)
            first.setdefault((sc.lhs.couple, sc.corpus), name)
    return sorted(first.values())


@pytest.mark.parametrize("name", _identity_couples())
def test_oracle_matches_per_cut_loop_on_identity_couples(name):
    sc = get_scenario(name)
    built = []
    for log2n in (9, 10):
        g = Grid.from_bounds(None, None, 1 << log2n, sc.lhs.setting)
        built += [same_as_per_cut(corpus.sample(spec, g), *sc.lhs.couple,
                                  _cut_cap(g)) for spec in sc.corpus]
    # chi corpora have one cut: their pairs may be the trivial ones
    assert max(built) >= 2


def test_oracle_blocks_span_large_grids():
    # at n = 2^14 a block holds 4 cut rows: many blocks, same answer
    g = full_grid(1 << 14)
    c = DEFAULT_CASES["R_interior"]
    y0, y1 = c.y0, c.y1
    f = corpus.sample("pow:2", g)
    assert same_as_per_cut(f, y0, y1, 9) > 4


def test_oracle_norms_only_cuts_that_can_attain_k(monkeypatch):
    # no cut of pow:2 beats the trivial splittings of the R_interior
    # couple at any node: rounds of midpoints stop after a few cuts
    g = full_grid(1 << 12)
    c = DEFAULT_CASES["R_interior"]
    y0, y1 = c.y0, c.y1
    f = corpus.sample("pow:2", g)
    normed = []

    def counting(K, d):
        if d is y0 and np.ndim(K.logk) == 2:
            normed.append(len(K.logk))
        return norm_in_space(K, d)

    monkeypatch.setattr("interpolab.kfun.norm_in_space", counting)
    orc = TruncationOracle(k_peetre(f), y0, y1, max_cuts=128)
    assert 0 < len(orc.A) - 2 <= sum(normed) <= 32
    monkeypatch.undo()
    assert same_as_per_cut(f, y0, y1, 128) > 100


def test_oracle_matches_per_cut_loop_past_dropped_top_cuts():
    # the edge rule drops 8 top cuts of pow:2 in (X0, X1): pruning never
    # reaches across them, and every other cut attains K somewhere; of
    # the trivial splittings only (0, ||f||_{Linf}) is finite
    g = full_grid(512)
    f = corpus.sample("pow:2", g)
    n_values = len(np.unique(f.values[f.values > 0]))
    kept = same_as_per_cut(f, EndpointX0(), EndpointX1(), None)
    assert kept == 1 + (n_values - 1) - 8
    orc = TruncationOracle(k_peetre(f), EndpointX0(), EndpointX1())
    assert len(orc.A) == kept


def _steps(grid, m, seed):
    """A seeded step f* with m distinct values on (0, a), a <= 1: its
    breaks fall on distinct nodes, so every value holds over a run of
    nodes, and it vanishes past a."""
    rng = np.random.default_rng(seed)
    end = grid.index_of(float(np.exp(rng.uniform(math.log(0.05), 0.0))))
    breaks = np.sort(rng.choice(np.arange(1, end), m - 1, replace=False))
    vals = np.sort(np.exp(rng.uniform(0.0, math.log(1000.0), m)))[::-1]
    f = np.zeros(grid.n)
    f[:end] = np.repeat(vals, np.diff(np.r_[0, breaks, end]))
    return GridFunction(grid, f)


@pytest.mark.parametrize("kind", ["L_interior", "R_interior"])
def test_oracle_matches_per_cut_loop_on_many_steps(kind):
    # 600 distinct values at n = 2^14: the capped 128 cuts go in blocks
    # of 4 rows, and the K/t repair of a block scans only its first few
    # nodes, where K/t of the flat head of f* wobbles by an ulp
    g = full_grid(1 << 14)
    f = _steps(g, 600, 20240618)
    assert len(np.unique(f.values[f.values > 0])) == 600
    c = DEFAULT_CASES[kind]
    assert same_as_per_cut(f, c.y0, c.y1, 128) > 100


# -- (d) each piece once -------------------------------------------------

def _spy_norms(monkeypatch):
    """The oracle's norm_in_space calls, as (descriptor, profile)."""
    calls = []

    def spy(K, d):
        calls.append((d, K))
        return norm_in_space(K, d)

    monkeypatch.setattr("interpolab.kfun.norm_in_space", spy)
    return calls


def test_over_row_integrates_its_fstar_once_per_grid(monkeypatch):
    # the row's k_peetre profile hands its K to the Over's oracle: no
    # second lebesgue_prefix on the same f*
    from interpolab import applications, kfun
    calls = []

    def counting(values, grid):
        calls.append((grid.n, np.array(values)))
        return lebesgue_prefix(values, grid)

    monkeypatch.setattr(kfun, "lebesgue_prefix", counting)
    monkeypatch.setattr(applications, "lebesgue_prefix", counting)
    name, spec = "grand-vs-ultra-theta0", "pow:4"
    sc = get_scenario(name)
    assert isinstance(sc.lhs, Over)
    rep = applications.verify_identity(name, log2n=(9, 10), corpus=(spec,))
    assert rep.n_rows == 2
    for n in (512, 1024):
        f = corpus.sample(spec, unit_grid(n)).values
        on_f = [v for m, v in calls if m == n and np.array_equal(v, f)]
        assert len(on_f) == 1, n


def test_oracle_over_two_app_members_takes_no_log_k(monkeypatch):
    sc = get_scenario("small-grand-interior")
    assert all(isinstance(y, AppMember) for y in sc.lhs.couple)
    repairs = []

    def counting(grid, k):
        repairs.append(np.ndim(k))
        return repair_k(grid, k)

    monkeypatch.setattr("interpolab.kfun.repair_k", counting)
    calls = _spy_norms(monkeypatch)
    g = unit_grid(512)
    TruncationOracle(k_peetre(corpus.sample("pow:4", g)), *sc.lhs.couple,
                     max_cuts=192)
    assert calls and repairs.count(2) == 0
    for _, K in calls:
        assert K.logk is None and np.ndim(K.fstar) == 2


def test_mixed_couple_builds_each_member_only_its_pieces(monkeypatch):
    # llogl-grand: Y0 = (theta = 0, L1) is normed from K, Y1 = grand(4, 1)
    # from f*
    y0, y1 = get_scenario("llogl-grand").lhs.couple
    assert isinstance(y1, AppMember) and not isinstance(y0, AppMember)
    calls = _spy_norms(monkeypatch)
    g = unit_grid(512)
    f = corpus.sample("pow:4", g)
    TruncationOracle(k_peetre(f), y0, y1, max_cuts=192)
    assert {d for d, _ in calls} == {y0, y1}
    for d, K in calls:
        if d is y0:
            assert K.fstar is None and np.ndim(K.logk) == 2
        else:
            assert K.logk is None and np.ndim(K.fstar) == 2


@pytest.mark.parametrize("couple,spec,n", [
    ("R_interior", "pow:2", 1 << 12),       # rounds of pruned cuts
    ("L_interior", "powlog:2,1", 512),
    ("small-grand-interior", "pow:4", 512),   # every cut, two blocks
    ("llogl-grand", "log:1", 1024),
], ids=lambda v: str(v))
def test_oracle_norms_each_member_once_per_block(monkeypatch, couple, spec,
                                                 n):
    if couple in DEFAULT_CASES:
        y0, y1 = DEFAULT_CASES[couple].y0, DEFAULT_CASES[couple].y1
        g = full_grid(n)
    else:
        y0, y1 = get_scenario(couple).lhs.couple
        g = unit_grid(n)
    calls = _spy_norms(monkeypatch)
    f = corpus.sample(spec, g)
    orc = TruncationOracle(k_peetre(f), y0, y1, max_cuts=_cut_cap(g))
    rows = max(2, (1 << 16) // n)
    assert [d for d, _ in calls] == [y0, y1] * (len(calls) // 2)
    sizes = [len(K.logk if K.logk is not None else K.fstar)
             for _, K in calls]
    assert sizes[0::2] == sizes[1::2]           # one call per member
    # the first block carries the trivial splittings in one more row
    assert 2 <= sizes[0] <= rows + 1
    assert all(1 <= m <= rows for m in sizes[2::2])
    assert len(orc.A) <= sum(sizes[0::2]) + 1


# -- (e) cut cap and errors ----------------------------------------------

@pytest.mark.parametrize("a", [
    np.array([3.0, -1.5, 3.0, 0.0, -0.0, 2.5, 1e-300, np.inf, -np.inf, 3.0]),
    np.random.default_rng(3).integers(-5, 5, 40),
    np.random.default_rng(4).lognormal(0.0, 2.0, 300),
    np.array([7.0]), np.empty(0), np.empty(0, int)])
def test_distinct_is_unique(a):
    got, want = _distinct(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_cuts", [1, 2, 7, 28, 29, 64, None])
def test_max_cuts_cap(max_cuts):
    g = full_grid(512)
    # a step f* whose every cut has finite norms in both endpoints
    f = rearrange(np.linspace(1.0, 40.0, 40), np.full(40, 0.025), g)
    n_values = len(np.unique(f.values[f.values > 0]))
    assert n_values == 29
    # the cap keeps evenly spaced values, the top one among them; the
    # top value is no cut, and the two trivial splittings come first
    cap = n_values if max_cuts is None else min(max_cuts, n_values)
    assert same_as_per_cut(f, EndpointX0(), EndpointX1(), max_cuts) \
        == 2 + cap - 1


def test_oracle_errors():
    g = full_grid(512)
    f = GridFunction(g, np.exp(-1.5 * g.x))   # t^-3/2: not in L1 + Linf
    with pytest.raises(ValueError, match="not locally integrable"):
        TruncationOracle(k_peetre(f), EndpointX0(), EndpointX1())
    # the theta = 0 L~1 norm of any nonzero K diverges at infinity
    y = ThetaSpace(0.0, ONE, RiSpace(1.0), FULL)
    with pytest.raises(ValueError, match="no finite decomposition"):
        TruncationOracle(k_peetre(corpus.sample("pow:2", g)), y, y,
                         max_cuts=16)
