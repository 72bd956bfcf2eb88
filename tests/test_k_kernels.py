"""The K-functional kernels against the formulas they replaced, bit for bit.

_segment_integrals gives each cell one rule (flat cells in closed form,
the power law on the curved span, the trapezoid where neither applies),
the monotone repairs (repair_k, the rearrangement repair of
corpus.sample) skip their running scans when the input is already in
order and otherwise scan only the stretch out of order, k_peetre runs
only the K(t)/t repair, and the pow, powlog and log samplers evaluate
their formula only on the nodes with t <= 1.  The references below are
the np.where and always-scan forms of the same formulas; every stack
compares byte for byte, except that a tie between 0.0 and -0.0 may
differ in the sign of the zero.
"""

import math
import warnings

import numpy as np
import pytest

from interpolab.corpus import STANDARD, parse_fn, sample
from interpolab.grid import (Grid, GridFunction, _running,
                             _segment_integrals, full_grid, lebesgue_prefix,
                             unit_grid)
from interpolab.kfun import k_peetre, repair_k


def segment_integrals_ref(values, grid):
    t = grid.t
    v0, v1 = values[..., :-1], values[..., 1:]
    dx = grid.dx
    both = (v0 > 0) & (v1 > 0)
    out = 0.5 * (v0 + v1) * (t[1:] - t[:-1])
    if np.any(both):
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.where(both, np.log(np.where(both, v1 / v0, 1.0)) / dx,
                             0.0)
        p = gamma + 1.0
        flat = np.abs(p) < 1e-12
        with np.errstate(over="ignore", invalid="ignore"):
            pw = np.where(flat, dx, np.expm1(dx * np.where(flat, 1.0, p))
                          / np.where(flat, 1.0, p))
        cand = v0 * t[:-1] * pw
        out = np.where(both & np.isfinite(cand), cand, out)
    return out


def repair_k_ref(grid, k):
    k = np.maximum.accumulate(k, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.minimum.accumulate(k / grid.t, axis=-1)
        k = np.minimum(k, slope * grid.t)
    return k


def sample_ref(spec, grid):
    vals = parse_fn(spec)[1](grid.x)
    return np.maximum.accumulate(vals[::-1])[::-1]


def assert_bits(got, ref, zero_sign=False):
    """Byte-identical; with zero_sign, 0.0 and -0.0 count as one value."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    if zero_sign:
        got = np.where(got == 0.0, 0.0, got)
        ref = np.where(ref == 0.0, 0.0, ref)
    assert got.tobytes() == ref.tobytes()


GRID = full_grid(512)


def _fstar_rows(rng, rows):
    """Nonincreasing positive samples, one f* per row."""
    return np.sort(rng.lognormal(0.0, 3.0, (rows, GRID.n)), axis=-1)[:, ::-1]


def segment_stacks():
    rng = np.random.default_rng(20240611)
    t = GRID.t
    fstar = _fstar_rows(rng, 8)
    zeros = fstar.copy()
    zeros[:, 300:] = 0.0                       # chi-like tails
    zeros[1, 100:140:3] = 0.0                  # isolated zero nodes
    zeros[2, :50] = 0.0
    flat = rng.uniform(0.1, 10.0, (4, 1)) / t  # v ~ 1/t: p = 0 cells
    flat[1, 200:] = 3.0                        # a power change mid-row
    # cells with p on both sides of the 1e-12 flat threshold
    ps = np.resize([5e-13, 2e-12, -5e-13, -2e-12, 0.9e-12, 1.1e-12],
                   GRID.n - 1)
    flat[2] = np.exp(np.concatenate([[0.0], np.cumsum((ps - 1.0) *
                                                      GRID.dx)]))
    huge = fstar[:4].copy()
    huge[0, 10] = 1e300                        # ratio overflows
    huge[1, 500] = 1e300                       # v0 t overflows
    huge[2, 20:22] = 1e300
    huge[3, 30] = 1e-300                       # ratio underflows
    special = fstar[:6].copy()
    special[0, 7] = np.nan
    special[1, 40] = np.inf
    special[2, 41:45] = np.inf
    special[3, 3] = -np.inf
    special[4, 90] = -2.0
    special[5, ::17] = -0.0
    mixed = rng.standard_normal((6, GRID.n)) * 10.0 ** rng.integers(
        -200, 200, (6, GRID.n))
    # rows positive over different spans, one all zero: the power law
    # runs over the cells from the first to the last positive one
    spans = fstar[:5].copy()
    spans[0, 100:] = 0.0
    spans[1, :60] = 0.0
    spans[1, 400:] = 0.0
    spans[2, :300] = 0.0
    spans[3] = 0.0
    spans[4, :250] = 0.0
    spans[4, 260:] = 0.0
    one_cell = np.zeros((3, GRID.n))
    one_cell[0, 200:202] = (3.0, 2.0)          # one positive cell
    one_cell[1, 203] = 5.0                     # positive, no cell
    last_cell = np.zeros((2, GRID.n))
    last_cell[0, -2:] = (4.0, 1.0)
    last_cell[1, :2] = (4.0, 1.0)
    # step f*: flat cells, a curved cell at each jump, zeros past the end
    chi = np.stack([sample(s, GRID).values
                    for s in ("chi:0.001", "chi:0.3", "chi:1")])
    steps = _step_rows(rng, 4)
    # oracle cut pieces: min(f*, c) is flat up to its cut, (f* - c)_+
    # vanishes past it
    pw = sample("pow:2", GRID).values
    cuts = np.unique(pw[pw > 0])[::-1][[1, 40, 120, 200, 250]][:, None]
    # flat runs beside curved cells in one row, at both ends of the span
    runs = fstar[0].copy()
    runs[:40] = runs[40]
    runs[100:160] = runs[100]
    runs[300:] = runs[300]
    runs[420:] = 0.0
    return {"fstar": fstar, "zeros": zeros, "flat": flat, "huge": huge,
            "special": special, "mixed": mixed,
            "all-zero": np.zeros((2, GRID.n)),
            "one-row": fstar[0], "spans": spans, "one-cell": one_cell,
            "one-cell-row": one_cell[0], "last-cell": last_cell,
            "chi": chi, "chi-row": chi[1], "chi-one-row-stack": chi[1:2],
            "steps": steps, "steps-row": steps[0],
            "min-pieces": np.minimum(pw, cuts),
            "minus-pieces": np.maximum(pw - cuts, 0.0),
            "step-pieces": np.minimum(steps[0], np.unique(steps[0])[1:,
                                                                   None]),
            "flat-beside-curved": runs,
            "flat-spans": np.stack([runs, steps[1], chi[0], spans[2],
                                    np.zeros(GRID.n)])}


def _step_rows(rng, rows):
    """Nonincreasing steps with seeded heights and jumps, zero past a
    seeded end, as a csv prototype samples them."""
    out = np.zeros((rows, GRID.n))
    for row in out:
        jumps = np.sort(rng.choice(np.arange(1, 400), 6, replace=False))
        heights = np.sort(rng.lognormal(0.0, 2.0, 6))[::-1]
        for j0, j1, h in zip(jumps[:-1], jumps[1:], heights):
            row[j0:j1] = h
        row[:jumps[0]] = heights[0] * 2.0
    return out


@pytest.mark.parametrize("name", list(segment_stacks()))
def test_segment_integrals_bit_for_bit(name):
    stack = segment_stacks()[name]
    with np.errstate(all="ignore"):
        ref = segment_integrals_ref(stack, GRID)
    assert_bits(_segment_integrals(stack, GRID), ref)


def _edge_grid_cases():
    """(grid, stack) pairs beyond GRID: equal neighbours at 1e300 whose
    closed form v0 t_j expm1(dx) overflows while the trapezoid does not,
    and a grid whose last nodes have t = inf."""
    near_max = Grid.from_bounds(1e-9, 1e9, 600)
    big = np.full((3, near_max.n), 1e300)
    big[1, 500:] = 0.0
    big[2, 300:] = 2e300
    big[2, 590:] = 1.7e308
    inf_t = Grid(600.0, 720.0, 200)
    assert inf_t.t[-1] == math.inf and np.isfinite(inf_t.t[:-20]).all()
    tail = np.zeros((4, inf_t.n))
    tail[0, :100] = 1.0
    tail[1, :] = 1e-300
    tail[2, 150:] = 0.0
    tail[3, ::3] = 1.0
    return {"near-float-max": (near_max, big),
            "near-float-max-row": (near_max, big[2]),
            "last-t-inf": (inf_t, tail), "last-t-inf-row": (inf_t, tail[1])}


@pytest.mark.parametrize("name", list(_edge_grid_cases()))
def test_segment_integrals_on_edge_grids(name):
    grid, stack = _edge_grid_cases()[name]
    with np.errstate(all="ignore"):
        ref = segment_integrals_ref(stack, grid)
    assert_bits(_segment_integrals(stack, grid), ref)


def test_segment_integrals_near_float_max_warn_nothing():
    # the trapezoid's sum of two samples near 1e308 overflows, and so
    # does K's cumsum; both are expected and silenced like the power
    # law's overflow
    grid, stack = _edge_grid_cases()["near-float-max"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _segment_integrals(stack, grid)
        k = lebesgue_prefix(stack, grid)
        with pytest.raises(ValueError, match="not locally integrable"):
            k_peetre(GridFunction(grid, stack))
    assert (got[2, 590:] == math.inf).all()
    assert np.isfinite(got[:2]).all()
    assert k[0, -1] == math.inf        # the sum of finite cells overflows


@pytest.mark.parametrize("grid", [full_grid(14), unit_grid(13),
                                  full_grid(38)],
                         ids=["full14", "unit13", "full38"])
def test_flat_cells_take_expm1_of_an_array(grid):
    # where numpy's vectorised expm1 is not the C library's (SVML on
    # AVX-512 hosts), math.expm1(dx) differs from it in the last bit on
    # these grids; the power law at p = 1 takes numpy's
    rows = np.stack([sample("chi:1", grid).values,
                     np.full(grid.n, 3.0), np.linspace(2.0, 1.0, grid.n)])
    for stack in (rows, rows[0], rows[1]):
        with np.errstate(all="ignore"):
            ref = segment_integrals_ref(stack, grid)
        assert_bits(_segment_integrals(stack, grid), ref)


def test_segment_integrals_flat_cells_are_dx():
    v = 2.0 / GRID.t
    with np.errstate(all="ignore"):
        p = np.log(v[1:] / v[:-1]) / GRID.dx + 1.0
    assert (np.abs(p) < 1e-12).any()
    got = _segment_integrals(v, GRID)
    np.testing.assert_allclose(got, 2.0 * GRID.dx, rtol=1e-12)


def _k_rows(rng, rows):
    """Nondecreasing K with K/t nonincreasing: cumulative sums of f*."""
    f = _fstar_rows(rng, rows)
    return np.cumsum(f * np.gradient(GRID.t), axis=-1)


def repair_stacks():
    rng = np.random.default_rng(77)
    k = _k_rows(rng, 6)
    broken = k.copy()
    broken[0, 100] *= 0.5                      # K dips
    broken[1, 200:210] = broken[1, 200:210][::-1]
    convex = k[:2] * GRID.t                    # K/t increases
    noisy = k * rng.uniform(0.999, 1.001, k.shape)
    mixed = np.concatenate([k[:3], broken[:2], convex[:1]])
    special = k[:5].copy()
    special[0, 50] = np.nan
    special[1, 60:] = np.inf
    special[2, 0] = -np.inf
    special[3, 300] = np.inf
    special[4, :] = np.nan
    ties = np.zeros((4, GRID.n))
    ties[0, 1::2] = -0.0                       # 0.0, -0.0, 0.0, ...
    ties[1, ::2] = -0.0                        # -0.0, 0.0, -0.0, ...
    ties[2, :] = -0.0
    ties[3, 256:] = k[0, 256:]
    ties[3, 1:256:3] = -0.0
    return {"monotone": k, "broken": broken, "convex": convex,
            "noisy": noisy, "mixed": mixed, "special": special,
            "ties": ties, "one-row": k[0], "one-broken-row": broken[0]}


@pytest.mark.parametrize("name", list(repair_stacks()))
def test_repair_k_bit_for_bit(name):
    stack = repair_stacks()[name]
    got = repair_k(GRID, stack)
    assert got is not stack
    assert_bits(got, repair_k_ref(GRID, stack), zero_sign=(name == "ties"))


def _broken_stacks(rng):
    """Nondecreasing rows with breaks: a running max scans a stretch of
    them (negated, a running min does)."""
    up = np.sort(rng.standard_normal((4, 2000)), axis=-1)
    rows = up.copy()                           # breaks at different nodes
    rows[0, 5] -= 3.0
    rows[1, 700:705] = rows[1, 700:705][::-1]
    rows[2, 1500] = np.nan
    first = up[:2].copy()                      # only the first cell
    first[:, 0] = 10.0
    last = up[:2].copy()                       # only the last cell
    last[0, -1] = -10.0
    # a short disordered head, then a long ordered tail that starts
    # below the head's max and climbs past it
    tail = np.concatenate([rng.standard_normal((3, 20)) * 5.0,
                           np.sort(rng.uniform(-20.0, 20.0, (3, 3000)),
                                   axis=-1)], axis=-1)
    flat = np.full((2, 1000), 1.0)             # ulp wobble on a plateau
    flat[0, 300::7] = np.nextafter(1.0, 0.0)
    flat[1, 500] = np.nextafter(1.0, 0.0)
    return (rows, first, last, tail, flat, rows[1], first[0], last[0],
            tail[:, ::2])


@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum])
def test_running_matches_accumulate(ufunc):
    rng = np.random.default_rng(5)
    sign = 1.0 if ufunc is np.maximum else -1.0
    for a in (np.sort(rng.standard_normal((3, 64)), axis=-1),
              -np.sort(rng.standard_normal((3, 64)), axis=-1),
              rng.standard_normal((3, 64)),
              np.array([0.0, -0.0, 0.0, 1.0, np.inf]),
              np.array([-np.inf, -np.inf, 2.0, np.nan, 3.0]),
              np.array([np.inf, 1.0, 1.0, -0.0, 0.0, -np.inf]),
              np.array([4.0]), np.empty((2, 0)),
              *(sign * b for b in _broken_stacks(rng))):
        assert_bits(_running(ufunc, a), ufunc.accumulate(a, axis=-1),
                    zero_sign=True)


def test_running_skips_ordered_input():
    a = np.arange(10.0)
    assert _running(np.maximum, a) is a
    assert _running(np.minimum, a[::-1]).base is a
    assert _running(np.minimum, a) is not a


def _k_peetre_cases():
    rng = np.random.default_rng(11)
    rows = {s: sample(s, GRID).values for s in STANDARD}
    steps = _step_rows(rng, 3)
    pw = rows["pow:2"]
    cuts = np.unique(pw[pw > 0])[::-1][[1, 60, 200]][:, None]
    return {**rows, "steps": steps, "steps-row": steps[0],
            "standard": np.stack(list(rows.values())),
            "min-pieces": np.minimum(pw, cuts),
            "unit-pow:4": sample("pow:4", unit_grid(300)).values}


@pytest.mark.parametrize("name", list(_k_peetre_cases()))
def test_k_peetre_repairs_only_the_slope(name):
    # K is a head plus a cumsum of nonnegative cells: nondecreasing as
    # computed, so both repairs give what the K(t)/t repair gives alone
    f = _k_peetre_cases()[name]
    grid = GRID if f.shape[-1] == GRID.n else unit_grid(300)
    K = k_peetre(GridFunction(grid, f))
    k = lebesgue_prefix(f, grid)
    assert (np.diff(k, axis=-1) >= 0).all()
    assert_bits(K._k, repair_k(grid, k))
    with np.errstate(divide="ignore"):
        assert_bits(K.logk, np.log(repair_k(grid, k)))


def test_k_peetre_refuses_an_infinite_k_at_any_node():
    f = sample("pow:2", GRID).values.copy()
    for where in (1, 200, GRID.n - 1):
        g = f.copy()
        g[where] = math.inf
        with pytest.raises(ValueError, match="not locally integrable"):
            k_peetre(GridFunction(GRID, np.stack([f, g])))


def test_k_peetre_keeps_k_past_an_underflowed_head():
    # v(t_min) t_min = 1e-334 is below the least subnormal, so K is 0,
    # then subnormal, at the first nodes; the K/t repair starts past
    # them, where repair_k (the oracle's cut blocks, whose zeros are
    # exact) zeroes every node
    grid = Grid.from_bounds(1e-304, 1e8, 1024)
    f = np.where(grid.t <= 0.5, 1e-30, 0.0)
    k = lebesgue_prefix(f, grid)
    assert k[0] == 0.0 and k[-1] > 0.0
    alone = k_peetre(GridFunction(grid, f))._k
    normal = k >= np.finfo(float).tiny
    assert_bits(alone[~normal], k[~normal])
    np.testing.assert_allclose(alone[normal], k[normal], rtol=1e-12)
    stack = np.stack([f, 1e30 * f, np.zeros(grid.n)])
    got = k_peetre(GridFunction(grid, stack))._k
    assert_bits(got[0], alone)
    assert_bits(got[1], k_peetre(GridFunction(grid, stack[1]))._k)
    assert (got[1] > 0).all() and (got[2] == 0.0).all()
    assert (repair_k(grid, k) == 0.0).all()


def where_form(spec, x):
    """The pow, powlog and log prototypes as one np.where over all x."""
    kind, _, arg = spec.partition(":")
    ell = 1.0 + np.abs(x)
    with np.errstate(over="ignore"):
        if kind == "pow":
            return np.where(x <= 0, np.exp(-x / float(arg)), 0.0)
        if kind == "powlog":
            r, m = map(float, arg.split(","))
            return np.where(x <= 0, np.exp(-x / r) * ell ** m, 0.0)
        return np.where(x <= 0, ell ** float(arg), 0.0)


SAMPLER_GRIDS = {
    "node-at-0": Grid(-40.0, 40.0, 81),
    "no-node-at-0": Grid(-40.0, 40.5, 82),
    "full-512": full_grid(512),
    "unit-ends-at-0": unit_grid(700),
    "unit-short": Grid.from_bounds(1e-3, 0.5, 64, "unit"),
    "above-1": Grid(0.5, 9.0, 33),
    "deep": Grid(-6e4, 3.0, 4097),
}


@pytest.mark.parametrize("spec", ["pow:2", "pow:8", "powlog:2,1",
                                  "powlog:4,-1", "powlog:2,-3", "log:0.5",
                                  "log:2"])
@pytest.mark.parametrize("grid", list(SAMPLER_GRIDS))
def test_samplers_match_the_where_form(spec, grid):
    g = SAMPLER_GRIDS[grid]
    want = where_form(spec, g.x)
    assert_bits(parse_fn(spec)[1](g.x), want)
    assert_bits(sample(spec, g).values,
                np.maximum.accumulate(want[::-1])[::-1])


def test_gridfunction_validates_in_one_pass():
    g = full_grid(16)
    ok = np.linspace(0.0, 1.0, 16)
    for bad in (-1e-300, math.nan, -math.inf):
        v = ok.copy()
        v[7] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            GridFunction(g, v)
    v = ok.copy()
    v[3] = -0.0
    GridFunction(g, v)


@pytest.mark.parametrize("spec", STANDARD + ("powlog:2,-1", "powlog:4,-3"))
@pytest.mark.parametrize("n", [256, 4096])
def test_sample_repair_bit_for_bit(spec, n):
    grid = full_grid(n)
    assert_bits(sample(spec, grid).values, sample_ref(spec, grid))


def test_segment_integrals_of_csv_prototypes(tmp_path):
    # a csv step file as the CLI reads it, alone, in a stack, and cut
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n1e-6,40\n1e-3,9\n0.02,3.5\n0.3,1\n"
                    "0.9,0.25\n")
    one = tmp_path / "one.csv"
    one.write_text("t,value\n0.05,3\n")
    for grid in (GRID, unit_grid(1000)):
        rows = np.stack([sample(f"csv:{p}", grid).values for p in (path, one)])
        cuts = np.unique(rows[0])[1:, None]
        for stack in (rows, rows[0], rows[1], np.minimum(rows[0], cuts),
                      np.maximum(rows[0] - cuts, 0.0)):
            with np.errstate(all="ignore"):
                ref = segment_integrals_ref(stack, grid)
            assert_bits(_segment_integrals(stack, grid), ref)


def test_sample_repair_of_unsorted_csv(tmp_path):
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n0.001,1.0\n0.01,5.0\n0.1,2.0\n0.5,7.0\n")
    spec = f"csv:{path}"
    got = sample(spec, GRID).values
    assert_bits(got, sample_ref(spec, GRID))
    assert (np.diff(got) <= 0).all() and got[0] == 5.0
