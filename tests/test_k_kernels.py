"""The K-functional kernels against the formulas they replaced, bit for bit.

_segment_integrals runs the power-law cell model in place over the
span of cells positive in some row, and the monotone repairs (repair_k,
the rearrangement repair of corpus.sample) skip their running scans when
the input is already in order and otherwise scan only the stretch out
of order.  The
references below are the np.where and always-scan forms of the same
formulas; every stack compares byte for byte, except that a tie between
0.0 and -0.0 may differ in the sign of the zero.
"""

import numpy as np
import pytest

from interpolab.corpus import STANDARD, parse_fn, sample
from interpolab.grid import _running, _segment_integrals, full_grid
from interpolab.kfun import repair_k


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
    return {"fstar": fstar, "zeros": zeros, "flat": flat, "huge": huge,
            "special": special, "mixed": mixed,
            "all-zero": np.zeros((2, GRID.n)),
            "one-row": fstar[0], "spans": spans, "one-cell": one_cell,
            "one-cell-row": one_cell[0], "last-cell": last_cell}


@pytest.mark.parametrize("name", list(segment_stacks()))
def test_segment_integrals_bit_for_bit(name):
    stack = segment_stacks()[name]
    with np.errstate(all="ignore"):
        ref = segment_integrals_ref(stack, GRID)
    assert_bits(_segment_integrals(stack, GRID), ref)


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


@pytest.mark.parametrize("spec", STANDARD + ("powlog:2,-1", "powlog:4,-3"))
@pytest.mark.parametrize("n", [256, 4096])
def test_sample_repair_bit_for_bit(spec, n):
    grid = full_grid(n)
    assert_bits(sample(spec, grid).values, sample_ref(spec, grid))


def test_sample_repair_of_unsorted_csv(tmp_path):
    path = tmp_path / "steps.csv"
    path.write_text("t,value\n0.001,1.0\n0.01,5.0\n0.1,2.0\n0.5,7.0\n")
    spec = f"csv:{path}"
    got = sample(spec, GRID).values
    assert_bits(got, sample_ref(spec, GRID))
    assert (np.diff(got) <= 0).all() and got[0] == 5.0
