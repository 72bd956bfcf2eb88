"""Quadrature, rearrangement and edge-divergence tests for the grid layer."""

import math

import numpy as np
import pytest

from interpolab.grid import (Grid, GridFunction, L1, L2, LINF, RiSpace,
                             FULL, UNIT, CO_UNIT, Setting,
                             full_grid, unit_grid, tilde_norm,
                             lebesgue_prefix, lebesgue_suffix, rearrange,
                             checked_norm, checked_scan, edge_diverges,
                             log_norm_lower, log_norm_upper,
                             log_norm_between, _logaddexp_scan,
                             _shifted_scan, _final, _GUARD)

from util import mirror, rel_err


def test_grid_constructors_agree():
    g1 = Grid.from_bounds(1e-4, 1e4, 257)
    g2 = Grid(math.log(1e-4), math.log(1e4), 257)
    assert np.allclose(g1.x, g2.x)
    assert g1.dx == g2.dx
    assert np.allclose(g1.t, np.exp(g1.x))


def test_index_roundtrip():
    g = full_grid(512)
    for i in (0, 100, 511):
        assert g.index_of(float(g.t[i])) == i


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.from_bounds(1.0, 0.5, 64)
    with pytest.raises(ValueError):
        Grid.from_bounds(-1.0, 1.0, 64)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)


# (setting, t_min, t_max) -> (low end truncated, high end truncated);
# None is the default bound, and unit 1e-8..0.5 is the CLI's
# `--tmax 0.5`, which stops short of t = 1
_TRUNCATED = [(FULL, None, None, (True, True)),
              (FULL, 1e-30, 0.5, (True, True)),
              (FULL, 2.0, 1e8, (True, True)),
              (UNIT, None, None, (True, False)),
              (UNIT, 1e-30, 1.0, (True, False)),
              (UNIT, None, 0.5, (True, True)),
              (UNIT, 1e-3, 0.999, (True, True))]


@pytest.mark.parametrize("setting,t_min,t_max,ends", _TRUNCATED)
def test_an_end_is_truncated_when_it_stops_short_of_the_interval(
        setting, t_min, t_max, ends):
    g = Grid.from_bounds(t_min, t_max, 256, setting)
    assert g.setting is setting
    assert (g.truncated("low"), g.truncated("high")) == ends
    # the grid of t -> 1/t is truncated at the mirrored ends
    r = mirror(g)
    assert (r.truncated("low"), r.truncated("high")) == ends[::-1]


def test_default_bounds_are_cut_to_the_interval():
    assert full_grid(64).x[[0, -1]].tolist() == [math.log(1e-8),
                                                  math.log(1e8)]
    u = unit_grid(64)
    assert u.x[[0, -1]].tolist() == [math.log(1e-8), 0.0]
    assert np.array_equal(u.x, Grid.from_bounds(1e-8, 1.0, 64, "unit").x)


@pytest.mark.parametrize("setting,t_min,t_max", [
    (UNIT, None, 1.5), (UNIT, 2.0, None), (UNIT, 1e-8, 1e8),
    (CO_UNIT, None, None), (CO_UNIT, 2.0, 1e8), (FULL, None, math.inf)])
def test_bounds_outside_the_interval_are_refused(setting, t_min, t_max):
    # nothing is normed on a co_unit grid: reversal rewrites the weights
    with pytest.raises(ValueError):
        Grid.from_bounds(t_min, t_max, 64, setting)


def test_grid_refuses_nodes_outside_its_interval():
    with pytest.raises(ValueError, match="unit setting"):
        Grid(-2.0, 0.5, 64, UNIT)
    with pytest.raises(ValueError, match="co_unit setting"):
        Grid(-0.5, 2.0, 64, CO_UNIT)
    with pytest.raises(ValueError):
        Grid(-2.0, 0.0, 64, "half")
    assert Grid(0.0, 2.0, 64, CO_UNIT).truncated("low") is False


def test_setting_is_its_string_value():
    assert UNIT == "unit" and CO_UNIT == "co_unit" and FULL == "full"
    assert f"{CO_UNIT}" == str(CO_UNIT) == "co_unit"
    assert {"unit": 1}[UNIT] == 1
    assert [s.reversed() for s in Setting] == [FULL, CO_UNIT, UNIT]


@pytest.mark.parametrize("make", [
    lambda: unit_grid(300), lambda: Grid.from_bounds(1e-30, 1e8, 4096),
    lambda: Grid.from_bounds(1e-3, 0.5, 100, UNIT)],
    ids=["unit", "full-asymmetric", "unit-short"])
def test_reflection_negates_and_reverses_the_nodes(make):
    g = make()
    r = mirror(g)
    assert r.setting is g.setting.reversed()
    assert np.array_equal(r.x, -g.x[::-1]) and r.dx == g.dx and r.n == g.n
    assert np.array_equal(mirror(r).x, g.x)
    # a bounds-built grid never shares a memo key with a mirror grid
    assert r.key != g.key
    assert r.key != Grid.from_bounds(math.exp(r.x[0]), math.exp(r.x[-1]),
                                     r.n, FULL).key


def test_tilde_norm_pure_power():
    # || s ||_{E~(0,u)} over the resolved part (t_min, u)
    g = unit_grid(2048)
    fn = GridFunction(g, g.t.copy())
    tmin = float(g.t[0])
    for i in (400, 1000, 1800):
        u = float(g.t[i])
        assert rel_err(tilde_norm(fn, L1, (0.0, u)), u - tmin) < 1e-4
        assert rel_err(tilde_norm(fn, L2, (0.0, u)),
                       math.sqrt((u * u - tmin * tmin) / 2.0)) < 1e-3
        assert rel_err(tilde_norm(fn, LINF, (0.0, u)), u) < 1e-12


def test_tilde_norm_upper_power():
    # || s^-1 ||_{L~2(u, inf)} = u^-1 / sqrt(2) up to the cut at t_max
    g = full_grid(2048)
    fn = GridFunction(g, 1.0 / g.t)
    i = g.n // 2
    u = float(g.t[i])
    exact = math.sqrt((u ** -2 - float(g.t[-1]) ** -2) / 2.0)
    assert rel_err(tilde_norm(fn, L2, (u, math.inf)), exact) < 1e-3


def test_nested_matches_pointwise():
    g = unit_grid(512)
    fn = GridFunction(g, np.sqrt(g.t))
    low = np.exp(log_norm_lower(fn.log_values(), L2.q, g.dx))
    up = np.exp(log_norm_upper(fn.log_values(), L2.q, g.dx))
    for i in (50, 250, 480):
        u = float(g.t[i])
        assert rel_err(low[i], tilde_norm(fn, L2, (0.0, u))) < 1e-12
        unchecked = _final(log_norm_between(fn.log_values(), 2.0, g.dx, i,
                                            g.n - 1))
        assert rel_err(up[i], unchecked) < 1e-12
    with pytest.raises(ValueError):
        checked_scan(fn.log_values(), L2.q, g, "sideways")


def test_lebesgue_prefix_exact_on_powers():
    # int_0^t s^-0.5 ds = 2 sqrt(t), exact for the power-law cell model
    g = unit_grid(1024)
    pref = lebesgue_prefix(np.exp(-0.5 * g.x), g)
    assert np.max(np.abs(pref / (2.0 * np.sqrt(g.t)) - 1.0)) < 1e-10


def test_lebesgue_suffix_exact_on_powers():
    # int_t^T s^-2 ds = 1/t - 1/T
    g = full_grid(1024)
    suf = lebesgue_suffix(np.exp(-2.0 * g.x), g)
    exact = 1.0 / g.t - 1.0 / float(g.t[-1])
    sl = slice(0, g.n - 1)
    assert np.max(np.abs(suf[sl] / exact[sl] - 1.0)) < 1e-9


def test_rearrange_step_function():
    g = Grid.from_bounds(1e-3, 10.0, 1024)
    fs = rearrange([3.0, 1.0, 2.0], [1.0, 2.0, 1.0], g)

    def expected(t):
        if t <= 1.0:
            return 3.0
        if t <= 2.0:
            return 2.0
        if t <= 4.0:
            return 1.0
        return 0.0

    for tv in (0.5, 1.5, 3.0, 5.0):
        i = g.index_of(tv)
        assert fs.values[i] == expected(float(g.t[i]))
    with pytest.raises(ValueError):
        rearrange([-1.0], [1.0], g)


# -- shift-and-sum quadrature kernels --------------------------------
#
# log_norm_lower/upper/between against exactly summed trapezoid rules,
# and against the np.logaddexp reference path where a row is not finite
# or has too wide a range to shift.

def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def exact_prefix(lw, q, dx):
    """log || w ||_{L~q(x_0, x_i)} at every node, like math.fsum.

    The terms e^{q lw - top} are added exactly, as integer multiples
    of 2^-1100, and each prefix sum is rounded to a float once.
    """
    lq = q * lw
    if not (lq > -math.inf).any():
        return np.full(lw.shape, -math.inf)
    top = lq[lq > -math.inf].max()
    scale = 1 << 1100
    ints = []
    for v in (lq - top).tolist():
        num, den = math.exp(v).as_integer_ratio()
        ints.append(num * (scale // den))
    out, acc = [-math.inf], 0
    for a, b in zip(ints, ints[1:]):
        acc += a + b
        out.append((top + math.log(acc / scale * (dx / 2.0))) / q
                   if acc else -math.inf)
    return np.array(out)


def assert_close(got, want):
    """Same -inf entries, and relative error <= 1e-12 on the norms."""
    assert np.array_equal(got == -math.inf, want == -math.inf)
    fin = want > -math.inf
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12)


def assert_rows_alone(f, stack):
    """Each row of a stack gives bit for bit what it gives alone."""
    whole = f(stack)
    for i, row in enumerate(stack):
        assert np.array_equal(bits(f(row)), bits(whole[i]))


def walk(rng, rows, n):
    """Seeded log integrands: a power trend plus a random walk."""
    x = np.linspace(-18.4, 18.4, n)
    slope = rng.uniform(-1.0, 1.0, (rows, 1))
    lw = slope * x + np.cumsum(rng.normal(0.0, 0.05, (rows, n)), axis=1)
    return lw, x[1] - x[0]


@pytest.mark.parametrize("n", [2, 3, 256, 257, 258, 1 << 14, 1 << 16])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
def test_kernels_match_exact_sums(q, n):
    rng = np.random.default_rng(n * 10 + int(2 * q))
    rows = 1 if n > 4096 else 3
    lw, dx = walk(rng, rows, n)
    low = log_norm_lower(lw, q, dx)
    up = log_norm_upper(lw, q, dx)
    i0, i1 = n // 3, n - 1 - n // 4
    for r in range(rows):
        ref = exact_prefix(lw[r], q, dx)
        assert_close(low[r], ref)
        assert_close(up[r], exact_prefix(lw[r, ::-1], q, dx)[::-1])
        assert_close(np.array([log_norm_between(lw[r], q, dx, 0, n - 1)]),
                     ref[-1:])
        assert_close(np.array([log_norm_between(lw[r], q, dx, i0, i1)]),
                     exact_prefix(lw[r, i0:i1 + 1], q, dx)[-1:])
    assert_rows_alone(lambda a: log_norm_lower(a, q, dx), lw)
    assert_rows_alone(lambda a: log_norm_upper(a, q, dx), lw)
    assert_rows_alone(lambda a: log_norm_between(a, q, dx, i0, i1), lw)


def special_rows(n):
    lw, dx = walk(np.random.default_rng(7), 6, n)
    lw[1, :n // 3] = -math.inf          # -inf head
    lw[2, 2 * n // 3:] = -math.inf      # -inf tail
    lw[3] = -math.inf                   # nothing at all
    lw[4, n // 2] = math.inf
    lw[5, n // 2] = math.nan
    return lw, dx


@pytest.mark.parametrize("n", [3, 257, 1000])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_kernels_on_infinite_and_nan_rows(q, n):
    lw, dx = special_rows(n)
    with np.errstate(invalid="ignore"):
        low = log_norm_lower(lw, q, dx)
        up = log_norm_upper(lw, q, dx)
        mid = log_norm_between(lw, q, dx, 0, n - 1)
        for r in range(4):
            ref = exact_prefix(lw[r], q, dx)
            assert_close(low[r], ref)
            assert_close(up[r], exact_prefix(lw[r, ::-1], q, dx)[::-1])
            assert_close(mid[r:r + 1], ref[-1:])
        assert np.all(low[3] == -math.inf) and mid[3] == -math.inf
        # +inf and NaN rows answer as the logaddexp path always did
        lq = q * lw[4:]
        cells = np.logaddexp(lq[:, :-1], lq[:, 1:]) + math.log(dx / 2.0)
        today = np.logaddexp.reduce(cells, axis=-1) / q
        assert np.array_equal(bits(low[4:]),
                              bits(_logaddexp_scan(lw[4:], q, dx)))
        assert np.array_equal(bits(mid[4:]), bits(today))
        assert mid[4] == math.inf and math.isnan(mid[5])
        assert_rows_alone(lambda a: log_norm_lower(a, q, dx), lw)
        assert_rows_alone(lambda a: log_norm_upper(a, q, dx), lw)
        assert_rows_alone(lambda a: log_norm_between(a, q, dx, 0, n - 1), lw)


def test_wide_chunk_takes_reference_path():
    # a term 700 nats below its chunk max, past the guard: that row
    # goes the logaddexp path, bit for bit, and the others do not
    n = 3 * 256
    lw, dx = walk(np.random.default_rng(3), 3, n)
    lw[1, 256 + 5] -= 700.0
    assert 700.0 > _GUARD
    for q in (1.0, 2.0):
        assert _shifted_scan(lw, q, dx)[1].tolist() == [False, True, False]
        low = log_norm_lower(lw, q, dx)
        up = log_norm_upper(lw, q, dx)
        assert np.array_equal(bits(low[1]),
                              bits(_logaddexp_scan(lw[1], q, dx)))
        assert np.array_equal(
            bits(up[1]), bits(_logaddexp_scan(lw[1, ::-1], q, dx)[::-1]))
        for r in (0, 2):
            assert_close(low[r], exact_prefix(lw[r], q, dx))
        assert_rows_alone(lambda a: log_norm_lower(a, q, dx), lw)


def test_steady_fall_past_guard_takes_reference_path():
    # q lw falls by 600 nats across the row, about 2.3 over any 256
    # nodes: no stretch is wide, but the whole row is past the guard,
    # so that row goes the logaddexp path, bit for bit, and the others
    # keep the bits they have alone
    n = 1 << 16
    lw, dx = walk(np.random.default_rng(11), 3, n)
    for q in (1.0, 2.0):
        stack = lw.copy()
        stack[1] = np.linspace(0.0, -600.0 / q, n)
        assert 600.0 > _GUARD
        assert np.ptp(q * stack[1, :257]) < 3.0
        assert _shifted_scan(stack, q, dx)[1].tolist() == [False, True, False]
        low = log_norm_lower(stack, q, dx)
        up = log_norm_upper(stack, q, dx)
        assert np.array_equal(bits(low[1]),
                              bits(_logaddexp_scan(stack[1], q, dx)))
        assert np.array_equal(
            bits(up[1]), bits(_logaddexp_scan(stack[1, ::-1], q, dx)[::-1]))
        for r in (0, 2):
            assert np.array_equal(bits(low[r]),
                                  bits(log_norm_lower(stack[r], q, dx)))
            assert np.array_equal(bits(up[r]),
                                  bits(log_norm_upper(stack[r], q, dx)))


# -- edge divergence ---------------------------------------------------

def _low_edge(g, lw, q):
    return bool(edge_diverges(lw, q, g, "low"))


def test_edge_divergence_low_integrals():
    g = unit_grid(4096)
    ell = 1.0 + np.abs(g.x)
    # int_0 l^-2 dt/t converges, l^-1 and constants diverge
    assert not _low_edge(g, -2.0 * np.log(ell), 1.0)
    assert _low_edge(g, -1.0 * np.log(ell), 1.0)
    assert _low_edge(g, np.zeros(g.n), 1.0)
    # power decay toward 0 converges, growth diverges
    assert not _low_edge(g, 0.5 * g.x, 1.0)
    assert _low_edge(g, -0.5 * g.x, 1.0)


def test_edge_divergence_low_sup():
    g = unit_grid(4096)
    ell = 1.0 + np.abs(g.x)
    # sup near 0: l^1 unbounded, l^-1 bounded, t^-0.1 unbounded
    assert _low_edge(g, np.log(ell), math.inf)
    assert not _low_edge(g, -np.log(ell), math.inf)
    assert _low_edge(g, -0.1 * g.x, math.inf)
    assert not _low_edge(g, 0.1 * g.x, math.inf)


def test_edge_divergence_high_edge():
    g = full_grid(4096)
    mid = g.n // 2
    # check the high edge in isolation by starting the interval mid-grid
    lw_dec = -2.0 * g.x
    lw_flat = np.zeros(g.n)
    assert not edge_diverges(lw_dec[mid:], 1.0, g, "high")
    assert edge_diverges(lw_flat[mid:], 1.0, g, "high")
    assert math.isfinite(checked_norm(lw_dec, 1.0, g, mid))
    assert checked_norm(lw_flat, 1.0, g, mid) == math.inf


def test_edge_divergence_respects_true_edges():
    # t_max = 1 is a genuine boundary on the unit grid: no check there
    g = unit_grid(1024)
    assert not g.truncated("high")
    lw_grow = 2.0 * g.x        # grows toward t = 1, harmless
    assert not edge_diverges(lw_grow, 1.0, g, "high")
    assert math.isfinite(checked_norm(lw_grow, 1.0, g))


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, math.inf])
@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("make", [lambda: full_grid(512),
                                  lambda: unit_grid(512)],
                         ids=["full", "unit"])
def test_checked_scan_is_the_scan_and_its_edge_test(make, side, q):
    g = make()
    lw, _ = walk(np.random.default_rng(5), 3, g.n)
    lw[1] = np.log1p(np.abs(g.x))    # l(t) grows towards both ends
    scan = log_norm_lower if side == "low" else log_norm_upper
    for a in (lw, lw[1]):            # a stack and one row alone
        got, edge = checked_scan(a, q, g, side)
        assert np.array_equal(bits(got), bits(scan(a, q, g.dx)))
        assert np.array_equal(edge, edge_diverges(a, q, g, side))
        assert edge.shape == a.shape[:-1]
    # the row of l diverges past the end exactly where that end is cut
    assert bool(edge) == g.truncated(side)


def test_tilde_norm_divergence_returns_inf():
    g = unit_grid(2048)
    fn = GridFunction(g, 1.0 / (1.0 + np.abs(g.x)))   # l^-1
    assert tilde_norm(fn, L1) == math.inf
    assert math.isfinite(_final(log_norm_between(fn.log_values(), 1.0, g.dx,
                                                 0, g.n - 1)))


def test_rispace_validation():
    with pytest.raises(ValueError):
        RiSpace(0.5)
