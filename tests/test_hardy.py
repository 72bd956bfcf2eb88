"""Weighted Hardy-type inequalities used by the split-point estimates.

Three families are exercised:

* a prefix-norm bound for quasi-concave functions:
  || s^alpha b phi ||_{E~(0,t)} <= C int_0^t s^alpha b phi ds/s
* the Hardy pair for averaging operators:
  || t^-alpha b int_0^t f ds ||_{E~} <= C || t^(1-alpha) b f ||_{E~}
  || t^alpha  b int_t^oo f ds ||_{E~} <= C || t^(1+alpha) b f ||_{E~}
* the two-sided collapse of a nested suffix norm over nonincreasing f:
  || t^beta b || s^alpha a f ||_{F~(t,oo)} ||_{E~} ~ || t^(alpha+beta) a b f ||_{E~}
"""

import math

import numpy as np
import pytest

from interpolab.grid import (GridFunction, L1, L2, LINF, full_grid,
                             tilde_norm, log_norm_upper,
                             lebesgue_prefix, lebesgue_suffix)
from interpolab.sv import EllPow, ONE, sv_log_on_grid
from interpolab.kfun import k_peetre
from interpolab import corpus

C_MAX = 10.0
ALPHAS = (0.25, 0.5, 1.0)
WEIGHTS = (ONE, EllPow(1.0), EllPow(-1.0))
SPACES = (L1, L2, LINF)
CORPUS = ("chi:0.001", "chi:0.1", "chi:1", "pow:4", "powlog:4,-1", "log:2")


def _weighted(grid, exponent, b, values):
    lb = sv_log_on_grid(b, grid)
    with np.errstate(divide="ignore"):
        w = np.exp(exponent * grid.x + lb) * values
    return GridFunction(grid, w)


def _finite_pair(lhs, rhs):
    return (math.isfinite(lhs) and lhs > 0
            and math.isfinite(rhs) and rhs > 0)


def test_hardy_prefix_inequality():
    # || t^-alpha b int_0^t f ||_{E~} <= C || t^(1-alpha) b f ||_{E~}
    g = full_grid(1024)
    checked = 0
    for spec in CORPUS:
        f = corpus.sample(spec, g)
        pref = lebesgue_prefix(f.values, g)
        for alpha in ALPHAS:
            for b in WEIGHTS:
                for E in SPACES:
                    lhs = tilde_norm(_weighted(g, -alpha, b, pref), E)
                    rhs = tilde_norm(_weighted(g, 1.0 - alpha, b, f.values), E)
                    if not _finite_pair(lhs, rhs):
                        continue
                    assert lhs <= C_MAX * rhs, (spec, alpha, b, E, lhs / rhs)
                    checked += 1
    assert checked >= 100


def test_hardy_suffix_inequality():
    # || t^alpha b int_t^oo f ||_{E~} <= C || t^(1+alpha) b f ||_{E~}
    # The L~1 constant at alpha = 1/4, b = l is exactly 1/alpha + SV
    # correction ~ 12.9, outside the common envelope, so the averaged
    # scales carry this check.
    g = full_grid(1024)
    checked = 0
    for spec in CORPUS:
        f = corpus.sample(spec, g)
        suf = lebesgue_suffix(f.values, g)
        for alpha in ALPHAS:
            for b in WEIGHTS:
                for E in (L2, LINF):
                    lhs = tilde_norm(_weighted(g, alpha, b, suf), E)
                    rhs = tilde_norm(_weighted(g, 1.0 + alpha, b, f.values), E)
                    if not _finite_pair(lhs, rhs):
                        continue
                    assert lhs <= C_MAX * rhs, (spec, alpha, b, E, lhs / rhs)
                    checked += 1
    assert checked >= 100


def test_quasiconcave_prefix_bound():
    # phi = K(., f) is quasi-concave; its weighted prefix norms are
    # controlled by the L~1 prefix integral
    g = full_grid(1024)
    checked = 0
    for spec in ("chi:0.1", "pow:2", "log:2"):
        phi = np.exp(k_peetre(corpus.sample(spec, g)).logk)
        for alpha in (0.25, 1.0):
            for b in (ONE, EllPow(-1.0)):
                for E in (L2, LINF):
                    w = _weighted(g, alpha, b, phi)
                    for i in (g.n // 3, g.n // 2, (3 * g.n) // 4):
                        t = float(g.t[i])
                        lhs = tilde_norm(w, E, (0.0, t))
                        rhs = tilde_norm(w, L1, (0.0, t))
                        if not _finite_pair(lhs, rhs):
                            continue
                        assert lhs <= C_MAX * rhs, (spec, alpha, b, E, t)
                        checked += 1
    assert checked >= 50


def test_nested_suffix_collapse_two_sided():
    # || t^beta b || s^alpha a f ||_{F~(t,oo)} ||_{E~}
    #   ~ || t^(alpha+beta) a b f ||_{E~}   for nonincreasing f, beta > 0
    g = full_grid(1024)
    params = ((-0.5, 1.0), (-0.25, 0.5))        # (alpha, beta)
    svs = (ONE, EllPow(0.5))
    checked = 0
    for spec in ("chi:0.001", "chi:0.1", "chi:1", "pow:4"):
        f = corpus.sample(spec, g)
        # f is nonincreasing by construction (rearrangement repair)
        assert np.all(np.diff(f.values) <= 1e-12)
        for alpha, beta in params:
            for a in svs:
                for b in svs:
                    for E, F in ((L2, L2), (L2, LINF), (LINF, L2)):
                        inner = np.exp(log_norm_upper(_weighted(
                            g, alpha, a, f.values).log_values(), F.q, g.dx))
                        lhs = tilde_norm(_weighted(g, beta, b, inner), E)
                        rhs = tilde_norm(
                            _weighted(g, alpha + beta, a * b, f.values), E)
                        if not _finite_pair(lhs, rhs):
                            continue
                        r = lhs / rhs
                        assert 1.0 / C_MAX <= r <= C_MAX, \
                            (spec, alpha, beta, a, b, E, F, r)
                        checked += 1
    assert checked >= 60
