"""The exact 1D bounded-Lipschitz distance against an LP oracle, and its
metric properties.

The flat DP pass and the search are also held to the slow reference in
``reference.py`` (the pass as it was before it was flattened), which they
must match exactly: the flattening keeps every float operation in order.

The oracle is the LP formulation that ``bl_distance_1d`` used to solve
with HiGHS: maximise sum_i d_i g_i over (g, beta) with |g_i| <= beta and
|g_{i+1} - g_i| <= (1 - beta) gap_i on the pooled sorted support.  Its
feasibility tolerances are tightened from HiGHS's 1e-7 default, at which
the LP itself misses the optimum by a few 1e-12 on 4k-point inputs.
"""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kickflow import bl_distance_1d
from kickflow.ergodicity import _bl_pass

AGREEMENT = 1e-12
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def lp_bl_distance_1d(x1, w1, x2, w2) -> float:
    z = np.concatenate([x1, x2])
    d = np.concatenate([w1, np.negative(w2)])
    order = np.argsort(z, kind="stable")
    z, d = z[order], d[order]
    uz, inv = np.unique(z, return_inverse=True)
    ud = np.zeros_like(uz)
    np.add.at(ud, inv, d)
    n = uz.shape[0]
    gaps = np.diff(uz)
    # variables: g_0..g_{n-1}, beta
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for i in range(n):  # g_i - beta <= 0 ; -g_i - beta <= 0
        rows += [r, r, r + 1, r + 1]
        cols += [i, n, i, n]
        vals += [1.0, -1.0, -1.0, -1.0]
        rhs += [0.0, 0.0]
        r += 2
    for i in range(n - 1):  # +-(g_{i+1} - g_i) + gap*beta <= gap
        rows += [r, r, r, r + 1, r + 1, r + 1]
        cols += [i + 1, i, n, i + 1, i, n]
        vals += [1.0, -1.0, gaps[i], -1.0, 1.0, gaps[i]]
        rhs += [gaps[i], gaps[i]]
        r += 2
    a_ub = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(r, n + 1))
    c = np.concatenate([-ud, [0.0]])
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0)]
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds,
                                 method="highs", options=HIGHS_OPTIONS)
    assert res.success, res.message
    return float(-res.fun)


def _instance(rng, n1, n2, support, weights, unbalanced):
    """Two weighted samples; ties come from a lattice support."""
    if support == "lattice":
        x1 = rng.integers(-6, 6, n1) * 0.5
        x2 = rng.integers(-6, 6, n2) * 0.5
    elif support == "spread":
        x1 = rng.standard_normal(n1) * rng.uniform(0.01, 20.0)
        x2 = rng.standard_normal(n2) * rng.uniform(0.01, 20.0) + rng.uniform(-2, 2)
    else:
        x1 = rng.standard_normal(n1)
        x2 = rng.standard_normal(n2) + rng.uniform(-1, 1)
    if weights == "uniform":
        w1, w2 = np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)
    else:
        w1, w2 = rng.random(n1) + 1e-3, rng.random(n2) + 1e-3
        w1, w2 = w1 / w1.sum(), w2 / w2.sum()
    if unbalanced:
        w1 = w1 * rng.uniform(0.2, 1.8)
    return x1, w1, x2, w2


def test_matches_lp_oracle_on_seeded_instances():
    rng = np.random.default_rng(20190301)
    kinds = [(s, w, u) for s in ("normal", "spread", "lattice")
             for w in ("uniform", "random") for u in (False, True)]
    worst = 0.0
    for trial in range(360):
        n1, n2 = rng.integers(1, 80, 2)
        x1, w1, x2, w2 = _instance(rng, n1, n2, *kinds[trial % len(kinds)])
        got, want = bl_distance_1d(x1, w1, x2, w2), lp_bl_distance_1d(x1, w1, x2, w2)
        worst = max(worst, abs(got - want))
    assert worst <= AGREEMENT


@pytest.mark.parametrize("pooled", [2, 3, 1024, 4096, 8192])
@pytest.mark.parametrize("weights", ["uniform", "random"])
def test_matches_lp_oracle_by_size(pooled, weights):
    rng = np.random.default_rng(pooled)
    n1 = pooled // 2
    x1, w1, x2, w2 = _instance(rng, n1, pooled - n1, "normal", weights, False)
    got, want = bl_distance_1d(x1, w1, x2, w2), lp_bl_distance_1d(x1, w1, x2, w2)
    assert abs(got - want) <= AGREEMENT


def test_single_pooled_point_is_the_mass_difference():
    assert bl_distance_1d([0.0], [1.0], [0.0], [0.5]) == 0.5
    assert bl_distance_1d([2.0, 2.0], [0.25, 0.25], [2.0], [1.0]) == 0.5
    assert bl_distance_1d([1.0], [1.0], [1.0], [1.0]) == 0.0


samples = st.lists(st.tuples(st.floats(-10, 10), st.floats(0.01, 1.0)),
                   min_size=1, max_size=40)


def _split(sample):
    x, w = (np.array(v) for v in zip(*sample))
    return x, w / w.sum()


def _w1_and_l1(x1, w1, x2, w2):
    """W1 of the two samples (equal masses) and the total variation |d|_1."""
    z = np.concatenate([x1, x2])
    d = np.concatenate([w1, -w2])
    order = np.argsort(z, kind="stable")
    cdf = np.cumsum(d[order])[:-1]
    _, inv = np.unique(z, return_inverse=True)
    return float(np.abs(cdf) @ np.diff(z[order])), float(np.abs(np.bincount(inv, d)).sum())


@settings(max_examples=150, deadline=None)
@given(samples, samples)
def test_symmetric(a, b):
    x1, w1 = _split(a)
    x2, w2 = _split(b)
    assert abs(bl_distance_1d(x1, w1, x2, w2) - bl_distance_1d(x2, w2, x1, w1)) <= AGREEMENT


@settings(max_examples=100, deadline=None)
@given(samples)
def test_zero_self_distance(a):
    x, w = _split(a)
    assert bl_distance_1d(x, w, x, w) == 0.0


@settings(max_examples=150, deadline=None)
@given(samples, samples, st.sampled_from([-4.0, -0.5, 0.25, 3.0]))
def test_translation_invariant(a, b, shift):
    x1, w1 = _split(a)
    x2, w2 = _split(b)
    moved = bl_distance_1d(x1 + shift, w1, x2 + shift, w2)
    assert abs(moved - bl_distance_1d(x1, w1, x2, w2)) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(samples, samples)
def test_below_wasserstein_and_total_variation(a, b):
    x1, w1 = _split(a)
    x2, w2 = _split(b)
    w1_dist, l1 = _w1_and_l1(x1, w1, x2, w2)
    got = bl_distance_1d(x1, w1, x2, w2)
    assert 0.0 <= got <= min(w1_dist, l1) + AGREEMENT


def _dp_inputs(x1, w1, x2, w2):
    """The per-point masses, prefix sums and gaps that the search passes to
    ``_bl_pass``, built the same way."""
    uz, inv = np.unique(np.concatenate([x1, x2]), return_inverse=True)
    n1 = len(x1)
    ud = np.bincount(inv[:n1], w1, uz.shape[0]) - np.bincount(inv[n1:], w2, uz.shape[0])
    return ud.tolist(), np.cumsum(ud).tolist(), np.diff(uz).tolist()


def _pass_instance(rng, pooled, kind):
    """Two samples of about ``pooled`` points in all; ``zero-mass`` shares
    half its support between the samples, so that d vanishes there."""
    n1 = max(pooled // 2, 1)
    n2 = max(pooled - n1, 1)
    if kind == "lattice":
        x1 = rng.integers(-40, 40, n1) * 0.25
        x2 = rng.integers(-40, 40, n2) * 0.25 + 0.5
    elif kind == "repeated":
        pts = rng.standard_normal(max(pooled // 8, 1))
        x1, x2 = rng.choice(pts, n1), rng.choice(pts, n2) + 0.1
    else:
        x1 = rng.standard_normal(n1)
        x2 = rng.standard_normal(n2) + rng.uniform(-1, 1)
    if kind == "zero-mass":
        x2[: n2 // 2] = x1[: n2 // 2]
        return x1, np.full(n1, 1.0 / n1), x2, np.full(n2, 1.0 / n2)
    w1, w2 = rng.random(n1) + 1e-3, rng.random(n2) + 1e-3
    return x1, w1 / w1.sum() * rng.uniform(0.5, 1.5), x2, w2 / w2.sum()


@pytest.mark.parametrize("pooled", [2, 3, 64, 1024, 8192])
@pytest.mark.parametrize("kind", ["normal", "lattice", "repeated", "zero-mass"])
def test_flat_pass_matches_reference(pooled, kind):
    """V(beta) and dV/dbeta are bit-identical to the reference pass at 20
    random budget splits, and so is the distance."""
    rng = np.random.default_rng([pooled, len(kind)])
    x1, w1, x2, w2 = _pass_instance(rng, pooled, kind)
    d, cum, gaps = _dp_inputs(x1, w1, x2, w2)
    for beta in rng.random(20):
        assert _bl_pass(beta, d, cum, gaps) == reference._bl_pass(beta, d, cum, gaps)
    assert bl_distance_1d(x1, w1, x2, w2) == reference.bl_distance_1d(x1, w1, x2, w2)
