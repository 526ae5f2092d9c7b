"""Property tests of the advection kernel, the tangent map, and the field,
kick and checkpoint files."""

import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kickflow import DomainSpec, KickPath, NoiseSpec, SolverConfig
from kickflow.basis import load_field, norms, save_field
from kickflow.dynamics import flow, nonlinearity
from kickflow.ergodicity import EmpiricalEnsemble
from kickflow.experiments import checkpoint_load, checkpoint_save
from kickflow.linearization import _propagate
from kickflow.noise import kick_rng, load_kick, sample_kick, save_kick
from reference import bilinear_q

SPEC = DomainSpec(length=4.0, viscosity=0.1)
K = SPEC.n_modes


def _zero_or_magnitude(low, high):
    """Zero or a float of magnitude in [low, high]: products of far smaller
    magnitudes underflow, and the tolerances below are such products."""
    return st.one_of(st.just(0.0), st.floats(low, high), st.floats(-high, -low))


states = hnp.arrays(np.float64, K, elements=_zero_or_magnitude(1e-6, 10))
scalars = _zero_or_magnitude(1e-3, 3)


def _scale(a, b):
    """Size of the trilinear form b(a, b, .): |a|_H |b|_V + |a|_V |b|_H."""
    nh_a, nv_a, _ = norms(a, SPEC)
    nh_b, nv_b, _ = norms(b, SPEC)
    return nh_a * nv_b + nv_a * nh_b


@settings(max_examples=100, deadline=None)
@given(states)
def test_advection_orthogonal_to_state(u):
    """<B(u), u> = 0: the discrete nonlinearity conserves energy."""
    nh, _, _ = norms(u, SPEC)
    assert abs(nonlinearity(u, SPEC) @ u) <= 1e-10 * nh * _scale(u, u)


@settings(max_examples=100, deadline=None)
@given(states, states)
def test_q_symmetric(a, b):
    assert np.abs(bilinear_q(a, b, SPEC) - bilinear_q(b, a, SPEC)).max() <= 1e-12 * _scale(a, b)


@settings(max_examples=100, deadline=None)
@given(states)
def test_q_on_the_diagonal_is_twice_b(u):
    assert np.abs(bilinear_q(u, u, SPEC) - 2 * nonlinearity(u, SPEC)).max() \
        <= 1e-12 * _scale(u, u)


@settings(max_examples=100, deadline=None)
@given(states, states, states, scalars, scalars)
def test_q_bilinear(a, c, b, s, t):
    tol = 1e-12 * (abs(s) * _scale(a, b) + abs(t) * _scale(c, b))
    first = bilinear_q(s * a + t * c, b, SPEC) - s * bilinear_q(a, b, SPEC) \
        - t * bilinear_q(c, b, SPEC)
    second = bilinear_q(b, s * a + t * c, SPEC) - s * bilinear_q(b, a, SPEC) \
        - t * bilinear_q(b, c, SPEC)
    assert np.abs(first).max() <= tol
    assert np.abs(second).max() <= tol


TANGENT_CFG = SolverConfig(dt=0.01)


@lru_cache(maxsize=None)
def _tangent_base():
    """A kicked base trajectory from a small smooth state."""
    u0 = np.zeros(K)
    u0[:8] = np.random.default_rng(3).standard_normal(8)
    u0 *= 0.3 / np.linalg.norm(u0)
    return flow(u0, sample_kick(NoiseSpec(), SPEC, kick_rng(3, 0, 0)), SPEC, TANGENT_CFG)


def _tangent(w):
    base = _tangent_base()
    no_source = np.zeros((base.states.shape[0] - 1, 0))
    return _propagate(base, w, no_source, SPEC, TANGENT_CFG)


columns = hnp.arrays(np.float64, (K, 2), elements=_zero_or_magnitude(1e-6, 10))


@settings(max_examples=50, deadline=None)
@given(columns, columns, scalars, scalars)
def test_tangent_linear(w0, w1, s, t):
    """Without a source, propagating s*w0 + t*w1 is s*prop(w0) + t*prop(w1)."""
    tol = 1e-12 * (abs(s) * np.abs(w0).max() + abs(t) * np.abs(w1).max())
    assert np.abs(_tangent(s * w0 + t * w1) - s * _tangent(w0) - t * _tangent(w1)).max() <= tol


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 80), elements=finite))
def test_field_file_round_trip(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.field"
        save_field(u, path)
        assert load_field(path).tobytes() == u.tobytes()


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 60)),
                  elements=finite))
def test_kick_file_round_trip(coeffs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eta.kick"
        save_kick(KickPath(coeffs), path)
        assert load_kick(path).coeffs.tobytes() == coeffs.tobytes()


coefficients = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-300, 1e6),
                         st.floats(-1e6, -1e-300))


@st.composite
def ensembles(draw):
    n = draw(st.integers(1, 40))
    particles = draw(hnp.arrays(np.float64, (n, K), elements=coefficients))
    mass = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1.0)))
    ids = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2**62)))
    kick_index = draw(st.integers(0, 10**6))
    seed = draw(st.integers(0, 2**63 - 1))
    return EmpiricalEnsemble(particles, mass / mass.sum(), kick_index, seed, ids)


@settings(max_examples=50, deadline=None)
@given(ensembles(), ensembles())
def test_checkpoint_round_trip(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.txt"
        checkpoint_save(a, b, path)
        loaded = checkpoint_load(path, expect_k=K)
    for got, want in zip(loaded, (a, b)):
        assert got.particles.tobytes() == want.particles.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert np.array_equal(got.particle_ids, want.particle_ids)
        assert (got.kick_index, got.master_seed) == (want.kick_index, want.master_seed)
