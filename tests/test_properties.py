"""Property tests of the advection kernel and of the field and kick files."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kickflow import DomainSpec, KickPath
from kickflow.basis import load_field, norms, save_field
from kickflow.dynamics import nonlinearity
from kickflow.linearization import bilinear_q
from kickflow.noise import load_kick, save_kick

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
