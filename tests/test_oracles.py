"""Checks of the test-only oracles in ``oracles.py`` against independent routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from cps_sentinel.numerics import DiagonalPsd, NotPositiveDefinite, make_spd
from oracles import quad_form_inv, quad_forms_inv


def test_batched_matches_single():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 3))
    v = make_spd(g @ g.T + 0.2 * np.eye(3))
    rows = rng.standard_normal((10, 3))
    batched = quad_forms_inv(v, rows)
    singles = [quad_form_inv(v, r) for r in rows]
    np.testing.assert_allclose(batched, singles, rtol=1e-12)


def test_a_zero_variance_diagonal_is_rejected():
    with pytest.raises(NotPositiveDefinite):
        quad_forms_inv(DiagonalPsd([1.0, 0.0]), np.ones((3, 2)))


@st.composite
def covariance_and_rows(draw):
    """A dense SPD or diagonal covariance, N in 1..16, and a stack of rows."""
    n = draw(st.integers(1, 16))
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        v = DiagonalPsd(rng.uniform(0.05, 20.0, n))
    else:
        g = rng.standard_normal((n, n))
        v = make_spd(g @ g.T + 0.1 * np.eye(n))
    return v, rng.standard_normal(lead + (n,)) * rng.uniform(0.1, 10.0), rng


@settings(max_examples=150, deadline=None)
@given(covariance_and_rows())
def test_quad_forms_agree_with_solve_triangular_and_ignore_the_stack(case):
    v, rows, rng = case
    n = v.dim
    chol = np.diag(np.sqrt(v.diag)) if isinstance(v, DiagonalPsd) else v.chol
    q = quad_forms_inv(v, rows)
    assert q.shape == rows.shape[:-1]
    flat = rows.reshape(-1, n)
    y = solve_triangular(chol, flat.T, lower=True)
    np.testing.assert_allclose(q.reshape(-1), np.sum(y * y, axis=0), rtol=1e-12)
    # bit for bit the same alone, in any stack, and under any reshape
    for idx in np.ndindex(rows.shape[:-1]):
        assert np.array_equal(quad_forms_inv(v, rows[idx]), q[idx])
    assert np.array_equal(quad_forms_inv(v, flat), q.reshape(-1))
    assert np.array_equal(quad_forms_inv(v, flat[::-1]), q.reshape(-1)[::-1])
    assert np.array_equal(quad_forms_inv(v, flat.reshape(1, -1, 1, n)), q.reshape(1, -1, 1))
    others = rng.standard_normal((int(rng.integers(1, 9)), n))
    assert np.array_equal(quad_forms_inv(v, np.concatenate([others, flat]))[len(others):],
                          q.reshape(-1))
