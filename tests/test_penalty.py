"""Property tests of the banded second-difference penalty.

The trend stage never forms the (n-2) x n operator D or the n x n matrix
D'D; the dense forms below exist only here, as the oracle.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

from ordext.estimation import (_dtd_dot, _penalty_band,  # noqa: E402
                               ridge_trend, roughness)


def dense_d(n):
    d = np.zeros((n - 2, n))
    for i in range(n - 2):
        d[i, i:i + 3] = (1.0, -2.0, 1.0)
    return d


sizes = st.integers(3, 60)


def vectors(n):
    return st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.array)


trends = sizes.flatmap(vectors)


@given(sizes)
@example(3)
@example(4)
def test_band_equals_dense_diagonals(n):
    d = dense_d(n)
    dtd = d.T @ d
    band = _penalty_band(n, 0.5)        # 2 * 0.5 * D'D
    for k in range(3):
        assert np.array_equal(band[k, :n - k], np.diag(dtd, -k)), k
        assert np.all(band[k, n - k:] == 0.0), k


@given(trends)
@example(np.array([1.0, -2.0, 0.5]))
@example(np.array([1.0, -2.0, 0.5, 3.0]))
def test_dtd_dot_matches_dense(g):
    d = dense_d(len(g))
    dense = d.T @ (d @ g)
    tol = 1e-12 * max(float(np.max(np.abs(g))), 1e-300)
    assert float(np.max(np.abs(_dtd_dot(g) - dense))) <= tol


@given(trends)
@example(np.array([1.0, -2.0, 0.5]))
@example(np.array([1.0, -2.0, 0.5, 3.0]))
def test_roughness_matches_dense_quadratic_form(g):
    d = dense_d(len(g))
    dg = d @ g
    # relative to sum((|D| |g|)^2), the size the second differences are
    # rounded against, so nearly straight g do not demand digits that
    # neither side has
    scale = float(np.sum((np.abs(d) @ np.abs(g)) ** 2))
    assert abs(roughness(g) - float(dg @ dg)) <= 1e-12 * scale


@given(trends, st.floats(0.0, 1e4))
@example(np.array([1.0, -2.0, 0.5]), 1000.0)
@example(np.array([1.0, -2.0, 0.5, 3.0]), 1000.0)
def test_ridge_trend_matches_dense_solve(y, lam):
    d = dense_d(len(y))
    dense = np.linalg.solve(np.eye(len(y)) + 2.0 * lam * d.T @ d, y)
    tol = 1e-10 * max(float(np.max(np.abs(y))), 1.0)
    assert float(np.max(np.abs(ridge_trend(y, lam) - dense))) <= tol
