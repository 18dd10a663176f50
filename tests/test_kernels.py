"""Tests for the window kernels: numerical agreement against a naive
reference."""
import numpy as np
import pytest

from oagd.kernels import quad_window_reduce, sm_window_accumulate


def _naive_sm(A, A_val, b_val, d_inv, y, u):
    """Reference solve: acc = sum_i u_i (D + a_i a_i^T)^{-1} grad_y f_i."""
    acc = np.zeros(A.shape[1])
    D = np.diag(1.0 / d_inv)
    for i in range(A.shape[0]):
        rhs = A_val[i] * (A_val[i] @ y - b_val[i])
        acc += u[i] * np.linalg.solve(D + np.outer(A[i], A[i]), rhs)
    return acc


def _case(seed, m=7, d2=5):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, d2))
    A_val = rng.normal(size=(m, d2))
    b_val = rng.normal(size=m)
    d_inv = 1.0 / rng.uniform(0.5, 3.0, size=d2)
    y = rng.normal(size=d2)
    u = np.sort(rng.uniform(0.1, 1.0, size=m))[::-1].copy()
    u[0] = 1.0
    return A, A_val, b_val, d_inv, y, u


def test_sm_accumulate_matches_dense_solves():
    for seed in range(5):
        args = _case(seed)
        np.testing.assert_allclose(
            sm_window_accumulate(*args), _naive_sm(*args), rtol=1e-10, atol=1e-12
        )


def test_quad_reduce_matches_naive_sum():
    rng = np.random.default_rng(30)
    s = rng.normal(size=9)
    u = np.linspace(1.0, 0.2, 9)
    xpy = 0.7
    expected = sum(u[i] * (xpy + s[i]) for i in range(9))
    assert quad_window_reduce(s, u, xpy) == pytest.approx(expected, rel=1e-13)
