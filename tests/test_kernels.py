"""Tests for the window kernels: numerical agreement against a naive
reference."""
import numpy as np
import pytest

from oagd.kernels import quad_window_reduce, sm_window_accumulate, sm_workspace


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
            sm_window_accumulate(*args, sm_workspace(7, 5)), _naive_sm(*args),
            rtol=1e-10, atol=1e-12
        )


def test_quad_reduce_matches_naive_sum():
    rng = np.random.default_rng(30)
    s = rng.normal(size=9)
    u = np.linspace(1.0, 0.2, 9)
    xpy = 0.7
    expected = sum(u[i] * (xpy + s[i]) for i in range(9))
    assert quad_window_reduce(s, u, xpy) == pytest.approx(expected, rel=1e-13)


def test_sm_accumulate_workspace_reuse_is_bit_identical():
    """One workspace serves windows of any size up to its rows, and the
    result does not depend on what an earlier call left in it."""
    work = sm_workspace(12, 5)
    for seed, m in ((0, 12), (1, 3), (2, 7), (3, 1)):
        args = _case(seed, m=m)
        assert np.array_equal(sm_window_accumulate(*args, work),
                              sm_window_accumulate(*args, sm_workspace(m, 5)))


@pytest.mark.parametrize("m", (1, 7, 3000))
@pytest.mark.parametrize("d2", (1, 5, 33))
def test_sm_accumulate_one_entry_d_inv_matches_repeated_vector(m, d2):
    """A one-entry d_inv (D = c I, the scalar ridge weight) gives the same
    bytes as that entry repeated d2 times."""
    A, A_val, b_val, _, y, u = _case(m + d2, m=m, d2=d2)
    c_inv = np.array([1.0 / 2.7])
    work = sm_workspace(m, d2)
    one = sm_window_accumulate(A, A_val, b_val, c_inv, y, u, work)
    full = sm_window_accumulate(A, A_val, b_val, c_inv.repeat(d2), y, u, work)
    assert one.tobytes() == full.tobytes()
