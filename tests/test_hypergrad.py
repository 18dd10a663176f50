"""Tests for the implicit-differentiation solve, single-round
hypergradients, weight windows, and the time-averaged hypergradient."""
import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from oagd import (
    FactorizationFailure,
    RoundFunctions,
    WeightWindow,
    hypergradient,
    make_weights,
    quadratic_round,
    solve_M,
    windowed_hypergradient,
)
from oagd.hypergrad import cholesky_solve


def test_solve_m_diagonal_example():
    """hess = diag(2, 4), jac = [[1, 2]]: M = -jac hess^{-1} = [[-1/2, -1/2]]."""
    M = solve_M(np.diag([2.0, 4.0]), np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(M, [[-0.5, -0.5]], atol=1e-14)


def test_solve_m_residual_on_random_spd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d2 = rng.integers(2, 8)
        d1 = rng.integers(1, 4)
        B = rng.normal(size=(d2, d2))
        hess = B @ B.T + 0.5 * np.eye(d2)
        jac = rng.normal(size=(d1, d2))
        M = solve_M(hess, jac)
        resid = np.abs(jac + M @ hess).max()
        assert resid <= 1e-10 * (1.0 + np.abs(jac).max())


def test_solve_m_rejects_indefinite_hessian():
    with pytest.raises(FactorizationFailure):
        solve_M(np.diag([1.0, -1.0]), np.array([[1.0, 1.0]]))
    with pytest.raises(FactorizationFailure):
        solve_M(np.zeros((2, 2)), np.array([[1.0, 1.0]]))


def test_cholesky_solve_matches_scipy_reference():
    """The direct LAPACK potrf/potrs calls return cho_factor/cho_solve's
    bits for vector and matrix right-hand sides (C and Fortran order), and
    leave their inputs untouched."""
    rng = np.random.default_rng(30)
    for d in (1, 5, 8):
        B = rng.normal(size=(d, d))
        hess = B @ B.T + 0.5 * np.eye(d)
        hess_before = hess.copy()
        for rhs in (rng.normal(size=d), rng.normal(size=(d, 3)), rng.normal(size=(3, d)).T):
            rhs_before = rhs.copy()
            reference = cho_solve(cho_factor(hess, lower=True), rhs)
            assert np.array_equal(cholesky_solve(hess, rhs), reference)
            assert np.array_equal(rhs, rhs_before)
        assert np.array_equal(hess, hess_before)


def test_cholesky_solve_rejects_indefinite_and_zero_hessians():
    for hess in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))):
        with pytest.raises(FactorizationFailure, match="not positive definite"):
            cholesky_solve(hess, np.ones(2))


def test_hypergradient_matches_composed_derivative_quadratic():
    """For the scalar quadratic family y*(x) = x - a2, so the composed
    objective has derivative (x + 2 a1) + (x - 2 a2)."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        a1, a2 = rng.normal(size=2)
        rnd = quadratic_round(a1, a2)
        x = rng.normal(size=1)
        y = np.asarray(rnd.closed_form_y_star(x))
        g = hypergradient(rnd, x, y)
        expected = (x[0] + 2.0 * a1) + (x[0] - 2.0 * a2)
        np.testing.assert_allclose(g, [expected], atol=1e-12)


def _coupled_round(c1: float, c2: float) -> RoundFunctions:
    """f = 0.5||y - c1 P x||^2 with P x = (x_1, x_2, 0),
    g = 0.5 y^T H y - c2 x^T B y with fixed diagonal H and dense B.

    y*(x) = c2 H^{-1} B^T x is linear, so central differences of the
    composed objective converge to the true hypergradient.
    """
    H = np.diag([2.0, 3.0, 5.0])
    B = np.array([[1.0, 0.5, -0.2], [0.0, 1.5, 0.7]])
    Hinv = np.linalg.inv(H)

    def lift(x):
        return np.array([x[0], x[1], 0.0])

    def y_star(x):
        return c2 * Hinv @ (B.T @ x)

    return RoundFunctions(
        f=lambda x, y: 0.5 * float((y - c1 * lift(x)) @ (y - c1 * lift(x))),
        g=lambda x, y: 0.5 * float(y @ H @ y) - c2 * float(x @ B @ y),
        grad_x_f=lambda x, y: -c1 * (y[:2] - c1 * x),
        grad_y_f=lambda x, y: y - c1 * lift(x),
        grad_y_g=lambda x, y: H @ y - c2 * B.T @ x,
        jac_xy_g=lambda x, y: -c2 * B,
        hess_yy_g=lambda x, y: H,
        closed_form_y_star=y_star,
    )


def test_hypergradient_matches_finite_differences_coupled():
    """Central differences of x -> f(x, y*(x)) at h = 1e-5 agree with the
    analytic hypergradient to 1e-6 relative error on a coupled family."""
    rng = np.random.default_rng(3)
    rnd = _coupled_round(c1=0.8, c2=1.3)
    h = 1e-5
    for _ in range(5):
        x = rng.normal(size=2)
        y = np.asarray(rnd.closed_form_y_star(x))
        g = hypergradient(rnd, x, y)
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fp = rnd.f(x + e, np.asarray(rnd.closed_form_y_star(x + e)))
            fm = rnd.f(x - e, np.asarray(rnd.closed_form_y_star(x - e)))
            fd[j] = (fp - fm) / (2.0 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_make_weights_uniform():
    w = make_weights("uniform", 3)
    np.testing.assert_allclose(w.u, [1.0, 1.0, 1.0])
    assert w.W == pytest.approx(3.0)
    assert w.w == 3


def test_make_weights_exponential():
    """gamma = 0.5, w = 3: u = (1, 1/2, 1/4) and W = 1.75."""
    w = make_weights("exponential", 3, gamma=0.5)
    np.testing.assert_allclose(w.u, [1.0, 0.5, 0.25])
    assert w.W == pytest.approx(1.75)


def test_make_weights_validation():
    with pytest.raises(ValueError):
        make_weights("uniform", 0)
    with pytest.raises(ValueError):
        make_weights("exponential", 3, gamma=1.0)
    with pytest.raises(ValueError):
        make_weights("exponential", 3, gamma=0.0)
    with pytest.raises(ValueError):
        make_weights("exponential", 3)
    with pytest.raises(ValueError):
        make_weights("triangular", 3)


def test_weight_window_validation():
    with pytest.raises(ValueError):
        WeightWindow(w=2, u=np.array([0.5, 0.25]), W=0.75)  # u_0 != 1
    with pytest.raises(ValueError):
        WeightWindow(w=2, u=np.array([1.0, 1.5]), W=2.5)  # increasing
    with pytest.raises(ValueError):
        WeightWindow(w=2, u=np.array([1.0, -0.1]), W=0.9)  # nonpositive


def test_windowed_average_zero_pads_early_rounds():
    """At t = 1 with uniform weights and w = 3 the average is one third of
    the single available round's hypergradient."""
    rnd = quadratic_round(0.3, -0.4)
    window = make_weights("uniform", 3)
    x = np.array([0.2])
    y = np.array([0.5])
    avg = windowed_hypergradient([rnd], 1, window, x, y)
    single = hypergradient(rnd, x, y)
    np.testing.assert_allclose(avg, single / 3.0, atol=1e-14)


def test_windowed_average_matches_manual_sum():
    rng = np.random.default_rng(4)
    rounds = [quadratic_round(*rng.normal(size=2)) for _ in range(6)]
    window = make_weights("exponential", 4, gamma=0.7)
    x = np.array([0.1])
    y = np.array([-0.3])
    t = 6
    avg = windowed_hypergradient(rounds, t, window, x, y)
    manual = np.zeros(1)
    for i in range(4):
        manual += window.u[i] * hypergradient(rounds[t - 1 - i], x, y)
    np.testing.assert_allclose(avg, manual / window.W, atol=1e-13)


def test_windowed_failure_names_offending_round():
    """A factorization failure inside the window is re-raised with the
    absolute round index of the offending term."""
    good = quadratic_round(0.0, 0.0)
    bad = dataclasses.replace(good, hess_yy_g=lambda x, y: np.array([[-1.0]]))
    rounds = (good, good, good, bad, good)
    window = make_weights("uniform", 3)
    with pytest.raises(FactorizationFailure) as info:
        windowed_hypergradient(rounds, 5, window, np.array([0.0]), np.array([0.0]))
    assert info.value.round_index == 4
