"""Tests for the implicit-differentiation solve, single-round
hypergradients, weight windows, and the time-averaged hypergradient."""
import dataclasses

import numpy as np
import pytest

from oagd import (
    FactorizationFailure,
    OracleDiverged,
    RoundFunctions,
    WeightWindow,
    hypergradient,
    make_weights,
    quadratic_round,
    quadratic_stream,
    windowed_hypergradient,
)
from oagd.hypergrad import _check_residual, cholesky_solve, sm_solve
from oagd.inner import newton_to_tolerance
from oagd.problems import ElasticNetStream, HOStream


def test_cholesky_solve_matches_dense_solve():
    """For vector and matrix right-hand sides (C and Fortran order) the
    solve leaves a residual ||H z - rhs|| <= 1e-12 ||rhs||, agrees with
    np.linalg.solve to 1e-13 relative, and leaves its inputs untouched."""
    rng = np.random.default_rng(30)
    for d in (1, 5, 8):
        B = rng.normal(size=(d, d))
        hess = B @ B.T + 0.5 * np.eye(d)
        hess_before = hess.copy()
        for rhs in (rng.normal(size=d), rng.normal(size=(d, 3)), rng.normal(size=(3, d)).T):
            rhs_before = rhs.copy()
            z = cholesky_solve(hess, rhs)
            assert np.linalg.norm(hess @ z - rhs) <= 1e-12 * np.linalg.norm(rhs)
            reference = np.linalg.solve(hess, rhs)
            assert np.linalg.norm(z - reference) <= 1e-13 * np.linalg.norm(reference)
            assert np.array_equal(rhs, rhs_before)
        assert np.array_equal(hess, hess_before)


def test_cholesky_solve_rejects_indefinite_and_zero_hessians():
    for hess in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))):
        with pytest.raises(FactorizationFailure, match="not positive definite"):
            cholesky_solve(hess, np.ones(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(FactorizationFailure, match="not finite"):
            cholesky_solve(np.array([[1.0, 0.0], [0.0, bad]]), np.ones(2))


def _structured_rounds():
    """(stream, x, y) for HOStream (d1 = 1 and d1 = d2) and ElasticNetStream
    (d1 = d2 + 1 and 2 d2) at d2 = 5, each with a random pair (x, y)."""
    rng = np.random.default_rng(31)
    d2 = 5
    tables = [rng.normal(size=(6, d2)), rng.normal(size=6),
              rng.normal(size=(6, d2)), rng.normal(size=6)]
    streams = [HOStream(*tables, d1=1), HOStream(*tables, d1=d2),
               ElasticNetStream(*tables, mu_smooth=0.5),
               ElasticNetStream(*tables, mu_smooth=0.5, d1=2 * d2)]
    return [(s, 0.5 * rng.normal(size=s.d1), rng.normal(size=d2)) for s in streams]


def test_sm_solve_matches_dense_cholesky():
    """On the regression rounds, sm_solve on hess_yy_parts agrees with
    cholesky_solve on the dense diag(d) + a a^T to 1e-12 relative, for the
    Newton step (a vector right-hand side), for M (the Jacobian's rows) and
    for the hypergradient grad_x f + M grad_y f."""
    for stream, x, y in _structured_rounds():
        rnd = stream[3]
        a, d = rnd.hess_yy_parts(x, y)
        hess = np.outer(a, a) + np.diag(d)
        grad = rnd.grad_y_g(x, y)
        step, dense_step = sm_solve(a, d, grad), cholesky_solve(hess, grad)
        assert np.linalg.norm(step - dense_step) <= 1e-12 * np.linalg.norm(dense_step)
        jac = np.column_stack([rnd.jac_xy_g_dot(x, y, e) for e in np.eye(d.size)])
        M, dense_M = -sm_solve(a, d, jac), -cholesky_solve(hess, jac.T).T
        assert np.linalg.norm(M - dense_M) <= 1e-12 * np.linalg.norm(dense_M)
        hg = hypergradient(rnd, x, y)
        dense_hg = rnd.grad_x_f(x, y) + dense_M @ rnd.grad_y_f(x, y)
        assert np.linalg.norm(hg - dense_hg) <= 1e-12 * np.linalg.norm(dense_hg)


def test_hypergradient_accepts_nearly_singular_inner_hessian():
    """At x = -20, -40, -60 the ridge's diag(d) + a a^T has d = 2 exp(x), so
    v = H^{-1} grad_y f is huge and its residual with it. The hypergradient
    still agrees to 1e-12 relative with the form that solves against the
    cross derivatives, J = 2 exp(x) y written out (rows scaled by d, so that
    solve is well scaled), and its residual check passes."""
    rng = np.random.default_rng(32)
    d2 = 5
    tables = [rng.normal(size=(6, d2)), rng.normal(size=6),
              rng.normal(size=(6, d2)), rng.normal(size=6)]
    for d1 in (1, d2):
        rnd = HOStream(*tables, d1=d1)[3]
        for xv in (-20.0, -40.0, -60.0):
            x, y = np.full(d1, xv), rng.normal(size=d2)
            a, d = rnd.hess_yy_parts(x, y)
            c2y = 2.0 * np.exp(x) * y
            jac = c2y[None, :] if d1 == 1 else np.diag(c2y)
            reference = -(sm_solve(a, d, jac) @ rnd.grad_y_f(x, y))
            np.testing.assert_allclose(hypergradient(rnd, x, y), reference, rtol=1e-12)


def _hess_diag(stream, x, y):
    """The regression family's inner Hessian diagonal D, written out:
    2 exp(x_ridge) (one weight broadcast over d2 when the ridge block is
    scalar), plus exp(x_smooth) mu^2 / (y^2 + mu^2)^(3/2) on the elastic
    net."""
    d2 = stream.d2
    diag = 2.0 * np.broadcast_to(np.exp(x[d2:] if stream.smoothing else x), (d2,))
    if stream.smoothing:
        diag = diag + np.exp(x[:d2]) * stream.mu**2 / np.sqrt(y * y + stream.mu**2) ** 3
    return diag


def test_dense_hessian_built_from_parts():
    """The inner Hessian's parts (a, d), whose diag(d) + a a^T is the dense
    Hessian, are bit for bit the regression round's training row and the
    family's diagonal D, and the quadratic round's a = 0 and d = 1."""
    for stream, x, y in _structured_rounds():
        parts = stream[3].hess_yy_parts(x, y)
        assert np.array_equal(parts[0], stream.A_train[3])
        assert np.array_equal(parts[1], _hess_diag(stream, x, y))
    a, d = quadratic_round(0.3, -0.4).hess_yy_parts(np.array([0.2]), np.array([0.5]))
    assert np.array_equal(a, [0.0]) and np.array_equal(d, [1.0])


def test_sm_solve_rejects_nonpositive_diagonal():
    """A diagonal that is not finite and positive is a FactorizationFailure,
    and damped Newton reports it as OracleDiverged."""
    a = np.array([1.0, 2.0])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(FactorizationFailure, match="not finite and positive"):
            sm_solve(a, np.array([1.0, bad]), np.ones(2))
    stream, x, y = _structured_rounds()[0]
    rnd = stream[3]
    a, d = rnd.hess_yy_parts(x, y)
    # the solve Newton reads: the inner model's
    broken = rnd.inner_model(x)._replace(solve=lambda z, rhs: sm_solve(a, -d, rhs))
    with pytest.raises(OracleDiverged, match="not finite and positive"):
        newton_to_tolerance(broken, y, tol=1e-12)


def _stacked(rounds):
    """A stacked round assembled from per-round handles whose rows share
    their rank-one part a: row t of each argument goes to rounds[t]."""

    def rows(name):
        return lambda x, y: np.array([getattr(r, name)(p, q) for r, p, q in zip(rounds, x, y)])

    def parts(x, y):
        a, d = zip(*(r.hess_yy_parts(p, q) for r, p, q in zip(rounds, x, y)))
        assert all(np.array_equal(v, a[0]) for v in a)
        return a[0], np.array(d)

    return RoundFunctions(
        f=rows("f"), g=rows("g"), grad_x_f=rows("grad_x_f"), grad_y_f=rows("grad_y_f"),
        grad_y_g=rows("grad_y_g"), hess_yy_parts=parts,
        jac_xy_g_dot=lambda x, y, v: np.array(
            [r.jac_xy_g_dot(p, q, w) for r, p, q, w in zip(rounds, x, y, v)]),
    )


def test_stacked_hypergradient_matches_rows_and_flags_bad_row():
    """A stacked round's hypergradient equals the per-row calls: bit for
    bit on the quadratic stream's stacked_round, within 1e-12 relative on
    a regression round at five points (d2 = 3, nonzero rank-one part, one
    diagonal per point). One row with a
    diagonal that is not finite and positive, or with a residual out of
    tolerance, is a FactorizationFailure."""
    rng = np.random.default_rng(41)
    stream = quadratic_stream("alt_sqrt", 12)
    x, y = rng.uniform(-1.0, 1.0, size=(9, 1)), rng.normal(size=(9, 1))
    rows = stream.stacked_round(9)
    expected = np.array([hypergradient(stream[t], x[t], y[t]) for t in range(9)])
    assert np.array_equal(hypergradient(rows, x, y), expected)
    for reg, _, _ in _structured_rounds():
        xr = 0.5 * rng.normal(size=(5, reg.d1))
        yr = rng.normal(size=(5, reg.d2))
        expected = np.array([hypergradient(reg[3], xr[t], yr[t]) for t in range(5)])
        np.testing.assert_allclose(hypergradient(_stacked([reg[3]] * 5), xr, yr),
                                   expected, rtol=1e-12, atol=1e-14)
    a, d = rows.hess_yy_parts(x, y)
    for bad in (0.0, -1.0, np.nan, np.inf):
        d_bad = np.array(d)
        d_bad[4] = bad
        broken = dataclasses.replace(rows, hess_yy_parts=lambda x, y: (a, d_bad))
        with pytest.raises(FactorizationFailure, match="not finite and positive"):
            hypergradient(broken, x, y)
    # each row against its own scale: row 1's large grad_y f does not
    # excuse row 0's residual
    rhs, one = np.array([[1.0], [1e6]]), np.ones((2, 1))
    with pytest.raises(FactorizationFailure, match="linear-system residual"):
        _check_residual(np.zeros(1), one, rhs + [[1e-9], [0.0]], rhs)
    _check_residual(np.zeros(1), one, rhs + [[0.0], [1e-9]], rhs)


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
    g = 0.5 y^T H y - c2 x^T B y with fixed diagonal H (hess_yy_parts a = 0,
    d = diag H) and dense B.

    y*(x) = c2 H^{-1} B^T x is linear, so central differences of the
    composed objective converge to the true hypergradient.
    """
    h = np.array([2.0, 3.0, 5.0])
    H = np.diag(h)
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
        jac_xy_g_dot=lambda x, y, v: -c2 * (B @ v),
        hess_yy_parts=lambda x, y: (np.zeros(3), h),
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
    bad = dataclasses.replace(good, hess_yy_parts=lambda x, y: (np.zeros(1), np.array([-1.0])))
    rounds = (good, good, good, bad, good)
    window = make_weights("uniform", 3)
    with pytest.raises(FactorizationFailure) as info:
        windowed_hypergradient(rounds, 5, window, np.array([0.0]), np.array([0.0]))
    assert info.value.round_index == 4
