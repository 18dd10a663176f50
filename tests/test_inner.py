"""Tests for the inner gradient-descent step, the to-tolerance oracles, and
the iteration-count schedules."""
import dataclasses
import math

import numpy as np
import pytest

from oagd import (
    DerivedConstants,
    ElasticNetStream,
    HOStream,
    InnerSchedule,
    NonFiniteIterate,
    OracleDiverged,
    ProblemConstants,
    RoundFunctions,
    derive_constants,
    inner_gd,
    k_for_round,
    newton_to_tolerance,
    quadratic_round,
)
from oagd.inner import DEFAULT_K_MAX, pgd_to_stationarity, stream_inner_gd
from oagd.core import FeasibleSet


def _diag_quadratic(diag) -> RoundFunctions:
    """g(y) = 0.5 sum_i d_i y_i^2 with x unused; f = 0."""
    d = np.asarray(diag, dtype=float)
    return RoundFunctions(
        f=lambda x, y: 0.0,
        g=lambda x, y: 0.5 * float(d @ (y * y)),
        grad_x_f=lambda x, y: np.zeros(1),
        grad_y_f=lambda x, y: np.zeros_like(y),
        grad_y_g=lambda x, y: d * y,
        jac_xy_g=lambda x, y: np.zeros((1, d.size)),
        hess_yy_g=lambda x, y: np.diag(d),
    )


def test_inner_gd_one_step_diagonal():
    """g(y) = 0.5 (2 y_1^2 + 4 y_2^2) from (1, 1) with beta = 2/(4+2) = 1/3:
    one step lands on (1/3, -1/3)."""
    rnd = _diag_quadratic([2.0, 4.0])
    out = inner_gd(rnd, np.zeros(1), np.array([1.0, 1.0]), beta=1.0 / 3.0, K=1)
    np.testing.assert_allclose(out, [1.0 / 3.0, -1.0 / 3.0], atol=1e-15)


def test_inner_gd_exact_step_for_unit_curvature():
    """g(y) = 0.5 y^2 - c y with beta = 1 reaches the minimizer c in one
    step from zero."""
    c = 0.37

    def grad(x, y):
        return y - c

    rnd = RoundFunctions(
        f=lambda x, y: 0.0,
        g=lambda x, y: 0.5 * y[0] ** 2 - c * y[0],
        grad_x_f=lambda x, y: np.zeros(1),
        grad_y_f=lambda x, y: np.zeros(1),
        grad_y_g=grad,
        jac_xy_g=lambda x, y: np.zeros((1, 1)),
        hess_yy_g=lambda x, y: np.eye(1),
    )
    out = inner_gd(rnd, np.zeros(1), np.zeros(1), beta=1.0, K=1)
    np.testing.assert_allclose(out, [c], atol=1e-15)


def test_inner_gd_validates_arguments():
    rnd = _diag_quadratic([1.0])
    with pytest.raises(ValueError):
        inner_gd(rnd, np.zeros(1), np.zeros(1), beta=1.0, K=0)
    with pytest.raises(ValueError):
        inner_gd(rnd, np.zeros(1), np.zeros(1), beta=0.0, K=1)


def test_inner_gd_does_not_mutate_input():
    rnd = _diag_quadratic([1.0])
    y0 = np.array([2.0])
    inner_gd(rnd, np.zeros(1), y0, beta=0.5, K=3)
    assert y0[0] == 2.0


def test_inner_gd_raises_on_divergence():
    """beta far above 2/L makes the iterate grow geometrically until it
    overflows, which must surface as NonFiniteIterate."""
    rnd = _diag_quadratic([1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate):
        inner_gd(rnd, np.zeros(1), np.array([1.0]), beta=4.0, K=5000)


def test_inner_gd_contraction_rate():
    """With beta = 2/(ell + mu), K steps contract the distance to y* by at
    least (1 - 1/(kappa + 1))^K on strongly convex quadratics."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = float(rng.uniform(0.2, 2.0))
        ell = mu * float(rng.uniform(1.0, 40.0))
        d = np.concatenate([[mu, ell], rng.uniform(mu, ell, size=3)])
        rnd = _diag_quadratic(d)
        beta = 2.0 / (ell + mu)
        kappa = ell / mu
        y0 = rng.normal(size=5)
        for K in (1, 3, 9):
            out = inner_gd(rnd, np.zeros(1), y0, beta=beta, K=K)
            rate = (1.0 - 1.0 / (kappa + 1.0)) ** K
            assert np.linalg.norm(out) <= rate * np.linalg.norm(y0) * (1.0 + 1e-9)


def test_newton_to_tolerance_reaches_residual():
    rng = np.random.default_rng(6)
    rnd = quadratic_round(0.4, -0.7)
    x = np.array([0.3])
    out = newton_to_tolerance(rnd, x, rng.normal(size=1), tol=1e-12)
    np.testing.assert_allclose(out, rnd.closed_form_y_star(x), atol=1e-11)
    assert np.linalg.norm(rnd.grad_y_g(x, out)) <= 1e-12


def test_newton_to_tolerance_nonquadratic():
    """Smoothed absolute value g(y) = sqrt(y^2 + 0.01) + 0.5 (y - 1)^2 has a
    curvature peak at 0 that a fixed step estimated elsewhere would miss."""
    mu2 = 0.01

    def g(x, y):
        return float(np.sqrt(y[0] ** 2 + mu2) + 0.5 * (y[0] - 1.0) ** 2)

    def grad(x, y):
        return np.array([y[0] / np.sqrt(y[0] ** 2 + mu2) + (y[0] - 1.0)])

    def hess(x, y):
        return np.array([[mu2 / (y[0] ** 2 + mu2) ** 1.5 + 1.0]])

    rnd = RoundFunctions(
        f=lambda x, y: 0.0,
        g=g,
        grad_x_f=lambda x, y: np.zeros(1),
        grad_y_f=lambda x, y: np.zeros(1),
        grad_y_g=grad,
        jac_xy_g=lambda x, y: np.zeros((1, 1)),
        hess_yy_g=hess,
    )
    out = newton_to_tolerance(rnd, np.zeros(1), np.array([5.0]), tol=1e-10)
    assert abs(grad(None, out)[0]) <= 1e-10


def test_newton_to_tolerance_diverged_carries_residual():
    """An inner objective with no finite minimizer exhausts the step search;
    the raised error reports the last residual."""
    rnd = RoundFunctions(
        f=lambda x, y: 0.0,
        g=lambda x, y: float(-(y[0])),
        grad_x_f=lambda x, y: np.zeros(1),
        grad_y_f=lambda x, y: np.zeros(1),
        grad_y_g=lambda x, y: np.array([-1.0]),
        jac_xy_g=lambda x, y: np.zeros((1, 1)),
        hess_yy_g=lambda x, y: np.zeros((1, 1)),
        )
    with pytest.raises(OracleDiverged) as info:
        newton_to_tolerance(rnd, np.zeros(1), np.zeros(1), tol=1e-10)
    assert info.value.residual == pytest.approx(1.0)


def _regression_tables(d2, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(6, d2)), rng.normal(size=6), rng.normal(size=(6, d2)), rng.normal(size=6)


def test_newton_to_tolerance_matches_ridge_closed_form():
    """On ridge rounds (scalar and per-coordinate weights) Newton from zeros
    lands on the Sherman-Morrison closed form y*(x)."""
    rng = np.random.default_rng(8)
    for d1 in (1, 4):
        stream = HOStream(*_regression_tables(4, seed=d1), d1=d1)
        for t in (0, 5):
            for _ in range(3):
                x = rng.uniform(-2.0, 2.0, size=d1)
                out = newton_to_tolerance(stream[t], x, np.zeros(4), tol=1e-12)
                np.testing.assert_allclose(out, stream[t].closed_form_y_star(x), atol=1e-11)


def test_newton_to_tolerance_elastic_net_gradient_budget():
    """On smoothed elastic net rounds Newton reaches ||grad|| <= 1e-12 from
    zeros in at most 50 gradient evaluations."""
    rng = np.random.default_rng(9)
    stream = ElasticNetStream(*_regression_tables(5, seed=3), mu_smooth=0.1, d1=10)
    for t in range(6):
        x = rng.uniform(-2.0, 2.0, size=10)
        calls = []

        def grad(x, y, rnd=stream[t]):
            calls.append(1)
            return rnd.grad_y_g(x, y)

        rnd = dataclasses.replace(stream[t], grad_y_g=grad)
        out = newton_to_tolerance(rnd, x, np.zeros(5), tol=1e-12)
        assert np.linalg.norm(stream[t].grad_y_g(x, out)) <= 1e-12
        assert len(calls) <= 50


def test_pgd_to_stationarity_projected_minimum():
    """min 0.5 (x - 3)^2 over [-1, 1] stops at the boundary point 1 where
    the projected residual vanishes."""
    fset = FeasibleSet.box([-1.0], [1.0])
    out = pgd_to_stationarity(
        lambda v: 0.5 * float((v[0] - 3.0) ** 2),
        lambda v: np.array([v[0] - 3.0]),
        fset,
        np.array([-0.5]),
        tol=1e-12,
    )
    np.testing.assert_allclose(out, [1.0], atol=1e-10)


def test_pgd_to_stationarity_unconstrained_quadratic():
    rng = np.random.default_rng(7)
    A = np.diag([1.0, 4.0, 9.0])
    b = rng.normal(size=3)
    out = pgd_to_stationarity(
        lambda v: 0.5 * float(v @ A @ v) - float(b @ v),
        lambda v: A @ v - b,
        FeasibleSet.unbounded(),
        np.zeros(3),
        tol=1e-10,
    )
    np.testing.assert_allclose(out, np.linalg.solve(A, b), atol=1e-9)


QUAD_DERIVED = derive_constants(
    ProblemConstants(ell_f0=5.0, ell_f1=1.0, ell_g1=1.0, ell_g2=0.0, mu_g=1.0)
)


def test_k_for_round_fixed():
    sched = InnerSchedule.fixed(beta=1.0, K=7)
    assert k_for_round(sched, None, t=1) == (7, False)
    assert k_for_round(sched, None, t=99) == (7, False)


def test_k_for_round_convex_log_t():
    """kappa = 1: K_t = ceil(log(4 t^2)), so t = 1 gives 2 and t = 10
    gives ceil(log 400) = 6."""
    sched = InnerSchedule.convex_log_t(beta=1.0)
    assert k_for_round(sched, QUAD_DERIVED, t=1) == (2, False)
    assert k_for_round(sched, QUAD_DERIVED, t=10) == (6, False)


def test_k_for_round_strongly_convex():
    """kappa = 1, M_f = 2, c = 1/34: K = ceil(log(12*4*35 + 2)) = 8."""
    sched = InnerSchedule.strongly_convex(beta=1.0, c=1.0 / 34.0)
    k, capped = k_for_round(sched, QUAD_DERIVED, t=1)
    assert (k, capped) == (8, False)
    assert k == math.ceil(math.log(12.0 * 4.0 * 35.0 + 2.0))


def test_k_for_round_strongly_convex_static():
    """kappa = 1, L_y = 1, M_f = 2, mu_f = 1: K = ceil(log(288.5)) = 6."""
    sched = InnerSchedule.strongly_convex_static(beta=1.0, mu_f=1.0)
    assert k_for_round(sched, QUAD_DERIVED, t=3) == (6, False)


def test_k_for_round_caps_and_flags():
    sched = InnerSchedule.convex_log_t(beta=1.0, k_max=3)
    k, capped = k_for_round(sched, QUAD_DERIVED, t=10)
    assert (k, capped) == (3, True)


def test_k_for_round_custom_floor_is_one():
    sched = InnerSchedule.custom(beta=1.0, fn=lambda t: t - 5)
    assert k_for_round(sched, None, t=1) == (1, False)
    assert k_for_round(sched, None, t=9) == (4, False)
    with pytest.raises(ValueError):
        k_for_round(sched, None, t=0)


def test_inner_schedule_validation():
    with pytest.raises(ValueError):
        InnerSchedule.fixed(beta=0.0, K=1)
    with pytest.raises(ValueError):
        InnerSchedule.fixed(beta=1.0, K=0)
    with pytest.raises(ValueError):
        InnerSchedule(beta=1.0, kind="warm")
    with pytest.raises(ValueError):
        InnerSchedule(beta=1.0, kind="custom")
    assert InnerSchedule.theorem_beta(3.0, 1.0) == pytest.approx(0.5)
    assert InnerSchedule.fixed(beta=1.0, K=2).k_max == DEFAULT_K_MAX


def test_stream_inner_gd_paths_agree_and_validate():
    """A regression stream takes its fused inner_steps, a plain list of
    rounds the generic inner_gd; both give the same bits and reject K < 1
    and beta <= 0."""
    stream = HOStream(*_regression_tables(4, seed=4), d1=1)
    rounds = [stream[i] for i in range(len(stream))]
    x, y = np.array([0.3]), np.ones(4)
    np.testing.assert_array_equal(
        stream_inner_gd(stream, 3, x, y, 0.05, 9), stream_inner_gd(rounds, 3, x, y, 0.05, 9)
    )
    for s in (stream, rounds):
        with pytest.raises(ValueError):
            stream_inner_gd(s, 1, x, y, beta=0.05, K=0)
        with pytest.raises(ValueError):
            stream_inner_gd(s, 1, x, y, beta=0.0, K=1)
