"""Tests for the online alternating loop, its trace bookkeeping, the outer
step-size schedules, and the full-information benchmark."""
import numpy as np
import pytest

from oagd import (
    DecisionPair,
    FeasibleSet,
    HOStream,
    InnerSchedule,
    NonFiniteIterate,
    StepSizeSchedule,
    StreamExhausted,
    derive_constants,
    full_info_run,
    make_weights,
    oagd_run,
    project,
    quadratic_round,
    quadratic_stream,
)
from oagd.problems import QUADRATIC_CONSTANTS

from conftest import ListStream, with_defaults

DERIVED = derive_constants(QUADRATIC_CONSTANTS)


def _run(stream, T, w=1, alpha=0.1, beta=1.0, K=1, init=(0.0, 0.0), fset=None):
    fset = fset if fset is not None else FeasibleSet.symmetric_box(1.0, 1)
    return oagd_run(
        stream,
        DecisionPair(x=np.array([init[0]]), y=np.array([init[1]])),
        fset,
        make_weights("uniform", w),
        StepSizeSchedule.constant(alpha),
        InnerSchedule.fixed(beta=beta, K=K),
        T=T,
    )


def test_single_round_zero_coefficient_example():
    """Zero-coefficient quadratic from (x, y) = (1, 1) with alpha = 0.1,
    beta = 1, K = 1: the inner gradient vanishes so y_2 = 1, the
    hypergradient is x + y = 2, and x_2 = 1 - 0.1 * 2 = 0.8."""
    stream = quadratic_stream("constant", T=1)
    tr = _run(stream, T=1, init=(1.0, 1.0))
    np.testing.assert_allclose(tr.x[0], [1.0])
    np.testing.assert_allclose(tr.y[0], [1.0])
    np.testing.assert_allclose(tr.y_after_inner[0], [1.0])
    np.testing.assert_allclose(tr.hypergrad[0], [2.0])
    np.testing.assert_allclose(tr.final_x, [0.8])
    np.testing.assert_allclose(tr.final_y, [1.0])
    assert tr.f_value[0] == pytest.approx(1.0)
    assert tr.K[0] == 1
    assert tr.alpha[0] == pytest.approx(0.1)
    assert tr.beta[0] == pytest.approx(1.0)
    assert tr.inner_residual[0] == pytest.approx(0.0)


def test_trace_replay_invariant():
    """Consecutive rows satisfy x_{t+1} = project(X, x_t - alpha_t h_t)."""
    stream = quadratic_stream("alt_sqrt", T=40)
    tr = _run(stream, T=40, w=5, alpha=0.2, K=3, init=(0.9, -0.5))
    fset = stream.fset
    xs = np.vstack([tr.x, tr.final_x[None, :]])
    for t in range(40):
        step = project(fset, tr.x[t] - tr.alpha[t] * tr.hypergrad[t])
        np.testing.assert_allclose(xs[t + 1], step, atol=1e-14)
    ys = np.vstack([tr.y, tr.final_y[None, :]])
    np.testing.assert_allclose(ys[1:], tr.y_after_inner, atol=0)


def test_trace_records_played_values():
    """f_value row t holds f_t at the pair played in round t, before the
    round's inner update, and inner_residual the inner gradient norm after
    it, on a quadratic stream (filled from its stacked round) and on a
    ridge stream (filled round by round)."""
    quad = quadratic_stream("alt_sqrt", T=12)
    rng = np.random.default_rng(12)
    ridge = HOStream(rng.normal(size=(12, 3)), rng.normal(size=12),
                     rng.normal(size=(12, 3)), rng.normal(size=12), d1=1)
    runs = ((quad, _run(quad, T=12, w=3, init=(0.4, 0.2))),
            (ridge, oagd_run(ridge, DecisionPair(x=np.array([0.4]), y=np.array([0.2, -0.1, 0.3])),
                             FeasibleSet.symmetric_box(1.0, 1), make_weights("uniform", 3),
                             StepSizeSchedule.constant(0.1), InnerSchedule.fixed(beta=0.05, K=2),
                             T=12)))
    for stream, tr in runs:
        for t in range(12):
            assert tr.f_value[t] == stream[t].f(tr.x[t], tr.y[t])
            resid = np.linalg.norm(stream[t].grad_y_g(tr.x[t], tr.y_after_inner[t]))
            assert tr.inner_residual[t] == resid


def test_iterates_stay_feasible():
    stream = quadratic_stream("alt_sqrt", T=30)
    tr = _run(stream, T=30, alpha=0.8, init=(1.0, 0.0))
    assert np.all(tr.x >= -1.0) and np.all(tr.x <= 1.0)
    assert stream.fset.contains(tr.final_x)


def test_generic_window_path_matches_fast_path():
    """The run on Stream's default follower and window average (inner_gd
    and the generic per-round loop) reproduces the run on the quadratic
    stream's overrides up to summation-order round-off."""
    stream = quadratic_stream("alt_sqrt", T=25)
    kw = dict(T=25, w=7, alpha=0.15, K=2, init=(0.3, -0.2))
    fast = _run(stream, **kw)
    generic = _run(with_defaults(stream, "inner_steps", "windowed_hypergrad"), **kw)
    np.testing.assert_allclose(fast.x, generic.x, atol=1e-12)
    np.testing.assert_allclose(fast.hypergrad, generic.hypergrad, atol=1e-12)
    np.testing.assert_allclose(fast.final_x, generic.final_x, atol=1e-12)


def test_stream_exhausted():
    stream = quadratic_stream("constant", T=4)
    with pytest.raises(StreamExhausted) as info:
        _run(stream, T=5)
    assert info.value.available == 4


def test_inner_divergence_reports_its_round():
    """Zero-coefficient quadratic (ell_g1 = 1) at x = 0 with alpha = 0 and
    beta = 9 >> 2/ell_g1: each inner step multiplies y by -8 exactly, so
    from y = 1 the iterate overflows float64 (2^1024) on step 342, which
    falls in round ceil(342 / 50) = 7 of 50-step rounds. The round is
    named both for the quadratic stream's fused inner_steps, which returns
    the non-finite iterate, and for a stream over the same rounds on
    Stream's default, whose inner_gd raises."""
    stream = quadratic_stream("constant", T=20)
    for s in (stream, ListStream([stream[i] for i in range(20)])):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate) as info:
            _run(s, T=20, alpha=0.0, beta=9.0, K=50, init=(0.0, 1.0))
        assert info.value.round_index == 7
        assert str(info.value) == "round 7: inner iterate became non-finite"


def test_regression_inner_divergence_reports_its_round():
    """Featureless ridge stream at x = 0: grad_y g = 2 y, so beta = 9 >>
    2/ell_g1 = 1 multiplies y by -17 per fused step; from y = 1 that
    overflows float64 on step 251, in round ceil(251 / 50) = 6. The zero
    validation rows keep the hypergradient at 0 until then."""
    zeros = np.zeros((10, 3))
    stream = HOStream(zeros, np.zeros(10), zeros, np.zeros(10), d1=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate) as info:
        oagd_run(stream, DecisionPair(x=np.zeros(1), y=np.ones(3)), FeasibleSet.unbounded(),
                 make_weights("uniform", 3), StepSizeSchedule.constant(0.0),
                 InnerSchedule.fixed(beta=9.0, K=50), T=10)
    assert info.value.round_index == 6
    assert str(info.value) == "round 6: inner iterate became non-finite"


def test_infeasible_init_rejected():
    stream = quadratic_stream("constant", T=2)
    with pytest.raises(ValueError):
        _run(stream, T=2, init=(2.0, 0.0))


def test_theorem_schedules_require_constants():
    stream = quadratic_stream("constant", T=2)
    with pytest.raises(ValueError, match="'convex_log_t' needs derived constants"):
        oagd_run(
            stream,
            DecisionPair(x=np.zeros(1), y=np.zeros(1)),
            stream.fset,
            make_weights("uniform", 1),
            StepSizeSchedule.constant(0.1),
            InnerSchedule.convex_log_t(beta=1.0),
            T=2,
        )


def test_capped_inner_iterations_are_recorded():
    stream = quadratic_stream("constant", T=12)
    tr = oagd_run(
        stream,
        DecisionPair(x=np.zeros(1), y=np.zeros(1)),
        stream.fset,
        make_weights("uniform", 1),
        StepSizeSchedule.constant(0.1),
        InnerSchedule.convex_log_t(beta=1.0, k_max=3),
        T=12,
        constants=DERIVED,
    )
    assert np.all(tr.K <= 3)
    assert any("capped" in w for w in tr.warnings)


@pytest.mark.parametrize("build, message", [
    (lambda: StepSizeSchedule.constant(-0.1), "needs alpha >= 0"),
    (lambda: StepSizeSchedule.strongly_convex_dynamic(0.0, DERIVED), "needs mu_f > 0"),
    (lambda: StepSizeSchedule.strongly_convex_static(-1.0), "needs mu_f > 0"),
    (lambda: StepSizeSchedule.convex_static(0.0, 5.0), "needs D > 0 and ell_f0 > 0"),
    (lambda: StepSizeSchedule.convex_static(2.0, -5.0), "needs D > 0 and ell_f0 > 0"),
    (lambda: StepSizeSchedule.custom(None), "needs a callable"),
    (lambda: StepSizeSchedule.constant(0.3).alpha_at(0), "round index must be >= 1"),
    (lambda: InnerSchedule.strongly_convex(1.0, c=0.0), "c must be positive"),
    (lambda: InnerSchedule.strongly_convex_static(1.0, mu_f=-1.0), "mu_f must be positive"),
    (lambda: InnerSchedule.convex_log_t(1.0, k_max=0), "k_max must be >= 1"),
])
def test_schedule_factories_reject_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_step_schedule_constant_and_custom():
    s = StepSizeSchedule.constant(0.3)
    assert s.alpha_at(1) == pytest.approx(0.3)
    assert s.alpha_at(1000) == pytest.approx(0.3)
    c = StepSizeSchedule.custom(lambda t: 1.0 / t)
    assert c.alpha_at(4) == pytest.approx(0.25)


def test_step_schedule_strongly_convex_static_decay():
    s = StepSizeSchedule.strongly_convex_static(mu_f=2.0)
    assert s.alpha_at(1) == pytest.approx(1.0)
    assert s.alpha_at(10) == pytest.approx(0.1)


def test_step_schedule_strongly_convex_dynamic_constant():
    """alpha = 4c/mu_f with c = min(1/34, ...) evaluated from the derived
    constants; for the unit quadratic c = 1/34 so alpha = 2/17."""
    s = StepSizeSchedule.strongly_convex_dynamic(mu_f=1.0, constants=DERIVED)
    assert s.alpha_at(1) == pytest.approx(2.0 / 17.0)
    assert s.alpha_at(7) == pytest.approx(2.0 / 17.0)


def test_step_schedule_convex_rules():
    s = StepSizeSchedule.convex_dynamic(DERIVED)
    assert s.alpha_at(3) == pytest.approx(1.0 / 32.0)
    st = StepSizeSchedule.convex_static(D=2.0, ell_f0=5.0)
    assert st.alpha_at(4) == pytest.approx(2.0 / (5.0 * 2.0))


def test_step_schedule_nonconvex_cap():
    s = StepSizeSchedule.nonconvex(1.0 / 12.0, DERIVED)
    assert s.alpha_at(1) == pytest.approx(1.0 / 12.0)
    with pytest.raises(ValueError):
        StepSizeSchedule.nonconvex(1.0 / 11.0, DERIVED)


def test_full_info_plays_previous_round_solutions():
    """After round t the benchmark moves to y_{t+1} = y*_t(x_t) and
    x_{t+1} = argmin_x f_t(x, y_{t+1}); for the quadratic family that is
    x_t - a2_t and the projected -2 a1_t."""
    a1 = np.array([0.2, -0.3, 0.1])
    a2 = np.array([0.5, 0.4, -0.6])
    stream = quadratic_stream("custom", T=3, coefficients=(a1, a2))
    init = DecisionPair(x=np.array([0.7]), y=np.array([0.1]))
    tr = full_info_run(stream, init, T=3)
    np.testing.assert_allclose(tr.x[0], [0.7])
    np.testing.assert_allclose(tr.y[0], [0.1])
    for t in range(3):
        np.testing.assert_allclose(tr.y_after_inner[t], tr.x[t] - a2[t], atol=1e-14)
        expected_x = np.clip(-2.0 * a1[t], -1.0, 1.0)
        nxt = tr.x[t + 1] if t + 1 < 3 else tr.final_x
        np.testing.assert_allclose(nxt, [expected_x], atol=1e-14)
    assert np.all(tr.K == 0)
    assert np.all(tr.alpha == 0.0)



def test_full_info_stacked_matches_round_by_round():
    """On a quadratic stream full_info_run plays every round from its
    stacked round in two calls; every trace array but wall_nanos, and the
    final pair, equal bit for bit those of the same rounds played one by
    one (Stream's default stacked_round, None). wall_nanos splits the two
    calls' time evenly over the rows."""
    for fset in (FeasibleSet.symmetric_box(1.0, 1), FeasibleSet.ball(np.zeros(1), 0.3)):
        stream = quadratic_stream("alt_sqrt", T=300, fset=fset)
        init = DecisionPair(x=np.array([0.25]), y=np.array([-0.6]))
        tr = full_info_run(stream, init, T=300)
        ref = full_info_run(with_defaults(stream, "stacked_round"), init, T=300)
        for name in ("x", "y", "y_after_inner", "hypergrad", "alpha", "beta", "K",
                     "f_value", "inner_residual", "final_x", "final_y"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
        assert np.all(tr.wall_nanos == tr.wall_nanos[0]) and tr.wall_nanos[0] >= 0


def test_full_info_stationary_stream_settles():
    """On a constant stream x stops moving after round 1 and y after round
    2 (y_3 is the exact response to the settled x_2)."""
    stream = quadratic_stream("constant", T=5, a1_const=0.1, a2_const=-0.2)
    init = DecisionPair(x=np.array([0.9]), y=np.array([0.9]))
    tr = full_info_run(stream, init, T=5)
    for t in range(2, 5):
        np.testing.assert_allclose(tr.x[t], tr.x[1], atol=1e-14)
    for t in range(3, 5):
        np.testing.assert_allclose(tr.y[t], tr.y[2], atol=1e-14)
    np.testing.assert_allclose(tr.y[2], tr.x[1] - (-0.2), atol=1e-14)


def test_full_info_requires_oracles():
    """The benchmark plays closed forms only: a round missing its inner
    solution or its partial minimizer in x raises OracleUnavailable."""
    import dataclasses

    from oagd import OracleUnavailable

    init = DecisionPair(x=np.zeros(1), y=np.zeros(1))
    for missing in ("closed_form_y_star", "closed_form_x_partial"):
        rounds = [dataclasses.replace(quadratic_round(0.0, 0.0), **{missing: None})]
        with pytest.raises(OracleUnavailable):
            full_info_run(ListStream(rounds), init, T=1)
