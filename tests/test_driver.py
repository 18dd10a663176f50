"""Tests for the online alternating loop, its trace bookkeeping, the outer
step-size schedules, and the full-information benchmark."""
import copy
import sys

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
    evaluate_schedules,
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
    message = "^round 1: inner schedule 'convex_log_t': needs derived constants$"
    with pytest.raises(ValueError, match=message):
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
    one (Stream's default stacked_round, None), hypergrad being nan in
    both, since the benchmark takes no hypergradient step. wall_nanos
    splits the two calls' time evenly over the rows."""
    for fset in (FeasibleSet.symmetric_box(1.0, 1), FeasibleSet.ball(np.zeros(1), 0.3)):
        stream = quadratic_stream("alt_sqrt", T=300, fset=fset)
        init = DecisionPair(x=np.array([0.25]), y=np.array([-0.6]))
        tr = full_info_run(stream, init, T=300)
        ref = full_info_run(with_defaults(stream, "stacked_round"), init, T=300)
        for name in ("x", "y", "y_after_inner", "hypergrad", "alpha", "beta", "K",
                     "f_value", "inner_residual", "final_x", "final_y"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name), equal_nan=True), name
        assert np.isnan(tr.hypergrad).all()
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


def _quad_and_list(a1, a2):
    """A custom-coefficient quadratic stream (fused follower and window
    table) and a ListStream over its rounds (Stream's default paths)."""
    quad = quadratic_stream("custom", T=len(a1), coefficients=(a1, a2))
    return quad, ListStream([quad[i] for i in range(len(a1))])


def _poisoned(stream, method, t_bad, value):
    """A copy of stream whose `method` adds `value` to its round-t_bad result."""
    view = copy.copy(stream)
    clean = getattr(stream, method)
    setattr(view, method, lambda t, *args: clean(t, *args) + value if t == t_bad else clean(t, *args))
    return view


def test_finite_iterates_whose_squares_overflow_run_on():
    """a2_t = -1e200 from (0, 0) with beta = 1 and K = 1 makes y_2 = 1e200
    and the hypergradient about 2e200: finite iterates whose v.v is inf. On
    an unbounded set x follows to about -2e197. The loop runs to the end on
    both streams."""
    for stream in _quad_and_list(np.zeros(4), np.full(4, -1e200)):
        with np.errstate(over="ignore", invalid="ignore"):
            tr = oagd_run(stream, DecisionPair(x=np.zeros(1), y=np.zeros(1)),
                          FeasibleSet.unbounded(), make_weights("uniform", 1),
                          StepSizeSchedule.constant(1e-3), InnerSchedule.fixed(beta=1.0, K=1), T=4)
            for v in (tr.y_after_inner, tr.hypergrad, tr.x[1:], tr.final_x):
                assert np.isfinite(v).all() and np.isinf(np.sum(v * v))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_iterates_name_their_round(bad):
    """A nan or +-inf entry in round 3's y_{t+1} is an inner failure, and
    one in its hypergradient an outer failure, on both streams, each named
    with round 3. So is an x_{t+1} that overflows from a finite alpha_3 and
    a finite hypergradient; alpha_3 = bad itself is the schedule's error,
    named with round 3 (test_custom_step_size_rejects_a_bad_alpha)."""
    rng = np.random.default_rng(27)
    init = DecisionPair(x=np.array([0.1]), y=np.array([-0.2]))

    def run(stream, alpha=lambda t: 0.1, error=NonFiniteIterate):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as info:
            oagd_run(stream, init, FeasibleSet.unbounded(), make_weights("uniform", 2),
                     StepSizeSchedule.custom(alpha), InnerSchedule.fixed(beta=0.5, K=2), T=5)
        return str(info.value)

    for stream in _quad_and_list(rng.normal(size=5), rng.normal(size=5)):
        assert run(_poisoned(stream, "inner_steps", 3, bad)) == (
            "round 3: inner iterate became non-finite")
        assert run(_poisoned(stream, "windowed_hypergrad", 3, bad)) == (
            "round 3: outer iterate became non-finite")
        assert run(_poisoned(stream, "windowed_hypergrad", 3, 1e300),
                   alpha=lambda t: 1e10 if t == 3 else 0.1) == (
            "round 3: outer iterate became non-finite")
        assert run(stream, alpha=lambda t: bad if t == 3 else 0.1, error=ValueError) == (
            f"round 3: step size schedule 'custom' gave alpha = {float(bad)!r}; "
            "it needs a finite alpha >= 0")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_custom_step_size_rejects_a_bad_alpha(bad):
    """A custom rule's nan, infinite or negative alpha_t is a ValueError
    naming round t and the schedule, as constant rejects alpha < 0; 0 and
    the largest finite float pass."""
    steps = StepSizeSchedule.custom(lambda t: bad if t == 4 else 0.5, label="decay")
    assert steps.alpha_at(3) == 0.5
    with pytest.raises(ValueError) as info:
        steps.alpha_at(4)
    assert str(info.value) == (f"round 4: step size schedule 'decay' gave "
                               f"alpha = {float(bad)!r}; it needs a finite alpha >= 0")
    for fine in (0.0, sys.float_info.max):
        assert StepSizeSchedule.custom(lambda t: fine).alpha_at(4) == fine


def test_every_step_size_rule_is_checked():
    """alpha_at checks every rule, not only custom's: constant(inf) and
    strongly_convex_static at mu_f = 1e-310 (2/mu_f = inf) are ValueErrors
    naming round 1 and the schedule, and oagd_run raises it before any
    round runs instead of bouncing x between the box's faces with
    alpha = inf."""
    with pytest.raises(ValueError, match=r"^round 1: step size schedule 'constant' gave alpha = inf;"):
        StepSizeSchedule.constant(float("inf")).alpha_at(1)
    with pytest.raises(ValueError, match=r"^round 1: step size schedule 'strongly_convex_static "):
        StepSizeSchedule.strongly_convex_static(1e-310).alpha_at(1)
    stream = quadratic_stream("alt_sqrt", T=4)
    played = []
    spy = copy.copy(stream)
    spy.inner_steps = lambda t, *args: played.append(t) or stream.inner_steps(t, *args)
    with pytest.raises(ValueError, match="gave alpha = inf"):
        _run(spy, T=4, alpha=float("inf"))
    assert played == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inner_schedule_rejects_a_non_finite_beta(bad):
    with pytest.raises(ValueError, match=f"beta must be positive and finite, got {bad!r}"):
        InnerSchedule.fixed(beta=bad, K=1)


def test_schedules_are_evaluated_once_before_round_1():
    """oagd_run calls each schedule rule once per round (alpha_1..alpha_T,
    then K_1..K_T), all before round 1's follower; the trace's alpha and K
    are those values. A K rule that
    fails (nan, inf) is a ValueError naming its round and schedule, raised
    before any round runs."""
    log = []
    steps = StepSizeSchedule.custom(lambda t: log.append(("alpha", t)) or 0.1 / t)
    inner = InnerSchedule.custom(beta=0.5, fn=lambda t: log.append(("K", t)) or t)
    stream = quadratic_stream("alt_sqrt", T=3)
    spy = copy.copy(stream)
    spy.inner_steps = lambda t, *args: log.append(("round", t)) or stream.inner_steps(t, *args)
    init = DecisionPair(x=np.zeros(1), y=np.zeros(1))
    tr = oagd_run(spy, init, stream.fset, make_weights("uniform", 1), steps, inner, T=3)
    assert log == [("alpha", 1), ("alpha", 2), ("alpha", 3), ("K", 1), ("K", 2), ("K", 3),
                   ("round", 1), ("round", 2), ("round", 3)]
    assert tr.alpha.tolist() == [0.1, 0.05, 0.1 / 3] and tr.K.tolist() == [1, 2, 3]
    for bad, reason in ((np.nan, "cannot convert float NaN to integer"),
                        (np.inf, "K_t overflows float64")):
        inner = InnerSchedule.custom(beta=0.5, fn=lambda t: bad if t == 3 else 2)
        message = f"^round 3: inner schedule 'custom': {reason}$"
        with pytest.raises(ValueError, match=message):
            evaluate_schedules(StepSizeSchedule.constant(0.1), inner, None, 5)
        log.clear()
        with pytest.raises(ValueError, match=message):
            oagd_run(spy, init, stream.fset, make_weights("uniform", 1),
                     StepSizeSchedule.constant(0.1), inner, T=3)
        assert log == []


def test_trace_y_is_y_after_inner_shifted_by_one():
    """y holds the initial y_1 and then y_after_inner one row down, and
    beta the inner step size, bit for bit, for oagd_run on the quadratic
    stream, a ridge stream and a ListStream, and for full_info_run on its
    stacked and round-by-round paths."""
    rng = np.random.default_rng(28)
    quad = quadratic_stream("alt_sqrt", T=9)
    ridge = HOStream(rng.normal(size=(9, 3)), rng.normal(size=9),
                     rng.normal(size=(9, 3)), rng.normal(size=9), d1=1)
    inner = InnerSchedule.fixed(beta=0.05, K=2)
    runs = []
    for stream in (quad, ridge, ListStream([quad[i] for i in range(9)])):
        init = DecisionPair(x=np.array([0.3]), y=rng.normal(size=stream.d2))
        runs.append((init, inner.beta, oagd_run(
            stream, init, FeasibleSet.symmetric_box(1.0, 1), make_weights("uniform", 3),
            StepSizeSchedule.constant(0.1), inner, T=9)))
    init = DecisionPair(x=np.array([0.3]), y=np.array([-0.4]))
    for stream in (quad, with_defaults(quad, "stacked_round")):
        runs.append((init, 0.0, full_info_run(stream, init, T=9)))
    for init, beta, tr in runs:
        assert tr.y[0].tobytes() == np.asarray(init.y, dtype=float).tobytes()
        assert tr.y[1:].tobytes() == tr.y_after_inner[:-1].tobytes()
        assert tr.beta.tobytes() == np.full(9, beta).tobytes()
