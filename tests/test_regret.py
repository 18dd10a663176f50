"""Tests for the comparator oracles, path lengths, regret series, and the
aggregate report."""
import dataclasses
import types
import warnings

import numpy as np
import pytest

from oagd import (
    ComparatorSeries,
    DecisionPair,
    ElasticNetStream,
    FeasibleSet,
    HOStream,
    InnerSchedule,
    NonConvexFlag,
    OracleDiverged,
    RoundFunctions,
    StepSizeSchedule,
    StreamExhausted,
    comparator_series,
    compute_report,
    full_info_run,
    h_estimate,
    inner_oracle,
    local_regret_series,
    make_weights,
    oagd_run,
    outer_oracle,
    path_lengths,
    project,
    quadratic_round,
    quadratic_stream,
)
from oagd.regret import (
    H_BLOCK_ROUNDS,
    INNER_ORACLE_TOL,
    _sample_points,
    attach_static,
    kronecker_points,
)

from conftest import ListStream, with_defaults


def _strip(rnd):
    return dataclasses.replace(
        rnd, closed_form_y_star=None, closed_form_x_star=None, closed_form_x_partial=None
    )


def test_inner_oracle_prefers_closed_form():
    rnd = quadratic_round(0.2, 0.5)
    x = np.array([0.3])
    np.testing.assert_allclose(inner_oracle(rnd, x), [-0.2], atol=1e-14)


def test_inner_oracle_numeric_matches_closed_form():
    rnd = quadratic_round(0.2, 0.5)
    x = np.array([0.3])
    out = inner_oracle(_strip(rnd), x, y0=np.array([2.0]))
    np.testing.assert_allclose(out, [-0.2], atol=1e-11)
    with pytest.raises(ValueError):
        inner_oracle(_strip(rnd), x)


def test_outer_oracle_closed_form_example():
    """quadratic with a1 = 0.2, a2 = 0.5: x* = a2 - a1 = 0.3."""
    rnd = quadratic_round(0.2, 0.5)
    np.testing.assert_allclose(outer_oracle(rnd, FeasibleSet.symmetric_box(1.0, 1)), [0.3])


def test_outer_oracle_numeric_matches_closed_form():
    fset = FeasibleSet.symmetric_box(1.0, 1)
    for a1, a2 in ((0.2, 0.5), (-0.8, 0.9), (0.9, -0.9)):
        rnd = quadratic_round(a1, a2, fset=fset)
        expected = np.asarray(rnd.closed_form_x_star())
        got = outer_oracle(
            _strip(rnd), fset, x0=np.zeros(1), y0=np.zeros(1), tol=1e-11
        )
        np.testing.assert_allclose(got, expected, atol=1e-8)


def test_outer_oracle_small_objective_from_box_edge():
    """A composed objective of size 1e-6, phi(x) = f(x, y*(x)) with
    y*(x) = x, warm started at the box edge x = 3: phi(3) ~ 8.6e-7 and
    phi'(3) ~ 1.5e-6, so the first Armijo decrease (~2e-16) is far above
    the float64 resolution of phi and the solve must reach the interior
    minimizer instead of stalling."""
    scale, center, offset = 1.96e-6, 2.2346, 2.86e-7
    rnd = RoundFunctions(
        f=lambda x, y: scale * 0.5 * (y[0] - center) ** 2 + offset,
        g=lambda x, y: 0.5 * y[0] ** 2 - x[0] * y[0],
        grad_x_f=lambda x, y: np.zeros(1),
        grad_y_f=lambda x, y: np.array([scale * (y[0] - center)]),
        grad_y_g=lambda x, y: np.array([y[0] - x[0]]),
        jac_xy_g_dot=lambda x, y, v: -v,
        hess_yy_parts=lambda x, y: (np.zeros(1), np.ones(1)),
    )
    fset = FeasibleSet.box([0.0], [3.0])
    out = outer_oracle(rnd, fset, tol=1e-10, x0=np.array([3.0]), y0=np.zeros(1))
    # stationarity: |phi'(x)| = scale |x - center| <= 1e-10 (1 + |x|)
    assert scale * abs(out[0] - center) <= 1e-10 * (1.0 + abs(out[0]))


def test_comparator_series_nonconvex_flag():
    stream = ListStream([_strip(quadratic_round(0.1, 0.4))])
    with pytest.warns(NonConvexFlag):
        comparator_series(stream, FeasibleSet.symmetric_box(1.0, 1), convex=False)


def test_comparator_series_closed_form_quadratic():
    a1 = np.array([0.1, -0.6, 0.2])
    a2 = np.array([0.4, 0.8, -0.5])
    stream = quadratic_stream("custom", T=3, coefficients=(a1, a2))
    series = comparator_series(stream, stream.fset)
    np.testing.assert_allclose(series.x_star[:, 0], np.clip(a2 - a1, -1, 1), atol=1e-14)
    np.testing.assert_allclose(series.y_star[:, 0], series.x_star[:, 0] - a2, atol=1e-14)
    for t in range(3):
        assert series.f_star[t] == pytest.approx(
            stream[t].f(series.x_star[t], series.y_star[t])
        )
    assert series.provenance == "closed_form"
    # the static comparator is the projected mean of a2 - a1
    np.testing.assert_allclose(series.x_static, [np.mean(a2 - a1)], atol=1e-14)
    assert series.f_static is not None


def _stacked_cases():
    """Quadratic streams of 40 rounds on each kind of feasible set."""
    rng = np.random.default_rng(31)
    custom = tuple(rng.uniform(-1.5, 1.5, size=(4, 40)))
    sets = (
        FeasibleSet.symmetric_box(1.0, 1),
        FeasibleSet.box([-0.3], [0.8]),
        FeasibleSet.unbounded(),
        FeasibleSet.ball([0.2], 0.5),
    )
    for fset in sets:
        yield quadratic_stream("alt_sqrt", 40, a1_mode="match", fset=fset)
        yield quadratic_stream("alt_sqrt", 40, a1_mode="zero", fset=fset)
        yield quadratic_stream("constant", 40, a1_const=0.4, a2_const=-0.5, fset=fset)
        yield quadratic_stream("custom", 40, coefficients=custom, fset=fset)


TRACE_FIELDS = ("x", "y", "y_after_inner", "hypergrad", "alpha", "beta", "K",
                "f_value", "inner_residual", "final_x", "final_y")


def _assert_same_bits(got, ref, name=""):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape, name
    assert got.tobytes() == ref.tobytes(), name


def test_stacked_quadratic_measurement_matches_per_round():
    """The quadratic stream's stacked_round and stacked_windowed_hypergrad
    give comparator_series (with its static block), oagd_run, full_info_run
    and local_regret_series what Stream's defaults for them (the per-round
    paths) give over the first T = 25 of 40 rounds: comparators
    exactly and their values within 1e-15 relative; both drivers' traces
    bit for bit except wall_nanos, and the stacked g on the trace's rows bit
    for bit; local regret bit for bit at w = 1 and
    within 1e-15 relative for longer windows, whose sums run in another
    order."""
    T = 25
    windows = (make_weights("uniform", 1), make_weights("uniform", 3),
               make_weights("uniform", T), make_weights("exponential", 4, gamma=0.7),
               make_weights("exponential", 10, gamma=0.8))
    for stream in _stacked_cases():
        per_round = with_defaults(stream, "stacked_round", "stacked_windowed_hypergrad")
        fset = stream.fset
        stacked_cmp = comparator_series(stream, fset, T=T)
        ref_cmp = comparator_series(per_round, fset, T=T)
        for name in ("x_star", "y_star", "x_static"):
            np.testing.assert_array_equal(getattr(stacked_cmp, name), getattr(ref_cmp, name))
        for name in ("f_star", "grad_norm", "y_static", "f_static"):
            np.testing.assert_allclose(getattr(stacked_cmp, name), getattr(ref_cmp, name),
                                       rtol=1e-15, atol=0.0)
        assert stacked_cmp.provenance == ref_cmp.provenance == "closed_form"

        init = DecisionPair(x=project(fset, np.array([0.6])), y=np.array([-0.4]))
        run = (init, fset, windows[3], StepSizeSchedule.constant(0.3),
               InnerSchedule.fixed(beta=0.5, K=3))
        trace = oagd_run(stream, *run, T=T)
        x, y = trace.x, trace.y_after_inner
        _assert_same_bits(stream.stacked_round(T).g(x, y),
                          [stream[i].g(x[i], y[i]) for i in range(T)], "g")
        for got, ref in ((trace, oagd_run(per_round, *run, T=T)),
                         (full_info_run(stream, init, T), full_info_run(per_round, init, T))):
            for name in TRACE_FIELDS:
                _assert_same_bits(getattr(got, name), getattr(ref, name), name)
            assert got.warnings == ref.warnings

        for window in windows:
            got = local_regret_series(trace, stream, window)
            ref = local_regret_series(trace, per_round, window)
            if window.w == 1:
                _assert_same_bits(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    # draws from [-3, 3] whose np.float_power(v, 2), the round's scalar
    # v ** 2, differs from v * v in the last bit, which no trace above
    # meets; with a1 = a2 = 0 each square decides its row's f or g alone
    x_sq, y_sq = -1.3275170599102342, -1.849539948621794
    assert np.float_power(x_sq, 2) != x_sq * x_sq and np.float_power(y_sq, 2) != y_sq * y_sq
    stream = quadratic_stream("constant", 2)
    stacked = stream.stacked_round(2)
    x, y = np.array([[x_sq], [0.0]]), np.array([[0.0], [y_sq]])
    for name in ("f", "g"):
        _assert_same_bits(getattr(stacked, name)(x, y),
                          [getattr(stream[i], name)(x[i], y[i]) for i in range(2)], name)


def test_comparator_series_numeric_provenance():
    stream = ListStream([_strip(quadratic_round(0.1, 0.2)), _strip(quadratic_round(-0.2, 0.3))])
    series = comparator_series(stream, FeasibleSet.symmetric_box(1.0, 1))
    assert series.provenance.startswith("numerical")
    np.testing.assert_allclose(series.x_star[:, 0], [0.1, 0.5], atol=1e-8)
    # a closed-form round next to one without closed_form_x_star
    stream = ListStream([quadratic_round(0.1, 0.2), _strip(quadratic_round(-0.2, 0.3))])
    series = comparator_series(stream, FeasibleSet.symmetric_box(1.0, 1))
    assert series.provenance == "mixed"
    np.testing.assert_allclose(series.x_star[:, 0], [0.1, 0.5], atol=1e-8)


def test_oracle_failure_names_its_round():
    """Round 3's inner Hessian diagonal is 0, so its Newton solve fails;
    comparator_series and the per-round paths of h_estimate and
    local_regret_series raise OracleDiverged with round_index 3 and the
    finite residual Newton stopped at."""
    bad = dataclasses.replace(_strip(quadratic_round(0.3, 0.5)),
                              hess_yy_parts=lambda x, y: (np.zeros(1), np.zeros(1)))
    rounds = [_strip(quadratic_round(0.1, 0.4)), _strip(quadratic_round(0.2, -0.3)), bad,
              _strip(quadratic_round(0.0, 0.1))]
    stream, fset = ListStream(rounds), FeasibleSet.symmetric_box(1.0, 1)
    trace = types.SimpleNamespace(T=4, d2=1, x=np.zeros((4, 1)))
    for measure in (lambda: comparator_series(stream, fset),
                    lambda: h_estimate(stream, fset, n_samples=4),
                    lambda: local_regret_series(trace, stream, make_weights("uniform", 2))):
        with pytest.raises(OracleDiverged, match="^round 3: inner oracle at residual") as info:
            measure()
        assert info.value.round_index == 3
        assert np.isfinite(info.value.residual) and info.value.residual > 0


def test_attach_static_numeric_minimizes_average():
    """Without a closed form the static block comes from a projected solve
    of the time-averaged composed objective; for quadratics that is the
    mean of a2 - a1."""
    rounds = ListStream([_strip(quadratic_round(a1, a2)) for a1, a2 in ((0.1, 0.4), (0.3, 0.2))])
    fset = FeasibleSet.symmetric_box(1.0, 1)
    series = comparator_series(rounds, fset, include_static=False)
    assert series.x_static is None
    nan_paths = path_lengths(series, 1)
    assert np.isnan(nan_paths[2])
    attach_static(series, rounds, fset)
    np.testing.assert_allclose(series.x_static, [0.1], atol=1e-7)
    for t, rnd in enumerate(rounds.rounds):
        y_t = series.y_static[t]
        assert np.linalg.norm(rnd.grad_y_g(series.x_static, y_t)) <= INNER_ORACLE_TOL
        assert series.f_static[t] == rnd.f(series.x_static, y_t)


def test_path_lengths_piecewise_example():
    """Outer comparators 0, 1, 1, 3 have P_1 = 1 + 0 + 2 = 3 and
    P_2 = 1 + 0 + 4 = 5."""
    x = np.array([[0.0], [1.0], [1.0], [3.0]])
    y = np.array([[0.0], [0.0], [2.0], [2.0]])
    series = ComparatorSeries(
        x_star=x, y_star=y, f_star=np.zeros(4), grad_norm=np.zeros(4),
        provenance="closed_form",
    )
    p1, y1, _ = path_lengths(series, 1)
    p2, y2, _ = path_lengths(series, 2)
    assert (p1, p2) == (3.0, 5.0)
    assert (y1, y2) == (2.0, 4.0)
    with pytest.raises(ValueError):
        path_lengths(series, 3)


def test_path_lengths_single_round_is_zero():
    series = ComparatorSeries(
        x_star=np.ones((1, 2)), y_star=np.ones((1, 3)),
        f_star=np.zeros(1), grad_norm=np.zeros(1), provenance="closed_form",
    )
    assert path_lengths(series, 1)[0] == 0.0


def test_kronecker_points_fill_box():
    lo, hi = np.array([-1.0, 2.0]), np.array([1.0, 5.0])
    pts = kronecker_points(64, lo, hi)
    assert pts.shape == (64, 2)
    assert np.all(pts >= lo) and np.all(pts <= hi)
    np.testing.assert_array_equal(pts, kronecker_points(64, lo, hi))
    # low-discrepancy: every quarter of the box receives some points
    mid = 0.5 * (lo + hi)
    for sx in (pts[:, 0] < mid[0], pts[:, 0] >= mid[0]):
        for sy in (pts[:, 1] < mid[1], pts[:, 1] >= mid[1]):
            assert np.count_nonzero(sx & sy) > 4


def test_sample_points_ball_and_unbounded():
    """H_T's cloud lies in a ball set; for an unbounded set it spans the
    trace's x range padded by 1 per coordinate, or [-1, 1] without a
    trace."""
    ball = FeasibleSet.ball([1.0, -2.0], 0.5)
    pts = _sample_points(ball, 2, 64)
    assert pts.shape == (64, 2)
    assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= 0.5 + 1e-15)
    free = FeasibleSet.unbounded()
    for trace_x, lo, hi in ((None, [-1.0, -1.0], [1.0, 1.0]),
                            (np.zeros((0, 2)), [-1.0, -1.0], [1.0, 1.0]),
                            (np.array([[0.0, 3.0], [2.0, 5.0]]), [-1.0, 2.0], [3.0, 6.0])):
        pts = _sample_points(free, 2, 64, trace_x=trace_x)
        np.testing.assert_array_equal(pts, kronecker_points(64, np.array(lo), np.array(hi)))


def test_h_estimate_zero_for_stationary_stream():
    stream = quadratic_stream("constant", T=6, a1_const=0.2, a2_const=0.1)
    h = h_estimate(stream, stream.fset)
    assert h == pytest.approx(0.0, abs=1e-18)


def test_h_estimate_exact_for_shifting_quadratics():
    """y*_t(x) = x - a2_t, so each summand is (a2_t - a2_{t-1})^2 for every
    x and the sampled supremum is exact."""
    a2 = np.array([0.0, 0.5, -0.5])
    stream = quadratic_stream("custom", T=3, coefficients=(np.zeros(3), a2))
    h = h_estimate(stream, stream.fset)
    assert h == pytest.approx(0.25 + 1.0, rel=1e-12)
    # one round has no predecessor to vary from
    assert h_estimate(stream, stream.fset, T=1) == 0.0


def _h_per_point(stream, pts):
    """h_estimate's sum over a given cloud, one inner_oracle call per point
    and round, warm started from the point's previous solution."""
    prev = np.array([inner_oracle(stream[0], p, y0=np.zeros(stream.d2)) for p in pts])
    total = 0.0
    for t in range(1, len(stream)):
        cur = np.array([inner_oracle(stream[t], p, y0=y) for p, y in zip(pts, prev)])
        total += float(np.max(np.sum((cur - prev) ** 2, axis=1)))
        prev = cur
    return total


def test_h_estimate_matches_per_point_oracle():
    """One batched call per round, or per block of H_BLOCK_ROUNDS rounds on
    a stacked stream, equals the per-point loop: exactly for the quadratic
    closed form (around the block edges and over several blocks too) and
    the elastic net's per-point Newton, within 1e-12 for ridge closed forms
    with d1 = 1 and d1 = d2."""
    rng = np.random.default_rng(40)
    T, d2, n = 6, 3, 12
    tables = (rng.normal(size=(T, d2)), rng.normal(size=T),
              rng.normal(size=(T, d2)), rng.normal(size=T))
    quad = quadratic_stream("alt_sqrt", T=T)
    long_quads = [quadratic_stream("custom", T=m, fset=FeasibleSet.box([-0.3], [0.8]),
                                   coefficients=tuple(rng.uniform(-1.5, 1.5, size=(4, m))))
                  for m in (2, H_BLOCK_ROUNDS - 1, H_BLOCK_ROUNDS, H_BLOCK_ROUNDS + 1, 600)]
    cases = [(q, q.fset, 0.0) for q in [quad] + long_quads]
    cases += [(HOStream(*tables, d1=1), FeasibleSet.box([-1.0], [1.0]), 1e-12),
              (HOStream(*tables, d1=d2), FeasibleSet.symmetric_box(1.0, d2), 1e-12),
              (ElasticNetStream(*tables, mu_smooth=0.5), FeasibleSet.symmetric_box(1.0, d2 + 1), 0.0)]
    for stream, fset, rel in cases:
        pts = _sample_points(fset, stream.d1, n)
        h = h_estimate(stream, fset, n_samples=n)
        assert h > 0.0
        assert h == pytest.approx(_h_per_point(stream, pts), rel=rel, abs=0.0)


def _small_run(T=15, w=3):
    stream = quadratic_stream("alt_sqrt", T=T)
    trace = oagd_run(
        stream,
        DecisionPair(x=np.array([0.5]), y=np.array([0.0])),
        stream.fset,
        make_weights("uniform", w),
        StepSizeSchedule.constant(0.3),
        InnerSchedule.fixed(beta=1.0, K=4),
        T=T,
    )
    return stream, trace


def test_local_regret_series_shape_and_monotonicity():
    stream, trace = _small_run()
    window = make_weights("uniform", 3)
    bl = local_regret_series(trace, stream, window)
    assert bl.shape == (15,)
    assert np.all(np.diff(bl) >= -1e-15)
    assert np.all(bl >= 0.0)


def test_local_regret_zero_at_stationary_trace():
    """A run pinned at the static optimum of a constant stream has zero
    windowed gradient at the exact inner response."""
    stream = quadratic_stream("constant", T=5, a1_const=0.2, a2_const=0.4)
    trace = oagd_run(
        stream,
        DecisionPair(x=np.array([0.2]), y=np.array([-0.2])),
        stream.fset,
        make_weights("uniform", 2),
        StepSizeSchedule.constant(0.25),
        InnerSchedule.fixed(beta=1.0, K=1),
        T=5,
    )
    bl = local_regret_series(trace, stream, make_weights("uniform", 2))
    assert bl[-1] == pytest.approx(0.0, abs=1e-20)


def test_compute_report_regret_accounting():
    stream, trace = _small_run()
    window = make_weights("uniform", 3)
    series = comparator_series(stream, stream.fset)
    report = compute_report(trace, stream, stream.fset, window, series)
    np.testing.assert_allclose(
        report.bd_regret, np.cumsum(trace.f_value - series.f_star), atol=1e-12
    )
    np.testing.assert_allclose(
        report.bs_regret, np.cumsum(trace.f_value - series.f_static), atol=1e-12
    )
    assert report.f_star_sum == pytest.approx(float(np.sum(series.f_star)))
    p1, y1, ybar1 = path_lengths(series, 1)
    assert report.p1 == pytest.approx(p1)
    assert report.y1 == pytest.approx(y1)
    assert report.ybar1 == pytest.approx(ybar1)
    assert report.p2_series.shape == (15,)
    assert report.p2_series[-1] == pytest.approx(report.p2)
    assert report.bl_regret is not None
    assert np.isfinite(report.h_T)


def test_compute_report_accepts_shared_comparators():
    """One series serves every trace of its stream; the static regret comes
    with the series' static block and is absent without it."""
    stream, trace = _small_run()
    window = make_weights("uniform", 3)
    series = comparator_series(stream, stream.fset)
    report = compute_report(trace, stream, stream.fset, window, comparators=series)
    assert report.provenance == "closed_form"
    again = compute_report(trace, stream, stream.fset, window, comparators=series)
    np.testing.assert_array_equal(again.bs_regret, report.bs_regret)
    bare = comparator_series(stream, stream.fset, include_static=False)
    without = compute_report(trace, stream, stream.fset, window, comparators=bare)
    assert bare.f_static is None and without.bs_regret is None
    np.testing.assert_array_equal(without.bd_regret, report.bd_regret)
    short = comparator_series(stream, stream.fset, T=10)
    longer = comparator_series(quadratic_stream("alt_sqrt", T=trace.T + 5), stream.fset)
    for other in (short, longer):
        with pytest.raises(ValueError):
            compute_report(trace, stream, stream.fset, window, comparators=other)


def test_compute_report_optional_blocks_off():
    stream, trace = _small_run()
    window = make_weights("uniform", 3)
    bare = comparator_series(stream, stream.fset, include_static=False)
    report = compute_report(trace, stream, stream.fset, window, bare,
                            include_local=False, include_h=False)
    assert report.bs_regret is None
    assert report.bl_regret is None
    assert np.isnan(report.h_T)
    assert np.isnan(report.ybar1)


def test_measurement_past_the_end_of_the_stream_is_stream_exhausted():
    """comparator_series and h_estimate asked for 7 rounds of a 5-round
    stream raise StreamExhausted on the stacked path (QuadraticStream) and
    on the per-round path (HOStream) alike, naming round 6."""
    rng = np.random.default_rng(60)
    streams = (quadratic_stream("alt_sqrt", 5),
               HOStream(rng.normal(size=(5, 3)), rng.normal(size=5),
                        rng.normal(size=(5, 3)), rng.normal(size=5)))
    for stream in streams:
        fset = FeasibleSet.symmetric_box(1.0, stream.d1)
        for measure in (comparator_series, h_estimate):
            with pytest.raises(StreamExhausted) as info:
                measure(stream, fset, T=7)
            assert info.value.round_index == 6 and info.value.available == 5
