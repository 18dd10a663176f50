"""Tests for the concrete round families: analytic derivatives against
central differences, closed forms, fast window paths, and the synthetic
stream generator."""
import gc
import tracemalloc

import numpy as np
import pytest

from oagd import (
    DimensionMismatch,
    ElasticNetStream,
    FeasibleSet,
    HOStream,
    NonFiniteIterate,
    QuadraticStream,
    Stream,
    StreamExhausted,
    SyntheticStreamConfig,
    equal_stages,
    hypergradient,
    make_weights,
    quadratic_round,
    quadratic_stream,
    synthesize,
)
from oagd.problems import QUADRATIC_CONSTANTS, estimate_constants

H = 1e-5


def _fd_grad(fn, v, h=H):
    out = np.empty(v.size)
    for j in range(v.size):
        e = np.zeros(v.size)
        e[j] = h
        out[j] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return out


def _check_round_derivatives(rnd, x, y, rtol=1e-5):
    """All analytic derivatives of one round agree with central differences
    at h = 1e-5."""
    gx = np.asarray(rnd.grad_x_f(x, y))
    np.testing.assert_allclose(gx, _fd_grad(lambda v: rnd.f(v, y), x), rtol=rtol, atol=1e-7)
    gy = np.asarray(rnd.grad_y_f(x, y))
    np.testing.assert_allclose(gy, _fd_grad(lambda v: rnd.f(x, v), y), rtol=rtol, atol=1e-7)
    gyg = np.asarray(rnd.grad_y_g(x, y))
    value_grad = rnd.inner_model(x).value_grad
    np.testing.assert_allclose(gyg, _fd_grad(lambda v: value_grad(v)[0], y), rtol=rtol, atol=1e-7)
    a, d = rnd.hess_yy_parts(x, y)
    hess = np.outer(a, a) + np.diag(d)
    jac = np.column_stack([rnd.jac_xy_g_dot(x, y, e) for e in np.eye(y.size)])
    for j in range(y.size):
        e = np.zeros(y.size)
        e[j] = H
        col = (np.asarray(rnd.grad_y_g(x, y + e)) - np.asarray(rnd.grad_y_g(x, y - e))) / (2.0 * H)
        np.testing.assert_allclose(hess[:, j], col, rtol=rtol, atol=1e-6)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = H
        row = (np.asarray(rnd.grad_y_g(x + e, y)) - np.asarray(rnd.grad_y_g(x - e, y))) / (2.0 * H)
        np.testing.assert_allclose(jac[i], row, rtol=rtol, atol=1e-6)


def test_quadratic_round_derivatives_and_closed_forms():
    rng = np.random.default_rng(10)
    for _ in range(5):
        a1, a2, a3, a4 = rng.normal(size=4)
        rnd = quadratic_round(a1, a2, a3, a4)
        x, y = rng.normal(size=1), rng.normal(size=1)
        _check_round_derivatives(rnd, x, y)
        np.testing.assert_allclose(rnd.closed_form_y_star(x), x - a2, atol=1e-14)
        np.testing.assert_allclose(
            rnd.closed_form_x_star(), np.clip(a2 - a1, -1.0, 1.0), atol=1e-14
        )
        np.testing.assert_allclose(
            rnd.closed_form_x_partial(y), np.clip(-2.0 * a1, -1.0, 1.0), atol=1e-14
        )
        # a3 and a4 shift the values without touching any derivative
        plain = quadratic_round(a1, a2)
        assert rnd.f(x, y) == pytest.approx(plain.f(x, y) + a3)
        assert rnd.inner_model(x).value_grad(y)[0] == pytest.approx(
            plain.inner_model(x).value_grad(y)[0] + a4)


def test_quadratic_stream_alt_sqrt_coefficients():
    s = quadratic_stream("alt_sqrt", T=4)
    expected = np.array([-1.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(3.0), 0.5])
    np.testing.assert_allclose(s.a2, expected)
    np.testing.assert_allclose(s.a1, expected)
    z = quadratic_stream("alt_sqrt", T=4, a1_mode="zero")
    np.testing.assert_allclose(z.a1, np.zeros(4))
    assert len(s) == 4
    assert s.constants is QUADRATIC_CONSTANTS


def test_quadratic_stream_static_comparator():
    a1 = np.array([0.1, 0.2, 0.3])
    a2 = np.array([0.5, 0.6, 0.7])
    s = quadratic_stream("custom", T=3, coefficients=(a1, a2))
    np.testing.assert_allclose(s.closed_form_static_comparator(), [0.4], atol=1e-14)
    big = quadratic_stream("custom", T=3, coefficients=(a1, a2 + 2.0))
    np.testing.assert_allclose(big.closed_form_static_comparator(), [1.0], atol=1e-14)


def test_quadratic_stream_table_validation():
    with pytest.raises(DimensionMismatch):
        quadratic_stream("custom", T=2, coefficients=(np.zeros(2), np.zeros(3)))
    with pytest.raises(ValueError):
        quadratic_stream("alt_sqrt", T=2, a1_mode="half")
    with pytest.raises(ValueError):
        quadratic_stream("spiral", T=2)
    # a non-finite coefficient, or a shift 2 a1 - a2 that overflows, is
    # rejected without numpy's overflow warning (an error under pytest)
    for a1, a2 in ((np.nan, 0.0), (0.0, np.inf), (1e308, 0.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match="must be finite"):
            quadratic_stream("constant", T=2, a1_const=a1, a2_const=a2)


def _small_ho(d1=1, T=6, d2=3, seed=12, elastic=False, mu=0.5):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(T, d2))
    b = rng.normal(size=T)
    Av = rng.normal(size=(T, d2))
    bv = rng.normal(size=T)
    if elastic:
        return ElasticNetStream(A, b, Av, bv, mu_smooth=mu, d1=d1)
    return HOStream(A, b, Av, bv, d1=d1)


@pytest.mark.parametrize("build, window, atol", [
    (lambda: quadratic_stream("alt_sqrt", T=9), make_weights("exponential", 4, gamma=0.6), 1e-13),
    (lambda: _small_ho(d1=1), make_weights("uniform", 4), 1e-12),
    (lambda: _small_ho(d1=3), make_weights("uniform", 4), 1e-12),
    (lambda: _small_ho(d1=4, elastic=True), make_weights("exponential", 3, gamma=0.8), 1e-12),
    (lambda: _small_ho(d1=6, elastic=True), make_weights("exponential", 3, gamma=0.8), 1e-12),
], ids=["quadratic", "ridge-scalar", "ridge-per-coordinate", "enet-scalar-ridge",
        "enet-per-coordinate-ridge"])
def test_windowed_hypergrad_override_matches_default(build, window, atol):
    """Each stream's windowed_hypergrad override equals Stream's default,
    the generic per-round average, up to summation-order round-off: the
    quadratic stream, both ridge shapes (d1 = 1 and d1 = d2) and both
    elastic-net shapes (scalar and per-coordinate ridge block), from a
    partial first window to the last round. Past the last round the
    override raises StreamExhausted."""
    rng = np.random.default_rng(11)
    s = build()
    for t in (1, 2, 5, len(s)):
        x, y = rng.uniform(0.2, 1.2, size=s.d1), rng.normal(size=s.d2)
        np.testing.assert_allclose(s.windowed_hypergrad(t, window, x, y),
                                   Stream.windowed_hypergrad(s, t, window, x, y), atol=atol)
    with pytest.raises(StreamExhausted):
        s.windowed_hypergrad(len(s) + 1, window, x, y)


def test_quadratic_window_table_matches_oldest_first_formula():
    """The quadratic windowed_hypergrad, a slice of the newest-first shift
    table, equals bit for bit the same reduction over the oldest-first
    shifts 2 a1 - a2 of rounds t-m+1..t reversed, for w = 1, 2, 8 and T at
    t = 1, w - 1, w and T; past the last round it is StreamExhausted."""
    rng = np.random.default_rng(27)
    T = 20
    a1, a2 = rng.normal(size=T), rng.normal(size=T)
    s = quadratic_stream("custom", T=T, coefficients=(a1, a2))
    shift = 2.0 * a1 - a2
    for w in (1, 2, 8, T):
        window = make_weights("exponential", w, gamma=0.7)
        for t in sorted({1, w - 1, w, T} - {0}):
            x, y = rng.uniform(-1.0, 1.0, size=1), rng.normal(size=1)
            m = min(w, t)
            xpy = float(x[0]) + float(y[0])
            ref = np.array([float(window.u[:m] @ (xpy + shift[t - m:t][::-1])) / window.W])
            assert s.windowed_hypergrad(t, window, x, y).tobytes() == ref.tobytes(), (w, t)
        with pytest.raises(StreamExhausted):
            s.windowed_hypergrad(T + 1, window, x, y)


def test_ho_round_derivatives_scalar_ridge():
    rng = np.random.default_rng(13)
    s = _small_ho(d1=1)
    for i in (0, 3):
        x = rng.uniform(0.2, 1.0, size=1)
        y = rng.normal(size=3)
        _check_round_derivatives(s[i], x, y)


def test_ho_round_derivatives_vector_ridge():
    rng = np.random.default_rng(14)
    s = _small_ho(d1=3)
    for i in (1, 4):
        x = rng.uniform(0.2, 1.0, size=3)
        y = rng.normal(size=3)
        _check_round_derivatives(s[i], x, y)


def test_ho_closed_form_inner_solution():
    """The rank-one-plus-diagonal inner problem is solved in closed form;
    its gradient must vanish."""
    rng = np.random.default_rng(15)
    s = _small_ho(d1=1)
    for i in range(len(s)):
        x = rng.uniform(0.1, 2.0, size=1)
        y_star = s[i].closed_form_y_star(x)
        assert np.linalg.norm(s[i].grad_y_g(x, y_star)) <= 1e-12


def test_closed_forms_accept_point_batches():
    """closed_form_y_star on a (P, d1) batch returns (P, d2) rows equal to
    the single-point calls: bit for bit for the quadratic, within 1e-14 for
    ridge rounds with d1 = 1 and d1 = d2."""
    rng = np.random.default_rng(21)
    rnd = quadratic_round(0.3, -0.7)
    X = rng.uniform(-1.0, 1.0, size=(40, 1))
    batch = rnd.closed_form_y_star(X)
    assert batch.shape == (40, 1)
    assert np.array_equal(batch, np.array([rnd.closed_form_y_star(x) for x in X]))
    for d1 in (1, 3):
        s = _small_ho(d1=d1)
        X = rng.uniform(-2.0, 2.0, size=(40, d1))
        for i in range(len(s)):
            y_star = s[i].closed_form_y_star
            batch = y_star(X)
            assert batch.shape == (40, 3)
            np.testing.assert_allclose(batch, np.array([y_star(x) for x in X]), rtol=0, atol=1e-14)


def _gd_steps(rnd, x, y, beta, K):
    """inner_gd's loop on one round without its finiteness check, with
    numpy's overflow and invalid warnings silenced."""
    z = np.asarray(y, dtype=float).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(K):
            z -= beta * rnd.grad_y_g(x, z)
    return z


def test_fused_inner_steps_match_inner_gd():
    """Each stream's inner_steps override gives Stream's default (inner_gd
    on the round) bit for bit, for both ridge shapes and both elastic-net
    shapes at d2 = 1, 5, 8 and 33 (33 takes ddot's vector kernel) and for
    the quadratic family; also from a y with -0.0, the smallest subnormal
    and 1e200 (whose square overflows), an integer y and a strided y, and
    along a diverging beta: huge iterates (on the elastic net past the
    overflow of z^2 inside the square root), then nan, where the default
    raises NonFiniteIterate. y is left untouched. The override raises
    StreamExhausted past the stream's end; the default rejects K < 1 and
    beta <= 0."""
    rng = np.random.default_rng(20)
    streams = [quadratic_stream("alt_sqrt", 8)]
    for d2 in (1, 5, 8, 33):
        streams += [_small_ho(d1=1, d2=d2), _small_ho(d1=d2, d2=d2),
                    _small_ho(d1=d2 + 1, d2=d2, elastic=True),
                    _small_ho(d1=2 * d2, d2=d2, elastic=True)]
    for s in streams:
        for t in (1, 4, 6):
            x = rng.uniform(-0.5, 0.5, size=s.d1)
            ys = (rng.normal(size=s.d2), rng.integers(-3, 4, size=s.d2),
                  rng.normal(size=2 * s.d2)[::2])
            for y in ys:
                y_before = y.copy()
                for K in (1, 7, 40):
                    fused = s.inner_steps(t, x, y, 0.05, K)
                    assert np.array_equal(fused, Stream.inner_steps(s, t, x, y, 0.05, K))
                assert np.array_equal(y, y_before)
            y = np.resize([-0.0, 5e-324, 1e200], s.d2) * rng.choice([-1.0, 1.0], size=s.d2)
            for K in (1, 7):
                fused = s.inner_steps(t, x, y, 0.05, K)
                assert fused.tobytes() == _gd_steps(s[t - 1], x, y, 0.05, K).tobytes()
        y = rng.normal(size=s.d2)
        beta_bad = 3.0 if isinstance(s, QuadraticStream) else 1e3
        with np.errstate(over="ignore", invalid="ignore"):
            for K in (50, 2000):
                fused = s.inner_steps(2, x, y, beta_bad, K)
                assert fused.tobytes() == _gd_steps(s[1], x, y, beta_bad, K).tobytes()
            assert np.isnan(fused).any()
            with pytest.raises(NonFiniteIterate):
                Stream.inner_steps(s, 2, x, y, beta_bad, 2000)
        with pytest.raises(StreamExhausted):
            s.inner_steps(len(s) + 1, x, y, 0.05, 1)
        for beta, K in ((0.05, 0), (0.0, 1)):
            with pytest.raises(ValueError):
                Stream.inner_steps(s, 1, x, y, beta, K)


@pytest.mark.parametrize("d1, elastic", [(1, False), (3, False), (4, True), (6, True)])
def test_full_batch_fit_and_round_read_one_penalty(d1, elastic):
    """On a one-row table, the full-batch fit model and the round's inner
    model state the same g(x, .): value and gradient agree within 1e-14
    relative and the (Cholesky and Sherman-Morrison) solves within 1e-12,
    for both ridge shapes and both elastic-net shapes."""
    rng = np.random.default_rng(29)
    s = _small_ho(d1=d1, elastic=elastic)
    for i in (0, 4):
        x = rng.uniform(-1.0, 1.0, size=d1)
        fit = s.full_batch_model(s.A_train[i:i + 1], s.b_train[i:i + 1], x)
        model = s[i].inner_model(x)
        for _ in range(3):
            z, rhs = rng.normal(size=s.d2), rng.normal(size=s.d2)
            (v_fit, g_fit), (v, g) = fit.value_grad(z), model.value_grad(z)
            np.testing.assert_allclose(v_fit, v, rtol=1e-14, atol=0)
            np.testing.assert_allclose(g_fit, g, rtol=1e-14, atol=0)
            np.testing.assert_allclose(fit.solve(z, rhs), model.solve(z, rhs), rtol=1e-12, atol=0)


def test_synth_window_loop_matches_benchmark_reference(monkeypatch):
    """The benchmark's synth-window workload, variant 0 (a d1 = 1, d2 = 5
    ridge HOStream looped at w = 1, 100 and T = 5000), run in process,
    hashes its loop outputs to the stored loop_sha256 and gives the stored
    sum f per window exactly: the ridge follower and window kernel keep
    their bits."""
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench.workloads import WORKLOADS, mismatches

    ref = json.loads((root / "perfbench" / "reference.json").read_text())["synth-window"]["0"]
    workload = WORKLOADS["synth-window"]
    _, outputs, tol = workload.run(workload.setup(0, None))
    assert tol == 0.0
    assert mismatches(outputs, ref, tol) == []
    assert outputs["loop_sha256"] == ref["loop_sha256"]


def test_ho_dimension_rules():
    with pytest.raises(DimensionMismatch):
        _small_ho(d1=2)
    rng = np.random.default_rng(17)
    with pytest.raises(DimensionMismatch):
        HOStream(rng.normal(size=(4, 3)), rng.normal(size=4),
                 rng.normal(size=(5, 3)), rng.normal(size=5))


def test_streams_keep_no_per_round_state():
    """Indexing every round of a 2000-round stream and dropping the rounds
    leaves nothing behind: stream[i] builds its round anew on every call.
    One kept regression round would hold about 3 kB, so 2000 of them would
    pass the 100 kB bound many times over."""
    rng = np.random.default_rng(23)
    T, d2 = 2000, 5
    tables = (rng.normal(size=(T, d2)), rng.normal(size=T), rng.normal(size=(T, d2)),
              rng.normal(size=T))
    streams = (HOStream(*tables), ElasticNetStream(*tables, mu_smooth=0.1),
               quadratic_stream("alt_sqrt", T))
    tracemalloc.start()
    try:
        for stream in streams:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(len(stream)):
                stream[i]
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 100_000, stream
    finally:
        tracemalloc.stop()


def test_elastic_net_round_derivatives():
    rng = np.random.default_rng(18)
    s = _small_ho(d1=4, elastic=True)
    for i in (0, 5):
        x = np.concatenate([rng.normal(size=3), rng.uniform(0.2, 1.0, size=1)])
        y = rng.normal(size=3)
        _check_round_derivatives(s[i], x, y)
    wide = _small_ho(d1=6, elastic=True)
    x = np.concatenate([rng.normal(size=3), rng.uniform(0.2, 1.0, size=3)])
    _check_round_derivatives(wide[2], x, rng.normal(size=3))


def test_elastic_net_has_no_closed_form_inner():
    s = _small_ho(d1=4, elastic=True)
    assert s[0].closed_form_y_star is None
    # mu = 1e-170 squares to 0.0, and the follower would divide 0 by 0
    for mu in (0.0, -0.5, 1e-170):
        with pytest.raises(ValueError, match="mu_smooth"):
            _small_ho(d1=4, elastic=True, mu=mu)
    with pytest.raises(DimensionMismatch):
        _small_ho(d1=5, elastic=True)


def test_equal_stages_lengths_and_targets():
    targets = [(np.zeros(1), np.zeros(2)), (np.ones(1), np.ones(2)), (2.0 * np.ones(1), np.zeros(2))]
    stages = equal_stages(10, 3, targets)
    assert [s.length for s in stages] == [3, 3, 4]
    assert sum(s.length for s in stages) == 10
    np.testing.assert_allclose(stages[1].x_star, [1.0])
    with pytest.raises(ValueError):
        equal_stages(10, 2, targets)


def test_synthesize_is_reproducible_and_respects_stages():
    targets = [(np.array([0.5]), np.array([1.0, -1.0])),
               (np.array([1.5]), np.array([-1.0, 1.0]))]
    cfg = SyntheticStreamConfig(
        stages=equal_stages(8, 2, targets), d1=1, d2=2, noise_max=0.2, seed=3
    )
    d1 = synthesize(cfg)
    d2 = synthesize(cfg)
    np.testing.assert_array_equal(d1.train_features, d2.train_features)
    np.testing.assert_array_equal(d1.val_labels, d2.val_labels)
    assert cfg.T == 8
    assert len(d1.stream) == 8
    # labels are the stage model's response plus bounded noise
    resid = d1.val_labels[:4] - d1.val_features[:4] @ targets[0][1]
    assert np.all(np.abs(resid) <= 0.2 + 1e-12)
    resid2 = d1.val_labels[4:] - d1.val_features[4:] @ targets[1][1]
    assert np.all(np.abs(resid2) <= 0.2 + 1e-12)


def test_synthesize_elastic_variant():
    targets = [(np.array([0.5, 0.5, 0.1]), np.array([1.0, -1.0]))]
    cfg = SyntheticStreamConfig(
        stages=equal_stages(4, 1, targets), d1=3, d2=2, noise_max=0.1, seed=4,
        mu_smooth=0.5,
    )
    data = synthesize(cfg)
    assert isinstance(data.stream, ElasticNetStream)
    assert data.stream.d1 == 3


def test_estimate_constants_feeds_schedules():
    s = _small_ho(d1=1)
    c = estimate_constants(s, x_low=0.1, x_high=1.0, y_bound=5.0)
    assert c.mu_g > 0
    assert c.ell_g1 >= c.mu_g
    from oagd import derive_constants

    d = derive_constants(c)
    assert d.kappa_g >= 1.0


def test_hypergradient_on_ho_round_matches_finite_differences():
    """Composed-objective central differences (inner solved in closed form)
    agree with the implicit-differentiation hypergradient."""
    rng = np.random.default_rng(20)
    s = _small_ho(d1=1)
    rnd = s[2]
    for _ in range(3):
        x = rng.uniform(0.3, 1.2, size=1)
        y = np.asarray(rnd.closed_form_y_star(x))
        g = hypergradient(rnd, x, y)

        def phi(v):
            return rnd.f(v, np.asarray(rnd.closed_form_y_star(v)))

        np.testing.assert_allclose(g, _fd_grad(phi, x), rtol=1e-4, atol=1e-8)
