"""Acceptance gate: ten end-to-end criteria with pinned tolerances and
runtime budgets. Each test is one criterion and prints one line with its
measured margin (visible under pytest -s; the pass/fail verdict is the
test outcome itself)."""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oagd import (
    DecisionPair,
    FeasibleSet,
    HOStream,
    InnerSchedule,
    NonConvexFlag,
    RoundFunctions,
    StepSizeSchedule,
    SyntheticStreamConfig,
    derive_constants,
    equal_stages,
    full_info_run,
    hypergradient,
    inner_gd,
    inner_oracle,
    local_regret_series,
    make_weights,
    oagd_run,
    path_lengths,
    quadratic_stream,
    synthesize,
)
from oagd.cli import ExperimentConfig, prepare, run_experiment
from oagd.problems import QUADRATIC_CONSTANTS
from oagd.regret import comparator_series

DERIVED = derive_constants(QUADRATIC_CONSTANTS)
DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "regression_300.csv"


def _budget(t0: float, limit: float, label: str) -> float:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label} took {elapsed:.2f}s, budget {limit}s"
    return elapsed


def test_criterion_01_quadratic_hypergradient_exact():
    """Criterion 1: on the scalar quadratic family the implicit
    hypergradient at (x, y*(x)) equals (x + 2 a1) + (x - 2 a2) to 1e-10
    over 100 random x in [-1, 1]."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    stream = quadratic_stream("alt_sqrt", T=100)
    worst = 0.0
    for t in range(100):
        rnd = stream[t]
        x = rng.uniform(-1.0, 1.0, size=1)
        y = np.asarray(rnd.closed_form_y_star(x))
        g = hypergradient(rnd, x, y)
        expected = (x[0] + 2.0 * stream.a1[t]) + (x[0] - 2.0 * stream.a2[t])
        worst = max(worst, abs(g[0] - expected))
    assert worst <= 1e-10
    elapsed = _budget(t0, 1.0, "criterion 1")
    print(f"PASS criterion 1: max deviation {worst:.2e} <= 1e-10 ({elapsed:.2f}s)")


def test_criterion_02_finite_difference_hypergradient():
    """Criterion 2: central differences (h = 1e-5) of the composed
    objective of a d1=1, d2=5 regression stream match the exact
    hypergradient to relative error 1e-4 at 20 points."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    T = 20
    A = rng.normal(size=(T, 5))
    b = rng.normal(size=T)
    Av = rng.normal(size=(T, 5))
    bv = rng.normal(size=T)
    stream = HOStream(A, b, Av, bv, d1=1)
    h = 1e-5
    worst = 0.0
    for t in range(T):
        rnd = stream[t]
        x = rng.uniform(0.1, 1.5, size=1)
        y = inner_oracle(rnd, x)
        g = hypergradient(rnd, x, y)

        def phi(v):
            return rnd.f(v, inner_oracle(rnd, v))

        fd = (phi(x + h) - phi(x - h)) / (2.0 * h)
        rel = abs(g[0] - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4
    elapsed = _budget(t0, 5.0, "criterion 2")
    print(f"PASS criterion 2: max relative error {worst:.2e} <= 1e-4 ({elapsed:.2f}s)")


def test_criterion_03_inner_contraction_rate():
    """Criterion 3: with beta = 2/(ell + mu), K inner steps contract
    ||y_K - y*|| by at most (1 - 1/(kappa+1))^K on 50 random quadratics
    with kappa in [1, 100]."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(50):
        mu = float(rng.uniform(0.1, 2.0))
        kappa = float(rng.uniform(1.0, 100.0))
        ell = mu * kappa
        d2 = int(rng.integers(2, 7))
        diag = np.concatenate([[mu, ell], rng.uniform(mu, ell, size=d2 - 2)])
        y_star = rng.normal(size=d2)

        def grad(x, z, diag=diag, y_star=y_star):
            return diag * (z - y_star)

        rnd = RoundFunctions(
            f=lambda x, y: 0.0,
            g=lambda x, y, diag=diag, y_star=y_star: 0.5 * float(diag @ (y - y_star) ** 2),
            grad_x_f=lambda x, y: np.zeros(1),
            grad_y_f=lambda x, y: np.zeros(d2),
            grad_y_g=grad,
            jac_xy_g_dot=lambda x, y, v: np.zeros(1),
            hess_yy_parts=lambda x, y, diag=diag: (np.zeros_like(diag), diag),
        )
        beta = 2.0 / (ell + mu)
        y0 = y_star + rng.normal(size=d2)
        dist0 = np.linalg.norm(y0 - y_star)
        for K in (1, 5, 25):
            yk = inner_gd(rnd, np.zeros(1), y0, beta=beta, K=K)
            bound = (1.0 - 1.0 / (kappa + 1.0)) ** K * (1.0 + 1e-9)
            assert np.linalg.norm(yk - y_star) <= bound * dist0
    elapsed = _budget(t0, 1.0, "criterion 3")
    print(f"PASS criterion 3: 50 problems x K in (1,5,25) within rate ({elapsed:.2f}s)")


def _dynamic_quadratic_run(T: int) -> float:
    """Final cumulative dynamic regret of the theorem-scheduled run on the
    matched alternating stream (outer comparator pinned at 0)."""
    stream = quadratic_stream("alt_sqrt", T=T, a1_mode="match")
    steps = StepSizeSchedule.strongly_convex_dynamic(mu_f=1.0, constants=DERIVED)
    inner = InnerSchedule.strongly_convex(
        beta=InnerSchedule.theorem_beta(1.0, 1.0), c=1.0 / 34.0
    )
    trace = oagd_run(
        stream,
        DecisionPair(x=np.zeros(1), y=np.zeros(1)),
        stream.fset,
        make_weights("uniform", 1),
        steps,
        inner,
        T=T,
        constants=DERIVED,
    )
    series = comparator_series(stream, stream.fset, include_static=False)
    return float(np.sum(trace.f_value - series.f_star))


def test_criterion_04_dynamic_regret_log_growth():
    """Criterion 4: on the matched alternating stream the dynamic regret
    magnitude grows like log T: |BD_T|/log T stays within a factor 3 of
    its median over T in {512, ..., 8192} and |BD_T|/T strictly decreases.

    The played pairs sit off the exact inner-response manifold, so their
    f value undercuts the composed per-round minimum and BD_T is negative
    for this stream; the growth law applies to its magnitude."""
    t0 = time.perf_counter()
    horizons = (512, 1024, 2048, 4096, 8192)
    bd = np.array([_dynamic_quadratic_run(T) for T in horizons])
    assert np.all(bd <= 0.0)
    per_log = np.abs(bd) / np.log(np.array(horizons, dtype=float))
    med = float(np.median(per_log))
    assert np.all(per_log <= 3.0 * med)
    assert np.all(per_log >= med / 3.0)
    per_round = np.abs(bd) / np.array(horizons, dtype=float)
    assert np.all(np.diff(per_round) < 0.0)
    elapsed = _budget(t0, 60.0, "criterion 4")
    print(
        "PASS criterion 4: |BD|/logT in "
        f"[{per_log.min():.3f}, {per_log.max():.3f}], median {med:.3f}, "
        f"|BD|/T strictly decreasing ({elapsed:.2f}s)"
    )


def _static_quadratic_run(T: int) -> float:
    """Final cumulative static regret under alpha_t = 2/(mu_f t) on a
    stationary stream (static comparator 0.3, stationary inner maps)."""
    stream = quadratic_stream("constant", T=T, a1_const=0.2, a2_const=0.5)
    steps = StepSizeSchedule.strongly_convex_static(mu_f=1.0)
    inner = InnerSchedule.strongly_convex_static(
        beta=InnerSchedule.theorem_beta(1.0, 1.0), mu_f=1.0
    )
    trace = oagd_run(
        stream,
        DecisionPair(x=np.zeros(1), y=np.zeros(1)),
        stream.fset,
        make_weights("uniform", 1),
        steps,
        inner,
        T=T,
        constants=DERIVED,
    )
    series = comparator_series(stream, stream.fset, include_static=True)
    assert series.x_static is not None
    np.testing.assert_allclose(series.x_static, [0.3], atol=1e-12)
    return float(np.sum(trace.f_value - series.f_static))


def test_criterion_05_static_regret_log_growth():
    """Criterion 5: static regret under the decaying step rule grows like
    log T: BS_T/log T within a factor 3 of its median across horizons."""
    t0 = time.perf_counter()
    horizons = (512, 1024, 2048, 4096, 8192)
    bs = np.array([_static_quadratic_run(T) for T in horizons])
    assert np.all(bs > 0.0)
    per_log = bs / np.log(np.array(horizons, dtype=float))
    med = float(np.median(per_log))
    assert np.all(per_log <= 3.0 * med)
    assert np.all(per_log >= med / 3.0)
    elapsed = _budget(t0, 60.0, "criterion 5")
    print(
        "PASS criterion 5: BS/logT in "
        f"[{per_log.min():.3f}, {per_log.max():.3f}], median {med:.3f} ({elapsed:.2f}s)"
    )


def test_criterion_06_full_information_path_length_bound():
    """Criterion 6: the full-information benchmark's dynamic regret obeys
    BD_T <= ell_f0 (D + L_y D + P_1 + Y_1) on both alternating streams."""
    t0 = time.perf_counter()
    T = 4096
    margins = []
    for mode in ("match", "zero"):
        stream = quadratic_stream("alt_sqrt", T=T, a1_mode=mode)
        trace = full_info_run(stream, DecisionPair(x=np.zeros(1), y=np.zeros(1)), T=T)
        series = comparator_series(stream, stream.fset, include_static=False)
        bd = float(np.sum(trace.f_value - series.f_star))
        p1, y1, _ = path_lengths(series, 1)
        D = stream.fset.diameter
        rhs = QUADRATIC_CONSTANTS.ell_f0 * (D + DERIVED.L_y * D + p1 + y1)
        assert bd <= rhs
        margins.append((mode, bd, rhs))
    elapsed = _budget(t0, 10.0, "criterion 6")
    detail = ", ".join(f"{m}: BD {b:.3f} <= {r:.3f}" for m, b, r in margins)
    print(f"PASS criterion 6: {detail} ({elapsed:.2f}s)")


def test_criterion_07_path_length_closed_forms():
    """Criterion 7: comparator path lengths match the analytic sums to
    1e-9; the matched rule zeroes the outer path and the zero rule zeroes
    the inner path."""
    t0 = time.perf_counter()
    T = 1024
    tgrid = np.arange(1, T + 1, dtype=float)
    a2 = (-1.0) ** np.arange(1, T + 1) / np.sqrt(tgrid)

    match = quadratic_stream("alt_sqrt", T=T, a1_mode="match")
    sm = comparator_series(match, match.fset, include_static=False)
    p1, y1, _ = path_lengths(sm, 1)
    p2, y2, _ = path_lengths(sm, 2)
    steps = np.abs(np.diff(a2))
    assert p1 == pytest.approx(0.0, abs=1e-9)
    assert p2 == pytest.approx(0.0, abs=1e-9)
    assert y1 == pytest.approx(float(np.sum(steps)), abs=1e-9)
    assert y2 == pytest.approx(float(np.sum(steps**2)), abs=1e-9)

    zero = quadratic_stream("alt_sqrt", T=T, a1_mode="zero")
    sz = comparator_series(zero, zero.fset, include_static=False)
    zp1, zy1, _ = path_lengths(sz, 1)
    zp2, zy2, _ = path_lengths(sz, 2)
    assert zp1 == pytest.approx(float(np.sum(steps)), abs=1e-9)
    assert zp2 == pytest.approx(float(np.sum(steps**2)), abs=1e-9)
    assert zy1 == pytest.approx(0.0, abs=1e-9)
    assert zy2 == pytest.approx(0.0, abs=1e-9)
    elapsed = _budget(t0, 5.0, "criterion 7")
    print(
        f"PASS criterion 7: matched (P1, P2) = (0, 0), Y1 = {y1:.3f}; "
        f"zeroed (Y1, Y2) = (0, 0), P1 = {zp1:.3f} ({elapsed:.2f}s)"
    )


def test_criterion_08_local_regret_drops_with_window():
    """Criterion 8: on a nonconvex scalar-ridge stream whose stationary
    point is interior and whose per-round gradients are zero-mean noise,
    doubling the window 8 -> 16 -> 32 cuts the local regret by at least
    1.5x per doubling at T = 2048."""
    t0 = time.perf_counter()
    T = 2048
    rng = np.random.default_rng(8)
    a = rng.normal(size=5)
    A_val = rng.normal(size=(T, 5))
    noise = rng.normal(size=T)
    na2 = float(a @ a)
    stream = HOStream(
        np.tile(a, (T, 1)),
        np.full(T, 2.0 * na2),
        A_val,
        A_val @ a + 0.5 * noise,
        d1=1,
    )
    x_star = float(np.log(na2 / 2.0))
    fset = FeasibleSet.unbounded()
    bl = []
    for w in (8, 16, 32):
        window = make_weights("uniform", w)
        trace = oagd_run(
            stream,
            DecisionPair(x=np.array([x_star]), y=a.copy()),
            fset,
            window,
            StepSizeSchedule.constant(0.05),
            InnerSchedule.fixed(beta=0.05, K=40),
            T=T,
        )
        bl.append(float(local_regret_series(trace, stream, window)[-1]))
    assert bl[0] / bl[1] >= 1.5
    assert bl[1] / bl[2] >= 1.5
    elapsed = _budget(t0, 120.0, "criterion 8")
    print(
        f"PASS criterion 8: BL = {bl[0]:.3f} -> {bl[1]:.3f} -> {bl[2]:.3f}, "
        f"drop factors {bl[0] / bl[1]:.2f}, {bl[1] / bl[2]:.2f} >= 1.5 ({elapsed:.2f}s)"
    )


def test_criterion_09_window_sweep_ordering():
    """Criterion 9: on the three-stage synthetic stream the full-history
    window gives the best final dynamic regret against the stage models:
    regret(w=T) <= regret(w=100) <= 1.1 regret(w=1) at T = 5000."""
    t0 = time.perf_counter()
    T = 5000
    u1 = np.array([1.2, -0.8, 0.5, 1.0, -0.4])
    u2 = np.array([1.2, -0.8, 1.0, 0.5, -0.4])
    u3 = np.array([1.2, -0.4, 0.5, 1.0, -0.8])
    targets = [(np.ones(1), v) for v in (u1, u2, u3)]
    fset = FeasibleSet.box(np.zeros(1), np.full(1, 3.0))
    data = synthesize(SyntheticStreamConfig(
        stages=equal_stages(T, 3, targets), d1=1, d2=5,
        noise_max=4.0, seed=7, fset=fset,
    ))
    y_true = np.concatenate([np.tile(s.y_star, (s.length, 1)) for s in data.stages])
    resid = np.einsum("ij,ij->i", data.val_features, y_true) - data.val_labels
    f_star_sum = 0.5 * float(np.sum(resid**2))

    def bd(w: int) -> float:
        trace = oagd_run(
            data.stream,
            DecisionPair(x=np.full(1, 1.5), y=np.zeros(5)),
            fset,
            make_weights("uniform", w),
            StepSizeSchedule.constant(1.6),
            InnerSchedule.fixed(beta=0.025, K=50),
            T=T,
        )
        return float(np.sum(trace.f_value)) - f_star_sum

    bd1, bd100, bdT = bd(1), bd(100), bd(T)
    assert bdT <= bd100
    assert bd100 <= 1.1 * bd1
    elapsed = _budget(t0, 120.0, "criterion 9")
    print(
        f"PASS criterion 9: BD(w=T) {bdT:.1f} <= BD(w=100) {bd100:.1f} "
        f"<= 1.1 BD(w=1) {1.1 * bd1:.1f} ({elapsed:.2f}s)"
    )


def test_criterion_10_elastic_net_end_to_end(tmp_path):
    """Criterion 10: the smoothed elastic net runs end to end on the
    bundled 300-row dataset with finite test error, successful Hessian
    factorizations, and derivative checks; absolute error values from
    external writeups are out of scope."""
    t0 = time.perf_counter()
    assert DATA_CSV.exists()
    cfg = ExperimentConfig(
        problem="elastic_net",
        dataset=str(DATA_CSV),
        T=100,
        regime="nonconvex",
        window_w="10",
        mu_smooth=1.0,
        alpha=0.05,
        beta=0.03,
        K=30,
        set_kind="box",
        set_half_width=2.0,
        output=str(tmp_path / "enet"),
        oracle_tol=1e-8,
        report_static=False,
        report_local=False,
        report_h=False,
    )
    with pytest.warns(NonConvexFlag):
        trace, report, meta = run_experiment(cfg)
    assert np.all(np.isfinite(trace.f_value))
    assert np.all(np.isfinite(trace.hypergrad))
    assert np.all(np.isfinite(report.bd_regret))
    err_lines = [ln for ln in meta if ln.startswith("test_error = ")]
    assert len(err_lines) == 1
    test_err = float(err_lines[0].partition("=")[2])
    assert math.isfinite(test_err)

    # derivative checks on a sample of rounds at the final iterate
    prep = prepare(cfg)
    stream = prep.stream
    assert stream.d1 == 9 and stream.d2 == 8
    x = np.asarray(trace.final_x)
    h = 1e-6
    rng = np.random.default_rng(110)
    for t in (0, 49, 99):
        rnd = stream[t]
        y = rng.normal(size=8) * 0.3
        grad = np.asarray(rnd.grad_y_g(x, y))
        for j in (0, 3, 7):
            e = np.zeros(8)
            e[j] = h
            fd = (rnd.g(x, y + e) - rnd.g(x, y - e)) / (2.0 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
        # every window term factorizes: sm_solve and its residual check
        # (SOLVE_RESIDUAL_RTOL) inside the hypergradient
        assert np.all(np.isfinite(hypergradient(rnd, x, y)))
    elapsed = _budget(t0, 60.0, "criterion 10")
    print(
        f"PASS criterion 10: finite test error {test_err:.6f}, "
        f"factorizations and derivative checks clean ({elapsed:.2f}s)"
    )
