"""The online alternating loop and its full-information benchmark.

Each round t the learner plays the pair (x_t, y_t), the round's losses are
revealed, the follower runs K_t warm-started gradient steps on g_t(x_t, .)
to produce y_{t+1}, and the leader takes one projected step along the
window-averaged hypergradient evaluated at (x_t, y_{t+1}), with the step
size alpha_t of a StepSizeSchedule rule.

The full-information benchmark instead jumps straight to the revealed
round's solutions: y_{t+1} minimizes g_t(x_t, .) and x_{t+1} minimizes
f_t(., y_{t+1}) over the feasible set.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DecisionPair, DerivedConstants, FeasibleSet, project
from .errors import NonFiniteIterate, OracleUnavailable
from .hypergrad import WeightWindow
from .inner import InnerSchedule
from .problems import Stream


def strongly_convex_c(mu_f: float, constants: DerivedConstants) -> float:
    """The coupling constant c = mu_f^2 / (2 (L_f^2 + L_y^2)) shared by the
    strongly-convex dynamic step size and its inner iteration count. A c
    that underflows to 0 (a tiny mu_f, or a huge L_f) is a ValueError."""
    c = mu_f**2 / (2.0 * (constants.L_f**2 + constants.L_y**2))
    if c == 0.0:
        raise ValueError(f"c = mu_f^2 / (2 (L_f^2 + L_y^2)) underflows to 0 at mu_f = {mu_f:g} "
                         f"and L_f = {constants.L_f:g}")
    return c


@dataclass(frozen=True)
class StepSizeSchedule:
    """Outer step size rule alpha_t = rule(t), with a label recording how
    alpha was derived (meta.txt's schedule.alpha).

    The regime factories check their constants and fix the formula once:
    constant; strongly_convex_dynamic (4c/mu_f); strongly_convex_static
    (2 / (mu_f t)); convex_dynamic (1 / (2 L_f^2)); convex_static
    (D / (ell_f0 sqrt(t))); nonconvex (alpha <= 1/(3 L_f)); custom.
    """

    rule: Callable[[int], float]
    label: str

    def alpha_at(self, t: int) -> float:
        """alpha_t; a nan, infinite or negative one is a ValueError naming
        round t and the schedule."""
        if t < 1:
            raise ValueError("round index must be >= 1")
        alpha = float(self.rule(t))
        if not 0.0 <= alpha < math.inf:
            raise ValueError(f"round {t}: step size schedule {self.label!r} gave "
                             f"alpha = {alpha!r}; it needs a finite alpha >= 0")
        return alpha

    @staticmethod
    def constant(alpha: float, label: str = "constant") -> "StepSizeSchedule":
        alpha = float(alpha)
        if alpha < 0:
            raise ValueError("constant schedule needs alpha >= 0")
        return StepSizeSchedule(lambda t: alpha, label)

    @staticmethod
    def strongly_convex_dynamic(mu_f: float, constants: DerivedConstants) -> "StepSizeSchedule":
        if mu_f <= 0:
            raise ValueError("strongly_convex_dynamic needs mu_f > 0")
        c = strongly_convex_c(mu_f, constants)
        return StepSizeSchedule.constant(
            4.0 * c / mu_f, label=f"strongly_convex_dynamic alpha=4c/mu_f, c={c:.6g}")

    @staticmethod
    def strongly_convex_static(mu_f: float) -> "StepSizeSchedule":
        mu_f = float(mu_f)
        if mu_f <= 0:
            raise ValueError("strongly_convex_static needs mu_f > 0")
        return StepSizeSchedule(lambda t: 2.0 / (mu_f * t),
                                "strongly_convex_static alpha_t=2/(mu_f t)")

    @staticmethod
    def convex_dynamic(constants: DerivedConstants) -> "StepSizeSchedule":
        return StepSizeSchedule.constant(1.0 / (2.0 * constants.L_f**2),
                                         label="convex_dynamic alpha=1/(2 L_f^2)")

    @staticmethod
    def convex_static(D: float, ell_f0: float) -> "StepSizeSchedule":
        D, ell_f0 = float(D), float(ell_f0)
        if D <= 0 or ell_f0 <= 0:
            raise ValueError("convex_static needs D > 0 and ell_f0 > 0")
        return StepSizeSchedule(lambda t: D / (ell_f0 * np.sqrt(t)),
                                "convex_static alpha_t=D/(ell_f0 sqrt(t))")

    @staticmethod
    def nonconvex(alpha: float, constants: DerivedConstants) -> "StepSizeSchedule":
        cap = 1.0 / (3.0 * constants.L_f)
        if alpha > cap * (1.0 + 1e-12):
            raise ValueError(f"nonconvex schedule requires alpha <= 1/(3 L_f) = {cap:.6g}")
        return StepSizeSchedule.constant(alpha, label=f"nonconvex constant alpha<=1/(3 L_f)={cap:.6g}")

    @staticmethod
    def custom(fn: Callable[[int], float], label: str = "custom") -> "StepSizeSchedule":
        if not callable(fn):
            raise ValueError("custom schedule needs a callable")
        return StepSizeSchedule(fn, label)


@dataclass
class Trace:
    """Per-round record of a run, preallocated as dense arrays.

    Row t-1 holds the PLAYED pair (x_t, y_t) and f_t(x_t, y_t); the
    post-inner decision y_{t+1}; the windowed hypergradient used for the
    outer step (nan in benchmark traces, which take none); the schedule
    values; the residual ||grad_y g_t(x_t, y_{t+1})||; and the round's
    wall time. f_value and inner_residual only measure a round, so the
    drivers fill them after their loops, and wall_nanos time the round's
    algorithm alone. y is y_after_inner shifted down one row, with the
    initial y_1 in row 0, beta is constant, and alpha and K are the
    schedules' values, evaluated before the loop: the drivers write all
    four after their loops. Consecutive rows satisfy
    x_{t+1} = project(X, x_t - alpha_t * hypergrad_t) for the online driver
    (benchmark traces set alpha_t = 0 and K_t = 0 and step by oracle
    instead). final_x / final_y hold the never-played pair (x_{T+1},
    y_{T+1}).
    """

    T: int
    x: np.ndarray
    y: np.ndarray
    y_after_inner: np.ndarray
    hypergrad: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    K: np.ndarray
    f_value: np.ndarray
    inner_residual: np.ndarray
    wall_nanos: np.ndarray
    final_x: Optional[np.ndarray] = None
    final_y: Optional[np.ndarray] = None
    warnings: list = field(default_factory=list)

    @staticmethod
    def allocate(T: int, d1: int, d2: int) -> "Trace":
        return Trace(
            T=T,
            x=np.empty((T, d1)),
            y=np.empty((T, d2)),
            y_after_inner=np.empty((T, d2)),
            hypergrad=np.empty((T, d1)),
            alpha=np.empty(T),
            beta=np.empty(T),
            K=np.empty(T, dtype=np.int64),
            f_value=np.empty(T),
            inner_residual=np.empty(T),
            wall_nanos=np.empty(T, dtype=np.int64),
        )

    @property
    def d1(self) -> int:
        return self.x.shape[1]

    @property
    def d2(self) -> int:
        return self.y.shape[1]


def evaluate_schedules(steps: StepSizeSchedule, inner: InnerSchedule,
                       constants: Optional[DerivedConstants], T: int) -> tuple[list, list, list]:
    """alpha_1..alpha_T (StepSizeSchedule.alpha_at) and K_1..K_T (the inner
    rule floored at 1 and capped at k_max), plus the capped rounds, whose
    count is off schedule. Set-up evaluates a run's schedules with it, and
    oagd_run before round 1. A K rule that raises ValueError or
    OverflowError is a ValueError naming its round; constants may be None
    for the fixed and custom rules, which never read it."""
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    alphas = [steps.alpha_at(t) for t in range(1, T + 1)]
    Ks = []
    for t in range(1, T + 1):
        try:
            Ks.append(max(int(inner.rule(constants, t)), 1))
        except (ValueError, OverflowError) as exc:
            reason = "K_t overflows float64" if isinstance(exc, OverflowError) else exc
            raise ValueError(f"round {t}: inner schedule {inner.kind!r}: {reason}") from exc
    capped = [t for t, k in enumerate(Ks, 1) if k > inner.k_max]
    return alphas, [min(k, inner.k_max) for k in Ks], capped


def oagd_run(
    stream: Stream,
    init: DecisionPair,
    fset: FeasibleSet,
    window: WeightWindow,
    steps: StepSizeSchedule,
    inner: InnerSchedule,
    T: int,
    constants: Optional[DerivedConstants] = None,
) -> Trace:
    """Run the online alternating loop for T rounds and return the trace.

    `constants` feeds the theorem-derived K_t rules, which raise ValueError
    without it; fixed and custom inner schedules never read it. Both
    schedules are evaluated for all T rounds before round 1
    (evaluate_schedules), so a schedule error comes before any round runs
    and the capped rounds' warnings are recorded first. The loop runs with
    numpy's overflow and invalid warnings off: a non-finite iterate is
    reported, with its round, by the loop's own checks (NonFiniteIterate).
    Each check (_finite) is one BLAS dot v.v; only when that is not finite
    does numpy test v entry by entry, so a finite iterate whose squared
    norm overflows runs on. Each round calls the stream's inner_steps and
    windowed_hypergrad. y, alpha, beta and K are written after the loop,
    f_value and inner_residual by _measure_rounds.
    """
    stream.horizon(T)
    x = np.asarray(init.x, dtype=float).copy()
    y = np.asarray(init.y, dtype=float).copy()
    if not fset.contains(x, atol=1e-12):
        raise ValueError("init.x lies outside the feasible set")
    alphas, Ks, capped = evaluate_schedules(steps, inner, constants, T)
    trace = Trace.allocate(T, x.shape[0], y.shape[0])
    trace.y[0] = y
    trace.warnings += [f"round {t}: K_t capped at {inner.k_max}" for t in capped]
    # overflow and nan surface through the loop's own finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            t0 = time.perf_counter_ns()
            i = t - 1
            # Stream.inner_steps' inner_gd raises on a non-finite iterate,
            # the fused overrides return it: either way the round is named
            try:
                y_next = stream.inner_steps(t, x, y, inner.beta, Ks[i])
                if not _finite(y_next):
                    raise NonFiniteIterate("inner iterate became non-finite")
            except NonFiniteIterate as exc:
                raise NonFiniteIterate(str(exc), round_index=t) from exc
            hg = stream.windowed_hypergrad(t, window, x, y_next)
            x_next = project(fset, x - alphas[i] * hg)
            if not (_finite(hg) and _finite(x_next)):
                raise NonFiniteIterate("outer iterate became non-finite", round_index=t)
            trace.x[i] = x
            trace.y_after_inner[i] = y_next
            trace.hypergrad[i] = hg
            trace.wall_nanos[i] = time.perf_counter_ns() - t0
            x, y = x_next, y_next
    trace.y[1:] = trace.y_after_inner[:-1]
    trace.alpha[:] = alphas
    trace.beta[:] = inner.beta
    trace.K[:] = Ks
    trace.final_x = x
    trace.final_y = y
    _measure_rounds(stream, trace)
    return trace


def _finite(v: np.ndarray) -> bool:
    """No nan or inf in v. A non-finite entry makes v.v nan or inf, so the
    exact entrywise test runs only when the dot is not finite."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def full_info_run(stream: Stream, init: DecisionPair, T: int) -> Trace:
    """Benchmark that plays the previous round's exact solutions.

    After playing (x_t, y_t): y_{t+1} = argmin_y g_t(x_t, y) and
    x_{t+1} = argmin_{x in X} f_t(x, y_{t+1}), from the round's closed forms
    closed_form_y_star and closed_form_x_partial; a round without either
    raises OracleUnavailable.

    Trace rows mark oracle steps with K_t = 0 and alpha_t = 0, and hold
    nan as the hypergradient, since no step takes one. f_value and
    inner_residual are filled after the loop (_measure_rounds), so
    wall_nanos time the two closed forms alone. When the stream has a
    stacked round, all rounds are played in two calls on it (every
    x_{t+1}, then every y_{t+1}), and each row's wall_nanos is 1/T of
    those.
    """
    stream.horizon(T)
    x = np.asarray(init.x, dtype=float).copy()
    y = np.asarray(init.y, dtype=float).copy()
    trace = Trace.allocate(T, x.shape[0], y.shape[0])
    trace.y[0] = y
    t0 = time.perf_counter_ns()
    rows = stream.stacked_round(T)
    if rows is not None:
        x_next = rows.closed_form_x_partial(None)
        trace.x[0], trace.x[1:] = x, x_next[:-1]
        trace.y_after_inner[:] = rows.closed_form_y_star(trace.x)
        trace.wall_nanos[:] = (time.perf_counter_ns() - t0) // T
        x, y = x_next[-1], trace.y_after_inner[-1].copy()
    else:
        for t in range(1, T + 1):
            t0 = time.perf_counter_ns()
            rnd = stream[t - 1]
            if rnd.closed_form_y_star is None or rnd.closed_form_x_partial is None:
                raise OracleUnavailable(
                    f"round {t} has no closed-form inner solution or partial minimizer in x"
                )
            y_next = np.asarray(rnd.closed_form_y_star(x), dtype=float)
            x_next = np.asarray(rnd.closed_form_x_partial(y_next), dtype=float)
            i = t - 1
            trace.x[i] = x
            trace.y_after_inner[i] = y_next
            trace.wall_nanos[i] = time.perf_counter_ns() - t0
            x, y = x_next, y_next
    trace.y[1:] = trace.y_after_inner[:-1]
    trace.hypergrad[:] = np.nan
    trace.alpha[:] = 0.0
    trace.beta[:] = 0.0
    trace.K[:] = 0
    trace.final_x = x
    trace.final_y = y
    _measure_rounds(stream, trace)
    return trace


def _measure_rounds(stream: Stream, trace: Trace):
    """Fill a finished trace's f_value (at the played pair) and
    inner_residual (at the post-inner y): one call each on the stream's
    stacked round, whose rows carry the per-round bits, or round by round
    when it has none."""
    x, y, y_next = trace.x, trace.y, trace.y_after_inner
    rows = stream.stacked_round(trace.T)
    if rows is not None:
        trace.f_value[:] = rows.f(x, y)
        trace.inner_residual[:] = np.linalg.norm(rows.grad_y_g(x, y_next), axis=1)
        return
    for i in range(trace.T):
        rnd = stream[i]
        trace.f_value[i] = rnd.f(x[i], y[i])
        trace.inner_residual[i] = np.linalg.norm(rnd.grad_y_g(x[i], y_next[i]))
