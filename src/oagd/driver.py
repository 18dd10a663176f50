"""The online alternating loop and its full-information benchmark.

Each round t the learner plays the pair (x_t, y_t), the round's losses are
revealed, the follower runs K_t warm-started gradient steps on g_t(x_t, .)
to produce y_{t+1}, and the leader takes one projected step along the
window-averaged hypergradient evaluated at (x_t, y_{t+1}).

The full-information benchmark instead jumps straight to the revealed
round's solutions: y_{t+1} minimizes g_t(x_t, .) and x_{t+1} minimizes
f_t(., y_{t+1}) over the feasible set.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DecisionPair, DerivedConstants, FeasibleSet, project
from .errors import NonFiniteIterate, OracleUnavailable, StreamExhausted
from .hypergrad import WeightWindow, hypergradient, stream_windowed_hypergradient
from .inner import (InnerSchedule, k_for_round, newton_to_tolerance, pgd_to_stationarity,
                    stream_inner_gd)


def strongly_convex_c(mu_f: float, constants: DerivedConstants) -> float:
    """The coupling constant c = mu_f^2 / (2 (L_f^2 + L_y^2)) shared by the
    strongly-convex dynamic step size and its inner iteration count."""
    return mu_f**2 / (2.0 * (constants.L_f**2 + constants.L_y**2))


@dataclass(frozen=True)
class StepSizeSchedule:
    """Outer step size rule alpha_t.

    Kinds: constant; strongly_convex_static (2 / (mu_f t)); convex_static
    (D / (ell_f0 sqrt(t))); custom. The regime factories bake in the
    corresponding constants and record how alpha was derived in `label`.
    """

    kind: str
    alpha: Optional[float] = None
    mu_f: Optional[float] = None
    D: Optional[float] = None
    ell_f0: Optional[float] = None
    fn: Optional[Callable[[int], float]] = None
    label: str = ""

    def __post_init__(self):
        if self.kind == "constant":
            if self.alpha is None or self.alpha < 0:
                raise ValueError("constant schedule needs alpha >= 0")
        elif self.kind == "strongly_convex_static":
            if self.mu_f is None or self.mu_f <= 0:
                raise ValueError("strongly_convex_static needs mu_f > 0")
        elif self.kind == "convex_static":
            if self.D is None or self.D <= 0 or self.ell_f0 is None or self.ell_f0 <= 0:
                raise ValueError("convex_static needs D > 0 and ell_f0 > 0")
        elif self.kind == "custom":
            if self.fn is None:
                raise ValueError("custom schedule needs a callable")
        else:
            raise ValueError(f"unknown step size kind {self.kind!r}")

    def alpha_at(self, t: int) -> float:
        if t < 1:
            raise ValueError("round index must be >= 1")
        if self.kind == "constant":
            return self.alpha
        if self.kind == "strongly_convex_static":
            return 2.0 / (self.mu_f * t)
        if self.kind == "convex_static":
            return self.D / (self.ell_f0 * np.sqrt(t))
        return float(self.fn(t))

    @staticmethod
    def constant(alpha: float, label: str = "constant") -> "StepSizeSchedule":
        return StepSizeSchedule(kind="constant", alpha=float(alpha), label=label)

    @staticmethod
    def strongly_convex_dynamic(mu_f: float, constants: DerivedConstants) -> "StepSizeSchedule":
        c = strongly_convex_c(mu_f, constants)
        return StepSizeSchedule(
            kind="constant",
            alpha=4.0 * c / mu_f,
            mu_f=mu_f,
            label=f"strongly_convex_dynamic alpha=4c/mu_f, c={c:.6g}",
        )

    @staticmethod
    def strongly_convex_static(mu_f: float) -> "StepSizeSchedule":
        return StepSizeSchedule(
            kind="strongly_convex_static", mu_f=float(mu_f),
            label="strongly_convex_static alpha_t=2/(mu_f t)",
        )

    @staticmethod
    def convex_dynamic(constants: DerivedConstants) -> "StepSizeSchedule":
        return StepSizeSchedule(
            kind="constant",
            alpha=1.0 / (2.0 * constants.L_f**2),
            label="convex_dynamic alpha=1/(2 L_f^2)",
        )

    @staticmethod
    def convex_static(D: float, ell_f0: float) -> "StepSizeSchedule":
        return StepSizeSchedule(
            kind="convex_static", D=float(D), ell_f0=float(ell_f0),
            label="convex_static alpha_t=D/(ell_f0 sqrt(t))",
        )

    @staticmethod
    def nonconvex(alpha: float, constants: DerivedConstants) -> "StepSizeSchedule":
        cap = 1.0 / (3.0 * constants.L_f)
        if alpha > cap * (1.0 + 1e-12):
            raise ValueError(f"nonconvex schedule requires alpha <= 1/(3 L_f) = {cap:.6g}")
        return StepSizeSchedule(
            kind="constant", alpha=float(alpha),
            label=f"nonconvex constant alpha<=1/(3 L_f)={cap:.6g}",
        )

    @staticmethod
    def custom(fn: Callable[[int], float], label: str = "custom") -> "StepSizeSchedule":
        return StepSizeSchedule(kind="custom", fn=fn, label=label)


@dataclass
class Trace:
    """Per-round record of a run, preallocated as dense arrays.

    Row t-1 holds the PLAYED pair (x_t, y_t) and f_t(x_t, y_t); the
    post-inner decision y_{t+1}; the windowed hypergradient used for the
    outer step; the schedule values; the residual ||grad_y g_t(x_t,
    y_{t+1})||; and the round's wall time. Consecutive rows satisfy
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


def _require_rounds(stream, T: int):
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    n = len(stream)
    if n < T:
        raise StreamExhausted(n + 1, available=n)


def oagd_run(
    stream,
    init: DecisionPair,
    fset: FeasibleSet,
    window: WeightWindow,
    steps: StepSizeSchedule,
    inner: InnerSchedule,
    T: int,
    constants: Optional[DerivedConstants] = None,
) -> Trace:
    """Run the online alternating loop for T rounds and return the trace.

    `constants` feeds the theorem-derived K_t rules; it may be omitted for
    fixed or custom inner schedules. The follower's steps go through
    stream_inner_gd and the window average through
    stream_windowed_hypergradient (each takes the stream's fast path when
    it has one).
    """
    _require_rounds(stream, T)
    x = np.asarray(init.x, dtype=float).copy()
    y = np.asarray(init.y, dtype=float).copy()
    if not fset.contains(x, atol=1e-12):
        raise ValueError("init.x lies outside the feasible set")
    if constants is None and inner.kind not in ("fixed", "custom"):
        raise ValueError(f"inner schedule kind {inner.kind!r} needs derived constants")
    trace = Trace.allocate(T, x.shape[0], y.shape[0])
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        rnd = stream[t - 1]
        K_t, capped = k_for_round(inner, constants, t)
        if capped:
            trace.warnings.append(f"round {t}: K_t capped at {inner.k_max}")
        try:
            y_next = stream_inner_gd(stream, t, x, y, inner.beta, K_t)
        except NonFiniteIterate as exc:
            raise NonFiniteIterate(str(exc), round_index=t) from exc
        hg = stream_windowed_hypergradient(stream, t, window, x, y_next)
        alpha_t = steps.alpha_at(t)
        x_next = project(fset, x - alpha_t * hg)
        if not (np.all(np.isfinite(hg)) and np.all(np.isfinite(x_next))):
            raise NonFiniteIterate("outer iterate became non-finite", round_index=t)
        i = t - 1
        trace.x[i] = x
        trace.y[i] = y
        trace.y_after_inner[i] = y_next
        trace.hypergrad[i] = hg
        trace.alpha[i] = alpha_t
        trace.beta[i] = inner.beta
        trace.K[i] = K_t
        trace.f_value[i] = rnd.f(x, y)
        trace.inner_residual[i] = np.linalg.norm(rnd.grad_y_g(x, y_next))
        trace.wall_nanos[i] = time.perf_counter_ns() - t0
        x, y = x_next, y_next
    trace.final_x = x
    trace.final_y = y
    return trace


def full_info_run(
    stream,
    init: DecisionPair,
    fset: FeasibleSet,
    T: int,
    oracle_tol: Optional[float] = None,
) -> Trace:
    """Benchmark that plays the previous round's exact solutions.

    After playing (x_t, y_t): y_{t+1} = argmin_y g_t(x_t, y) via the closed
    form or, when oracle_tol is set, damped Newton to that residual;
    x_{t+1} = argmin_{x in X} f_t(x, y_{t+1}) via the closed-form partial
    minimizer, a projected-gradient solve on x -> f_t(x, y_{t+1}), or the
    round's composed-objective minimizer, in that preference order.

    Trace rows mark oracle steps with K_t = 0 and alpha_t = 0; the recorded
    hypergradient is the exact one at (x_t, y_{t+1}), kept for diagnostics.
    """
    _require_rounds(stream, T)
    x = np.asarray(init.x, dtype=float).copy()
    y = np.asarray(init.y, dtype=float).copy()
    trace = Trace.allocate(T, x.shape[0], y.shape[0])
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        rnd = stream[t - 1]
        if rnd.closed_form_y_star is not None:
            y_next = np.asarray(rnd.closed_form_y_star(x), dtype=float)
        elif oracle_tol is not None:
            y_next = newton_to_tolerance(rnd, x, y, tol=oracle_tol)
        else:
            raise OracleUnavailable(
                f"round {t} has no closed-form inner solution and no oracle tolerance was given"
            )
        if rnd.closed_form_x_partial is not None:
            x_next = np.asarray(rnd.closed_form_x_partial(y_next), dtype=float)
        elif oracle_tol is not None:
            x_next = pgd_to_stationarity(
                lambda v: rnd.f(v, y_next),
                lambda v: np.asarray(rnd.grad_x_f(v, y_next), dtype=float),
                fset,
                x,
                tol=oracle_tol,
            )
        elif rnd.closed_form_x_star is not None:
            x_next = np.asarray(rnd.closed_form_x_star(), dtype=float)
        else:
            raise OracleUnavailable(
                f"round {t} has no partial minimizer in x and no oracle tolerance was given"
            )
        i = t - 1
        trace.x[i] = x
        trace.y[i] = y
        trace.y_after_inner[i] = y_next
        trace.hypergrad[i] = hypergradient(rnd, x, y_next)
        trace.alpha[i] = 0.0
        trace.beta[i] = 0.0
        trace.K[i] = 0
        trace.f_value[i] = rnd.f(x, y)
        trace.inner_residual[i] = np.linalg.norm(rnd.grad_y_g(x, y_next))
        trace.wall_nanos[i] = time.perf_counter_ns() - t0
        x, y = x_next, y_next
    trace.final_x = x
    trace.final_y = y
    return trace
