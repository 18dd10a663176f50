"""Comparator oracles and the performance accounting.

The oracles here exist only for measurement; the online loop never sees
them. Per round they produce

    y*_t(x)  = argmin_y g_t(x, y)                      (inner_oracle)
    x*_t     = argmin_{x in X} f_t(x, y*_t(x))          (outer_oracle)

from closed forms when the round exposes them and high-accuracy numerical
solves otherwise; an OracleDiverged from one round's solves names that
round. On top of the comparator series the report aggregates the
dynamic and static regrets, the windowed-gradient local regret, the outer
and inner path lengths P_p / Y_p with their static variants, and a sampled
lower bound on the worst-case inner-map variation H_T.
"""
from __future__ import annotations

import itertools
import warnings as _warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FeasibleSet, project
from .errors import ConfigError, NonConvexFlag, OracleDiverged
from .hypergrad import WeightWindow, hypergradient
from .inner import inner_model_at, newton_to_tolerance, pgd_to_stationarity
from .problems import Stream

INNER_ORACLE_TOL = 1e-12
OUTER_ORACLE_TOL = 1e-10


def inner_oracle(round_fns, x, y0: Optional[np.ndarray] = None) -> np.ndarray:
    """y*_t(x) at one point x (d1,), or at every row of a batch x (P, d1)
    with y0 (P, d2): the closed form when available (one call for the whole
    batch), else damped Newton per point from y0 until the inner gradient
    norm falls below INNER_ORACLE_TOL."""
    if round_fns.closed_form_y_star is not None:
        return np.asarray(round_fns.closed_form_y_star(x), dtype=float)
    if y0 is None:
        raise ValueError("y0 is required when the round has no closed-form inner solution")
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.array([newton_to_tolerance(inner_model_at(round_fns, p), y, INNER_ORACLE_TOL)
                         for p, y in zip(x, y0)])
    return newton_to_tolerance(inner_model_at(round_fns, x), y0, INNER_ORACLE_TOL)


@contextmanager
def _oracle_round(t: int):
    """Re-raise an OracleDiverged from one round's oracle calls with its
    1-based round index t."""
    try:
        yield
    except OracleDiverged as exc:
        raise OracleDiverged(str(exc), residual=exc.residual, round_index=t) from exc


def _composed_handles(round_fns, y_hint):
    """Value and gradient of phi(x) = f(x, y*(x)), and the inner solve they
    share: one solve per distinct x, warm started from the previous one
    (the first from y_hint)."""
    state = {"key": None, "y": y_hint}

    def solve(x):
        key = x.tobytes()
        if state["key"] != key:
            state["y"] = inner_oracle(round_fns, x, y0=state["y"])
            state["key"] = key
        return state["y"]

    def value(x):
        return float(round_fns.f(x, solve(x)))

    def grad(x):
        return hypergradient(round_fns, x, solve(x))

    return value, grad, solve


def outer_oracle(round_fns, fset: FeasibleSet, tol: float = OUTER_ORACLE_TOL,
                 x0: Optional[np.ndarray] = None,
                 y0: Optional[np.ndarray] = None) -> np.ndarray:
    """x*_t: closed form when available, else projected gradient descent on
    the composed objective using exact hypergradients (a stationary point,
    which is the minimizer only when the composed objective is convex)."""
    if round_fns.closed_form_x_star is not None:
        return np.asarray(round_fns.closed_form_x_star(), dtype=float)
    if x0 is None:
        raise ValueError("x0 is required when the round has no closed-form comparator")
    value, grad, _ = _composed_handles(round_fns, y_hint=y0)
    return pgd_to_stationarity(value, grad, fset, np.asarray(x0, dtype=float), tol=tol)


@dataclass
class ComparatorSeries:
    """Per-round comparators plus the optional static comparator block.

    grad_norm holds ||hypergradient at (x*_t, y*_t(x*_t))||, the quantity
    whose sum certifies near-stationary comparator sequences. provenance is
    "closed_form", "numerical(tol=...)" or "mixed".
    """

    x_star: np.ndarray
    y_star: np.ndarray
    f_star: np.ndarray
    grad_norm: np.ndarray
    provenance: str
    x_static: Optional[np.ndarray] = None
    y_static: Optional[np.ndarray] = None
    f_static: Optional[np.ndarray] = None

    @property
    def T(self) -> int:
        return self.x_star.shape[0]


def comparator_series(stream: Stream, fset: FeasibleSet, T: Optional[int] = None,
                      tol: float = OUTER_ORACLE_TOL,
                      convex: bool = True,
                      include_static: bool = True) -> ComparatorSeries:
    """Solve every round's comparator pair and, with include_static, the
    static comparator block (attach_static).

    x*, y*, f* and the gradient norms come from one call each on the
    stream's stacked round, or round by round when it has none. Numerical
    rounds warm start from the previous round's solution. With
    convex=False a NonConvexFlag warning marks the numerical comparators as
    local stationary points.
    """
    T = stream.horizon(T)
    if not convex:
        _warnings.warn(NonConvexFlag(
            "nonconvex composed objective: comparators are local stationary points"
        ))
    rows = stream.stacked_round(T)
    if rows is not None:
        x_star = rows.closed_form_x_star()
        y_star = rows.closed_form_y_star(x_star)
        series = ComparatorSeries(
            x_star=x_star, y_star=y_star, f_star=rows.f(x_star, y_star),
            grad_norm=np.linalg.norm(hypergradient(rows, x_star, y_star), axis=1),
            provenance="closed_form",
        )
        if include_static:
            attach_static(series, stream, fset, tol=tol)
        return series
    x_star = np.empty((T, stream.d1))
    y_star = np.empty((T, stream.d2))
    f_star = np.empty(T)
    grad_norm = np.empty(T)
    closed = numerical = False
    x_prev = project(fset, np.zeros(stream.d1))
    y_prev = np.zeros(stream.d2)
    for t in range(T):
        rnd = stream[t]
        closed |= rnd.closed_form_x_star is not None
        numerical |= rnd.closed_form_x_star is None
        with _oracle_round(t + 1):
            xs = outer_oracle(rnd, fset, tol=tol, x0=x_prev, y0=y_prev)
            ys = inner_oracle(rnd, xs, y0=y_prev)
        x_star[t] = xs
        y_star[t] = ys
        f_star[t] = rnd.f(xs, ys)
        grad_norm[t] = np.linalg.norm(hypergradient(rnd, xs, ys))
        x_prev, y_prev = xs, ys
    if closed and numerical:
        provenance = "mixed"
    elif closed:
        provenance = "closed_form"
    else:
        provenance = f"numerical(tol={tol:g})"
    series = ComparatorSeries(
        x_star=x_star, y_star=y_star, f_star=f_star,
        grad_norm=grad_norm, provenance=provenance,
    )
    if include_static:
        attach_static(series, stream, fset, tol=tol)
    return series


def attach_static(series: ComparatorSeries, stream: Stream, fset: FeasibleSet,
                  tol: float = OUTER_ORACLE_TOL) -> ComparatorSeries:
    """Fill the static comparator block of an existing series in place.

    x_static minimizes the mean of the rounds' composed objectives: the
    stream's closed_form_static_comparator, or when that is None projected
    gradient descent from the mean per-round comparator, with one composed
    handle per round warm started from that round's y*_t. y_static and
    f_static are read from the handles at x_static, or in one call each
    from the stream's stacked round at a closed-form x_static.
    """
    T, d2 = series.y_star.shape
    x_bar = stream.closed_form_static_comparator()
    rows = stream.stacked_round(T)
    if x_bar is not None and rows is not None:
        x_rows = np.broadcast_to(x_bar, (T, x_bar.shape[0]))
        series.x_static = x_bar
        series.y_static = rows.closed_form_y_star(x_rows)
        series.f_static = rows.f(x_rows, series.y_static)
        return series
    # built lazily: a closed-form x_static reads each handle once, so only
    # the numerical solve keeps all T of them alive
    handles = (_composed_handles(stream[t], y_hint=series.y_star[t])
               for t in range(T))
    if x_bar is None:
        handles = list(handles)
        x_bar = pgd_to_stationarity(
            lambda x: sum(value(x) for value, _, _ in handles) / T,
            lambda x: sum(grad(x) for _, grad, _ in handles) / T,
            fset, series.x_star.mean(axis=0), tol=tol,
        )
    series.x_static = x_bar
    series.y_static = np.empty((T, d2))
    series.f_static = np.empty(T)
    for t, (value, _, solve) in enumerate(handles):
        with _oracle_round(t + 1):
            series.y_static[t] = solve(x_bar)
        series.f_static[t] = value(x_bar)
    return series


def path_lengths(series: ComparatorSeries, p: int) -> tuple[float, float, float]:
    """(P_p, Y_p, Ybar_p): p-th power variation of the outer comparators,
    the inner comparators along them, and the inner comparators at the
    static x. Series of length 1 have zero variation; Ybar is nan when the
    static block is absent."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    P = float(np.sum(_step_norms(series.x_star) ** p))
    Y = float(np.sum(_step_norms(series.y_star) ** p))
    if series.y_static is None:
        Ybar = float("nan")
    else:
        Ybar = float(np.sum(_step_norms(series.y_static) ** p))
    return P, Y, Ybar


def _step_norms(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] < 2:
        return np.zeros(0)
    return np.linalg.norm(np.diff(arr, axis=0), axis=1)


def _cumulative_variation(arr: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(arr.shape[0])
    steps = _step_norms(arr) ** p
    out[1:] = np.cumsum(steps)
    return out


def kronecker_points(n: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """n low-discrepancy points in the box [lower, upper] from the additive
    golden-ratio-family recurrence."""
    d = lower.shape[0]
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (d + 1))
    alpha = g ** -(1.0 + np.arange(d))
    k = np.arange(1, n + 1)[:, None]
    frac = np.mod(0.5 + k * alpha[None, :], 1.0)
    return lower[None, :] + frac * (upper - lower)[None, :]


@np.errstate(over="ignore")  # a range that overflows is refused below
def _sample_points(fset: FeasibleSet, d1: int, n: int,
                   trace_x: Optional[np.ndarray] = None) -> np.ndarray:
    """h_estimate's point cloud. A range wider than float64 holds is a
    ConfigError: in a cloud rescaled into it, y*'s change between rounds
    rounds away (a 20-round quadratic's H_T read 0, not 12.2)."""
    if fset.kind == "box":
        lower, upper = fset.lower, fset.upper
    elif fset.kind == "ball":
        lower = fset.center - fset.radius
        upper = fset.center + fset.radius
    else:
        if trace_x is None or trace_x.shape[0] == 0:
            lower, upper = -np.ones(d1), np.ones(d1)
        else:
            lower = trace_x.min(axis=0) - 1.0
            upper = trace_x.max(axis=0) + 1.0
    if not np.isfinite(upper - lower).all():
        raise ConfigError(f"H_T cannot be sampled: the {fset.kind} set spans more than "
                          "float64 holds; set report_h = false")
    pts = kronecker_points(n, lower, upper)
    if fset.kind == "box" and 2**d1 <= n:
        corners = np.array(list(itertools.product(*zip(fset.lower, fset.upper))))
        pts = np.vstack([pts, corners])
    if fset.kind == "ball":
        pts = np.array([project(fset, p) for p in pts])
    return pts


#: rounds per stacked solve in h_estimate
H_BLOCK_ROUNDS = 256


def h_estimate(stream: Stream, fset: FeasibleSet, T: Optional[int] = None,
               n_samples: int = 128, trace_x: Optional[np.ndarray] = None) -> float:
    """Sampled lower bound on H_T = sum_t sup_x ||y*_{t-1}(x) - y*_t(x)||^2.

    The supremum is taken over a finite point cloud (quasi-random points
    plus box corners when affordable; for unbounded sets the cloud covers
    the visited x range padded by 1), so the value underestimates the true
    supremum. The cloud is solved for blocks of H_BLOCK_ROUNDS rounds in one
    closed-form call each on the stream's stacked rounds; a stream without
    them solves it round by round in one inner_oracle call: a batched closed
    form, or damped Newton per point warm started from the previous round's
    solution at that point. The stacked path still adds the rounds' suprema
    one at a time in round order, so it gives the per-round path's bits.
    """
    T = stream.horizon(T)
    if T < 2:
        return 0.0
    pts = _sample_points(fset, stream.d1, n_samples, trace_x=trace_x)
    total = 0.0
    # a block bounds memory: solving the whole (T, P) cloud of a
    # quadratic_dynamic.cfg run (T = 2000, P = 130) at once raised its peak
    # RSS from 36.8 to 41.4 MB. Blocks of 256 rounds (0.27 MB per
    # temporary) take as long as one block of all 2000 (3.4 ms on a 2-core
    # VM; 64-round blocks 4.8 ms). Consecutive blocks share a round, whose
    # solution is recomputed.
    for start in range(0, T - 1, H_BLOCK_ROUNDS):
        stop = min(start + H_BLOCK_ROUNDS + 1, T)
        rows = stream.stacked_round(stop, start=start)
        if rows is None:  # the stream has no stacked rounds: its first block says so
            break
        ys = inner_oracle(rows, np.broadcast_to(pts, (stop - start,) + pts.shape))
        for sup in np.max(np.sum((ys[1:] - ys[:-1]) ** 2, axis=2), axis=1).tolist():
            total += sup
    else:  # every block was stacked
        return total
    with _oracle_round(1):
        prev = inner_oracle(stream[0], pts, y0=np.zeros((pts.shape[0], stream.d2)))
    for t in range(1, T):
        with _oracle_round(t + 1):
            cur = inner_oracle(stream[t], pts, y0=prev)
        total += float(np.max(np.sum((cur - prev) ** 2, axis=1)))
        prev = cur
    return total


def local_regret_series(trace, stream: Stream, window: WeightWindow) -> np.ndarray:
    """Cumulative sum of ||windowed hypergradient at (x_t, y*_t(x_t))||^2,
    the windowed gradient evaluated at the exact inner response to the
    played x_t. The responses come from one call on the stream's stacked
    round, or round by round from inner_oracle (warm started from the
    previous one) when it has none; the windowed gradients from the
    stream's stacked_windowed_hypergrad."""
    T = trace.T
    rows = stream.stacked_round(T)
    if rows is not None:
        y_star = rows.closed_form_y_star(trace.x)
    else:
        y_star = np.empty((T, trace.d2))
        y_prev = np.zeros(trace.d2)
        for t in range(T):
            with _oracle_round(t + 1):
                y_prev = y_star[t] = inner_oracle(stream[t], trace.x[t], y0=y_prev)
    hg = stream.stacked_windowed_hypergrad(window, trace.x, y_star)
    return np.cumsum(np.sum(hg**2, axis=1))


@dataclass
class RegretReport:
    """Everything the experiment runner serializes about one trace.

    bd/bs/bl are cumulative series (bs is None when the comparator series
    has no static block); p2_series / y2_series are the cumulative squared path
    lengths used for per-round reporting; h_T is a sampled lower bound.
    """

    bd_regret: np.ndarray
    bs_regret: Optional[np.ndarray]
    bl_regret: Optional[np.ndarray]
    p1: float
    p2: float
    y1: float
    y2: float
    ybar1: float
    ybar2: float
    h_T: float
    comparator_grad_sum: float
    f_star_sum: float
    p2_series: np.ndarray
    y2_series: np.ndarray
    x_static: Optional[np.ndarray]
    provenance: str


def compute_report(trace, stream: Stream, fset: FeasibleSet, window: WeightWindow,
                   comparators: ComparatorSeries,
                   h_samples: int = 128,
                   include_local: bool = True,
                   include_h: bool = True) -> RegretReport:
    """Aggregate all metrics for a finished trace against its comparator
    series, which must cover exactly the trace's rounds and may be shared
    across traces of the same stream (window sweeps, the baseline). The
    static regret is reported when the series carries its static block.
    """
    T = trace.T
    if comparators.T != T:
        raise ValueError(f"comparator series covers {comparators.T} rounds, the trace {T}")
    bd = np.cumsum(trace.f_value - comparators.f_star)
    bs = None if comparators.f_static is None else np.cumsum(trace.f_value - comparators.f_static)
    bl = local_regret_series(trace, stream, window) if include_local else None
    p1, y1, ybar1 = path_lengths(comparators, 1)
    p2, y2, ybar2 = path_lengths(comparators, 2)
    h = (
        h_estimate(stream, fset, T=T, n_samples=h_samples, trace_x=trace.x)
        if include_h else float("nan")
    )
    return RegretReport(
        bd_regret=bd,
        bs_regret=bs,
        bl_regret=bl,
        p1=p1, p2=p2, y1=y1, y2=y2, ybar1=ybar1, ybar2=ybar2,
        h_T=h,
        comparator_grad_sum=float(np.sum(comparators.grad_norm)),
        f_star_sum=float(np.sum(comparators.f_star)),
        p2_series=_cumulative_variation(comparators.x_star, 2),
        y2_series=_cumulative_variation(comparators.y_star, 2),
        x_static=comparators.x_static,
        provenance=comparators.provenance,
    )
