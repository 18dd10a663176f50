"""Inexact hypergradients and their time-averaged windowed form.

The single-round hypergradient at a pair (x, y) is

    grad_x f(x, y) - jac_xy_g(x, y) v,    v solving  H(x, y) v = grad_y f(x, y),

with H the inner Hessian and jac_xy_g the cross second derivatives of g,
which a round applies to v (jac_xy_g_dot) rather than forming. At
y = y*(x) this equals the exact gradient of the composed objective phi(x) =
f(x, y*(x)) by the implicit function theorem; away from y*(x) the error is
bounded by M_f ||y - y*(x)||.

Every round states H as diag(d) + a a^T (hess_yy_parts), and sm_solve
solves it by Sherman-Morrison. cholesky_solve solves a dense Hessian: the
full-training-split fit's A^T A / n + diag(d).

The windowed form averages the last w rounds' hypergradients, every term
evaluated at the same current pair and carrying its own round's curvature:

    (1/W) sum_{i=0}^{w-1} u_i * hg_{t-i}(x, y),    rounds t-i <= 0 contribute 0,

with weights 1 = u_0 >= u_1 >= ... > 0 and W = sum u_i fixed independent of t
(zero-padded rounds keep their weight in W). windowed_hypergradient computes
it term by term from any indexable stream of rounds; it is
Stream.windowed_hypergrad, and the reference for the streams' fast
overrides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RoundFunctions
from .errors import FactorizationFailure

#: residual tolerance of the solve against grad_y f (see _check_residual)
SOLVE_RESIDUAL_RTOL = 1e-10


def sm_solve(a: np.ndarray, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(d) + a a^T) z = rhs along the last axis of rhs by
    Sherman-Morrison,

        z = D^{-1} rhs - D^{-1} a (a^T D^{-1} rhs) / (1 + a^T D^{-1} a),

    in O(d2) per right-hand side. Leading axes of rhs (and of d) are batch
    axes: one call solves a vector, the rows of a stacked round, or a
    (P, d2) point cloud with one diagonal per point. Raises
    FactorizationFailure unless d is finite and positive, the condition
    under which the matrix is positive definite for every a.
    """
    if not (d.min() > 0.0 and d.max() < math.inf):
        raise FactorizationFailure("inner Hessian diagonal not finite and positive")
    da = a / d
    dr = rhs / d
    # ndarray.dot: matmul's dispatch costs more than the work at these sizes
    return dr - da * (dr.dot(a) / (1.0 + da.dot(a)))[..., None]


def cholesky_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve hess z = rhs for a dense symmetric positive definite hess: one
    Cholesky factorization hess = L L^T (numpy.linalg.cholesky, which reads
    the lower triangle), then solves with L and L^T. Raises
    FactorizationFailure when hess is not finite or not numerically
    positive definite."""
    if not np.isfinite(hess).all():
        raise FactorizationFailure("inner Hessian not finite")
    try:
        factor = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"inner Hessian not positive definite: {exc}") from None
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def _check_residual(a: np.ndarray, d: np.ndarray, v: np.ndarray, rhs: np.ndarray):
    """Raise FactorizationFailure unless each row's residual d v + (a^T v) a
    - rhs of H v = rhs is within SOLVE_RESIDUAL_RTOL (1 + max(|H| |v| +
    |rhs|)), |H| = diag(d) + |a| |a|^T: the scale of what rounding leaves
    in it, which grows with v as H nears singularity (the ridge at x -> -inf)
    without the solve going wrong."""
    residual = d * v + v.dot(a)[..., None] * a - rhs
    if float(abs(residual).max()) <= SOLVE_RESIDUAL_RTOL:  # within tolerance whatever the scale
        return
    worst = abs(residual).max(axis=-1)
    v_abs, a_abs = abs(v), abs(a)
    scale = 1.0 + (d * v_abs + v_abs.dot(a_abs)[..., None] * a_abs + abs(rhs)).max(axis=-1)
    bad = ~np.isfinite(worst) | (worst > SOLVE_RESIDUAL_RTOL * scale)
    if bad.any():
        raise FactorizationFailure(
            f"linear-system residual {float(np.asarray(worst)[bad].max()):.3e} "
            f"exceeds {SOLVE_RESIDUAL_RTOL:.1e}*(1+|H||v|+|grad_y f|)"
        )


def hypergradient(round_fns: RoundFunctions, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Single-round inexact hypergradient grad_x f - jac_xy_g v at (x, y),
    with v from one sm_solve against grad_y f on the round's hess_yy_parts
    (a, d), checked by _check_residual.

    A stacked round (from Stream.stacked_round) takes x (n, d1) and y
    (n, d2) and returns the (n, d1) hypergradients of its rows, each
    checked on its own: its hess_yy_parts gives the (d2,) a its rows share
    and one (n, d2) diagonal, so one sm_solve call covers every row."""
    gy = np.asarray(round_fns.grad_y_f(x, y), dtype=float)
    a, d = round_fns.hess_yy_parts(x, y)
    v = sm_solve(a, d, gy)
    _check_residual(a, d, v, gy)
    return np.asarray(round_fns.grad_x_f(x, y), dtype=float) - round_fns.jac_xy_g_dot(x, y, v)


@dataclass(frozen=True)
class WeightWindow:
    """Averaging window: size w, weights u (u_0 = 1, decreasing, positive),
    normalizer W = sum(u)."""

    w: int
    u: np.ndarray
    W: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if self.w < 1 or u.shape != (self.w,):
            raise ValueError("weights must be a length-w vector with w >= 1")
        if u[0] != 1.0:
            raise ValueError("u_0 must equal 1")
        if np.any(u <= 0) or np.any(np.diff(u) > 0):
            raise ValueError("weights must be positive and non-increasing")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "W", float(u.sum()))


def make_weights(kind: str, w: int, gamma: Optional[float] = None) -> WeightWindow:
    """Build a WeightWindow.

    kind "uniform": u_i = 1, W = w. kind "exponential": u_i = gamma^i with
    gamma in (0, 1), W = (1 - gamma^w)/(1 - gamma).
    """
    if w < 1:
        raise ValueError("window size w must be >= 1")
    if kind == "uniform":
        return WeightWindow(w=w, u=np.ones(w), W=float(w))
    if kind == "exponential":
        if gamma is None or not (0.0 < gamma < 1.0):
            raise ValueError("exponential weights require gamma in (0, 1)")
        u = gamma ** np.arange(w, dtype=float)
        return WeightWindow(w=w, u=u, W=float(u.sum()))
    raise ValueError(f"unknown weight kind {kind!r}")


def windowed_hypergradient(stream, t: int, window: WeightWindow,
                           x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weighted average (1/W) sum_i u_i hg_{t-i}(x, y) over rounds t, t-1,
    ..., max(1, t-w+1) of a stream (t is 1-based).

    Each term solves against its own round's curvature at the shared
    current pair (x, y). Rounds before the first contribute zero but
    their weight stays in W. A FactorizationFailure names the round whose
    term failed.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros(x.shape[0] if x.ndim else 1)
    for i in range(min(window.w, t)):
        try:
            acc = acc + window.u[i] * hypergradient(stream[t - 1 - i], x, y)
        except FactorizationFailure as exc:
            raise FactorizationFailure(str(exc), round_index=t - i) from exc
    return acc / window.W

