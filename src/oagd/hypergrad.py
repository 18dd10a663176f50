"""Inexact hypergradients and their time-averaged windowed form.

The single-round hypergradient at a pair (x, y) is

    grad_x f(x, y) + M grad_y f(x, y),    M solving  jac_xy_g + M hess_yy_g = 0,

i.e. M = -jac_xy_g(x,y) hess_yy_g(x,y)^{-1}. At y = y*(x) this equals the
exact gradient of the composed objective phi(x) = f(x, y*(x)) by the implicit
function theorem; away from y*(x) the error is bounded by M_f ||y - y*(x)||.

The windowed form averages the last w rounds' hypergradients, every term
evaluated at the same current pair and carrying its own round's curvature:

    (1/W) sum_{i=0}^{w-1} u_i * hg_{t-i}(x, y),    rounds t-i <= 0 contribute 0,

with weights 1 = u_0 >= u_1 >= ... > 0 and W = sum u_i fixed independent of t
(zero-padded rounds keep their weight in W). windowed_hypergradient computes
it term by term from any indexable stream of rounds and is the reference for
the streams' windowed_hypergrad fast paths; stream_windowed_hypergradient
takes a stream's fast path when it has one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import RoundFunctions
from .errors import FactorizationFailure

#: residual tolerance of the M solve, relative to 1 + ||jac||_max
SOLVE_RESIDUAL_RTOL = 1e-10


def cholesky_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve hess z = rhs by one Cholesky factorization of the symmetric
    positive definite hess (LAPACK potrf, then potrs; only the lower
    triangle is read). Raises FactorizationFailure when hess is not
    numerically positive definite."""
    factor, info = dpotrf(hess, lower=1, clean=0)
    if info != 0:
        raise FactorizationFailure(f"inner Hessian not positive definite: potrf info {info}")
    z, _ = dpotrs(factor, rhs, lower=1)
    return z


def solve_M(hess_yy: np.ndarray, jac_xy: np.ndarray) -> np.ndarray:
    """Solve jac_xy + M hess_yy = 0 for the (d1, d2) sensitivity matrix M.

    One Cholesky factorization of the symmetric positive definite Hessian,
    then d1 triangular solves. Raises FactorizationFailure when the Hessian
    is not numerically positive definite (a violated strong-convexity
    assumption) or the solve residual is out of tolerance.
    """
    hess_yy = np.asarray(hess_yy, dtype=float)
    jac_xy = np.atleast_2d(np.asarray(jac_xy, dtype=float))
    if hess_yy.shape[0] != hess_yy.shape[1]:
        raise FactorizationFailure(f"inner Hessian must be square, got {hess_yy.shape}")
    if jac_xy.shape[1] != hess_yy.shape[0]:
        raise FactorizationFailure(
            f"cross-Jacobian shape {jac_xy.shape} incompatible with Hessian {hess_yy.shape}"
        )
    M = -cholesky_solve(hess_yy, jac_xy.T).T

    scale = 1.0 + float(np.max(np.abs(jac_xy)))
    residual = float(np.max(np.abs(jac_xy + M @ hess_yy)))
    if not np.isfinite(residual) or residual > SOLVE_RESIDUAL_RTOL * scale:
        raise FactorizationFailure(
            f"linear-system residual {residual:.3e} exceeds {SOLVE_RESIDUAL_RTOL:.1e}*(1+||jac||)"
        )
    return M


def hypergradient(round_fns: RoundFunctions, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Single-round inexact hypergradient grad_x f + M grad_y f at (x, y)."""
    M = solve_M(round_fns.hess_yy_g(x, y), round_fns.jac_xy_g(x, y))
    gx = np.atleast_1d(np.asarray(round_fns.grad_x_f(x, y), dtype=float))
    gy = np.asarray(round_fns.grad_y_f(x, y), dtype=float)
    return gx + M @ gy


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

    Each term computes its own M from its own round's curvature at the
    shared current pair (x, y). Rounds before the first contribute zero but
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


def stream_windowed_hypergradient(stream, t: int, window: WeightWindow,
                                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The windowed hypergradient of round t (1-based) of a stream: the
    stream's own windowed_hypergrad(t, window, x, y) fast path when it has
    one, else the generic windowed_hypergradient."""
    fast = getattr(stream, "windowed_hypergrad", None)
    if fast is not None:
        return fast(t, window, x, y)
    return windowed_hypergradient(stream, t, window, x, y)
