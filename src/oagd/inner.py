"""The follower's update: K steps of gradient descent on g_t(x, .) warm
started from the previous inner decision, plus the schedule rules that pick
beta and K_t per regime.

With beta = 2/(ell_g1 + mu_g) the iterates contract toward y*(x) at rate
(1 - 1/(kappa_g + 1)) per step, so K = ceil((kappa_g + 1) log(1/rho^2) / 2)
drives the warm-start error below rho ||y_init - y*||. All logarithms in the
K formulas are natural logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DerivedConstants, FeasibleSet, RoundFunctions, project
from .errors import FactorizationFailure, NonFiniteIterate, OracleDiverged
from .hypergrad import cholesky_solve

#: default cap on per-round inner iteration counts; hitting it is recorded
#: as an off-schedule warning rather than silently looping for hours.
DEFAULT_K_MAX = 10_000


def inner_gd(
    round_fns: RoundFunctions,
    x: np.ndarray,
    y_init: np.ndarray,
    beta: float,
    K: int,
) -> np.ndarray:
    """Exactly K gradient steps z <- z - beta * grad_y g(x, z), x fixed.

    Deterministic; never reads f. Raises NonFiniteIterate when the result
    is not finite (mis-specified problem or step size). One check after the
    K steps suffices: an inf or nan entry stays non-finite under the update.
    This is the generic follower and the reference for streams' fused
    inner_steps.
    """
    _check_step(beta, K)
    z = np.asarray(y_init, dtype=float).copy()
    for _ in range(K):
        z -= beta * np.asarray(round_fns.grad_y_g(x, z), dtype=float)
    return _require_finite(z)


def stream_inner_gd(stream, t: int, x: np.ndarray, y: np.ndarray,
                    beta: float, K: int) -> np.ndarray:
    """The follower's K steps on round t (1-based) of a stream: the
    stream's own fused inner_steps(t, x, y, beta, K) when it has one, else
    inner_gd on stream[t - 1]. Same checks and errors as inner_gd."""
    fused = getattr(stream, "inner_steps", None)
    if fused is None:
        return inner_gd(stream[t - 1], x, y, beta, K)
    _check_step(beta, K)
    return _require_finite(fused(t, x, y, beta, K))


def _check_step(beta: float, K: int):
    if K < 1:
        raise ValueError("K must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")


def _require_finite(z: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(z)):
        raise NonFiniteIterate("inner iterate became non-finite")
    return z


#: Newton iterations allowed per oracle solve; damped Newton converges
#: quadratically near y* on a strongly convex g with a Lipschitz Hessian.
NEWTON_MAX_ITERS = 100


def newton_to_tolerance(
    round_fns: RoundFunctions,
    x: np.ndarray,
    y_init: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Damped Newton on g(x, .) until ||grad_y g|| <= tol (oracle use, not
    part of the online algorithm).

    Each iteration takes d = -hess_yy_g^{-1} grad_y g from one Cholesky
    factorization and halves a unit step s until the Armijo condition
    g(z + s d) <= g(z) + 1e-4 s grad^T d holds; once that required decrease
    is below float64 resolution of g, strict descent of the gradient norm
    is accepted instead. Raises OracleDiverged, carrying the last residual,
    on a Hessian that is not positive definite, on step collapse, or after
    NEWTON_MAX_ITERS iterations.
    """
    z = np.asarray(y_init, dtype=float).copy()
    val = float(round_fns.g(x, z))
    grad = np.asarray(round_fns.grad_y_g(x, z), dtype=float)
    res = float(np.linalg.norm(grad))
    for _ in range(NEWTON_MAX_ITERS):
        if res <= tol:
            return z
        try:
            d = -cholesky_solve(np.asarray(round_fns.hess_yy_g(x, z), dtype=float), grad)
        except FactorizationFailure as exc:
            raise OracleDiverged(f"inner oracle at residual {res:.3e}: {exc}", residual=res) from exc
        step, unit_drop = 1.0, -1e-4 * float(grad @ d)
        while True:
            cand = z + step * d
            cval = float(round_fns.g(x, cand))
            cgrad = np.asarray(round_fns.grad_y_g(x, cand), dtype=float)
            cres = float(np.linalg.norm(cgrad))
            required = step * unit_drop
            if required > 1e-15 * (1.0 + abs(val)):
                if math.isfinite(cval) and cval <= val - required:
                    break
            elif cres < res:  # endgame: the decrease is below float64 resolution of g
                break
            step *= 0.5
            if step < 1e-18:
                raise OracleDiverged(
                    f"inner oracle step collapsed below 1e-18 at residual {res:.3e}",
                    residual=res,
                )
        z, val, grad, res = cand, cval, cgrad, cres
    raise OracleDiverged(
        f"inner oracle residual {res:.3e} above tol {tol:.1e} after {NEWTON_MAX_ITERS} iterations",
        residual=res,
    )


def pgd_to_stationarity(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    fset: FeasibleSet,
    x0: np.ndarray,
    tol: float,
    cap: int = 100_000,
    init_step: float = 1.0,
) -> np.ndarray:
    """Projected gradient descent with backtracking until the projected
    stationarity residual ||x - project(x - grad)|| <= tol (1 + ||x||).

    The Armijo test is the projected-step form f(x+) <= f(x) -
    (1e-4/step) ||x+ - x||^2; accepted steps let the step size grow again.
    Once the required decrease falls below float64 resolution of the value,
    acceptance switches to strict descent of the stationarity residual with
    the step frozen, as in newton_to_tolerance. Raises OracleDiverged on
    cap hit or step collapse.
    """

    def residual_at(z: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(z - project(fset, z - g)))

    x = np.asarray(x0, dtype=float).copy()
    x = project(fset, x)
    fx = float(value_fn(x))
    step = float(init_step)
    grad = np.asarray(grad_fn(x), dtype=float)
    res = residual_at(x, grad)
    for _ in range(cap):
        if res <= tol * (1.0 + float(np.linalg.norm(x))):
            return x
        cand = project(fset, x - step * grad)
        move = float(np.sum((cand - x) ** 2))
        required = 1e-4 / step * move
        if required > 1e-15 * (1.0 + abs(fx)):
            fc = float(value_fn(cand))
            if math.isfinite(fc) and fc <= fx - required:
                x, fx = cand, fc
                grad = np.asarray(grad_fn(x), dtype=float)
                res = residual_at(x, grad)
                step = min(step * 2.0, 1e6)
                continue
        else:
            cgrad = np.asarray(grad_fn(cand), dtype=float)
            cres = residual_at(cand, cgrad)
            if math.isfinite(cres) and cres < res:
                x, grad, res = cand, cgrad, cres
                fx = float(value_fn(x))
                continue
        step *= 0.5
        if step < 1e-18:
            raise OracleDiverged(
                f"projected gradient stalled with residual {res:.3e} above tol {tol:.1e}",
                residual=res,
            )
    raise OracleDiverged(
        f"projected gradient residual still above tol {tol:.1e} after {cap} iterations",
        residual=res,
    )


@dataclass(frozen=True)
class InnerSchedule:
    """Inner step size beta and the rule K_t for per-round iteration counts.

    kind is one of fixed / strongly_convex / strongly_convex_static /
    convex_log_t / nonconvex / custom. The theorem-derived constructors set
    beta = 2/(ell_g1 + mu_g); overriding beta is allowed but off-schedule.
    """

    beta: float
    kind: str
    K: Optional[int] = None
    c: Optional[float] = None
    W: Optional[float] = None
    alpha: Optional[float] = None
    fn: Optional[Callable[[int], int]] = None
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kind not in (
            "fixed",
            "strongly_convex",
            "strongly_convex_static",
            "convex_log_t",
            "nonconvex",
            "custom",
        ):
            raise ValueError(f"unknown inner schedule kind {self.kind!r}")
        if self.kind == "fixed" and (self.K is None or self.K < 1):
            raise ValueError("fixed schedule needs K >= 1")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom schedule needs a callable")
        if self.c is not None and self.c <= 0:
            raise ValueError("c must be positive")

    @staticmethod
    def theorem_beta(ell_g1: float, mu_g: float) -> float:
        return 2.0 / (ell_g1 + mu_g)

    @staticmethod
    def fixed(beta: float, K: int, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        return InnerSchedule(beta=beta, kind="fixed", K=K, k_max=k_max)

    @staticmethod
    def strongly_convex(beta: float, c: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        """Constant K for the strongly convex dynamic regime (parameter c
        matches the outer step alpha = 4c/mu_f)."""
        return InnerSchedule(beta=beta, kind="strongly_convex", c=c, k_max=k_max)

    @staticmethod
    def strongly_convex_static(beta: float, mu_f: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        """Constant K for the strongly convex static regime; the formula's
        log argument 72 L_y^2 M_f^2 / mu_f + mu_f / 2 is implemented verbatim."""
        return InnerSchedule(beta=beta, kind="strongly_convex_static", c=mu_f, k_max=k_max)

    @staticmethod
    def convex_log_t(beta: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        return InnerSchedule(beta=beta, kind="convex_log_t", k_max=k_max)

    @staticmethod
    def nonconvex(beta: float, alpha: float, W: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        return InnerSchedule(beta=beta, kind="nonconvex", alpha=alpha, W=W, k_max=k_max)

    @staticmethod
    def custom(beta: float, fn: Callable[[int], int], k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        return InnerSchedule(beta=beta, kind="custom", fn=fn, k_max=k_max)


def k_for_round(schedule: InnerSchedule, constants: Optional[DerivedConstants],
                t: int) -> tuple[int, bool]:
    """Iteration count K_t for round t under the schedule rule.

    Returns (K_t, capped): capped is True when the formula exceeded k_max and
    was clamped (off-schedule, recorded by the driver as a warning).
    Every rule yields K_t >= 1. constants may be None for the fixed and
    custom rules, which never read it.
    """
    if t < 1:
        raise ValueError("round index must be >= 1")
    kappa = constants.kappa_g if constants is not None else None
    if schedule.kind == "fixed":
        k = schedule.K
    elif schedule.kind == "strongly_convex":
        arg = 12.0 * constants.M_f**2 * (1.0 + 1.0 / schedule.c) + 2.0
        k = math.ceil(0.5 * (kappa + 1.0) * math.log(arg))
    elif schedule.kind == "strongly_convex_static":
        mu_f = schedule.c
        arg = 72.0 * constants.L_y**2 * constants.M_f**2 / mu_f + mu_f / 2.0
        k = math.ceil(0.5 * (kappa + 1.0) * math.log(arg))
    elif schedule.kind == "convex_log_t":
        k = math.ceil(0.5 * (kappa + 1.0) * math.log(4.0 * t * t))
    elif schedule.kind == "nonconvex":
        c = 3.0 * (1.0 + constants.L_y**2 * constants.M_f**2 * schedule.alpha**2)
        k = math.ceil(0.5 * (kappa + 1.0) * math.log(max(6.0 * c, schedule.W)))
    elif schedule.kind == "custom":
        k = int(schedule.fn(t))
    else:  # pragma: no cover - guarded in __post_init__
        raise ValueError(schedule.kind)
    k = max(int(k), 1)
    if k > schedule.k_max:
        return schedule.k_max, True
    return k, False
