"""The follower's update: K steps of gradient descent on g_t(x, .) warm
started from the previous inner decision, plus InnerSchedule, which pairs
beta with one rule for K_t per regime.

With beta = 2/(ell_g1 + mu_g) the iterates contract toward y*(x) at rate
(1 - 1/(kappa_g + 1)) per step, so K = ceil((kappa_g + 1) log(1/rho^2) / 2)
drives the warm-start error below rho ||y_init - y*||. All logarithms in the
K formulas are natural logs.

The measurement's to-tolerance oracles live here too: damped Newton for
y*(x), which reads g(x, .) only through an InnerModel (its value_grad and
its solve with the inner Hessian), and projected gradient descent for x*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DerivedConstants, FeasibleSet, InnerModel, RoundFunctions, project
from .errors import FactorizationFailure, NonFiniteIterate, OracleDiverged

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
    Stream.inner_steps runs it on a stream's round, and the streams' fused
    overrides reproduce its iterates bit for bit.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    z = np.asarray(y_init, dtype=float).copy()
    for _ in range(K):
        z -= beta * np.asarray(round_fns.grad_y_g(x, z), dtype=float)
    if not np.isfinite(z).all():
        raise NonFiniteIterate("inner iterate became non-finite")
    return z


#: Newton iterations allowed per oracle solve; damped Newton converges
#: quadratically near y* on a strongly convex g with a Lipschitz Hessian.
NEWTON_MAX_ITERS = 100

#: iterations allowed per projected-gradient solve (pgd_to_stationarity)
PGD_MAX_ITERS = 100_000


def _resolvable(decrease: float, value: float) -> bool:
    """Whether an Armijo decrease required of value is above its float64
    resolution, taken as 1e-15 |value| (relative, so an objective of size
    1e-6 still gets Armijo steps). The floor on |value| keeps the threshold
    positive at value = 0, where the endgame would otherwise be unreachable."""
    return decrease > 1e-15 * max(abs(value), 1e-300)


def newton_to_tolerance(model: InnerModel, y_init: np.ndarray, tol: float) -> np.ndarray:
    """Damped Newton on g(x, .) until ||grad_y g|| <= tol (oracle use, not
    part of the online algorithm).

    It reads g(x, .) only through its inner model at one x (a round's
    inner_model(x)). Each iteration takes d = -model.solve(z, grad_y g)
    and halves a unit step s until the Armijo condition
    g(z + s d) <= g(z) + 1e-4 s grad^T d holds; once that required decrease
    is below float64 resolution of g, strict descent of the gradient norm
    is accepted instead. Raises OracleDiverged, carrying the last residual,
    on a Hessian that is not positive definite, on step collapse, or after
    NEWTON_MAX_ITERS iterations.
    """
    z = np.asarray(y_init, dtype=float).copy()
    val, grad = model.value_grad(z)
    res = math.sqrt(grad.dot(grad))  # np.linalg.norm's bits, without its dispatch
    for _ in range(NEWTON_MAX_ITERS):
        if res <= tol:
            return z
        try:
            d = -model.solve(z, grad)
        except FactorizationFailure as exc:
            raise OracleDiverged(f"inner oracle at residual {res:.3e}: {exc}", residual=res) from exc
        step, unit_drop = 1.0, -1e-4 * float(grad.dot(d))
        while True:
            cand = z + step * d
            cval, cgrad = model.value_grad(cand)
            cres = math.sqrt(cgrad.dot(cgrad))
            required = step * unit_drop
            if _resolvable(required, val):
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
) -> np.ndarray:
    """Projected gradient descent with backtracking until the projected
    stationarity residual ||x - project(x - grad)|| <= tol (1 + ||x||).

    The Armijo test is the projected-step form f(x+) <= f(x) -
    (1e-4/step) ||x+ - x||^2; accepted steps let the step size grow again.
    Once the required decrease falls below float64 resolution of the value,
    acceptance switches to strict descent of the stationarity residual with
    the step frozen, as in newton_to_tolerance. The step starts at 1.
    Raises OracleDiverged on step collapse or after PGD_MAX_ITERS
    iterations.
    """

    def residual_at(z: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(z - project(fset, z - g)))

    x = np.asarray(x0, dtype=float).copy()
    x = project(fset, x)
    fx = float(value_fn(x))
    step = 1.0
    grad = np.asarray(grad_fn(x), dtype=float)
    res = residual_at(x, grad)
    for _ in range(PGD_MAX_ITERS):
        if res <= tol * (1.0 + float(np.linalg.norm(x))):
            return x
        cand = project(fset, x - step * grad)
        move = float(np.sum((cand - x) ** 2))
        required = 1e-4 / step * move
        if _resolvable(required, fx):
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
        f"projected gradient residual still above tol {tol:.1e} after {PGD_MAX_ITERS} iterations",
        residual=res,
    )


@dataclass(frozen=True)
class InnerSchedule:
    """Inner step size beta and the rule K_t for per-round iteration counts.

    rule(constants, t) gives round t's raw count, which
    driver.evaluate_schedules floors at 1 and caps at k_max, naming the
    round when the rule fails; kind names the rule in meta.txt. beta must
    be positive and finite. The factories check their parameters and fix
    the rule once: fixed and custom never read constants; the
    theorem-derived rules (strongly_convex, strongly_convex_static,
    convex_log_t, nonconvex) need DerivedConstants.
    theorem_beta gives their beta = 2/(ell_g1 + mu_g); overriding beta is
    allowed but off-schedule.
    """

    beta: float
    kind: str
    rule: Callable[[Optional[DerivedConstants], int], int]
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")

    @staticmethod
    def theorem_beta(ell_g1: float, mu_g: float) -> float:
        return 2.0 / (ell_g1 + mu_g)

    @staticmethod
    def fixed(beta: float, K: int, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        if K < 1:
            raise ValueError("fixed schedule needs K >= 1")
        return InnerSchedule(beta, "fixed", lambda constants, t: K, k_max)

    @staticmethod
    def strongly_convex(beta: float, c: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        """Constant K for the strongly convex dynamic regime (parameter c
        matches the outer step alpha = 4c/mu_f)."""
        if c <= 0:
            raise ValueError("c must be positive")
        return _contraction_schedule(
            beta, "strongly_convex", lambda d, t: 12.0 * d.M_f**2 * (1.0 + 1.0 / c) + 2.0, k_max)

    @staticmethod
    def strongly_convex_static(beta: float, mu_f: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        """Constant K for the strongly convex static regime; the formula's
        log argument 72 L_y^2 M_f^2 / mu_f + mu_f / 2 is implemented verbatim."""
        if mu_f <= 0:
            raise ValueError("mu_f must be positive")
        return _contraction_schedule(
            beta, "strongly_convex_static",
            lambda d, t: 72.0 * d.L_y**2 * d.M_f**2 / mu_f + mu_f / 2.0, k_max)

    @staticmethod
    def convex_log_t(beta: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        return _contraction_schedule(beta, "convex_log_t", lambda d, t: 4.0 * t * t, k_max)

    @staticmethod
    def nonconvex(beta: float, alpha: float, W: float, k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        def log_arg(d: DerivedConstants, t: int) -> float:
            c = 3.0 * (1.0 + d.L_y**2 * d.M_f**2 * alpha**2)
            return max(6.0 * c, W)

        return _contraction_schedule(beta, "nonconvex", log_arg, k_max)

    @staticmethod
    def custom(beta: float, fn: Callable[[int], int], k_max: int = DEFAULT_K_MAX) -> "InnerSchedule":
        if not callable(fn):
            raise ValueError("custom schedule needs a callable")
        return InnerSchedule(beta, "custom", lambda constants, t: fn(t), k_max)


def _contraction_schedule(beta: float, kind: str,
                          log_arg: Callable[[DerivedConstants, int], float],
                          k_max: int) -> InnerSchedule:
    """A theorem-derived schedule: K_t = ceil((kappa_g + 1) log(arg) / 2)
    with arg = log_arg(constants, t), enough contracting steps to shrink the
    warm-start error by sqrt(arg). Its rule raises ValueError without
    constants."""

    def rule(constants: Optional[DerivedConstants], t: int) -> int:
        if constants is None:
            raise ValueError("needs derived constants")
        return math.ceil(0.5 * (constants.kappa_g + 1.0) * math.log(log_arg(constants, t)))

    return InnerSchedule(beta, kind, rule, k_max)
