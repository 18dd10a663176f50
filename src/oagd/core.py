"""Foundational types: decision pairs, feasible sets, problem constants,
the per-round function bundle every other module consumes, and the inner
model g(x, .) at one x that damped Newton reads.

Everything is dense float64. All types are frozen after construction and
safe to share across concurrent runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np


def _as_vector(v, name="vector"):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DecisionPair:
    """One (outer, inner) decision: x in X subset of R^d1, y in R^d2."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "y", _as_vector(self.y, "y"))
        if self.x.size < 1 or self.y.size < 1:
            raise ValueError("decision dimensions must be >= 1")

    @property
    def d1(self) -> int:
        return self.x.size

    @property
    def d2(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class FeasibleSet:
    """Outer feasible set X: unbounded, a box, or a Euclidean ball.

    ``diameter`` is the Euclidean diameter: inf when unbounded, and when
    a bounded set's diameter overflows float64.
    """

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("unbounded", "box", "ball"):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        if self.kind == "box":
            lo = _as_vector(self.lower, "lower")
            hi = _as_vector(self.upper, "upper")
            if lo.shape != hi.shape:
                raise ValueError("box bounds must share a shape")
            if not (lo <= hi).all():  # nan fails too
                raise ValueError("box requires lower <= upper elementwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        elif self.kind == "ball":
            c = _as_vector(self.center, "center")
            if not np.isfinite(c).all():
                raise ValueError("ball requires a finite center")
            if self.radius is None or not 0 < self.radius < math.inf:
                raise ValueError("ball requires a positive finite radius")
            object.__setattr__(self, "center", c)
            object.__setattr__(self, "radius", float(self.radius))

    @staticmethod
    def unbounded() -> "FeasibleSet":
        return FeasibleSet(kind="unbounded")

    @staticmethod
    def box(lower, upper) -> "FeasibleSet":
        return FeasibleSet(kind="box", lower=lower, upper=upper)

    @staticmethod
    def ball(center, radius: float) -> "FeasibleSet":
        return FeasibleSet(kind="ball", center=center, radius=radius)

    @staticmethod
    def symmetric_box(half_width: float, dim: int) -> "FeasibleSet":
        h = float(half_width)
        return FeasibleSet.box(-h * np.ones(dim), h * np.ones(dim))

    @property
    def diameter(self) -> float:
        if self.kind == "box":
            with np.errstate(over="ignore"):
                return float(np.linalg.norm(self.upper - self.lower))
        if self.kind == "ball":
            return 2.0 * self.radius
        return math.inf

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))
        if self.kind == "ball":
            return bool(np.linalg.norm(x - self.center) <= self.radius + atol)
        return True


def project(fset: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto the feasible set.

    Total for the supported kinds: clamp for boxes, radial scaling for
    balls, identity when unbounded or already feasible. A (T, d1) x is a
    batch of points, projected row by row.
    """
    x = np.asarray(x, dtype=float)
    if fset.kind == "box":
        # the method reaches np.clip's ufunc without its dispatch layer
        return x.clip(fset.lower, fset.upper)
    if fset.kind == "ball":
        delta = x - fset.center
        if x.ndim == 2:
            norm = np.linalg.norm(delta, axis=1, keepdims=True)
            outside = norm > fset.radius
            scale = np.divide(fset.radius, norm, out=np.ones_like(norm), where=outside)
            return np.where(outside, fset.center + delta * scale, x)
        norm = float(np.linalg.norm(delta))
        if norm <= fset.radius:
            return x.copy()
        return fset.center + delta * (fset.radius / norm)
    return x.copy()


@dataclass(frozen=True)
class ProblemConstants:
    """Declared smoothness/convexity constants of a problem family.

    ell_f0, ell_f1: Lipschitz constants of f_t and grad f_t.
    ell_g1, ell_g2: Lipschitz constants of grad g_t and hess g_t.
    mu_g: inner strong convexity (> 0); mu_f: optional outer strong convexity.

    Constants are declared per problem, never estimated online; the schedule
    formulas consume them as ground truth.
    """

    ell_f0: float
    ell_f1: float
    ell_g1: float
    ell_g2: float
    mu_g: float
    mu_f: Optional[float] = None

    def __post_init__(self):
        for name in ("ell_f0", "ell_f1", "ell_g1", "ell_g2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not self.mu_g > 0:
            raise ValueError("mu_g must be positive")
        if self.mu_g > self.ell_g1:
            raise ValueError("mu_g <= ell_g1 required (condition number >= 1)")
        if self.mu_f is not None:
            if not self.mu_f > 0:
                raise ValueError("mu_f must be positive when given")
            if self.mu_f > self.ell_f1:
                raise ValueError("mu_f <= ell_f1 required")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the declared ones.

    kappa_g: inner condition number; L_y: Lipschitz constant of the inner
    solution map; M_f: hypergradient error constant; L_f: smoothness of the
    composed outer objective.
    """

    kappa_g: float
    L_y: float
    M_f: float
    L_f: float


def derive_constants(c: ProblemConstants) -> DerivedConstants:
    """Closed-form derived constants.

    kappa_g = ell_g1/mu_g,  L_y = ell_g1/mu_g,
    M_f = ell_f1 + ell_g1*ell_f1/mu_g + (ell_f0/mu_g)*(ell_g2 + ell_g1*ell_g2/mu_g),
    L_f = ell_f1 + ell_g1*(ell_f1 + M_f)/mu_g + (ell_f0/mu_g)*(ell_g2 + ell_g1*ell_g2/mu_g).
    """
    kappa_g = c.ell_g1 / c.mu_g
    L_y = c.ell_g1 / c.mu_g
    tail = (c.ell_f0 / c.mu_g) * (c.ell_g2 + c.ell_g1 * c.ell_g2 / c.mu_g)
    M_f = c.ell_f1 + c.ell_g1 * c.ell_f1 / c.mu_g + tail
    L_f = c.ell_f1 + c.ell_g1 * (c.ell_f1 + M_f) / c.mu_g + tail
    return DerivedConstants(kappa_g=kappa_g, L_y=L_y, M_f=M_f, L_f=L_f)


@dataclass(frozen=True)
class RoundFunctions:
    """One round's (f_t, g_t) oracle bundle.

    All derivatives are supplied analytically by the problem family; there is
    no automatic differentiation anywhere. Shapes: x is (d1,), y is (d2,),
    jac_xy_g_dot(x, y, v) applies the (d1, d2) cross second derivatives of
    g to a (d2,) v and returns (d1,) without forming them, and
    hess_yy_parts(x, y) returns the inner Hessian, the second derivative of
    g in y, as two (d2,) vectors (a, d): it is diag(d) + a a^T, which
    hypergrad.sm_solve solves by Sherman-Morrison.

    Optional handles:
      inner_model(x): g(x, .) at one x as an InnerModel, its x-dependent
        factors computed once (inner.inner_model_at adapts other rounds).
      closed_form_y_star(x): exact inner minimizer. It also accepts a batch
        x of shape (P, d1) and returns the (P, d2) minimizers row by row, so
        a caller can solve a whole point cloud in one call.
      closed_form_x_star(): exact outer comparator (the round captures its
        feasible set at construction, hence no argument).
      closed_form_x_partial(y): exact argmin_x f(x, y) with y held fixed,
        used by the full-information baseline.

    Stacked rounds: Stream.stacked_round(T, start=0) gives one bundle for
    the rounds start + 1..T, or None. Its callables act on a leading round
    axis of n = T - start rows (x (n, d1), y (n, d2), f (n,), jac_xy_g_dot
    (n, d1) of an (n, d2) v, the closed forms (n, .)) with row
    t - start - 1 evaluated as round t; its hess_yy_parts gives the (d2,) a every row shares and an
    (n, d2) d, and its closed_form_y_star also takes a cloud x (n, P, d1),
    giving (n, P, d2). Only the quadratic stream gives one: every round has
    all three closed forms and the same a, and closed_form_x_partial does
    not read y. The measurement, full_info_run and the f_value /
    inner_residual fill of both drivers evaluate it in one call where they
    would loop over rounds (h_estimate in blocks), and loop over rounds
    where it is None.
    """

    f: Callable[[np.ndarray, np.ndarray], float]
    g: Callable[[np.ndarray, np.ndarray], float]
    grad_x_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_xy_g_dot: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    hess_yy_parts: Callable[[np.ndarray, np.ndarray], tuple]
    inner_model: Optional[Callable[[np.ndarray], "InnerModel"]] = None
    closed_form_y_star: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed_form_x_star: Optional[Callable[[], np.ndarray]] = None
    closed_form_x_partial: Optional[Callable[[np.ndarray], np.ndarray]] = None


class InnerModel(NamedTuple):
    """g(x, .) at one fixed x: value_grad(z) -> (g as a float, grad_y g),
    and solve(z, rhs) -> H(z)^{-1} rhs with H(z) the inner Hessian at z.
    solve may reuse value_grad's work on the same z."""

    value_grad: Callable[[np.ndarray], tuple]
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray]

