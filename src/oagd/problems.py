"""Concrete problem families.

Three families, all exposing analytic derivatives through RoundFunctions:

* the scalar quadratic family
      f(x, y) = 1/2 (x + 2 a1)^2 + 1/2 (y - a2)^2 + a3
      g(x, y) = 1/2 y^2 - (x - a2) y + a4
  with closed forms y*(x) = x - a2 and x* = clip(a2 - a1 onto X);

* online hyperparameter ridge regression, where round t binds a training
  sample (a_t, b_t) for the inner loss and a validation sample for the
  outer loss:
      g(x, y) = 1/2 (a^T y - b)^2 + y^T C(x) y,   C(x) = diag(exp(x_i))
      f(x, y) = 1/2 (a_val^T y - b_val)^2
  (a scalar x broadcasts across the diagonal when d1 = 1);

* the smoothed elastic net, which splits x into a smoothing block (first d2
  coordinates) and a ridge block (scalar or d2) and adds
  sum_i exp(x_i) (y_i^2 + mu^2)^(1/2) to g.

Every round states its inner Hessian as diag(d) + a a^T (hess_yy_parts):
a = 0 and d = 1 for the quadratic, the training row a and the penalty's
diagonal for the regression families. Each round states g's value once, in
its inner model, which solves with that Hessian by Sherman-Morrison. Only
the fit on a whole training split (HOStream.full_batch_model) has a dense
Hessian, A^T A / n + diag(d).

The regression families state their penalty once, as a RidgePenalty or an
ElasticNetPenalty at x (HOStream.penalty(x)): its root, value, grad,
hess_diag, hess_diag_inv and jac_dot pieces, and steps(), the follower's K
steps in place in Python floats. The rounds, their inner models, the
full-batch fit, inner_steps and windowed_hypergrad all read it.

Every stream is a Stream: a sequence of RoundFunctions (stream[i] builds
round i anew on every call) plus the methods the online loop and the
measurement call on it. Stream's own methods are the per-round reference
paths; the quadratic and regression streams override them where they have
a faster form:

* inner_steps(t, x, y, beta, K), the follower's K steps of round t, runs
  in Python floats on both families and gives inner.inner_gd's iterates
  bit for bit. The regression streams build the penalty once per round
  with numpy, and its steps() updates a float64 buffer in place, keeping
  only the dot a^T z in BLAS: numpy's ddot is a fused multiply-add chain,
  which Python 3.11 floats (no math.fma) cannot reproduce, while every
  other operation of a step is one correctly rounded IEEE operation on one
  coordinate. That costs O(d2) interpreted operations per step, so the
  Python steps beat a numpy step only up to d2 of about 17 (ridge) or 25
  (elastic net); see HOStream.inner_steps. Every shipped problem has
  d2 <= 8.
* windowed_hypergrad(t, window, x, y) is an O(w d2) reduction on both
  families, equal to the generic averaging loop up to summation order. The
  regression streams hold newest-first copies of their window tables,
  which it slices, and the window kernel's workspace, which it overwrites:
  one stream must not serve concurrent runs.
* stacked_round(T, start), stacked_windowed_hypergrad and
  closed_form_static_comparator are the quadratic stream's alone, so the
  measurement evaluates it over many rounds at once and measures the
  regression streams round by round. quadratic_round keeps its scalar
  arithmetic as the per-round reference whose bits every stacked row
  carries: numpy's scalar float64 ** 2 (C pow) differs in the last bit
  from array squaring on about 0.1% of inputs, so the stacked round squares
  with np.float_power, which calls the same C pow per element.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import FeasibleSet, InnerModel, ProblemConstants, RoundFunctions, project
from .errors import DimensionMismatch, StreamExhausted
from .hypergrad import WeightWindow, cholesky_solve, sm_solve, windowed_hypergradient
from .inner import inner_gd
from .kernels import quad_window_reduce, sm_window_accumulate, sm_workspace


class Stream:
    """A sequence of rounds revealed one at a time, and what the online loop
    and the measurement ask of it.

    A subclass sets d1 and d2 and defines __len__ and __getitem__ (stream[i]
    is round i + 1 as RoundFunctions). The methods here are the per-round
    reference paths, and every caller calls them directly; a subclass
    overrides one where it has a faster form with the same result.
    stacked_round and closed_form_static_comparator return None here,
    which tells the measurement to work round by round.
    """

    d1: int
    d2: int

    def horizon(self, T: Optional[int] = None) -> int:
        """T, or every round when T is None. A T below 1 is a ValueError;
        one past the last round is StreamExhausted, naming the first round
        past the end."""
        if T is None:
            return len(self)
        if T < 1:
            raise ValueError(f"horizon T must be >= 1, got {T}")
        if T > len(self):
            raise StreamExhausted(len(self) + 1, available=len(self))
        return T

    def inner_steps(self, t: int, x, y, beta: float, K: int) -> np.ndarray:
        """The follower's K gradient steps on round t (1-based) from y:
        inner.inner_gd on self[t - 1]. y is not modified."""
        return inner_gd(self[t - 1], x, y, beta, K)

    def windowed_hypergrad(self, t: int, window: WeightWindow, x, y) -> np.ndarray:
        """The window-averaged hypergradient of round t (1-based) at (x, y):
        hypergrad.windowed_hypergradient on this stream."""
        return windowed_hypergradient(self, t, window, x, y)

    def stacked_windowed_hypergrad(self, window: WeightWindow, x, y) -> np.ndarray:
        """windowed_hypergrad of rounds 1..T, row t - 1 at (x[t - 1],
        y[t - 1]) of x (T, d1) and y (T, d2): here one call per row."""
        return np.array([self.windowed_hypergrad(t, window, x[t - 1], y[t - 1])
                         for t in range(1, x.shape[0] + 1)])

    def stacked_round(self, T: int, start: int = 0) -> Optional[RoundFunctions]:
        """Rounds start + 1..T as one RoundFunctions over a leading round
        axis (see RoundFunctions), or None: measure round by round."""
        return None

    def closed_form_static_comparator(self) -> Optional[np.ndarray]:
        """argmin_x of the rounds' summed composed objectives in closed form,
        or None: solve for it numerically."""
        return None


QUADRATIC_CONSTANTS = ProblemConstants(
    ell_f0=5.0, ell_f1=1.0, ell_g1=1.0, ell_g2=0.0, mu_g=1.0, mu_f=1.0
)

# the quadratic family's inner Hessian [[1]] as hess_yy_parts, a = 0 and
# d = 1, shared by every round (hence read-only views)
_QUAD_HESS_PARTS = (np.broadcast_to(0.0, (1,)), np.broadcast_to(1.0, (1,)))


def _quad_hess_yy_parts(x, y):
    return _QUAD_HESS_PARTS


def quadratic_round(
    a1: float,
    a2: float,
    a3: float = 0.0,
    a4: float = 0.0,
    fset: Optional[FeasibleSet] = None,
) -> RoundFunctions:
    """One round of the scalar quadratic family; see the module docstring."""
    a1, a2, a3, a4 = float(a1), float(a2), float(a3), float(a4)
    if fset is None:
        fset = FeasibleSet.symmetric_box(1.0, 1)

    def f(x, y):
        return 0.5 * (x[0] + 2.0 * a1) ** 2 + 0.5 * (y[0] - a2) ** 2 + a3

    def grad_y_g(x, y):
        return np.array([y[0] - x[0] + a2])

    return RoundFunctions(
        f=f,
        grad_x_f=lambda x, y: np.array([x[0] + 2.0 * a1]),
        grad_y_f=lambda x, y: np.array([y[0] - a2]),
        grad_y_g=grad_y_g,
        jac_xy_g_dot=lambda x, y, v: -v,
        hess_yy_parts=_quad_hess_yy_parts,
        inner_model=lambda x: InnerModel(
            lambda z: (float(0.5 * z[0] ** 2 - (x[0] - a2) * z[0] + a4), grad_y_g(x, z)),
            lambda z, rhs: sm_solve(*_QUAD_HESS_PARTS, rhs)),
        closed_form_y_star=lambda x: np.asarray(x, dtype=float)[..., :1] - a2,
        closed_form_x_star=lambda: project(fset, np.array([a2 - a1])),
        closed_form_x_partial=lambda y: project(fset, np.array([-2.0 * a1])),
    )


class QuadraticStream(Stream):
    """Sequence of quadratic rounds driven by coefficient tables a1..a4.

    windowed_hypergrad uses that every round's cross derivative is -1 and
    its inner Hessian 1, so each window term is (x + y) + (2 a1_s - a2_s)
    and the average reduces to one weighted sum handled by
    kernels.quad_window_reduce, over a slice of a newest-first copy of the
    shift table 2 a1 - a2.
    """

    d1 = d2 = 1

    def __init__(self, a1, a2, a3=None, a4=None, fset: Optional[FeasibleSet] = None):
        self.a1 = np.asarray(a1, dtype=float)
        self.a2 = np.asarray(a2, dtype=float)
        n = self.a1.shape[0]
        if self.a2.shape != (n,):
            raise DimensionMismatch("a1 and a2 tables must have equal length")
        self.a3 = np.zeros(n) if a3 is None else np.asarray(a3, dtype=float)
        self.a4 = np.zeros(n) if a4 is None else np.asarray(a4, dtype=float)
        if self.a3.shape != (n,) or self.a4.shape != (n,):
            raise DimensionMismatch("a3 and a4 tables must have equal length")
        self.fset = fset if fset is not None else FeasibleSet.symmetric_box(1.0, 1)
        self.constants = QUADRATIC_CONSTANTS
        with np.errstate(over="ignore", invalid="ignore"):
            self._shift = 2.0 * self.a1 - self.a2
        if not all(np.isfinite(c).all() for c in (self.a1, self.a2, self.a3, self.a4, self._shift)):
            raise ValueError("quadratic coefficients a1..a4 and the shift 2 a1 - a2 must be finite")
        # newest-first: shifts of rounds t, t-1, ..., t-m+1 are rows
        # n-t .. n-t+m-1 of the reversed copy, already contiguous
        self._shift_rev = np.ascontiguousarray(self._shift[::-1])

    def __len__(self) -> int:
        return self.a1.shape[0]

    def __getitem__(self, i: int) -> RoundFunctions:
        if not 0 <= i < len(self):
            raise IndexError(i)
        return quadratic_round(self.a1[i], self.a2[i], self.a3[i], self.a4[i], fset=self.fset)

    def stacked_round(self, T: int, start: int = 0) -> RoundFunctions:
        """Rounds start + 1..T as one RoundFunctions over a leading round
        axis of n = T - start rows: row t - start - 1 of x (n, 1) and
        y (n, 1) is evaluated with round t's coefficients. f gives (n,),
        the gradients (n, 1), jac_xy_g_dot -v, hess_yy_parts the
        shared a = 0 and an (n, 1) d = 1, both closed-form comparators
        (n, 1), and closed_form_y_star(x) (n, 1),
        or (n, P, 1) for a cloud x of shape (n, P, 1).

        Every row carries the bits of its round self[t - 1]: the squares go
        through np.float_power, which calls C pow per element as the round's
        scalar float64 ** 2 does (array squaring, x * x, differs from it in
        the last bit on about 0.1% of inputs).
        """
        n = self.horizon(T) - start
        a1, a2, a3 = (c[start:T] for c in (self.a1, self.a2, self.a3))
        a1c, a2c = a1[:, None], a2[:, None]
        fset = self.fset
        parts = (_QUAD_HESS_PARTS[0], np.broadcast_to(1.0, (n, 1)))

        def f(x, y):
            return (0.5 * np.float_power(x[:, 0] + 2.0 * a1, 2)
                    + 0.5 * np.float_power(y[:, 0] - a2, 2) + a3)

        def closed_form_y_star(x):
            x = np.asarray(x, dtype=float)
            return x[..., :1] - a2.reshape((n,) + (1,) * (x.ndim - 1))

        return RoundFunctions(
            f=f,
            grad_x_f=lambda x, y: x + 2.0 * a1c,
            grad_y_f=lambda x, y: y - a2c,
            grad_y_g=lambda x, y: y - x + a2c,
            jac_xy_g_dot=lambda x, y, v: -v,
            hess_yy_parts=lambda x, y: parts,
            closed_form_y_star=closed_form_y_star,
            closed_form_x_star=lambda: project(fset, a2c - a1c),
            closed_form_x_partial=lambda y: project(fset, -2.0 * a1c),
        )

    def inner_steps(self, t: int, x, y, beta: float, K: int) -> np.ndarray:
        """K gradient steps z <- z - beta * ((z - x) + a2_t) of round t
        (1-based) in Python floats: the update of inner.inner_gd on
        self[t - 1], bit for bit, without a numpy array per step. y is not
        modified."""
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        x0, a2, z = x.item(0), self.a2.item(t - 1), float(y.item(0))
        for _ in range(K):
            z -= beta * (z - x0 + a2)
        return np.array([z])

    def windowed_hypergrad(self, t: int, window, x, y) -> np.ndarray:
        n = len(self)
        if t > n:
            raise StreamExhausted(t, available=n)
        m = min(window.w, t)
        s = self._shift_rev[n - t:n - t + m]
        val = quad_window_reduce(s, window.u[:m], x.item(0) + y.item(0))
        return np.array([val / window.W])

    def stacked_windowed_hypergrad(self, window, x, y) -> np.ndarray:
        """windowed_hypergrad of rounds 1..T at once, row t - 1 at the pair
        (x[t - 1], y[t - 1]) of x (T, 1) and y (T, 1): the window's terms
        added one lag at a time, u_i ((x + y)_t + shift_{t-i}) into every
        row t > i. For w = 1 every row equals windowed_hypergrad's; for
        w > 1 the sums run in another order (a few ulp apart)."""
        T = self.horizon(x.shape[0])
        xpy = x + y
        u, s = window.u, self._shift[:T, None]
        acc = u[0] * (xpy + s)
        for i in range(1, min(window.w, T)):
            acc[i:] += u[i] * (xpy[i:] + s[:T - i])
        return acc / window.W

    def closed_form_static_comparator(self) -> np.ndarray:
        """argmin_x sum_t f_t(x, y*_t(x)) in closed form (then projected)."""
        return project(self.fset, np.array([float(np.mean(self.a2 - self.a1))]))


def quadratic_stream(
    rule: str,
    T: int,
    a1_mode: str = "match",
    a1_const: float = 0.0,
    a2_const: float = 0.0,
    fset: Optional[FeasibleSet] = None,
    coefficients=None,
) -> QuadraticStream:
    """Coefficient schedules for the quadratic family.

    rule "alt_sqrt": a2_t = (-1)^t / sqrt(t) with a1 either equal to a2
    (a1_mode "match") or identically zero (a1_mode "zero"). rule "constant":
    a1_const / a2_const for every round. rule "custom": explicit
    coefficients (a1, a2[, a3, a4]) tables, which may be shorter than the
    horizon a caller later asks for (the driver reports that as
    StreamExhausted).
    """
    if rule == "alt_sqrt":
        t = np.arange(1, T + 1, dtype=float)
        a2 = (-1.0) ** np.arange(1, T + 1) / np.sqrt(t)
        if a1_mode == "match":
            a1 = a2.copy()
        elif a1_mode == "zero":
            a1 = np.zeros(T)
        else:
            raise ValueError(f"unknown a1_mode {a1_mode!r}")
        return QuadraticStream(a1, a2, fset=fset)
    if rule == "constant":
        return QuadraticStream(
            np.full(T, float(a1_const)), np.full(T, float(a2_const)), fset=fset
        )
    if rule == "custom":
        if coefficients is None:
            raise ValueError("custom rule needs coefficient tables")
        return QuadraticStream(*coefficients, fset=fset)
    raise ValueError(f"unknown coefficient rule {rule!r}")


class RidgePenalty:
    """The ridge's part of g(x, .) at one x: y^T diag(c) y, c = exp(x)
    broadcast to d2 entries when x (the ridge block) is scalar. exp(x) is
    taken once, here; x may carry leading axes for hess_diag, which
    closed_form_y_star reads on a cloud of x (P, d1).

    Each piece reads z and q = root(z), the factor a smoothed penalty
    computes once per z and shares between its pieces (None here).
    jac_dot(z, q, v) applies g's cross second derivatives to v: exp(x)
    scales each block's penalty term, so each block is that block's term of
    grad (a scalar ridge weight's block is one row).
    """

    def __init__(self, x, d2: int):
        x = np.asarray(x, dtype=float)
        self.scalar = x.shape[-1] == 1
        self.c = np.exp(x).repeat(d2, axis=-1) if self.scalar else np.exp(x)
        self.c2 = 2.0 * self.c

    def root(self, z):
        return None

    def value(self, z, q) -> float:
        return float(self.c.dot(z * z))

    def grad(self, z, q) -> np.ndarray:
        return self.c2 * z

    def hess_diag(self, z, q) -> np.ndarray:
        return self.c2

    def jac_dot(self, z, q, v) -> np.ndarray:
        ridge = self.c2 * z
        return np.array([float(ridge @ v)]) if self.scalar else ridge * v

    def hess_diag_inv(self, z, q) -> np.ndarray:
        """1 / hess_diag for the window kernel: one entry when the ridge
        weight is scalar (the diagonal is c2_0 I), which the kernel broadcasts
        over every entry as it does a (d2,) vector."""
        return 1.0 / (self.c2[:1] if self.scalar else self.c2)

    def steps(self, z: array, a: np.ndarray, b: float, beta: float, K: int) -> None:
        """The follower's K steps z_j <- z_j - beta * (a_j r + c2_j z_j),
        r = a^T z - b, run in place on the float64 buffer z. r is a's BLAS
        ddot over a numpy view of z, as in the round's grad_y_g; the rest is
        Python floats in grad_y_g's operation order (IEEE +, -, *, / and sqrt
        give the same bits in numpy and Python floats). Each coordinate's
        update reads only its own z_j and the step's r, so writing z_j in
        place gives the iterates of a step that builds a new z."""
        view, dot = np.frombuffer(z), a.dot
        coords = list(zip(range(len(z)), a.tolist(), self.c2.tolist()))
        for _ in range(K):
            r = float(dot(view)) - b
            for j, aj, cj in coords:
                zj = z[j]
                z[j] = zj - beta * (aj * r + cj * zj)


class ElasticNetPenalty(RidgePenalty):
    """RidgePenalty on the ridge block x[d2:] plus the smoothing block's
    sum_i s_i sqrt(z_i^2 + mu^2), s = exp(x[:d2]); root(z) is that square
    root. The cross derivatives list the smoothing block, then the ridge
    block, in x's order."""

    def __init__(self, x, d2: int, mu: float):
        x = np.asarray(x, dtype=float)
        super().__init__(x[d2:], d2)
        self.s = np.exp(x[:d2])
        self.mu2 = mu**2
        self.s_mu2 = self.s * self.mu2

    def root(self, z):
        return np.sqrt(z * z + self.mu2)

    def value(self, z, q) -> float:
        return super().value(z, q) + float(self.s.dot(q))

    def grad(self, z, q) -> np.ndarray:
        return super().grad(z, q) + self.s * z / q

    def hess_diag(self, z, q) -> np.ndarray:
        return super().hess_diag(z, q) + self.s_mu2 / q**3

    def jac_dot(self, z, q, v) -> np.ndarray:
        return np.concatenate([self.s * z / q * v, super().jac_dot(z, q, v)])

    def hess_diag_inv(self, z, q) -> np.ndarray:
        return 1.0 / self.hess_diag(z, q)

    def steps(self, z: array, a: np.ndarray, b: float, beta: float, K: int) -> None:
        """As RidgePenalty.steps, with the smoothing term added to the ridge
        term: z_j - beta * (a_j r + (c2_j z_j + s_j z_j / sqrt(z_j^2 + mu^2)))."""
        view, dot, mu2, sqrt = np.frombuffer(z), a.dot, self.mu2, math.sqrt
        coords = list(zip(range(len(z)), a.tolist(), self.c2.tolist(), self.s.tolist()))
        for _ in range(K):
            r = float(dot(view)) - b
            for j, aj, cj, sj in coords:
                zj = z[j]
                z[j] = zj - beta * (aj * r + (cj * zj + sj * zj / sqrt(zj * zj + mu2)))


class HOStream(Stream):
    """Online hyperparameter ridge regression rounds from paired samples.

    Round t (0-based index t-1) binds training sample (A_train[i], b_train[i])
    inside g and validation sample (A_val[i], b_val[i]) inside f. d1 is 1
    (scalar ridge weight broadcast over the diagonal) or d2 (one weight per
    coordinate).
    It holds only its tables and the window workspace (so it must not serve
    concurrent runs); self[i] builds round i anew on every call.
    """

    smoothing = False

    def __init__(self, A_train, b_train, A_val, b_val, d1: int = 1,
                 fset: Optional[FeasibleSet] = None):
        self.A_train = np.asarray(A_train, dtype=float)
        self.b_train = np.asarray(b_train, dtype=float)
        self.A_val = np.asarray(A_val, dtype=float)
        self.b_val = np.asarray(b_val, dtype=float)
        if self.A_train.ndim != 2:
            raise DimensionMismatch("feature matrices must be 2-d")
        n, d2 = self.A_train.shape
        if self.A_val.shape != (n, d2) or self.b_train.shape != (n,) or self.b_val.shape != (n,):
            raise DimensionMismatch("train and validation tables must align row for row")
        self.d2 = d2
        self.d1 = int(d1)
        self._check_d1()
        self.fset = fset if fset is not None else FeasibleSet.unbounded()
        # newest-first window tables: rows t-1, t-2, ..., t-m of a table are
        # rows n-t .. n-t+m-1 of its reversed copy, already contiguous
        self._A_train_rev = np.ascontiguousarray(self.A_train[::-1])
        self._A_val_rev = np.ascontiguousarray(self.A_val[::-1])
        self._b_val_rev = np.ascontiguousarray(self.b_val[::-1])
        self._window_work = sm_workspace(n, d2)

    def _check_d1(self):
        if self.d1 not in (1, self.d2):
            raise DimensionMismatch(
                f"d1 must be 1 or d2={self.d2} for the ridge family, got {self.d1}"
            )

    def __len__(self) -> int:
        return self.A_train.shape[0]

    def penalty(self, x) -> RidgePenalty:
        """The penalty's part of g(x, .) at x; every round, the full-batch
        fit and the follower read it."""
        return RidgePenalty(x, self.d2)

    def _inner_model(self, i: int, x) -> InnerModel:
        """Round index i's g(x, .) at x as an InnerModel, which computes
        a^T z - b and root(z) once for g and grad, and solves with
        diag(D) + a a^T by sm_solve from that root (computed again only at a
        new array z)."""
        a, b = self.A_train[i], float(self.b_train[i])
        p = self.penalty(x)
        last = [None, None]

        def value_grad(z):
            r, q = float(a.dot(z)) - b, p.root(z)
            last[:] = z, q
            return 0.5 * r ** 2 + p.value(z, q), a * r + p.grad(z, q)

        def solve(z, rhs):
            return sm_solve(a, p.hess_diag(z, last[1] if last[0] is z else p.root(z)), rhs)

        return InnerModel(value_grad, solve)

    def __getitem__(self, i: int) -> RoundFunctions:
        if not 0 <= i < len(self):
            raise IndexError(i)
        av, bv = self.A_val[i], float(self.b_val[i])
        a, b = self.A_train[i], float(self.b_train[i])
        return RoundFunctions(
            f=lambda x, y: 0.5 * (av @ y - bv) ** 2,
            grad_x_f=lambda x, y: np.zeros(self.d1),
            grad_y_f=lambda x, y: av * (av @ y - bv),
            grad_y_g=lambda x, y: a * (a.dot(y) - b) + (p := self.penalty(x)).grad(y, p.root(y)),
            jac_xy_g_dot=lambda x, y, v: (p := self.penalty(x)).jac_dot(y, p.root(y), v),
            hess_yy_parts=lambda x, y: (a, (p := self.penalty(x)).hess_diag(y, p.root(y))),
            inner_model=lambda x: self._inner_model(i, x),
            # y* solves (D + a a^T) y = b a; the smoothed penalty's has no closed form
            closed_form_y_star=None if self.smoothing else (
                lambda x: sm_solve(a, self.penalty(x).hess_diag(None, None), self.b_train[i] * a)),
        )

    def full_batch_model(self, A, b, x) -> InnerModel:
        """The inner problem over a whole sample table at fixed x as an
        InnerModel: mean squared loss ||A y - b||^2 / (2 n) plus the
        per-round penalty, solved with the dense A^T A / n + diag(D) by
        Cholesky. Used to fit y on the full training split."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        n = A.shape[0]
        AtA = A.T @ A / n
        p = self.penalty(x)

        def value_grad(z):
            q, r = p.root(z), A @ z - b
            return float(0.5 * np.sum(r ** 2) / n + p.value(z, q)), A.T @ r / n + p.grad(z, q)

        return InnerModel(
            value_grad,
            lambda z, rhs: cholesky_solve(AtA + np.diag(p.hess_diag(z, p.root(z))), rhs),
        )

    def inner_steps(self, t: int, x, y, beta: float, K: int) -> np.ndarray:
        """K gradient steps z <- z - beta * grad_y g_t(x, z) from y (t is
        1-based): the update of inner.inner_gd on self[t - 1], bit for bit.
        y is not modified.

        The penalty is built once, and its steps() (RidgePenalty.steps,
        ElasticNetPenalty.steps) runs all K steps in place on a float64
        buffer, in Python floats except r = a^T z - b: a numpy view of the
        buffer hands z to the same BLAS ddot (a fused multiply-add chain) as
        the round's gradient. Per step that is one ddot call plus O(d2)
        interpreted operations, where a numpy step pays a near-constant
        ufunc overhead. Time per step against a numpy step with the penalty
        built once, z -= beta * (a (a^T z - b) + grad) (K = 30, 2-core VM,
        interleaved medians): ridge 0.46 at d2 = 5, 0.55 at 8, 0.92 at 16,
        1.65 at 32, 3.0 at 64; elastic net 0.31 at d2 = 5, 0.42 at 8, 0.68
        at 16, 1.22 at 32, 2.3 at 64. So the two cross near d2 = 17 (ridge)
        and 25 (elastic net), and every shipped problem has d2 <= 8.
        """
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        z = array("d", np.asarray(y, dtype=float).tolist())
        self.penalty(x).steps(z, self.A_train[t - 1], float(self.b_train[t - 1]), float(beta), K)
        return np.array(z)

    def windowed_hypergrad(self, t: int, window, x, y) -> np.ndarray:
        """Fast path: every window term shares D and the cross derivatives,
        so the weighted solves batch-reduce through the Sherman-Morrison
        kernel and the cross derivatives apply once, to their sum. The
        penalty's hess_diag_inv gives the kernel 1/D, one entry for a scalar
        ridge weight."""
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        y = np.asarray(y, dtype=float)
        m = min(window.w, t)
        rows = slice(len(self) - t, len(self) - t + m)
        p = self.penalty(x)
        q = p.root(y)
        d_inv = p.hess_diag_inv(y, q)
        acc = sm_window_accumulate(
            self._A_train_rev[rows],
            self._A_val_rev[rows],
            self._b_val_rev[rows],
            d_inv,
            y,
            window.u[:m],
            self._window_work,
        )
        return -p.jac_dot(y, q, acc) / window.W


class ElasticNetStream(HOStream):
    """Smoothed elastic net rounds: x = [smoothing block (d2), ridge block].

    The smoothing block weights sum_i exp(x_i) sqrt(y_i^2 + mu^2), a twice
    differentiable stand-in for the l1 penalty; mu_smooth must be positive,
    and so must its square in float64 (the follower divides by
    sqrt(y_i^2 + mu^2)).
    """

    smoothing = True

    def __init__(self, A_train, b_train, A_val, b_val, mu_smooth: float,
                 d1: Optional[int] = None, fset: Optional[FeasibleSet] = None):
        self.mu = float(mu_smooth)
        if not (self.mu > 0 and self.mu**2 > 0):
            raise ValueError(f"mu_smooth must be positive with a nonzero square, got {self.mu:g}")
        d2 = np.asarray(A_train, dtype=float).shape[1]
        if d1 is None:
            d1 = d2 + 1
        super().__init__(A_train, b_train, A_val, b_val, d1=d1, fset=fset)

    def _check_d1(self):
        if self.d1 not in (self.d2 + 1, 2 * self.d2):
            raise DimensionMismatch(
                f"d1 must be d2+1={self.d2 + 1} or 2*d2={2 * self.d2} "
                f"for the elastic net, got {self.d1}"
            )

    def penalty(self, x) -> ElasticNetPenalty:
        return ElasticNetPenalty(x, self.d2, self.mu)


def _round_tables(dataset, T: int):
    """The first T rows of a sample table's train split (inner loss) and
    validation split (outer loss): one row of each per round."""
    A_in, b_in = dataset.split("train")
    A_out, b_out = dataset.split("val")
    n = min(A_in.shape[0], A_out.shape[0])
    if T > n:
        raise StreamExhausted(n + 1, available=n)
    return A_in[:T], b_in[:T], A_out[:T], b_out[:T]


def ho_stream(dataset, T: int, d1: int = 1,
              fset: Optional[FeasibleSet] = None) -> HOStream:
    """Build an HOStream from a loaded sample table: the train split feeds
    the inner loss and the validation split the outer loss, both consumed
    in row order, one row per round."""
    return HOStream(*_round_tables(dataset, T), d1=d1, fset=fset)


def elastic_net_stream(dataset, mu_smooth: float, T: int, d1: Optional[int] = None,
                       fset: Optional[FeasibleSet] = None) -> ElasticNetStream:
    """Build an ElasticNetStream from a loaded sample table, split into
    rounds as in ho_stream."""
    return ElasticNetStream(*_round_tables(dataset, T), mu_smooth, d1=d1, fset=fset)


def estimate_constants(stream: HOStream, x_low: float, x_high: float,
                       y_bound: float) -> ProblemConstants:
    """Conservative smoothness constants for a regression stream, assuming
    hyperparameters stay in [x_low, x_high] and |y_i| <= y_bound.

    These are data-driven upper bounds (not tight): feature norms bound the
    rank-one part and exp(x_high) bounds every diagonal term. mu_f is left
    unset because f does not depend on x directly.
    """
    an = float(np.max(np.sum(stream.A_train**2, axis=1)))
    avn = float(np.max(np.sum(stream.A_val**2, axis=1)))
    bvn = float(np.max(np.abs(stream.b_val)))
    hi = float(np.exp(x_high))
    ell_f1 = avn
    ell_f0 = math.sqrt(avn) * (math.sqrt(avn) * y_bound + bvn)
    ell_g1 = an + 2.0 * hi
    ell_g2 = 2.0 * hi * (1.0 + y_bound)
    if stream.smoothing:
        ell_g1 += hi / stream.mu
        ell_g2 += hi * (1.0 + 1.0 / stream.mu) ** 2
    mu_g = 2.0 * float(np.exp(x_low))
    return ProblemConstants(
        ell_f0=ell_f0, ell_f1=ell_f1, ell_g1=ell_g1, ell_g2=ell_g2, mu_g=mu_g
    )


@dataclass(frozen=True)
class Stage:
    """One stationary segment of a synthetic stream."""

    length: int
    x_star: np.ndarray
    y_star: np.ndarray


@dataclass(frozen=True)
class SyntheticStreamConfig:
    stages: tuple
    d1: int
    d2: int
    noise_max: float = 0.1
    seed: int = 0
    mu_smooth: Optional[float] = None
    fset: FeasibleSet = field(default_factory=FeasibleSet.unbounded)

    @property
    def T(self) -> int:
        return sum(s.length for s in self.stages)


@dataclass(frozen=True)
class SyntheticData:
    """synthesize() output: the round stream plus its raw ingredients."""

    stream: HOStream
    train_features: np.ndarray
    train_labels: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray
    stages: tuple


def synthesize(config: SyntheticStreamConfig) -> SyntheticData:
    """Seeded multi-stage stream: features are standard normal and labels
    follow the stage truth, b_t = a_t^T y*_s + eps_t with eps_t uniform on
    [0, noise_max]. Train and validation draws are independent.

    Draw order (fixed for reproducibility): train features, train noise,
    validation features, validation noise.
    """
    rng = np.random.default_rng(config.seed)
    T, d2 = config.T, config.d2
    y_true = np.concatenate([
        np.tile(np.asarray(s.y_star, dtype=float), (s.length, 1)) for s in config.stages
    ])
    if y_true.shape != (T, d2):
        raise DimensionMismatch("stage y_star vectors must all have length d2")
    A_tr = rng.standard_normal((T, d2))
    b_tr = np.einsum("ij,ij->i", A_tr, y_true) + rng.uniform(0.0, config.noise_max, T)
    A_val = rng.standard_normal((T, d2))
    b_val = np.einsum("ij,ij->i", A_val, y_true) + rng.uniform(0.0, config.noise_max, T)
    if config.mu_smooth is None:
        stream = HOStream(A_tr, b_tr, A_val, b_val, d1=config.d1, fset=config.fset)
    else:
        stream = ElasticNetStream(
            A_tr, b_tr, A_val, b_val, config.mu_smooth, d1=config.d1, fset=config.fset
        )
    return SyntheticData(
        stream=stream,
        train_features=A_tr,
        train_labels=b_tr,
        val_features=A_val,
        val_labels=b_val,
        stages=tuple(config.stages),
    )


def equal_stages(T: int, S: int, targets) -> tuple:
    """Split horizon T into S stages of near-equal length (remainder goes to
    the last stage), pairing each with its (x*, y*) target."""
    if len(targets) != S:
        raise ValueError("need one (x_star, y_star) target per stage")
    base = T // S
    lengths = [base] * S
    lengths[-1] += T - base * S
    return tuple(
        Stage(length=n, x_star=np.asarray(xs, dtype=float), y_star=np.asarray(ys, dtype=float))
        for n, (xs, ys) in zip(lengths, targets)
    )
