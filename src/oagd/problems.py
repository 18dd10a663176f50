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

Streams are immutable sequences of RoundFunctions. The regression and
quadratic streams additionally expose windowed_hypergrad(t, window, x, y),
an O(w d2) fast path equivalent to the generic averaging loop;
hypergrad.stream_windowed_hypergradient picks it up when present. The
regression streams keep newest-first contiguous copies of their window
tables, so that path slices rows instead of copying them every round.

The regression streams also expose inner_steps(t, x, y, beta, K), the K
follower steps of round t fused into one loop that derives the
x-dependent part of grad_y g once; inner.stream_inner_gd picks it up when
present and otherwise runs inner.inner_gd on the round. Both paths
evaluate the same gradient expression and give bit-identical iterates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import FeasibleSet, ProblemConstants, RoundFunctions, project
from .errors import DimensionMismatch, StreamExhausted
from .kernels import quad_window_reduce, sm_window_accumulate, sm_workspace

QUADRATIC_CONSTANTS = ProblemConstants(
    ell_f0=5.0, ell_f1=1.0, ell_g1=1.0, ell_g2=0.0, mu_g=1.0, mu_f=1.0
)


def quadratic_round(
    a1: float,
    a2: float,
    a3: float = 0.0,
    a4: float = 0.0,
    fset: Optional[FeasibleSet] = None,
    label: str = "quadratic",
) -> RoundFunctions:
    """One round of the scalar quadratic family; see the module docstring."""
    a1, a2, a3, a4 = float(a1), float(a2), float(a3), float(a4)
    if fset is None:
        fset = FeasibleSet.symmetric_box(1.0, 1)

    def f(x, y):
        return 0.5 * (x[0] + 2.0 * a1) ** 2 + 0.5 * (y[0] - a2) ** 2 + a3

    def g(x, y):
        return 0.5 * y[0] ** 2 - (x[0] - a2) * y[0] + a4

    return RoundFunctions(
        f=f,
        g=g,
        grad_x_f=lambda x, y: np.array([x[0] + 2.0 * a1]),
        grad_y_f=lambda x, y: np.array([y[0] - a2]),
        grad_y_g=lambda x, y: np.array([y[0] - x[0] + a2]),
        jac_xy_g=lambda x, y: np.array([[-1.0]]),
        hess_yy_g=lambda x, y: np.array([[1.0]]),
        closed_form_y_star=lambda x: np.array([x[0] - a2]),
        closed_form_x_star=lambda: project(fset, np.array([a2 - a1])),
        closed_form_x_partial=lambda y: project(fset, np.array([-2.0 * a1])),
        label=label,
    )


class QuadraticStream:
    """Sequence of quadratic rounds driven by coefficient tables a1..a4.

    windowed_hypergrad uses that every round's M equals 1, so each window
    term is (x + y) + (2 a1_s - a2_s) and the average reduces to one
    weighted sum handled by kernels.quad_window_reduce.
    """

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
        self.d1 = 1
        self.d2 = 1
        self._shift = 2.0 * self.a1 - self.a2
        self._cache: dict[int, RoundFunctions] = {}

    def __len__(self) -> int:
        return self.a1.shape[0]

    def __getitem__(self, i: int) -> RoundFunctions:
        if not 0 <= i < len(self):
            raise IndexError(i)
        rnd = self._cache.get(i)
        if rnd is None:
            rnd = quadratic_round(
                self.a1[i], self.a2[i], self.a3[i], self.a4[i],
                fset=self.fset, label=f"quadratic t={i + 1}",
            )
            self._cache[i] = rnd
        return rnd

    def windowed_hypergrad(self, t: int, window, x, y) -> np.ndarray:
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        m = min(window.w, t)
        s = self._shift[t - m:t][::-1]
        val = quad_window_reduce(s, window.u[:m], float(x[0]) + float(y[0]))
        return np.array([val / window.W])

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


def _ridge_diag(x_ridge: np.ndarray, d2: int) -> np.ndarray:
    """diag of C(x): exp(x) broadcast when the ridge block is scalar."""
    if x_ridge.shape[0] == 1:
        return np.full(d2, np.exp(x_ridge[0]))
    return np.exp(x_ridge)


class HOStream:
    """Online hyperparameter ridge regression rounds from paired samples.

    Round t (0-based index t-1) binds training sample (A_train[i], b_train[i])
    inside g and validation sample (A_val[i], b_val[i]) inside f. d1 is 1
    (scalar ridge weight broadcast over the diagonal) or d2 (one weight per
    coordinate).
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
        self._cache: dict[int, RoundFunctions] = {}

    def _check_d1(self):
        if self.d1 not in (1, self.d2):
            raise DimensionMismatch(
                f"d1 must be 1 or d2={self.d2} for the ridge family, got {self.d1}"
            )

    def __len__(self) -> int:
        return self.A_train.shape[0]

    # per-round pieces, split so the elastic net subclass can extend them

    def _hess_diag(self, x, y) -> np.ndarray:
        """Diagonal D of the inner Hessian aa^T + D (sample independent)."""
        return 2.0 * _ridge_diag(self._ridge_block(x), self.d2)

    def _ridge_block(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def _grad_y_g_extra_at(self, x):
        """y -> the penalty's part of grad_y g(x, y), with its x-dependent
        factors computed once."""
        c2 = 2.0 * _ridge_diag(self._ridge_block(x), self.d2)
        return lambda y: c2 * y

    def _grad_y_g_extra(self, x, y) -> np.ndarray:
        return self._grad_y_g_extra_at(x)(y)

    def _grad_y_g_at(self, i: int, x):
        """z -> grad_y g(x, z) of round index i, for a fixed x."""
        a, b = self.A_train[i], float(self.b_train[i])
        extra = self._grad_y_g_extra_at(x)
        return lambda z: a * (a @ z - b) + extra(z)

    def _g_extra(self, x, y) -> float:
        return float(_ridge_diag(self._ridge_block(x), self.d2) @ (y * y))

    def _apply_neg_jac(self, x, y, v) -> np.ndarray:
        """-jac_xy_g(x, y) @ v without forming the Jacobian."""
        ridge = self._ridge_block(x)
        c = _ridge_diag(ridge, self.d2)
        if ridge.shape[0] == 1:
            return np.array([-2.0 * float((c * y) @ v)])
        return -2.0 * c * y * v

    def _jac_xy(self, x, y) -> np.ndarray:
        ridge = self._ridge_block(x)
        c = _ridge_diag(ridge, self.d2)
        if ridge.shape[0] == 1:
            return (2.0 * c * y)[None, :]
        return np.diag(2.0 * c * y)

    def _closed_form_y_star(self, i: int):
        a = self.A_train[i]
        b = self.b_train[i]

        def y_star(x):
            d = self._hess_diag(x, None)
            da = a / d
            return b * da / (1.0 + a @ da)

        return y_star

    def __getitem__(self, i: int) -> RoundFunctions:
        if not 0 <= i < len(self):
            raise IndexError(i)
        rnd = self._cache.get(i)
        if rnd is not None:
            return rnd
        a, b = self.A_train[i], float(self.b_train[i])
        av, bv = self.A_val[i], float(self.b_val[i])

        def f(x, y):
            return 0.5 * (av @ y - bv) ** 2

        def g(x, y):
            return 0.5 * (a @ y - b) ** 2 + self._g_extra(x, y)

        def grad_y_g(x, y):
            return self._grad_y_g_at(i, x)(y)

        def hess_yy_g(x, y):
            return np.outer(a, a) + np.diag(self._hess_diag(x, y))

        rnd = RoundFunctions(
            f=f,
            g=g,
            grad_x_f=lambda x, y: np.zeros(self.d1),
            grad_y_f=lambda x, y: av * (av @ y - bv),
            grad_y_g=grad_y_g,
            jac_xy_g=lambda x, y: self._jac_xy(x, y),
            hess_yy_g=hess_yy_g,
            closed_form_y_star=self._closed_form_y_star(i),
            label=f"{'elastic_net' if self.smoothing else 'ho'} t={i + 1}",
        )
        self._cache[i] = rnd
        return rnd

    def full_batch_round(self, A, b) -> RoundFunctions:
        """The inner problem over a whole sample table at fixed x: mean
        squared loss ||A y - b||^2 / (2 n) plus the per-round penalty, with
        f = 0. Used to fit y on the full training split."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        n = A.shape[0]
        return RoundFunctions(
            f=lambda x, y: 0.0,
            g=lambda x, y: float(0.5 * np.sum((A @ y - b) ** 2) / n + self._g_extra(x, y)),
            grad_x_f=lambda x, y: np.zeros(self.d1),
            grad_y_f=lambda x, y: np.zeros(self.d2),
            grad_y_g=lambda x, y: A.T @ (A @ y - b) / n + self._grad_y_g_extra(x, y),
            jac_xy_g=self._jac_xy,
            hess_yy_g=lambda x, y: A.T @ A / n + np.diag(self._hess_diag(x, y)),
            label="full batch",
        )

    def inner_steps(self, t: int, x, y, beta: float, K: int) -> np.ndarray:
        """K gradient steps z <- z - beta * grad_y g_t(x, z) from y (t is
        1-based): the update of inner.inner_gd on self[t - 1], bit for bit,
        without rebuilding exp(x) at every step. y is not modified."""
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        grad = self._grad_y_g_at(t - 1, x)
        z = np.asarray(y, dtype=float).copy()
        for _ in range(K):
            z -= beta * grad(z)
        return z

    def windowed_hypergrad(self, t: int, window, x, y) -> np.ndarray:
        """Fast path: every window term shares D and the Jacobian, so the
        weighted solve batch-reduces through the Sherman-Morrison kernel."""
        if t > len(self):
            raise StreamExhausted(t, available=len(self))
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = min(window.w, t)
        rows = slice(len(self) - t, len(self) - t + m)
        d_inv = 1.0 / self._hess_diag(x, y)
        acc = sm_window_accumulate(
            self._A_train_rev[rows],
            self._A_val_rev[rows],
            self._b_val_rev[rows],
            d_inv,
            y,
            window.u[:m],
            self._window_work,
        )
        return self._apply_neg_jac(x, y, acc) / window.W


class ElasticNetStream(HOStream):
    """Smoothed elastic net rounds: x = [smoothing block (d2), ridge block].

    The smoothing block weights sum_i exp(x_i) sqrt(y_i^2 + mu^2), a twice
    differentiable stand-in for the l1 penalty; mu_smooth must be positive.
    """

    smoothing = True

    def __init__(self, A_train, b_train, A_val, b_val, mu_smooth: float,
                 d1: Optional[int] = None, fset: Optional[FeasibleSet] = None):
        self.mu = float(mu_smooth)
        if self.mu <= 0:
            raise ValueError("mu_smooth must be positive")
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

    def _ridge_block(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)[self.d2:]

    def _smooth_block(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)[: self.d2]

    def _hess_diag(self, x, y) -> np.ndarray:
        base = super()._hess_diag(x, y)
        s = np.exp(self._smooth_block(x))
        root = np.sqrt(y * y + self.mu**2)
        return base + s * self.mu**2 / root**3

    def _grad_y_g_extra_at(self, x):
        ridge = super()._grad_y_g_extra_at(x)
        s = np.exp(self._smooth_block(x))
        mu2 = self.mu**2
        return lambda y: ridge(y) + s * y / np.sqrt(y * y + mu2)

    def _g_extra(self, x, y) -> float:
        s = np.exp(self._smooth_block(x))
        return super()._g_extra(x, y) + float(s @ np.sqrt(y * y + self.mu**2))

    def _apply_neg_jac(self, x, y, v) -> np.ndarray:
        s = np.exp(self._smooth_block(x))
        smooth_rows = -s * y / np.sqrt(y * y + self.mu**2) * v
        return np.concatenate([smooth_rows, super()._apply_neg_jac(x, y, v)])

    def _jac_xy(self, x, y) -> np.ndarray:
        s = np.exp(self._smooth_block(x))
        top = np.diag(s * y / np.sqrt(y * y + self.mu**2))
        return np.vstack([top, super()._jac_xy(x, y)])

    def _closed_form_y_star(self, i: int):
        return None  # the smoothed penalty has no closed-form minimizer


def ho_stream(dataset, T: int, d1: int = 1, splits=("train", "val"),
              fset: Optional[FeasibleSet] = None) -> HOStream:
    """Build an HOStream from a loaded sample table.

    splits[0] feeds the inner loss and splits[1] the outer loss; both are
    consumed in row order, one row per round.
    """
    A_in, b_in = dataset.split(splits[0])
    A_out, b_out = dataset.split(splits[1])
    n = min(A_in.shape[0], A_out.shape[0])
    if T > n:
        raise StreamExhausted(n + 1, available=n)
    return HOStream(A_in[:T], b_in[:T], A_out[:T], b_out[:T], d1=d1, fset=fset)


def elastic_net_stream(dataset, mu_smooth: float, T: int, d1: Optional[int] = None,
                       splits=("train", "val"),
                       fset: Optional[FeasibleSet] = None) -> ElasticNetStream:
    A_in, b_in = dataset.split(splits[0])
    A_out, b_out = dataset.split(splits[1])
    n = min(A_in.shape[0], A_out.shape[0])
    if T > n:
        raise StreamExhausted(n + 1, available=n)
    return ElasticNetStream(
        A_in[:T], b_in[:T], A_out[:T], b_out[:T], mu_smooth, d1=d1, fset=fset
    )


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
    ell_f0 = np.sqrt(avn) * (np.sqrt(avn) * y_bound + bvn)
    ell_g1 = an + 2.0 * hi
    ell_g2 = 2.0 * hi * (1.0 + y_bound)
    if getattr(stream, "smoothing", False):
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
