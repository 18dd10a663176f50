"""Tests for the foundational types: decision pairs, feasible sets,
projections, derived constants, and the round-naming errors."""
import numpy as np
import pytest

from oagd import (
    DecisionPair,
    FactorizationFailure,
    FeasibleSet,
    NonFiniteIterate,
    OagdError,
    OracleDiverged,
    ProblemConstants,
    derive_constants,
    project,
)
from oagd.errors import RoundError


def test_decision_pair_coerces_to_float_vectors():
    p = DecisionPair(x=[1, 2], y=3)
    assert p.x.dtype == np.float64
    assert p.x.shape == (2,)
    assert p.y.shape == (1,)
    assert p.d1 == 2 and p.d2 == 1


def test_decision_pair_rejects_matrices():
    with pytest.raises(ValueError):
        DecisionPair(x=np.zeros((2, 2)), y=np.zeros(1))


def test_feasible_set_box_validation():
    with pytest.raises(ValueError):
        FeasibleSet.box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        FeasibleSet.box([0.0], [0.0, 1.0])


def test_box_rejects_nan_bounds():
    """Every comparison with nan is false, so `lower > upper` alone would
    let a nan bound through."""
    for lower, upper in (([np.nan], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="lower <= upper"):
            FeasibleSet.box(lower, upper)


def test_ball_rejects_nonfinite_center_and_radius():
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            FeasibleSet.ball([0.0], radius)
    for center in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="center"):
            FeasibleSet.ball(center, 1.0)


def test_feasible_set_ball_validation():
    with pytest.raises(ValueError):
        FeasibleSet.ball([0.0], radius=0.0)
    with pytest.raises(ValueError):
        FeasibleSet(kind="simplex")


def test_diameters():
    assert FeasibleSet.unbounded().diameter == np.inf
    box = FeasibleSet.box([-1.0, -1.0], [1.0, 1.0])
    assert box.diameter == pytest.approx(2.0 * np.sqrt(2.0))
    ball = FeasibleSet.ball([0.0, 0.0], radius=1.5)
    assert ball.diameter == pytest.approx(3.0)
    assert FeasibleSet.symmetric_box(1.0, 1).diameter == pytest.approx(2.0)


def test_project_box_clamps_elementwise():
    box = FeasibleSet.box([-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_allclose(project(box, np.array([3.0, -5.0])), [1.0, 0.0])
    np.testing.assert_allclose(project(box, np.array([0.5, 1.0])), [0.5, 1.0])


def test_project_ball_scales_radially():
    ball = FeasibleSet.ball([1.0, 0.0], radius=2.0)
    # the point 1 + (3, 0) projects onto the boundary 1 + (2, 0)
    np.testing.assert_allclose(project(ball, np.array([4.0, 0.0])), [3.0, 0.0])
    inside = np.array([1.5, 0.5])
    np.testing.assert_allclose(project(ball, inside), inside)


def test_project_unbounded_returns_copy():
    x = np.array([7.0])
    out = project(FeasibleSet.unbounded(), x)
    np.testing.assert_allclose(out, x)
    out[0] = 0.0
    assert x[0] == 7.0


def test_project_is_idempotent_and_contracting():
    rng = np.random.default_rng(0)
    box = FeasibleSet.box(-rng.random(4) - 0.5, rng.random(4) + 0.5)
    ball = FeasibleSet.ball(rng.normal(size=4), radius=1.2)
    for fset in (box, ball):
        for _ in range(25):
            a, b = rng.normal(scale=3.0, size=4), rng.normal(scale=3.0, size=4)
            pa, pb = project(fset, a), project(fset, b)
            np.testing.assert_allclose(project(fset, pa), pa, atol=1e-12)
            assert fset.contains(pa, atol=1e-12)
            # projections onto convex sets are 1-Lipschitz
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_contains_tolerance():
    box = FeasibleSet.box([0.0], [1.0])
    assert not box.contains(np.array([1.0 + 1e-9]))
    assert box.contains(np.array([1.0 + 1e-9]), atol=1e-8)


def test_problem_constants_validation():
    with pytest.raises(ValueError):
        ProblemConstants(ell_f0=1, ell_f1=1, ell_g1=1, ell_g2=0, mu_g=0.0)
    with pytest.raises(ValueError):
        ProblemConstants(ell_f0=1, ell_f1=1, ell_g1=1, ell_g2=0, mu_g=2.0)
    with pytest.raises(ValueError):
        ProblemConstants(ell_f0=-1, ell_f1=1, ell_g1=1, ell_g2=0, mu_g=1.0)
    with pytest.raises(ValueError):
        ProblemConstants(ell_f0=1, ell_f1=1, ell_g1=1, ell_g2=0, mu_g=1.0, mu_f=2.0)


def test_problem_constants_reject_nonfinite():
    """A nan or inf constant would derive a nan M_f or L_f."""
    good = dict(ell_f0=1.0, ell_f1=1.0, ell_g1=1.0, ell_g2=0.0, mu_g=1.0, mu_f=1.0)
    for name in good:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                ProblemConstants(**{**good, name: bad})


def test_derived_constants_unit_quadratic():
    """ell_f0=5, ell_f1=1, ell_g1=1, ell_g2=0, mu_g=1 gives kappa=1, L_y=1,
    M_f=2, L_f=4 by direct substitution."""
    c = ProblemConstants(ell_f0=5.0, ell_f1=1.0, ell_g1=1.0, ell_g2=0.0, mu_g=1.0)
    d = derive_constants(c)
    assert d.kappa_g == pytest.approx(1.0)
    assert d.L_y == pytest.approx(1.0)
    assert d.M_f == pytest.approx(2.0)
    assert d.L_f == pytest.approx(4.0)


def test_derived_constants_general_case():
    """Hand-evaluated: ell_f0=2, ell_f1=3, ell_g1=4, ell_g2=5, mu_g=2.
    tail = (2/2)(5 + 4*5/2) = 15, M_f = 3 + 6 + 15 = 24,
    L_f = 3 + 4(3+24)/2 + 15 = 72."""
    c = ProblemConstants(ell_f0=2.0, ell_f1=3.0, ell_g1=4.0, ell_g2=5.0, mu_g=2.0)
    d = derive_constants(c)
    assert d.kappa_g == pytest.approx(2.0)
    assert d.L_y == pytest.approx(2.0)
    assert d.M_f == pytest.approx(24.0)
    assert d.L_f == pytest.approx(72.0)


def test_round_errors_name_their_round_once():
    """FactorizationFailure, NonFiniteIterate and OracleDiverged share
    RoundError's "round N: " prefix: the message carries it only with a
    round index, round_index is kept either way, and OracleDiverged also
    keeps its residual."""
    for cls in (FactorizationFailure, NonFiniteIterate, OracleDiverged):
        assert issubclass(cls, RoundError) and issubclass(cls, OagdError)
        named, bare = cls("went wrong", round_index=7), cls("went wrong")
        assert (str(named), named.round_index) == ("round 7: went wrong", 7)
        assert (str(bare), bare.round_index) == ("went wrong", None)
    exc = OracleDiverged("stalled", residual=2.5e-8, round_index=3)
    assert (str(exc), exc.residual, exc.round_index) == ("round 3: stalled", 2.5e-8, 3)
    assert OracleDiverged("stalled", 1e-3).residual == 1e-3
