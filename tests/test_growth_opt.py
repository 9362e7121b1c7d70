"""Growth-optimal portfolio solvers and the balance identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balmarkets import growth_opt
from balmarkets.errors import InfeasibleConstraint
from balmarkets.growth_opt import (
    growth_optimal_constrained,
    growth_optimal_hyperplane,
    growth_rate,
    implied_interest_rate,
    simplex_gap,
)
from balmarkets.market_model import ConstraintKind, ConstraintSet


def _random_problem(rng, d):
    m = rng.standard_normal((d, d))
    c = m @ m.T + 0.05 * np.eye(d)
    a = rng.standard_normal(d)
    return a, c


def test_hyperplane_solution_satisfies_first_order_conditions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.integers(1, 6)
        a, c = _random_problem(rng, d)
        rho, rate = growth_optimal_hyperplane(a, c)
        assert abs(rho.sum() - 1.0) < 1e-10
        # stationarity: a - c rho is the implied rate in every coordinate
        grad = a - c @ rho
        assert np.ptp(grad) < 1e-8
        assert rate == pytest.approx(grad[0], abs=1e-8)
        assert rate == pytest.approx(implied_interest_rate(a, c), abs=1e-10)


def test_hyperplane_beats_random_competitors():
    rng = np.random.default_rng(8)
    a, c = _random_problem(rng, 4)
    rho, r = growth_optimal_hyperplane(a, c)
    g_star = growth_rate(rho, a, c, r)
    for _ in range(200):
        z = rng.standard_normal(4)
        pi = z - (z.sum() - 1.0) / 4.0
        assert growth_rate(pi, a, c, r) <= g_star + 1e-10


def test_constrained_matches_hyperplane_when_unconstrained():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a, c = _random_problem(rng, d)
        rho_h, g_h = growth_optimal_hyperplane(a, c)
        rho, _ = growth_optimal_constrained(
            a, c, implied_interest_rate(a, c), ConstraintSet.budget_hyperplane())
        np.testing.assert_allclose(rho, rho_h, atol=1e-7)
        # stationarity on the budget hyperplane: a - c rho is level
        assert abs(rho.sum() - 1.0) < 1e-10
        assert np.ptp(a - c @ rho) < 1e-7


def test_simplex_constraint_activates_when_optimum_shorts():
    # strongly negative drift on company 0 pushes the unconstrained
    # optimum below zero; the simplex solution must clip it
    a = np.array([-5.0, 0.3])
    c = np.diag([0.04, 0.09])
    rho_free, _ = growth_optimal_hyperplane(a, c)
    assert rho_free[0] < 0.0
    rho, _ = growth_optimal_constrained(a, c, 0.0, ConstraintSet.closed_simplex())
    assert rho[0] == pytest.approx(0.0, abs=1e-9)
    assert rho[1] == pytest.approx(1.0, abs=1e-9)


def test_constrained_never_beats_unconstrained():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a, c = _random_problem(rng, d)
        rho_free, r = growth_optimal_hyperplane(a, c)
        g_free = growth_rate(rho_free, a, c, r)
        rho, _ = growth_optimal_constrained(a, c, r, ConstraintSet.closed_simplex())
        assert growth_rate(rho, a, c, r) <= g_free + 1e-9
        assert np.all(rho >= -1e-12)
        assert abs(rho.sum() - 1.0) < 1e-9


def test_box_constraint_is_respected():
    a = np.array([2.0, 0.0, -2.0])
    c = np.eye(3)
    box = ConstraintSet.box_hyperplane([-0.25, -0.25, -0.25], [1.25, 1.25, 1.25])
    rho, _ = growth_optimal_constrained(a, c, 0.0, box)
    assert np.all(rho >= -0.25 - 1e-9)
    assert np.all(rho <= 1.25 + 1e-9)
    assert abs(rho.sum() - 1.0) < 1e-9


def test_infeasible_box_raises():
    with pytest.raises(InfeasibleConstraint):
        ConstraintSet.box_hyperplane([0.2, 0.2], [0.6, 0.6])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_balanced_drift_implies_zero_residual(seed):
    """Under a drift ``c kappa + r 1`` the market portfolio is growth optimal
    and ``r`` is the implied rate."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    _, c = _random_problem(rng, d)
    kappa = rng.dirichlet(np.ones(d))
    r = float(rng.standard_normal())
    a = c @ kappa + r
    assert implied_interest_rate(a, c) == pytest.approx(r, abs=1e-8)
    rho, _ = growth_optimal_hyperplane(a, c)
    np.testing.assert_allclose(rho, kappa, atol=1e-8)


def test_unbalanced_drift_has_positive_residual():
    """Off the balanced drift the optimum beats the market portfolio."""
    c = np.diag([0.04, 0.09])
    kappa = np.array([0.5, 0.5])
    a = np.array([1.0, 0.0])
    rho, r = growth_optimal_hyperplane(a, c)
    assert growth_rate(rho, a, c, r) - growth_rate(kappa, a, c, r) > 0.1


def test_growth_rate_hand_computed():
    # g(pi) = r + pi . (a - r 1) - pi . c pi / 2
    pi = np.array([0.6, 0.4])
    a = np.array([0.1, 0.05])
    c = np.array([[0.04, 0.01], [0.01, 0.09]])
    r = 0.02
    expected = r + pi @ (a - r) - 0.5 * pi @ c @ pi
    assert growth_rate(pi, a, c, r) == pytest.approx(expected, abs=1e-14)


def test_growth_rate_broadcasts_over_batches():
    rng = np.random.default_rng(12)
    a, c = _random_problem(rng, 3)
    batch = rng.dirichlet(np.ones(3), size=50)
    vec = growth_rate(batch, a, c, 0.01)
    assert vec.shape == (50,)
    for i in range(0, 50, 7):
        assert vec[i] == pytest.approx(growth_rate(batch[i], a, c, 0.01))


def test_hyperplane_optimum_beats_every_budget_portfolio():
    rng = np.random.default_rng(13)
    a, c = _random_problem(rng, 4)
    rho, r = growth_optimal_hyperplane(a, c)
    g_star = growth_rate(rho, a, c, r)
    for _ in range(20):
        z = rng.standard_normal(4)
        pi = z - (z.sum() - 1.0) / 4.0
        assert growth_rate(pi, a, c, r) <= g_star + 1e-12


def _simplex_rows(rng, m, d):
    """Random simplex points, about half of them on a proper face."""
    x = rng.dirichlet(np.ones(d), size=m)
    for row in x[: m // 2]:
        keep = rng.random(d) < 0.5
        keep[rng.integers(d)] = True
        row[~keep] = 0.0
        row /= row.sum()
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_simplex_gap_bounds_growth_shortfall(seed):
    """max_i grad_i - <grad, x> >= g* - g(x) for PSD c, even singular c."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    rank = int(rng.integers(1, d + 1))
    b = rng.standard_normal((d, rank))
    c = b @ b.T
    q = rng.standard_normal(d) + rng.uniform(-3.0, 3.0)
    r = float(rng.uniform(-0.5, 0.5))
    a = q + r
    rho, g_star = growth_optimal_constrained(
        a, c, r, ConstraintSet.closed_simplex())
    x = _simplex_rows(rng, 8, d)
    grad = q - x @ c
    gap = simplex_gap(grad, x)
    assert gap.shape == (8,)
    shortfall = g_star - growth_rate(x, a, c, r)
    assert np.all(gap >= shortfall - 1e-12)
    assert np.all(gap >= -1e-12)
    # the bound is tight at the optimizer: its gap is rounding level
    assert simplex_gap(q - c @ rho, rho) <= 1e-9 * (1.0 + np.abs(q).max())


def test_simplex_gap_support_restricts_the_maximum():
    grad = np.array([[0.5, 0.1, 0.2], [0.5, 0.1, 0.2]])
    x = np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    support = np.array([[True, True, True], [False, True, True]])
    np.testing.assert_allclose(simplex_gap(grad, x, support), [0.35, 0.05])


def _psd(rng, d, kind):
    """Random PSD covariance: full rank, rank-deficient, zero or near-singular."""
    if kind == "zero":
        return np.zeros((d, d))
    b = rng.standard_normal((d, d if kind != "deficient" else int(rng.integers(1, d))))
    if kind == "near_singular":
        b[:, -1] = b[:, :-1] @ rng.standard_normal(d - 1) + 1e-7 * b[:, -1]
    return b @ b.T


def _linear_max(grad, lo, hi):
    """max <grad, v> over lo <= v <= hi, sum(v) = 1 (fill by decreasing grad)."""
    v = lo.copy()
    room = 1.0 - v.sum()
    for i in np.argsort(-grad, kind="stable"):
        v[i] += min(room, hi[i] - lo[i])
        room -= v[i] - lo[i]
    return float(grad @ v)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["full", "deficient", "zero", "near_singular"]),
       st.booleans())
def test_constrained_optimum_is_certified_for_every_rank(seed, kind, box):
    """The active-set optimum is feasible and optimal to rounding level.

    Checked independently of the solver: the Frank-Wolfe gap
    ``max_v <grad, v - rho>`` over the feasible polytope, an upper bound on
    ``g* - g(rho)`` for concave ``g``, is rounding level.  A bounded
    constraint set never raises.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    c = _psd(rng, d, kind)
    q = 2.0 * rng.standard_normal(d)
    r = float(rng.uniform(-0.5, 0.5))
    if box:
        lo = -rng.uniform(0.0, 2.0, d) * rng.integers(0, 2, d)
        hi = 1.0 + rng.uniform(0.0, 2.0, d) * rng.integers(0, 2, d)
        constraint = ConstraintSet.box_hyperplane(lo, hi)
    else:
        lo, hi = np.zeros(d), np.ones(d)
        constraint = ConstraintSet.closed_simplex()
    rho, g_star = growth_optimal_constrained(q + r, c, r, constraint)
    scale = 1.0 + np.abs(q).max() + np.abs(c).max() * (1.0 + np.abs(hi).max())
    tol = 1e-11 * scale
    assert abs(rho.sum() - 1.0) <= 1e-12 * d
    assert np.all(rho >= lo - 1e-12) and np.all(rho <= hi + 1e-12)
    grad = q - c @ rho
    assert _linear_max(grad, lo, hi) - grad @ rho <= tol
    assert g_star == pytest.approx(growth_rate(rho, q + r, c, r))


def test_ulp_asymmetric_singular_covariance_still_finds_the_optimum():
    """A PSD ``c`` symmetric only to an ulp: its full face's bordered
    system is nearly singular, and the residual of its least-squares solve
    is all positive.  Taken as it stands, that "ray" left the budget
    hyperplane, no bound blocked it, and the bounded simplex was reported
    unbounded."""
    a = np.array([-0.0063332284176746, 0.5457667181669134, 0.36422542932771235,
                  0.3413208438421892, 0.1015739967554678])
    c = np.array([
        [0.3715834995139263, -0.26001579971185995, 0.3293442767778736,
         -0.2508939808255833, -0.44199830474292595],
        [-0.26001579971185995, 1.6591344685019778, -0.8957312360384388,
         -0.2795425524705334, -0.25495616243717106],
        [0.32934427677787353, -0.8957312360384388, 1.2631786806752832,
         -0.21113506941088403, 0.0919038013607743],
        [-0.2508939808255833, -0.2795425524705334, -0.21113506941088403,
         0.4597559045541957, 0.5035932314644852],
        [-0.44199830474292595, -0.25495616243717106, 0.09190380136077425,
         0.5035932314644852, 0.9206273843754972],
    ])
    assert 0.0 < np.abs(c - c.T).max() < 1e-16
    rho, g_star = growth_optimal_constrained(
        a, c, 0.0, ConstraintSet.closed_simplex())
    assert np.all(rho >= 0.0) and abs(rho.sum() - 1.0) <= 1e-12
    grad = a - c @ rho
    assert simplex_gap(grad, rho) <= 1e-12
    assert g_star >= growth_rate(np.full(5, 0.2), a, c, 0.0)


@pytest.mark.parametrize("q", [0.3, -0.3])
def test_one_company_box_pins_its_weight_without_a_face_solve(monkeypatch, q):
    """A one-company box whose upper bound is 1 starts with its only weight
    at that bound: the solver reads the bound multiplier from the gradient
    alone, above or below zero, and keeps the bound."""
    def refuse(*args):
        raise AssertionError("a face with no free coordinate was solved")

    monkeypatch.setattr(growth_opt, "_face_solve", refuse)
    box = ConstraintSet.box_hyperplane([-0.5], [1.0])
    a, c, r = np.array([q + 0.01]), np.array([[0.04]]), 0.01
    rho, g_star = growth_optimal_constrained(a, c, r, box)
    assert rho.tolist() == [1.0]
    assert g_star == growth_rate(rho, a, c, r)


@pytest.mark.parametrize("lo, hi", [
    ([0.1, -0.5], [1.0, 1.0]),   # a positive lower bound
    ([0.0, 0.0], [0.9, 2.0]),    # an upper bound below one
    ([-1.0, -1.0], [np.inf, 1.0]),  # an unbounded box
])
def test_only_boxes_without_the_simplex_raise(lo, hi):
    with pytest.raises(InfeasibleConstraint):
        ConstraintSet.box_hyperplane(lo, hi)
    # a box built directly is checked too: the solver trusts every box
    with pytest.raises(InfeasibleConstraint):
        ConstraintSet(ConstraintKind.BOX_HYPERPLANE, lo=np.array(lo),
                      hi=np.array(hi))


@pytest.mark.parametrize("level", [0.0, 1000.0])
def test_bound_multipliers_stop_at_the_relative_gap_tolerance(level):
    """The QP keeps a bound whose multiplier is negative by less than
    ``_GAP_RTOL (1 + max|c x - q|)``, the certificate's own tolerance.  At
    ``e_2`` this problem's first multiplier is -1e-8: the bound is released
    at gradient level one and kept at level 1000, where the vertex is
    growth optimal to the certificate's tolerance."""
    c = np.array([[3.0, 2.0, -1.0], [2.0, 2.0, 1.0], [-1.0, 1.0, 5.0]])
    q = np.array([1e-8, 0.0, -2.0]) + level
    rho, _ = growth_optimal_constrained(q, c, 0.0, ConstraintSet.closed_simplex())
    grad = q - c @ rho
    scale = 1.0 + np.abs(grad).max()
    assert simplex_gap(grad, rho) <= growth_opt._GAP_RTOL * scale
    assert rho[2] == 0.0 and rho[1] == pytest.approx(1.0, abs=1e-7)
    if level:
        assert rho[0] == 0.0
    else:
        assert rho[0] == pytest.approx(1e-8, rel=1e-3)
