"""Parameter containers, coefficient specs, and the PSD factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmarkets.errors import (
    AsymmetricCovariance,
    DimensionMismatch,
    GridError,
    IndefiniteMatrix,
    NonPositiveInitialCap,
    ShapeMismatch,
)
from balmarkets.market_model import (
    ConstraintKind,
    ConstraintSet,
    MarketParams,
    PathGrid,
    PSD_TOL,
    ProcessSpec,
    psd_factor,
    validate_params,
)


def _random_psd(rng, d, rank=None):
    b = rng.normal(size=(d, rank if rank is not None else d))
    return b @ b.T


# ---------------------------------------------------------------------------
# ProcessSpec


def test_constant_spec_ignores_arguments():
    spec = ProcessSpec.constant(2.5)
    assert spec(0.0) == 2.5
    assert spec(17.3, np.array([0.5, 0.5])) == 2.5
    assert spec.is_constant()
    assert not spec.depends_on_state()


def test_time_table_interpolates_between_knots():
    spec = ProcessSpec.time_table([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert spec(0.5) == pytest.approx(1.0)
    assert spec(1.5) == pytest.approx(2.0)
    # outside the table the nearest value extends flat
    assert spec(5.0) == pytest.approx(2.0)
    assert not spec.depends_on_state()


def test_state_function_sees_the_state():
    spec = ProcessSpec.state_function(lambda t, k: float(k.sum()) + t)
    assert spec.depends_on_state()
    assert spec(1.0, np.array([0.25, 0.75])) == pytest.approx(2.0)


def test_rows_adds_a_path_axis_only_for_state_functions():
    states = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    const = ProcessSpec.constant([[1.0, 0.0], [0.0, 2.0]])
    assert const.rows(3.0, states, (2, 2)) is const.value
    table = ProcessSpec.time_table([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(table.rows(0.5, states, (2,)), [2.0, 3.0])
    scalar = ProcessSpec.constant(0.5).rows(0.0, states)
    assert scalar.shape == () and scalar == 0.5
    state = ProcessSpec.state_function(lambda t, k: k * t)
    got = state.rows(2.0, states, (2,))
    assert got.shape == (3, 2)
    np.testing.assert_array_equal(got, 2.0 * states)


def test_rows_rejects_a_wrong_shape():
    states = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ShapeMismatch, match="drift rate a must evaluate to shape"):
        ProcessSpec.constant([1.0, 2.0]).rows(0.0, states, (3,), "drift rate a")
    with pytest.raises(ShapeMismatch, match="must evaluate to a scalar"):
        ProcessSpec.state_function(lambda t, k: k).rows(0.0, states)


# ---------------------------------------------------------------------------
# validate_params

@st.composite
def _valid_params(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d)
    c = _random_psd(rng, d, rank=draw(st.integers(min_value=1, max_value=d)))
    r = float(rng.normal())
    s0 = rng.uniform(0.1, 10.0, size=d)
    return a, c, r, s0


@given(_valid_params())
@settings(max_examples=60, deadline=None)
def test_validate_accepts_valid_parameter_sets(tup):
    a, c, r, s0 = tup
    params = MarketParams.from_constants(a, c, r, s0)
    assert validate_params(params) is params


def test_validate_rejects_asymmetric_covariance():
    params = MarketParams.from_constants(
        [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], 0.0, [1.0, 1.0])
    with pytest.raises(AsymmetricCovariance):
        validate_params(params)


def test_validate_rejects_indefinite_covariance():
    params = MarketParams.from_constants(
        [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 0.0, [1.0, 1.0])
    with pytest.raises(Exception) as exc_info:
        validate_params(params)
    assert "eigenvalue" in str(exc_info.value)


def test_validate_rejects_nonpositive_initial_caps():
    params = MarketParams.from_constants(
        [0.0, 0.0], np.eye(2), 0.0, [1.0, 0.0])
    with pytest.raises(NonPositiveInitialCap):
        validate_params(params)


def test_validate_rejects_shape_mismatch():
    params = MarketParams.from_constants(
        [0.0, 0.0, 0.0], np.eye(2), 0.0, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        validate_params(params)


# ---------------------------------------------------------------------------
# psd_factor


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_psd_factor_reconstructs_full_rank(seed, d):
    rng = np.random.default_rng(seed)
    c = _random_psd(rng, d) + 1e-6 * np.eye(d)
    sigma = psd_factor(c)
    assert np.allclose(sigma @ sigma.T, c, atol=1e-10 * (1.0 + np.abs(c).max()))


def test_psd_factor_handles_rank_deficiency():
    rng = np.random.default_rng(7)
    c = _random_psd(rng, 5, rank=2)
    sigma = psd_factor(c)
    assert np.allclose(sigma @ sigma.T, c, atol=1e-10 * (1.0 + np.abs(c).max()))


def test_psd_factor_zero_matrix():
    sigma = psd_factor(np.zeros((3, 3)))
    assert np.allclose(sigma, 0.0)


def test_psd_factor_rejects_indefinite():
    c = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IndefiniteMatrix):
        psd_factor(c)


def _planted_rank(rng, d, rank, scale):
    """``scale * P (A + 0) P.T``: a well-conditioned rank-``rank`` block A
    with exactly zero rows and columns at random places, and the positions
    of those zeros."""
    q, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    block = (q * rng.uniform(0.5, 2.0, size=rank)) @ q.T
    c = np.zeros((d, d))
    live = np.sort(rng.permutation(d)[:rank])
    c[np.ix_(live, live)] = scale * 0.5 * (block + block.T)
    return c, np.setdiff1d(np.arange(d), live)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=8).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(0, d))),
       st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_pivoted_factor_on_every_rank(seed, shape, log_scale):
    """sigma sigma^T = c to 1e-12, columns from the rank on exactly zero,
    and IndefiniteMatrix below -PSD_TOL; also after a random rotation,
    which takes away the exact zeros."""
    d, rank = shape
    rng = np.random.default_rng(seed)
    c, dead = _planted_rank(rng, d, rank, 10.0 ** log_scale)
    top = np.abs(c).max()
    sigma = psd_factor(c)
    assert np.all(np.abs(sigma @ sigma.T - c) <= 1e-12 * top)
    assert np.all(sigma[:, rank:] == 0.0)
    assert np.all(np.any(sigma[:, :rank] != 0.0, axis=0))

    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    turned = q @ c @ q.T
    turned = 0.5 * (turned + turned.T)
    sigma = psd_factor(turned)
    err = np.abs(sigma @ sigma.T - turned).max()
    assert err <= 1e-12 * np.abs(turned).max()

    if rank < d:
        tol = PSD_TOL * (1.0 + top)
        c[dead[0], dead[0]] = -0.5 * tol  # rounding noise: clipped
        assert np.all(psd_factor(c)[:, rank:] == 0.0)
        c[dead[0], dead[0]] = -2.0 * tol
        with pytest.raises(IndefiniteMatrix):
            psd_factor(c)


def test_pivoted_factor_of_the_builtin_covariances():
    """The sec6_* builtins use diag(0, 1), the death example zeros."""
    assert psd_factor(np.diag([0.0, 1.0])).tolist() == [[0.0, 0.0], [1.0, 0.0]]
    zero = psd_factor(np.zeros((2, 2)))
    assert zero.tobytes() == np.zeros((2, 2)).tobytes()


def test_pivoted_factor_rank_rule_and_pivot_order():
    """Rank stops once the largest remaining diagonal is at most
    d * 2**-53 * max(diag c); ties go to the first such entry."""
    u = 2.0**-53
    at = psd_factor(np.diag([0.0, 1.0, 3 * u]))
    assert at.tolist() == [[0.0] * 3, [1.0, 0.0, 0.0], [0.0] * 3]
    above = psd_factor(np.diag([0.0, 1.0, 4 * u]))
    assert above.tolist() == [[0.0] * 3, [1.0, 0.0, 0.0], [0.0, 2 * u**0.5, 0.0]]
    tie = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    assert psd_factor(tie).tolist() == [[0.0] * 3, [1.0, 0.0, 0.0],
                                        [0.5, 0.75**0.5, 0.0]]


# ---------------------------------------------------------------------------
# PathGrid


def test_grid_times_endpoints():
    grid = PathGrid(dt=0.25, n_steps=8)
    t = grid.times()
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(2.0)
    assert len(t) == 9


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        PathGrid(dt=-0.1, n_steps=10)
    with pytest.raises(ValueError):
        PathGrid(dt=0.1, n_steps=0)
    # a non-finite step or a fractional step count would give a grid of
    # nans, infinities or the wrong number of points
    for dt, n_steps in ((float("nan"), 10), (float("inf"), 10), (0.1, 2.5)):
        with pytest.raises(GridError) as err:
            PathGrid(dt=dt, n_steps=n_steps)
        assert isinstance(err.value, ValueError)
    assert len(PathGrid(dt=0.1, n_steps=np.int64(3)).times()) == 4


# ---------------------------------------------------------------------------
# constraint sets


def test_closed_simplex_membership():
    cs = ConstraintSet.closed_simplex()
    assert cs.kind is ConstraintKind.CLOSED_SIMPLEX
    assert cs.lo is None and cs.hi is None


def test_budget_hyperplane_membership():
    cs = ConstraintSet.budget_hyperplane()
    assert cs.kind is ConstraintKind.BUDGET_HYPERPLANE
    assert cs.lo is None and cs.hi is None


def test_box_hyperplane_membership():
    # boxes must contain the whole simplex; they only limit excursions
    # beyond it
    cs = ConstraintSet.box_hyperplane(
        np.array([-0.5, -0.5]), np.array([1.5, 1.5]))
    assert cs.kind is ConstraintKind.BOX_HYPERPLANE
    assert np.array_equal(cs.lo, [-0.5, -0.5])
    assert np.array_equal(cs.hi, [1.5, 1.5])
    with pytest.raises(Exception):
        ConstraintSet.box_hyperplane(np.array([0.2, 0.0]),
                                     np.array([1.0, 1.0]))
