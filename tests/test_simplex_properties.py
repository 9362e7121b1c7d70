"""Weights stay on the simplex, and balanced weights keep their mean.

Random PSD covariances of every rank (full, rank-deficient, zero and
near-singular) and random starts close to a face of the simplex, through
all three engines: every stored weight vector sums to 1 within 1e-9, and
the terminal mean of the balanced and the (compensated) jump engine
matches ``kappa0`` within five standard errors.  Runs are 100 steps to
``T = 1``, long enough that a wrong Ito correction shows in the mean.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from balmarkets.jump_markets import (
    JumpSpec,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import MarketParams, PathGrid, ProcessSpec
from balmarkets.sde_engine import pathset_summary, simulate_capitalizations

GRID = PathGrid(dt=1e-2, n_steps=100)
KINDS = ["full", "deficient", "zero", "near_singular"]


def _covariance(rng, d, kind):
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "deficient":
        a = rng.standard_normal((d, int(rng.integers(1, d))))
    else:
        a = rng.standard_normal((d, d))
        if kind == "near_singular":
            a[:, -1] = a[:, :-1] @ rng.standard_normal(d - 1) + 1e-7 * a[:, -1]
    c = a @ a.T
    return c * (0.5 / np.trace(c))


def _near_face(rng, d):
    """A random start with one to d - 1 coordinates between 1e-6 and 1e-3."""
    k = rng.dirichlet(np.ones(d))
    small = rng.permutation(d)[: int(rng.integers(1, d))]
    k[small] = 10.0 ** rng.uniform(-6.0, -3.0, size=small.size)
    return k / k.sum()


def _assert_on_simplex(kappa):
    assert np.all(kappa >= 0.0)
    assert np.abs(kappa.sum(axis=-1) - 1.0).max() <= 1e-9


def _assert_mean_is_kappa0(kappa_t, kappa0):
    se = kappa_t.std(axis=0, ddof=1) / np.sqrt(len(kappa_t))
    err = np.abs(kappa_t.mean(axis=0) - kappa0)
    assert np.all(err <= 5.0 * se + 1e-12), (err, se)


_cases = dict(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 5),
              kind=st.sampled_from(KINDS))


@settings(max_examples=12, deadline=None)
@given(**_cases)
def test_balanced_weights_stay_on_the_simplex_and_keep_their_mean(seed, d, kind):
    rng = np.random.default_rng(seed)
    c, kappa0 = _covariance(rng, d, kind), _near_face(rng, d)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(c), kappa0, GRID, 2000, seed, store_every=25)
    _assert_on_simplex(ps.kappa)
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] <= 1e-9
    _assert_mean_is_kappa0(ps.kappa[:, -1], kappa0)


@settings(max_examples=8, deadline=None)
@given(**_cases)
def test_jump_weights_stay_on_the_simplex_and_keep_their_mean(seed, d, kind):
    rng = np.random.default_rng(seed)
    c, kappa0 = _covariance(rng, d, kind), _near_face(rng, d)
    n_atoms = int(rng.integers(1, 4))
    # moderate sizes: a near-face weight that jumps by a large factor and
    # decays fast in between has too heavy a tail for a 1000-path mean
    atoms = rng.uniform(-0.25, 0.25, size=(n_atoms, d))
    lam = float(rng.uniform(0.5, 2.0))
    spec = JumpSpec.finite_atoms(lam, lam, atoms, rng.dirichlet(np.ones(n_atoms)))
    ps, _ = simulate_jump_balanced(ProcessSpec.constant(c), spec, kappa0, GRID,
                                   1000, seed, store_every=25)
    _assert_on_simplex(ps.kappa)
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] <= 1e-9
    _assert_mean_is_kappa0(ps.kappa[:, -1], kappa0)


@settings(max_examples=12, deadline=None)
@given(**_cases)
def test_capitalization_weights_stay_on_the_simplex(seed, d, kind):
    rng = np.random.default_rng(seed)
    c = _covariance(rng, d, kind)
    s0 = 100.0 * _near_face(rng, d)
    params = MarketParams.from_constants(rng.uniform(-0.2, 0.2, d), c, 0.01, s0)
    ps = simulate_capitalizations(params, GRID, 300, seed, store_every=25)
    _assert_on_simplex(ps.kappa)
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] <= 1e-9
