"""Jump-market engine, compensator moments, and the analytic example."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balmarkets import balance_diag, jump_markets
from balmarkets.balance_diag import distance_matrix, loss_of_balance
from balmarkets.errors import (
    BalmarketsError,
    DimensionMismatch,
    InconsistentInitialState,
    JumpDomainError,
    JumpLawError,
    SolverFailure,
)
from balmarkets.jump_markets import (
    ALIVE,
    CONTINUOUS_VANISH,
    DEATH_THRESHOLD,
    JUMP_TO_ZERO,
    JumpMoments,
    JumpSpec,
    LifetimeRecord,
    drift_from_balance_jump,
    example_death_of_company,
    growth_optimal_jump,
    rel_rate_of_return,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from balmarkets.growth_opt import (
    _GAP_RTOL,
    growth_optimal_constrained,
    growth_rate,
    simplex_gap,
)
from balmarkets.market_model import ConstraintSet, PathGrid, ProcessSpec
from balmarkets.sde_engine import EngineDiagnostics

C3 = np.array([
    [0.09, 0.02, 0.01],
    [0.02, 0.16, 0.03],
    [0.01, 0.03, 0.25],
])
K3 = np.array([0.5, 0.3, 0.2])

ATOMS = np.array([
    [0.4, -0.2, 0.1],
    [-0.5, 0.3, 0.0],
    [2.0, -0.8, -0.3],
])
PROBS = np.array([0.5, 0.3, 0.2])


def _spec(lam=1.5, atoms=ATOMS, probs=PROBS, lam_max=None):
    return JumpSpec.finite_atoms(
        ProcessSpec.constant(lam), lam_max=lam_max or lam,
        atoms=atoms, probs=probs)


def growth_jump_gradient(spec, t, p, kappa=None):
    """Reference gradient in ``p`` of the jump log term at ``t``, with the
    intensity read at ``kappa``:
    ``lam * sum_k w_k x_k (1/(1 + <p, x_k>) - 1{|x_k| <= 1})``."""
    x = spec.atoms_at(t)
    lam = spec.intensity_at(t, kappa)
    if lam == 0.0:
        return np.zeros(spec.d)
    px = x @ np.asarray(p, dtype=float)
    small = np.linalg.norm(x, axis=1) <= 1.0
    return lam * ((spec.probs / (1.0 + px) - spec.probs * small) @ x)


def _moments(spec, t=0.0, kappa=None):
    """The spec's moments at ``t``, the intensity read at ``kappa``."""
    return JumpMoments.at(spec, t, spec.intensity_at(t, kappa))


def _explicit_i1_i2(kappa, lam=1.5):
    """``I1 = lam sum_k w_k x_k / (1 + <kappa, x_k>)`` and
    ``I2 = lam sum_k w_k x_k 1{|x_k| <= 1}`` of ATOMS, summed term by term."""
    denom = 1.0 + ATOMS @ kappa
    i1 = lam * np.sum(PROBS[:, None] * ATOMS / denom[:, None], axis=0)
    small = np.linalg.norm(ATOMS, axis=1) <= 1.0
    i2 = lam * np.sum((PROBS * small)[:, None] * ATOMS, axis=0)
    return i1, i2


def _run(n_paths=200, seed=71, lam=1.5, **kw):
    grid = PathGrid(dt=1e-3, n_steps=500)
    return simulate_jump_balanced(
        ProcessSpec.constant(C3), _spec(lam), K3, grid, n_paths, seed, **kw)


def pair_step(x, w, small, i, j):
    """``(drift, integrand)``: the jump parts of the distance between ``i``
    and ``j`` from atoms ``x`` with weights ``w = lam * probs``, ``small``
    marking the atoms in the closed unit ball, one atom at a time."""
    drift = integrand = 0.0
    for xk, wk, sk in zip(x, w, small):
        if 1.0 + xk[i] <= 0.0 or 1.0 + xk[j] <= 0.0:
            y_small, y_sq = 0.0, 1.0
        else:
            y = math.log1p(xk[i]) - math.log1p(xk[j])
            y_small, y_sq = (y if abs(y) <= 1.0 else 0.0), min(1.0, y * y)
        drift += wk * (y_small - (xk[i] - xk[j]) * sk)
        integrand += wk * y_sq
    return drift, integrand


# ---------------------------------------------------------------------------
# compensator moments


def test_moment_functions_match_explicit_sums():
    kappa = np.array([0.6, 0.3, 0.1])
    m = _moments(_spec(), 0.3, kappa)
    i1_expected, i2_expected = _explicit_i1_i2(kappa)
    np.testing.assert_allclose((m.w / m.denominators(kappa)) @ m.x,
                               i1_expected, rtol=1e-12)
    np.testing.assert_allclose(m.w_small @ m.x, i2_expected, rtol=1e-12)
    np.testing.assert_allclose(m.gradient(kappa), i1_expected - i2_expected,
                               rtol=1e-12)


def test_growth_jump_term_matches_quadrature():
    spec = _spec()
    p = np.array([0.2, 0.5, 0.3])
    lam = 1.5
    small = np.linalg.norm(ATOMS, axis=1) <= 1.0
    inner = ATOMS @ p
    expected = lam * np.sum(
        PROBS * (np.log1p(inner) - inner * small))
    assert _moments(spec).log_term(p) == pytest.approx(expected, rel=1e-12)


def test_growth_jump_gradient_matches_finite_differences():
    spec = _spec()
    p = np.array([0.25, 0.45, 0.3])
    grad = growth_jump_gradient(spec, 0.0, p)
    m = _moments(spec)
    h = 1e-7
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (m.log_term(p + e) - m.log_term(p - e)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_log_ratio_terms_of_unit_vectors_match_the_atoms():
    """The distance's jump terms for every pair at once, also on atoms that
    kill one company (``1 + x_i = 0``), where ``y 1{|y| <= 1}`` is 0 and
    ``1 ∧ y^2`` is 1, and on atoms with ``|y|`` above 1."""
    atoms = np.array([[-1.0, 0.5, 0.2], [0.3, -0.2, 1.5], [0.1, 0.1, -0.4],
                      [0.05, -1.0, 0.0], [2.5, 0.0, 0.0]])
    probs = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    m = JumpMoments.at(_spec(atoms=atoms, probs=probs), 0.0, 2.0)
    iu, ju = np.triu_indices(3, 1)
    e = np.eye(3)
    got = m.log_ratio_drift(e[iu], e[ju]), m.log_ratio_integrand(e[iu], e[ju])
    small = np.linalg.norm(atoms, axis=1) <= 1.0
    for n, (i, j) in enumerate(zip(iu, ju)):
        want = pair_step(atoms, 2.0 * probs, small, i, j)
        assert got[0][n] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        assert got[1][n] == pytest.approx(want[1], rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# the moment evaluator


def test_callable_atoms_of_the_wrong_shape_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        JumpSpec.finite_atoms(1.0, 1.0, lambda t: np.ones((3, 2)) * 0.1,
                              [0.5, 0.5])
    good = np.array([[0.1, -0.1], [0.2, 0.0]])
    # three atoms for two probabilities, then three coordinates for two
    for bad in (np.ones((3, 2)) * 0.1, np.ones((2, 3)) * 0.1):
        spec = JumpSpec.finite_atoms(
            1.0, 1.0, lambda t, bad=bad: good if t == 0.0 else bad, [0.5, 0.5])
        assert spec.d == 2
        np.testing.assert_array_equal(JumpMoments.at(spec, 0.0, 1.0).x, good)
        with pytest.raises(DimensionMismatch):
            JumpMoments.at(spec, 0.5, 1.0)
        with pytest.raises(DimensionMismatch):
            drift_from_balance_jump([0.5, 0.5], np.zeros((2, 2)), spec, 0.0, 0.5)
        with pytest.raises(DimensionMismatch):
            simulate_jump_balanced(ProcessSpec.constant(np.zeros((2, 2))), spec,
                                   [0.5, 0.5], PathGrid(dt=0.1, n_steps=3), 2, 1)


def test_jump_domain_errors_are_typed():
    assert issubclass(JumpDomainError, BalmarketsError)
    assert issubclass(JumpDomainError, ValueError)
    # the first atom wipes out company 0: 1 + <e_0, x> = 0
    spec = _spec(atoms=np.array([[-1.0, 0.5, 0.2], [0.1, 0.1, 0.1]]),
                 probs=[0.5, 0.5])
    edge = np.array([1.0, 0.0, 0.0])
    with pytest.raises(JumpDomainError, match="annihilates"):
        rel_rate_of_return(K3, edge, np.zeros(3), C3, spec, 0.0)
    with pytest.raises(JumpDomainError, match="annihilates"):
        drift_from_balance_jump(edge, C3, spec, 0.0)
    # a row without jump activity may sit outside the domain
    m = JumpMoments.at(spec, 0.0, np.array([1.5, 0.0]))
    stack = np.array([edge, edge])
    assert m.domain(stack)[1].tolist() == [True, False]
    with pytest.raises(JumpDomainError):
        m.gradient(stack)
    assert not m.row(1)
    quiet = JumpMoments.at(spec, 0.0, np.zeros(2))
    assert not quiet.gradient(stack).any()


def _annihilating_engine_run(site):
    """A zero-covariance run that leaves the jump domain at one engine check:
    a live row at a step, or an accepted jump between grid times."""
    c0 = ProcessSpec.constant(np.zeros((2, 2)))
    if site == "live":
        spec = JumpSpec.finite_atoms(1.0, 1.0, [[-1.0, 0.0]], [1.0])
        return simulate_jump_balanced(c0, spec, [1.0, 0.0], PathGrid(1e-3, 1), 4, 1)
    # grid time 0 sees a harmless atom; candidates after 5e-4 see one that
    # wipes out company 0, which holds the whole market
    spec = JumpSpec.finite_atoms(
        2000.0, 2000.0,
        lambda t: np.array([[0.5, 0.0]] if t <= 5e-4 else [[-1.0, 0.0]]), [1.0])
    return simulate_jump_balanced(c0, spec, [1.0, 0.0], PathGrid(1e-3, 1), 16, 1)


@pytest.mark.parametrize("site", ["live", "accepted"])
def test_engine_domain_errors_are_typed(site):
    with pytest.raises(JumpDomainError, match="annihilates the whole market"):
        _annihilating_engine_run(site)


def test_diagnostics_read_the_jump_law_once_per_stored_time():
    """One atom evaluation per stored time and call, and one state
    intensity read per active row, also where rows are solved."""
    calls = Counter()

    def atoms(t):
        calls["atoms"] += 1
        return ATOMS * (1.0 + t)

    def intensity(t, k):
        calls["intensity"] += 1
        return 1.0 + k[0]

    spec = JumpSpec.finite_atoms(
        ProcessSpec.state_function(intensity), 2.0, atoms, PROBS)
    ps, rec = simulate_jump_balanced(ProcessSpec.constant(C3), spec, K3,
                                     PathGrid(dt=1e-3, n_steps=100), 4, 5,
                                     store_every=20)
    steps = ps.kappa.shape[1] - 1
    skew = {"a_spec": ProcessSpec.constant(np.array([0.8, -0.2, 0.0])),
            "r_spec": ProcessSpec.constant(0.0)}
    for kw in ({"a_spec": None}, skew):
        calls.clear()
        L = loss_of_balance(ps, **kw, jump_spec=spec, lifetimes=rec).L_path
        assert calls == {"atoms": steps, "intensity": 4 * steps}
        assert (L[:, -1] > 0.0).all() == (kw is skew)
        calls.clear()
        D = distance_matrix(ps, kw["a_spec"], r_spec=kw.get("r_spec"),
                            jump_spec=spec, lifetimes=rec)
        assert D.values[np.triu_indices(3, 1)].min() > 0.0
        assert calls == {"atoms": steps, "intensity": steps}


def test_engine_reads_a_constant_intensity_once(monkeypatch):
    """A constant intensity is read and range-checked once per run; a time
    table once per step and per thinning candidate.  The paths are the same."""
    reads = Counter()
    read = JumpSpec.intensity_at

    def counting(self, t, kappa=None):
        reads[self.intensity.kind] += 1
        return read(self, t, kappa)

    grid = PathGrid(dt=1e-3, n_steps=50)
    flat = JumpSpec.finite_atoms(1.5, 1.5, ATOMS, PROBS)
    table = JumpSpec.finite_atoms(
        ProcessSpec.time_table([0.0, 1.0], [1.5, 1.5]), 1.5, ATOMS, PROBS)
    monkeypatch.setattr(JumpSpec, "intensity_at", counting)
    runs = [simulate_jump_balanced(ProcessSpec.constant(C3), spec, K3, grid,
                                   3, 11)[0] for spec in (flat, table)]
    candidates = runs[1].diagnostics.n_jump_candidates
    assert candidates > 0
    assert reads == {flat.intensity.kind: 1,
                     table.intensity.kind: 50 + candidates}
    assert np.array_equal(runs[0].kappa, runs[1].kappa)
    over = JumpSpec.finite_atoms(2.0, 1.5, ATOMS, PROBS)
    with pytest.raises(JumpLawError, match="leaves"):
        simulate_jump_balanced(ProcessSpec.constant(C3), over, K3, grid, 3, 11)


def test_death_example_reads_its_law_once_per_step_and_jump(monkeypatch):
    """Without diffusion the atoms are read once when the law is built, once
    per step with positive intensity and once per accepted jump; the
    intensity at most once per step and per candidate, plus one."""
    reads = Counter()

    def atoms(t):
        reads["atoms"] += 1
        return jump_markets._example_size(t)

    t_death = jump_markets._T_DEATH
    table = ProcessSpec.time_table(
        [0.0, t_death - 1e-9, t_death, t_death + 1.0], [1.0, 1.0, 0.0, 0.0])
    grid = PathGrid(dt=2e-3, n_steps=750)
    active = sum(table(grid.t0 + s * grid.dt) > 0.0 for s in range(grid.n_steps))
    call = ProcessSpec.__call__

    def counting(self, t, kappa=None):
        reads["intensity"] += self is table
        return call(self, t, kappa)

    monkeypatch.setattr(ProcessSpec, "__call__", counting)
    spec = JumpSpec.finite_atoms(table, 1.0, atoms, [1.0], max_jumps=1)
    diag = simulate_jump_balanced(
        ProcessSpec.constant(np.zeros((2, 2))), spec, np.array([0.5, 0.5]),
        grid, 40, 23, store_every=5)[0].diagnostics
    assert 0 < diag.n_jumps_accepted < 40 and 0 < active < grid.n_steps
    assert reads["atoms"] == 1 + active + diag.n_jumps_accepted
    assert reads["intensity"] <= grid.n_steps + diag.n_jump_candidates + 1


def test_batched_gradient_matches_the_reference_row_by_row():
    """A stack with per-row intensities, zero on inactive rows and a state
    intensity elsewhere, and rows up to 1e-9 from the domain's edge."""
    atoms = np.array([[-1.0, 0.5, 0.2], [0.3, -0.2, 1.5], [0.1, 0.1, -0.4]])
    spec = JumpSpec.finite_atoms(
        ProcessSpec.state_function(lambda t, k: 1.0 + 3.0 * k[1]), 4.0,
        atoms, [0.3, 0.3, 0.4])
    eps = 10.0 ** -np.arange(3.0, 10.0)
    stack = np.vstack([np.random.default_rng(7).dirichlet(np.ones(3), 12),
                       np.column_stack([1.0 - eps, eps / 2.0, eps / 2.0])])
    active = np.arange(len(stack)) % 3 != 0
    m = JumpMoments.of_rows(spec, 0.2, stack, active)
    assert (m.lam[active] > 0.0).all() and not m.lam[~active].any()
    den, out = m.domain(stack)
    assert not out.any() and den.min() < 1e-8
    grad = m.gradient(stack)
    for p, row in enumerate(stack):
        want = growth_jump_gradient(spec, 0.2, row, row) if active[p] else 0.0
        np.testing.assert_allclose(grad[p], want, rtol=1e-12, atol=0.0)
        if active[p]:
            np.testing.assert_allclose(m.row(p).gradient(row), want,
                                       rtol=1e-12, atol=0.0)


def test_atoms_below_minus_one_are_rejected():
    with pytest.raises(Exception):
        JumpSpec.finite_atoms(
            ProcessSpec.constant(1.0), lam_max=1.0,
            atoms=np.array([[-1.5, 0.0]]), probs=[1.0])


def test_intensity_exceeding_bound_is_rejected():
    grid = PathGrid(dt=1e-3, n_steps=10)
    spec = JumpSpec.finite_atoms(
        ProcessSpec.constant(2.0), lam_max=1.0,
        atoms=np.array([[0.1, -0.1]]), probs=[1.0])
    with pytest.raises(Exception):
        simulate_jump_balanced(
            ProcessSpec.constant(np.zeros((2, 2))), spec,
            [0.5, 0.5], grid, 4, 5)


# ---------------------------------------------------------------------------
# engine invariants


def test_jump_paths_stay_on_the_simplex():
    ps, rec = _run()
    assert np.all(ps.kappa >= 0.0)
    assert np.abs(ps.kappa.sum(axis=2) - 1.0).max() < 1e-12


def test_zero_intensity_reproduces_continuous_engine_bitwise():
    grid = PathGrid(dt=1e-3, n_steps=300)
    spec = JumpSpec.finite_atoms(
        ProcessSpec.constant(0.0), lam_max=1e-12,
        atoms=np.array([[0.1, 0.0, 0.0]]), probs=[1.0])
    with_jumps, rec = simulate_jump_balanced(
        ProcessSpec.constant(C3), spec, K3, grid, 50, 77)
    plain = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 50, 77)
    np.testing.assert_array_equal(with_jumps.kappa, plain.kappa)
    assert rec.jump_count.sum() == 0
    assert np.all(rec.death_mode == ALIVE)


def test_balanced_engine_starts_in_the_open_simplex():
    grid = PathGrid(dt=1e-3, n_steps=1000)
    k0 = np.array([0.6, 0.4, 0.0])
    with pytest.raises(InconsistentInitialState, match="open simplex"):
        simulate_relative_caps_balanced(ProcessSpec.constant(C3), k0, grid, 8, 3)
    # the jump engine it runs on takes a dead company from the start
    empty = JumpSpec.finite_atoms(0.0, 0.0, np.zeros((1, 3)), [1.0])
    ps, rec = simulate_jump_balanced(ProcessSpec.constant(C3), empty, k0, grid, 8, 3)
    assert np.all(ps.kappa[:, :, 2] == 0.0)
    assert np.all(rec.death_mode[:, 2] == CONTINUOUS_VANISH)
    # without diffusion the weights hold kappa0 bit for bit
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(np.zeros((3, 3))), K3, grid, 8, 3)
    np.testing.assert_array_equal(ps.kappa, np.broadcast_to(K3, ps.kappa.shape))


@pytest.mark.parametrize("max_jumps", [None, 1])
def test_seed_reproducibility_and_thread_invariance(max_jumps):
    spec = JumpSpec.finite_atoms(1.5, 1.5, ATOMS, PROBS, max_jumps=max_jumps)
    (a, rec_a), (b, rec_b) = (simulate_jump_balanced(
        ProcessSpec.constant(C3), spec, K3, PathGrid(dt=1e-3, n_steps=500),
        200, 99, n_threads=n) for n in (1, 3))
    np.testing.assert_array_equal(a.kappa, b.kappa)
    for f in dataclasses.fields(LifetimeRecord):
        np.testing.assert_array_equal(getattr(rec_a, f.name), getattr(rec_b, f.name))
    for f in dataclasses.fields(EngineDiagnostics):
        np.testing.assert_array_equal(getattr(a.diagnostics, f.name),
                                      getattr(b.diagnostics, f.name))
    # a one-jump budget leaves some paths spent under diffusion
    assert (max_jumps is None) == np.isinf(rec_a.budget_exhausted_time).all()


def test_spent_rows_leave_the_compensator_under_diffusion(monkeypatch):
    """A path that has spent its budget is outside its law: the compensator
    factor of each step receives the paths still live at its start, and
    none of the others."""
    sizes = []
    factor = jump_markets._compensator_factor

    def spy(kl, *args):
        sizes.append(len(kl))
        return factor(kl, *args)

    monkeypatch.setattr(jump_markets, "_compensator_factor", spy)
    grid = PathGrid(dt=1e-3, n_steps=400)
    spec = JumpSpec.finite_atoms(5.0, 5.0, ATOMS, PROBS, max_jumps=1)
    _, rec = simulate_jump_balanced(ProcessSpec.constant(C3), spec, K3, grid, 40, 5)
    spent = rec.budget_exhausted_time
    live = [int(np.count_nonzero(spent > grid.t0 + s * grid.dt))
            for s in range(grid.n_steps)]
    # most paths spend their budget, never all of them
    assert live[0] == 40 and 2 <= live[-1] < 20
    assert sizes == live


def test_compensated_jumps_leave_weights_a_martingale():
    """E[kappa_T] = kappa_0: z-test on each coordinate."""
    ps, _ = _run(n_paths=4000, seed=101, lam=3.0)
    terminal = ps.kappa[:, -1, :]
    mean = terminal.mean(axis=0)
    se = terminal.std(axis=0, ddof=1) / np.sqrt(len(terminal))
    z = np.abs(mean - K3) / np.maximum(se, 1e-12)
    assert z.max() < 4.0


def test_accepted_jump_count_tracks_the_compensator():
    """Total arrivals over the ensemble stay within 3 SE of rate * time."""
    lam, horizon, n = 1.5, 0.5, 2000
    _, rec = _run(n_paths=n, seed=211, lam=lam)
    total = int(rec.jump_count.sum())
    expected = lam * horizon * n
    assert abs(total - expected) <= 3.0 * np.sqrt(expected)


def test_jump_to_zero_death_is_recorded():
    # the single atom sends company 2 to -1, so any accepted jump kills
    # it; compensating that jump pushes the weight up between arrivals,
    # so the intensity gates off before the lethal region at kappa_2 = 1
    atoms = np.array([[0.5, -1.0]])
    lam = ProcessSpec.state_function(
        lambda t, k: 5.0 if k[1] <= 0.8 else 0.0)
    spec = JumpSpec.finite_atoms(lam, lam_max=5.0, atoms=atoms, probs=[1.0])
    grid = PathGrid(dt=1e-3, n_steps=400)
    ps, rec = simulate_jump_balanced(
        ProcessSpec.constant(np.zeros((2, 2))), spec,
        [0.5, 0.5], grid, 200, 103)
    died = rec.died(1)
    assert died.mean() > 0.3
    assert np.all(rec.death_mode[died, 1] == JUMP_TO_ZERO)
    assert np.all(np.isfinite(rec.zeta[died, 1]))
    # weight is frozen at zero from death onward
    times = ps.times()
    for p in np.flatnonzero(died)[:10]:
        after = times >= rec.zeta[p, 1]
        assert np.all(ps.kappa[p, after, 1] == 0.0)
        assert np.all(ps.kappa[p, after, 0] == 1.0)


def test_continuous_vanish_death_is_recorded():
    res = example_death_of_company(PathGrid(dt=1e-3, n_steps=1500), 300, 63)
    rec = res["lifetimes"]
    died = rec.died(1)
    cv = rec.death_mode[died, 1] == CONTINUOUS_VANISH
    assert cv.all()
    # death detection resolves to one step: O(dt) at this resolution
    assert res["death_time_err"] <= 2e-3
    # the distance reads the same death times: it refuses a path that lost
    # company 2 and walks one that kept both
    ps, spec = res["path_set"], res["jump_spec"]
    with pytest.raises(ValueError, match="company 1 is dead at t="):
        distance_matrix(ps, None, path_index=int(np.flatnonzero(died)[0]),
                        jump_spec=spec, lifetimes=rec)
    distance_matrix(ps, None, path_index=int(np.flatnonzero(~died)[0]),
                    jump_spec=spec, lifetimes=rec)


def test_death_fraction_matches_exact_rate():
    res = example_death_of_company(PathGrid(dt=1e-3, n_steps=1500), 2000, 107)
    frac = res["dying_fraction"]
    se = res["dying_fraction_se"]
    assert abs(frac - 0.25) <= 4.0 * se
    assert res["sup_error"] <= 5e-4


def test_death_example_check_holds_little_beyond_the_path_set(monkeypatch,
                                                              peak_above):
    grid = PathGrid(dt=1e-3, n_steps=1500)
    ref = example_death_of_company(grid, 2048, 1, store_every=10)
    run = (ref["path_set"], ref["lifetimes"])
    # trace the analytic check alone: the engine hands back the same run
    monkeypatch.setattr(jump_markets, "simulate_jump_balanced",
                        lambda *args, **kwargs: run)
    rep, above = peak_above(
        lambda: example_death_of_company(grid, 2048, 1, store_every=10),
        lambda rep: ())
    assert rep["sup_error"] == ref["sup_error"]
    # the whole-ensemble comparison held about three (paths, stored) arrays
    # beside the 4.9 MB path set, about 7 MiB
    assert above <= 2**20, above / 2**20


# ---------------------------------------------------------------------------
# growth optimality with jumps


def test_no_jump_measure_recovers_quadratic_solver():
    rng = np.random.default_rng(109)
    b = rng.standard_normal(3)
    rho_j, g_j = growth_optimal_jump(b, C3, 0.02, None)
    rho, g_star = growth_optimal_constrained(
        b, C3, 0.02, ConstraintSet.closed_simplex())
    np.testing.assert_allclose(rho_j, rho, atol=1e-8)
    assert g_j == pytest.approx(g_star, abs=1e-8)


def test_jump_solution_dominates_lattice():
    spec = _spec(lam=2.0)
    b = np.array([0.1, -0.05, 0.2])
    rho, g_star = growth_optimal_jump(b, C3, 0.0, spec)

    def objective(p):
        return growth_rate(p, b, C3, 0.0) + _moments(spec).log_term(p)

    assert g_star == pytest.approx(objective(rho), abs=1e-8)
    rng = np.random.default_rng(211)
    for _ in range(300):
        p = rng.dirichlet(np.ones(3))
        assert objective(p) <= g_star + 1e-6


def test_support_mask_restricts_to_living_companies():
    spec = _spec(lam=1.0)
    b = np.array([0.1, 0.3, 0.2])
    support = np.array([True, False, True])
    rho, _ = growth_optimal_jump(b, C3, 0.0, spec, support=support)
    assert rho[1] == 0.0
    assert abs(rho.sum() - 1.0) < 1e-9


def test_balanced_drift_formula_consistency():
    spec = _spec()
    kappa = np.array([0.5, 0.3, 0.2])
    b = drift_from_balance_jump(kappa, C3, spec, 0.04)
    i1, i2 = _explicit_i1_i2(kappa)
    expected = C3 @ kappa + 0.04 - i1 + i2
    np.testing.assert_allclose(b, expected, rtol=1e-12)


def test_rel_rate_is_zero_against_self():
    spec = _spec()
    pi = np.array([0.3, 0.3, 0.4])
    assert rel_rate_of_return(pi, pi, np.array([0.1, 0.0, 0.2]),
                              C3, spec, 0.01) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# diagnostics on jump paths


def test_balanced_jump_market_accrues_no_loss():
    ps, rec = _run(n_paths=60, seed=113, store_every=50)
    L = loss_of_balance(ps, None, jump_spec=_spec(), lifetimes=rec).L_path
    assert L.shape == (60, 11)
    assert np.abs(L).max() <= 1e-8


def test_loss_positive_under_wrong_drift():
    ps, rec = _run(n_paths=10, seed=127, store_every=50)
    skew = ProcessSpec.constant(np.array([0.8, -0.2, 0.0]))
    L = loss_of_balance(ps, skew, ProcessSpec.constant(0.0), jump_spec=_spec(),
                        lifetimes=rec).L_path
    assert L[:, -1].min() > 0.0
    assert np.all(np.diff(L, axis=1) >= -1e-12)


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "per_path"])
def test_negative_loss_increment_raises_solver_failure(monkeypatch, batched):
    """An optimizer answer worse than kappa is an error, not a zero."""
    ps, rec = _run(n_paths=4, seed=127, store_every=50)
    worst = np.array([0.0, 1.0, 0.0])
    monkeypatch.setattr(balance_diag, "growth_optimal_jump",
                        lambda *args, **kw: (worst, 0.0))
    if batched:
        kernel = balance_diag._growth_optimal_rows

        def certify_none(*args):
            ok, row = kernel(*args)
            return np.zeros_like(ok), row

        monkeypatch.setattr(balance_diag, "_growth_optimal_rows", certify_none)
        kw = {"a_spec": None}
    else:
        kw = {"a_spec": ProcessSpec.constant(np.array([0.8, -0.2, 0.0])),
              "r_spec": ProcessSpec.constant(0.0)}
    with pytest.raises(SolverFailure, match="growth gap fell"):
        loss_of_balance(ps, **kw, jump_spec=_spec(), lifetimes=rec)


def test_zero_intensity_jump_loss_is_the_continuous_loss():
    """With no active jump measure the generalized loss is the integral of
    g* - g^kappa, on the same paths, drift and rate."""
    grid = PathGrid(dt=1e-3, n_steps=200)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 20, 29, store_every=10)
    spec = _spec(lam=0.0, lam_max=1.0)
    rate = ProcessSpec.constant(0.02)
    balanced = ProcessSpec.state_function(lambda t, k: C3 @ k + 0.02)
    for drift in (None, balanced):
        assert not loss_of_balance(ps, drift, rate, jump_spec=spec).L_path.any()
        assert not loss_of_balance(ps, drift, rate).L_path.any()
    tilted = ProcessSpec.state_function(
        lambda t, k: C3 @ k + 0.02 + k[0] * np.array([0.3, -0.2, 0.05]))
    L_jump = loss_of_balance(ps, tilted, rate, jump_spec=spec).L_path
    L = loss_of_balance(ps, tilted, rate).L_path
    assert L[:, -1].min() > 0.0
    np.testing.assert_allclose(L_jump, L, rtol=0.0, atol=1e-12)


def test_jump_loss_rejects_a_box_constraint():
    ps, rec = _run(n_paths=2, seed=113, store_every=50)
    box = ConstraintSet.box_hyperplane([-0.5] * 3, [1.5] * 3)
    with pytest.raises(ValueError, match="closed simplex"):
        loss_of_balance(ps, None, jump_spec=_spec(), lifetimes=rec,
                        constraint=box)


def _simplex_max(q, c):
    """``max <q, p> - <p, c p> / 2`` over the closed simplex, by brute force.

    Takes the least-squares stationary point of every face that lies in the
    face.  A maximizer of least support is the only stationary point of its
    face, and every candidate is feasible, so the best candidate is the
    maximum, also where the active-set solver stalls on a nearly flat face.
    """
    d = len(q)
    best = -np.inf
    for k in range(1, d + 1):
        for face in itertools.combinations(range(d), k):
            s = list(face)
            m = np.ones((k + 1, k + 1))
            m[:k, :k] = c[np.ix_(s, s)]
            m[k, k] = 0.0
            z = np.linalg.lstsq(m, np.append(q[s], 1.0), rcond=None)[0][:k]
            if z.min() >= 0.0 and z.sum() > 0.0:
                p = np.zeros(d)
                p[s] = z / z.sum()
                best = max(best, q @ p - 0.5 * p @ c @ p)
    return best


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
def test_certified_rows_lose_no_growth(seed, jumps):
    """A row the shared certificate accepts, solved anyway, has a loss rate
    within the certificate's tolerance: PSD c of any rank, states with zero
    coordinates, drifts tilted off balance by rounding level up to order
    one, with and without an active jump law.  The continuous optimum is
    found by brute force; the jump optimizer runs its own stopping test
    from kappa, as the jump loss does."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    f = rng.standard_normal((d, int(rng.integers(0, d + 1))))
    c = f @ f.T * rng.uniform(0.01, 0.4)
    r = float(rng.uniform(-0.05, 0.05))
    n = 12
    kappa = rng.dirichlet(np.ones(d), size=n)
    kappa[: n // 2, rng.integers(d)] = 0.0
    kappa /= kappa.sum(axis=1, keepdims=True)
    spec = None
    if jumps:
        k = int(rng.integers(1, 4))
        spec = _spec(lam=rng.uniform(0.2, 5.0),
                     atoms=rng.uniform(-0.95, 2.0, (k, d)),
                     probs=rng.dirichlet(np.ones(k)))
    tilt = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-16.0, 0.0, (n, 1))
    tilt[0] = 0.0
    drift = {}  # equal states (vertices) take the first one's tilt
    for kap, tl in zip(kappa, tilt):
        base = c @ kap + r if spec is None else drift_from_balance_jump(kap, c, spec, r)
        drift.setdefault(kap.tobytes(), base + tl)
    moments = None if spec is None else JumpMoments.of_rows(
        spec, 0.0, kappa, np.ones(n, dtype=bool))
    ok, row = jump_markets._growth_optimal_rows(
        kappa, 0.0, moments, ProcessSpec.constant(c),
        ProcessSpec.state_function(lambda t, k: drift[k.tobytes()]),
        ProcessSpec.constant(r))
    assert ok[0]
    for p in np.flatnonzero(ok):
        b, _, _, nu = row(p)
        kap = kappa[p]
        grad = (b - r) - c @ kap
        support = np.ones(d, dtype=bool)
        if spec is None:
            q = b - r
            loss = _simplex_max(q, c) - (q @ kap - 0.5 * kap @ c @ kap)
        else:
            grad += growth_jump_gradient(spec, 0.0, kap)
            support = kap > DEATH_THRESHOLD
            # solved as the jump loss solves a path's first row: from kappa
            rho, _ = growth_optimal_jump(b, c, r, nu, support=support,
                                         warm_start=kap, kappa_state=kap)
            loss = (-rel_rate_of_return(kap, rho, b, c, nu, r)
                    + 0.5 * (kap - rho) @ c @ (kap - rho)
                    + nu.log_ratio_integrand(kap, rho))
        assert loss <= _GAP_RTOL * (1.0 + np.abs(grad[support]).max())


def test_pairwise_distance_symmetric_and_positive():
    ps, rec = _run(n_paths=3, seed=131, store_every=50)
    for p in range(3):
        v = distance_matrix(ps, None, path_index=p, jump_spec=_spec(),
                            lifetimes=rec).values
        assert np.array_equal(v, v.T)
        assert not np.diag(v).any()
        assert v[np.triu_indices(3, 1)].min() > 0.0


def test_indistinguishable_companies_have_zero_distance():
    # comonotone noise (rank-one c), equal weights, equal jump exposure:
    # every term of the divergence integrand cancels
    c = np.array([[0.04, 0.04], [0.04, 0.04]])
    spec = JumpSpec.finite_atoms(
        ProcessSpec.constant(1.0), lam_max=1.0,
        atoms=np.array([[0.2, 0.2]]), probs=[1.0])
    grid = PathGrid(dt=1e-3, n_steps=100)
    ps, rec = simulate_jump_balanced(
        ProcessSpec.constant(c), spec, [0.5, 0.5], grid, 1, 137)
    # freeze the path at the symmetric state to isolate the integrand
    ps.kappa[:] = 0.5
    d01 = distance_matrix(ps, None, jump_spec=spec, lifetimes=rec).values[0, 1]
    assert d01 == pytest.approx(0.0, abs=1e-12)


def test_distance_calls_no_growth_solver(monkeypatch):
    ps, rec = _run(n_paths=3, seed=131, store_every=50)
    want = distance_matrix(ps, None, jump_spec=_spec(), lifetimes=rec).values

    def refuse(*args, **kw):
        raise AssertionError("the distance called a growth solver")

    for mod, name in [(jump_markets, "growth_optimal_jump"),
                      (jump_markets, "_growth_optimal_rows"),
                      (balance_diag, "_growth_optimal_rows"),
                      (jump_markets, "growth_optimal_constrained"),
                      (balance_diag, "growth_optimal_constrained")]:
        monkeypatch.setattr(mod, name, refuse)
    got = distance_matrix(ps, None, jump_spec=_spec(), lifetimes=rec).values
    assert np.array_equal(got, want)
    skew = ProcessSpec.constant(np.array([0.8, -0.2, 0.0]))
    got = distance_matrix(ps, skew, jump_spec=_spec(), lifetimes=rec).values
    assert got[np.triu_indices(3, 1)].min() > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["balanced", "tilted", "constant", "time_table"]),
       st.booleans())
def test_zero_intensity_jump_distance_is_the_continuous_distance(
        seed, drift, idle_law):
    """A jump law with zero intensity gives the continuous matrix bit for
    bit: with ``lam_max = 0``, and for drifts that are walked also with a
    positive ``lam_max``, the law then being read at every stored step."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    f = rng.standard_normal((d, d))
    c = f @ f.T * rng.uniform(0.01, 0.3) + 0.01 * np.eye(d)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(c), rng.dirichlet(np.ones(d) * 4.0),
        PathGrid(dt=1e-2, n_steps=40), 2, seed % 1000,
        store_every=int(rng.integers(1, 6)))
    tilt = rng.standard_normal(d)
    rate = ProcessSpec.constant(float(rng.uniform(-0.05, 0.05)))
    a_spec = {
        "balanced": None,
        "tilted": ProcessSpec.state_function(lambda t, k: c @ k + k[0] * tilt),
        "constant": ProcessSpec.constant(tilt),
        "time_table": ProcessSpec.time_table([0.0, 0.2], [tilt, -tilt]),
    }[drift]
    lam_max = 0.0 if idle_law or drift == "constant" else 1.0
    spec = _spec(lam=0.0, atoms=rng.uniform(-0.9, 2.0, (2, d)),
                 probs=[0.5, 0.5], lam_max=lam_max)
    horizon = None if rng.uniform() < 0.5 else float(rng.uniform(0.0, 0.4))
    want = distance_matrix(ps, a_spec, r_spec=rate, horizon=horizon,
                           path_index=1).values
    got = distance_matrix(ps, a_spec, r_spec=rate, horizon=horizon,
                          path_index=1, jump_spec=spec).values
    assert np.array_equal(got, want)
    assert want[0, 1] > 0.0 or horizon == 0.0


def test_accepted_jump_takes_the_atoms_of_its_own_time():
    # every candidate is accepted and spends the one-jump budget; without
    # diffusion the path then stays at its post-jump state.  The atoms grow
    # across a step, so the atoms the engine evaluates at the step's grid
    # times would give a different state from atoms(tau).
    def atoms(t):
        return np.array([[0.0, 1.0 + 4.0 * t]])

    spec = JumpSpec.finite_atoms(2.0, lam_max=2.0, atoms=atoms, probs=[1.0],
                                 max_jumps=1)
    grid = PathGrid(dt=0.1, n_steps=5)
    ps, rec = simulate_jump_balanced(ProcessSpec.constant(np.zeros((2, 2))),
                                     spec, [0.5, 0.5], grid, 200, 8)
    tau = rec.first_jump_time
    never = np.flatnonzero(np.isnan(tau))
    jumped = np.flatnonzero(~np.isnan(tau))
    assert never.size and jumped.size > 100
    # the unjumped cohort carries the state each jump starts from
    base = ps.kappa[never[0]]
    times = ps.times()
    for p in jumped:
        s = int(np.searchsorted(times, tau[p])) - 1  # tau in (t_s, t_s+1]
        pre = base[s + 1]

        def post(x):
            k = pre * (1.0 + x) / (1.0 + pre @ x)
            return k / k.sum()

        np.testing.assert_allclose(ps.kappa[p, -1], post(atoms(tau[p])[0]),
                                   rtol=1e-14)
        for t_grid in (times[s], times[s + 1]):
            if abs(t_grid - tau[p]) > 1e-3:
                err = np.abs(ps.kappa[p, -1] - post(atoms(t_grid)[0])).max()
                assert err > 1e-6


def test_unconverged_jump_optimizer_raises(monkeypatch):
    # this problem takes four Newton steps; after one the relative
    # Frank-Wolfe gap is about 0.05
    spec = _spec(lam=2.0)
    b = np.array([0.1, -0.05, 0.2])
    monkeypatch.setattr(jump_markets, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverFailure, match=r"iteration 1 .* gap of 4\.968e-02"):
        growth_optimal_jump(b, C3, 0.0, spec)
    monkeypatch.undo()
    rho, _ = growth_optimal_jump(b, C3, 0.0, spec)
    assert abs(rho.sum() - 1.0) < 1e-9


def test_state_intensity_is_read_once_at_kappa_state():
    b = np.array([0.1, -0.05, 0.2])
    kap = np.array([0.37, 0.41, 0.22])
    state = JumpSpec.finite_atoms(
        ProcessSpec.state_function(lambda t, k: 1.0 + 2.0 * k[0]),
        lam_max=3.0, atoms=ATOMS, probs=PROBS)
    with pytest.raises(ValueError, match="kappa_state"):
        growth_optimal_jump(b, C3, 0.0, state)
    rho, g_star = growth_optimal_jump(b, C3, 0.0, state, kappa_state=kap)
    fixed = _spec(lam=1.0 + 2.0 * kap[0], lam_max=3.0)
    rho_fixed, g_fixed = growth_optimal_jump(b, C3, 0.0, fixed)
    assert np.array_equal(rho, rho_fixed)
    assert g_star == g_fixed


def _random_jump_problem(rng):
    """d = 2-5, PSD c of any rank, 1-3 atoms in [-0.95, 2], intensity
    0.2-5, and one dead company in 30% of the supports when d > 2."""
    d = int(rng.integers(2, 6))
    f = rng.standard_normal((d, int(rng.integers(0, d + 1))))
    f *= rng.uniform(0.1, 0.6)
    c = f @ f.T
    k = int(rng.integers(1, 4))
    lam = rng.uniform(0.2, 5.0)
    spec = _spec(lam=lam, atoms=rng.uniform(-0.95, 2.0, (k, d)),
                 probs=rng.dirichlet(np.ones(k)))
    b = rng.normal(0.05, 0.3, d)
    r = rng.uniform(0.0, 0.05)
    support = np.ones(d, dtype=bool)
    if d > 2 and rng.uniform() < 0.3:
        support[rng.integers(d)] = False
    return b, c, r, spec, support


def test_jump_optimizer_converges_on_random_problems():
    """Every problem ends at a relative Frank-Wolfe gap of at most 1e-10
    and beats every living vertex and the uniform portfolio."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        b, c, r, spec, support = _random_jump_problem(rng)
        rho, g_star = growth_optimal_jump(b, c, r, spec, support=support)

        def objective(p):
            return growth_rate(p, b, c, r) + _moments(spec).log_term(p)

        grad = (b - r) - c @ rho + growth_jump_gradient(spec, 0.0, rho)
        scale = 1.0 + np.abs(grad[support]).max()
        assert simplex_gap(grad, rho, support) <= 1e-10 * scale
        assert np.all(rho[~support] == 0.0)
        slack = 1e-12 * (1.0 + abs(g_star))
        for p in [*np.eye(len(b))[support], support / support.sum()]:
            assert g_star >= objective(p) - slack
