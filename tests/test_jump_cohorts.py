"""Zero-diffusion jump markets: cohort stepping against a per-row loop.

Without diffusion the jump engine stores and steps each distinct state
(cohort) once.  These tests pin that to a loop that keeps one state per
path and steps every path, the way the engine worked before paths shared
states, and check that a path with a spent jump budget is outside its law:
nothing of the law is read or checked at its state.
"""

import dataclasses

import numpy as np
import pytest

from balmarkets import jump_markets
from balmarkets.balance_diag import loss_of_balance
from balmarkets.errors import JumpLawError
from balmarkets.jump_markets import (
    ALIVE,
    CONTINUOUS_VANISH,
    DEATH_THRESHOLD,
    JUMP_TO_ZERO,
    JumpSpec,
    LifetimeRecord,
    _T_DEATH,
    _example_size,
    simulate_jump_balanced,
)
from balmarkets.market_model import PathGrid, ProcessSpec
from balmarkets.sde_engine import (
    STREAM_JUMP,
    EngineDiagnostics,
    _stored_steps,
    path_generator,
)
from test_balanced_kernel import frozen_renormalize_log


def _per_row_reference(spec, kappa0, grid, n_paths, seed, store_every):
    """The zero-diffusion jump engine with one state row per path.

    Every step evaluates the compensator on all rows at once and thins each
    path's candidates on its own jump stream; returns the arrays of
    ``simulate_jump_balanced`` for one chunk of ``n_paths`` rows, and the
    diagnostics of its renormalizations.  It renormalizes with the frozen
    row-major kernel, so it does not share the engine's arithmetic.  A path
    that has spent its budget has zero intensity: its intensity is not read
    and its state leaves the jump domain unchecked.
    """
    kappa0 = kappa0 / kappa0.sum()
    d = len(kappa0)
    n = n_paths
    lam_max = spec.lam_max
    budget = spec.max_jumps
    state_intensity = spec.intensity.depends_on_state()
    stored = _stored_steps(grid.n_steps, store_every)
    stored_pos = {int(s): i for i, s in enumerate(stored)}
    kappa_out = np.empty((n, len(stored), d))
    zeta = np.full((n, d), np.inf)
    mode = np.full((n, d), ALIVE, dtype="<U16")
    jump_count = np.zeros(n, dtype=np.int64)
    first_jump = np.full(n, np.nan)
    budget_out = np.full(n, np.inf)
    if budget == 0:
        budget_out[:] = grid.t0
    jgens = [path_generator(seed, STREAM_JUMP, p) for p in range(n)]
    next_tau = np.full(n, np.inf)
    if lam_max > 0.0 and (budget is None or budget > 0):
        for i in range(n):
            next_tau[i] = grid.t0 + jgens[i].exponential(1.0 / lam_max)
    with np.errstate(divide="ignore"):
        logk = np.tile(np.where(kappa0 > 0.0, np.log(kappa0), -np.inf), (n, 1))
    for i0 in np.flatnonzero(kappa0 == 0.0):
        zeta[:, i0] = grid.t0
        mode[:, i0] = CONTINUOUS_VANISH
    kappa = np.tile(kappa0, (n, 1))
    kappa_out[:, 0] = kappa0
    diag = EngineDiagnostics(prerenorm_row_sums=np.zeros(n))
    for s in range(grid.n_steps):
        t = grid.t0 + s * grid.dt
        t_end = grid.t0 + (s + 1) * grid.dt
        lam_t = None if state_intensity else spec.intensity_at(t)
        if lam_t is None or lam_t > 0.0:
            x_t = spec.atoms_at(t)
            denom = 1.0 + kappa @ x_t.T
            lam_rows = np.zeros((n, 1))
            for i in range(n):
                if budget is None or jump_count[i] < budget:
                    lam_rows[i] = (spec.intensity_at(t, kappa[i])
                                   if lam_t is None else lam_t)
            bad = (denom <= 0.0).any(axis=1)
            if np.any(bad & (lam_rows[:, 0] > 0.0)):
                raise ValueError("jump size annihilates the whole market")
            denom[bad] = 1.0
            i1 = lam_rows * ((spec.probs / denom) @ x_t)
            comp = i1 - np.einsum("ij,ij->i", kappa, i1)[:, None]
            factor = 1.0 - comp * grid.dt
            knew = kappa * factor
            rows = np.flatnonzero((knew != kappa).any(axis=1))
            if rows.size:
                ksub = knew[rows]
                dying = (ksub < DEATH_THRESHOLD) & (kappa[rows] > 0.0)
                for rr, cc in zip(*np.nonzero(dying)):
                    zeta[rows[rr], cc] = t_end
                    mode[rows[rr], cc] = CONTINUOUS_VANISH
                ksub[dying] = 0.0
                with np.errstate(divide="ignore"):
                    lsub = np.where(ksub > 0.0, np.log(ksub), -np.inf)
                ksub = frozen_renormalize_log(lsub, diag, rows=rows)
                logk[rows] = lsub
                kappa[rows] = ksub
        for i in np.flatnonzero(next_tau <= t_end):
            while next_tau[i] <= t_end:
                tau = next_tau[i]
                if jgens[i].uniform() <= spec.intensity_at(tau, kappa[i]) / lam_max:
                    x = spec.sample_jump(tau, jgens[i])
                    base = 1.0 + kappa[i] @ x
                    if base <= 0.0:
                        raise ValueError("jump size annihilates the whole market")
                    knew_i = kappa[i] * (1.0 + x) / base
                    newly_dead = (knew_i < DEATH_THRESHOLD) & (kappa[i] > 0.0)
                    knew_i[newly_dead] = 0.0
                    zeta[i, newly_dead] = tau
                    mode[i, newly_dead] = JUMP_TO_ZERO
                    kappa[i] = knew_i / knew_i.sum()
                    with np.errstate(divide="ignore"):
                        logk[i] = np.where(kappa[i] > 0.0, np.log(kappa[i]), -np.inf)
                    jump_count[i] += 1
                    if np.isnan(first_jump[i]):
                        first_jump[i] = tau
                    if budget is not None and jump_count[i] >= budget:
                        next_tau[i] = np.inf
                        budget_out[i] = tau
                        continue
                next_tau[i] = tau + jgens[i].exponential(1.0 / lam_max)
        idx = stored_pos.get(s + 1)
        if idx is not None:
            kappa_out[:, idx] = kappa
    return {"kappa": kappa_out, "zeta": zeta, "death_mode": mode,
            "jump_count": jump_count, "first_jump_time": first_jump,
            "budget_exhausted_time": budget_out}, diag


def _engine(spec, kappa0, grid, n_paths, seed, store_every):
    d = len(kappa0)
    ps, rec = simulate_jump_balanced(
        ProcessSpec.constant(np.zeros((d, d))), spec, kappa0, grid, n_paths,
        seed, store_every=store_every)
    return {"kappa": ps.kappa, "zeta": rec.zeta, "death_mode": rec.death_mode,
            "jump_count": rec.jump_count, "first_jump_time": rec.first_jump_time,
            "budget_exhausted_time": rec.budget_exhausted_time}, ps.diagnostics


def _random_market(d, state_intensity, max_jumps, seed, rate_scale=1.0):
    """1-3 finite atoms with one coordinate at -1, and a random start.

    The intensity peaks at a rate drawn from [1, 3]; the thinning bound
    ``lam_max`` is ``rate_scale`` times that peak.  A larger scale leaves
    the law as it is but draws more candidates, of which at most one in
    ``rate_scale`` is accepted.
    """
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    atoms = rng.uniform(-0.9, 1.5, size=(n_atoms, d))
    atoms[rng.integers(n_atoms), rng.integers(d)] = -1.0
    probs = rng.dirichlet(np.ones(n_atoms))
    lam = float(rng.uniform(1.0, 3.0))
    if state_intensity:
        w = rng.uniform(0.0, 1.0, size=d)
        w /= w.max()
        intensity = ProcessSpec.state_function(
            lambda t, k: lam * (0.2 + 0.8 * float(w @ k)))
    else:
        intensity = ProcessSpec.constant(lam)
    lam_max = rate_scale * lam
    spec = JumpSpec.finite_atoms(intensity, lam_max, atoms, probs,
                                 max_jumps=max_jumps)
    return spec, rng.dirichlet(np.full(d, 2.0))


def _assert_identical(got, ref, label):
    for key, val in ref.items():
        assert np.array_equal(got[key], val, equal_nan=val.dtype.kind == "f"), (
            f"{key} differs from the per-row loop: {label}")


@pytest.mark.parametrize("max_jumps", [None, 1, 2])
@pytest.mark.parametrize("state_intensity", [False, True])
# "dense" thins against a bound 250 times the peak rate, so that lam_max dt
# is about 0.5: a path meets several candidates inside one step, and most
# of them are rejected
@pytest.mark.parametrize("d, rate_scale", [(2, 1.0), (3, 1.0), (5, 1.0),
                                           (3, 250.0)],
                         ids=["2", "3", "5", "dense"])
def test_cohort_stepping_matches_per_row_loop(d, rate_scale, state_intensity,
                                              max_jumps, monkeypatch):
    grid = PathGrid(dt=1e-3, n_steps=200)
    # the distinct live states each step takes the compensator at
    live, factor = [], jump_markets._compensator_factor

    def spy(kl, *args):
        live.append(len(np.unique(kl, axis=0)))
        return factor(kl, *args)

    monkeypatch.setattr(jump_markets, "_compensator_factor", spy)
    for trial in range(2):
        seed = 1000 * d + 10 * trial + 2 * state_intensity + (max_jumps or 0)
        spec, kappa0 = _random_market(d, state_intensity, max_jumps, seed,
                                      rate_scale)
        label = f"d={d}, trial {trial}"
        try:
            ref, ref_diag = _per_row_reference(spec, kappa0, grid, 24, seed, 7)
        except ValueError as err:
            # the compensator can drive a market out of the jump domain;
            # the engine must then fail the same way
            with pytest.raises(ValueError, match=str(err)):
                _engine(spec, kappa0, grid, 24, seed, 7)
            continue
        live.clear()
        got, diag = _engine(spec, kappa0, grid, 24, seed, 7)
        _assert_identical(got, ref, label)
        assert 0 < diag.n_jumps_accepted == int(ref["jump_count"].sum())
        assert diag.n_jump_candidates >= diag.n_jumps_accepted
        if rate_scale > 1.0:
            assert diag.n_jump_candidates > 24 * grid.n_steps / 5, label
        # jumped paths with budget left step on as cohorts of their own
        assert (max_jumps == 1) == (max(live) == 1), label
        # a cohort counts once per member in the defect statistics
        assert diag.n_prerenorm_samples == ref_diag.n_prerenorm_samples
        assert diag.max_prerenorm_defect == ref_diag.max_prerenorm_defect
        assert diag.mean_prerenorm_defect == pytest.approx(
            ref_diag.mean_prerenorm_defect, rel=1e-9)


@pytest.mark.parametrize("max_jumps", [None, 1, 2])
@pytest.mark.parametrize("n_paths", [1, 2, 40])
def test_cohort_deaths_reach_every_member(n_paths, max_jumps):
    # the death example's law: paths that have not jumped by 2 log 2 lose
    # company 2 to the compensator flow together, as one cohort
    intensity = ProcessSpec.time_table(
        [0.0, _T_DEATH - 1e-9, _T_DEATH, _T_DEATH + 1.0], [1.0, 1.0, 0.0, 0.0])
    spec = JumpSpec.finite_atoms(intensity, 1.0, _example_size, [1.0],
                                 max_jumps=max_jumps)
    kappa0 = np.array([0.5, 0.5])
    grid = PathGrid(dt=2e-3, n_steps=750)
    got, _ = _engine(spec, kappa0, grid, n_paths, 23, 5)
    ref, _ = _per_row_reference(spec, kappa0, grid, n_paths, 23, 5)
    _assert_identical(got, ref, f"{n_paths} paths")
    if n_paths == 40:
        vanished = ref["death_mode"][:, 1] == CONTINUOUS_VANISH
        assert 1 < vanished.sum() < n_paths


def _spent_atoms(t):
    # early jumps kill company 2 and spend the one-jump budget, leaving
    # those paths at (1, 0); from t = 0.1 on the atom (-1, 0) would wipe
    # out that market, while paths that never jumped keep both companies
    # and stay inside the jump domain
    return np.array([[0.0, -1.0]]) if t < 0.1 else np.array([[-1.0, 0.0]])


@pytest.mark.parametrize("c", [0.0, 0.04], ids=["c0", "diffusion"])
def test_a_spent_path_is_outside_its_law(c):
    reads = {"live": 0, "spent": 0}

    def intensity(t, k):
        # every accepted jump kills a company and spends the budget, so a
        # spent path is one with a dead company; there the rate leaves
        # [0, lam_max], and reading it would raise
        spent = k.min() == 0.0
        reads["spent" if spent else "live"] += 1
        return -1.0 if spent else 5.0

    grid = PathGrid(dt=1e-3, n_steps=300)
    c_spec = ProcessSpec.constant(c * np.eye(2))
    specs = [JumpSpec.finite_atoms(lam, 5.0, _spent_atoms, [1.0], max_jumps=1)
             for lam in (ProcessSpec.constant(5.0),
                         ProcessSpec.state_function(intensity))]
    runs = [simulate_jump_balanced(c_spec, spec, [0.5, 0.5], grid, 64, 31,
                                   n_threads=n)
            for spec in specs for n in (1, 2, 3)]
    assert reads["live"] > 0 and reads["spent"] == 0
    ps, rec = runs[0]
    spent = np.isfinite(rec.budget_exhausted_time)
    assert spent.any() and not spent.all()
    assert np.isinf(rec.zeta[spent]).sum(axis=1).tolist() == [1] * spent.sum()
    # the rate at live paths is the constant, so the two laws agree too
    for other, other_rec in runs[1:]:
        np.testing.assert_array_equal(other.kappa, ps.kappa)
        for f in dataclasses.fields(LifetimeRecord):
            np.testing.assert_array_equal(getattr(other_rec, f.name),
                                          getattr(rec, f.name))
        for f in dataclasses.fields(EngineDiagnostics):
            np.testing.assert_array_equal(getattr(other.diagnostics, f.name),
                                          getattr(ps.diagnostics, f.name))
    if c == 0.0:
        # without diffusion a spent path never moves again, bit for bit
        times = ps.times()
        for p in np.flatnonzero(spent):
            after = ps.kappa[p, times >= rec.budget_exhausted_time[p]]
            assert (after == after[0]).all()
    # the diagnostics switch the law off at the same paths and times
    report = loss_of_balance(ps, None, jump_spec=specs[1], lifetimes=rec)
    assert (report.L_terminal == 0.0).all()
    assert reads["spent"] == 0
    # read at a live path, a rate out of range still raises
    late = JumpSpec.finite_atoms(
        ProcessSpec.state_function(lambda t, k: 5.0 if t < 0.2 else 6.0), 5.0,
        _spent_atoms, [1.0], max_jumps=1)
    with pytest.raises(JumpLawError, match="intensity 6.0 at t=0.2"):
        simulate_jump_balanced(c_spec, late, [0.5, 0.5], grid, 64, 31)
