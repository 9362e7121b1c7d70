"""Time-table and state-function coefficients through every engine.

Each engine and path functional is checked bit for bit: a one-knot time
table against the constant spec it repeats, and a state function against
an in-test loop that takes one step at a time with the same arithmetic.
Runs are a few hundred steps on at most 8 paths.
"""

import numpy as np
import pytest

from balmarkets.balance_diag import wealth_path
from balmarkets.jump_markets import (
    ALIVE,
    JumpSpec,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import MarketParams, PathGrid, ProcessSpec, psd_factor
from balmarkets.sde_engine import (
    STREAM_BROWNIAN,
    STREAM_JUMP,
    path_generator,
    simulate_capitalizations,
)

C3 = np.array([
    [0.09, 0.02, 0.01],
    [0.02, 0.16, 0.03],
    [0.01, 0.03, 0.25],
])
K3 = np.array([0.5, 0.3, 0.2])
GRID = PathGrid(dt=1e-3, n_steps=300)
N_PATHS = 8
SEED = 31
ATOMS = np.array([[0.2, -0.1, 0.05], [-0.15, 0.1, 0.0]])
PROBS = np.array([0.6, 0.4])
LAM = 3.0


def _c_state(t, k):
    return C3 * (1.0 + k[0]) + 0.05 * t * np.eye(3)


def _a_state(t, k):
    return np.array([0.05, -0.02, 0.1]) + 0.1 * k


def _r_state(t, k):
    return 0.02 + 0.01 * k[1] + 0.1 * t


def _one_knot(value):
    return ProcessSpec.time_table([0.0], [value])


def _draws(n_paths=N_PATHS, seed=SEED, grid=GRID, d=3):
    return np.stack([
        path_generator(seed, STREAM_BROWNIAN, p).standard_normal((grid.n_steps, d))
        for p in range(n_paths)
    ]) * np.sqrt(grid.dt)


def _renorm(logk):
    mx = logk.max(axis=1, keepdims=True)
    s = np.exp(logk - mx).sum(axis=1, keepdims=True)
    logk -= mx + np.log(s)
    return np.exp(logk)


def _balanced_rows_step(logk, kappa, dw_k, t, dt):
    """One balanced step with a state-function covariance, row by row."""
    n, d = kappa.shape
    y = np.empty((n, d))
    ck = np.empty((n, d))
    diag_c = np.empty((n, d))
    for i in range(n):
        c = np.asarray(_c_state(t, kappa[i]), dtype=float)
        y[i] = psd_factor(c) @ dw_k[i]
        ck[i] = c @ kappa[i]
        diag_c[i] = np.diag(c)
    quad = np.einsum("ij,ij->i", kappa, ck)
    u = y - np.einsum("ij,ij->i", kappa, y)[:, None]
    logk += (-0.5 * dt) * (diag_c - 2.0 * ck + quad[:, None]) + u
    return _renorm(logk)


def _balanced_per_step(jumps=False):
    """Balanced weights under ``_c_state``, one step at a time.

    With ``jumps`` the constant-intensity law ``LAM``/``ATOMS`` is added:
    intensity equal to its bound accepts every thinning candidate, and the
    atoms are too small to kill a company.
    """
    dt = GRID.dt
    dw = _draws()
    logk = np.tile(np.log(K3), (N_PATHS, 1))
    kappa = np.tile(K3, (N_PATHS, 1))
    jgens = [path_generator(SEED, STREAM_JUMP, p) for p in range(N_PATHS)]
    tau = np.array([GRID.t0 + g.exponential(1.0 / LAM) for g in jgens])
    spec = JumpSpec.finite_atoms(LAM, LAM, ATOMS, PROBS)
    out = [kappa.copy()]
    for k in range(GRID.n_steps):
        t = GRID.t0 + k * dt
        t_end = GRID.t0 + (k + 1) * dt
        if jumps:
            denom = 1.0 + kappa @ ATOMS.T
            i1 = LAM * ((PROBS / denom) @ ATOMS)
            factor = 1.0 - (i1 - np.einsum("ij,ij->i", kappa, i1)[:, None]) * dt
        kappa = _balanced_rows_step(logk, kappa, dw[:, k], t, dt)
        if jumps:
            knew = kappa * factor
            rows = np.flatnonzero((knew != kappa).any(axis=1))
            lsub = np.log(knew[rows])
            kappa[rows] = _renorm(lsub)
            logk[rows] = lsub
            for i in range(N_PATHS):
                while tau[i] <= t_end:
                    assert jgens[i].uniform() <= 1.0
                    x = spec.sample_jump(tau[i], jgens[i])
                    knew_i = kappa[i] * (1.0 + x) / (1.0 + kappa[i] @ x)
                    knew_i = knew_i / knew_i.sum()
                    kappa[i] = knew_i
                    logk[i] = np.log(knew_i)
                    tau[i] += jgens[i].exponential(1.0 / LAM)
        out.append(kappa.copy())
    return np.stack(out, axis=1)


def _jump_spec(lam=LAM):
    return JumpSpec.finite_atoms(ProcessSpec.constant(lam), max(lam, 1e-12),
                                 ATOMS, PROBS)


# ---------------------------------------------------------------------------
# balanced and jump engines


def test_balanced_one_knot_table_equals_constant():
    const = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, GRID, N_PATHS, SEED)
    table = simulate_relative_caps_balanced(
        _one_knot(C3), K3, GRID, N_PATHS, SEED)
    assert np.array_equal(table.kappa, const.kappa)


def test_balanced_state_covariance_matches_per_step_reference():
    ps = simulate_relative_caps_balanced(
        ProcessSpec.state_function(_c_state), K3, GRID, N_PATHS, SEED)
    assert np.array_equal(ps.kappa, _balanced_per_step())


def test_jump_one_knot_table_equals_constant():
    const, rec_c = simulate_jump_balanced(
        ProcessSpec.constant(C3), _jump_spec(), K3, GRID, N_PATHS, SEED)
    table, rec_t = simulate_jump_balanced(
        _one_knot(C3), _jump_spec(), K3, GRID, N_PATHS, SEED)
    assert rec_c.jump_count.sum() > 0
    assert np.array_equal(table.kappa, const.kappa)
    assert np.array_equal(rec_t.jump_count, rec_c.jump_count)


@pytest.mark.parametrize("lam", [0.0, LAM])
def test_jump_state_covariance_matches_per_step_reference(lam):
    ps, rec = simulate_jump_balanced(
        ProcessSpec.state_function(_c_state), _jump_spec(lam), K3, GRID,
        N_PATHS, SEED)
    assert np.all(rec.death_mode == ALIVE)
    assert (rec.jump_count.sum() > 0) == (lam > 0.0)
    assert np.array_equal(ps.kappa, _balanced_per_step(jumps=lam > 0.0))


# ---------------------------------------------------------------------------
# capitalization engine


def test_caps_one_knot_table_equals_constant():
    a = [0.05, -0.02, 0.1]
    const = MarketParams.from_constants(a, C3, 0.01, 3.0 * K3)
    table = MarketParams(d=3, a_spec=const.a_spec, c_spec=_one_knot(C3),
                         r_spec=const.r_spec, s0=const.s0)
    ref = simulate_capitalizations(const, GRID, N_PATHS, SEED)
    got = simulate_capitalizations(table, GRID, N_PATHS, SEED)
    assert np.array_equal(got.kappa, ref.kappa)
    assert np.array_equal(got.caps, ref.caps)


def test_caps_short_rate_does_not_choose_the_path(monkeypatch):
    # r never enters the capitalizations: with constant a and c, a time-table
    # r keeps the running sum, which reads a once, not once per step
    const = MarketParams.from_constants([0.05, -0.02, 0.1], C3, 0.01, 3.0 * K3)
    table = MarketParams(d=3, a_spec=const.a_spec, c_spec=const.c_spec,
                         r_spec=ProcessSpec.time_table([0.0, 0.3], [0.01, 0.05]),
                         s0=const.s0)
    reads = []
    rows = ProcessSpec.rows

    def counting(self, *args, **kwargs):
        if self is const.a_spec:
            reads.append(args[0])
        return rows(self, *args, **kwargs)

    monkeypatch.setattr(ProcessSpec, "rows", counting)
    runs = []
    for params in (const, table):
        reads.clear()
        runs.append(simulate_capitalizations(params, GRID, N_PATHS, SEED,
                                             store_increments=True))
        assert reads == [0.0, 0.0]  # validate_params' probe and the engine's read
    ref, got = runs
    assert np.array_equal(got.kappa, ref.kappa)
    assert np.array_equal(got.caps, ref.caps)
    assert np.array_equal(got.brownian_increments, ref.brownian_increments)


def test_caps_state_coefficients_match_per_step_reference():
    params = MarketParams(
        d=3, a_spec=ProcessSpec.state_function(_a_state),
        c_spec=ProcessSpec.state_function(_c_state),
        r_spec=ProcessSpec.constant(0.0), s0=3.0 * K3)
    ps = simulate_capitalizations(params, GRID, N_PATHS, SEED)

    dt = GRID.dt
    dw = _draws()
    logs = np.tile(np.log(params.s0), (N_PATHS, 1))
    caps = np.exp(logs)
    kappa = caps / caps.sum(axis=1, keepdims=True)
    kap_ref, caps_ref = [kappa], [caps]
    for k in range(GRID.n_steps):
        t = GRID.t0 + k * dt
        for i in range(N_PATHS):
            a = _a_state(t, kappa[i])
            c = _c_state(t, kappa[i])
            logs[i] += (a - 0.5 * np.diag(c)) * dt + psd_factor(c) @ dw[i, k]
        w = np.exp(logs - logs.max(axis=1, keepdims=True))
        kappa = w / w.sum(axis=1, keepdims=True)
        kap_ref.append(kappa)
        caps_ref.append(np.exp(logs))
    assert np.array_equal(ps.kappa, np.stack(kap_ref, axis=1))
    assert np.array_equal(ps.caps, np.stack(caps_ref, axis=1))


# ---------------------------------------------------------------------------
# wealth


def _market_wealth_per_step(ps, rate, state_c):
    """Market-portfolio wealth one step at a time under the balanced drift
    ``a = c kappa + r 1``, with the short rate ``rate(t, kappa)`` of each
    path's own state."""
    n = ps.n_paths
    dt = ps.grid.dt
    inc = ps.brownian_increments
    sigma = psd_factor(C3)
    log_v = np.zeros((n, ps.grid.n_steps + 1))
    for k in range(ps.grid.n_steps):
        t = ps.grid.t0 + k * dt
        kap = ps.kappa[:, k]
        r = np.array([rate(t, row) for row in kap])
        if state_c:
            c = np.stack([_c_state(t, row) for row in kap])
            cpi = np.einsum("pij,pj->pi", c, kap)
            noise = np.array([
                kap[p] @ psd_factor(c[p]) @ inc[p, k] for p in range(n)
            ])
        else:
            cpi = kap @ C3
            noise = np.einsum("pj,pj->p", kap @ sigma, inc[:, k])
        a = cpi + r[:, None]
        drift = (r + np.einsum("pi,pi->p", kap, a)
                 - r * kap.sum(axis=1)
                 - 0.5 * np.einsum("pi,pi->p", kap, cpi))
        log_v[:, k + 1] = log_v[:, k] + drift * dt + noise
    return np.exp(log_v)


@pytest.mark.parametrize("state_c", [False, True])
def test_wealth_state_rate_matches_per_step_reference(state_c):
    c_spec = (ProcessSpec.state_function(_c_state) if state_c
              else ProcessSpec.constant(C3))
    ps = simulate_relative_caps_balanced(
        c_spec, K3, GRID, N_PATHS, SEED, store_increments=True)
    V = wealth_path(ps, "market", r_spec=ProcessSpec.state_function(_r_state))
    assert np.array_equal(V, _market_wealth_per_step(ps, _r_state, state_c))


def test_wealth_one_knot_table_equal_constant():
    const = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, GRID, N_PATHS, SEED,
        store_increments=True)
    table = simulate_relative_caps_balanced(
        _one_knot(C3), K3, GRID, N_PATHS, SEED, store_increments=True)
    rate = ProcessSpec.constant(0.02)
    for pi in ("market", np.array([0.2, 0.5, 0.3])):
        assert np.array_equal(wealth_path(table, pi, r_spec=rate),
                              wealth_path(const, pi, r_spec=rate))


def test_wealth_state_covariance_matches_per_step_reference():
    ps = simulate_relative_caps_balanced(
        ProcessSpec.state_function(_c_state), K3, GRID, N_PATHS, SEED,
        store_increments=True)
    V = wealth_path(ps, "market", r_spec=ProcessSpec.constant(0.02))
    assert np.array_equal(
        V, _market_wealth_per_step(ps, lambda t, k: 0.02, state_c=True))
