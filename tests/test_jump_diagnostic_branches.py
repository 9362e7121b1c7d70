"""Jump loss and jump distance on every coefficient branch, row by row.

``loss_of_balance`` under a jump law is checked against an in-test loop
that visits one path and one stored step at a time: it calls a row growth
optimal when kappa passes the first-order test, solves it with
``growth_optimal_jump`` otherwise, and adds the row's loss increment.  ``distance_matrix`` is
checked against a loop over one pair and one stored step at a time that
works from the raw atoms, probabilities and intensity.  Each market has a
state covariance, a state rate, a state intensity or time-dependent atoms,
and a one-jump budget that runs out in the middle of the run on most
paths.  Where the library solves the same rows as the loop, the losses
agree bit for bit; otherwise they agree to 1e-12, and the failure names
the rows only one side solved.  The distances agree to 1e-12.
"""

from collections import Counter

import numpy as np
import pytest

from balmarkets import balance_diag
from balmarkets.balance_diag import distance_matrix, loss_of_balance
from balmarkets.jump_markets import (
    ALIVE,
    DEATH_THRESHOLD,
    JumpMoments,
    JumpSpec,
    drift_from_balance_jump,
    growth_optimal_jump,
    rel_rate_of_return,
    simulate_jump_balanced,
)
from balmarkets.market_model import PathGrid, ProcessSpec
from test_jump_markets import growth_jump_gradient, pair_step

C3 = np.array([
    [0.09, 0.02, 0.01],
    [0.02, 0.16, 0.03],
    [0.01, 0.03, 0.25],
])
K3 = np.array([0.5, 0.3, 0.2])
GRID = PathGrid(dt=1e-3, n_steps=300)
N_PATHS = 6
SEED = 44
STORE = 15
# the third atom is outside the unit ball, so the truncation term shows
ATOMS = np.array([[0.2, -0.1, 0.05], [-0.15, 0.1, 0.0], [1.2, -0.3, 0.1]])
PROBS = np.array([0.5, 0.3, 0.2])
LAM = 3.0
SKEW = np.array([0.3, -0.2, 0.05])
BRANCHES = ["state_c", "state_r", "state_intensity", "time_atoms"]


def _c_state(t, k):
    return C3 * (1.0 + k[0]) + 0.05 * t * np.eye(3)


def _r_state(t, k):
    return 0.02 + 0.01 * k[1] + 0.1 * t


def _market(branch):
    """``(path set, lifetimes, jump law, r_spec)`` of one branch."""
    c_spec = ProcessSpec.constant(C3)
    r_spec = ProcessSpec.constant(0.01)
    intensity, atoms = ProcessSpec.constant(LAM), ATOMS
    if branch == "state_c":
        c_spec = ProcessSpec.state_function(_c_state)
    elif branch == "state_r":
        r_spec = ProcessSpec.state_function(_r_state)
    elif branch == "state_intensity":
        intensity = ProcessSpec.state_function(lambda t, k: 1.0 + 4.0 * k[0])
    else:
        atoms = lambda t: ATOMS * (1.0 + 2.0 * t)  # noqa: E731
    spec = JumpSpec.finite_atoms(intensity, 2.0 * LAM, atoms, PROBS, max_jumps=1)
    ps, rec = simulate_jump_balanced(
        c_spec, spec, K3, GRID, N_PATHS, SEED, store_every=STORE)
    assert np.all(rec.death_mode == ALIVE)
    times = ps.times()
    cut = rec.budget_exhausted_time
    # the budget runs out strictly inside the run on some paths, not all
    assert np.any((cut > times[1]) & (cut < times[-2]))
    assert not np.all(np.isfinite(cut))
    return ps, rec, spec, r_spec


def _b_spec(spec, c_spec, r_spec, drift):
    """``None`` (the balanced drift), or a drift that is balanced with the
    jump law switched on where ``kappa_1 >= 0.5`` and skewed elsewhere, so
    that only some rows are growth optimal."""
    if drift == "balanced":
        return None

    def b(t, k):
        c = c_spec(t, k)
        r = float(r_spec(t, k))
        out = drift_from_balance_jump(k, c, spec, r, t)
        return out if k[0] >= 0.5 else out + SKEW

    return ProcessSpec.state_function(b)


# ---------------------------------------------------------------------------
# the row-by-row reference


def _moments(spec, t, kap):
    """The law's moments at ``t``, the intensity read at ``kap``."""
    return JumpMoments.at(spec, t, spec.intensity_at(t, kap))


def _stationary(b, c, r, nu, t, p, support, tol=1e-10):
    grad = (b - r) - c @ p
    if nu is not None:
        grad = grad + growth_jump_gradient(nu, t, p, p)
    sup = np.flatnonzero(support)
    gain = grad[sup].max() - float(grad @ p)
    return gain <= tol * (1.0 + float(np.abs(grad[sup]).max()))


def _row(ps, p, k, spec, b_spec, r_spec, cutoff, rho_prev, solve):
    """``(b, c, r, nu, rho, rho_prev)`` of path ``p`` at stored step ``k``."""
    t = float(ps.times()[k])
    d = ps.d
    kap = ps.kappa[p, k]
    alive = kap > DEATH_THRESHOLD
    c = ps.c_spec.rows(t, kap, (d, d), "covariance rate c")
    r = float(r_spec.rows(t, kap, (), "interest rate r"))
    nu = spec if t < cutoff else None
    if b_spec is None:
        if nu is None:
            b = c @ kap + r
        else:
            b = drift_from_balance_jump(kap, c, nu, r, t)
    else:
        b = b_spec.rows(t, kap, (d,), "drift rate b")
    if _stationary(b, c, r, nu, t, kap, alive):
        rho = kap
    else:
        warm = rho_prev if rho_prev is not None else kap
        rho, _ = solve(b, c, r, nu, t, support=alive, warm_start=warm,
                       kappa_state=kap)
        rho_prev = rho
    return b, c, r, nu, rho, rho_prev


def _reference_loss(ps, rec, spec, b_spec, r_spec, solve):
    times = ps.times()
    n, ns, _ = ps.kappa.shape
    L = np.zeros((n, ns))
    for p in range(n):
        acc = 0.0
        rho_prev = None
        for k in range(ns - 1):
            t = float(times[k])
            kap = ps.kappa[p, k]
            b, c, r, nu, rho, rho_prev = _row(
                ps, p, k, spec, b_spec, r_spec,
                rec.budget_exhausted_time[p], rho_prev, solve)
            rel_k = rel_rate_of_return(kap, rho, b, c, nu, r, t, kappa_state=kap)
            quad = float((kap - rho) @ c @ (kap - rho))
            inc = -rel_k + 0.5 * quad
            if nu is not None:
                inc += _moments(nu, t, kap).log_ratio_integrand(kap, rho)
            assert inc >= -1e-12
            acc += max(inc, 0.0) * float(times[k + 1] - times[k])
            L[p, k + 1] = acc
    return L


def _reference_distance(ps, rec, i, j, spec, b_spec, r_spec, horizon, p):
    times = ps.times()
    d = ps.d
    total = 0.0
    for k in range(len(times) - 1):
        t = float(times[k])
        if t >= horizon:
            break
        kap = ps.kappa[p, k]
        c = ps.c_spec.rows(t, kap, (d, d), "covariance rate c")
        r = float(r_spec.rows(t, kap, (), "interest rate r"))
        x = spec.atoms_at(t)
        lam = spec.intensity_at(t, kap) if t < rec.budget_exhausted_time[p] else 0.0
        w = lam * spec.probs
        small = np.linalg.norm(x, axis=1) <= 1.0
        if b_spec is None:
            b = c @ kap + r - (w / (1.0 + x @ kap) - w * small) @ x
        else:
            b = b_spec.rows(t, kap, (d,), "drift rate b")
        jump_drift, jump_term = pair_step(x, w, small, i, j)
        g = (b[i] - 0.5 * c[i, i]) - (b[j] - 0.5 * c[j, j]) + jump_drift
        c_pair = c[i, i] + c[j, j] - 2.0 * c[i, j]
        step = min(float(times[k + 1]), horizon) - t
        total += (abs(g) + 0.5 * c_pair + jump_term) * step
    return total


def _recording(solver, calls):
    """``solver`` that also counts each solved row by its time and state."""
    def solve(b, c, r, nu, t=0.0, **kw):
        calls[(t, kw["kappa_state"].tobytes())] += 1
        return solver(b, c, r, nu, t, **kw)
    return solve


def _assert_agree(got, want, lib_rows, ref_rows):
    if lib_rows == ref_rows:
        assert np.array_equal(got, want)
        return
    only = sorted(
        (t, tuple(np.frombuffer(key))) for t, key in
        ((lib_rows - ref_rows) + (ref_rows - lib_rows)).elements()
    )
    np.testing.assert_allclose(
        got, want, rtol=0.0, atol=1e-12,
        err_msg=f"rows solved by one side only (t, kappa): {only}")


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("drift", ["balanced", "partial"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_jump_loss_matches_row_by_row_reference(monkeypatch, branch, drift):
    ps, rec, spec, r_spec = _market(branch)
    b_spec = _b_spec(spec, ps.c_spec, r_spec, drift)
    lib_rows, ref_rows = Counter(), Counter()
    want = _reference_loss(ps, rec, spec, b_spec, r_spec,
                           _recording(growth_optimal_jump, ref_rows))
    monkeypatch.setattr(balance_diag, "growth_optimal_jump",
                        _recording(growth_optimal_jump, lib_rows))
    got = loss_of_balance(ps, b_spec, r_spec, jump_spec=spec,
                          lifetimes=rec).L_path
    n_rows = N_PATHS * (ps.kappa.shape[1] - 1)
    if drift == "balanced":
        assert not ref_rows
        assert not got.any()
    else:
        # some rows are growth optimal and some are not
        assert 0 < sum(ref_rows.values()) < n_rows
        assert got[:, -1].min() > 0.0
    _assert_agree(got, want, lib_rows, ref_rows)


@pytest.mark.parametrize("drift", ["balanced", "partial"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_jump_distance_matches_row_by_row_reference(branch, drift):
    ps, rec, spec, r_spec = _market(branch)
    b_spec = _b_spec(spec, ps.c_spec, r_spec, drift)
    times = ps.times()
    cut = rec.budget_exhausted_time
    # a path whose budget runs out inside the run
    p = int(np.flatnonzero((cut > times[1]) & (cut < times[-2]))[0])
    for horizon in (None, 0.5 * float(times[-1])):
        got = distance_matrix(ps, b_spec, r_spec=r_spec, horizon=horizon,
                              path_index=p, jump_spec=spec, lifetimes=rec).values
        want = np.zeros((3, 3))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            want[i, j] = want[j, i] = _reference_distance(
                ps, rec, i, j, spec, b_spec, r_spec,
                float(times[-1]) if horizon is None else horizon, p)
        assert want[np.triu_indices(3, 1)].min() > 0.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
