"""Balance loss, segregation, limiting-distribution, and tail diagnostics."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balmarkets import balance_diag, sde_engine
from balmarkets.balance_diag import (
    BalanceReport,
    bank_rate_statistic,
    distance_matrix,
    equivalence_classes,
    limiting_distribution,
    limiting_to_csv,
    lln_diagnostic,
    loss_of_balance,
    wealth_path,
)
from balmarkets.errors import HorizonTooShort, ShapeMismatch, SolverFailure
from balmarkets.growth_opt import growth_optimal_constrained, growth_rate
from balmarkets.jump_markets import simulate_relative_caps_balanced
from balmarkets.market_model import (
    ConstraintSet,
    MarketParams,
    PathGrid,
    ProcessSpec,
)
from balmarkets.sde_engine import (
    EngineDiagnostics,
    PathSet,
    simulate_capitalizations,
)

C3 = np.array([
    [0.09, 0.02, 0.01],
    [0.02, 0.16, 0.03],
    [0.01, 0.03, 0.25],
])
K3 = np.array([0.5, 0.3, 0.2])


def _synthetic_ps(kappa, dt=0.01, t0=0.0):
    """Wrap a hand-built weight array in a PathSet."""
    kappa = np.asarray(kappa, dtype=float)
    n, steps, d = kappa.shape
    grid = PathGrid(dt=dt, n_steps=steps - 1, t0=t0)
    return PathSet(
        grid=grid,
        n_paths=n,
        seed=0,
        kappa=kappa,
        stored_steps=np.arange(steps),
        diagnostics=EngineDiagnostics(),
    )


# ---------------------------------------------------------------------------
# outcome classification on synthetic L paths


def _classify(L, t, **kw):
    return BalanceReport.from_loss(t, L[None, :], **kw).classification[0]


def test_flat_small_L_is_balanced():
    t = np.linspace(0.0, 100.0, 401)
    L = 1.0 - np.exp(-t)
    assert _classify(L, t) == "Balanced"


def test_linear_growth_is_unbalanced():
    t = np.linspace(0.0, 100.0, 401)
    assert _classify(0.5 * t, t) == "Unbalanced"


def test_flat_but_huge_L_is_not_balanced():
    t = np.linspace(0.0, 100.0, 401)
    L = np.full_like(t, 60.0)
    assert _classify(L, t, L_cap=50.0) != "Balanced"


def test_slow_creep_is_indeterminate():
    t = np.linspace(0.0, 100.0, 401)
    # tail slope of 5e-3 sits between eps and 10 eps
    assert _classify(5e-3 * t, t) == "Indeterminate"


def test_tail_slope_reads_the_final_quarter_of_a_late_run():
    # a run over [5, 6] whose loss rises over its first half only: the
    # final quarter starts at 5.75, not at 0.75 * 6
    t = 5.0 + np.linspace(0.0, 1.0, 101)
    L = np.minimum(t - 5.0, 0.5)
    rep = BalanceReport.from_loss(t, L[None, :])
    assert rep.slope_tail[0] == 0.0
    assert rep.classification == ["Balanced"]


# ---------------------------------------------------------------------------
# loss of balance on simulated markets


def _balanced_specs(c, rate):
    a_spec = ProcessSpec.state_function(lambda t, k: c @ k + rate)
    return a_spec, ProcessSpec.constant(rate)


def test_balanced_market_has_zero_loss():
    grid = PathGrid(dt=1e-3, n_steps=1000)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 40, 17)
    a_spec, r_spec = _balanced_specs(C3, 0.02)
    rep = loss_of_balance(ps, a_spec, r_spec)
    assert np.abs(rep.L_path).max() <= 1e-9
    assert set(rep.classification) == {"Balanced"}
    d = rep.to_json_dict()
    assert d["classification_counts"] == {"Balanced": 40}
    assert d["L_terminal_max"] <= 1e-9


def test_unbalanced_drift_accumulates_loss():
    # one company with a large drift edge the others cannot match
    params = MarketParams.from_constants(
        [1.0, 0.0], np.diag([0.04, 0.04]), 0.0, [1.0, 1.0])
    grid = PathGrid(dt=0.01, n_steps=2000)
    ps = simulate_capitalizations(params, grid, 30, 19, store_every=10)
    rep = loss_of_balance(
        ps, a_spec=ProcessSpec.constant(np.array([1.0, 0.0])),
        r_spec=ProcessSpec.constant(0.0))
    assert rep.L_path[:, -1].min() > 0.0
    assert np.all(np.diff(rep.L_path, axis=1) >= -1e-12)


def test_report_serialization_shape():
    grid = PathGrid(dt=0.01, n_steps=100)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 7, 23)
    a_spec, r_spec = _balanced_specs(C3, 0.0)
    d = loss_of_balance(ps, a_spec, r_spec).to_json_dict()
    assert set(d) == {
        "horizon", "n_paths", "eps_slope", "L_cap",
        "classification_counts", "L_terminal_mean", "L_terminal_max",
        "slope_tail_mean",
    }
    assert d["n_paths"] == 7


def test_balanced_weights_accrue_exactly_zero():
    grid = PathGrid(dt=1e-3, n_steps=200)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 30, 29, store_every=10)
    with mock.patch.object(balance_diag, "growth_optimal_constrained",
                           side_effect=AssertionError("solver reached")):
        for a_spec in (None, _balanced_specs(C3, 0.02)[0]):
            rep = loss_of_balance(ps, a_spec, ProcessSpec.constant(0.02))
            assert not rep.L_path.any()
            assert rep.to_json_dict()["slope_tail_mean"] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_balanced_drift_is_always_certified(seed):
    """a = c x + r 1 certifies at any simplex point, for singular c too."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    b = rng.standard_normal((d, int(rng.integers(1, d + 1))))
    c = b @ b.T
    r = float(rng.uniform(-0.5, 0.5))
    x = rng.dirichlet(np.ones(d), size=6)
    x[:3, 0] = 0.0
    x /= x.sum(axis=1, keepdims=True)
    ps = dataclasses.replace(
        _synthetic_ps(np.stack([x, x], axis=1)),
        c_spec=ProcessSpec.constant(c))
    r_spec = ProcessSpec.constant(r)
    with mock.patch.object(balance_diag, "growth_optimal_constrained",
                           side_effect=AssertionError("solver reached")):
        for a_spec in (None, _balanced_specs(c, r)[0]):
            assert not loss_of_balance(ps, a_spec, r_spec).L_path.any()


def _mixed_market(state_c: bool):
    """Balanced drift plus a tilt on some states, so only some rows certify.

    Rows with ``kappa_3 == 0`` get a tilt against the empty coordinate: the
    simplex optimum stays at kappa (they certify), but a box that allows
    short sales does better.  Rows with ``kappa_1 > 0.5`` get a tilt toward
    company 1 and never certify; it is negative throughout, so its largest
    coordinate alone would pass for zero.
    """
    rng = np.random.default_rng(31)
    kappa = rng.dirichlet(np.ones(3), size=(6, 5))
    kappa[:2, :, 2] = 0.0
    kappa[2:4, :, 0] += 1.0
    kappa /= kappa.sum(axis=2, keepdims=True)
    if state_c:
        c_spec = ProcessSpec.state_function(lambda t, k: C3 * (1.0 + k[0]))
        r_spec = ProcessSpec.state_function(lambda t, k: 0.02 + 0.01 * k[1])
    else:
        c_spec = ProcessSpec.constant(C3)
        r_spec = ProcessSpec.constant(0.02)

    def tilt(k):
        if k[2] == 0.0:
            return np.array([0.0, 0.0, -0.4])
        if k[0] > 0.5:
            return np.array([-0.2, -0.6, -0.45])
        return np.zeros(3)

    a_spec = ProcessSpec.state_function(
        lambda t, k: np.asarray(c_spec(t, k)) @ k + r_spec(t, k) + tilt(k))
    ps = dataclasses.replace(
        _synthetic_ps(kappa, dt=0.1), c_spec=c_spec)
    return ps, a_spec, r_spec, tilt


def _loss_by_row_solves(ps, a_spec, r_spec, constraint):
    times = ps.times()
    L = np.zeros(ps.kappa.shape[:2])
    for p in range(ps.n_paths):
        for k in range(len(times) - 1):
            t = float(times[k])
            state = ps.kappa[p, k]
            a = np.asarray(a_spec(t, state), dtype=float)
            c = np.asarray(ps.c_spec(t, state), dtype=float)
            r = float(r_spec(t, state))
            _, g_star = growth_optimal_constrained(a, c, r, constraint)
            gap = g_star - growth_rate(state, a, c, r)
            L[p, k + 1] = L[p, k] + max(gap, 0.0) * (times[k + 1] - times[k])
    return L


@pytest.mark.parametrize("state_c", [False, True], ids=["const_c", "state_c"])
@pytest.mark.parametrize("box", [False, True], ids=["simplex", "box"])
def test_certified_loss_matches_row_by_row_solves(monkeypatch, state_c, box):
    ps, a_spec, r_spec, tilt = _mixed_market(state_c)
    constraint = (
        ConstraintSet.box_hyperplane([-0.5] * 3, [1.5] * 3)
        if box else ConstraintSet.closed_simplex()
    )
    want = _loss_by_row_solves(ps, a_spec, r_spec, constraint)
    solved = []

    def spy(a, c, r, cons):
        solved.append(a)
        return growth_optimal_constrained(a, c, r, cons)

    monkeypatch.setattr(balance_diag, "growth_optimal_constrained", spy)
    rep = loss_of_balance(ps, a_spec, r_spec, constraint=constraint)
    np.testing.assert_allclose(rep.L_path, want, rtol=0.0, atol=1e-12)
    # the left-endpoint rule never reads the last stored time
    rows = ps.kappa[:, :-1].reshape(-1, 3)
    if box:
        # the face rows gain from short sales, so nothing may be certified
        assert want[:2, -1].min() > 1e-3
        assert len(solved) == len(rows)
    else:
        tilted = sum(
            1 for k in rows if k[2] != 0.0 and tilt(k).any()
        )
        assert 0 < len(solved) == tilted < len(rows)


@pytest.mark.parametrize("box", [False, True], ids=["simplex", "box"])
def test_shared_coefficients_solve_once_per_stored_time(monkeypatch, box):
    """Coefficients that every row shares: a time table solves once at each
    stored time the left-endpoint rule reads, constants once in all, and
    both give the loss of row-by-row solves."""
    rng = np.random.default_rng(37)
    kappa = rng.dirichlet(np.ones(3), size=(4, 6))
    ps = dataclasses.replace(
        _synthetic_ps(kappa, dt=0.1, t0=0.05),
        c_spec=ProcessSpec.time_table([0.0, 0.5], [C3, 2.0 * C3]))
    a_spec = ProcessSpec.time_table(
        [0.1, 0.3], [[0.3, 0.0, -0.2], [-0.4, 0.5, 0.1]])
    r_spec = ProcessSpec.time_table([0.0, 0.4], [0.0, 0.05])
    constraint = (ConstraintSet.box_hyperplane([-0.5] * 3, [1.5] * 3)
                  if box else ConstraintSet.closed_simplex())
    solved = []

    def spy(a, c, r, cons):
        solved.append(a)
        return growth_optimal_constrained(a, c, r, cons)

    for specs, n_solves in [((a_spec, r_spec), 5),
                            ((ProcessSpec.constant(a_spec(0.0)),
                              ProcessSpec.constant(0.02)), 1)]:
        if n_solves == 1:
            ps = dataclasses.replace(ps, c_spec=ProcessSpec.constant(C3))
        want = _loss_by_row_solves(ps, *specs, constraint)
        solved.clear()
        monkeypatch.setattr(balance_diag, "growth_optimal_constrained", spy)
        rep = loss_of_balance(ps, *specs, constraint=constraint)
        monkeypatch.undo()
        np.testing.assert_allclose(rep.L_path, want, rtol=0.0, atol=1e-12)
        assert len(solved) == n_solves
        # every stored time but the last adds loss
        assert np.diff(want, axis=1)[:, :-1].min() > 1e-4


def test_negative_growth_gap_raises_solver_failure(monkeypatch):
    params = MarketParams.from_constants(
        [0.3, 0.0], np.diag([0.04, 0.09]), 0.0, [1.0, 1.0])
    ps = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=20), 3, 5)

    def short_solver(a, c, r, cons):
        rho, g_star = growth_optimal_constrained(a, c, r, cons)
        return rho, g_star - 1.0

    monkeypatch.setattr(balance_diag, "growth_optimal_constrained",
                        short_solver)
    with pytest.raises(SolverFailure, match="growth gap fell"):
        loss_of_balance(ps, ps.a_spec, ps.r_spec)


def test_solver_failure_names_the_worst_gap_over_every_path_block():
    # the loss runs one block of paths at a time: a failure planted in the
    # first block must not hide a worse one in the last
    a, c = np.array([0.3, 0.0]), np.diag([0.04, 0.09])
    params = MarketParams.from_constants(a, c, 0.0, [1.0, 1.0])
    ps = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=200), 100, 5)
    assert len(sde_engine._path_blocks(100, len(ps.stored_steps))) >= 3
    # leveraged states beat every simplex portfolio, so their gap is negative
    ps.kappa[1, 10] = [1.1, -0.1]
    ps.kappa[-1, 150] = [2.0, -1.0]
    _, g_star = growth_optimal_constrained(
        a, c, 0.0, ConstraintSet.closed_simplex())
    worst = g_star - growth_rate([2.0, -1.0], a, c, 0.0)
    assert worst < g_star - growth_rate([1.1, -0.1], a, c, 0.0) < -1e-12
    t = ps.times()[150]
    with pytest.raises(SolverFailure,
                       match=rf"fell to {worst:.3e} at t={t:.6g};"):
        loss_of_balance(ps, ps.a_spec, ps.r_spec)


def test_constant_loss_memory_is_L_plus_one_path_block(peak_above):
    params = MarketParams.from_constants(
        [0.3, 0.0], np.diag([0.04, 0.09]), 0.0, [1.0, 1.0])
    small = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=4), 3, 5)
    loss_of_balance(small, small.a_spec, small.r_spec)  # imports
    ps = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=1000), 1000, 5)
    report, above = peak_above(
        lambda: loss_of_balance(ps, ps.a_spec, ps.r_spec),
        lambda report: (report.L_path,))
    assert report.L_path.shape == (1000, 1001)
    # the whole-array loss held the gap, its clamped copy and the growth
    # rate's terms beside L: about 30 MiB
    block = max(p1 - p0 for p0, p1 in
                sde_engine._path_blocks(1000, 1001)) * 1001 * 8
    assert above <= block + 4 * 2**20, above / 2**20


# ---------------------------------------------------------------------------
# segregation


def test_distance_matrix_symmetry_and_diagonal():
    params = MarketParams.from_constants(
        [0.3, 0.0, 0.0],
        np.diag([0.04, 0.04, 0.09]),
        0.0,
        [1.0, 1.0, 1.0],
    )
    grid = PathGrid(dt=0.01, n_steps=500)
    ps = simulate_capitalizations(params, grid, 2, 29)
    dm = distance_matrix(ps, a_spec=ProcessSpec.constant([0.3, 0.0, 0.0]))
    v = dm.values
    assert v.shape == (3, 3)
    np.testing.assert_allclose(v, v.T, atol=1e-12)
    assert np.all(np.diag(v) == 0.0)
    assert np.all(v[np.triu_indices(3, 1)] > 0.0)
    assert dm.horizon == pytest.approx(5.0)
    # with the drift given, the rate never enters: a state-dependent one
    # leaves the constant market's closed form alone
    rated = distance_matrix(ps, a_spec=ProcessSpec.constant([0.3, 0.0, 0.0]),
                            r_spec=ProcessSpec.state_function(lambda t, k: k[0]))
    np.testing.assert_array_equal(rated.values, v)
    j = dm.to_json_dict()
    assert j["horizon"] == pytest.approx(5.0)
    assert np.asarray(j["values"]).shape == (3, 3)


def test_closed_form_distance_starts_at_the_first_time():
    """On a run over [5, 6] the constant-coefficient closed form and the
    step sum over the same coefficients, as a time table, agree."""
    a = np.array([0.3, 0.0, 0.1])
    c = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
    ps = _synthetic_ps(np.full((1, 101, 3), 1.0 / 3.0), t0=5.0)
    for horizon in (None, 5.5, 4.0):
        closed = distance_matrix(
            dataclasses.replace(ps, c_spec=ProcessSpec.constant(c)),
            ProcessSpec.constant(a), horizon=horizon).values
        stepped = distance_matrix(
            dataclasses.replace(ps, c_spec=ProcessSpec.time_table([0.0], [c])),
            ProcessSpec.time_table([0.0], [a]), horizon=horizon).values
        np.testing.assert_allclose(closed, stepped, rtol=1e-12, atol=1e-15)
    assert not closed.any()


def test_equal_companies_have_small_distance():
    # two identical companies plus one with a drift edge: the identical
    # pair stays close while both diverge from the third
    params = MarketParams.from_constants(
        [0.0, 0.0, 0.5],
        np.diag([0.04, 0.04, 0.04]),
        0.0,
        [1.0, 1.0, 1.0],
    )
    grid = PathGrid(dt=0.01, n_steps=1000)
    ps = simulate_capitalizations(params, grid, 1, 31)
    dm = distance_matrix(ps, a_spec=ProcessSpec.constant([0.0, 0.0, 0.5]))
    assert dm.values[0, 1] < dm.values[0, 2]
    assert dm.values[0, 1] < dm.values[1, 2]
    classes, intransitive = equivalence_classes(dm, d_threshold=dm.values[0, 2] / 2.0)
    assert not intransitive
    assert sorted(map(sorted, classes)) == [[0, 1], [2]]


def test_intransitive_grouping_is_flagged():
    from balmarkets.balance_diag import DistanceMatrix
    # 0~1 and 1~2 close but 0~2 far: chained grouping is reported
    values = np.array([
        [0.0, 1.0, 40.0],
        [1.0, 0.0, 1.0],
        [40.0, 1.0, 0.0],
    ])
    classes, intransitive = equivalence_classes(
        DistanceMatrix(values=values, horizon=1.0), d_threshold=5.0)
    assert intransitive
    assert sorted(map(sorted, classes)) == [[0, 1, 2]]


# ---------------------------------------------------------------------------
# limiting distribution


def test_limiting_distribution_on_synthetic_paths():
    steps = 101
    settled_at_vertex = np.zeros((steps, 2))
    settled_at_vertex[:, 0] = 1.0
    interior = np.column_stack([np.full(steps, 0.6), np.full(steps, 0.4)])
    swing = np.empty((steps, 2))
    swing[:, 0] = 0.5 + 0.45 * np.sin(np.linspace(0.0, 20.0, steps))
    swing[:, 1] = 1.0 - swing[:, 0]
    ps = _synthetic_ps(np.stack([settled_at_vertex, interior, swing]))
    ld = limiting_distribution(ps)
    assert ld.labels == ["atom_1", "interior", "oscillating"]
    assert ld.histogram == {"atom_1": 1, "interior": 1, "oscillating": 1}


def test_limiting_window_is_the_final_quarter_of_a_late_run():
    # over [5, 6] the weight moves by 0.6 in the first half, then settles
    steps = 101
    k1 = np.minimum(np.linspace(0.2, 1.4, steps), 0.8)
    ps = _synthetic_ps(np.column_stack([k1, 1.0 - k1])[None], t0=5.0)
    assert limiting_distribution(ps).labels == ["interior"]


def test_unsettled_majority_raises_horizon_too_short():
    steps = 101
    drifting = np.empty((steps, 2))
    # moves by 0.2 over the tail: neither settled nor oscillating
    drifting[:, 0] = np.linspace(0.3, 0.7, steps)
    drifting[:, 1] = 1.0 - drifting[:, 0]
    ps = _synthetic_ps(np.stack([drifting, drifting.copy()]))
    with pytest.raises(HorizonTooShort):
        limiting_distribution(ps)
    # a permissive cap turns the same data into labeled output
    ld = limiting_distribution(ps, indeterminate_cap=1.0)
    assert ld.labels == ["indeterminate", "indeterminate"]


def test_limiting_csv_layout(tmp_path):
    steps = 11
    flat = np.column_stack([np.ones(steps), np.zeros(steps)])
    ps = _synthetic_ps(flat[None])
    ld = limiting_distribution(ps)
    f = tmp_path / "limiting.csv"
    limiting_to_csv(ld, f, L_terminal=np.array([2.5]))
    lines = f.read_text().splitlines()
    assert lines[0] == "path,class,terminal_kappa_1,terminal_kappa_2,L_terminal"
    assert lines[1] == "0,atom_1,1,0,2.5"


def test_limiting_csv_memory_is_one_block(peak_above, tmp_path):
    """On 10,000 paths, over two blocks, the writer holds one block of
    rows at a time; the bytes are those of formatting every row."""
    n = 10_000
    rng = np.random.default_rng(41)
    kappa = rng.dirichlet(np.ones(3), n)
    L = rng.random(n)
    labels = rng.choice(["atom_1", "interior", "oscillating"], n).tolist()

    def write(m, name):
        ld = balance_diag.LimitingDistribution(labels[:m], kappa[:m])
        return peak_above(lambda: limiting_to_csv(ld, tmp_path / name, L[:m]),
                          lambda digest: ())[1]

    write(3, "warm.csv")  # imports and first-call allocations
    one = write(sde_engine._BLOCK_STEPS, "block.csv")
    whole = write(n, "whole.csv")
    block_text = (tmp_path / "block.csv").stat().st_size
    # beyond one block's peak, only the previous block's bytes, which the
    # writer still holds while it formats the next one
    assert whole <= one + block_text + 2**16, (whole - one) / block_text
    rows = [f"{p},{labels[p]}," + ",".join("%.17g" % v for v in (*kappa[p], L[p]))
            for p in range(n)]
    text = (tmp_path / "whole.csv").read_text()
    assert text == "\n".join(
        ["path,class,terminal_kappa_1,terminal_kappa_2,terminal_kappa_3,"
         "L_terminal", *rows, ""])


# ---------------------------------------------------------------------------
# wealth and tail diagnostics


def test_wealth_of_market_portfolio_tracks_total_capital():
    params = MarketParams.from_constants(
        [0.1, 0.0], np.diag([0.04, 0.09]), 0.0, [2.0, 3.0])
    grid = PathGrid(dt=1e-3, n_steps=500)
    ps = simulate_capitalizations(params, grid, 12, 37,
                                  store_increments=True)
    V = wealth_path(ps, "market",
                    a_spec=ProcessSpec.constant([0.1, 0.0]),
                    r_spec=ProcessSpec.constant(0.0))
    total = ps.caps.sum(axis=2)
    # Euler log-wealth vs exact per-company exponentials: O(dt) agreement
    np.testing.assert_allclose(V, total / total[:, :1], rtol=5e-3)


def test_lln_diagnostic_flags_collapse():
    t = np.linspace(0.0, 300.0, 3001)
    B = 1.0 + t
    rng = np.random.default_rng(43)
    X = np.cumsum(rng.standard_normal(3001) * 0.1)
    ratio, flag = lln_diagnostic(X, B)
    assert flag
    assert abs(ratio) < 0.05


def test_lln_diagnostic_keeps_quiet_without_evidence():
    # normalizer never exceeds 100: no call either way
    B = np.linspace(1.0, 50.0, 101)
    X = np.zeros(101)
    ratio, flag = lln_diagnostic(X, B)
    assert ratio == 0.0
    assert not flag
    # linear growth in X keeps the ratio large
    B2 = np.linspace(1.0, 400.0, 101)
    ratio2, flag2 = lln_diagnostic(B2 * 0.5, B2)
    assert ratio2 == pytest.approx(0.5)
    assert not flag2


def test_lln_diagnostic_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        lln_diagnostic(np.zeros(5), np.zeros(6))
    with pytest.raises(Exception):
        lln_diagnostic(np.zeros(5), np.array([1.0, 2.0, 1.5, 3.0, 4.0]))


def test_bank_rate_statistic_zero_when_rates_agree():
    grid = PathGrid(dt=0.01, n_steps=200)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, 1, 47)
    same = ProcessSpec.constant(0.03)
    assert bank_rate_statistic(ps, same, same) == pytest.approx(0.0)
    other = ProcessSpec.constant(0.05)
    stat = bank_rate_statistic(ps, other, same)
    ones = np.ones(3)
    expected = ones @ np.linalg.solve(C3, ones) * 0.02**2 * 2.0
    assert stat == pytest.approx(expected, rel=1e-6)
