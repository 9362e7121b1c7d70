"""Acceptance suite: ten numbered checks, one printed verdict line each.

Each test prints ``acceptance N [PASS|FAIL] <detail>`` and then asserts,
so a full run leaves a ten-line scoreboard in the captured output.
Statistical checks use pinned seeds; frozen regression numbers are
recorded next to the tolerance that produced them.
"""

import math
import time

import numpy as np

from balmarkets.balance_diag import (
    lln_diagnostic,
    loss_of_balance,
    wealth_path,
)
from balmarkets.growth_opt import (
    growth_optimal_constrained,
    growth_optimal_hyperplane,
)
from balmarkets.jump_markets import (
    example_death_of_company,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import (
    ConstraintSet,
    MarketParams,
    PathGrid,
    ProcessSpec,
)
from balmarkets.scenario_cli import (
    parse_config,
    replay_summary,
    run_scenario,
)
from balmarkets.sde_engine import pathset_summary, simulate_capitalizations


def _verdict(num, ok, detail):
    print(f"acceptance {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"acceptance {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. simplex membership and the martingale property of balanced weights


def test_01_simplex_and_martingale_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_defect = 0.0
    worst_z = 0.0
    for d, seed in [(2, 110), (3, 111), (5, 112)]:
        m = rng.standard_normal((d, d))
        c = 0.2 * (m @ m.T) + 0.01 * np.eye(d)
        k0 = rng.dirichlet(np.ones(d))
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(c), k0,
            PathGrid(dt=1e-3, n_steps=1000), 10_000, seed, store_every=1000)
        defect = max(
            pathset_summary(ps)["diagnostics"]["max_simplex_defect"],
            float(np.abs(ps.kappa.sum(axis=2) - 1.0).max()),
            float(max(0.0, -ps.kappa.min())),
        )
        worst_defect = max(worst_defect, defect)
        terminal = ps.kappa[:, -1, :]
        se = terminal.std(axis=0, ddof=1) / np.sqrt(ps.n_paths)
        z = np.abs(terminal.mean(axis=0) - k0) / np.maximum(se, 1e-300)
        worst_z = max(worst_z, float(z.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-9 and worst_z <= 3.0 and elapsed < 30.0
    _verdict(1, ok,
             f"simplex defect {worst_defect:.2e} <= 1e-9, "
             f"terminal-mean |z| {worst_z:.2f} <= 3, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. constrained solver versus an exhaustive simplex lattice


def test_02_solver_matches_exhaustive_grid():
    t0 = time.perf_counter()
    step = 1e-3
    # d = 2 lattice
    p = np.arange(1001) * step
    feats2 = np.stack([p, 1.0 - p, p * p, (1.0 - p) ** 2, p * (1.0 - p)])
    # d = 3 lattice: all (i, j) with i + j <= 1000
    i = np.arange(1001)
    I, J = np.meshgrid(i, i, indexing="ij")
    keep = (I + J) <= 1000
    p1 = I[keep] * step
    p2 = J[keep] * step
    p3 = 1.0 - p1 - p2
    feats3 = np.stack([p1, p2, p3, p1 * p1, p2 * p2, p3 * p3,
                       p1 * p2, p1 * p3, p2 * p3])
    lattice3 = np.stack([p1, p2, p3], axis=1)

    rng = np.random.default_rng(202)
    worst_obj = 0.0
    worst_arg = 0.0
    for _ in range(100):
        m = rng.standard_normal((2, 2))
        c = m @ m.T + 0.1 * np.eye(2)
        a = rng.standard_normal(2)
        w = np.array([a[0], a[1], -0.5 * c[0, 0], -0.5 * c[1, 1], -c[0, 1]])
        g_grid = w @ feats2
        best = int(np.argmax(g_grid))
        rho, g_star = growth_optimal_constrained(
            a, c, 0.0, ConstraintSet.closed_simplex())
        worst_obj = max(worst_obj, abs(g_star - g_grid[best]))
        rho_grid = np.array([p[best], 1.0 - p[best]])
        worst_arg = max(worst_arg, float(np.abs(rho - rho_grid).max()))
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        c = m @ m.T + 0.1 * np.eye(3)
        a = rng.standard_normal(3)
        w = np.array([a[0], a[1], a[2],
                      -0.5 * c[0, 0], -0.5 * c[1, 1], -0.5 * c[2, 2],
                      -c[0, 1], -c[0, 2], -c[1, 2]])
        g_grid = w @ feats3
        best = int(np.argmax(g_grid))
        rho, g_star = growth_optimal_constrained(
            a, c, 0.0, ConstraintSet.closed_simplex())
        worst_obj = max(worst_obj, abs(g_star - g_grid[best]))
        worst_arg = max(worst_arg,
                        float(np.abs(rho - lattice3[best]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-5 and worst_arg <= 2e-3 and elapsed < 10.0
    _verdict(2, ok,
             f"200 problems: objective gap {worst_obj:.2e} <= 1e-5, "
             f"argument gap {worst_arg:.2e} <= 2e-3, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 3. closed-form weights for the one-noisy-company family


def test_03_two_company_closed_form():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(100):
        sigma = rng.uniform(0.5, 2.0)
        ratio = 0.0 if k == 0 else (0.5 if k == 1 else rng.uniform(0.0, 0.5))
        a_bar = ratio * sigma**2
        a = np.array([0.0, a_bar])
        c = np.diag([0.0, sigma**2])
        rho, rate = growth_optimal_hyperplane(a, c)
        expected = np.array([1.0 - ratio, ratio])
        worst = max(worst, float(np.abs(rho - expected).max()), abs(rate))
    ok = worst <= 1e-10
    _verdict(3, ok, f"closed-form weight error {worst:.2e} <= 1e-10 "
                    "over 100 draws")


# ---------------------------------------------------------------------------
# 4. loss-of-balance identities


def test_04_loss_identities():
    # balanced construction accrues nothing
    c3 = np.array([[0.09, 0.02, 0.01],
                   [0.02, 0.16, 0.03],
                   [0.01, 0.03, 0.25]])
    k3 = np.array([0.5, 0.3, 0.2])
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(c3), k3, PathGrid(dt=1e-3, n_steps=1000),
        50, 404)
    a_spec = ProcessSpec.state_function(lambda t, k: c3 @ k + 0.02)
    rep = loss_of_balance(ps, a_spec, ProcessSpec.constant(0.02))
    balanced_max = float(np.abs(rep.L_path).max())

    # flight-to-one-company family: increment is 0.5 * (sigma * k1)^2 dt
    dt = 1e-3
    params = MarketParams.from_constants(
        [0.0, 0.0], np.diag([0.0, 1.0]), 0.0, [1.0, 1.0])
    ps1 = simulate_capitalizations(
        params, PathGrid(dt=dt, n_steps=100), 5, 405)
    rep1 = loss_of_balance(ps1, ps1.a_spec, ps1.r_spec)
    inc1 = np.diff(rep1.L_path, axis=1)
    want1 = 0.5 * ps1.kappa[:, :-1, 1] ** 2 * dt
    err1 = float(np.abs(inc1 - want1).max())

    # critical family: increment is 0.5 * (sigma * (k1 - 1/2))^2 dt
    params2 = MarketParams.from_constants(
        [0.0, 0.5], np.diag([0.0, 1.0]), 0.0, [1.0, 1.0])
    ps2 = simulate_capitalizations(
        params2, PathGrid(dt=dt, n_steps=100), 5, 406)
    rep2 = loss_of_balance(ps2, ps2.a_spec, ps2.r_spec)
    inc2 = np.diff(rep2.L_path, axis=1)
    want2 = 0.5 * (ps2.kappa[:, :-1, 1] - 0.5) ** 2 * dt
    err2 = float(np.abs(inc2 - want2).max())

    ok = balanced_max <= 1e-9 and err1 <= 1e-10 and err2 <= 1e-10
    _verdict(4, ok,
             f"balanced L {balanced_max:.2e} <= 1e-9; per-step identity "
             f"errors {err1:.2e}, {err2:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 5. one company takes all, and the outcome is still balanced


def test_05_one_company_takes_all():
    t0 = time.perf_counter()
    params = MarketParams.from_constants(
        [0.0, 0.0], np.diag([0.0, 1.0]), 0.0, [1.0, 1.0])
    ps = simulate_capitalizations(
        params, PathGrid(dt=1e-2, n_steps=10_000), 1000, 505,
        store_every=100)
    rep = loss_of_balance(ps, ps.a_spec, ps.r_spec)
    frac_winner = float((ps.kappa[:, -1, 0] > 0.99).mean())
    frac_balanced = rep.classification.count("Balanced") / 1000.0
    elapsed = time.perf_counter() - t0
    ok = frac_winner >= 0.95 and frac_balanced >= 0.95 and elapsed < 60.0
    _verdict(5, ok,
             f"terminal winner share {frac_winner:.3f} >= 0.95, "
             f"Balanced share {frac_balanced:.3f} >= 0.95, "
             f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 6. critical drift: unbalanced forever, weights keep crossing the simplex


def test_06_oscillation_regime(tmp_path):
    cfg = parse_config({"builtin": "sec6_case_critical"})
    summary = run_scenario(cfg, str(tmp_path))
    counts = summary["balance"]["classification_counts"]
    unbalanced = counts.get("Unbalanced", 0)
    oscillating = summary["limiting"]["histogram"].get("oscillating", 0)
    frac_unbalanced = unbalanced / 1000.0
    frac_osc = oscillating / max(unbalanced, 1)
    # frozen regression numbers for this builtin (seed 62, dt=1e-2,
    # stored every 100 steps), calibrated against a dt=1e-3 oracle run
    # that put the oscillating fraction near 0.31
    frozen = unbalanced == 1000 and oscillating == 332
    ok = frac_unbalanced >= 0.90 and frac_osc >= 0.30 and frozen
    _verdict(6, ok,
             f"Unbalanced {unbalanced}/1000 (>= 90%), oscillating "
             f"{oscillating} ({frac_osc:.1%} >= 30%), frozen 1000/332: "
             f"{frozen}")


# ---------------------------------------------------------------------------
# 7. exact jump example: drift outrun by a unit-rate rescue jump


def test_07_death_of_company_exact():
    t0 = time.perf_counter()
    res = example_death_of_company(
        PathGrid(dt=1e-4, n_steps=15_000), 10_000, 63, store_every=100)
    elapsed = time.perf_counter() - t0
    tol = 5e-4  # five time steps at dt = 1e-4
    frac_err = abs(res["dying_fraction"] - 0.25)
    band = 3.0 * res["dying_fraction_se"]
    ok = (res["sup_error"] <= tol
          and res["death_time_err"] <= tol
          and frac_err <= band
          and elapsed < 60.0)
    _verdict(7, ok,
             f"sup err {res['sup_error']:.2e} <= 5e-4, death-time err "
             f"{res['death_time_err']:.2e} <= 5e-4, dying fraction off by "
             f"{frac_err:.4f} <= {band:.4f}, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 8. wealth ratios against the growth-optimal weights trend downward


def test_08_wealth_ratio_supermartingale():
    params = MarketParams.from_constants(
        [0.0, 0.25], np.diag([0.0, 1.0]), 0.0, [1.0, 1.0])
    ps = simulate_capitalizations(
        params, PathGrid(dt=1e-3, n_steps=1000), 4000, 808,
        store_increments=True)
    a_spec = ProcessSpec.constant(np.array([0.0, 0.25]))
    r_spec = ProcessSpec.constant(0.0)
    rho = np.array([0.75, 0.25])  # interior optimum of this market
    v_rho = wealth_path(ps, rho, a_spec=a_spec, r_spec=r_spec)
    checkpoints = [250, 500, 750, 1000]
    rng = np.random.default_rng(809)
    worst = -np.inf
    for _ in range(20):
        pi = rng.dirichlet(np.ones(2))
        ratio = wealth_path(ps, pi, a_spec=a_spec, r_spec=r_spec) / v_rho
        r_ck = ratio[:, checkpoints]
        # drop from the sure start: mean at the first checkpoint
        first = r_ck[:, 0]
        se0 = first.std(ddof=1) / np.sqrt(len(first))
        worst = max(worst, (first.mean() - 1.0) / max(se0, 1e-300))
        diffs = np.diff(r_ck, axis=1)
        mean = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
        worst = max(worst, float((mean / np.maximum(se, 1e-300)).max()))
    ok = worst <= 3.0
    _verdict(8, ok,
             f"20 portfolios, 4 checkpoints: max standardized increase "
             f"{worst:.2f} <= 3")


# ---------------------------------------------------------------------------
# 9. tail diagnostics against exact normal answers


def test_09_tail_diagnostics():
    # long-horizon average of a driftless noise path collapses
    rng = np.random.default_rng(909)
    T, n = 10_000.0, 10_000
    w_T = rng.standard_normal(n) * np.sqrt(T)
    ratio = w_T / T
    se = ratio.std(ddof=1) / np.sqrt(n)
    z = abs(ratio.mean()) / se
    # the running-ratio diagnostic flags the collapse on a sampled path
    steps = 10_000
    t_grid = np.linspace(0.0, T, steps + 1)
    path = np.concatenate([
        [0.0], np.cumsum(rng.standard_normal(steps) * np.sqrt(T / steps))])
    _, flagged = lln_diagnostic(path, t_grid)

    # exponential of the noise at T = 100: exact tail as oracle
    T2, n2 = 100.0, 1_000_000
    w2 = rng.standard_normal(n2) * np.sqrt(T2)
    exceed = int(np.count_nonzero(np.exp(w2 - T2 / 2.0) > 0.01))
    x = (np.log(0.01) + T2 / 2.0) / np.sqrt(T2)
    p_exact = 0.5 * math.erfc(x / math.sqrt(2.0))  # standard normal tail
    band = 3.0 * np.sqrt(p_exact * (1.0 - p_exact) / n2)
    tail_err = abs(exceed / n2 - p_exact)

    ok = z <= 3.0 and flagged and tail_err <= band
    _verdict(9, ok,
             f"W_T/T mean |z| {z:.2f} <= 3, collapse flagged: {flagged}, "
             f"tail freq {exceed}/{n2} vs exact {p_exact:.3e} "
             f"(err {tail_err:.2e} <= {band:.2e})")


# ---------------------------------------------------------------------------
# 10. byte-identical replay across thread counts


def test_10_replay_determinism(tmp_path):
    cfg = parse_config({"builtin": "perfect_balance_demo"})
    first = run_scenario(cfg, str(tmp_path / "run1"), n_threads=1)
    _, matched = replay_summary(
        str(tmp_path / "run1" / "summary.json"),
        str(tmp_path / "run2"), n_threads=3)
    bytes1 = (tmp_path / "run1" / "paths.csv").read_bytes()
    bytes2 = (tmp_path / "run2" / "paths.csv").read_bytes()
    ok = matched and bytes1 == bytes2
    _verdict(10, ok,
             f"digests matched: {matched}, csv byte-identical at "
             f"1 vs 3 threads: {bytes1 == bytes2}")
