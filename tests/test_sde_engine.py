"""Path simulation engines: invariants, reproducibility, serialization."""

import hashlib
import itertools
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from balmarkets import scenario_cli, sde_engine
from balmarkets.errors import NumericalOverflow, ShapeMismatch
from balmarkets.jump_markets import (
    JumpSpec,
    LifetimeRecord,
    jump_pathset_to_csv,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import MarketParams, PathGrid, ProcessSpec, psd_factor
from balmarkets.sde_engine import (
    STREAM_BROWNIAN,
    STREAM_JUMP,
    PathSet,
    pathset_summary,
    path_generator,
    pathset_to_csv,
    simulate_capitalizations,
)
from balmarkets.scenario_cli import BUILTINS, parse_config, run_scenario

C3 = np.array([
    [0.09, 0.02, 0.01],
    [0.02, 0.16, 0.03],
    [0.01, 0.03, 0.25],
])
K3 = np.array([0.5, 0.3, 0.2])


def _weights_run(n_paths=256, seed=11, **kw):
    grid = PathGrid(dt=1e-3, n_steps=500)
    return simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), K3, grid, n_paths, seed, **kw)


def test_weights_stay_on_the_simplex():
    ps = _weights_run()
    assert np.all(ps.kappa >= 0.0)
    sums = ps.kappa.sum(axis=2)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] < 1e-12


def test_prerenormalization_defect_shrinks_linearly_in_dt():
    # the centered noise keeps sum(kappa) = 1 to first order, so what the
    # renormalization removes is O(dt); without the centering it is
    # O(sqrt(dt)) and each halving of dt only takes off a factor sqrt(2)
    defects = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        n_steps = round(1.0 / dt)
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(C3), K3, PathGrid(dt=dt, n_steps=n_steps),
            200, 5, store_every=n_steps)
        defects.append(ps.diagnostics.mean_prerenorm_defect)
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert np.all((ratios >= 1.8) & (ratios <= 2.2)), (defects, ratios)


def test_same_seed_reproduces_bit_for_bit():
    a = _weights_run(seed=42)
    b = _weights_run(seed=42)
    assert np.array_equal(a.kappa, b.kappa)


def test_different_seeds_differ():
    a = _weights_run(seed=1)
    b = _weights_run(seed=2)
    assert not np.array_equal(a.kappa, b.kappa)


@pytest.mark.parametrize("stream", [STREAM_BROWNIAN, STREAM_JUMP])
def test_chunk_keys_are_the_seed_sequence_keys(stream):
    # seeds of one, two and three entropy words; path indices of one word,
    # and ranges that reach or cross 2**32, where a path index takes two
    rng = np.random.default_rng(2024)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5,
             *(int(s) for s in rng.integers(0, 2**62, 3))]
    spans = [(0, 2048), (2**32 - 1, 2**32), (2**32 - 2, 2**32 + 2),
             (2**40, 2**40 + 3)]
    for seed in seeds:
        for lo, hi in spans:
            ref = [np.random.SeedSequence(entropy=(seed, stream, p))
                   .generate_state(2, np.uint64) for p in range(lo, hi)]
            keys = sde_engine._philox_keys(seed, stream, lo, hi)
            assert keys.dtype == np.uint64 and keys.shape == (hi - lo, 2)
            assert np.array_equal(keys, ref), (seed, lo, hi)
    for seed in seeds[:5]:
        gens = sde_engine.path_generators(seed, stream, 2**32 - 3, 2**32 + 3)
        for p, g in zip(range(2**32 - 3, 2**32 + 3), gens):
            assert np.array_equal(g.random(4),
                                  path_generator(seed, stream, p).random(4))
    with pytest.raises(ValueError):
        sde_engine.path_generators(-1, stream, 0, 2)


def _short_run(engine, n_paths, n_threads):
    """One short run of ``engine``; returns every array the run produces.

    A one-ulp difference in a noise increment reaches the stored state only
    about once in a hundred steps, so the run is a few hundred steps long.
    """
    grid = PathGrid(dt=1e-3, n_steps=400)
    if engine == "balanced":
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(C3), K3, grid, n_paths, 17, n_threads=n_threads)
        return {"kappa": ps.kappa}
    if engine == "caps":
        params = MarketParams.from_constants([0.05, 0.0, 0.1], C3, 0.0, 3.0 * K3)
        ps = simulate_capitalizations(params, grid, n_paths, 17, n_threads=n_threads)
        return {"kappa": ps.kappa, "caps": ps.caps}
    atoms = np.array([[0.4, -0.2, 0.1], [-0.5, 0.3, 0.0], [0.5, -0.8, -1.0]])
    # without diffusion, paths share states until their one jump, and
    # the atom at -1 kills companies
    zero_c = engine == "jump_zero_c"
    spec = JumpSpec.finite_atoms(ProcessSpec.constant(5.0), lam_max=5.0,
                                 atoms=atoms, probs=[0.5, 0.3, 0.2],
                                 max_jumps=1 if zero_c else None)
    c = np.zeros((3, 3)) if zero_c else C3
    ps, rec = simulate_jump_balanced(ProcessSpec.constant(c), spec, K3, grid,
                                     n_paths, 17, n_threads=n_threads)
    return {"kappa": ps.kappa, "zeta": rec.zeta, "death_mode": rec.death_mode,
            "jump_count": rec.jump_count, "first_jump": rec.first_jump_time}


@pytest.mark.parametrize("engine", ["balanced", "caps", "jump", "jump_zero_c"])
def test_thread_count_does_not_change_paths(engine):
    # uneven path counts split into uneven chunks; 1025 also exceeds one
    # chunk at a single thread
    for n_paths in (3, 301, 1025):
        ref = _short_run(engine, n_paths, 1)
        for n_threads in (2, 3):
            got = _short_run(engine, n_paths, n_threads)
            for key, val in ref.items():
                assert np.array_equal(got[key], val, equal_nan=key == "first_jump"), (
                    f"{key} differs at {n_paths} paths, {n_threads} threads")


@pytest.mark.parametrize("engine", ["balanced", "caps"])
def test_worker_threads_are_capped_at_the_cores(monkeypatch, engine):
    """5000 workers asked for on 10,000 paths: a run has no more worker
    processes than the cores it may run on (here the 2 of its affinity, of
    64 that ``os.cpu_count`` reports), splits the paths into the chunks of
    that many, as at 2 asked for, and the constant branch sizes its tiles
    for that many.  The fork primitive here is an inline fake, so no process
    starts; the bytes are those of one worker."""
    opened, shares = [], []

    def inline_forked(n, workers, job):
        opened.append((n, workers))
        return (job(k) for k in range(n))

    tile_plan = sde_engine._tile_plan

    def recording_plan(m, d, n_steps, workers):
        shares.append(workers)
        return tile_plan(m, d, n_steps, workers)

    grid = PathGrid(dt=0.01, n_steps=8)
    params = MarketParams.from_constants([0.05, 0.0, 0.1], C3, 0.0, 3.0 * K3)

    def run(n_threads):
        if engine == "caps":
            ps = simulate_capitalizations(params, grid, 10_000, 17,
                                          store_every=4, n_threads=n_threads)
            return ps.kappa, ps.caps
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(C3), K3, grid, 10_000, 17, store_every=4,
            n_threads=n_threads)
        return ps.kappa, ps.diagnostics.mean_prerenorm_defect

    want = run(1)
    monkeypatch.setattr(sde_engine, "_forked", inline_forked)
    monkeypatch.setattr(sde_engine.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sde_engine, "_tile_plan", recording_plan)
    got = run(5000)
    assert opened == [(len(sde_engine._chunks(10_000, 2)), 2)]
    run(2)
    assert opened[1] == opened[0]
    assert set(shares) <= {2}
    assert bool(shares) == (engine == "caps")
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_store_every_subsamples_the_full_run():
    full = _weights_run(seed=3)
    thin = _weights_run(seed=3, store_every=100)
    np.testing.assert_array_equal(thin.kappa, full.kappa[:, ::100])
    np.testing.assert_array_equal(thin.stored_steps, full.stored_steps[::100])


def test_zero_covariance_freezes_the_weights():
    grid = PathGrid(dt=0.01, n_steps=100)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(np.zeros((3, 3))), K3, grid, 8, 5)
    assert np.all(ps.kappa == K3)


def test_single_company_market_is_constant_one():
    grid = PathGrid(dt=0.01, n_steps=50)
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(np.array([[0.2]])), [1.0], grid, 4, 9)
    assert np.all(ps.kappa == 1.0)


def test_increment_storage_matches_grid():
    ps = _weights_run(n_paths=16, store_increments=True)
    assert ps.brownian_increments is not None
    n, steps, d = ps.brownian_increments.shape
    assert (n, steps, d) == (16, 500, 3)
    # increments are N(0, dt): crude scale check only
    sd = ps.brownian_increments.std()
    assert 0.8 * np.sqrt(1e-3) < sd < 1.2 * np.sqrt(1e-3)


# ---------------------------------------------------------------------------
# capitalization engine


def test_capitalizations_match_lognormal_moments():
    """Constant coefficients make log S exactly Gaussian per step."""
    a = np.array([0.05, 0.1])
    c = np.array([[0.04, 0.0], [0.0, 0.09]])
    params = MarketParams.from_constants(a, c, 0.0, [1.0, 2.0])
    grid = PathGrid(dt=1e-3, n_steps=1000)
    ps = simulate_capitalizations(params, grid, 4000, 21, store_every=1000)
    s_T = ps.caps[:, -1]
    for i, s0_i in enumerate([1.0, 2.0]):
        expected = s0_i * np.exp(a[i] * 1.0)
        se = s_T[:, i].std(ddof=1) / np.sqrt(len(s_T))
        assert abs(s_T[:, i].mean() - expected) < 3.0 * se


def test_relative_caps_consistent_with_caps():
    params = MarketParams.from_constants(
        [0.0, 0.1], np.diag([0.04, 0.09]), 0.0, [3.0, 1.0])
    grid = PathGrid(dt=0.01, n_steps=100)
    ps = simulate_capitalizations(params, grid, 32, 13)
    recomputed = ps.caps / ps.caps.sum(-1, keepdims=True)
    assert np.abs(recomputed - ps.kappa).max() < 1e-12


def _caps_per_step(params, grid, n_paths, seed, store_every):
    """Constant-coefficient log-Euler loop one step at a time: the reference
    for the block-evaluated engine.  Returns (kappa, caps, increments)."""
    a = np.asarray(params.a_spec(0.0), dtype=float)
    c = np.asarray(params.c_spec(0.0), dtype=float)
    sigma = psd_factor(c)
    drift = (a - 0.5 * np.diag(c)) * grid.dt
    dw = np.stack([
        path_generator(seed, STREAM_BROWNIAN, p).standard_normal((grid.n_steps, params.d))
        for p in range(n_paths)
    ]) * np.sqrt(grid.dt)
    logs = np.tile(np.log(params.s0), (n_paths, 1))
    caps = [np.exp(logs)]
    kappa = [caps[0] / caps[0].sum(axis=1, keepdims=True)]
    for k in range(grid.n_steps):
        logs += drift + dw[:, k] @ sigma.T
        if (k + 1) % store_every == 0 or k + 1 == grid.n_steps:
            mx = logs.max(axis=1, keepdims=True)
            w = np.exp(logs - mx)
            kappa.append(w / w.sum(axis=1, keepdims=True))
            caps.append(np.exp(logs))
    return np.stack(kappa, axis=1), np.stack(caps, axis=1), dw


# Patched ``_BLOCK_VALUES`` for the constant-coefficient tiles, given as
# (paths, steps) per tile of one worker: the default; three paths by four
# steps, so that 4096 + 37 steps end in a one-step block and three paths
# make one tile, five paths two, of two and three; three paths by the full
# ``_TILE_STEPS`` steps
_TILES = [None, (3, 4), (3, sde_engine._TILE_STEPS)]


def _tile_values(tile, d):
    return sde_engine._BLOCK_VALUES if tile is None else tile[0] * tile[1] * d


def _tile_rows(n_paths, n_steps, d, n_threads):
    """Row counts (paths by steps) of the constant branch's tile products."""
    workers = sde_engine._n_workers(n_paths, n_threads)
    chunks = sde_engine._chunks(n_paths, workers)
    rows = set()
    for lo, hi in chunks:
        span, tiles = sde_engine._tile_plan(hi - lo, d, n_steps, workers)
        for blk in {span, n_steps % span or span}:
            rows |= {(p1 - p0) * blk for p0, p1 in tiles}
    return rows


@pytest.mark.parametrize("a,c", [
    ([0.0, 0.5], [[0.0, 0.0], [0.0, 1.0]]),
    ([0.05, -0.02, 0.1], C3),
    ([0.1, 0.0, -0.1, 0.05, 0.02],
     np.diag([0.04, 0.09, 0.01, 0.16, 0.25]) + 0.01),
])
@pytest.mark.parametrize("store_every", [100, 1])
def test_block_step_matches_per_step_reference(a, c, store_every):
    d = len(a)
    params = MarketParams.from_constants(a, c, 0.0, np.arange(1.0, d + 1.0))
    # (paths, steps, tile): stored steps straddle the edges of the first
    # tiles; a split of 3, 5 or 7 paths into tiles of at most three by one
    # step could leave one path alone, and its product (a gemv) would round
    # differently from the reference's, early enough to show
    cases = [(n, 4096 + 37, tile) for n in (2, 3, 5) for tile in _TILES]
    cases += [(n, 50, (3, 1)) for n in (3, 5, 7)]
    # and product slabs of the default size or of 3 rows: a tile of 3k + 1
    # rows, cut into 3-row slabs from its first row, would end in a one-row
    # product
    remainders = set()
    for (n_paths, n_steps, tile), slab in itertools.product(cases, (None, 3)):
        grid = PathGrid(dt=0.01, n_steps=n_steps)
        kappa, caps, dw = _caps_per_step(params, grid, n_paths, 23, store_every)
        slab_values = sde_engine._SLAB_VALUES if slab is None else slab * d
        with mock.patch.object(sde_engine, "_BLOCK_VALUES", _tile_values(tile, d)), \
                mock.patch.object(sde_engine, "_SLAB_VALUES", slab_values):
            for n_threads in (1, 2, 3):
                remainders |= {r % 3 for r in _tile_rows(n_paths, n_steps, d, n_threads)}
                ps = simulate_capitalizations(
                    params, grid, n_paths, 23, store_every=store_every,
                    store_increments=store_every == 1, n_threads=n_threads)
                label = (n_paths, n_steps, tile, slab, n_threads)
                assert np.array_equal(ps.kappa, kappa), label
                assert np.array_equal(ps.caps, caps), label
                if store_every == 1:
                    assert np.array_equal(ps.brownian_increments, dw), label
    assert 1 in remainders


@settings(max_examples=300, deadline=None)
@given(n_paths=st.integers(1, 5000), n_threads=st.integers(1, 8),
       d=st.integers(1, 6), n_steps=st.integers(1, 20_000))
# eight workers of 3 paths of 6 companies: the tightest share
@example(n_paths=24, n_threads=8, d=6, n_steps=20_000)
def test_constant_tiles_share_the_block_budget(n_paths, n_threads, d, n_steps):
    # arithmetic only: no thread is started
    def plans(n_threads):
        chunks = sde_engine._chunks(n_paths, n_threads)
        workers = min(n_threads, len(chunks))
        return workers, [sde_engine._tile_plan(hi - lo, d, n_steps, workers)
                         for lo, hi in chunks]

    workers, plan = plans(n_threads)
    # each worker's draw tile: its largest tile of paths by the steps
    held = sorted((max(p1 - p0 for p0, p1 in tiles) * span * d
                   for span, tiles in plan), reverse=True)
    assert sum(held[:workers]) <= sde_engine._BLOCK_VALUES
    for (lo, hi), (span, tiles) in zip(sde_engine._chunks(n_paths, n_threads), plan):
        assert span >= 1
        assert tiles[0][0] == 0 and tiles[-1][1] == hi - lo
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        if hi - lo >= 2:
            assert min(p1 - p0 for p0, p1 in tiles) >= 2
    # a path's draw call is span * d long, whatever the thread count
    assert {span for span, _ in plan} == {span for span, _ in plans(1)[1]}


@settings(max_examples=300, deadline=None)
@given(n_paths=st.integers(1, 5000), n_threads=st.integers(1, 8),
       d=st.integers(1, 6), n_steps=st.integers(1, 20_000))
# balanced_demo at two threads: two workers of 500 paths of 3 companies
@example(n_paths=1000, n_threads=2, d=3, n_steps=100_000)
def test_step_blocks_share_the_block_budget(n_paths, n_threads, d, n_steps):
    # arithmetic only: no thread is started
    budget = sde_engine._BLOCK_VALUES
    chunks = sde_engine._chunks(n_paths, n_threads)
    workers = min(n_threads, len(chunks))
    plan = [(hi - lo, sde_engine._block_steps(hi - lo, d, n_steps, workers))
            for lo, hi in chunks]
    # a full chunk's draw call on its own is the shortest
    shortest = min(n_steps, budget // (sde_engine._CHUNK_PATHS * d))
    for m, span in plan:
        assert shortest <= span <= n_steps
        if workers == 1:  # one worker holds the whole budget
            assert span == min(n_steps, max(1, budget // (m * d)))
    if workers * max(m for m, _ in plan) <= sde_engine._CHUNK_PATHS:
        held = sorted((m * span * d for m, span in plan), reverse=True)
        assert sum(held[:workers]) <= budget


def _first_overflow(params, grid, paths, seed):
    """Earliest step at which some path in ``paths`` has |log S| > 700, and
    the largest |log S| there, one step at a time under a constant ``c``
    and a drift read per path at each step's time and weights."""
    c = np.asarray(params.c_spec(0.0), dtype=float)
    sigma = psd_factor(c)
    dw = np.stack([path_generator(seed, STREAM_BROWNIAN, p).standard_normal(
        (grid.n_steps, params.d)) for p in paths]) * np.sqrt(grid.dt)
    logs = np.tile(np.log(params.s0), (len(paths), 1))
    for k in range(grid.n_steps):
        t = grid.t0 + k * grid.dt
        w = np.exp(logs - logs.max(axis=1, keepdims=True))
        kappa = w / w.sum(axis=1, keepdims=True)
        a = np.array([params.a_spec(t, row) for row in kappa])
        logs += (a - 0.5 * np.diag(c)) * grid.dt + dw[:, k] @ sigma.T
        worst = float(np.abs(logs).max())
        if worst > 700.0:
            return k + 1, worst
    return None


def test_overflow_is_a_clean_error():
    for tile, n_threads in itertools.product(_TILES, (1, 2, 3)):
        with mock.patch.object(sde_engine, "_BLOCK_VALUES", _tile_values(tile, 2)):
            _assert_overflow_errors(n_threads)


def _assert_overflow_errors(n_threads):
    params = MarketParams.from_constants(
        [800.0, 0.0], np.diag([0.01, 0.01]), 0.0, [1.0, 1.0])
    grid = PathGrid(dt=1.0, n_steps=2)
    with pytest.raises(NumericalOverflow):
        simulate_capitalizations(params, grid, 4, 3, n_threads=n_threads)
    # log S_1 = 0.15 k up to noise of ~1e-2: it passes 700 at step 4667,
    # in the middle of the third tile of the default _TILE_STEPS steps
    params = MarketParams.from_constants(
        [0.15, 0.0], np.diag([1e-8, 1e-8]), 0.0, [1.0, 1.0])
    grid = PathGrid(dt=1.0, n_steps=6000)
    with pytest.raises(NumericalOverflow, match=r"reached 700\.\d at step 4667;"):
        simulate_capitalizations(params, grid, 4, 3, store_every=100,
                                 n_threads=n_threads)
    # with noise the paths pass 700 at different steps: the error names the
    # earliest over every tile of the first chunk
    params = MarketParams.from_constants(
        [0.15, 0.0], np.diag([0.04, 0.04]), 0.0, [1.0, 1.0])
    lo, hi = sde_engine._chunks(5, n_threads)[0]
    step, worst = _first_overflow(params, grid, range(lo, hi), 3)
    with pytest.raises(NumericalOverflow,
                       match=rf"reached {worst:.1f} at step {step};"):
        simulate_capitalizations(params, grid, 5, 3, store_every=100,
                                 n_threads=n_threads)


@pytest.mark.parametrize("drift", ["table", "state"])
def test_step_overflow_names_the_earliest_step(drift):
    # drifts that move with time or state are stepped one at a time; log S_1
    # passes 700 after 3800 to 5600 steps: within one draw block by default,
    # within a block of about 7 steps, and at a block of its own
    seen = []
    if drift == "table":
        a_spec = ProcessSpec.time_table([0.0, 6000.0], [[0.1, 0.0], [0.2, 0.0]])
    else:
        def a_state(t, kappa):
            seen.append(t)
            return np.array([0.1 + 0.1 * kappa[0], 0.0])
        a_spec = ProcessSpec.state_function(a_state)
    params = MarketParams(d=2, a_spec=a_spec,
                          c_spec=ProcessSpec.constant(np.diag([0.04, 0.04])),
                          r_spec=ProcessSpec.constant(0.0), s0=np.ones(2))
    grid = PathGrid(dt=1.0, n_steps=6000)
    for values, n_threads in itertools.product(
            (sde_engine._BLOCK_VALUES, 5 * 7 * 2, 1), (1, 2, 3)):
        lo, hi = sde_engine._chunks(5, n_threads)[0]
        step, worst = _first_overflow(params, grid, range(lo, hi), 3)
        seen.clear()
        with mock.patch.object(sde_engine, "_BLOCK_VALUES", values), \
                pytest.raises(NumericalOverflow,
                              match=rf"reached {worst:.1f} at step {step};"):
            simulate_capitalizations(params, grid, 5, 3, store_every=100,
                                     n_threads=n_threads)
        if drift == "state" and n_threads == 1:
            # not read past the step that overflowed
            assert max(seen) == grid.t0 + (step - 1) * grid.dt, values


def _engine_run(engine, n_threads):
    """Every output of one engine run: paths, increments and diagnostics."""
    if engine == "balanced":
        # the perfect_balance_demo covariance; 2 threads once gave another
        # last bit of mean_prerenorm_defect than 1 and 3
        c = np.array(BUILTINS["perfect_balance_demo"]["market"]["c"])
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(c), K3, PathGrid(dt=1e-3, n_steps=200), 1000, 5,
            store_every=1, store_increments=True, n_threads=n_threads)
        extra = ()
    elif engine == "jump":
        spec = JumpSpec.finite_atoms(
            ProcessSpec.constant(5.0), 5.0,
            [[0.4, -0.2, 0.1], [-0.5, 0.3, 0.0], [2.0, -0.8, -0.3]],
            [0.5, 0.3, 0.2])
        ps, rec = simulate_jump_balanced(
            ProcessSpec.constant(C3), spec, K3, PathGrid(dt=1e-3, n_steps=200),
            300, 5, store_increments=True, n_threads=n_threads)
        extra = (rec.zeta, rec.jump_count, rec.first_jump_time)
    else:
        # a time table for the drift takes the capitalization engine's
        # step-at-a-time branch
        params = MarketParams(
            d=3, a_spec=ProcessSpec.time_table(
                [0.0, 0.1], [[0.0, 0.1, -0.05], [0.1, 0.0, 0.02]]),
            c_spec=ProcessSpec.constant(C3), r_spec=ProcessSpec.constant(0.0),
            s0=np.array([1.0, 2.0, 3.0]))
        ps = simulate_capitalizations(params, PathGrid(dt=1e-3, n_steps=200),
                                      300, 5, store_increments=True,
                                      n_threads=n_threads)
        extra = (ps.caps,)
    diag = ps.diagnostics
    fields = {name: getattr(diag, name)
              for name in ("max_prerenorm_defect", "sum_prerenorm_defect",
                           "mean_prerenorm_defect", "n_prerenorm_samples",
                           "n_clamped", "n_jump_candidates", "n_jumps_accepted")}
    arrays = (ps.kappa, ps.brownian_increments, diag.prerenorm_row_sums) + extra
    return fields, arrays


@pytest.mark.parametrize("engine", ["balanced", "caps", "jump"])
def test_step_engines_ignore_block_length_and_threads(engine):
    # draw blocks of one step each, and of 199 steps (a one-step tail) when
    # one chunk holds all paths
    ref_fields, ref_arrays = _engine_run(engine, 1)
    n = 1000 if engine == "balanced" else 300
    for values in (1, 3 * n * 199):
        with mock.patch.object(sde_engine, "_BLOCK_VALUES", values):
            for n_threads in (1, 2, 3):
                fields, arrays = _engine_run(engine, n_threads)
                assert fields == ref_fields, (values, n_threads)
                for got, ref in zip(arrays, ref_arrays):
                    assert np.array_equal(got, ref, equal_nan=True), (
                        values, n_threads)
    if engine != "caps":
        assert ref_fields["n_prerenorm_samples"] > 0


def _caps_peak(peak_above, n_paths, n_steps, store_every, n_threads):
    """tracemalloc peak of a constant-coefficient run above its outputs."""
    params = MarketParams.from_constants(
        [0.0, 0.5], [[0.0, 0.0], [0.0, 1.0]], 0.0, [1.0, 1.0])
    simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=2), 2, 7)  # imports
    grid = PathGrid(dt=0.01, n_steps=n_steps)
    _, above = peak_above(
        lambda: simulate_capitalizations(params, grid, n_paths, 7,
                                         store_every=store_every,
                                         n_threads=n_threads),
        lambda ps: (ps.kappa, ps.caps))
    return above


def test_constant_engine_memory_is_bounded_by_the_block_budget(peak_above):
    # 1000 paths in one chunk once held two 1000 x 4096 x 2 buffers (131 MB),
    # and then two tiles of the whole budget per worker
    for n_threads in (1, 2):
        above = _caps_peak(peak_above, 1000, 10_000, 100, n_threads)
        # the workers' draw tiles and product slabs, plus the path
        # generators and small arrays
        budget = (sde_engine._BLOCK_VALUES
                  + n_threads * sde_engine._SLAB_VALUES) * 8
        assert above < budget + 4 * 2**20, (n_threads, above / 2**20)


def test_constant_engine_memory_is_bounded_when_every_step_is_stored(peak_above):
    # 24.6 MB of outputs; the gathered stored columns and a row-major copy of
    # the weights once added two more tiles
    above = _caps_peak(peak_above, 128, 6000, 1, 1)
    # the draw tile and the weights' company-major copy
    assert above < 2 * sde_engine._BLOCK_VALUES * 8 + 4 * 2**20, above / 2**20


@pytest.mark.parametrize("engine", ["balanced", "caps", "jump"])
def test_state_spec_changing_shape_mid_run_raises(engine):
    c2 = np.array([[0.04, 0.01], [0.01, 0.09]])

    def c_fn(t, k):
        return c2 if t <= 0.5 else np.ones((2, 3))

    c_spec = ProcessSpec.state_function(c_fn)
    k2 = np.array([0.4, 0.6])
    grid = PathGrid(dt=0.01, n_steps=100)
    with pytest.raises(ShapeMismatch, match=r"covariance rate c must .*\(2, 3\)"):
        if engine == "balanced":
            simulate_relative_caps_balanced(c_spec, k2, grid, 4, 3)
        elif engine == "caps":
            params = MarketParams(d=2, a_spec=ProcessSpec.constant([0.0, 0.1]),
                                  c_spec=c_spec, r_spec=ProcessSpec.constant(0.0),
                                  s0=k2)
            simulate_capitalizations(params, grid, 4, 3)
        else:
            spec = JumpSpec.finite_atoms(1.0, 1.0, [[0.1, -0.1]], [1.0])
            simulate_jump_balanced(c_spec, spec, k2, grid, 4, 3)


# ---------------------------------------------------------------------------
# serialization


def test_csv_roundtrip_and_digest(tmp_path):
    ps = _weights_run(n_paths=5, store_every=100)
    f = tmp_path / "paths.csv"
    digest1 = pathset_to_csv(ps, f)
    digest2 = pathset_to_csv(ps, tmp_path / "again.csv")
    assert digest1 == digest2
    rows = np.loadtxt(f, delimiter=",", skiprows=1)
    assert rows.shape == (5 * 6, 3 + 3)
    header = f.read_text().splitlines()[0]
    assert header == "path,step,t,kappa_1,kappa_2,kappa_3"
    # weights survive the text roundtrip exactly
    np.testing.assert_array_equal(
        rows[:6, 3:], ps.kappa[0])


def test_csv_includes_caps_when_present(tmp_path):
    params = MarketParams.from_constants(
        [0.0, 0.0], np.diag([0.01, 0.04]), 0.0, [1.0, 1.0])
    ps = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=10),
                                  3, 8, store_every=5)
    f = tmp_path / "caps.csv"
    pathset_to_csv(ps, f)
    header = f.read_text().splitlines()[0]
    assert header == "path,step,t,kappa_1,kappa_2,S_1,S_2"


def test_summary_reports_checkpoints_and_health():
    ps = _weights_run(n_paths=200, store_every=50)
    s = pathset_summary(ps)
    assert s["n_paths"] == 200
    assert len(s["checkpoints"]) == 4
    last = s["checkpoints"][-1]
    assert last["t"] == pytest.approx(0.5)
    np.testing.assert_allclose(last["kappa_mean"], K3, atol=0.05)
    assert s["diagnostics"]["max_simplex_defect"] < 1e-12


def _savetxt_reference(ps, path):
    """The row layout of ``pathset_to_csv`` written with ``np.savetxt``."""
    n, ns, d = ps.kappa.shape
    cols = [f"kappa_{i + 1}" for i in range(d)]
    blocks = [
        np.repeat(np.arange(n, dtype=float), ns),
        np.tile(ps.stored_steps.astype(float), n),
        np.tile(ps.times(), n),
        ps.kappa.reshape(n * ns, d),
    ]
    if ps.caps is not None:
        cols += [f"S_{i + 1}" for i in range(d)]
        blocks.append(ps.caps.reshape(n * ns, d))
    data = np.column_stack([np.asarray(b).reshape(n * ns, -1) for b in blocks])
    fmt = "%d,%d," + ",".join(["%.17g"] * (data.shape[1] - 2))
    np.savetxt(path, data, fmt=fmt, header="path,step,t," + ",".join(cols),
               comments="")


def _awkward_pathset(n_paths, n_stored, d, with_caps):
    """Values that stress float formatting, over more rows than one block."""
    rng = np.random.default_rng(3)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e300,
                        -1e-300, 0.1, 1.0 / 3.0, 2.0**53, 123456789.0])
    shape = (n_paths, n_stored, d)
    kappa = rng.uniform(size=shape)
    kappa.flat[: special.size] = special
    caps = np.exp(rng.normal(scale=50.0, size=shape)) if with_caps else None
    if with_caps:
        caps.flat[-special.size:] = special
    grid = PathGrid(dt=0.1, n_steps=10 * (n_stored - 1))
    return PathSet(grid=grid, n_paths=n_paths, seed=0, kappa=kappa,
                   stored_steps=np.arange(0, grid.n_steps + 1, 10), caps=caps)


@pytest.mark.parametrize("with_caps", [True, False])
def test_csv_bytes_match_savetxt(tmp_path, with_caps):
    ps = _awkward_pathset(37, 123, 3, with_caps)
    digest = pathset_to_csv(ps, tmp_path / "block.csv")
    _savetxt_reference(ps, tmp_path / "ref.csv")
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "block.csv").read_bytes() == ref
    assert digest == hashlib.sha256(ref).hexdigest()


def _jump_rows_reference(ps, rec, path):
    """Row-by-row f-string layout of ``jump_pathset_to_csv``."""
    n, ns, d = ps.kappa.shape
    times = ps.times()
    with open(path, "w") as fh:
        kap_cols = ",".join(f"kappa_{i + 1}" for i in range(d))
        z_cols = ",".join(f"zeta_{i + 1}" for i in range(d))
        m_cols = ",".join(f"death_mode_{i + 1}" for i in range(d))
        fh.write(f"path,step,t,{kap_cols},{z_cols},{m_cols}\n")
        for p in range(n):
            z_txt = ",".join(f"{z:.17g}" for z in rec.zeta[p])
            m_txt = ",".join(rec.death_mode[p])
            for k in range(ns):
                kap_txt = ",".join(f"{x:.17g}" for x in ps.kappa[p, k])
                fh.write(f"{p},{ps.stored_steps[k]},{times[k]:.17g},"
                         f"{kap_txt},{z_txt},{m_txt}\n")


def test_jump_csv_bytes_match_row_writer(tmp_path):
    ps = _awkward_pathset(41, 113, 2, False)
    zeta = np.full((41, 2), np.inf)
    zeta[::3, 1] = np.linspace(0.1, 1.3862943611198906, 14)
    mode = np.full((41, 2), "Alive", dtype="<U16")
    mode[::3, 1] = "ContinuousVanish"
    mode[1::5, 0] = "JumpToZero"
    rec = LifetimeRecord(zeta=zeta, death_mode=mode)
    digest = jump_pathset_to_csv(ps, rec, tmp_path / "block.csv")
    _jump_rows_reference(ps, rec, tmp_path / "ref.csv")
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "block.csv").read_bytes() == ref
    assert digest == hashlib.sha256(ref).hexdigest()


# Bit patterns the writer must keep apart although they format alike or
# compare equal as floats: signed zeros and NaNs with different payloads.
_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
_POOL = np.array([0.0, -0.0, np.nan, _NAN_PAYLOAD, -np.nan, np.inf, -np.inf,
                  5e-324, 0.1, 1.0 / 3.0, 0.25, 1e300])


def _flip_twins(rows):
    """Rows that differ from ``rows`` only in the bits of zeros and NaNs."""
    out = rows.copy()
    out[rows == 0.0] = np.where(np.signbit(rows[rows == 0.0]), 0.0, -0.0)
    nan = np.isnan(rows)
    out[nan] = np.where(rows[nan].view(np.uint64) == _POOL[2:3].view(np.uint64),
                        _NAN_PAYLOAD, np.nan)
    return out


@st.composite
def _repeating_pathsets(draw):
    """Small path sets full of frozen paths, shared cohorts and near twins,
    with a block size small enough that every chain crosses blocks."""
    n = draw(st.integers(1, 6))
    ns = draw(st.integers(1, 16))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["kappa", "caps", "jump"]))
    block = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = 2 * d if kind == "caps" else d
    rows = _POOL[rng.integers(0, _POOL.size, size=(n, ns, width))]
    for p in range(n):
        for k in range(ns):
            u = rng.random()
            if u < 0.35 and k > 0:  # frozen: one stored step back
                rows[p, k] = rows[p, k - 1]
            elif u < 0.65 and p > 0:  # cohort: one path back
                rows[p, k] = rows[p - 1, k]
            elif u < 0.75 and k > 0:
                rows[p, k] = _flip_twins(rows[p, k - 1])
            elif u < 0.85 and p > 0:
                rows[p, k] = _flip_twins(rows[p - 1, k])
    grid = PathGrid(dt=0.1, n_steps=3 * max(ns - 1, 1))
    ps = PathSet(grid=grid, n_paths=n, seed=0, kappa=rows[..., :d],
                 stored_steps=np.arange(ns) * 3,
                 caps=rows[..., d:] if kind == "caps" else None)
    rec = None
    if kind == "jump":
        zeta = _POOL[rng.integers(0, _POOL.size, size=(n, d))]
        mode = rng.choice(["Alive", "ContinuousVanish", "JumpToZero"],
                          size=(n, d))
        rec = LifetimeRecord(zeta=zeta, death_mode=mode)
    return ps, rec, block


def _assert_writer_matches_reference(ps, rec, out):
    if rec is None:
        digest = pathset_to_csv(ps, out / "block.csv")
        _savetxt_reference(ps, out / "ref.csv")
    else:
        digest = jump_pathset_to_csv(ps, rec, out / "block.csv")
        _jump_rows_reference(ps, rec, out / "ref.csv")
    ref = (out / "ref.csv").read_bytes()
    assert (out / "block.csv").read_bytes() == ref
    assert digest == hashlib.sha256(ref).hexdigest()


@settings(max_examples=150, deadline=None)
@given(_repeating_pathsets())
def test_repeated_rows_write_the_per_row_bytes(tmp_path_factory, case):
    ps, rec, block = case
    with mock.patch.object(sde_engine, "_BLOCK_STEPS", block):
        _assert_writer_matches_reference(ps, rec, tmp_path_factory.mktemp("w"))


@pytest.mark.parametrize("with_caps", [True, False])
def test_repeat_chains_cross_full_size_blocks(tmp_path, with_caps):
    # more stored steps than one block: path 0 is frozen for all of them,
    # path 1 repeats it as a cohort, and path 2 differs from path 1 only
    # in the sign of its zeros
    ns = sde_engine._BLOCK_STEPS + 5
    row = np.array([0.0, 0.5, np.inf])
    kappa = np.empty((3, ns, 3))
    kappa[0] = row
    kappa[1] = row
    kappa[2] = _flip_twins(row)
    kappa[1, ns // 2] = [1.0, 0.0, 0.0]  # a break inside the cohort
    grid = PathGrid(dt=1e-3, n_steps=ns - 1)
    ps = PathSet(grid=grid, n_paths=3, seed=0, kappa=kappa,
                 stored_steps=np.arange(ns),
                 caps=2.0 * kappa if with_caps else None)
    _assert_writer_matches_reference(ps, None, tmp_path)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_paths_csv_matches_the_per_row_writer(tmp_path, name):
    # shrunk builtins: real cohort and frozen-row layouts, the zero-c jump
    # example included; the horizons are too short for a limiting law
    doc = {"builtin": name, "n_paths": 24, "store_every": 2,
           "grid": {"T": BUILTINS[name]["grid"]["T"] / 50, "dt": 2e-3},
           "diagnostics": {"limiting_distribution": False}}
    if name == "example_7_2":
        doc.update(n_paths=64, store_every=5, grid={"T": 1.5, "dt": 1e-3})
    seen = []

    def keep(writer):
        def wrapped(*args):
            seen.append(args[:-1])
            return writer(*args)
        return wrapped

    with mock.patch.object(scenario_cli, "pathset_to_csv",
                           keep(pathset_to_csv)), \
            mock.patch.object(scenario_cli, "jump_pathset_to_csv",
                              keep(jump_pathset_to_csv)):
        summary = run_scenario(parse_config(doc), str(tmp_path / "run"))
    (args,) = seen
    ps, rec = args if len(args) == 2 else (args[0], None)
    if rec is None:
        _savetxt_reference(ps, tmp_path / "ref.csv")
    else:
        _jump_rows_reference(ps, rec, tmp_path / "ref.csv")
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "run" / "paths.csv").read_bytes() == ref
    assert summary["digests"]["paths.csv"] == hashlib.sha256(ref).hexdigest()


def test_write_hashed_raises_from_either_side_and_stops_its_helper(tmp_path):
    # chunks are made on the calling thread; from the third on they are
    # written and hashed on a helper thread
    threads = threading.active_count()
    out = tmp_path / "x.csv"

    def chunks(fail_at, n=20):
        for k in range(n):
            if k == fail_at:
                raise RuntimeError("formatting failed")
            yield f"row {k}\n".encode()

    for n in (0, 1, 2, 20):
        data = b"".join(chunks(None, n))
        assert sde_engine._write_hashed(out, chunks(None, n)) == hashlib.sha256(
            data).hexdigest()
        assert out.read_bytes() == data
    with mock.patch.object(sde_engine.threading, "Thread", side_effect=AssertionError):
        sde_engine._write_hashed(out, chunks(None, 2))  # no thread for two chunks
    with pytest.raises(RuntimeError, match="formatting failed"):
        sde_engine._write_hashed(out, chunks(7))
    assert threading.active_count() == threads

    class FailingHash:  # from the fifth chunk on, so on the helper thread
        def __init__(self):
            self.n = 0

        def update(self, data):
            self.n += 1
            if self.n >= 5:
                assert threading.current_thread() is not threading.main_thread()
                raise OSError("hashing failed")

    with mock.patch.object(sde_engine.hashlib, "sha256", FailingHash):
        with pytest.raises(OSError, match="hashing failed"):
            sde_engine._write_hashed(out, chunks(None))
    assert threading.active_count() == threads
