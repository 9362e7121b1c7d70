"""Forked worker processes: order, errors, signals, clean-up, and the
engine diagnostics that travel back through their pipes."""

import inspect
import os
import pickle
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest

from balmarkets import errors, sde_engine
from balmarkets.errors import BalmarketsError, NumericalOverflow
from balmarkets.jump_markets import (
    JumpSpec,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import MarketParams, PathGrid, ProcessSpec
from balmarkets.sde_engine import (
    pathset_summary,
    pathset_to_csv,
    simulate_capitalizations,
)

C3 = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])


@pytest.fixture
def two_cores(monkeypatch):
    """Two worker processes at ``n_threads >= 2``, whatever the machine."""
    monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0, 1})


def _assert_no_worker_left(threads):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@pytest.fixture
def sigterm_exits():
    """A SIGTERM handler that raises ``SystemExit``, as a caller may install."""
    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    old = signal.signal(signal.SIGTERM, terminate)
    yield terminate
    signal.signal(signal.SIGTERM, old)


def test_every_error_class_pickles():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert BalmarketsError in classes and NumericalOverflow in classes
    for cls in classes:
        err = pickle.loads(pickle.dumps(cls(f"{cls.__name__} at step 7")))
        assert type(err) is cls
        assert str(err) == f"{cls.__name__} at step 7"


def test_items_come_in_order_from_each_worker(sigterm_exits):
    threads, parent = threading.active_count(), os.getpid()

    def job(k):
        return (k, os.getpid(), signal.getsignal(signal.SIGTERM),
                signal.getsignal(signal.SIGINT))

    items = list(sde_engine._forked(8, 3, job))
    assert [item[0] for item in items] == list(range(8))
    pids = [item[1] for item in items]
    assert pids[0::3] == [parent] * 3
    assert len({*pids[1::3]}) == len({*pids[2::3]}) == 1
    assert len({parent, pids[1], pids[2]}) == 3
    # the caller keeps its handlers; the children take the default action
    assert items[0][2:] == (sigterm_exits, signal.default_int_handler)
    for item in items[1:3]:
        assert item[2:] == (signal.SIG_DFL, signal.SIG_DFL)
    _assert_no_worker_left(threads)
    with mock.patch.object(sde_engine.os, "fork", side_effect=AssertionError):
        assert [item[0] for item in sde_engine._forked(3, 1, job)] == [0, 1, 2]


def test_the_first_failing_item_wins_and_workers_are_reaped():
    threads = threading.active_count()

    def job(k):
        if k == 1:  # fails after item 2 has failed
            time.sleep(0.3)
            raise NumericalOverflow("item 1")
        if k == 2:
            raise NumericalOverflow("item 2")
        return k

    with pytest.raises(NumericalOverflow, match="item 1"):
        list(sde_engine._forked(6, 3, job))
    _assert_no_worker_left(threads)

    def slow_children(k):
        if k % 3:
            time.sleep(30)
        raise ValueError(f"item {k}")

    # an error on the calling process does not wait for the children
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="item 0"):
        list(sde_engine._forked(6, 3, slow_children))
    assert time.perf_counter() - t0 < 10
    _assert_no_worker_left(threads)


def test_sigterm_in_the_caller_kills_its_workers(sigterm_exits):
    threads = threading.active_count()

    def job(k):
        if k == 0:
            os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(30)

    t0 = time.perf_counter()
    with pytest.raises(SystemExit):
        list(sde_engine._forked(4, 2, job))
    assert time.perf_counter() - t0 < 10
    _assert_no_worker_left(threads)


def test_an_overflow_in_a_child_is_the_one_of_one_worker(monkeypatch):
    # log S is a driftless walk of 10 per step: by seed 73's draws only
    # paths 4 and 5 pass 700 within 2000 steps, so at 2 and 3 workers the
    # first failing chunk is a child's
    monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forked, ran = sde_engine._forked, []
    monkeypatch.setattr(sde_engine, "_forked",
                        lambda n, workers, job: ran.append(workers) or forked(n, workers, job))
    params = MarketParams.from_constants(
        [50.0, 50.0], np.diag([100.0, 100.0]), 0.0, [1.0, 1.0])
    grid = PathGrid(dt=1.0, n_steps=2000)
    threads = threading.active_count()
    simulate_capitalizations(params, grid, 4, 73, store_every=100)
    with pytest.raises(NumericalOverflow) as want:
        simulate_capitalizations(params, grid, 6, 73, store_every=100)
    for n_threads in (2, 3):
        assert sde_engine._chunks(6, n_threads)[0][1] <= 4
        with pytest.raises(NumericalOverflow) as got:
            simulate_capitalizations(params, grid, 6, 73, store_every=100,
                                     n_threads=n_threads)
        assert ran[-1] == n_threads  # worker processes, the caller included
        assert type(got.value) is NumericalOverflow
        assert str(got.value) == str(want.value)
        _assert_no_worker_left(threads)


def test_no_writer_thread_is_alive_at_a_fork(tmp_path, two_cores):
    threads = threading.active_count()
    at_fork, fork = [], os.fork

    def spy():
        at_fork.append(threading.active_count())
        return fork()

    params = MarketParams.from_constants([0.05, 0.0, 0.1], C3, 0.0, [1.0, 2.0, 3.0])
    grid = PathGrid(dt=0.01, n_steps=200)
    ref = simulate_capitalizations(params, grid, 64, 5)
    want = pathset_to_csv(ref, tmp_path / "ref.csv")
    with mock.patch.object(sde_engine.os, "fork", spy), \
            mock.patch.object(sde_engine.threading, "Thread",
                              wraps=threading.Thread) as helpers:
        ps = simulate_capitalizations(params, grid, 64, 5, n_threads=2)
        # 64 x 201 rows make four blocks: the helper writes the last two
        got = pathset_to_csv(ps, tmp_path / "paths.csv")
    assert ps.workers == 2 and helpers.call_count == 1
    assert at_fork == [threads, threads]  # the engine's, then the writer's
    assert got == want
    _assert_no_worker_left(threads)


@pytest.mark.parametrize("engine", ["caps", "jump"])
def test_more_workers_than_cores_write_every_row(monkeypatch, engine):
    # four workers on however many cores, five chunks dealt round robin:
    # each writes only its own rows of the shared outputs, and a row that a
    # worker lost would differ from the rows of one worker
    monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    grid = PathGrid(dt=1e-3, n_steps=60)

    def run(n_threads):
        if engine == "caps":
            params = MarketParams.from_constants([0.05, 0.0, 0.1], C3, 0.0,
                                                 [1.0, 2.0, 3.0])
            ps = simulate_capitalizations(params, grid, 4103, 9, store_every=7,
                                          n_threads=n_threads)
            return ps.workers, (ps.kappa, ps.caps)
        spec = JumpSpec.finite_atoms(
            ProcessSpec.constant(5.0), 5.0,
            [[0.4, -0.2, 0.1], [-0.5, 0.3, 0.0], [0.5, -0.8, -1.0]],
            [0.5, 0.3, 0.2], max_jumps=1)
        ps, rec = simulate_jump_balanced(
            ProcessSpec.constant(C3), spec, [0.5, 0.3, 0.2], grid, 4103, 9,
            store_increments=True, n_threads=n_threads)
        return ps.workers, (ps.kappa, ps.brownian_increments, rec.zeta,
                            rec.death_mode, rec.jump_count, rec.first_jump_time,
                            rec.budget_exhausted_time,
                            ps.diagnostics.prerenorm_row_sums)

    threads = threading.active_count()
    (one, want), (four, got) = run(1), run(4)
    assert (one, four) == (1, 4)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=g.dtype.kind == "f")
    _assert_no_worker_left(threads)


def _stored_defect(kappa):
    dev = kappa.sum(axis=-1) - 1.0
    return float(np.abs(dev).max()), float(dev.max()), float(-dev.min())


@pytest.mark.parametrize("n_threads", [1, 2])
def test_max_simplex_defect_is_the_stored_rows_worst(n_threads, two_cores):
    rng = np.random.default_rng(5)
    b = rng.normal(size=(5, 5)) * 0.2
    params = MarketParams.from_constants(
        rng.normal(size=5) * 0.1, b @ b.T, 0.0, rng.uniform(1.0, 3.0, 5))
    ps = simulate_capitalizations(params, PathGrid(dt=0.01, n_steps=50), 300, 0,
                                  n_threads=n_threads)
    assert ps.workers == n_threads
    worst, above, below = _stored_defect(ps.kappa)
    assert below > above > 0.0  # the worst row sums to less than one
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] == worst
    # a defect planted on any stored row, the start included, is read
    for planted, (p, k) in ((1e-9, (299, -1)), (2e-9, (150, 0))):
        ps.kappa[p, k, 0] -= planted
        worst, _, _ = _stored_defect(ps.kappa)
        assert worst > 0.5 * planted
        assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] == worst


@pytest.mark.parametrize("n_threads", [1, 2])
def test_jump_counters_recount_from_the_outputs(n_threads, two_cores):
    # the C3 document: with diffusion and a budget of three jumps, the
    # stored rows include rows that an accepted jump renormalized
    spec = JumpSpec.finite_atoms(5.0, 5.0, [[0.3, -0.2, 0.1], [-0.5, 0.4, -1.0]],
                                 [0.6, 0.4], max_jumps=3)
    ps, rec = simulate_jump_balanced(
        ProcessSpec.constant(C3), spec, [0.5, 0.3, 0.2],
        PathGrid(dt=1e-3, n_steps=400), 2048, 11, store_every=5,
        n_threads=n_threads)
    assert ps.workers == n_threads
    worst, _, _ = _stored_defect(ps.kappa)
    assert worst > 0.0
    assert pathset_summary(ps)["diagnostics"]["max_simplex_defect"] == worst
    assert ps.diagnostics.n_jumps_accepted == rec.jump_count.sum() > 0


@pytest.mark.parametrize("n_threads", [1, 2])
def test_n_clamped_counts_a_clamp_planted_on_two_chunks(n_threads, two_cores):
    # a start weight below exp(_LOG_FLOOR) is clamped at the first step,
    # once on every path; 2048 paths are two chunks
    ps = simulate_relative_caps_balanced(
        ProcessSpec.constant(C3), [1e-305, 0.5, 0.5], PathGrid(dt=1e-3, n_steps=1),
        2048, 3, n_threads=n_threads)
    assert len(sde_engine._chunks(2048, n_threads)) == 2
    assert ps.workers == n_threads
    planted = np.count_nonzero(np.log(ps.kappa[:, 0]) < sde_engine._LOG_FLOOR)
    assert planted == 2048
    assert ps.diagnostics.n_clamped == planted
