"""The capitalization engine, and what it shares with the weight engine.

``simulate_capitalizations`` integrates company capitalizations ``S``
under drift/covariance coefficients and derives the weight vector
``kappa = S / sum(S)``.  The driftless weight dynamics

    d kappa_i = kappa_i <e_i - kappa, sigma dW>

(each weight a martingale) are the weight engine of ``jump_markets`` with
an empty jump law (``simulate_relative_caps_balanced``).  Its step kernel,
``_balanced_step``, lives here beside the draws, chunks and path writer
that both engines use.

Both engines walk log-coordinates with an Euler step, so states stay
positive by construction, and both draw their noise from per-path
counter-based streams keyed by ``(seed, stream, path_index)``.  Every
coefficient is evaluated through
``ProcessSpec.rows``/``covariance_rows``: a constant or time-table
coefficient is one matrix shared by all rows (one gemm per step), a
state function gives one matrix per row (one product per row).  The
capitalization engine runs one loop over blocks of draws and writes
``log S`` into each block in place: step by step, or, when the drift
``a`` and the covariance ``c`` are constant, as a running sum over tiles
of paths, with the same arithmetic.  The short rate ``r`` never enters
the capitalizations and does not choose between the two.  Paths are split
into chunks, one or more per worker process (the calling one included);
every row is computed independently of the others, so the chunk layout,
and with it the worker count, never changes values.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import mmap
import os
import pickle
import queue
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalOverflow
from .market_model import (
    MarketParams,
    PathGrid,
    ProcessSpec,
    covariance_rows,
    validate_params,
)

__all__ = [
    "PathSet",
    "simulate_capitalizations",
    "pathset_to_csv",
    "pathset_summary",
]

# Sub-stream labels; a path's Brownian draws do not depend on its jump
# draws, so a jump law with intensity zero leaves the paths of the
# balanced dynamics unchanged.
STREAM_BROWNIAN = 0
STREAM_JUMP = 1

_CHUNK_PATHS = 1024
_BLOCK_STEPS = 4096  # rows the path writer formats at once
# Brownian draws held at once (4 MiB) by all the workers of an engine
# together: blocks of steps for every path of a chunk in the step engines
# (``_block_steps``), tiles of paths in the constant branch (``_tile_plan``)
_BLOCK_VALUES = 2**19
_TILE_STEPS = 2048  # steps of a constant-branch tile, per draw call
_SLAB_VALUES = 2**13  # 64 KiB: a constant-branch product slab, a path block
_LOG_FLOOR = np.log(1e-300)
_LOG_CAP = 700.0


def path_generator(seed: int, stream: int, path_index: int) -> np.random.Generator:
    """Counter-based generator for one path's draws in one stream."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(stream), int(path_index)))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_U32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: little-endian 32-bit words."""
    if n < 0:
        raise ValueError(f"seed entropy must be nonnegative, got {n}")
    return [n >> k & _U32 for k in range(0, max(n.bit_length(), 1), 32)]


def _philox_keys(seed: int, stream: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(entropy=(seed, stream, p)).generate_state(2, np.uint64)``
    for every p in ``[lo, hi)``, as an ``(hi - lo, 2)`` array.

    The entropy words differ between paths only in the path index, so the
    hash runs over whole columns of paths at once.  A path index of 2**32
    or more is two words long, and its rows are mixed separately.
    """
    if hi > 2**32 and lo < 2**32:
        return np.concatenate([_philox_keys(seed, stream, lo, 2**32),
                               _philox_keys(seed, stream, 2**32, hi)])
    p = np.arange(lo, hi, dtype=np.uint64)
    words = [np.full(len(p), w, np.uint32)
             for w in _uint32_words(int(seed)) + _uint32_words(int(stream))]
    words.append((p & _U32).astype(np.uint32))
    if lo >= 2**32:
        words.append((p >> np.uint64(32)).astype(np.uint32))
    hash_a = _SS_INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ np.uint32(hash_a)
        hash_a = hash_a * _SS_MULT_A & _U32
        v *= np.uint32(hash_a)
        return v ^ (v >> 16)

    def mix(x, y):
        v = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return v ^ (v >> 16)

    zero = np.zeros(len(p), np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((len(p), 4), np.uint32)
    hash_b = _SS_INIT_B
    for i in range(4):
        v = pool[i] ^ np.uint32(hash_b)
        hash_b = hash_b * _SS_MULT_B & _U32
        v *= np.uint32(hash_b)
        state[:, i] = v ^ (v >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _key_sequence() -> type:
    """A seed sequence that hands ``np.random.Philox`` a precomputed key, as
    Philox asks its seed sequence for ``generate_state(2, np.uint64)``.
    Built on first use: ``numpy.random`` is not imported with numpy."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def path_generators(seed: int, stream: int, lo: int,
                    hi: int) -> list[np.random.Generator]:
    """``path_generator(seed, stream, p)`` for every p in ``[lo, hi)``, with
    the keys derived in one pass (about 3x faster per path)."""
    keyed = _key_sequence()
    return [np.random.Generator(np.random.Philox(keyed(key)))
            for key in _philox_keys(seed, stream, lo, hi)]


@dataclass
class EngineDiagnostics:
    """Online health counters: what a simulation's outputs cannot show.

    The jump engine adds thinning candidates examined and jumps accepted;
    counts add up over path chunks.  How far the stored weights are off the
    simplex is read from the outputs (:func:`pathset_summary`).
    The pre-renormalization defect is summed per row (a path, or a cohort
    of the jump engine, which runs in one chunk) in ``prerenorm_row_sums``;
    a row's sum does not depend on the chunk layout, and ``math.fsum`` of
    them all is exact whatever their order, so no field depends on the
    worker count.
    """

    max_prerenorm_defect: float = 0.0
    prerenorm_row_sums: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_prerenorm_samples: int = 0
    n_clamped: int = 0
    n_jump_candidates: int = 0
    n_jumps_accepted: int = 0

    @property
    def sum_prerenorm_defect(self) -> float:
        return math.fsum(self.prerenorm_row_sums)

    @property
    def mean_prerenorm_defect(self) -> float:
        if self.n_prerenorm_samples == 0:
            return 0.0
        return self.sum_prerenorm_defect / self.n_prerenorm_samples

    def merge(self, other: "EngineDiagnostics") -> None:
        self.max_prerenorm_defect = max(
            self.max_prerenorm_defect, other.max_prerenorm_defect
        )
        self.prerenorm_row_sums = np.concatenate(
            [self.prerenorm_row_sums, other.prerenorm_row_sums])
        self.n_prerenorm_samples += other.n_prerenorm_samples
        self.n_clamped += other.n_clamped
        self.n_jump_candidates += other.n_jump_candidates
        self.n_jumps_accepted += other.n_jumps_accepted


@dataclass
class PathSet:
    """Simulated ensemble on a uniform grid, possibly thinned for storage.

    ``kappa`` has shape (n_paths, n_stored, d) where ``stored_steps`` maps
    the storage axis back to grid steps.  ``caps`` and
    ``brownian_increments`` are optional; increments are the raw
    ``N(0, dt I)`` draws (shape (n_paths, n_steps, d)) and are only kept at
    full storage resolution, since a thinned increment sequence cannot be
    replayed.
    """

    grid: PathGrid
    n_paths: int
    seed: int
    kappa: np.ndarray
    stored_steps: np.ndarray
    caps: np.ndarray | None = None
    brownian_increments: np.ndarray | None = None
    a_spec: ProcessSpec | None = None
    c_spec: ProcessSpec | None = None
    r_spec: ProcessSpec | None = None
    diagnostics: EngineDiagnostics = field(default_factory=EngineDiagnostics)
    workers: int = 1  # processes of the engine, and of the path writer

    @property
    def d(self) -> int:
        return self.kappa.shape[-1]

    def times(self) -> np.ndarray:
        return self.grid.t0 + self.grid.dt * self.stored_steps


def _stored_steps(n_steps: int, store_every: int) -> np.ndarray:
    steps = list(range(0, n_steps + 1, store_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=np.int64)


def _spans(n: int, most: int, at_least: int = 1) -> list[tuple[int, int]]:
    """``range(n)`` in near-equal spans, at least ``at_least`` of them and
    enough that none holds more than ``most >= 3`` items, but never a
    one-item span when ``n >= 2``: BLAS rounds a one-row product (gemv)
    differently from a larger one (gemm)."""
    k = max(-(-n // most), min(at_least, n // 2))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _chunks(n_paths: int, workers: int):
    """Path spans of the engine workers, one or more per worker."""
    return _spans(n_paths, _CHUNK_PATHS, workers)


def _n_workers(n_paths: int, n_threads: int) -> int:
    """Worker processes of a run: no more than asked for, than the cores
    this process may use, or than the chunks of that many; one where there
    is no ``fork``."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1) if hasattr(os, "fork") else 1
    workers = max(1, min(n_threads, cores))
    return min(workers, len(_chunks(n_paths, workers)))


def _output(shape: tuple, dtype, workers: int) -> np.ndarray:
    """A zeroed engine output, in anonymous shared memory for forked workers."""
    if workers == 1:
        return np.zeros(shape, dtype)
    n = math.prod(shape)
    buf = mmap.mmap(-1, n * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype, n).reshape(shape)


def _block_steps(m: int, d: int, n_steps: int, workers: int) -> int:
    """Steps per draw block of a step-engine worker's ``m`` paths: its share
    of ``_BLOCK_VALUES`` draws among ``workers``, but never fewer steps than
    a full chunk's block at one worker.  The workers together hold at most
    ``_BLOCK_VALUES`` draws when ``workers * m <= _CHUNK_PATHS``."""
    share = _BLOCK_VALUES // workers
    return min(n_steps, max(1, _BLOCK_VALUES // (_CHUNK_PATHS * d),
                            share // (m * d)))


def _tile_plan(m: int, d: int, n_steps: int,
               workers: int) -> tuple[int, list[tuple[int, int]]]:
    """Steps per tile and the path tiles of a constant-branch worker's ``m``
    paths when ``workers`` share ``_BLOCK_VALUES`` draws.  Up to 8 workers
    and 6 companies, 3 paths of ``_TILE_STEPS`` steps fit a share, so the
    steps, and with them each path's draw call, do not depend on it."""
    share = _BLOCK_VALUES // workers
    span = min(n_steps, _TILE_STEPS, max(1, share // (3 * d)))
    return span, _spans(m, max(3, share // (span * d)))


def _path_blocks(n_paths: int, n_stored: int) -> list[tuple[int, int]]:
    """Path spans of ``_SLAB_VALUES`` stored values (3 paths at least)."""
    return _spans(n_paths, max(3, _SLAB_VALUES // n_stored))


def _forked(n: int, workers: int, job):
    """Yield ``job(0), ..., job(n - 1)``, item k made by worker ``k % workers``.
    Worker 0 is the calling process; each other one is a child forked from
    it at the first item, which pickles its items (or the exception that
    ends them, raised here at its item) into a pipe that holds them until
    read.  A child takes the default action on SIGTERM and SIGINT and ends
    by ``os._exit``, so no ``finally`` of the caller runs in it; the caller
    kills and reaps it when the generator ends, fails or is closed."""
    pids, pipes, mask, stops = [], [], None, (signal.SIGTERM, signal.SIGINT)
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            # a signal that would run a handler of the caller waits for it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)
            if (pid := os.fork()) == 0:
                try:
                    for sig in stops:
                        signal.signal(sig, signal.SIG_DFL)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    with open(wfd, "wb") as out:
                        try:
                            for k in range(w, n, workers):
                                pickle.dump((None, job(k)), out)
                                out.flush()
                        except Exception as err:
                            out.write(pickle.dumps((err, None)))
                finally:
                    os._exit(0)
            os.close(wfd)
            pids.append(pid)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k in range(n):
            if k % workers == 0:
                yield job(k)
                continue
            try:
                err, item = pickle.load(pipes[k % workers - 1])
            except (EOFError, pickle.UnpicklingError):  # the child died
                raise ChildProcessError(f"worker {k % workers} died") from None
            if err is not None:
                raise err
            yield item
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in pipes:
            fh.close()
        if mask is not None:  # after a failed fork, signals are still blocked
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_chunked(worker, spans, workers: int) -> EngineDiagnostics:
    """Run ``worker(lo, hi) -> EngineDiagnostics`` over the path ``spans`` on
    ``workers`` processes (:func:`_forked`), each writing its own rows of the
    outputs (:func:`_output`); merges the results in span order."""
    diag = EngineDiagnostics()
    parts = _forked(len(spans), workers, lambda k: worker(*spans[k]))
    with contextlib.closing(parts):
        for part in parts:
            diag.merge(part)
    return diag


def _company_sum(xt: np.ndarray) -> np.ndarray:
    """``xt.T.sum(axis=1)`` for a company-major ``(d, rows)`` array, bit for bit.

    Adds whole rows along the path axis in the order numpy sums a row of
    ``d`` terms: sequential below 8, eight accumulators up to 128, halves
    (at multiples of 8) above that, all after numpy's ``+0.0`` start.
    """
    n = len(xt)
    if n > 128:
        h = n // 2 - n // 2 % 8
        return _company_sum(xt[:h]) + _company_sum(xt[h:])
    if n < 8:
        # from a +0.0 start in row order, whichever axis numpy runs inside
        return np.add.reduce(xt, axis=0, initial=0.0)
    r = xt[:8].copy()
    for i in range(8, n - n % 8, 8):
        r += xt[i : i + 8]
    s = 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    for row in xt[n - n % 8 :]:
        s += row
    return s


def _renormalize_log(lt: np.ndarray, diag: EngineDiagnostics,
                     weights: np.ndarray | None = None,
                     rows: np.ndarray | None = None) -> np.ndarray:
    """Project company-major log-weights ``(d, rows)`` back onto the simplex
    in place; returns the weights, company-major too.

    Tracks the pre-renormalization defect |sum(exp(logk)) - 1|, which must
    shrink linearly in dt for the scheme to be consistent.  A -inf entry
    marks a coordinate pinned at weight zero and passes through untouched.
    ``weights`` counts each row as that many paths in the statistics (a
    row of the jump engine can stand for a whole cohort of paths).  The
    columns of ``lt`` add to ``diag.prerenorm_row_sums[rows]`` (repeats
    allowed), or to all of it, which the first call sizes.
    """
    # fmin skips nan: a cheap test before the clip mask is built
    if np.fmin.reduce(lt, axis=None) < _LOG_FLOOR:
        clip_mask = (lt < _LOG_FLOOR) & (lt > -np.inf)
        diag.n_clamped += int(np.count_nonzero(clip_mask))
        np.copyto(lt, _LOG_FLOOR, where=clip_mask)
    mx = np.maximum.reduce(lt, axis=0)
    s = _company_sum(np.exp(lt - mx))
    pre = np.abs(np.exp(mx) * s - 1.0)
    diag.max_prerenorm_defect = max(diag.max_prerenorm_defect, float(pre.max()))
    if weights is None:
        diag.n_prerenorm_samples += pre.size
    else:
        diag.n_prerenorm_samples += int(np.add.reduce(weights))
        pre *= weights
    if rows is not None:
        np.add.at(diag.prerenorm_row_sums, rows, pre)
    elif diag.prerenorm_row_sums.size:
        diag.prerenorm_row_sums += pre
    else:
        diag.prerenorm_row_sums = pre
    lt -= mx + np.log(s)
    return np.exp(lt)


def _noise_rows(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """``sigma dW`` for every row: one gemm for a shared factor, else one
    product per row (a batched 3-D product would round differently)."""
    if sigma.ndim == 2:
        return dw @ sigma.T
    return np.array([s @ w for s, w in zip(sigma, dw)])


def _balanced_step(lt: np.ndarray, kappa: np.ndarray, dw_j: np.ndarray,
                   c: np.ndarray, sigma: np.ndarray, dt: float,
                   diag: EngineDiagnostics) -> np.ndarray:
    """One log-Euler step of ``d kappa_i = kappa_i <e_i - kappa, sigma dW>``.

    ``log kappa_i`` gains ``-0.5 <e_i - kappa, c (e_i - kappa)> dt`` plus
    ``<e_i - kappa, sigma dW>``.  The log-weights ``lt`` are company-major,
    ``(d, rows)``, and updated in place, so every reduction and broadcast
    runs along the path axis; the products keep the row-major ``kappa``
    and the renormalized weights are returned row-major.  ``c`` and
    ``sigma`` are shared by every row or carry a path axis (see
    :func:`covariance_rows`).
    """
    y = _noise_rows(sigma, dw_j)
    if c.ndim == 2:
        ck = kappa @ c
    else:
        ck = np.array([c_i @ k_i for c_i, k_i in zip(c, kappa)])
    quad = np.einsum("ij,ij->i", kappa, ck)
    ky = np.einsum("ij,ij->i", kappa, y)
    # (d, 1) for a shared c, (d, rows) for one c per row
    cdiag = np.diagonal(c, axis1=-2, axis2=-1).T.reshape(len(lt), -1)
    # company-major copies: an elementwise op that mixes layouts runs a
    # d-long inner loop per row
    qform = cdiag - 2.0 * ck.T.copy() + quad
    lt += (-0.5 * dt) * qform + (y.T.copy() - ky)
    return _renormalize_log(lt, diag).T.copy()


def _draw_block(gens, buf: np.ndarray, blk: int, d: int,
                sqrt_dt: float) -> np.ndarray:
    """Every path's next ``blk`` steps of ``N(0, dt I)`` draws, written into
    a prefix of the worker's reused flat buffer ``buf`` (fresh per-path
    arrays would stay resident in the worker's heap).

    Each path draws from its own stream in step order, so the values do not
    depend on how its steps are cut into blocks: an engine sizes ``buf``
    for at most ``_BLOCK_VALUES`` draws and picks ``blk`` to fit.
    """
    dw = buf[: len(gens) * blk * d].reshape(len(gens), blk, d)
    for i, g in enumerate(gens):
        g.standard_normal((blk, d), out=dw[i])
    dw *= sqrt_dt
    return dw


def _simplex_defect(kappa: np.ndarray) -> float:
    """Largest ``|sum(row) - 1|`` over the rows of ``kappa`` (0 for none)."""
    return float(np.abs(kappa.sum(axis=-1) - 1.0).max(initial=0.0))


def _weights(logs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = exp(logs) / sum(exp(logs))`` along the last (company)
    axis, shifted by the maximum and reduced company-major, like
    :func:`_renormalize_log`; ``out`` may be any view of that shape."""
    w = np.moveaxis(logs, -1, 0).copy()
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= _company_sum(w)
    out[...] = np.moveaxis(w, 0, -1)
    return out


def simulate_capitalizations(
    params: MarketParams,
    grid: PathGrid,
    n_paths: int,
    seed: int,
    *,
    store_every: int = 1,
    store_increments: bool = False,
    n_threads: int = 1,
) -> PathSet:
    """Simulate company capitalizations under general coefficients.

    Log-Euler per company: ``log S_i`` gains ``(a_i - c_ii / 2) dt`` plus the
    correlated Gaussian increment.  Raises :class:`NumericalOverflow` when a
    log-capitalization leaves [-700, 700], which would denormalize ``exp``,
    naming the earliest such step of the chunk.

    One loop walks blocks of steps, the workers sharing ``_BLOCK_VALUES``
    draws, and overwrites each block's draws with ``log S``; one tail
    checks the block for overflow and stores its weights and
    capitalizations.  When ``a`` and ``c`` are constant, ``log S`` is a
    running sum, written a tile of paths by up to ``_TILE_STEPS`` steps at
    a time with one draw call per path, a gemm in place and one cumulative
    sum; the values are those of stepping one at a time.  Otherwise the
    block's steps are taken one at a time, over every path of the chunk,
    and stepping stops at the first step past the bound.  The short rate
    ``r`` does not enter the capitalizations and does not choose the path.
    """
    validate_params(params)
    d = params.d
    if store_increments and store_every != 1:
        raise ValueError("increments can only be stored at full resolution")

    stored = _stored_steps(grid.n_steps, store_every)
    workers = _n_workers(n_paths, n_threads)
    kappa_out = _output((n_paths, len(stored), d), float, workers)
    caps_out = _output((n_paths, len(stored), d), float, workers)
    inc_out = (_output((n_paths, grid.n_steps, d), float, workers)
               if store_increments else None)
    cov = covariance_rows(params.c_spec, d)
    log_s0 = np.log(params.s0)
    sqrt_dt = np.sqrt(grid.dt)
    dt = grid.dt
    # constant coefficients make log S a running sum of i.i.d. increments
    constant = params.a_spec.is_constant() and params.c_spec.is_constant()
    # the tail stores the weights; a step needs them only for a state function
    reads_state = params.a_spec.depends_on_state() or params.c_spec.depends_on_state()
    if constant:
        c, sigma = cov(grid.t0, None)
        a = params.a_spec.rows(grid.t0, None, (d,), "drift rate a")
        drift = (a - 0.5 * np.diag(c)) * dt

    def overflow(worst: float, step: int) -> NumericalOverflow:
        return NumericalOverflow(
            f"|log S| reached {worst:.1f} at step {step}; "
            "shorten the horizon or rescale the coefficients"
        )

    def worker(lo: int, hi: int) -> EngineDiagnostics:
        m = hi - lo
        gens = path_generators(seed, STREAM_BROWNIAN, lo, hi)
        logs = np.tile(log_s0, (m, 1))
        caps = np.exp(logs)
        kappa = caps / caps.sum(axis=1, keepdims=True)
        caps_out[lo:hi, 0] = caps
        kappa_out[lo:hi, 0] = kappa
        if constant:
            span, tiles = _tile_plan(m, d, grid.n_steps, workers)
            scratch = np.empty((max(3, _SLAB_VALUES // d), d))
            drifts = np.tile(drift, len(scratch))  # a slab's drift, flat
        else:
            span, tiles = _block_steps(m, d, grid.n_steps, workers), [(0, m)]
        buf = np.empty(max(p1 - p0 for p0, p1 in tiles) * span * d)
        even = stored[: grid.n_steps // store_every + 1]  # k * store_every
        for step in range(0, grid.n_steps, span):
            blk = min(span, grid.n_steps - step)
            # the block's stored steps on that spacing, a column slice
            i0, i1 = np.searchsorted(even, (step + 1, step + blk + 1))
            cols = slice(i0 * store_every - step - 1,
                         i1 * store_every - step - 1, store_every)
            worst = None
            for p0, p1 in tiles:
                rows = slice(lo + p0, lo + p1)
                x = _draw_block(gens[p0:p1], buf, blk, d, sqrt_dt)
                if inc_out is not None:
                    inc_out[rows, step : step + blk] = x
                # each x[:, j] becomes log S after step + j + 1
                if constant:
                    # sigma dW + drift in place, by gemm over slabs (row for
                    # row the per-step product) and a flat add, then a
                    # sequential sum along time
                    steps, flat = x.reshape(-1, d), x.reshape(-1)
                    for s0, s1 in _spans(len(steps), len(scratch)):
                        prod = scratch[: s1 - s0]
                        np.matmul(steps[s0:s1], sigma.T, out=prod)
                        np.add(prod.reshape(-1), drifts[: prod.size],
                               out=flat[s0 * d : s1 * d])
                    x[:, 0] += logs[p0:p1]
                    np.add.accumulate(x, axis=1, out=x)
                else:
                    cur = logs[p0:p1]
                    for j in range(blk):
                        t = grid.t0 + (step + j) * dt
                        a = params.a_spec.rows(t, kappa, (d,), "drift rate a")
                        c_t, sigma_t = cov(t, kappa)
                        cur = cur + (
                            (a - 0.5 * np.diagonal(c_t, axis1=-2, axis2=-1)) * dt
                            + _noise_rows(sigma_t, x[:, j]))
                        x[:, j] = cur
                        if cur.max() > _LOG_CAP or -cur.min() > _LOG_CAP:
                            break  # the tail below names this step
                        if reads_state:
                            kappa = _weights(cur, np.empty_like(cur))
                if x.max() > _LOG_CAP or -x.min() > _LOG_CAP:
                    # report the earliest step over all tiles
                    w = np.abs(x).max(axis=(0, 2))
                    worst = w if worst is None else np.maximum(worst, w)
                    continue
                logs[p0:p1] = x[:, -1]
                np.exp(x[:, cols], out=caps_out[rows, i0:i1])
                _weights(x[:, cols], kappa_out[rows, i0:i1])
            if worst is not None:
                j = int(np.argmax(worst > _LOG_CAP))
                raise overflow(worst[j], step + j + 1)
        if len(even) < len(stored):  # the final step, off that spacing
            np.exp(logs, out=caps_out[lo:hi, -1])
            _weights(logs, kappa_out[lo:hi, -1])
        return EngineDiagnostics()

    diag = _run_chunked(worker, _chunks(n_paths, workers), workers)
    return PathSet(
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        kappa=kappa_out,
        stored_steps=stored,
        caps=caps_out,
        brownian_increments=inc_out,
        a_spec=params.a_spec,
        c_spec=params.c_spec,
        r_spec=params.r_spec,
        diagnostics=diag,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# serialization
#
# Floats are printed as ``'%.17g' % x`` prints them, so that a replay
# reproduces every file byte for byte; ``_format_g17`` does so for whole
# blocks.  A finite x with 10**E <= |x| < 10**(E + 1) and -6 <= E <= 16 has
# the 17 digits D = round-half-even(|x| 10**k), k = 16 - E.  As 5**k is an
# exact double for k <= 22, one error-free product (Dekker's TwoProduct)
# splits |x| 10**k = |x| 5**k 2**k into p + e exactly, where the double
# p >= 1e16 > 2**53 is an even integer and |e| is at most half its ulp: so
# D = p + rint(e).  Every other value (zeros, subnormals, inf, nan, and
# |x| outside [1e-6, 1e17)) is printed by ``%``.

_POW2 = 2.0 ** np.arange(23)
_POW5 = 5.0 ** np.arange(23)  # exact: 5**22 < 2**53
_SPLITTER = 2.0**27 + 1  # splits a double into two 26-bit halves
_POW5_HI = _SPLITTER * _POW5 - (_SPLITTER * _POW5 - _POW5)
_POW5_LO = _POW5 - _POW5_HI

# Each value is laid out in 13 uint32 words, 52 bytes, of which zero bytes
# are blanks that the end removes:
#   0 sign, 1-5 the "0.000" of 0.000ddd, 6 the lead digit,
#   8-23 digits 1-16 before the point, 24 the point,
#   28-43 digits 1-16 after the point, 44-47 "e-0X", 48 the separator.
# Digits go in as ASCII words of four: group i holds digits 4i+1..4i+4.
# Where no value of a pass has digits before the point past the lead, the
# point goes to byte 7 and the words from 7 on move up by five.


def _digit_words() -> np.ndarray:
    """ASCII words of 0..9999, then of the same less trailing zeros."""
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000)
    zero_tail = d == 0
    for j in (2, 1, 0):
        zero_tail[j] &= zero_tail[j + 1]
    digits = np.stack(d + 48, axis=-1).view(np.uint32).reshape(-1)
    blank = np.stack(zero_tail * np.uint8(255), axis=-1).view(np.uint32)
    return np.concatenate([digits, digits & ~blank.reshape(-1)])


def _affix_words():
    """Words 0-1 by ``(E + 6, sign, lead digit)``; the "e-0X" word by ``E + 6``."""
    head = np.zeros((23, 2, 10, 8), dtype=np.uint8)
    head[:, 1, :, 0] = ord("-")
    for E in range(-4, 0):
        head[E + 6, ..., 1:2 - E] = np.frombuffer(b"0.000"[:1 - E], np.uint8)
    head[..., 6] = np.arange(48, 58)
    tail = np.zeros((23, 4), dtype=np.uint8)
    tail[:2] = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)
    head = head.reshape(-1, 8).view(np.uint32)
    return head[:, 0].copy(), head[:, 1].copy(), tail.view(np.uint32).ravel()


_G17_VALUES = 4096  # values per pass: the work arrays stay in cache
_WORDS = _digit_words()
_HEAD0, _HEAD1, _TAIL = _affix_words()
# digits before the point by E + 6: one in d.ddde-0X, none in 0.000ddd
_SPLIT_AT = np.array([1, 1, 0, 0, 0, 0, *range(1, 18)])
# byte masks of a word's first k digits, k = 0..4
_FIRST = np.tril(np.full((5, 4), 255, np.uint8), -1).view(np.uint32).ravel()
# by group and split: the group's digits before the point
_BEFORE = np.clip(np.arange(18) - np.arange(1, 17, 4)[:, None], 0, 4)


class _G17Scratch:
    """Work arrays of ``_format_g17`` for ``size`` values at a time.

    They are views of one allocation, so that a writer that reuses them
    across blocks maps and frees them once instead of dirtying the heap
    block after block.
    """

    def __init__(self, size: int):
        self.size = size
        buf = np.empty(size * (7 * 8 + 3 * 8 + 52), dtype=np.uint8)
        self.floats = buf[:56 * size].view(np.float64).reshape(7, size)
        self.ints = buf[56 * size:80 * size].view(np.int64).reshape(3, size)
        self.mat = buf[80 * size:].view(np.uint32).reshape(size, 13)


def _two_product(a, k, p, e, hi, lo, bh, bl) -> None:
    """Set ``p + e = a * 10**k`` exactly, for ``0 <= k <= 22``.

    Dekker's TwoProduct of ``a`` and ``5**k = bh + bl``; the factor
    ``2**k`` is exact.  ``hi``, ``lo``, ``bh`` and ``bl`` are scratch.
    """
    _POW5_HI.take(k, out=bh)
    _POW5_LO.take(k, out=bl)
    np.add(bh, bl, out=p)
    p *= a
    np.multiply(a, _SPLITTER, out=hi)
    np.subtract(hi, a, out=lo)
    hi -= lo
    np.subtract(a, hi, out=lo)
    np.multiply(hi, bh, out=e)
    e -= p
    hi *= bl
    e += hi
    bh *= lo
    e += bh
    bl *= lo
    e += bl
    _POW2.take(k, out=hi)
    p *= hi
    e *= hi


def _format_g17(block: np.ndarray, scratch: _G17Scratch | None = None) -> str:
    """Text of ``'%.17g'`` for a (rows, k) float64 block.

    Returns one ``v,...,v\\n`` line per row, the same characters as
    ``%`` gives.  Rows go through ``scratch`` (by default a new one) as
    many at a time as it holds.
    """
    rows, width = block.shape
    if scratch is None:
        scratch = _G17Scratch(max(width, min(block.size, _G17_VALUES)))
    step = scratch.size // width
    return "".join([_g17_pass(block[i:i + step], scratch)
                    for i in range(0, rows, step)])


def _g17_pass(block: np.ndarray, scratch: _G17Scratch) -> str:
    """``_format_g17`` of at most ``scratch.size`` values."""
    rows, width = block.shape
    n = rows * width
    x = block.reshape(n)
    ax, p, e, hi, lo, bh, bl = (a[:n] for a in scratch.floats)
    E, k, D = (a[:n] for a in scratch.ints)
    np.abs(x, out=ax)
    dom = (ax >= 1e-7) & (ax < 1e18)  # nan and inf fail both
    ax[~dom] = 1.0
    np.log10(ax, out=hi)
    np.floor(hi, out=hi)
    np.clip(hi, -6, 16, out=hi)
    E[...] = hi
    np.subtract(16, E, out=k)
    _two_product(ax, k, p, e, hi, lo, bh, bl)
    # log10 may round across a power of ten: where p + e leaves
    # [1e16, 1e17), E is one off; scale those values again
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    E += high
    E -= low
    dom &= (E >= -6) & (E <= 16)
    fix = np.flatnonzero((low | high) & dom)
    if fix.size:
        redo = np.empty((6, fix.size))
        _two_product(ax[fix], 16 - E[fix], *redo)
        p[fix] = redo[0]
        e[fix] = redo[1]
    # D cannot round up to 10**17: no double lies within 5e-18 relative
    # below a power of ten 10**j, -5 <= j <= 17
    np.rint(e, out=e)
    D[...] = p
    k[...] = e
    D += k
    # the float arrays are free from here on: integers reuse them
    lead, aux, *group = (a.view(np.int64) for a in (p, e, hi, lo, bh, bl))
    other = np.flatnonzero(~dom)
    D[other] = 10**16
    E[other] = 0
    np.floor_divide(D, 10**16, out=lead)
    np.multiply(lead, 10**16, out=aux)
    D -= aux
    np.floor_divide(D, 10**8, out=group[1])
    np.multiply(group[1], 10**8, out=aux)
    np.subtract(D, aux, out=group[3])
    for i in (0, 2):
        np.floor_divide(group[i + 1], 10**4, out=group[i])
        np.multiply(group[i], 10**4, out=aux)
        group[i + 1] -= aux

    E += 6
    split = _SPLIT_AT.take(E, out=k)
    wide = split.max(initial=0) > 1
    f = 7 if wide else 2  # the first word of digits after the point
    mat = scratch.mat[:n, :f + 6]
    mat[...] = 0
    np.multiply(E, 20, out=aux)
    aux += lead
    aux[x < 0] += 10
    mat[:, 0] = _HEAD0.take(aux)
    mat[:, 1] = _HEAD1.take(aux)
    D[...] = 10000  # blank trailing zeros up to the last nonzero group
    for i in (3, 2, 1, 0):
        np.add(group[i], D, out=aux)
        mat[:, f + i] = _WORDS.take(aux)
        if wide:
            first = _FIRST.take(_BEFORE[i].take(split))
            mat[:, 2 + i] = _WORDS.take(group[i]) & first
            mat[:, f + i] &= ~first
        D[group[i] != 0] = 0
    m8 = mat.view(np.uint8)
    frac = mat[:, f:f + 4].view(np.uint64)
    point = m8[:, 24 if wide else 7]
    point[...] = ((frac[:, 0] | frac[:, 1]) != 0) & (split > 0)
    point *= ord(".")
    mat[:, f + 4] = _TAIL.take(E)
    end = 4 * f + 20  # the separator's byte
    sep = m8[:, end].reshape(rows, width)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    if other.size:
        text = ("%.17g\0" * other.size) % tuple(x[other].tolist())
        m8[other, :end] = np.array(text.split("\0")[:-1], dtype=f"S{end}").view(
            np.uint8).reshape(-1, end)
    return m8.tobytes().translate(None, b"\0").decode()


def _write_hashed(path, chunks) -> str:
    """Write the byte ``chunks`` to ``path`` in order; returns the sha256 of
    the bytes written.  The first two chunks (all of a JSON document or of
    a one-block CSV) are written here, as a thread would cost more than it
    saves; the rest pass, at most two waiting, to one helper thread that
    writes and hashes them in order, both releasing the GIL, while the next
    is made, so ``chunks`` may fork while it makes the first two.  An error
    on either side raises here, after the helper stops."""
    digest, chunks = hashlib.sha256(), iter(chunks)
    with open(path, "wb") as fh:
        for data in itertools.islice(chunks, 2):
            fh.write(data)
            digest.update(data)
        if (data := next(chunks, None)) is None:
            return digest.hexdigest()
        pending, failed = queue.Queue(maxsize=2), []

        def drain():
            while (block := pending.get()) is not None:
                try:
                    if not failed:
                        fh.write(block)
                        digest.update(block)
                except BaseException as err:  # raised on the calling thread
                    failed.append(err)

        helper = threading.Thread(target=drain)
        helper.start()
        try:
            while data is not None and not failed:
                pending.put(data)
                data = next(chunks, None)
        finally:
            pending.put(None)
            helper.join()
        if failed:
            raise failed[0]
    return digest.hexdigest()


def _write_paths_csv(ps: PathSet, path, columns, header: str,
                     suffix=None) -> str:
    """Write rows ``path,step,t,<columns>[,suffix]``; returns their sha256.

    ``columns`` are (n_paths, n_stored, k) arrays printed with ``%.17g``;
    ``suffix``, when given, holds one preformatted string per path that ends
    each of its rows.  Each stored step's ``step,t`` is formatted once, and
    so is each distinct data row of a block of ``_BLOCK_STEPS`` rows: a row
    whose bits equal those of the row one stored step back (a frozen path)
    or one path back (a shared cohort) in the block reuses that row's text,
    so the bytes are those of formatting every row.  The blocks, encoded by
    the ``ps.workers`` processes of :func:`_forked`, go through
    :func:`_write_hashed` in order; each reuses the work arrays made before
    the fork."""
    n, ns = ps.kappa.shape[:2]
    width = sum(col.shape[-1] for col in columns)
    flat = [col.reshape(n * ns, -1) for col in columns]
    times = _format_g17(ps.times()[:, None]).split("\n")
    prefix = np.array([f"{k},{t}," for k, t in
                       zip(ps.stored_steps.tolist(), times)], dtype=object)
    ends = np.full(n, "\n", dtype=object) if suffix is None else "," + suffix + "\n"
    block = min(_BLOCK_STEPS, n * ns)
    window = np.empty((width, block))  # one row per column: comparisons
    same = np.empty((width, block), dtype=bool)  # reduce over the short axis
    idx = np.arange(block)
    src, nxt, own = np.empty((3, block), dtype=np.intp)
    back = np.empty(block, dtype=bool)
    text = np.empty(block, dtype=object)
    vals = np.empty(block * width)
    cells = np.empty((block, 4), dtype=object)
    scratch = _G17Scratch(max(width, _G17_VALUES))

    def rows(b: int) -> bytes:
        lo = b * _BLOCK_STEPS
        m = min(_BLOCK_STEPS, n * ns - lo)
        data = np.concatenate([f[lo:lo + m].T for f in flat], out=window[:, :m])
        bits = data.view(np.uint64)
        # each row's source: the row one step back if equal, else the row
        # one path back if equal, else itself
        s, bk = src[:m], back[:m]
        s[...] = idx[:m]
        _equal_back(bits, ns, bk, same)
        np.subtract(s, ns, out=s, where=bk)
        _equal_back(bits, 1, bk, same)
        bk[-lo % ns::ns] = False  # a path's first row
        np.subtract(idx[:m], 1, out=s, where=bk)
        while True:  # pointer jumping to the head of each chain
            nx = nxt[:m]
            s.take(s, out=nx)
            if np.array_equal(nx, s):
                break
            s[...] = nx
        # format the rows that are their own source, then copy
        np.equal(s, idx[:m], out=bk)
        o = own[:np.count_nonzero(bk)]
        np.compress(bk, idx[:m], out=o)
        v = vals[:o.size * width].reshape(o.size, width)
        data.T.take(o, axis=0, out=v, mode="clip")
        text[o] = _format_g17(v, scratch).split("\n")[:-1]
        # rows: path label, the step's "step,t,", data, row end
        p, k = np.divmod(idx[:m] + lo, ns)
        c = cells[:m]
        ends.take(p, out=c[:, 3], mode="clip")
        prefix.take(k, out=c[:, 1], mode="clip")
        text.take(s, out=c[:, 2], mode="clip")
        lead = np.array(["%d," % q for q in range(p[0], p[-1] + 1)], dtype=object)
        lead.take(p - p[0], out=c[:, 0], mode="clip")
        return "".join(c.ravel().tolist()).encode()

    blocks = _forked(-(-n * ns // _BLOCK_STEPS), ps.workers, rows)
    with contextlib.closing(blocks):
        return _write_hashed(path, itertools.chain([(header + "\n").encode()], blocks))


def _equal_back(bits: np.ndarray, lag: int, out: np.ndarray,
                same: np.ndarray) -> None:
    """``out[j]``: column ``j`` of ``bits`` equals column ``j - lag``.

    False for the first ``lag`` columns; ``same`` is scratch.
    """
    m = bits.shape[1]
    k = max(0, m - lag)  # columns with a column lag back
    eq = same[:, :k]
    np.equal(bits[:, m - k:], bits[:, :k], out=eq)
    np.logical_and.reduce(eq, axis=0, out=out[lag:])
    out[:lag] = False


def pathset_to_csv(ps: PathSet, path) -> str:
    """Write stored states as CSV; returns the file's sha256 hex digest.

    Columns: ``path,step,t,kappa_1..d`` plus ``S_1..d`` when caps are
    present.  Floats are printed with 17 significant digits so a replayed
    run reproduces the file byte-for-byte.
    """
    cols = [f"kappa_{i + 1}" for i in range(ps.d)]
    columns = [ps.kappa]
    if ps.caps is not None:
        cols += [f"S_{i + 1}" for i in range(ps.d)]
        columns.append(ps.caps)
    return _write_paths_csv(ps, path, columns, "path,step,t," + ",".join(cols))


def pathset_summary(ps: PathSet) -> dict:
    """Ensemble summary (means, standard errors, covariances) at the quarter
    points ``T/4, T/2, 3T/4, T`` of the simulated horizon, snapped to stored
    steps, and the engine diagnostics.  ``max_simplex_defect`` is the worst
    ``|sum(kappa) - 1|`` over every stored row, the start included, read
    one block of paths at a time.
    """
    times = ps.times()
    horizon = times[-1]
    out = []
    for tc in (horizon / 4, horizon / 2, 0.75 * horizon, horizon):
        idx = int(np.argmin(np.abs(times - tc)))
        snap = ps.kappa[:, idx]
        if ps.n_paths > 1:
            se = (snap.std(axis=0, ddof=1) / np.sqrt(ps.n_paths)).tolist()
            cov = np.atleast_2d(np.cov(snap.T)).tolist()
        else:  # one path has no sample covariance
            se = [0.0] * ps.d
            cov = [[float("nan")] * ps.d for _ in range(ps.d)]
        out.append(
            {
                "t": float(times[idx]),
                "step": int(ps.stored_steps[idx]),
                "kappa_mean": snap.mean(axis=0).tolist(),
                "kappa_se": se,
                "kappa_cov": cov,
            }
        )
    return {
        "n_paths": ps.n_paths,
        "seed": ps.seed,
        "dt": ps.grid.dt,
        "n_steps": ps.grid.n_steps,
        "checkpoints": out,
        "diagnostics": {
            "max_simplex_defect": max(
                _simplex_defect(ps.kappa[p0:p1])
                for p0, p1 in _path_blocks(ps.n_paths, len(ps.stored_steps))),
            "max_prerenorm_defect": ps.diagnostics.max_prerenorm_defect,
            "mean_prerenorm_defect": ps.diagnostics.mean_prerenorm_defect,
            "n_clamped": ps.diagnostics.n_clamped,
            "n_jump_candidates": ps.diagnostics.n_jump_candidates,
            "n_jumps_accepted": ps.diagnostics.n_jumps_accepted,
        },
    }
