"""Markets with totally inaccessible jumps: simulation and diagnostics.

Extends the balanced weight dynamics with a finite-activity jump measure.
Between jumps each weight follows the continuous balanced SDE plus the
compensator drift

    -<e_i - kappa, I1(kappa)> dt,   I1(kappa) = integral of x / (1 + <kappa, x>) dnu,

and at a jump with size vector ``x`` the weights move by the exact
simplex-preserving update ``kappa_i <- kappa_i (1 + x_i) / (1 + <kappa, x>)``.
A coordinate of ``x`` equal to -1 annihilates that company; the compensator
drift can also push a weight through zero in finite time.  Either way death
is absorbing.

The continuous part of each step is the balanced kernel,
``sde_engine._balanced_step``, fed by ``covariance_rows``; with an empty
law this engine is the continuous one, ``simulate_relative_caps_balanced``.
Jump times are sampled by thinning against a declared intensity bound,
from a dedicated per-path random stream, so every law consumes the same
Brownian draws, and one with zero intensity reproduces the continuous
paths bit for bit.  The candidates due inside a step are
handled together, a round at a time; each path still draws on its own
stream in its own order, and products a batch could round differently
stay per row.

Without diffusion (``c = 0``) a path moves only through the compensator
factor and through its own accepted jumps.  The engine then keeps one
state per cohort of paths that share it bit for bit and advances each
distinct state once per step; a path leaves its cohort at an accepted
jump.  Such a market makes no Brownian draws unless increments are
stored, and it runs as one chunk on the calling process, so the worker
count changes neither its values, its diagnostics nor its time.  With or
without diffusion, a path that has spent its jump budget is outside its
law, here and in the diagnostics: it leaves the live rows that take the
compensator, so nothing of the law is read at its state or checked.

Every compensator integral of the diagnostics comes from ``JumpMoments``,
built once per time from the atoms and the intensity of each row.  The
diagnostics of both markets live in ``balance_diag``; this module gives
them their jump parts.  ``balance_diag.loss_of_balance`` certifies each
row of a time slab with ``_growth_optimal_rows``, which evaluates the
slab's coefficients and accepts each row whose relative Frank-Wolfe gap at
kappa is within ``_GAP_RTOL``, for any drift.  It solves nothing; under a
jump law the loss solves the rows it rejects with ``growth_optimal_jump``,
which takes damped Newton steps whose subproblem is the growth-rate QP of
``growth_opt``, solved by its active-set method, which stops at the same
relative tolerance.  The segregation
distance, ``balance_diag.distance_matrix``, needs no growth-optimal
portfolio: its jump terms are :meth:`JumpMoments.log_ratio_drift` and
:meth:`JumpMoments.log_ratio_integrand` at unit vectors.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentInitialState,
    JumpDomainError,
    JumpLawError,
    NoSolution,
    SolverFailure,
)
from .growth_opt import _GAP_RTOL, growth_optimal_constrained, simplex_gap
from .market_model import ConstraintSet, PathGrid, ProcessSpec, covariance_rows
from .sde_engine import (
    STREAM_BROWNIAN,
    STREAM_JUMP,
    EngineDiagnostics,
    PathSet,
    _balanced_step,
    _block_steps,
    _chunks,
    _draw_block,
    _format_g17,
    _n_workers,
    _output,
    _path_blocks,
    _renormalize_log,
    _run_chunked,
    _stored_steps,
    _write_paths_csv,
    path_generators,
)

__all__ = [
    "JumpSpec",
    "JumpMoments",
    "LifetimeRecord",
    "ALIVE",
    "CONTINUOUS_VANISH",
    "JUMP_TO_ZERO",
    "simulate_relative_caps_balanced",
    "simulate_jump_balanced",
    "drift_from_balance_jump",
    "rel_rate_of_return",
    "growth_optimal_jump",
    "example_death_of_company",
    "jump_pathset_to_csv",
]

DEATH_THRESHOLD = 1e-12
ALIVE = "Alive"
CONTINUOUS_VANISH = "ContinuousVanish"
JUMP_TO_ZERO = "JumpToZero"

# Random problems with d <= 5 take at most 8 Newton steps.
_NEWTON_MAX_ITER = 50
_DOMAIN_FLOOR = 1e-12
# Largest |sum(probs) - 1| of a jump law's atom probabilities.
PROB_TOL = 1e-12


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump measure.

    The supported law places probability ``probs[k]`` on finitely many size
    vectors ``atoms[k]`` (each coordinate in [-1, inf)), arriving at rate
    ``intensity(t, kappa) <= lam_max``; atoms may vary deterministically in
    time via a callable ``t -> (K, d) array``.  Its compensator moments at a
    time come from :class:`JumpMoments`.
    """

    intensity: ProcessSpec
    lam_max: float
    d: int
    atoms: np.ndarray | Callable[[float], np.ndarray]
    probs: np.ndarray
    max_jumps: int | None = None

    @staticmethod
    def finite_atoms(
        intensity, lam_max: float, atoms, probs, *, max_jumps: int | None = None
    ) -> "JumpSpec":
        if not isinstance(intensity, ProcessSpec):
            intensity = ProcessSpec.constant(float(intensity))
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or np.any(probs < 0) or abs(probs.sum() - 1.0) > PROB_TOL:
            raise JumpLawError("atom probabilities must be nonnegative and sum to one")
        x0 = _checked_atoms(atoms(0.0) if callable(atoms) else atoms, len(probs))
        if lam_max < 0:
            raise JumpLawError("lam_max must be nonnegative")
        return JumpSpec(intensity, float(lam_max), x0.shape[1],
                        atoms if callable(atoms) else x0, probs, max_jumps=max_jumps)

    def atoms_at(self, t: float) -> np.ndarray:
        if callable(self.atoms):
            return _checked_atoms(self.atoms(float(t)), len(self.probs), self.d)
        return self.atoms

    def intensity_at(self, t: float, kappa=None) -> float:
        lam = float(self.intensity(t, kappa))
        if lam < -1e-15 or lam > self.lam_max * (1.0 + 1e-12) + 1e-15:
            raise JumpLawError(
                f"intensity {lam} at t={t} leaves [0, lam_max={self.lam_max}]"
            )
        return min(max(lam, 0.0), self.lam_max)

    # -- sampling ------------------------------------------------------------

    def sample_jump(self, t: float, rng) -> np.ndarray:
        # random() is uniform()'s double, at a quarter of the cost
        x = self.atoms_at(t)
        k = bisect_right(self._cum_probs, rng.random())
        return x[min(k, len(self.probs) - 1)]

    @cached_property
    def _cum_probs(self) -> list[float]:
        return np.cumsum(self.probs).tolist()


def _checked_atoms(x, n_atoms: int, d: int | None = None) -> np.ndarray:
    """Jump sizes as an ``(n_atoms, d)`` array, each one >= -1 and not -1 in all."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != n_atoms or d not in (None, x.shape[1]):
        raise DimensionMismatch(
            f"jump sizes of shape {x.shape}, expected ({n_atoms}, {d or 'd'})")
    if np.fmin.reduce(x, axis=None, initial=np.inf) <= -1.0 + 1e-15:
        low = x <= -1.0 + 1e-15
        if (x < -1.0).any():
            raise JumpLawError("jump sizes must be >= -1 in every coordinate")
        if low.all(axis=1).any():
            raise JumpDomainError("a jump of -1 in every coordinate annihilates the market")
    return x


def _checked_kappa0(kappa0, open_simplex: bool) -> np.ndarray:
    """``kappa0`` as a float array, checked to lie in the open simplex (every
    weight positive) or the closed one (nonnegative), summing to one to 1e-9."""
    kappa0 = np.asarray(kappa0, dtype=float)
    low = kappa0 <= 0.0 if open_simplex else kappa0 < 0.0
    if np.any(low) or not abs(float(kappa0.sum()) - 1.0) <= 1e-9:
        raise InconsistentInitialState(
            f"must be {'positive' if open_simplex else 'nonnegative'} and sum to "
            f"one: kappa0 must lie in the {'open' if open_simplex else 'closed'} "
            f"simplex, got {kappa0}")
    return kappa0


@dataclass(frozen=True)
class JumpMoments:
    """Compensator moments of a finite-atom jump law at one time ``t``.

    Holds the atoms ``x`` at ``t``, evaluated and checked once, the
    intensity ``lam`` (a scalar, or one per row of a stack of ``n``
    states), the weights ``w = lam * probs`` and their truncated part
    ``w_small``, on the atoms in the closed unit ball.  Each method takes a
    portfolio of shape ``(d,)`` or a stack of shape ``(n, d)``, matched row
    by row with ``lam``.  A row with jump activity must keep
    ``1 + <p, x> > 0``, the jump domain; the methods that need it raise
    :class:`JumpDomainError` otherwise.
    """

    x: np.ndarray
    lam: float | np.ndarray
    w: np.ndarray
    w_small: np.ndarray

    @classmethod
    def at(cls, spec: JumpSpec, t: float, lam) -> "JumpMoments":
        x = spec.atoms_at(t)
        w = np.multiply.outer(lam, spec.probs)
        return cls(x, lam, w, w * (np.linalg.norm(x, axis=1) <= 1.0))

    @classmethod
    def of_rows(cls, spec: JumpSpec, t: float, rows: np.ndarray,
                active: np.ndarray) -> "JumpMoments":
        """The moments of a stack of states, jump-free off the ``active``
        rows, where no intensity is read."""
        lam = np.zeros(len(rows))
        if spec.intensity.depends_on_state():
            lam[active] = [spec.intensity_at(t, k) for k in rows[active]]
        else:
            lam[active] = spec.intensity_at(t)
        return cls.at(spec, t, lam)

    def row(self, p: int) -> "JumpMoments | None":
        """Row ``p`` of a stack; ``None`` where it has no jump activity."""
        lam = self.lam[p]
        return JumpMoments(self.x, lam, self.w[p], self.w_small[p]) if lam else None

    def inner(self, p: np.ndarray) -> np.ndarray:
        """``<p, x_k>`` for each atom, per row."""
        return (self.x @ p.T).T

    def domain(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(den, out)``: ``den = 1 + <p, x_k>`` per atom, set to 1 where it
        is not positive, and the rows with jump activity where that
        happens."""
        den = 1.0 + self.inner(p)
        low = den <= 0.0
        den[low] = 1.0
        return den, low.any(axis=-1) & (self.lam > 0.0)

    def denominators(self, p: np.ndarray) -> np.ndarray:
        """``1 + <p, x_k>`` per atom; raises where a row leaves the domain."""
        den, out = self.domain(p)
        if np.any(out):
            raise JumpDomainError(
                "jump size annihilates the whole market: 1 + <p, x> <= 0")
        return den

    def gradient(self, p: np.ndarray, den: np.ndarray | None = None) -> np.ndarray:
        """``integral of x (1/(1 + <p, x>) - 1{|x| <= 1}) dnu``, the jump part
        of the growth rate's gradient at ``p`` (Karatzas & Kardaras 2007);
        ``den`` is ``p``'s :meth:`domain` when already at hand."""
        if den is None:
            den = self.denominators(p)
        return (self.w / den - self.w_small) @ self.x

    def curvature_root(self, den: np.ndarray) -> np.ndarray:
        """``F`` with ``F^T F = integral of x x^T / (1 + <p, x>)^2 dnu`` at one
        portfolio; square-root weights keep it exactly symmetric."""
        return self.x * (np.sqrt(self.w) / den)[:, None]

    def log_term(self, p: np.ndarray) -> np.ndarray:
        """``integral of [log(1 + <p, x>) - <p, x> 1{|x| <= 1}] dnu``."""
        px = self.inner(p)
        self.denominators(p)
        return (self.w * np.log1p(px) - self.w_small * px).sum(axis=-1)

    def log_ratios(self, kappa: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """``y = log((1 + <kappa, x>)/(1 + <rho, x>))`` per atom, the jump of
        ``log(V^kappa / V^rho)``; infinite on the atoms where either side
        leaves the domain."""
        num = 1.0 + self.inner(kappa)
        den = 1.0 + self.inner(rho)
        with np.errstate(divide="ignore"):
            ratio = np.where((num > 0.0) & (den > 0.0), num / den, np.inf)
            return np.log(ratio)

    def log_ratio_integrand(self, kappa: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """``integral of 1 ∧ y^2 dnu`` for ``y`` of :meth:`log_ratios`, so 1 on
        the atoms where either side leaves the domain: the jump term of the
        loss of balance, and with unit vectors ``e_i, e_j`` (stacked, one
        pair per row) that of the distance between companies i and j."""
        return (self.w * np.minimum(1.0, self.log_ratios(kappa, rho) ** 2)).sum(axis=-1)

    def log_ratio_drift(self, kappa: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """``integral of [y 1{|y| <= 1} - <kappa - rho, x> 1{|x| <= 1}] dnu``
        for ``y`` of :meth:`log_ratios`, with ``y 1{|y| <= 1} = 0`` where
        either side leaves the domain: the jump part of the drift of
        ``log(V^kappa / V^rho)`` under the truncation ``y 1{|y| <= 1}``, the
        one that pairs with ``1 ∧ y^2`` (Jacod & Shiryaev, *Limit Theorems
        for Stochastic Processes*, II.2).  With unit vectors it is that of
        ``log(S_i / S_j)``."""
        y = self.log_ratios(kappa, rho)
        small = np.where(np.abs(y) <= 1.0, y, 0.0)
        return (self.w * small - self.w_small * self.inner(kappa - rho)).sum(axis=-1)


def _moments(nu, t: float, kappa) -> JumpMoments | None:
    """``nu`` as the :class:`JumpMoments` of one state at ``t``, or ``None``
    without jump activity.  A :class:`JumpSpec` is evaluated with its
    intensity read at ``kappa``."""
    if not isinstance(nu, JumpSpec) or nu.lam_max == 0.0:
        return nu if isinstance(nu, JumpMoments) else None
    if kappa is None and nu.intensity.depends_on_state():
        raise ValueError("a state-dependent intensity needs kappa_state")
    lam = nu.intensity_at(t, kappa)
    return JumpMoments.at(nu, t, lam) if lam > 0.0 else None


def _log_weights(k: np.ndarray) -> np.ndarray:
    """``log k``, -inf at the zero weights of dead companies."""
    return np.log(k, out=np.full(k.shape, -np.inf), where=k > 0.0)


@dataclass
class LifetimeRecord:
    """Death bookkeeping for a simulated ensemble.

    ``zeta[p, i]`` is company i's death time on path p (inf while alive);
    ``death_mode`` holds one of {Alive, ContinuousVanish, JumpToZero}.  The
    jump counters are auxiliary: accepted jumps per path, the first
    accepted jump time (nan when none), and the time the per-path jump
    budget ran out (inf when it never did); after that moment the jump
    measure, and with it the compensator drift, is switched off.
    """

    zeta: np.ndarray
    death_mode: np.ndarray
    jump_count: np.ndarray = field(default=None)
    first_jump_time: np.ndarray = field(default=None)
    budget_exhausted_time: np.ndarray = field(default=None)

    def died(self, company: int) -> np.ndarray:
        return np.isfinite(self.zeta[:, company])


# ---------------------------------------------------------------------------
# simulation


def _compensator_factor(kl: np.ndarray, x_t: np.ndarray, neg: bool, probs,
                        lam, dt: float) -> np.ndarray:
    """``1 - (I1 - <kappa, I1>) dt`` per row of ``kl``, ``I1 = lam sum_k probs_k
    x_k / (1 + <kappa, x_k>)``, ``lam`` one intensity or one per row.  Only a
    ``neg``ative jump size can leave the jump domain: raises on a row with
    jump activity there; the others never use their moment."""
    den = kl @ x_t.T
    den += 1.0
    if neg:
        bad = np.logical_or.reduce(den <= 0.0, axis=1)
        if np.count_nonzero(bad):
            if not isinstance(lam, np.ndarray) or np.count_nonzero(bad & (lam > 0.0)):
                raise JumpDomainError("jump size annihilates the whole market")
            den[bad] = 1.0
    i1 = np.divide(probs, den, out=den) @ x_t
    i1 *= lam[:, None] if isinstance(lam, np.ndarray) else lam
    i1 -= np.einsum("ij,ij->i", kl, i1)[:, None]
    i1 *= dt
    return np.subtract(1.0, i1, out=i1)


def _compensate(ck: np.ndarray, kl: np.ndarray, factor: np.ndarray,
                ids: np.ndarray, weights, diag: EngineDiagnostics):
    """Store back, times ``factor``, the rows ``kl = ck[ids]`` it moves (a row
    without jump activity stays bit for bit), weights below ``DEATH_THRESHOLD`` dead
    at zero, renormalized.  Returns their positions in ``ids``, the dying
    coordinates (or ``None``) and the company-major log-weights, or ``None``."""
    knew = np.multiply(kl, factor, out=factor)
    neq = knew != kl
    rows = slice(None)
    if np.count_nonzero(neq) < neq.size:
        moved = np.logical_or.reduce(neq, axis=1)
        n = np.count_nonzero(moved)
        if not n:
            return None
        if n < len(moved):
            rows = np.flatnonzero(moved)
    ksub = knew[rows]
    kt, dying = ksub.T, None
    # a minimum above the threshold (so not nan): every weight lives
    if np.minimum.reduce(ksub, axis=None) >= DEATH_THRESHOLD:
        lt = np.log(kt, order="C")
    else:
        dying = ksub < DEATH_THRESHOLD
        dying &= kl[rows] > 0.0
        ksub[dying] = 0.0
        lt = _log_weights(kt)
    w = None if weights is None else weights[rows]
    ck[ids[rows]] = _renormalize_log(lt, diag, w, ids[rows]).T
    return rows, dying, lt


def simulate_jump_balanced(
    c_spec: ProcessSpec,
    jump_spec: JumpSpec | None,
    kappa0,
    grid: PathGrid,
    n_paths: int,
    seed: int,
    *,
    store_every: int = 1,
    store_increments: bool = False,
    n_threads: int = 1,
):
    """Balanced weight dynamics with compensated finite-activity jumps.

    Returns ``(PathSet, LifetimeRecord)``.  Dead companies are frozen at
    weight zero.  The Brownian and jump draws come from separate per-path
    streams, so a spec with zero intensity reproduces
    :func:`simulate_relative_caps_balanced` exactly; a law with
    ``lam_max == 0``, such as ``jump_spec=None`` (no jumps), builds no jump
    streams.  With zero covariance the paths that share a state are
    advanced as one cohort, all in one chunk (see the module docstring);
    every path still thins its own candidates on its own jump stream, so
    the values are those of stepping every path.  A path that has spent its
    jump budget is outside its law: it leaves the live rows that take the
    compensator, so no intensity is read nor jump domain checked at its state.
    """
    kappa0 = _checked_kappa0(kappa0, open_simplex=False)
    d = len(kappa0)
    if jump_spec is None:
        jump_spec = JumpSpec.finite_atoms(0.0, 0.0, np.zeros((1, d)), [1.0])
    if jump_spec.d != d:
        raise DimensionMismatch(
            f"jump law is {jump_spec.d}-dimensional, market is {d}"
        )
    kappa0 = kappa0 / kappa0.sum()
    if store_increments and store_every != 1:
        raise ValueError("increments can only be stored at full resolution")

    cov = covariance_rows(c_spec, d)
    # a covariance that is zero for good leaves no diffusion and no
    # quadratic drift: the weights only move through the compensator factor
    # and the jumps, and the Brownian draws are skipped
    diffusion = not (c_spec.is_constant() and not cov(grid.t0, None)[0].any())
    workers = _n_workers(n_paths, n_threads) if diffusion else 1

    stored = _stored_steps(grid.n_steps, store_every)
    stored_pos = {int(s): i for i, s in enumerate(stored)}
    kappa_out = _output((n_paths, len(stored), d), float, workers)
    kappa_out[:, 0] = kappa0
    inc_out = (_output((n_paths, grid.n_steps, d), float, workers)
               if store_increments else None)
    zeta, mode, jump_count, first_jump, budget_out = records = [
        _output((n_paths, *shape), dtype, workers) for shape, dtype in (
            ((d,), float), ((d,), "<U16"), ((), np.int64), ((), float), ((), float))]
    zeta[...], mode[...], first_jump[...] = np.inf, ALIVE, np.nan
    zeta[:, kappa0 == 0.0] = grid.t0
    mode[:, kappa0 == 0.0] = CONTINUOUS_VANISH
    budget_out[...] = grid.t0 if jump_spec.max_jumps == 0 else np.inf

    draws = diffusion or inc_out is not None
    budget, lam_max = jump_spec.max_jumps, jump_spec.lam_max
    sqrt_dt = np.sqrt(grid.dt)
    dt = grid.dt

    # hoist the per-step time dependence out of the hot loop: the intensity
    # (None where it depends on the state), and the atoms with whether one
    # is negative where it is positive; a constant intensity is read, and
    # range-checked, once
    step_times = (grid.t0 + dt * np.arange(grid.n_steps)).tolist()
    lam_fixed = (jump_spec.intensity_at(grid.t0)
                 if jump_spec.intensity.is_constant() else None)
    lam_steps = ([lam_fixed] * grid.n_steps
                 if lam_fixed is not None or jump_spec.intensity.depends_on_state()
                 else [jump_spec.intensity_at(tk) for tk in step_times])
    atoms_steps = [None] * grid.n_steps
    for s, (tk, lam_t) in enumerate(zip(step_times, lam_steps)):
        if lam_t is None or lam_t > 0.0:
            x_t = jump_spec.atoms_at(tk)
            atoms_steps[s] = x_t, np.fmin.reduce(x_t, axis=None, initial=0.0) < 0.0

    def worker(lo: int, hi: int) -> EngineDiagnostics:
        m = hi - lo
        diag = EngineDiagnostics(prerenorm_row_sums=np.zeros(m))
        zt, md, jc, fj, bo = (a[lo:hi] for a in records)
        jgens = path_generators(seed, STREAM_JUMP, lo, hi) if lam_max > 0.0 else []
        # pending thinning candidates (time, row), one per row with budget
        heap = ([(grid.t0 + g.exponential(1.0 / lam_max), i) for i, g in enumerate(jgens)]
                if budget is None or budget > 0 else [])
        heapq.heapify(heap)
        # cohorts: rows with bitwise-equal state and budget status take
        # bitwise-equal steps, so each cohort's state is stored and stepped
        # once.  Without diffusion every row starts in cohort 0 and leaves
        # it for a cohort of its own at its first accepted jump; with
        # diffusion every row is its own cohort.  A split only ever takes
        # one row out of a larger cohort, so there are at most m cohorts.
        nc = m if diffusion else 1
        ck = np.tile(kappa0, (m, 1))
        csize = np.zeros(m, dtype=np.int64)
        csize[:nc] = 1 if diffusion else m
        cspent = np.full(m, budget == 0)
        rc = np.arange(m) if diffusion else np.zeros(m, dtype=np.int64)
        # 2: the live cohorts changed; 1: only their member counts did
        regroup = 2
        span = _block_steps(m, d, grid.n_steps, workers) if draws else grid.n_steps
        if draws:
            gens = path_generators(seed, STREAM_BROWNIAN, lo, hi)
            buf = np.empty(m * span * d)
        if diffusion:
            # log-weights company-major (_balanced_step)
            clt = np.tile(_log_weights(kappa0)[:, None], (1, m))
        for step in range(0, grid.n_steps, span):
            blk = min(span, grid.n_steps - step)
            if draws:
                dw = _draw_block(gens, buf, blk, d, sqrt_dt)
                if inc_out is not None:
                    inc_out[lo:hi, step : step + blk] = dw
            for j in range(blk):
                if regroup:
                    if regroup == 2:
                        # the live cohorts in id order; ``w`` weights each
                        # row by its member paths in the defect statistics.
                        # BLAS rounds a one-row product differently, so a
                        # lone live cohort pads ``ids`` with itself at weight 0
                        ids = np.flatnonzero(~cspent[:nc])
                        pad = ids.size == 1 and m > 1
                        ids = ids.repeat(2) if pad else ids
                    w = csize[ids] * [1, 0] if pad else csize[ids]
                    regroup = 0
                s = step + j
                t = grid.t0 + s * dt
                t_end = grid.t0 + (s + 1) * dt
                factor = None
                if atoms_steps[s] is not None and ids.size:
                    kl = ck.take(ids, axis=0)  # the live rows
                    (x_t, neg), lam = atoms_steps[s], lam_steps[s]
                    if lam is None:
                        try:
                            lam = np.array([jump_spec.intensity_at(t, k) for k in kl])
                        except Exception:
                            # a pure intensity raises again at the first bad
                            # live path, so the error is the per-path loop's
                            for i in np.flatnonzero(~cspent[rc]):
                                jump_spec.intensity_at(t, ck[rc[i]])
                            raise
                    factor = _compensator_factor(kl, x_t, neg, jump_spec.probs, lam, dt)
                if diffusion:
                    # the balanced step; dead coordinates ride along at -inf
                    c, sigma = cov(t, ck)
                    ck = _balanced_step(clt, ck, dw[:, j], c, sigma, dt, diag)
                    if factor is not None:
                        kl = ck.take(ids, axis=0)
                moved = factor is not None and _compensate(ck, kl, factor, ids, w, diag)
                if moved:
                    rows, dying, lt = moved
                    for rr, cc in zip(*np.nonzero(dying)) if dying is not None else ():
                        members = rc == ids[rows][rr]
                        zt[members, cc] = t_end
                        md[members, cc] = CONTINUOUS_VANISH
                    if diffusion:
                        clt[:, ids[rows]] = lt
                # jump events inside (t, t_end], a round at a time: each
                # due row draws on its own stream in its own order
                # (acceptance, size, next candidate), and products stay
                # per row
                while heap and heap[0][0] <= t_end:
                    due = []
                    while heap and heap[0][0] <= t_end:
                        due.append(heapq.heappop(heap))
                    due.sort(key=itemgetter(1))
                    diag.n_jump_candidates += len(due)
                    acc, knew, spent = [], [], set()
                    for tau, i in due:
                        kap = ck[rc[i]]
                        lam = (lam_fixed if lam_fixed is not None
                               else jump_spec.intensity_at(tau, kap))
                        if jgens[i].random() <= lam / lam_max:
                            x = jump_spec.sample_jump(tau, jgens[i])
                            base = 1.0 + kap @ x
                            if base <= 0.0:
                                raise JumpDomainError(
                                    "jump size annihilates the whole market")
                            acc.append((tau, i, kap))
                            knew.append(kap * (1.0 + x) / base)
                    if acc:
                        knew = np.array(knew)
                        if np.fmin.reduce(knew, axis=None) < DEATH_THRESHOLD:
                            dead = knew < DEATH_THRESHOLD
                            dead &= np.array([kap for _, _, kap in acc]) > 0.0
                            for r, cc in zip(*np.nonzero(dead)):
                                zt[acc[r][1], cc] = acc[r][0]
                                md[acc[r][1], cc] = JUMP_TO_ZERO
                            knew[dead] = 0.0
                        knew /= np.add.reduce(knew, axis=1, keepdims=True)
                        diag.n_jumps_accepted += len(acc)
                        for (tau, i, _), row in zip(acc, knew):
                            n = jc[i] = jc[i] + 1
                            if n == 1:
                                fj[i] = tau
                            c = rc[i]
                            split = csize[c] > 1
                            if split:
                                # the path leaves its cohort for a new one
                                csize[c] -= 1
                                rc[i] = c = nc
                                csize[nc] = 1
                                nc += 1
                            ck[c] = row
                            if budget is not None and n >= budget:
                                spent.add(i)
                                bo[i] = tau
                                cspent[c] = True
                            if split or i in spent:
                                # unchanged live set: a new cohort spent at once
                                regroup = max(regroup, 1 if split and i in spent else 2)
                        if diffusion:
                            clt[:, [i for _, i, _ in acc]] = _log_weights(knew).T
                    for tau, i in due:
                        if i not in spent:
                            heapq.heappush(heap, (tau + jgens[i].exponential(1.0 / lam_max), i))
                idx = stored_pos.get(s + 1)
                if idx is not None:
                    kappa_out[lo:hi, idx] = ck.take(rc, axis=0)
        return diag

    # without diffusion, cohorts share most across the whole ensemble, and
    # their defect sums would depend on the chunk layout: one chunk on the
    # calling process
    spans = _chunks(n_paths, workers) if diffusion else [(0, n_paths)][:n_paths]
    diag = _run_chunked(worker, spans, workers)
    ps = PathSet(
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        kappa=kappa_out,
        stored_steps=stored,
        brownian_increments=inc_out,
        c_spec=c_spec,
        diagnostics=diag,
        workers=workers,
    )
    rec = LifetimeRecord(
        zeta=zeta,
        death_mode=mode,
        jump_count=jump_count,
        first_jump_time=first_jump,
        budget_exhausted_time=budget_out,
    )
    return ps, rec


def simulate_relative_caps_balanced(
    c_spec: ProcessSpec,
    kappa0,
    grid: PathGrid,
    n_paths: int,
    seed: int,
    *,
    store_every: int = 1,
    store_increments: bool = False,
    n_threads: int = 1,
) -> PathSet:
    """Simulate the driftless weight dynamics on the simplex.

    Walks ``log kappa_i`` with drift ``-0.5 <e_i - kappa, c (e_i - kappa)>``
    and noise ``<e_i - kappa, sigma dW>``, renormalizing each step so every
    state lies exactly on the simplex.  Each weight coordinate is a
    martingale up to O(dt) discretization bias.  This is
    :func:`simulate_jump_balanced` with an empty jump law, from a start in
    the open simplex.
    """
    ps, _ = simulate_jump_balanced(
        c_spec, None, _checked_kappa0(kappa0, open_simplex=True), grid, n_paths,
        seed, store_every=store_every, store_increments=store_increments,
        n_threads=n_threads)
    return ps


# ---------------------------------------------------------------------------
# rates of return and growth optimality under jumps


def drift_from_balance_jump(
    kappa_minus, c, jump_spec: JumpSpec | JumpMoments | None, r: float,
    t: float = 0.0,
) -> np.ndarray:
    """Capitalization drift that makes the weight process a martingale.

    ``b = c kappa + r 1 - integral of x (1/(1+<kappa,x>) - 1{|x|<=1}) dnu``,
    coordinatewise, for the living companies: the jump gradient of
    :class:`JumpMoments` taken at kappa.  ``jump_spec`` may also be the
    moments of kappa's row at ``t``.
    """
    kappa_minus = np.asarray(kappa_minus, dtype=float)
    b = np.asarray(c, dtype=float) @ kappa_minus + r
    m = _moments(jump_spec, t, kappa_minus)
    return b if m is None else b - m.gradient(kappa_minus)


def rel_rate_of_return(
    pi, rho, b, c, jump_spec: JumpSpec | JumpMoments | None, r: float,
    t: float = 0.0, kappa_state=None,
) -> float:
    """First-order growth advantage of ``pi`` over ``rho``.

    ``<pi - rho, b - r1 - c rho> + integral of [<pi-rho, x>/(1+<rho, x>) -
    <pi-rho, x> 1{|x|<=1}] dnu``.  Nonpositive for every feasible ``pi``
    exactly when ``rho`` is growth-optimal.  ``kappa_state`` feeds
    state-dependent intensities; it defaults to ``rho``.  ``jump_spec`` may
    also be the moments of the state's row at ``t``.
    """
    pi = np.asarray(pi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    diff = pi - rho
    val = float(diff @ (b - r - c @ rho))
    m = _moments(jump_spec, t, rho if kappa_state is None else kappa_state)
    if m is not None:
        val += float(diff @ m.gradient(rho))
    return val


def growth_optimal_jump(
    b,
    c,
    r: float,
    jump_spec: JumpSpec | JumpMoments | None,
    t: float = 0.0,
    *,
    support: np.ndarray | None = None,
    warm_start: np.ndarray | None = None,
    kappa_state: np.ndarray | None = None,
):
    """Maximize the jump-adjusted growth rate over the (sub-)simplex.

    The objective ``<p, b - r1> - 0.5 <p, cp> + integral of [log(1+<p,x>) -
    <p,x>1{|x|<=1}] dnu + r`` is smooth and concave on its domain
    ``1 + <p, x> > 0``.  At ``p`` its quadratic model is a growth-rate QP
    with gradient ``g = b - r1 - cp + integral of x (1/(1+<p,x>) -
    1{|x|<=1}) dnu`` and curvature ``c + integral of x x^T / (1+<p,x>)^2
    dnu``, which :func:`growth_optimal_constrained` solves exactly.  Each
    damped Newton step heads for that QP's optimizer.  It starts from the
    largest length in (0, 1] inside the domain and backtracks until the
    directional derivative at its end is nonnegative, so the objective never
    falls; objective values are never compared.  With no jump activity the
    QP is the problem itself.  ``support`` masks out dead companies.  The
    intensity is read once, at ``kappa_state``; a state-dependent intensity
    without ``kappa_state`` raises ``ValueError``.  ``jump_spec`` may also
    be the moments of the state's row at ``t``.  Returns ``(rho, g_star)``;
    raises :class:`SolverFailure` if the relative Frank-Wolfe gap is still
    above ``_GAP_RTOL`` after ``_NEWTON_MAX_ITER`` steps.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = len(b)
    if support is None:
        support = np.ones(d, dtype=bool)
    sup = np.flatnonzero(support)
    if sup.size == 0:
        raise NoSolution("no living companies to invest in")
    m = _moments(jump_spec, t, kappa_state)
    simplex = ConstraintSet.closed_simplex()
    cs = c[np.ix_(sup, sup)]
    rho = np.zeros(d)
    if m is None:
        rho[sup], g_star = growth_optimal_constrained(b[sup], cs, r, simplex)
        return rho, g_star

    # the law seen by the living companies; the truncation stays that of
    # the whole jump
    ms = replace(m, x=m.x[:, sup])

    def feasible(ps: np.ndarray) -> bool:
        return bool(np.all(1.0 + ms.inner(ps) > _DOMAIN_FLOOR))

    # start from the warm start where it is feasible, else from the uniform
    # portfolio of the living companies; that one leaves the domain only
    # when some atom is about -1 on every living company
    ps = np.full(sup.size, 1.0 / sup.size)
    if warm_start is not None and np.all(warm_start[~support] == 0.0):
        warm = np.maximum(np.asarray(warm_start, dtype=float)[sup], 0.0)
        if warm.sum() > 0.0 and feasible(warm / warm.sum()):
            ps = warm / warm.sum()
    if not feasible(ps):
        raise NoSolution("no feasible portfolio keeps 1 + <p, x> > 0")

    q = b[sup] - r
    for it in range(_NEWTON_MAX_ITER + 1):
        den = ms.denominators(ps)
        grad = q - cs @ ps + ms.gradient(ps, den)
        gap = float(simplex_gap(grad, ps)) / (1.0 + float(np.abs(grad).max()))
        if gap <= _GAP_RTOL or it == _NEWTON_MAX_ITER:
            break
        xw = ms.curvature_root(den)
        h = cs + xw.T @ xw
        step = growth_optimal_constrained(grad + h @ ps, h, 0.0, simplex)[0] - ps
        dx = ms.inner(step)
        # the step sums to zero only up to rounding; measured from the
        # gradient's top the slope does not pick up that rounding times
        # the gradient's common level
        slope = float((grad - grad.max()) @ step)
        if slope <= 0.0:
            break
        curv = float(step @ cs @ step)
        with np.errstate(divide="ignore"):
            s = min(1.0, float(np.where(dx < 0.0, den / -dx, np.inf).min()))
        # Along the step the derivative slope - s (curv + sum of
        # w dx^2 / (den den_s)) only falls, so the objective rises as far as
        # it stays nonnegative.  A first trial that overshoots is cut to the
        # root of the derivative's chord from 0; later ones are halved.
        for k in range(60):
            den_s = den + s * dx
            if den_s.min() > _DOMAIN_FLOOR:
                dphi = slope - s * (
                    curv + float((ms.w * dx * dx) @ (1.0 / (den * den_s))))
                if dphi >= 0.0:
                    break
                if k == 0:
                    s *= slope / (slope - dphi)
                    continue
            s *= 0.5
        else:
            break
        ps = ps + s * step
    if gap > _GAP_RTOL:
        raise SolverFailure(
            f"Newton ascent stopped at iteration {it} with a relative "
            f"Frank-Wolfe gap of {gap:.3e} at t={t:.6g}"
        )
    rho[sup] = ps
    g_star = r + rho @ (b - r) - 0.5 * rho @ c @ rho + m.log_term(rho)
    return rho, float(g_star)


# ---------------------------------------------------------------------------
# generalized diagnostics


def _growth_optimal_rows(
    slab: np.ndarray, t: float, moments: JumpMoments | None,
    c_spec: ProcessSpec, b_spec: ProcessSpec | None, r_spec: ProcessSpec,
):
    """Which rows of a time slab are their own growth-optimal portfolio.

    Evaluates each row's drift, covariance and rate at time ``t``;
    ``b_spec=None`` means the balanced drift of
    :func:`drift_from_balance_jump`.  ``moments`` are the slab's jump
    moments (:meth:`JumpMoments.of_rows`), or ``None`` for a continuous
    market.  A row is certified when kappa lies on the simplex
    (nonnegative, summing to one within ``_GAP_RTOL``) and the relative
    Frank-Wolfe gap of the jump-adjusted growth rate at kappa is at most
    ``_GAP_RTOL``, the stopping gap of :func:`growth_optimal_jump`.  The
    gap runs over the living companies in a jump market and over all
    companies in a continuous one.  Rows whose state leaves the jump
    domain are not certified, so that the solver raises the precise error.
    Solves nothing: returns ``(certified, row)`` with ``row(p)`` giving
    ``(b, c, r, nu)`` of row ``p``, where ``nu`` is the row's moments where
    it has jump activity and ``None`` elsewhere.
    """
    n, d = slab.shape
    c = c_spec.rows(t, slab, (d, d), "covariance rate c")
    r = r_spec.rows(t, slab, (), "interest rate r")
    # rows run along the columns of these (d, n) arrays, so that every
    # reduction or broadcast over a row's few entries is one whole-array
    # operation
    kt = np.ascontiguousarray(slab.T)
    b = None if b_spec is None else b_spec.rows(t, slab, (d,), "drift rate")
    # the balanced drift's gradient b - r 1 - c kappa + jump gradient at
    # kappa is zero by its definition
    grad = np.zeros((d, n))
    if b is not None:
        cx = slab @ c.T if c.ndim == 2 else np.einsum("pij,pj->pi", c, slab)
        grad = (b - (r[:, None] if r.ndim else r) - cx).T
    alive = np.ones((d, n), dtype=bool) if moments is None else kt > DEATH_THRESHOLD
    bad = np.zeros(n, dtype=bool)
    if moments is not None:
        den, bad = moments.domain(slab)
        if b is not None:
            grad = grad + moments.gradient(slab, den).T
    gain = simplex_gap(grad.T, kt.T, alive.T)
    scale = np.where(alive, np.abs(grad), 0.0).max(axis=0)
    ok = ((kt >= 0.0).all(axis=0) & (np.abs(kt.sum(axis=0) - 1.0) <= _GAP_RTOL)
          & (gain <= _GAP_RTOL * (1.0 + scale)) & ~bad)

    def row(p: int):
        kap = slab[p]
        c_p = c if c.ndim == 2 else c[p]
        r_p = float(r[p] if r.ndim else r)
        nu = None if moments is None else moments.row(p)
        b_p = (drift_from_balance_jump(kap, c_p, nu, r_p, t) if b is None
               else b if b.ndim == 1 else b[p])
        return b_p, c_p, r_p, nu

    return ok, row


# ---------------------------------------------------------------------------
# the exact two-company death example


_T_DEATH = 2.0 * np.log(2.0)
_EXAMPLE_MAX_DT = 1e-3  # coarsest step at which the analytic comparison holds


def _example_size(t: float) -> np.ndarray:
    level = 1.0 - np.exp(t / 2.0) / 2.0
    level = max(level, 1e-30)
    return np.array([[0.0, 1.0 / level]])


def example_death_of_company(
    grid: PathGrid,
    n_paths: int,
    seed: int,
    *,
    store_every: int = 100,
) -> dict:
    """Two companies, no noise, one compensated upward jump law.

    The second company's weight solves ``dk/dt = -k(1-k) l(t)/(1+k l(t))``
    with ``l(t) = (1 - e^{t/2}/2)^{-1}``, giving the closed form
    ``k(t) = 1 - e^{t/2}/2``: it hits zero at ``t = 2 log 2`` unless a jump
    (unit-rate while the company lives) rescues it first, so exactly
    ``e^{-2 log 2} = 1/4`` of paths lose the company.

    Before its first jump every path rides the same deterministic flow, so
    the analytic comparison runs over the whole ensemble: ``sup_error`` is
    the worst deviation of any stored pre-jump weight from the closed form,
    and ``death_time_err`` the worst |zeta - 2 log 2| over dying paths.
    The engine advances that shared flow once per step for all paths that
    have not jumped, and a path's single jump spends its budget and freezes
    it, so the run costs about one step per grid point plus one per jump.
    The comparison takes one block of paths at a time, so it holds little
    memory beyond the path set.
    """
    if grid.dt > _EXAMPLE_MAX_DT:
        raise ValueError(f"the analytic comparison needs dt <= {_EXAMPLE_MAX_DT:g}")
    # unit rate while the drift can still be outrun, zero afterwards; the
    # 1e-9-wide ramp keeps the knots strictly increasing and never contains
    # a grid point, so every step sees exactly 0 or 1
    intensity = ProcessSpec.time_table(
        [0.0, _T_DEATH - 1e-9, _T_DEATH, _T_DEATH + 1.0],
        [1.0, 1.0, 0.0, 0.0],
    )
    spec = JumpSpec.finite_atoms(
        intensity, lam_max=1.0, atoms=_example_size, probs=[1.0], max_jumps=1
    )
    c_zero = ProcessSpec.constant(np.zeros((2, 2)))
    k0 = np.array([0.5, 0.5])

    ps, rec = simulate_jump_balanced(
        c_zero, spec, k0, grid, n_paths, seed, store_every=store_every)
    times = ps.times()
    analytic = np.where(
        times < _T_DEATH, 1.0 - np.exp(times / 2.0) / 2.0, 0.0
    )
    # per-path comparison window: strictly before the first accepted jump
    # (nan = never jumped = compare everywhere), one block of paths at a time
    tau = np.where(np.isnan(rec.first_jump_time), np.inf, rec.first_jump_time)
    block_errors = []
    for p0, p1 in _path_blocks(n_paths, len(times)):
        err = np.abs(ps.kappa[p0:p1, :, 1] - analytic)
        block_errors.append(np.where(times < tau[p0:p1, None], err, 0.0).max())
    sup_error = float(np.max(block_errors))

    died = rec.died(1)
    frac = float(died.mean())
    se = float(np.sqrt(0.25 * 0.75 / n_paths))
    death_times = rec.zeta[died, 1]
    death_time_err = (
        float(np.abs(death_times - _T_DEATH).max()) if died.any() else 0.0
    )
    return {
        "path_set": ps,
        "lifetimes": rec,
        "jump_spec": spec,
        "analytic_weight": analytic,
        "sup_error": sup_error,
        "death_time": float(death_times.mean()) if died.any() else np.nan,
        "death_time_err": death_time_err,
        "expected_death_time": float(_T_DEATH),
        "dying_fraction": frac,
        "expected_dying_fraction": 0.25,
        "dying_fraction_se": se,
        "death_time_spread": float(np.ptp(death_times)) if died.any() else 0.0,
        "n_paths": n_paths,
    }


# ---------------------------------------------------------------------------
# serialization


def jump_pathset_to_csv(ps: PathSet, rec: LifetimeRecord, path) -> str:
    """CSV rows ``path,step,t,kappa_*,zeta_*,death_mode_*``; sha256 digest."""
    d = ps.d
    cols = [f"{name}_{i + 1}" for name in ("kappa", "zeta", "death_mode")
            for i in range(d)]
    # zeta and death mode are fixed per path: format them once per path
    zeta = _format_g17(rec.zeta).split("\n")
    suffix = np.array([",".join([z, *modes]) for z, modes in
                       zip(zeta, rec.death_mode)], dtype=object)
    return _write_paths_csv(
        ps, path, [ps.kappa], "path,step,t," + ",".join(cols), suffix
    )
