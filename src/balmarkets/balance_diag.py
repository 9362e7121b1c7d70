"""Balance diagnostics on simulated paths.

Everything in this module consumes a :class:`~balmarkets.sde_engine.PathSet`
and reuses the path's own driver increments; pathwise identities such as the
wealth decomposition only hold when drift and noise come from the same
realization, so nothing here re-simulates.

The central object is the loss-of-balance process

    L_t = integral of (g* - g^kappa) du  over [0, t],

where ``g*`` is the best growth rate over the closed simplex and
``g^kappa`` the market portfolio's.  ``L`` is flat exactly when the market
weights are martingales; its tail slope drives the Balanced / Unbalanced /
Indeterminate call.  :func:`loss_of_balance` measures it for continuous
and jump markets alike: under a jump law the rate is the generalized one,
``-rel(kappa | rho) + 0.5 <kappa-rho, c (kappa-rho)>`` plus the
compensator integral of ``1 ∧ log^2((1+<kappa,x>)/(1+<rho,x>))``, with
``rho`` from :func:`~balmarkets.jump_markets.growth_optimal_jump`, and
both markets share one certificate, one rate check and one accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HorizonTooShort,
    ShapeMismatch,
    SolverFailure,
)
from .growth_opt import _GAP_TOL, growth_optimal_constrained, growth_rate
from .jump_markets import (
    DEATH_THRESHOLD,
    JumpMoments,
    JumpSpec,
    LifetimeRecord,
    _growth_optimal_rows,
    _moments,
    drift_from_balance_jump,
    growth_optimal_jump,
    rel_rate_of_return,
)
from .market_model import (
    ConstraintKind,
    ConstraintSet,
    ProcessSpec,
    check_invertible,
    covariance_rows,
)
from .sde_engine import (
    _BLOCK_STEPS,
    PathSet,
    _format_g17,
    _path_blocks,
    _write_hashed,
)

__all__ = [
    "BalanceReport",
    "DistanceMatrix",
    "loss_of_balance",
    "wealth_path",
    "distance_matrix",
    "equivalence_classes",
    "limiting_distribution",
    "LimitingDistribution",
    "limiting_to_csv",
    "lln_diagnostic",
    "bank_rate_statistic",
]

DEFAULT_EPS_SLOPE = 1e-3
DEFAULT_L_CAP = 50.0
DEFAULT_DISTANCE_THRESHOLD = 25.0
DEFAULT_ATOM_EPS = 0.01
DEFAULT_INDETERMINATE_CAP = 0.5


# ---------------------------------------------------------------------------
# loss of balance


@dataclass
class BalanceReport:
    """Loss-of-balance paths and their outcome classification.

    ``L_path`` has shape (n_paths, n_stored) and is nondecreasing along the
    time axis with ``L[:, 0] = 0``.  ``slope_tail`` is the average dL/dt
    over the final quarter of the run.
    """

    times: np.ndarray
    L_path: np.ndarray
    classification: list[str]
    L_terminal: np.ndarray
    slope_tail: np.ndarray
    eps_slope: float = DEFAULT_EPS_SLOPE
    L_cap: float = DEFAULT_L_CAP

    @classmethod
    def from_loss(
        cls,
        times: np.ndarray,
        L: np.ndarray,
        eps_slope: float = DEFAULT_EPS_SLOPE,
        L_cap: float = DEFAULT_L_CAP,
    ) -> "BalanceReport":
        """Classify every row of an (n_paths, n_stored) loss array at once.

        Balanced when L has flattened out (tail slope below ``eps_slope``
        per unit time) and stayed below ``L_cap``; Unbalanced when the tail
        still rises at more than ten times that rate; Indeterminate
        otherwise.
        """
        idx = _tail_start(times)
        slope = (L[:, -1] - L[:, idx]) / (times[-1] - times[idx])
        L_terminal = L[:, -1].copy()
        labels = np.where(
            (slope < eps_slope) & (L_terminal < L_cap),
            "Balanced",
            np.where(slope > 10.0 * eps_slope, "Unbalanced", "Indeterminate"),
        )
        return cls(
            times=times,
            L_path=L,
            classification=labels.tolist(),
            L_terminal=L_terminal,
            slope_tail=slope,
            eps_slope=eps_slope,
            L_cap=L_cap,
        )

    @property
    def n_paths(self) -> int:
        return self.L_path.shape[0]

    def to_json_dict(self) -> dict:
        counts: dict[str, int] = {}
        for label in self.classification:
            counts[label] = counts.get(label, 0) + 1
        return {
            "horizon": float(self.times[-1]),
            "n_paths": self.n_paths,
            "eps_slope": self.eps_slope,
            "L_cap": self.L_cap,
            "classification_counts": counts,
            "L_terminal_mean": float(self.L_terminal.mean()),
            "L_terminal_max": float(self.L_terminal.max()),
            "slope_tail_mean": float(self.slope_tail.mean()),
        }


def _coeffs_at(t: float, a_spec, c_spec, r_spec, d: int):
    """``(a, c, r)`` of specs that do not read the state, at time ``t``."""
    return (
        a_spec.rows(t, None, (d,), "drift rate a"),
        c_spec.rows(t, None, (d, d), "covariance rate c"),
        float(r_spec.rows(t, None, (), "interest rate r")),
    )


def _rate_spec(ps: PathSet, r_spec: ProcessSpec | None) -> ProcessSpec:
    """``r_spec``, else the path set's own rate, else zero."""
    if r_spec is not None:
        return r_spec
    return ps.r_spec if ps.r_spec is not None else ProcessSpec.constant(0.0)


def _loss_rate_grid(
    ps: PathSet,
    a_spec: ProcessSpec | None,
    r_spec: ProcessSpec,
    constraint: ConstraintSet,
    jump_spec: JumpSpec | None,
    lifetimes: LifetimeRecord | None,
) -> np.ndarray:
    """(n_paths, n_stored) array of the rates of :func:`loss_of_balance`
    at the stored states; the left-endpoint rule never reads the last
    time, whose column stays zero.  Coefficients that every row shares
    fill one stored column at a time."""
    if ps.c_spec is None:
        raise ValueError("PathSet does not record its covariance spec")
    c_spec = ps.c_spec
    times = ps.times()[:-1]
    kappa = ps.kappa
    d = ps.d
    gap = np.zeros(kappa.shape[:2])
    if jump_spec is None and a_spec is not None and not any(
            spec.depends_on_state() for spec in (a_spec, c_spec, r_spec)):
        # one solve per stored time, and one in all for constant specs
        constant = all(spec.is_constant() for spec in (a_spec, c_spec, r_spec))
        for k, t in enumerate(times):
            if k == 0 or not constant:
                a, c, r = _coeffs_at(float(t), a_spec, c_spec, r_spec, d)
                _, g_star = growth_optimal_constrained(a, c, r, constraint)
            gap[:, k] = g_star - growth_rate(kappa[:, k], a, c, r)
        return gap
    # One time slab at a time.  On the closed simplex the growth rate is
    # concave, so a row the shared certificate accepts is growth optimal
    # and its rate is zero; only the other rows reach the solver.  Other
    # constraints solve every row.  A path's jump solve starts from its
    # previous optimum.
    certify = constraint.kind is ConstraintKind.CLOSED_SIMPLEX
    cutoff = np.full(ps.n_paths, np.inf)
    if lifetimes is not None and lifetimes.budget_exhausted_time is not None:
        cutoff = np.asarray(lifetimes.budget_exhausted_time, dtype=float)
    warm: dict[int, np.ndarray] = {}
    for k, t in enumerate(times):
        t = float(t)
        rows = kappa[:, k]
        moments = (None if jump_spec is None else
                   JumpMoments.of_rows(jump_spec, t, rows, t < cutoff))
        ok, row = _growth_optimal_rows(rows, t, moments, c_spec, a_spec, r_spec)
        for p in np.flatnonzero(~(ok & certify)):
            a, c, r, nu = row(p)
            kap = rows[p]
            if jump_spec is None:
                _, g_star = growth_optimal_constrained(a, c, r, constraint)
                gap[p, k] = g_star - growth_rate(kap, a, c, r)
                continue
            rho, _ = growth_optimal_jump(
                a, c, r, nu, t, support=kap > DEATH_THRESHOLD,
                warm_start=warm.get(p, kap), kappa_state=kap)
            warm[p] = rho
            rel = rel_rate_of_return(kap, rho, a, c, nu, r, t, kappa_state=kap)
            rate = -rel + 0.5 * float((kap - rho) @ c @ (kap - rho))
            if nu is not None:
                rate += nu.log_ratio_integrand(kap, rho)
            gap[p, k] = rate
    return gap


def loss_of_balance(
    ps: PathSet,
    a_spec: ProcessSpec | None,
    r_spec: ProcessSpec | None = None,
    *,
    jump_spec: JumpSpec | None = None,
    lifetimes: LifetimeRecord | None = None,
    constraint: ConstraintSet | None = None,
    eps_slope: float = DEFAULT_EPS_SLOPE,
    L_cap: float = DEFAULT_L_CAP,
) -> BalanceReport:
    """Accumulate the loss rate of the market portfolio, with or without
    jumps, by a left-endpoint rule on the stored grid.

    Without a jump law the rate is ``g* - g^kappa``, the gap to the best
    portfolio in ``constraint`` (default: the closed simplex).  With
    ``jump_spec`` it is ``-rel(kappa | rho) + 0.5 <kappa-rho, c
    (kappa-rho)> + integral of 1 ∧ log^2((1+<kappa,x>)/(1+<rho,x>)) dnu``
    for the growth-optimal ``rho`` over the living companies of the closed
    simplex; any other constraint raises ``ValueError``, and the run's
    ``lifetimes`` switch the law off per path once its jump budget ran
    out, as in the engine.  Either rate is nonnegative (the market weight
    vector is feasible); one below ``-1e-12`` raises
    :class:`SolverFailure` naming the worst rate over all paths.
    ``a_spec=None`` means the balanced drift, under which every path
    accrues exactly zero; ``r_spec`` defaults to the path set's rate, else
    zero.  The rates become ``L`` in place, a block of paths at a time.
    """
    if constraint is None:
        constraint = ConstraintSet.closed_simplex()
    if jump_spec is not None and constraint.kind is not ConstraintKind.CLOSED_SIMPLEX:
        raise ValueError("the jump loss of balance is over the closed simplex only")
    times = ps.times()
    dts = np.diff(times)
    L = _loss_rate_grid(ps, a_spec, _rate_spec(ps, r_spec), constraint,
                        jump_spec, lifetimes)
    low = np.zeros(len(dts))  # each stored time's lowest rate over all paths
    for p0, p1 in _path_blocks(*L.shape):
        rates = L[p0:p1]
        np.minimum(low, rates[:, :-1].min(axis=0), out=low)
        np.maximum(rates, 0.0, out=rates)
        np.cumsum(rates[:, :-1] * dts, axis=1, out=rates[:, 1:])
        rates[:, 0] = 0.0
    worst = int(np.argmin(low))
    if low[worst] < -_GAP_TOL:
        raise SolverFailure(
            f"growth gap fell to {low[worst]:.3e} at t={times[worst]:.6g}; "
            "the optimizer failed to dominate the market portfolio"
        )
    return BalanceReport.from_loss(times, L, eps_slope, L_cap)


def _tail_start(times: np.ndarray) -> int:
    """Index of the first stored time in the final quarter of the run,
    leaving at least one step after it."""
    start = times[0] + 0.75 * (times[-1] - times[0])
    return min(int(np.searchsorted(times, start)), len(times) - 2)


# ---------------------------------------------------------------------------
# wealth


def _require_full_resolution(ps: PathSet, what: str) -> None:
    if ps.brownian_increments is None:
        raise ValueError(f"{what} needs stored Brownian increments")
    if len(ps.stored_steps) != ps.grid.n_steps + 1:
        raise ValueError(f"{what} needs store_every=1")


def _portfolio_rows(pi_spec, t: float, kappa_batch: np.ndarray, d: int) -> np.ndarray:
    if isinstance(pi_spec, str):
        if pi_spec != "market":
            raise ValueError(f"unknown portfolio shorthand {pi_spec!r}")
        return kappa_batch
    if isinstance(pi_spec, ProcessSpec):
        return pi_spec.rows(t, kappa_batch, (d,), "portfolio")
    rows = np.asarray(pi_spec, dtype=float)
    if rows.shape[-1] != d:
        raise ShapeMismatch(
            f"portfolio has {rows.shape[-1]} coordinates, market has {d}"
        )
    return rows


def wealth_path(
    ps: PathSet,
    pi_spec,
    *,
    a_spec: ProcessSpec | None = None,
    r_spec: ProcessSpec | None = None,
) -> np.ndarray:
    """Wealth of a self-financing portfolio along the stored paths, V_0 = 1.

    ``pi_spec`` gives the fraction of wealth in each company; whatever is
    left over (possibly negative) sits in the bank at the short rate.  The
    string ``"market"`` means hold the running weight vector itself.  The
    log-wealth update uses the path's own Brownian increments, so identities
    like ``V^{e_i} = S_i / S_i(0)`` hold exactly on capitalization paths.
    Drift and rate default to the path set's own; with no drift at all the
    balanced drift ``a = c kappa + r 1`` is used (the natural completion
    for weight-engine paths).

    Returns an (n_paths, n_steps + 1) array.
    """
    _require_full_resolution(ps, "wealth_path")
    if ps.c_spec is None:
        raise ValueError("PathSet does not record its covariance spec")
    a_spec = a_spec if a_spec is not None else ps.a_spec
    r_spec = _rate_spec(ps, r_spec)
    cov = covariance_rows(ps.c_spec, ps.d)
    n, d = ps.n_paths, ps.d
    n_steps = ps.grid.n_steps
    dt = ps.grid.dt
    times = ps.times()
    log_v = np.zeros((n, n_steps + 1))
    for k in range(n_steps):
        t = float(times[k])
        kap = ps.kappa[:, k]
        dw = ps.brownian_increments[:, k]
        c, sigma = cov(t, kap)
        r = r_spec.rows(t, kap, (), "interest rate r")
        if a_spec is None:
            cx = kap @ c if c.ndim == 2 else np.einsum("pij,pj->pi", c, kap)
            a = cx + np.atleast_1d(r)[..., None]
        else:
            a = a_spec.rows(t, kap, (d,), "drift rate a")
        pi_b = np.broadcast_to(
            np.atleast_2d(_portfolio_rows(pi_spec, t, kap, d)), (n, d)
        )
        a_b = np.broadcast_to(np.atleast_2d(a), (n, d))
        r_b = np.broadcast_to(np.atleast_1d(r), (n,))
        if c.ndim == 2:
            cpi = pi_b @ c
            noise = np.einsum("pj,pj->p", pi_b @ sigma, dw)
        else:
            cpi = np.einsum("pij,pj->pi", c, pi_b)
            noise = np.array([p @ s @ w for p, s, w in zip(pi_b, sigma, dw)])
        drift = (
            r_b
            + np.einsum("pi,pi->p", pi_b, a_b) - r_b * pi_b.sum(axis=1)
            - 0.5 * np.einsum("pi,pi->p", pi_b, cpi)
        )
        log_v[:, k + 1] = log_v[:, k] + drift * dt + noise
    return np.exp(log_v)


# ---------------------------------------------------------------------------
# segregation distances


@dataclass
class DistanceMatrix:
    """Pairwise segregation distances accumulated to a horizon."""

    values: np.ndarray
    horizon: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeMismatch(f"distance matrix must be square, got {v.shape}")
        if np.abs(v - v.T).max() > 1e-9 or np.abs(np.diag(v)).max() > 1e-9:
            raise ValueError("distance matrix must be symmetric with zero diagonal")
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def to_json_dict(self) -> dict:
        return {"horizon": self.horizon, "values": self.values.tolist()}


def distance_matrix(
    ps: PathSet,
    a_spec: ProcessSpec | None,
    *,
    r_spec: ProcessSpec | None = None,
    horizon: float | None = None,
    path_index: int = 0,
    jump_spec: JumpSpec | None = None,
    lifetimes: LifetimeRecord | None = None,
) -> DistanceMatrix:
    """All pairwise segregation distances on one path, in one walk of it.

    For companies ``i`` and ``j`` integrates

        |g^{i|j}| + c^{i|j} / 2 + integral of 1 ∧ y^2 dnu,

    ``y = log((1 + x_i)/(1 + x_j))``, with a left-endpoint rule on the
    stored grid up to ``horizon``.  ``g^{i|j}`` is the drift of
    ``log(S_i / S_j)``: ``(a_i - c_ii/2) - (a_j - c_jj/2)`` plus the jump
    law's :meth:`~balmarkets.jump_markets.JumpMoments.log_ratio_drift`,
    which truncates the log-jump ``y`` at ``|y| <= 1``.  ``c^{i|j}`` is the
    variance rate of that log ratio.  ``a_spec=None`` means the balanced
    drift of :func:`~balmarkets.jump_markets.drift_from_balance_jump`,
    ``c kappa + r 1`` less the jump gradient, with ``r`` from ``r_spec``
    (default: the path set's rate, else zero).  ``lifetimes`` holds the
    death times: every company must stay alive on the path up to the
    horizon, and the law is switched off once the path's jump budget ran
    out, as in the engine.
    """
    if ps.c_spec is None:
        raise ValueError("PathSet does not record its covariance spec")
    times = ps.times()
    if horizon is None:
        horizon = float(times[-1])
    c_spec = ps.c_spec
    d = ps.d
    r_spec = _rate_spec(ps, r_spec)
    iu, ju = np.triu_indices(d, 1)
    e_i, e_j = np.eye(d)[iu], np.eye(d)[ju]

    def integrand(a, c, nu):
        g = (a[iu] - 0.5 * c[iu, iu]) - (a[ju] - 0.5 * c[ju, ju])
        c_pair = c[iu, iu] + c[ju, ju] - 2.0 * c[iu, ju]
        if nu is None:
            return np.abs(g) + 0.5 * c_pair
        return (np.abs(g + nu.log_ratio_drift(e_i, e_j)) + 0.5 * c_pair
                + nu.log_ratio_integrand(e_i, e_j))

    idle = jump_spec is None or jump_spec.lam_max == 0.0
    if idle and a_spec is not None and a_spec.is_constant() and c_spec.is_constant():
        # the integrand never changes: integrate it in closed form
        a = a_spec.rows(0.0, None, (d,), "drift rate a")
        c = c_spec.rows(0.0, None, (d, d), "covariance rate c")
        span = max(min(horizon, float(times[-1])) - float(times[0]), 0.0)
        total = integrand(a, c, None) * span
    else:
        cutoff = np.inf
        if lifetimes is not None and lifetimes.budget_exhausted_time is not None:
            cutoff = float(lifetimes.budget_exhausted_time[path_index])
        zeta = np.full(d, np.inf) if lifetimes is None else lifetimes.zeta[path_index]
        total = np.zeros(len(iu))
        for k in range(len(times) - 1):
            t = float(times[k])
            if t >= horizon:
                break
            if t >= zeta.min():
                raise ValueError(
                    f"company {int(np.argmin(zeta))} is dead at t={t:.6g}; "
                    "the distance needs every company alive")
            state = ps.kappa[path_index, k]
            c = c_spec.rows(t, state, (d, d), "covariance rate c")
            nu = _moments(jump_spec, t, state) if t < cutoff else None
            if a_spec is None:
                r = float(r_spec.rows(t, state, (), "interest rate r"))
                a = drift_from_balance_jump(state, c, nu, r, t)
            else:
                a = a_spec.rows(t, state, (d,), "drift rate a")
            step = min(float(times[k + 1]), horizon) - t
            total += integrand(a, c, nu) * step
    vals = np.zeros((d, d))
    vals[iu, ju] = vals[ju, iu] = total
    return DistanceMatrix(values=vals, horizon=horizon)


def equivalence_classes(
    D: DistanceMatrix,
    d_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
):
    """Group companies whose accumulated divergence stays below a cutoff.

    Closeness at finite horizon need not be transitive, so classes are the
    connected components of the closeness graph; the returned flag is True
    when closure glued together a pair whose direct distance exceeds the
    threshold.
    """
    d = D.d
    close = D.values < d_threshold
    labels = np.full(d, -1)
    comp = 0
    for start in range(d):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            u = stack.pop()
            for v in range(d):
                if labels[v] < 0 and close[u, v]:
                    labels[v] = comp
                    stack.append(v)
        comp += 1
    classes = [sorted(np.flatnonzero(labels == k).tolist()) for k in range(comp)]
    intransitive = False
    for members in classes:
        for x in members:
            for y in members:
                if x < y and not close[x, y]:
                    intransitive = True
    return classes, intransitive


# ---------------------------------------------------------------------------
# limiting capital distribution


@dataclass
class LimitingDistribution:
    """Per-path terminal classification of the weight vector."""

    labels: list[str]
    terminal_kappa: np.ndarray
    histogram: dict[str, int] = field(default_factory=dict)
    atom_eps: float = DEFAULT_ATOM_EPS


def limiting_distribution(
    ps: PathSet,
    atom_eps: float = DEFAULT_ATOM_EPS,
    *,
    indeterminate_cap: float = DEFAULT_INDETERMINATE_CAP,
) -> LimitingDistribution:
    """Classify where each path's weight vector is heading.

    A path that has settled (every coordinate moves less than ``atom_eps``
    over the final quarter of the horizon) is an atom at a vertex when its
    top weight exceeds ``1 - atom_eps`` and interior otherwise.  A path
    whose tail still swings some coordinate by more than 0.5 is
    oscillating.  Raises :class:`HorizonTooShort` when more than half the
    paths land in neither bucket.
    """
    tail = ps.kappa[:, _tail_start(ps.times()):, :]
    tail_range = tail.max(axis=1) - tail.min(axis=1)
    worst_range = tail_range.max(axis=1)
    terminal = ps.kappa[:, -1, :]
    labels = []
    for p in range(ps.n_paths):
        if worst_range[p] < atom_eps:
            top = int(np.argmax(terminal[p]))
            if terminal[p, top] > 1.0 - atom_eps:
                labels.append(f"atom_{top + 1}")
            else:
                labels.append("interior")
        elif worst_range[p] > 0.5:
            labels.append("oscillating")
        else:
            labels.append("indeterminate")
    histogram: dict[str, int] = {}
    for label in labels:
        histogram[label] = histogram.get(label, 0) + 1
    frac_ind = histogram.get("indeterminate", 0) / max(ps.n_paths, 1)
    if frac_ind > indeterminate_cap:
        raise HorizonTooShort(
            f"{frac_ind:.0%} of paths have not settled or cycled; "
            "extend the horizon"
        )
    return LimitingDistribution(
        labels=labels,
        terminal_kappa=terminal.copy(),
        histogram=histogram,
        atom_eps=atom_eps,
    )


def limiting_to_csv(
    ld: LimitingDistribution,
    path,
    L_terminal: np.ndarray | None = None,
) -> str:
    """Write ``path,class,terminal_kappa_1..d,L_terminal`` rows; returns
    the file's sha256.  Rows are formatted and written ``_BLOCK_STEPS`` at
    a time."""
    n, d = ld.terminal_kappa.shape
    if L_terminal is None:
        L_terminal = np.full(n, np.nan)
    cols = ",".join(f"terminal_kappa_{i + 1}" for i in range(d))

    def chunks():
        # one expression per block, so that nothing of a block outlives it
        yield f"path,class,{cols},L_terminal\n"
        for lo in range(0, n, _BLOCK_STEPS):
            hi = min(lo + _BLOCK_STEPS, n)
            yield "".join([f"{p},{label},{row}\n" for p, label, row in zip(
                range(lo, hi), ld.labels[lo:hi], _format_g17(np.column_stack(
                    [ld.terminal_kappa[lo:hi], L_terminal[lo:hi]])).split("\n"))])

    return _write_hashed(path, map(str.encode, chunks()))


# ---------------------------------------------------------------------------
# tail diagnostics


def lln_diagnostic(X_path: np.ndarray, B_path: np.ndarray):
    """Terminal ratio of a process to a nondecreasing normalizer.

    Returns ``(X_T / B_T, flag)`` where the flag reports whether the ratio
    has visibly collapsed (|ratio| < 0.05 with the normalizer past 100).
    """
    X = np.asarray(X_path, dtype=float)
    B = np.asarray(B_path, dtype=float)
    if X.shape != B.shape:
        raise ShapeMismatch(f"paths have shapes {X.shape} vs {B.shape}")
    if np.any(np.diff(B) < -1e-12):
        raise ValueError("normalizer path must be nondecreasing")
    ratio = float(X[-1] / B[-1])
    flag = bool(B[-1] > 100.0 and abs(ratio) < 0.05)
    return ratio, flag


def bank_rate_statistic(
    ps: PathSet,
    r_tilde_spec: ProcessSpec,
    r_spec: ProcessSpec,
    *,
    path_index: int = 0,
) -> float:
    """Accumulated ``<1, c^{-1} 1> |r~ - r|^2`` along one path.

    Measures how far an alternative bank rate drifts from the implied one,
    weighted by the market's inverse covariance.  Finite accumulation is
    the balance-preserving regime; reported as a raw number with no
    built-in cutoff.
    """
    if ps.c_spec is None:
        raise ValueError("PathSet does not record its covariance spec")
    times = ps.times()
    d = ps.d
    total = 0.0
    ones = np.ones(d)
    # a constant covariance is checked and inverted once, at the first step
    c_fixed = ps.c_spec.is_constant()
    weight = None
    for k in range(len(times) - 1):
        t = float(times[k])
        state = ps.kappa[path_index, k]
        if weight is None or not c_fixed:
            c = ps.c_spec.rows(t, state, (d, d), "covariance rate c")
            check_invertible(c, f" at t={t:.6g}")
            weight = float(ones @ np.linalg.solve(c, ones))
        rt = float(r_tilde_spec.rows(t, state, (), "alternative rate"))
        rr = float(r_spec.rows(t, state, (), "interest rate r"))
        total += weight * (rt - rr) ** 2 * float(times[k + 1] - times[k])
    return total
