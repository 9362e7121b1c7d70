"""Growth rates, growth-optimal portfolios, and implied interest rates.

The long-run exponential rate of a portfolio ``pi`` in a market with drift
``a``, covariance rate ``c`` and bank rate ``r`` is

    g(pi) = r + <pi, a - r 1> - 0.5 <pi, c pi>.

Maximizing g over the full-investment hyperplane couples the optimizer and a
scalar multiplier through the linear system ``c rho = a - rate * 1``; that
multiplier is the interest rate the market itself implies.  Maximization over
the closed simplex or a box adds coordinate bounds and is solved exactly by a
primal active-set method whose equality subproblem is the same bordered
system restricted to the free coordinates.  :func:`growth_optimal_constrained`
returns ``(rho, g*)``, the optimizer and its growth rate, as
:func:`~balmarkets.jump_markets.growth_optimal_jump` does.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution
from .market_model import ConstraintKind, ConstraintSet, check_invertible

__all__ = [
    "growth_rate",
    "implied_interest_rate",
    "growth_optimal_hyperplane",
    "growth_optimal_constrained",
    "simplex_gap",
]

_CONSISTENCY_TOL = 1e-9
_BOUND_TOL = 1e-12
# Relative Frank-Wolfe gap, or bound multiplier, at which a portfolio counts
# as growth optimal: for the certificate, the Newton loop and the QP alike.
_GAP_RTOL = 1e-10
# A growth gap ``g* - g^kappa`` below zero by no more than this is rounding;
# the losses clamp it to zero and raise SolverFailure beyond it.
_GAP_TOL = 1e-12
# Relative singular-value cutoff for least-squares face solves; directions
# this flat are treated as exact degeneracies rather than inverted.
_RCOND = 1e-12


def growth_rate(pi, a, c, r) -> np.ndarray | float:
    """Growth rate of portfolio(s) ``pi``; broadcasts over leading axes.

    ``pi`` may be a single weight vector or an array of shape (..., d).
    """
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    excess = pi @ (a - r)
    quad = np.einsum("...i,ij,...j->...", pi, c, pi)
    out = r + excess - 0.5 * quad
    return float(out) if out.ndim == 0 else out


def implied_interest_rate(a, c) -> float:
    """Rate making ``c^{-1}(a - rate*1)`` a full-investment vector.

    Requires an invertible covariance (:func:`check_invertible`).
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    check_invertible(c, "; use growth_optimal_hyperplane, which tolerates singular c")
    ones = np.ones(len(a))
    cinv_ones = np.linalg.solve(c, ones)
    return float((a @ cinv_ones - 1.0) / (ones @ cinv_ones))


def _checked_solve(M, rhs):
    """Direct solve that rejects garbage answers from near-singular systems.

    A backward-stable solve of an ill-conditioned system can return a huge
    vector whose residual is small relative to ``|M| |z|`` but not relative
    to ``rhs``; checking against ``rhs`` scale exposes it.
    """
    try:
        z = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(z)):
        return None
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    if np.linalg.norm(M @ z - rhs) > _CONSISTENCY_TOL * scale:
        return None
    if np.abs(z).max() > 1e12 * scale:
        return None
    return z


def growth_optimal_hyperplane(a, c) -> tuple[np.ndarray, float]:
    """Growth-optimal weights on the full-investment hyperplane.

    Returns ``(rho, implied_rate)`` with ``c @ rho == a - implied_rate * 1``
    and ``sum(rho) == 1``.  Singular ``c`` is fine as long as the optimality
    system stays consistent; an inconsistent system (an unbounded growth
    opportunity) raises :class:`NoSolution`.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = len(a)
    kind, rho, rate = _face_solve(c, a, np.ones(d, dtype=bool), np.zeros(d))
    if kind == "ray":
        raise NoSolution(
            "no finite hyperplane optimizer: c rho = a - rate*1 is inconsistent"
        )
    return rho, rate


def _face_solve(c, q, free, p_fixed):
    """Minimizer or improving ray on the face with non-free coords pinned.

    Solves the bordered system ``[[c_ff, 1], [1^T, 0]] [p_f; mult] =
    [q_f - c_fx p_x; 1 - sum(p_x)]`` on the free coordinates ``f``, falling
    back to a minimum-norm least-squares solution when it is singular.
    Returns ``("point", p, mult)`` when the system has a solution (then
    ``p`` minimizes the face objective because ``c`` is PSD), or
    ``("ray", v, None)`` when it is inconsistent.  The ray is the
    least-squares residual of the bordered system, which for an exactly
    symmetric system has zero curvature and strictly improves the
    objective.  Rounding, or a ``c`` symmetric only to an ulp, can tilt it
    off the budget hyperplane, so it is projected back and scaled to unit
    max-norm: summing to zero, it has an entry of at most -1/(n-1), which a
    lower bound blocks.
    """
    d = len(q)
    p = p_fixed.copy()
    fixed_sum = float(p_fixed[~free].sum())
    cf = c[np.ix_(free, free)]
    rhs_top = q[free] - c[np.ix_(free, ~free)] @ p_fixed[~free]

    n = cf.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = cf
    M[:n, n] = 1.0
    M[n, :n] = 1.0
    rhs = np.append(rhs_top, 1.0 - fixed_sum)
    z = _checked_solve(M, rhs)
    if z is None:
        z, *_ = np.linalg.lstsq(M, rhs, rcond=_RCOND)
        resid = rhs - M @ z
        scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        ray = resid[:n] - resid[:n].mean()
        if np.linalg.norm(resid) > _CONSISTENCY_TOL * scale and ray.any():
            v = np.zeros(d)
            v[free] = ray / np.abs(ray).max()
            return "ray", v, None
    p[free] = z[:n]
    return "point", p, float(z[n])


def growth_optimal_constrained(a, c, r, constraint: ConstraintSet):
    """Exact growth maximizer over the simplex or a box-with-budget set.

    Returns ``(rho, g_star)``.  Primal active-set iteration: solve the
    equality subproblem on the current face, line-search toward it (adding
    the blocking bound on contact), and release the bound with the most
    negative multiplier at a face optimum, until none is below
    ``-_GAP_RTOL (1 + max|c x - q|)``.  Faces with no stationary point
    (possible for singular ``c``) are escaped along the projected gradient.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = len(a)
    if constraint.kind is ConstraintKind.BUDGET_HYPERPLANE:
        rho, _ = growth_optimal_hyperplane(a - r, c)
        # a - r*1 shifts the excess-return vector; g uses the external r.
        return rho, float(growth_rate(rho, a, c, r))

    if constraint.kind is ConstraintKind.CLOSED_SIMPLEX:
        lo = np.zeros(d)
        hi = np.full(d, np.inf)
    else:
        lo, hi = constraint.lo, constraint.hi

    q = a - r  # maximize <p,q> - 0.5 p'cp over the bounded face set
    # every checked box contains the simplex, so the uniform start is feasible
    x = np.full(d, 1.0 / d)
    at_lo = np.abs(x - lo) <= _BOUND_TOL
    at_hi = np.abs(x - hi) <= _BOUND_TOL

    for _ in range(60 * (d + 1)):
        free = ~(at_lo | at_hi)
        if free.any():
            p_fixed = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
            kind, target, _ = _face_solve(c, q, free, p_fixed)
            # Step toward the face optimum, or along a zero-curvature
            # improving ray (singular face) that has no end; either one
            # stops at its blocking bound, which every budget face has.
            step = target if kind == "ray" else target - x
            if np.linalg.norm(step, ord=np.inf) > 1e-13:
                alpha_max, hit, side = _max_feasible_step(x, step, lo, hi)
                if alpha_max < (np.inf if kind == "ray" else 1.0):
                    x = x + alpha_max * step
                    at_lo[hit] = side == "lo"
                    at_hi[hit] = side == "hi"
                    x[hit] = lo[hit] if at_lo[hit] else hi[hit]
                    continue
                x = target

        # Face optimum reached: check bound multipliers.  Stationarity on
        # free coordinates reads (c x - q)_i = lam; bound multipliers are
        # (c x - q)_i - lam at lower bounds and lam - (c x - q)_i at upper.
        grad_dual = c @ x - q
        if free.any():
            lam = float(grad_dual[free].mean())
        else:
            hi_req = float(grad_dual[at_lo].min()) if at_lo.any() else np.inf
            lo_req = float(grad_dual[at_hi].max()) if at_hi.any() else -np.inf
            lam = (
                min(hi_req, max(lo_req, 0.0))
                if lo_req <= hi_req
                else 0.5 * (lo_req + hi_req)
            )
        mu_lo = grad_dual - lam  # >= 0 wanted where at_lo
        mu_hi = lam - grad_dual  # >= 0 wanted where at_hi
        worst_lo = np.where(at_lo, mu_lo, np.inf)
        worst_hi = np.where(at_hi, mu_hi, np.inf)
        k_lo = int(np.argmin(worst_lo))
        k_hi = int(np.argmin(worst_hi))
        tol = -_GAP_RTOL * (1.0 + float(np.abs(grad_dual).max()))
        if worst_lo[k_lo] >= tol and worst_hi[k_hi] >= tol:
            break
        if worst_lo[k_lo] <= worst_hi[k_hi]:
            at_lo[k_lo] = False
        else:
            at_hi[k_hi] = False
    else:
        raise NoSolution("active-set iteration did not converge")

    return x, float(growth_rate(x, a, c, r))


def _max_feasible_step(x, step, lo, hi):
    """Largest alpha keeping x + alpha*step within bounds.

    Returns ``(alpha, k, side)`` where coordinate ``k`` is the blocker and
    ``side`` says which of its bounds it touched.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        to_lo = np.where(step < -1e-15, (lo - x) / step, np.inf)
        to_hi = np.where(step > 1e-15, (hi - x) / step, np.inf)
    bounds = np.minimum(to_lo, to_hi)
    k = int(np.argmin(bounds))
    side = "lo" if to_lo[k] <= to_hi[k] else "hi"
    return float(max(bounds[k], 0.0)), k, side


def simplex_gap(grad, x, support=None) -> np.ndarray:
    """Frank-Wolfe gap ``max_i grad_i - <grad, x>`` of each row.

    ``grad`` is the growth-rate gradient ``q - c x`` at ``x``.  Because the
    growth rate is concave, the gap bounds ``g* - g(x)`` from above, where
    ``g*`` is the maximum over the closed simplex (over its face spanned by
    the ``support`` mask, when given).  Rows run along the last axis.
    """
    grad = np.asarray(grad, dtype=float)
    top = grad if support is None else np.where(support, grad, -np.inf)
    return top.max(axis=-1) - (grad * x).sum(axis=-1)
