"""Market model primitives: coefficient specs, parameter containers, validation.

A market with ``d`` companies is described by a drift rate ``a`` (vector), a
covariance rate ``c`` (PSD matrix) and an interest rate ``r`` (scalar), each of
which may be constant, a function of time, or a function of time and the
current relative-capitalization vector.  This module holds those descriptions
plus the one place where they are evaluated: :meth:`ProcessSpec.rows`
evaluates a spec over a batch of path states (one value for all rows unless
the spec reads the state) and checks its shape, and
:func:`covariance_rows` pairs a covariance with its PSD factor.  Every
engine and diagnostic evaluates coefficients through these two.

All containers are frozen dataclasses; evaluation never mutates state, so
instances can be shared freely across worker processes.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AsymmetricCovariance,
    DimensionMismatch,
    GridError,
    IndefiniteMatrix,
    InfeasibleConstraint,
    NegativeEigenvalue,
    NonPositiveInitialCap,
    ShapeMismatch,
    SingularCovariance,
)

__all__ = [
    "SpecKind",
    "ProcessSpec",
    "ConstraintKind",
    "ConstraintSet",
    "MarketParams",
    "PathGrid",
    "validate_params",
    "check_covariance",
    "check_invertible",
    "psd_factor",
    "covariance_rows",
    "PSD_TOL",
]

# Relative tolerance for "is this matrix PSD": eigenvalues down to
# -PSD_TOL * (1 + max|c|) are treated as rounding noise and clipped.
PSD_TOL = 1e-10
# Largest condition number of a covariance that is inverted.
COND_CAP = 1e12


class SpecKind(enum.Enum):
    CONSTANT = "constant"
    TIME_FUNCTION = "time_function"
    STATE_FUNCTION = "state_function"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProcessSpec:
    """A coefficient process: constant, time table, or state function.

    Time tables interpolate piecewise-linearly between knots and extrapolate
    with the boundary value on either side.  State functions receive
    ``(t, kappa)`` and must be pure; they are re-evaluated at every step of a
    simulation and their output shape must never change.
    """

    kind: SpecKind
    value: np.ndarray | float | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    fn: Callable[[float, np.ndarray], np.ndarray | float] | None = None

    @staticmethod
    def constant(value: np.ndarray | float | Sequence[float]) -> "ProcessSpec":
        if np.isscalar(value):
            return ProcessSpec(SpecKind.CONSTANT, value=float(value))
        return ProcessSpec(SpecKind.CONSTANT, value=_freeze(np.asarray(value)))

    @staticmethod
    def time_table(times: Sequence[float], values: Sequence) -> "ProcessSpec":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ShapeMismatch("time table needs a 1-d array of knot times")
        if len(v) != len(t):
            raise ShapeMismatch(
                f"time table has {len(t)} knots but {len(v)} values"
            )
        if np.any(np.diff(t) <= 0.0):
            raise ShapeMismatch("time table knots must be strictly increasing")
        return ProcessSpec(SpecKind.TIME_FUNCTION, times=_freeze(t), values=_freeze(v))

    @staticmethod
    def state_function(
        fn: Callable[[float, np.ndarray], np.ndarray | float],
    ) -> "ProcessSpec":
        return ProcessSpec(SpecKind.STATE_FUNCTION, fn=fn)

    def __call__(self, t: float, kappa: np.ndarray | None = None):
        if self.kind is SpecKind.CONSTANT:
            return self.value
        if self.kind is SpecKind.TIME_FUNCTION:
            times, values = self._knots, self.values
            if t <= times[0]:
                return values[0]
            if t >= times[-1]:
                return values[-1]
            j = bisect_right(times, t)
            w = (t - times[j - 1]) / (times[j] - times[j - 1])
            return (1.0 - w) * values[j - 1] + w * values[j]
        return self.fn(t, kappa)

    @cached_property
    def _knots(self) -> list[float]:  # bisected at a fraction of the array's cost
        return self.times.tolist()

    def rows(self, t: float, kappa_rows, shape: tuple[int, ...] = (),
             name: str = "coefficient") -> np.ndarray:
        """The spec at time ``t`` over a batch of path states, shape-checked.

        Constant and time-table specs give one value for every row, with no
        path axis: an array of shape ``shape``.  A state function gives one
        stacked row per state in the ``(n, d)`` batch ``kappa_rows``, shape
        ``(n,) + shape``, or shape ``shape`` for a single ``(d,)`` state.
        Any other output shape raises :class:`ShapeMismatch`, at whatever
        step it first appears.
        """
        if self.kind is not SpecKind.STATE_FUNCTION:
            return _shaped(self(t), shape, name)
        if np.ndim(kappa_rows) == 1:
            return _shaped(self(t, kappa_rows), shape, name)
        return np.stack([_shaped(self(t, row), shape, name) for row in kappa_rows])

    def is_constant(self) -> bool:
        return self.kind is SpecKind.CONSTANT

    def depends_on_state(self) -> bool:
        return self.kind is SpecKind.STATE_FUNCTION


def _shaped(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        what = "a scalar" if shape == () else f"shape {shape}"
        raise ShapeMismatch(f"{name} must evaluate to {what}, got shape {out.shape}")
    return out


def covariance_rows(c_spec: ProcessSpec, d: int):
    """Per-step evaluator ``(t, kappa_rows) -> (c, sigma)`` of a covariance.

    ``c`` comes from :meth:`ProcessSpec.rows` and ``sigma`` is its
    :func:`psd_factor`, one per row when ``c`` has a path axis.  A constant
    spec is evaluated and factored once, when the evaluator is built.
    """
    if c_spec.is_constant():
        fixed = c_spec.rows(0.0, None, (d, d), "covariance rate c")
        fixed = (fixed, psd_factor(fixed))
        return lambda t, kappa_rows: fixed

    def at(t: float, kappa_rows):
        c = c_spec.rows(t, kappa_rows, (d, d), "covariance rate c")
        if c.ndim == 2:
            return c, psd_factor(c)
        return c, np.stack([psd_factor(row) for row in c])

    return at


class ConstraintKind(enum.Enum):
    CLOSED_SIMPLEX = "closed_simplex"
    BUDGET_HYPERPLANE = "budget_hyperplane"
    BOX_HYPERPLANE = "box_hyperplane"


@dataclass(frozen=True)
class ConstraintSet:
    """Admissible portfolio set; always contains the closed simplex.

    The box variant intersects coordinate bounds with the full-investment
    hyperplane.  Bounds must be finite and satisfy ``lo <= 0`` and
    ``hi >= 1`` per coordinate so that buy-and-hold positions in single
    companies stay admissible; a box built any other way raises.
    """

    kind: ConstraintKind
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is not ConstraintKind.BOX_HYPERPLANE:
            return
        lo = _freeze(np.atleast_1d(self.lo))
        hi = _freeze(np.atleast_1d(self.hi))
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must have matching shapes")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise InfeasibleConstraint("box bounds must be finite")
        if np.any(lo > 0.0) or np.any(hi < 1.0):
            raise InfeasibleConstraint(
                "box must contain the closed simplex (lo <= 0 and hi >= 1)"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def closed_simplex() -> "ConstraintSet":
        return ConstraintSet(ConstraintKind.CLOSED_SIMPLEX)

    @staticmethod
    def budget_hyperplane() -> "ConstraintSet":
        return ConstraintSet(ConstraintKind.BUDGET_HYPERPLANE)

    @staticmethod
    def box_hyperplane(lo, hi) -> "ConstraintSet":
        return ConstraintSet(ConstraintKind.BOX_HYPERPLANE, lo=lo, hi=hi)


@dataclass(frozen=True)
class MarketParams:
    """Full parameterization of a d-company market."""

    d: int
    a_spec: ProcessSpec
    c_spec: ProcessSpec
    r_spec: ProcessSpec
    s0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s0", _freeze(np.atleast_1d(self.s0)))

    @staticmethod
    def from_constants(a, c, r, s0) -> "MarketParams":
        a = np.atleast_1d(np.asarray(a, dtype=float))
        return MarketParams(
            d=len(a),
            a_spec=ProcessSpec.constant(a),
            c_spec=ProcessSpec.constant(np.asarray(c, dtype=float)),
            r_spec=ProcessSpec.constant(float(r)),
            s0=np.atleast_1d(np.asarray(s0, dtype=float)),
        )


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid ``t_k = t0 + k*dt`` for ``k = 0..n_steps``."""

    dt: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise GridError(f"dt must be positive and finite, got {self.dt}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise GridError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def validate_params(params: MarketParams) -> MarketParams:
    """Check a parameter set and return it unchanged if acceptable.

    The coefficient specs are probed at ``t = 0`` with the uniform weight
    vector; every later evaluation goes through :meth:`ProcessSpec.rows`,
    which re-checks the shape at each step.  Raises the most specific error
    available.
    """
    d = params.d
    if d < 1:
        raise DimensionMismatch(f"need at least one company, got d={d}")
    if params.s0.shape != (d,):
        raise DimensionMismatch(
            f"s0 has shape {params.s0.shape}, expected ({d},)"
        )
    if not np.all(np.isfinite(params.s0)) or np.any(params.s0 <= 0.0):
        raise NonPositiveInitialCap(f"initial capitalizations must be > 0, got {params.s0}")

    kappa0 = np.full(d, 1.0 / d)
    params.a_spec.rows(0.0, kappa0, (d,), "drift rate a")
    params.r_spec.rows(0.0, kappa0, (), "interest rate r")
    check_covariance(params.c_spec.rows(0.0, kappa0, (d, d), "covariance rate c"))
    return params


def check_covariance(c: np.ndarray) -> None:
    """Raise unless the square matrix ``c`` is symmetric PSD up to ``PSD_TOL``.

    Asymmetry raises :class:`AsymmetricCovariance`; an eigenvalue below
    ``-PSD_TOL * (1 + max|c|)`` raises :class:`NegativeEigenvalue`.
    """
    scale = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
    if not np.allclose(c, c.T, atol=PSD_TOL * scale, rtol=0.0):
        raise AsymmetricCovariance("covariance rate matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (c + c.T))
    if eigs.min() < -PSD_TOL * scale:
        raise NegativeEigenvalue(
            f"covariance has eigenvalue {eigs.min():.3e} below -{PSD_TOL * scale:.3e}"
        )


def check_invertible(c: np.ndarray, context: str = "") -> None:
    """Raise :class:`SingularCovariance` unless ``c``'s condition number is
    at most ``COND_CAP``; ``context`` ends the message."""
    if np.linalg.cond(c) > COND_CAP:
        raise SingularCovariance(f"covariance is numerically singular (condition"
                                 f" number above {COND_CAP:g}){context}")


def psd_factor(c: np.ndarray) -> np.ndarray:
    """Factor a PSD matrix as ``sigma @ sigma.T == c`` up to rounding.

    Positive-definite input takes the plain Cholesky fast path and the result
    is lower-triangular.  Rank-deficient input falls back to a pivoted
    Cholesky in outer-product form, as LAPACK ``dpstf2``: each step pivots on
    the first largest remaining diagonal entry, and the factor stops at rank
    ``k`` once that entry is at most ``d * 2**-53 * max(diag c)``.  The
    result is the row-permuted triangle, and its columns ``k..d-1`` are
    exactly zero, so exact zeros in ``c`` are not smeared by a diagonal
    shift.  Input indefinite beyond ``PSD_TOL`` relative tolerance raises
    :class:`IndefiniteMatrix`.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {c.shape}")
    scale = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
    if not np.allclose(c, c.T, atol=PSD_TOL * scale, rtol=0.0):
        raise AsymmetricCovariance("matrix to factor is not symmetric")

    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        pass

    a = 0.5 * (c + c.T)
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() < -PSD_TOL * scale:
        raise IndefiniteMatrix(
            f"eigenvalue {eigs.min():.3e} below -{PSD_TOL * scale:.3e}"
        )
    d = len(a)
    piv = np.arange(d)
    stop = d * 2.0**-53 * np.diagonal(a).max()
    for j in range(d):
        p = j + int(np.argmax(np.diagonal(a)[j:]))
        if not a[p, p] > stop:
            a[:, j:] = 0.0
            break
        a[[j, p]] = a[[p, j]]
        a[:, [j, p]] = a[:, [p, j]]
        piv[[j, p]] = piv[[p, j]]
        a[j, j] = ajj = np.sqrt(a[j, j])
        a[j + 1:, j] *= 1.0 / ajj
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j + 1:, j])
    sigma = np.empty_like(a)
    sigma[piv] = np.tril(a)
    return sigma
