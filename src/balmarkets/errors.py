"""Exception types raised across the toolkit.

Every error derives from :class:`BalmarketsError` so callers can catch the
whole family with one clause.  The subclasses are deliberately fine-grained:
validation code raises the most specific type it can, and tests assert on
exact classes.
"""


class BalmarketsError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# parameter and spec validation


class DimensionMismatch(BalmarketsError):
    """A vector or matrix does not have the declared number of companies."""


class ShapeMismatch(BalmarketsError):
    """A coefficient spec produced a value of the wrong shape."""


class GridError(BalmarketsError, ValueError):
    """A time grid's step or step count is not positive, finite and whole."""


class NonPositiveInitialCap(BalmarketsError):
    """Initial capitalizations must be strictly positive."""


class AsymmetricCovariance(BalmarketsError):
    """Covariance rate matrix is not symmetric."""


class NegativeEigenvalue(BalmarketsError):
    """Covariance rate matrix has an eigenvalue below tolerance."""


class IndefiniteMatrix(BalmarketsError):
    """Matrix handed to the PSD factorizer is indefinite beyond tolerance."""


# ---------------------------------------------------------------------------
# simulation


class NumericalOverflow(BalmarketsError):
    """A log-capitalization left the representable range."""


class InconsistentInitialState(BalmarketsError):
    """Initial capital vector disagrees with the initial weight vector."""


# ---------------------------------------------------------------------------
# optimization


class SingularCovariance(BalmarketsError):
    """Covariance matrix is too ill-conditioned to invert reliably."""


class NoSolution(BalmarketsError):
    """The optimality system is inconsistent (no finite optimizer)."""


class InfeasibleConstraint(BalmarketsError):
    """Constraint set is empty or malformed."""


class SolverFailure(BalmarketsError):
    """An optimizer returned a portfolio that the market portfolio beats."""


# ---------------------------------------------------------------------------
# jumps


class JumpDomainError(BalmarketsError, ValueError):
    """A portfolio with jump activity has ``1 + <p, x> <= 0`` for some atom;
    an atom of -1 in every coordinate does so for every portfolio."""


class JumpLawError(BalmarketsError, ValueError):
    """A jump law's sizes, probabilities, bound or intensity are out of range."""


# ---------------------------------------------------------------------------
# diagnostics


class HorizonTooShort(BalmarketsError):
    """Too many paths are unclassifiable at this horizon."""


# ---------------------------------------------------------------------------
# scenario runner


class ConfigParseError(BalmarketsError):
    """Scenario configuration file is malformed."""


class VersionMismatch(BalmarketsError):
    """Recorded engine version differs from the running one."""
