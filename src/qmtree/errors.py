"""Exception taxonomy shared by all qmtree modules.

The CLI maps these onto exit codes: ValidationError / AlgebraError -> 2,
PreconditionError / InvariantError / InconsistencyError / RankError -> 3,
ResourceError -> 4.  Descent check failures are reported, not raised.
"""


class QmtreeError(Exception):
    """Base class for all structured qmtree errors."""


class RankError(QmtreeError):
    """A matrix is singular or rank-deficient where full rank is required."""


class AlgebraError(QmtreeError):
    """Operands belong to different quaternion algebras, or bad structure constants."""


class PreconditionError(QmtreeError):
    """An operation precondition is violated (bad level, wrong prime, ...)."""


class InvariantError(QmtreeError):
    """An object fails its structural invariants (non-order, non-square index, ...)."""


class ResourceError(QmtreeError):
    """Refused: the requested enumeration or depth exceeds the guard."""


class ValidationError(QmtreeError):
    """Scenario or serialized input fails schema or semantic validation."""


class InconsistencyError(QmtreeError):
    """Scenario data contradicts itself mid-computation (non-isometric action, ...)."""
