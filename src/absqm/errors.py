"""Exception types shared across the package."""


class AbsqmError(Exception):
    """Base class for all package errors."""


class GridMismatchError(AbsqmError):
    """A field was passed together with a grid it does not live on."""


class ContractViolationError(AbsqmError):
    """An input violates a documented precondition (e.g. unnormalized state)."""


class DegenerateInputError(AbsqmError):
    """Input is degenerate (e.g. identically zero wave function)."""


class ChartDomainError(AbsqmError):
    """Chart coordinate requested for an orthogonal pair of states."""


class DomainError(AbsqmError):
    """Argument outside the mathematical domain of a function."""


class RangeError(AbsqmError):
    """Argument outside the supported parameter range of an implementation."""


class StabilityError(AbsqmError):
    """Requested time step violates the stability bound of a scheme."""


class BranchNotFoundError(AbsqmError):
    """Eigenvalue search found no root in the scanned bracket."""


class UnwrapError(AbsqmError):
    """Phase unwrapping failed (too many low-density points)."""


class ConvergenceError(AbsqmError):
    """An iteration did not reach its tolerance or produced non-finite values."""
