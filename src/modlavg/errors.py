"""Exception types shared across the package, all under ModlavgError."""


class ModlavgError(Exception):
    """Base of every typed error; each subclass also keeps its builtin base."""


class PoleError(ModlavgError, ValueError):
    """Evaluation requested at a pole of the function."""


class DomainError(ModlavgError, ValueError):
    """Argument outside the supported domain (e.g. on a branch cut)."""


class ConvergenceError(ModlavgError, RuntimeError):
    """A series or transformation failed to converge."""


class AccuracyError(ModlavgError, RuntimeError):
    """A quadrature result did not meet the requested tolerance."""


class WindowError(ModlavgError, ValueError):
    """An enumeration window was too small to contain the support."""


class InvariantViolation(ModlavgError, ValueError):
    """Loaded data failed a structural invariant check."""


class InsufficientCoefficients(ModlavgError, ValueError):
    """Not enough series coefficients for the requested accuracy."""
