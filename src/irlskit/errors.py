"""Exception types shared across the toolkit."""


class IrlsKitError(Exception):
    """Base class for toolkit-specific failures.

    ``code`` is a short machine-readable name; the CLI prints it on stderr
    before exiting with status 1.
    """

    code = "IrlsKitError"


class RankDeficientError(IrlsKitError):
    """Matrix does not have full row rank at the working tolerance."""

    code = "RankDeficient"


class IllConditionedError(IrlsKitError):
    """Inner m-by-m system too ill-conditioned to solve reliably.

    Signals the caller to stop iterating: the smoothing parameter has
    effectively reached the floating-point floor.
    """

    code = "IllConditioned"


class BudgetExceededError(IrlsKitError):
    """Support enumeration would exceed the configured budget."""

    code = "BudgetExceeded"


class DimensionTooLargeError(IrlsKitError):
    """Exact enumeration is only available for small null spaces."""

    code = "DimensionTooLarge"


class MissingReferenceError(IrlsKitError):
    """Rate diagnostics need a run with a reference vector attached."""

    code = "MissingReference"


class SchemaMismatchError(IrlsKitError):
    """A CSV file does not match the declared column schema."""

    code = "SchemaMismatch"


class InfeasibleError(IrlsKitError):
    """Right-hand side outside the range of the matrix."""

    code = "Infeasible"
