"""Error types shared across the package.

Every failure mode carries enough context to identify the offending round,
so long streaming runs fail with a usable diagnostic instead of a bare
numpy exception.
"""


class OagdError(Exception):
    """Base class for all package errors."""


class RoundError(OagdError):
    """A failure that can name the 1-based round it happened in: the
    message reads "round N: ..." when round_index is given."""

    def __init__(self, message, round_index=None):
        if round_index is not None:
            message = f"round {round_index}: {message}"
        super().__init__(message)
        self.round_index = round_index


class FactorizationFailure(RoundError):
    """The inner Hessian was not numerically positive definite.

    Signals a violated strong-convexity assumption (or a mis-specified
    problem). Carries the round index when raised inside a run.
    """


class NonFiniteIterate(RoundError):
    """An iterate became NaN/Inf, usually a diverging step size."""


class StreamExhausted(OagdError):
    """A run asked for more rounds than the stream can provide."""

    def __init__(self, round_index, available=None):
        msg = f"stream exhausted at round {round_index}"
        if available is not None:
            msg += f" (only {available} rounds available)"
        super().__init__(msg)
        self.round_index = round_index
        self.available = available


class OracleUnavailable(OagdError):
    """Neither closed forms nor a numerical oracle are configured."""


class OracleDiverged(RoundError):
    """A comparator oracle stopped short of tolerance: it hit its iteration
    cap, its step collapsed, or the inner Hessian was not positive definite.
    Carries the last residual, and the round index when raised for one
    round of a measurement pass."""

    def __init__(self, message, residual=None, round_index=None):
        super().__init__(message, round_index)
        self.residual = residual


class NonConvexFlag(Warning):
    """The composed objective is not certified convex: the returned
    comparator is a local stationary point, marked as such."""


class DimensionMismatch(OagdError):
    """Incompatible vector/matrix dimensions between problem pieces."""


class ParseError(OagdError):
    """A config or CSV cell could not be parsed; names row/column."""

    def __init__(self, message, row=None, column=None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyDataset(OagdError):
    """A dataset file contained no data rows."""


class ConfigError(OagdError):
    """An experiment config failed validation."""
