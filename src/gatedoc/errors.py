"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError (and its subclass
TrainingError) -> 1, DataError (and its subclasses) -> 2, everything
else -> 3.
"""


class GatedocError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GatedocError):
    """Tensor shapes do not satisfy an operation's contract."""


class UsageError(GatedocError):
    """The caller invoked an API or the CLI incorrectly."""


class DataError(GatedocError):
    """Input data (dataset file, score range, ...) is invalid."""


class CheckpointError(DataError):
    """A checkpoint file is unreadable, truncated, or corrupt."""


class TrainingError(UsageError):
    """Training hit a non-finite loss or gradient.

    The engine is pinned by the float64 oracle and the gradient checks,
    so a divergence comes from the run's settings, most often too large
    a learning_rate, or from its data.
    """


class GradCheckError(GatedocError):
    """The gradient checker encountered a non-finite function value."""
