"""Exception hierarchy shared across the package.

Two families matter to callers: configuration/contract problems (bad inputs,
bad shapes, bad files) and numeric failures (Sinkhorn non-convergence, a
training step at least as long as the weights it updates, or an overflow,
invalid or divide fault that numpy raised in training, post-hoc alignment
or a CLI command). The CLI maps the former to exit code 1 and the latter
to exit code 2.
"""


class OtdaError(Exception):
    """Base class for all package errors."""


class ContractViolationError(OtdaError):
    """An argument violates a documented precondition (shape, range, value)."""


class ConfigurationError(OtdaError):
    """An experiment configuration or dataset cannot be used as requested."""


class UnsupportedInstanceError(OtdaError):
    """The instance lies outside the regime an operation supports."""


class ParseError(OtdaError):
    """A data file is malformed; message names the offending line."""


class FeatureUnavailableError(OtdaError):
    """A requested breakdown needs metadata the dataset does not carry."""


class DegenerateProjectionError(OtdaError):
    """Input has no variance to project."""


class UndefinedMetricError(OtdaError):
    """The metric is undefined for the given inputs (e.g. single-class AUC)."""


class NumericError(OtdaError):
    """Base class for numeric failures (CLI exit code 2)."""


class SinkhornConvergenceError(NumericError):
    """Sinkhorn hit its iteration cap before meeting the marginal tolerance.

    A solve that fails in training also names where: the epoch, the step
    within it and the batch shape (source rows, target rows); these stay
    None elsewhere. The diagnostics default to None because unpickling (a
    pool worker sends the error back) calls the class with the message
    alone and then restores every attribute.
    """

    def __init__(self, message: str, iterations_used: int | None = None, row_residual: float | None = None,
                 col_residual: float | None = None):
        super().__init__(message)
        self.iterations_used = iterations_used
        self.row_residual = row_residual
        self.col_residual = col_residual
        self.epoch = None
        self.step = None
        self.batch_shape = None
