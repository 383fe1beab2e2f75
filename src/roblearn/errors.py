"""Exception types shared across the package.

Every error the package raises is a RoblearnError, and its class gives the
CLI's exit code: 2 config (the default), 3 data, 4 infeasible, 5 optimizer.
"""


class RoblearnError(Exception):
    """Base class for all package errors."""
    exit_code = 2


class ConfigError(RoblearnError, ValueError):
    """A configuration value is out of range or inconsistent; also a ValueError,
    so callers that catch ValueError keep working."""


class ZeroWeight(RoblearnError):
    """A weight vector with zero dual norm was used where a direction is needed."""
    exit_code = 5


class ZeroPerceptron(ZeroWeight):
    """An online perceptron ended with all-zero weights, which name no halfspace."""
    exit_code = 3


class InvalidNorm(RoblearnError):
    """Norm parameter outside the supported range (p or q < 1)."""


class EmptyDataset(RoblearnError):
    """An operation that needs at least one sample received none."""
    exit_code = 3


class MissingPerturbations(RoblearnError):
    """A per-example perturbation table has no entry for the requested index."""
    exit_code = 3


class SizeLimit(RoblearnError):
    """Inflating a dataset would exceed the configured size cap."""
    exit_code = 4


class Unsupported(RoblearnError):
    """The perturbation family cannot be used with this operation."""


class UnsupportedGeometry(Unsupported):
    """No separation oracle is available for the requested region."""


class OracleViolation(RoblearnError):
    """A separation oracle returned a hyperplane that fails to cut the query point."""
    exit_code = 5


class EllipsoidDiverged(RoblearnError):
    """A row search over an lp ball that reaches past init_radius from its
    center: the search would hold only the ball's part within init_radius."""
    exit_code = 5


class NotSeparable(RoblearnError):
    """The ellipsoid search exhausted its budget without finding a feasible classifier."""
    exit_code = 4


class TrainingDiverged(RoblearnError):
    """A training loop ended with weights that are not finite."""
    exit_code = 5


class AllZeroWeights(RoblearnError):
    """Weighted ERM needs at least one strictly positive sample weight."""
    exit_code = 3


class WeakLearnerFailed(RoblearnError):
    """The weak learner missed its edge on every retry."""
    exit_code = 5


class RetryLimit(RoblearnError):
    """Sparsification failed to find a zero-loss subcommittee within the retry cap."""
    exit_code = 5


class SourceExhausted(RoblearnError):
    """A finite sample source ended before the requested draws were collected."""
    exit_code = 4


class StreamExhausted(RoblearnError):
    """An online stream ended before the survival run completed."""
    exit_code = 4


class MistakeCapExceeded(RoblearnError):
    """The online learner spent its mistake budget without converging."""
    exit_code = 4


class NoRealizableMember(RoblearnError):
    """No pool member is consistent with both the labeled and the test batches."""
    exit_code = 4


class EmptyPool(RoblearnError):
    """A hypothesis pool must contain at least one member."""


class ParseError(RoblearnError):
    """Malformed text input; carries 1-based row/column context when available."""
    exit_code = 3

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        col_text = "" if col is None else f", col {col}"
        super().__init__(message if row is None else f"{message} (row {row}{col_text})")
        self.row, self.col = row, col


class IoError(RoblearnError):
    """Filesystem failure while reading or writing an artifact."""
    exit_code = 3
