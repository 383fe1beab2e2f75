"""Exception types shared across the package.

Every error that callers are expected to catch derives from RoblearnError.
That is not yet exhaustive: many range checks still raise ValueError, so the
CLI boundary also catches ValueError and maps it to the config exit code (2).
"""


class RoblearnError(Exception):
    """Base class for all package errors."""


class ConfigError(RoblearnError):
    """A configuration value is out of range or inconsistent."""


class ZeroWeight(RoblearnError):
    """A weight vector with zero dual norm was used where a direction is needed."""


class ZeroPerceptron(ZeroWeight):
    """An online perceptron ended with all-zero weights, which name no halfspace."""


class InvalidNorm(RoblearnError):
    """Norm parameter outside the supported range (p or q < 1)."""


class EmptyDataset(RoblearnError):
    """An operation that needs at least one sample received none."""


class MissingPerturbations(RoblearnError):
    """A per-example perturbation table has no entry for the requested index."""


class SizeLimit(RoblearnError):
    """Inflating a dataset would exceed the configured size cap."""


class Unsupported(RoblearnError):
    """The perturbation family cannot be used with this operation."""


class UnsupportedGeometry(Unsupported):
    """No separation oracle is available for the requested region."""


class OracleViolation(RoblearnError):
    """A separation oracle returned a hyperplane that fails to cut the query point."""


class EllipsoidDiverged(RoblearnError):
    """The ellipsoid search grew without bound instead of closing in on the region."""


class NotSeparable(RoblearnError):
    """The ellipsoid search exhausted its budget without finding a feasible classifier."""


class AllZeroWeights(RoblearnError):
    """Weighted ERM needs at least one strictly positive sample weight."""


class WeakLearnerFailed(RoblearnError):
    """The weak learner missed its edge on every retry."""


class RetryLimit(RoblearnError):
    """Sparsification failed to find a zero-loss subcommittee within the retry cap."""


class SourceExhausted(RoblearnError):
    """A finite sample source ended before the requested draws were collected."""


class StreamExhausted(RoblearnError):
    """An online stream ended before the survival run completed."""


class MistakeCapExceeded(RoblearnError):
    """The online learner spent its mistake budget without converging."""


class NoRealizableMember(RoblearnError):
    """No pool member is consistent with both the labeled and the test batches."""


class EmptyPool(RoblearnError):
    """A hypothesis pool must contain at least one member."""


class ParseError(RoblearnError):
    """Malformed text input; carries 1-based row/column context when available."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.col = col


class IoError(RoblearnError):
    """Filesystem failure while reading or writing an artifact."""
