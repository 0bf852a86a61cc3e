"""Exception types shared across the package."""


class ElasticMineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ElasticMineError, ValueError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LabelCardinalityError(ParseError):
    """More than two distinct raw labels in a binary classification source."""


class ClassMissingError(ElasticMineError, ValueError):
    """A per-class structure was requested but a class has no points."""


class DepthNotFoundError(ElasticMineError, LookupError):
    """The requested code depth does not exist in the codebook."""


class BudgetTooSmallError(ElasticMineError, ValueError):
    """No code fits within the given length budget."""


class DimensionMismatchError(ElasticMineError, ValueError):
    """A query's length differs from the dimensionality of the boxes it is measured against."""


class ForeignStateError(ElasticMineError, ValueError):
    """A state or result that does not fit the code it is used with: it indexes
    another book, is not above the code's depth, names nodes not at its depth,
    or comes from a route that scans no code (an exact oracle or a baseline)."""


class BookKindError(ElasticMineError, ValueError):
    """A codebook of the wrong kind for the miner: kNN needs a dual (per-class)
    book, CF a book with rating aggregates."""


class UnknownUserError(ElasticMineError, ValueError):
    """A query names a user id outside the users a model was built from."""


class InsufficientCandidatesError(ElasticMineError, ValueError):
    """Fewer candidates than the requested k: after state filtering, or in a training set."""


class InvalidQueryError(ElasticMineError, ValueError):
    """A query that has no answer: k below 1, or a NaN or infinite coordinate."""


class InsufficientBudgetError(ElasticMineError, ValueError):
    """An anytime baseline's budget is below its minimum or leaves fewer than k to vote."""


class BaselineConfigError(ElasticMineError, ValueError):
    """A time-adaptive CF baseline's size is out of range: a user sample or
    cluster count outside 1..users, a hierarchy below one level or one branch,
    or fewer than one k-means iteration."""


class CodebookConfigError(ElasticMineError, ValueError):
    """A codebook builder setting is out of range: a fan-out (max entries or
    branching) below 2, a leaf capacity below 1, or fewer than one k-means iteration."""


class TrainingConfigError(ElasticMineError, ValueError):
    """A training setting is out of range, such as a non-positive learning rate."""


class DivergenceError(ElasticMineError):
    """Gradient-descent training produced a non-finite loss."""

    def __init__(self, message, feature=None, epoch=None):
        self.feature = feature
        self.epoch = epoch
        super().__init__(message)


class UndefinedMetricError(ElasticMineError, ValueError):
    """A quality metric is undefined for the given inputs."""


class PlanConfigError(ElasticMineError, ValueError):
    """A planning or elasticity setting that has no answer: a price, bid, deadline,
    floor or throughput that is not positive and finite, a budget or quality
    that is not finite, a missing query setting, or a result or investment
    series out of order."""


class ResolutionConfigError(ElasticMineError, ValueError):
    """A resolution setting is out of range, such as a log base of 1 or less."""


class ResolutionInfeasibleError(ElasticMineError, ValueError):
    """A derived possible-point count fell below the dataset size.

    ``min_cell_volume`` is the largest cell volume that would have kept
    every count feasible, or None when no constant can work.
    """

    def __init__(self, message, min_cell_volume=None):
        self.min_cell_volume = min_cell_volume
        super().__init__(message)


class AssumptionRequiredError(ElasticMineError, ValueError):
    """An elasticity equivalence was requested without declaring its assumptions."""


class ClockResolutionError(ElasticMineError):
    """A profiling run elapsed zero time on the available clock."""
