"""Exception types shared across the package, and the rule every integer setting obeys."""

import operator


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


class InvalidDatasetError(ElasticMineError, ValueError):
    """A data set with no usable meaning. A labeled point set that is not a
    non-empty (n, d) array, has labels that disagree with it in count or
    are not +1 or -1, or has a NaN or infinite feature; a rating matrix
    without users, items or ratings, or with a rating outside its ids or
    its scale or not finite; user features that are not a finite (m, d)
    array with one row per user."""


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
    """A query that has no answer: a k that is not an integer (a bool included)
    or is below 1, a NaN or infinite coordinate, or a NaN or infinite mean or
    rating of a CF query."""


class InsufficientBudgetError(ElasticMineError, ValueError):
    """An anytime baseline's budget is below its minimum or leaves fewer than k to vote."""


class BaselineConfigError(ElasticMineError, ValueError):
    """A baseline setting is out of range: a CF baseline's user sample or
    cluster count outside 1..users, a hierarchy below one level or one branch,
    fewer than one k-means iteration, or a negative sampling seed; a descent
    strategy of the R-tree kNN baseline other than bfs, dfs and ofs; or a
    ranking baseline order whose scanned prefix is not k or more distinct point indices."""


class CodebookConfigError(ElasticMineError, ValueError):
    """A codebook builder setting is out of range: a fan-out (max entries or
    branching) below 2, or a leaf capacity, k-means iterations or depth limit below 1."""


class SplitConfigError(ElasticMineError, ValueError):
    """A split setting that leaves no train or no test elements: no test
    count, a test count outside 1..n-1, or a test count where a split holds
    out a fraction per user; or a negative seed."""


class TrainingConfigError(ElasticMineError, ValueError):
    """A training setting is out of range, such as a non-positive learning rate or a negative seed."""


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
    that is not finite, spot work that is negative or not finite, a missing
    query setting, or a result or investment series out of order."""


class ResolutionConfigError(ElasticMineError, ValueError):
    """A resolution setting is out of range, such as a log base of 1 or less."""


class ResolutionInfeasibleError(ElasticMineError, ValueError):
    """A possible-point count, derived or given, fell below the dataset size.

    ``min_cell_volume`` is the largest cell volume that would have kept
    every count feasible, or None when no constant can work.
    """

    def __init__(self, message, min_cell_volume=None):
        self.min_cell_volume = min_cell_volume
        super().__init__(message)


class ClockResolutionError(ElasticMineError):
    """A profiling run elapsed zero time on the available clock."""


def _integer(error, name, value, low=None, high=None) -> int:
    """``value`` as an ``int`` when it is a Python or numpy integer from ``low``
    to ``high`` (a bound of None is open). Anything else, a float of integral
    value or a bool included, raises ``error`` with a message naming the setting."""
    try:
        if isinstance(value, bool):  # numpy's bool has no __index__
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if (low is not None and number < low) or (high is not None and number > high):
        bounds = f">= {low}" if high is None else f"<= {high}" if low is None else f"in {low}..{high}"
        raise error(f"{name} must be {bounds}, got {number}")
    return number
