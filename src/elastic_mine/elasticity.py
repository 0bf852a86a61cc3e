"""Resolution of codes and the investment/resource/price elasticity calculus.

Resolution measures a code's information gain about the training set: with
n equiprobable point placements and m actual points, recovering the exact
dataset needs log C(n, m) bits, so a code confining the data to fewer
possible points resolves more. Possible-point counts for R-tree codes
derive from total bounding-box volume through a configurable cell volume;
the monotonicity verdict does not depend on that constant.

Elasticity between consecutive results is the percentage quality gain per
percentage investment increase. Under the product investment model
I = R * P with a state independent of resource and price, the resource and
price elasticities coincide with the investment elasticity; the library
assumes that independence.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coding import CodeBook, total_mbr_volume
from .errors import (
    PlanConfigError, ResolutionConfigError, ResolutionInfeasibleError, UndefinedMetricError, _integer,
)


def log_binomial(n: int, m: int, base: float = 2.0) -> float:
    """log_base of C(n, m), via log-gamma so large n cannot overflow.

    A base that is not a finite number above 1 raises :class:`ResolutionConfigError`,
    and an m and n that are not integers with 0 <= m <= n :class:`UndefinedMetricError`.
    """
    _check_settings(None, base)
    m = _integer(UndefinedMetricError, "m", m, 0)
    n = _integer(UndefinedMetricError, "n", n, m)
    value = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    return value / math.log(base)


@dataclass(frozen=True)
class CodeResolution:
    depth: int
    length: int
    volume: float | None
    possible_points: int
    conditional_entropy: float
    resolution: float


@dataclass(frozen=True)
class ResolutionReport:
    m: int
    log_base: float
    prior_points: int
    prior_entropy: float
    codes: tuple[CodeResolution, ...]
    cell_volume: float | None = None

    @property
    def monotone(self) -> bool:
        """True when resolution never decreases from one code to the next."""
        return self.first_violation() is None

    def first_violation(self) -> tuple[int, int] | None:
        res = [c.resolution for c in self.codes]
        for i in range(len(res) - 1):
            if res[i] > res[i + 1] + 1e-12:
                return self.codes[i].depth, self.codes[i + 1].depth
        return None


def _check_settings(m: int | None, log_base: float, cell_volume: float | None = None) -> int | None:
    """m as an int or None; :class:`ResolutionConfigError` for settings no entropy can be computed with."""
    if m is not None:
        m = _integer(ResolutionConfigError, "m", m, 1)
    if not (math.isfinite(log_base) and log_base > 1.0):
        raise ResolutionConfigError(f"log base must be a finite number above 1, got {log_base}")
    if cell_volume is not None and not (math.isfinite(cell_volume) and cell_volume > 0.0):
        raise ResolutionConfigError(
            f"cell volume must be a finite number above 0, got {cell_volume}"
        )
    return m


def resolution(
    counts: Sequence[int],
    m: int,
    prior_points: int,
    log_base: float = 2.0,
) -> ResolutionReport:
    """Resolution of codes given their possible-point counts.

    ``counts[j]`` is the number of point placements consistent with code j;
    the prior admits ``prior_points`` placements. Entropy is
    log C(count, m); resolution is the prior entropy minus it. Code j is
    labelled depth j + 1, with length 0 and no volume. An m that is not an
    integer from 1 or a log base that is not a finite number above 1 raises
    :class:`ResolutionConfigError`, and a count that is not an integer from
    m :class:`ResolutionInfeasibleError`.
    """
    m = _check_settings(m, log_base)
    counts = [_integer(ResolutionInfeasibleError, "possible-point count", c, m) for c in counts]
    prior_points = _integer(ResolutionInfeasibleError, "prior possible-point count", prior_points, m)
    prior_entropy = log_binomial(prior_points, m, log_base)
    rows = []
    for j, count in enumerate(counts):
        h = log_binomial(count, m, log_base)
        rows.append(CodeResolution(depth=j + 1, length=0, volume=None, possible_points=count,
                                   conditional_entropy=h, resolution=prior_entropy - h))
    return ResolutionReport(m, log_base, prior_points, prior_entropy, tuple(rows))


def default_cell_volume(book: CodeBook) -> float:
    """Half the smallest positive extent in the deepest code, to the power d.

    Chosen so every non-degenerate leaf box holds at least one possible
    point; the audit verdict is invariant to this constant anyway.
    """
    ids = np.flatnonzero(book.arrays.depth == book.depths()[-1])
    extents = book.arrays.upp[ids] - book.arrays.low[ids]
    positive = extents[extents > 0]
    if not len(positive):
        raise ResolutionInfeasibleError(
            "every leaf box is a point; volumes carry no resolution signal"
        )
    return (float(positive.min()) / 2.0) ** extents.shape[1]


def audit_entropy_monotonicity(
    book: CodeBook,
    m: int | None = None,
    cell_volume: float | None = None,
    log_base: float = 2.0,
) -> ResolutionReport:
    """Resolution per code of an R-tree book, with the monotonicity verdict.

    Possible-point counts are total code volume divided by ``cell_volume``
    (floored); the prior count comes from the root boxes. A book with no
    usable code, or any count below m, raises
    :class:`ResolutionInfeasibleError`; for a count below m it reports the
    largest cell volume that would have worked.
    A given m that is not an integer from 1, a cell volume that is not a
    finite number above 0 or a log base that is not a finite number above 1
    raises :class:`ResolutionConfigError` before any arithmetic.
    """
    m = _check_settings(m, log_base, cell_volume)
    depths = list(book.depths())
    if not depths:
        raise ResolutionInfeasibleError("book has no usable codes")
    if len(depths) == 1:
        _warnings.warn("single usable code: the monotonicity verdict is vacuous")
    if m is None:
        m = int(np.diff(book.arrays.member_ptr)[list(book.roots)].sum())
    cell = cell_volume if cell_volume is not None else default_cell_volume(book)
    root_volume = total_mbr_volume(book, 0)
    volumes = [total_mbr_volume(book, d) for d in depths]
    lengths = np.bincount(book.arrays.depth)[depths].tolist()
    counts = [int(v / cell) for v in volumes]
    prior = int(root_volume / cell)
    if any(c < m for c in counts) or prior < m:
        smallest = min(volumes + [root_volume])
        workable = smallest / m if smallest > 0 else None
        raise ResolutionInfeasibleError(
            f"cell volume {cell} too coarse: a code admits fewer than m={m} points",
            min_cell_volume=workable,
        )
    report = resolution(counts, m, prior, log_base)
    codes = tuple(replace(code, depth=d, length=n, volume=v)
                  for code, d, n, v in zip(report.codes, depths, lengths, volumes))
    return replace(report, codes=codes, cell_volume=cell)


# ---------------------------------------------------------------------------
# Elasticity of quality against investment, resource, and price


@dataclass(frozen=True)
class InvestmentPoint:
    """One approximate result: its quality and cumulative investment,
    optionally with the resource amount and unit price that produced it."""

    quality: float
    investment: float
    resource: float | None = None
    price: float | None = None


@dataclass(frozen=True)
class PairElasticity:
    start: int  # index of the base result (0-based)
    quality_gain_pct: float
    investment_gain_pct: float
    elasticity: float | None  # None when the step has no finite elasticity (see _step_elasticity)


@dataclass(frozen=True)
class ElasticityReport:
    pairs: tuple[PairElasticity, ...]

    def argmax_pair(self) -> int:
        """Base index of the pair with the greatest defined elasticity."""
        best = None
        for p in self.pairs:
            if p.elasticity is not None and (best is None or p.elasticity > best.elasticity):
                best = p
        if best is None:
            raise UndefinedMetricError("no pair has a defined elasticity")
        return best.start


def _step_elasticity(q0: float, q1: float, base: float, increase: float) -> float | None:
    """Elasticity of one step from quality ``q0`` to ``q1`` as the investment
    grows from ``base`` by ``increase``: ``((q1 - q0) / q0) / (increase / base)``.

    None unless ``q0`` and ``base`` are positive, ``increase / base`` is
    positive and finite, and the quotient is finite.
    """
    if not (q0 > 0.0 and base > 0.0):
        return None
    rate = increase / base
    if not 0.0 < rate < math.inf:
        return None
    elasticity = ((q1 - q0) / q0) / rate
    return elasticity if math.isfinite(elasticity) else None


def investment_elasticity(series: Sequence[InvestmentPoint]) -> ElasticityReport:
    """Pairwise elasticity over consecutive results of an investment series."""
    if len(series) < 2:
        raise UndefinedMetricError("elasticity needs at least two results")
    pairs = []
    for i in range(len(series) - 1):
        a, b = series[i], series[i + 1]
        if b.investment < a.investment:
            raise PlanConfigError(f"cumulative investment decreases at pair {i}")
        if a.quality <= 0.0 or a.investment <= 0.0:
            pairs.append(PairElasticity(i, math.nan, math.nan, None))
            continue
        increase = b.investment - a.investment
        pairs.append(PairElasticity(i, (b.quality - a.quality) / a.quality, increase / a.investment,
                                    _step_elasticity(a.quality, b.quality, a.investment, increase)))
    return ElasticityReport(tuple(pairs))


def resource_and_price_elasticity(series: Sequence[InvestmentPoint]) -> ElasticityReport:
    """Resource and price elasticity of a series priced as I = R * P.

    Assumes the state is independent of resource and price; then both
    elasticities coincide with the investment elasticity, which is returned.
    Every entry must carry a resource and a price whose product is its
    investment, else :class:`PlanConfigError`.
    """
    for i, p in enumerate(series):
        if p.resource is None or p.price is None:
            raise PlanConfigError(f"series entry {i} lacks resource or price")
        if not math.isclose(p.investment, p.resource * p.price, rel_tol=1e-9, abs_tol=1e-12):
            raise PlanConfigError(
                f"entry {i} violates I = R * P: {p.investment} != {p.resource * p.price}"
            )
    return investment_elasticity(series)


@dataclass(frozen=True)
class MonotonicityVerdict:
    measurable: bool
    meaningful: bool
    quality_monotone: bool
    dips: tuple[tuple[int, float], ...]  # (pair start index, dip size)
    accumulative: bool | None  # None when no per-start-state costs supplied

    @property
    def all_passed(self) -> bool:
        parts = [self.measurable, self.meaningful, self.quality_monotone]
        if self.accumulative is not None:
            parts.append(self.accumulative)
        return all(parts)


def audit_quality_monotonicity(
    series: Sequence[InvestmentPoint],
    slack: float = 0.02,
    refine_costs: Sequence[float] | None = None,
) -> MonotonicityVerdict:
    """Operational check of the four elastic-algorithm properties.

    Quality must be computable (finite) and non-negative; quality may dip
    by at most ``slack`` against any earlier result as investment grows
    (dips within slack are reported, not failed). When ``refine_costs``
    gives the cost of reaching a common target from each result's state,
    those costs must not increase with result quality. A slack that is NaN,
    infinite or negative raises :class:`PlanConfigError`.
    """
    if not 0.0 <= slack < math.inf:
        raise PlanConfigError(f"slack must be finite and at least 0, got {slack}")
    if len(series) < 2:
        raise UndefinedMetricError("the audit needs at least two results")
    measurable = all(math.isfinite(p.quality) and math.isfinite(p.investment) for p in series)
    meaningful = measurable and all(p.quality >= 0.0 for p in series)
    dips = []
    monotone = True
    best = series[0].quality
    for i in range(1, len(series)):
        drop = best - series[i].quality
        if drop > 1e-12:
            dips.append((i - 1, float(drop)))
        if drop > slack:
            monotone = False
        best = max(best, series[i].quality)
    accumulative = None
    if refine_costs is not None:
        if len(refine_costs) != len(series):
            raise PlanConfigError("refine_costs must align with the series")
        accumulative = all(
            refine_costs[i + 1] <= refine_costs[i] + 1e-12 for i in range(len(refine_costs) - 1)
        )
    return MonotonicityVerdict(measurable, meaningful, monotone, tuple(dips), accumulative)
