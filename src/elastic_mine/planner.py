"""Budget planning under fixed and spot pricing.

Maps time budgets to code-length budgets through a throughput profile, and
answers planning queries over a series of approximate results: cheapest
result meeting a quality floor, best quality within a budget, minimal spot
bid meeting a deadline, and elasticity-constrained refinement bids.

Spot semantics: a bid grants every hour whose posted price it covers
(boundary inclusive). Billing follows day-granularity arithmetic: a
feasible answer pays the bid for every granted hour inside the deadline
window, while the hour-by-hour simulation reports when the mining work
itself completes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .coding import CodeBook
from .errors import ClockResolutionError, ParseError, PlanConfigError
from .knn import KnnQuery, classify

QUERY_MAX_QUALITY = "max-quality-within-budget"
QUERY_MIN_INVESTMENT = "min-investment-for-quality"
QUERY_MIN_BID = "min-bid-for-deadline"
QUERY_ELASTICITY = "elasticity-constrained-quality"


class ResultPoint(NamedTuple):
    """One approximate result: quality and cumulative execution hours."""

    quality: float
    hours: float


def _check_positive(**settings):
    """Reject a given (not None) setting that is not positive and finite."""
    for name, value in settings.items():
        if value is not None and not 0 < value < math.inf:
            raise PlanConfigError(f"{name.replace('_', ' ')} must be positive and finite, got {value}")


def _check_finite(**settings):
    """Reject a given (not None) setting that is NaN or infinite: no comparison can honour it."""
    for name, value in settings.items():
        if value is not None and not math.isfinite(value):
            raise PlanConfigError(f"{name.replace('_', ' ')} must be finite, got {value}")


@dataclass(frozen=True)
class ThroughputProfile:
    nodes_per_second: float

    def __post_init__(self):
        _check_positive(nodes_per_second=self.nodes_per_second)


def calibrate(book: CodeBook, queries: Sequence[KnnQuery], clock=time.perf_counter) -> ThroughputProfile:
    """Measure scanning throughput on a profiling subset of queries.

    Classifies every query at every depth, timing the whole run on the
    given monotone clock, and returns the nodes scanned per second.
    """
    if not queries:
        raise PlanConfigError("need at least one sample query")
    scanned = 0
    start = clock()
    for query in queries:
        for depth in book.depths():
            scanned += classify(book, depth, query).scanned
    elapsed = clock() - start
    if elapsed <= 0.0:
        raise ClockResolutionError("profiling run elapsed no measurable time")
    return ThroughputProfile(nodes_per_second=scanned / elapsed)


def length_budget(time_budget_seconds: float, profile: ThroughputProfile) -> int:
    """Largest code length processable within the time budget."""
    _check_positive(time_budget=time_budget_seconds)
    return int(math.floor(time_budget_seconds * profile.nodes_per_second))


@dataclass(frozen=True)
class PriceSchedule:
    """A fixed hourly price and 24 hourly spot prices."""

    fixed_price: float
    spot_prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.spot_prices) != 24:
            raise PlanConfigError(f"spot schedule needs 24 hourly prices, got {len(self.spot_prices)}")
        _check_positive(fixed_price=self.fixed_price,
                        **{f"spot price of hour {h}": p for h, p in enumerate(self.spot_prices)})

    def levels(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.spot_prices)))

    @classmethod
    def from_csv(cls, text: str, fixed_price: float) -> "PriceSchedule":
        prices: dict[int, float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ParseError(f"expected 'hour,price', got {line!r}", lineno)
            try:
                hour, price = int(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ParseError(f"expected a whole hour and a price, got {line!r}", lineno) from None
            if not 0 < price < math.inf:
                raise ParseError(f"price {parts[1]!r} is not positive and finite", lineno)
            if hour in prices:
                raise ParseError(f"hour {hour} repeated", lineno)
            prices[hour] = price
        if sorted(prices) != list(range(24)):
            raise ParseError(f"schedule must cover hours 0-23, got {sorted(prices)}")
        return cls(fixed_price, tuple(prices[h] for h in range(24)))


def spot_availability(schedule: PriceSchedule, bid: float) -> tuple[tuple[int, ...], int]:
    """Hours of the day the bid covers (price <= bid) and their count: the grant rule."""
    _check_positive(bid=bid)
    hours = tuple(h for h, p in enumerate(schedule.spot_prices) if p <= bid + 1e-12)
    return hours, len(hours)


class SpotWindow(NamedTuple):
    granted_hours: float  # total granted time inside the window
    window_end: float  # end of the last granted hour (0 when none)
    completion: float | None  # when `work` hours of mining finish, None if never


def simulate_spot(schedule: PriceSchedule, bid: float, deadline_hours: float,
                  work_hours: float) -> SpotWindow:
    """Hour-by-hour grant simulation from hour 0 of day 1: mining runs through
    every granted hour before the deadline. Work within 1e-12 of 0 is done at hour 0,
    whatever the bid grants; negative or non-finite work raises :class:`PlanConfigError`."""
    _check_positive(deadline=deadline_hours)
    if not 0 <= work_hours < math.inf:
        raise PlanConfigError(f"work hours must be finite and >= 0, got {work_hours}")
    grants = spot_availability(schedule, bid)[0]
    granted = window_end = 0.0
    completion = 0.0 if work_hours <= 1e-12 else None
    for hour in range(math.ceil(deadline_hours)):
        if hour % 24 in grants:
            duration = min(1.0, deadline_hours - hour)
            if completion is None and granted + duration >= work_hours - 1e-12:
                completion = hour + (work_hours - granted)
            granted += duration
            window_end = hour + duration
    return SpotWindow(granted, window_end, completion)


@dataclass(frozen=True)
class PlanAnswer:
    query: str
    feasible: bool
    result_index: int | None = None  # 0-based into the result series
    quality: float | None = None
    price: float | None = None  # fixed price or winning bid
    investment: float | None = None
    work_hours: float | None = None  # machine time the mining itself needs
    execution_hours: float | None = None  # billed (granted) hours
    suspended_hours: float | None = None
    elapsed_hours: float | None = None
    completion_hours: float | None = None  # simulated finish of the mining work
    hours_per_day: int | None = None
    binding: str | None = None  # name of the constraint that decided the answer


def _series(results: Sequence[ResultPoint]) -> list[ResultPoint]:
    """The results as ``ResultPoint``s, if they form a series a plan can be read from:
    non-empty, every quality finite, and every ``hours`` finite, at least 0 and
    no less than the one before."""
    results = [ResultPoint(*r) for r in results]
    if not results:
        raise PlanConfigError("empty result series")
    for i, r in enumerate(results):
        if not (math.isfinite(r.quality) and 0 <= r.hours < math.inf):
            raise PlanConfigError(f"result {i} {tuple(r)} needs a finite quality and finite hours >= 0")
    if any(b.hours < a.hours for a, b in zip(results, results[1:])):
        raise PlanConfigError("results must be ordered by cumulative execution time")
    return results


def _first_meeting(results: Sequence[ResultPoint], required_quality: float) -> int | None:
    """Index of the first result whose quality meets the floor, or None."""
    return next((i for i, r in enumerate(results) if r.quality >= required_quality - 1e-12), None)


def fixed_plan(
    results: Sequence[ResultPoint],
    fixed_price: float,
    query: str,
    budget: float | None = None,
    required_quality: float | None = None,
    elasticity_floor: float | None = None,
) -> PlanAnswer:
    """Answer a fixed-price query by scanning the cumulative result series."""
    results = _series(results)
    _check_positive(fixed_price=fixed_price, elasticity_floor=elasticity_floor)
    _check_finite(budget=budget, quality=required_quality)
    invest = [r.hours * fixed_price for r in results]

    def affordable(i):
        return budget is None or invest[i] <= budget + 1e-12

    if query == QUERY_MIN_INVESTMENT:
        if required_quality is None:
            raise PlanConfigError("min-investment query needs required_quality")
        index, binding = _first_meeting(results, required_quality), "quality"
        if index is not None and not affordable(index):
            index, binding = None, "budget"
    elif query == QUERY_MAX_QUALITY:
        if budget is None:
            raise PlanConfigError("max-quality query needs a budget")
        index = max((i for i in range(len(results)) if affordable(i)),
                    key=lambda i: (results[i].quality, -i), default=None)
        binding = "budget"
    elif query == QUERY_ELASTICITY:
        if elasticity_floor is None:
            raise PlanConfigError("elasticity-constrained query needs elasticity_floor")
        from .elasticity import _step_elasticity

        index, binding = (0, "elasticity") if affordable(0) else (None, "budget")
        while index is not None and index + 1 < len(results) and affordable(index + 1):
            elasticity = _step_elasticity(results[index].quality, results[index + 1].quality,
                                          invest[index], invest[index + 1] - invest[index])
            if elasticity is None or elasticity < elasticity_floor - 1e-12:
                break
            index += 1
    else:
        raise PlanConfigError(f"unknown fixed-price query {query!r}")
    if index is None:
        return PlanAnswer(query=query, feasible=False, price=fixed_price, binding=binding)
    hours = results[index].hours
    return PlanAnswer(query=query, feasible=True, result_index=index, quality=results[index].quality,
                      price=fixed_price, investment=invest[index], work_hours=hours,
                      execution_hours=hours, suspended_hours=0.0, elapsed_hours=hours, binding=binding)


def spot_plan(
    results: Sequence[ResultPoint],
    schedule: PriceSchedule,
    deadline_hours: float,
    required_quality: float | None = None,
    budget: float | None = None,
) -> PlanAnswer:
    """Minimal bid whose granted hours fit the target result before the deadline.

    The target is the first result meeting ``required_quality`` (the last
    result when no floor is given). Candidate bids are the schedule's
    distinct price levels; billing covers every granted hour inside the
    deadline window. Infeasible deadlines report the best achievable
    completion time at the maximum level.
    """
    results = _series(results)
    _check_positive(deadline=deadline_hours)
    _check_finite(quality=required_quality, budget=budget)
    target = len(results) - 1 if required_quality is None else _first_meeting(results, required_quality)
    if target is None:
        return PlanAnswer(query=QUERY_MIN_BID, feasible=False, binding="quality")
    work = results[target].hours
    fields = dict(query=QUERY_MIN_BID, result_index=target, quality=results[target].quality,
                  work_hours=work)
    for bid in schedule.levels():
        window = simulate_spot(schedule, bid, deadline_hours, work)
        if window.completion is not None:
            investment = window.granted_hours * bid
            if budget is not None and investment > budget + 1e-12:
                return PlanAnswer(feasible=False, price=bid, investment=investment, binding="budget",
                                  **fields)
            return PlanAnswer(
                feasible=True, price=bid, investment=investment,
                execution_hours=window.granted_hours,
                suspended_hours=window.window_end - window.granted_hours,
                elapsed_hours=window.window_end,
                completion_hours=window.completion,
                hours_per_day=spot_availability(schedule, bid)[1],
                binding="deadline", **fields,
            )
    # best case: the maximum bid grants every hour
    return PlanAnswer(feasible=False, completion_hours=work, binding="deadline", **fields)


class ElasticityBid(NamedTuple):
    """Per-result spot bid under an investment-elasticity floor."""

    index: int
    bid: float
    delta_investment: float
    cumulative_investment: float
    hours_per_day: int
    capped: bool  # True when the elasticity floor forced a bid below the base


def spot_elasticity_bids(
    results: Sequence[ResultPoint],
    schedule: PriceSchedule,
    elasticity_floor: float,
) -> tuple[ElasticityBid, ...]:
    """Derive one bid per result so every refinement meets the elasticity floor.

    The first result pays the base bid, the maximum price level. Each
    later result first tries the base bid; when the implied elasticity
    falls below the floor, its investment increment is capped at
    quality-gain / floor of the cumulative investment and the bid becomes
    that increment divided by the result's execution time.
    """
    results = _series(results)
    _check_positive(elasticity_floor=elasticity_floor)
    from .elasticity import _step_elasticity

    base = max(schedule.levels())
    increments = [results[0].hours] + [
        b.hours - a.hours for a, b in zip(results, results[1:])
    ]
    rows = []
    cumulative = increments[0] * base
    rows.append(ElasticityBid(0, base, cumulative, cumulative,
                              spot_availability(schedule, base)[1], False))
    for i in range(1, len(results)):
        q0, q1 = results[i - 1].quality, results[i].quality
        if q0 <= 0:
            raise PlanConfigError(f"result {i - 1} has non-positive quality")
        if q1 <= q0:
            raise PlanConfigError(
                f"result {i} does not improve on result {i - 1}; no bid can meet the floor"
            )
        delta = increments[i] * base
        elasticity = _step_elasticity(q0, q1, cumulative, delta)
        capped = elasticity is not None and elasticity < elasticity_floor - 1e-12
        if capped:
            delta = ((q1 - q0) / q0 / elasticity_floor) * cumulative
        bid = delta / increments[i] if increments[i] > 0 else base
        cumulative += delta
        rows.append(ElasticityBid(i, bid, delta, cumulative,
                                  spot_availability(schedule, bid)[1], capped))
    return tuple(rows)
