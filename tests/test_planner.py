import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.errors import ClockResolutionError, ParseError, PlanConfigError
from elastic_mine.planner import (
    QUERY_ELASTICITY,
    QUERY_MAX_QUALITY,
    QUERY_MIN_INVESTMENT,
    ResultPoint,
    simulate_spot,
)

# Hourly spot prices: cheapest at midnight, peaking at noon.
SPOT_PRICES = (
    0.10, 0.11, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30,
    0.30, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.16, 0.14, 0.12, 0.11, 0.10,
)
FIXED_PRICE = 0.5
SCHEDULE_ROWS = [f"{h},{p}" for h, p in enumerate(SPOT_PRICES)]  # hour h is on line h + 2
BAD_NUMBERS = [0.0, -5.0, float("nan"), float("inf")]

# Quality and cumulative execution hours of a four-result refinement series.
RESULTS = [
    ResultPoint(0.74, 6.0),
    ResultPoint(0.80, 10.6),
    ResultPoint(0.86, 22.24),
    ResultPoint(0.91, 40.0),
]


# Result series no plan can be read from: a quality that is not finite, or hours that are
# not finite and at least 0.
NAN, INF = float("nan"), float("inf")
MALFORMED_SERIES = {
    "nan-quality": [ResultPoint(NAN, 6.0), ResultPoint(0.80, 10.6)],
    "nan-hours": [ResultPoint(0.74, NAN), ResultPoint(0.80, 10.6)],
    "inf-hours": [ResultPoint(0.74, 6.0), ResultPoint(0.80, INF)],
    "negative-hours": [ResultPoint(0.74, -6.0), ResultPoint(0.80, 10.6)],
}

# Every planning entry point, as a function of the result series and the spot schedule.
PLANS = {
    "fixed-max-quality": lambda results, schedule: em.fixed_plan(
        results, FIXED_PRICE, QUERY_MAX_QUALITY, budget=20.0),
    "fixed-min-investment": lambda results, schedule: em.fixed_plan(
        results, FIXED_PRICE, QUERY_MIN_INVESTMENT, required_quality=0.8),
    "fixed-elasticity": lambda results, schedule: em.fixed_plan(
        results, FIXED_PRICE, QUERY_ELASTICITY, elasticity_floor=0.1),
    "spot": lambda results, schedule: em.spot_plan(results, schedule, 48.0, required_quality=0.8),
    "spot-elasticity-bids": lambda results, schedule: em.spot_elasticity_bids(results, schedule, 0.1),
}


@pytest.fixture(scope="module")
def schedule():
    return em.PriceSchedule(FIXED_PRICE, SPOT_PRICES)


class TestResultSeries:
    @pytest.mark.parametrize("series", MALFORMED_SERIES.values(), ids=MALFORMED_SERIES)
    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS)
    def test_malformed_series_gets_no_plan(self, schedule, plan, series):
        with pytest.raises(PlanConfigError, match="finite quality and finite hours >= 0"):
            plan(series, schedule)

    @pytest.mark.parametrize("plan", [PLANS[name] for name in PLANS if name != "spot-elasticity-bids"],
                             ids=[name for name in PLANS if name != "spot-elasticity-bids"])
    def test_zero_hours_and_negative_quality_are_valid(self, schedule, plan):
        """Only the elasticity bids need a positive quality; they check it themselves."""
        answer = plan([ResultPoint(-0.5, 0.0), ResultPoint(0.8, 0.0), ResultPoint(0.9, 2.0)], schedule)
        assert answer.feasible


class TestThroughput:
    def test_calibrate_with_fake_clock(self, fourclass_book, fourclass_split):
        _, test = fourclass_split
        queries = [em.KnnQuery(test.features[i], 5) for i in range(5)]
        ticks = iter([0.0, 2.0])
        profile = em.calibrate(fourclass_book, queries, clock=lambda: next(ticks))
        total = 5 * sum(
            fourclass_book.code_at_depth(d).length for d in fourclass_book.depths()
        )
        assert profile.nodes_per_second == pytest.approx(total / 2.0)

    def test_zero_elapsed_rejected(self, fourclass_book, fourclass_split):
        _, test = fourclass_split
        queries = [em.KnnQuery(test.features[0], 5)]
        with pytest.raises(ClockResolutionError):
            em.calibrate(fourclass_book, queries, clock=lambda: 1.0)

    def test_length_budget(self):
        profile = em.ThroughputProfile(nodes_per_second=2000.0)
        assert em.length_budget(0.01, profile) == 20
        assert em.length_budget(1e-6, profile) == 0

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_rate_and_time_budget_must_be_positive_and_finite(self, value):
        with pytest.raises(PlanConfigError):
            em.ThroughputProfile(nodes_per_second=value)
        with pytest.raises(PlanConfigError):
            em.length_budget(value, em.ThroughputProfile(nodes_per_second=2000.0))


class TestSchedule:
    def test_from_csv_round_trip(self):
        text = "hour,price\n" + "\n".join(f"{h},{p}" for h, p in enumerate(SPOT_PRICES))
        schedule = em.PriceSchedule.from_csv(text, FIXED_PRICE)
        assert schedule.spot_prices == SPOT_PRICES

    def test_missing_hours_rejected(self):
        with pytest.raises(ParseError):
            em.PriceSchedule.from_csv("0,0.1\n1,0.2", FIXED_PRICE)

    @pytest.mark.parametrize("rows, line", [
        (SCHEDULE_ROWS[:3] + ["3,abc"] + SCHEDULE_ROWS[4:], 5),
        (SCHEDULE_ROWS[:3] + ["3,nan"] + SCHEDULE_ROWS[4:], 5),
        (SCHEDULE_ROWS[:3] + ["3,inf"] + SCHEDULE_ROWS[4:], 5),
        (SCHEDULE_ROWS[:3] + ["3,-0.2"] + SCHEDULE_ROWS[4:], 5),
        (SCHEDULE_ROWS + ["3,0.5"], 26),
    ], ids=["price-abc", "price-nan", "price-inf", "price-negative", "hour-repeated"])
    def test_bad_row_rejected_at_its_line(self, rows, line):
        with pytest.raises(ParseError) as info:
            em.PriceSchedule.from_csv("hour,price\n" + "\n".join(rows), FIXED_PRICE)
        assert info.value.line == line

    @pytest.mark.parametrize("price", BAD_NUMBERS)
    def test_prices_must_be_positive_and_finite(self, price):
        with pytest.raises(PlanConfigError):
            em.PriceSchedule(price, SPOT_PRICES)
        with pytest.raises(PlanConfigError):
            em.PriceSchedule(FIXED_PRICE, (price,) + SPOT_PRICES[1:])
        with pytest.raises(PlanConfigError):
            em.fixed_plan(RESULTS, price, QUERY_MIN_INVESTMENT, required_quality=0.8)

    def test_availability_at_16_cents(self, schedule):
        hours, count = em.spot_availability(schedule, 0.16)
        assert count == 10
        assert hours == (0, 1, 2, 3, 4, 19, 20, 21, 22, 23)

    def test_availability_at_12_cents(self, schedule):
        hours, count = em.spot_availability(schedule, 0.12)
        assert count == 6
        assert hours == (0, 1, 2, 21, 22, 23)

    def test_availability_below_minimum(self, schedule):
        assert em.spot_availability(schedule, 0.09)[1] == 0

    def test_availability_monotone_and_full_at_max(self, schedule):
        counts = [em.spot_availability(schedule, b)[1] for b in schedule.levels()]
        assert counts == sorted(counts)
        assert counts[-1] == 24


class TestFixedPlan:
    def test_quality_floor_costs_5_dollars_30(self):
        answer = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_MIN_INVESTMENT,
                               budget=20.0, required_quality=0.8)
        assert answer.feasible
        assert answer.result_index == 1
        assert answer.investment == pytest.approx(5.3)
        assert answer.quality == 0.80

    def test_best_quality_within_budget(self):
        answer = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_MAX_QUALITY, budget=20.0)
        assert answer.result_index == 3
        assert answer.quality == 0.91
        assert answer.investment == pytest.approx(20.0)

    def test_elasticity_floor_stops_after_second_result(self):
        answer = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_ELASTICITY,
                               budget=20.0, elasticity_floor=0.10)
        assert answer.result_index == 1
        assert answer.quality == 0.80

    def test_budget_below_first_result(self):
        answer = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_MAX_QUALITY, budget=1.0)
        assert not answer.feasible
        assert answer.binding == "budget"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("query, setting", [
        (QUERY_MAX_QUALITY, "budget"), (QUERY_MIN_INVESTMENT, "budget"),
        (QUERY_MIN_INVESTMENT, "required_quality"), (QUERY_ELASTICITY, "elasticity_floor"),
    ])
    def test_non_finite_setting_rejected(self, query, setting, value):
        """NaN compares false with everything, so it would answer as if the setting were absent."""
        settings = {"budget": 20.0, "required_quality": 0.8, "elasticity_floor": 0.1, setting: value}
        with pytest.raises(PlanConfigError, match="finite"):
            em.fixed_plan(RESULTS, FIXED_PRICE, query, **settings)

    def test_investment_consistency(self):
        answer = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_MIN_INVESTMENT,
                               required_quality=0.86)
        assert answer.investment == pytest.approx(
            answer.execution_hours * answer.price, abs=1e-12
        )


class TestSpotPlan:
    def test_two_day_deadline_takes_12_cent_bid(self, schedule):
        answer = em.spot_plan(RESULTS, schedule, deadline_hours=48.0,
                              required_quality=0.8, budget=20.0)
        assert answer.feasible
        assert answer.price == pytest.approx(0.12)
        assert answer.execution_hours == pytest.approx(12.0)
        assert answer.investment == pytest.approx(1.44)
        assert answer.hours_per_day == 6
        assert answer.completion_hours == pytest.approx(46.6)

    def test_full_series_needs_26_cent_bid(self, schedule):
        answer = em.spot_plan(RESULTS, schedule, deadline_hours=48.0,
                              required_quality=0.91, budget=20.0)
        assert answer.feasible
        assert answer.price == pytest.approx(0.26)
        assert answer.investment == pytest.approx(10.4)
        assert answer.execution_hours == pytest.approx(40.0)

    def test_tiny_deadline_infeasible(self, schedule):
        answer = em.spot_plan(RESULTS, schedule, deadline_hours=0.1, required_quality=0.8)
        assert not answer.feasible
        assert answer.binding == "deadline"
        assert answer.completion_hours == pytest.approx(10.6)

    @pytest.mark.parametrize("deadline", BAD_NUMBERS)
    def test_deadline_must_be_positive_and_finite(self, schedule, deadline):
        with pytest.raises(PlanConfigError):
            em.spot_plan(RESULTS, schedule, deadline)
        with pytest.raises(PlanConfigError, match="deadline"):  # an infinite one would never end
            simulate_spot(schedule, 0.12, deadline, 10.6)

    @pytest.mark.parametrize("work", [-3.0, float("nan"), float("inf")])
    def test_work_must_be_finite_and_not_negative(self, schedule, work):
        """Negative work used to complete before hour 0, and NaN work never."""
        with pytest.raises(PlanConfigError, match="work hours"):
            simulate_spot(schedule, 0.12, 48.0, work)

    def test_result_needing_no_hours_costs_nothing(self):
        """Zero work completes at hour 0, so the cheapest bid wins even when it grants no hour."""
        schedule = em.PriceSchedule(FIXED_PRICE, (0.30,) + (0.10,) * 23)
        answer = em.spot_plan([ResultPoint(0.9, 0.0)], schedule, 0.5, required_quality=0.8)
        assert answer.feasible
        assert (answer.price, answer.investment, answer.completion_hours) == (0.10, 0.0, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("setting", ["required_quality", "budget"])
    def test_non_finite_setting_rejected(self, schedule, setting, value):
        settings = {"required_quality": 0.8, "budget": 20.0, setting: value}
        with pytest.raises(PlanConfigError, match="finite"):
            em.spot_plan(RESULTS, schedule, 48.0, **settings)

    def test_unreachable_quality(self, schedule):
        answer = em.spot_plan(RESULTS, schedule, deadline_hours=48.0, required_quality=0.99)
        assert not answer.feasible
        assert answer.binding == "quality"

    def test_investment_consistency_and_deadline_respect(self, schedule):
        for quality, deadline in itertools.product((0.74, 0.8, 0.86, 0.91), (24.0, 48.0, 96.0)):
            answer = em.spot_plan(RESULTS, schedule, deadline, required_quality=quality)
            if not answer.feasible:
                continue
            assert answer.investment == pytest.approx(
                answer.execution_hours * answer.price, abs=1e-12
            )
            assert answer.execution_hours + answer.suspended_hours <= deadline + 1e-9
            assert answer.completion_hours <= deadline + 1e-9

    def test_spot_beats_fixed_price_for_same_result(self, schedule):
        spot = em.spot_plan(RESULTS, schedule, deadline_hours=96.0, required_quality=0.8)
        fixed = em.fixed_plan(RESULTS, FIXED_PRICE, QUERY_MIN_INVESTMENT, required_quality=0.8)
        assert spot.price < FIXED_PRICE
        assert spot.work_hours * spot.price < fixed.investment


class TestSpotElasticityBids:
    def test_third_result_bid_derived_from_floor(self, schedule):
        rows = em.spot_elasticity_bids(RESULTS, schedule, elasticity_floor=0.10)
        assert rows[0].bid == pytest.approx(0.30)  # base bid: the peak price level
        assert not rows[1].capped
        assert rows[1].cumulative_investment == pytest.approx(3.18)
        assert rows[2].capped
        assert rows[2].delta_investment == pytest.approx(2.385)
        assert rows[2].bid == pytest.approx(0.20, abs=0.005)
        assert rows[2].hours_per_day == 14

    def test_flat_quality_rejected(self, schedule):
        flat = [ResultPoint(0.8, 5.0), ResultPoint(0.8, 10.0)]
        with pytest.raises(ValueError):
            em.spot_elasticity_bids(flat, schedule, elasticity_floor=0.10)

    def test_simulation_helper(self, schedule):
        window = simulate_spot(schedule, 0.12, 48.0, 10.6)
        assert window.granted_hours == pytest.approx(12.0)
        assert window.completion == pytest.approx(46.6)
        assert window.window_end == pytest.approx(48.0)


@given(prices=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4]), min_size=24, max_size=24),
       bid=st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.4]),
       deadline=st.floats(0.05, 100.0),
       work=st.just(0.0) | st.floats(0.0, 60.0))
@settings(max_examples=300, deadline=None)
def test_simulate_spot_matches_its_definition(prices, bid, deadline, work):
    """Mining runs through every granted hour before the deadline: the hours of
    the day whose price the bid covers, cut at the deadline."""
    window = simulate_spot(em.PriceSchedule(FIXED_PRICE, tuple(prices)), bid, deadline, work)
    granted = [h for h in range(200) if h < deadline and prices[h % 24] <= bid]
    assert window.granted_hours == pytest.approx(sum(min(1.0, deadline - h) for h in granted))
    assert window.window_end == (granted[-1] + min(1.0, deadline - granted[-1]) if granted else 0.0)
    assert (window.completion is None) == (window.granted_hours < work - 1e-12)
    assert work > 0 or window.completion == 0.0  # no work is done at hour 0, granted or not
