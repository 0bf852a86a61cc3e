import math

import numpy as np
import pytest

import elastic_mine as em
from elastic_mine.elasticity import (
    InvestmentPoint,
    audit_quality_monotonicity,
    default_cell_volume,
    log_binomial,
)
from elastic_mine.errors import (
    PlanConfigError, ResolutionConfigError, ResolutionInfeasibleError, UndefinedMetricError,
)

from conftest import NON_INTEGERS, non_integer_rows

# qualities and cumulative investments of the eight-result example series
EXAMPLE_SERIES = [
    InvestmentPoint(quality=q, investment=float(i + 1))
    for i, q in enumerate([0.38, 0.52, 0.64, 0.72, 0.80, 0.88, 0.92, 1.00])
]


class TestLogBinomial:
    def test_matches_exact_binomials(self):
        for n in range(1, 61):
            for m in range(0, n + 1):
                exact = math.log2(math.comb(n, m))
                assert log_binomial(n, m, 2.0) == pytest.approx(exact, abs=1e-9)

    def test_huge_n_does_not_overflow(self):
        value = log_binomial(10**9, 500, 2.0)
        assert math.isfinite(value) and value > 0

    def test_invalid_arguments(self):
        with pytest.raises(UndefinedMetricError):
            log_binomial(3, 5)
        with pytest.raises(UndefinedMetricError):
            log_binomial(3, -1)

    @pytest.mark.parametrize("call", non_integer_rows({
        "n": (lambda v: log_binomial(v, 2),),
        "m": (lambda v: log_binomial(10, v),),
    }))
    def test_n_and_m_must_be_integers(self, call):
        """C(10.5, 2.5) has a log-gamma value, but no count of placements."""
        with pytest.raises(UndefinedMetricError):
            call()

    @pytest.mark.parametrize("base", [1.0, 0.5, math.inf, math.nan])
    def test_base_must_be_finite_and_above_1(self, base):
        with pytest.raises(ResolutionConfigError, match="log base"):
            log_binomial(10, 3, base)


class TestResolution:
    def test_integer_guessing_example(self):
        """Halving 100 equiprobable outcomes gains 0.30 decimal digits."""
        report = em.resolution([50], m=1, prior_points=100, log_base=10.0)
        assert report.prior_entropy == pytest.approx(2.0, abs=1e-9)
        code = report.codes[0]
        assert code.conditional_entropy == pytest.approx(math.log10(50), abs=1e-9)
        assert code.resolution == pytest.approx(math.log10(2), abs=1e-9)
        assert (round(report.prior_entropy, 2), round(code.conditional_entropy, 2),
                round(code.resolution, 2)) == (2.00, 1.70, 0.30)

    def test_fully_determined_code(self):
        report = em.resolution([3], m=3, prior_points=10, log_base=2.0)
        assert report.codes[0].conditional_entropy == 0.0
        assert report.codes[0].resolution == report.prior_entropy

    def test_smaller_count_resolves_more(self):
        report = em.resolution([10, 6], m=2, prior_points=20, log_base=2.0)
        h = [c.conditional_entropy for c in report.codes]
        assert h[0] == pytest.approx(math.log2(45), abs=1e-9)
        assert h[1] == pytest.approx(math.log2(15), abs=1e-9)
        assert report.codes[0].resolution < report.codes[1].resolution

    def test_count_below_m_rejected(self):
        with pytest.raises(ResolutionInfeasibleError):
            em.resolution([1], m=2, prior_points=10)

    @pytest.mark.parametrize("call", non_integer_rows({
        "count": (lambda v: em.resolution([v], m=1, prior_points=100),),
        "prior": (lambda v: em.resolution([50], m=1, prior_points=v),),
    }))
    def test_count_must_be_an_integer(self, call):
        """A count of 50.7 used to be read as 50."""
        with pytest.raises(ResolutionInfeasibleError, match="count"):
            call()

    @pytest.mark.parametrize("m, log_base", [
        (0, 2.0), (1, 1.0), (1, math.nan),
        *(pytest.param(value, 2.0, id=f"m-{name}") for name, value in NON_INTEGERS.items()),
    ])
    def test_bad_setting_is_a_typed_value_error(self, m, log_base):
        with pytest.raises(ResolutionConfigError) as err:
            em.resolution([50], m=m, prior_points=100, log_base=log_base)
        assert isinstance(err.value, ValueError) and isinstance(err.value, em.ElasticMineError)


class TestEntropyAudit:
    def test_built_book_passes(self, fourclass_book):
        report = em.audit_entropy_monotonicity(fourclass_book)
        assert report.monotone
        res = [c.resolution for c in report.codes]
        assert all(a <= b + 1e-12 for a, b in zip(res, res[1:]))

    def test_verdict_invariant_to_cell_volume(self, fourclass_book):
        base = default_cell_volume(fourclass_book)
        for factor in (0.1, 0.5, 2.0):
            report = em.audit_entropy_monotonicity(fourclass_book, cell_volume=base * factor)
            assert report.monotone

    def test_single_code_vacuous_pass(self):
        ds = em.LabeledDataset(np.random.default_rng(0).normal(size=(16, 2)),
                               [1] * 8 + [-1] * 8)
        book = em.build_dual_rtrees(ds, max_entries=4)
        assert book.depths() == (1,)
        with pytest.warns(UserWarning, match="vacuous"):
            report = em.audit_entropy_monotonicity(book)
        assert report.monotone

    @pytest.mark.parametrize("m", [0, *NON_INTEGERS.values()], ids=["0", *NON_INTEGERS])
    def test_m_must_be_an_integer_from_1(self, fourclass_book, m):
        with pytest.raises(ResolutionConfigError, match="m must be"):
            em.audit_entropy_monotonicity(fourclass_book, m=m)

    def test_book_without_codes_is_infeasible(self):
        ds = em.LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
        book = em.build_dual_rtrees(ds, max_entries=4)
        assert book.depths() == ()
        with pytest.raises(ResolutionInfeasibleError, match="no usable codes"):
            em.audit_entropy_monotonicity(book)

    def test_enclosure_violation_detected(self):
        # a book whose depth-2 boxes outgrow their parents: load_codebook
        # rejects it, so it is built from columns
        widths = np.array([4.0, 1.0, 3.0, 4.0, 1.0, 3.0])
        arrays = em.NodeArrays(
            tree=np.array([0, 0, 0, 1, 1, 1]),
            depth=np.array([0, 1, 2, 0, 1, 2]),
            parent=np.array([-1, 0, 1, -1, 3, 4]),
            label=np.array([1, 1, 1, -1, -1, -1]),
            low=np.zeros((6, 2)),
            upp=np.repeat(widths[:, None], 2, axis=1),
            member_ptr=np.arange(0, 13, 2),
            members=np.array([0, 1] * 3 + [2, 3] * 3),
        )
        book = em.CodeBook("rtree-dual", arrays, (0, 3), {}, 0)
        report = em.audit_entropy_monotonicity(book, m=4, cell_volume=0.05)
        assert not report.monotone
        assert report.first_violation() == (1, 2)

    def test_too_coarse_cell_reports_workable_constant(self, fourclass_book):
        with pytest.raises(ResolutionInfeasibleError) as err:
            em.audit_entropy_monotonicity(fourclass_book, cell_volume=1e9)
        assert err.value.min_cell_volume is not None
        report = em.audit_entropy_monotonicity(
            fourclass_book, cell_volume=err.value.min_cell_volume * 0.99
        )
        assert report.monotone


class TestInvestmentElasticity:
    def test_first_pair(self):
        report = em.investment_elasticity(EXAMPLE_SERIES)
        pair = report.pairs[0]
        assert pair.elasticity == pytest.approx(0.368421, abs=5e-4)

    def test_argmax_is_last_pair(self):
        report = em.investment_elasticity(EXAMPLE_SERIES)
        assert report.argmax_pair() == 6  # refining the seventh result pays best

    def test_flat_quality_gives_zero(self):
        series = [InvestmentPoint(0.5, 1.0), InvestmentPoint(0.5, 2.0)]
        assert em.investment_elasticity(series).pairs[0].elasticity == 0.0

    def test_zero_base_is_undefined(self):
        series = [InvestmentPoint(0.0, 1.0), InvestmentPoint(0.5, 2.0)]
        assert em.investment_elasticity(series).pairs[0].elasticity is None
        with pytest.raises(UndefinedMetricError):
            em.investment_elasticity(series).argmax_pair()

    @pytest.mark.parametrize("series", [
        [InvestmentPoint(math.nan, 1.0), InvestmentPoint(0.8, 2.0)],
        [InvestmentPoint(0.7, 1.0), InvestmentPoint(0.8, math.inf)],
    ], ids=["nan-quality", "inf-investment"])
    def test_non_finite_step_is_undefined(self, series):
        report = em.investment_elasticity(series)
        assert report.pairs[0].elasticity is None
        with pytest.raises(UndefinedMetricError):
            report.argmax_pair()

    def test_one_result_has_no_elasticity(self):
        with pytest.raises(UndefinedMetricError) as info:
            em.investment_elasticity(EXAMPLE_SERIES[:1])
        assert isinstance(info.value, ValueError)


class TestResourcePriceElasticity:
    @staticmethod
    def series_at_price(price):
        return [
            InvestmentPoint(p.quality, p.investment * price,
                            resource=p.investment, price=price)
            for p in EXAMPLE_SERIES
        ]

    def test_equivalence_across_prices(self):
        reference = None
        for price in (0.5, 1.0, 2.0):
            series = self.series_at_price(price)
            report = em.resource_and_price_elasticity(series)
            values = [p.elasticity for p in report.pairs]
            assert report == em.investment_elasticity(series)
            if reference is None:
                reference = values
            else:
                for a, b in zip(reference, values):
                    assert a == pytest.approx(b, abs=1e-12)

    def test_price_scales_investment_linearly(self):
        half = self.series_at_price(0.5)
        double = self.series_at_price(2.0)
        for a, b in zip(half, double):
            assert b.investment == pytest.approx(4 * a.investment)

    def test_product_model_verified(self):
        series = [InvestmentPoint(0.5, 9.0, resource=2.0, price=1.0)]
        with pytest.raises(PlanConfigError, match="I = R"):
            em.resource_and_price_elasticity(series)


class TestQualityMonotonicityAudit:
    def test_example_series_passes_with_zero_slack(self):
        verdict = audit_quality_monotonicity(EXAMPLE_SERIES, slack=0.0)
        assert verdict.all_passed
        assert verdict.dips == ()

    def test_dip_within_slack_reported(self):
        series = [InvestmentPoint(0.5, 1.0), InvestmentPoint(0.49, 2.0),
                  InvestmentPoint(0.6, 3.0)]
        verdict = audit_quality_monotonicity(series, slack=0.02)
        assert verdict.quality_monotone
        assert len(verdict.dips) == 1
        assert verdict.dips[0] == (0, pytest.approx(0.01))

    def test_dip_beyond_slack_fails(self):
        series = [InvestmentPoint(0.5, 1.0), InvestmentPoint(0.4, 2.0)]
        verdict = audit_quality_monotonicity(series, slack=0.02)
        assert not verdict.quality_monotone

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1.0])
    def test_slack_must_be_finite_and_not_negative(self, slack):
        """A NaN or infinite slack forgives any dip, and a negative one fails a rising series."""
        with pytest.raises(PlanConfigError, match="slack"):
            audit_quality_monotonicity([InvestmentPoint(0.8, 1.0), InvestmentPoint(0.5, 2.0)], slack)

    def test_negative_quality_fails_meaningful(self):
        series = [InvestmentPoint(-0.1, 1.0), InvestmentPoint(0.2, 2.0)]
        verdict = audit_quality_monotonicity(series)
        assert not verdict.meaningful

    def test_accumulative_costs_checked(self):
        verdict = audit_quality_monotonicity(
            EXAMPLE_SERIES[:4], refine_costs=[10.0, 8.0, 8.0, 3.0]
        )
        assert verdict.accumulative
        verdict = audit_quality_monotonicity(
            EXAMPLE_SERIES[:4], refine_costs=[10.0, 11.0, 8.0, 3.0]
        )
        assert not verdict.accumulative
