"""Tests for the analysis utilities and the core diversity/correlation modules."""

import math

import pytest

from repro.analysis.regression import RegressionError, fit_linear, fit_log, r_squared
from repro.analysis.stats import (
    mean,
    proportion_confidence_interval,
    sample_standard_deviation,
)
from repro.core.correlation import (
    CorrelationPoint,
    correlate,
    correlation_from_measurements,
)
from repro.core.diversity import (
    characterize_program,
    diversity_from_opcodes,
    unit_diversities,
)
from repro.core.failure_model import (
    DiversityFailureModel,
    combine_unit_probabilities,
    per_unit_models_from_campaigns,
    predicted_failure_probability,
)
from repro.isa.instructions import FunctionalUnit
from repro.leon3.area import CMEM_UNITS, IU_UNITS, area_fraction, unit_area_table
from repro.leon3.units import functional_unit_for_path, unit_paths_for
from repro.workloads import build_program


class TestRegression:
    def test_perfect_linear_fit(self):
        fit = fit_linear([1, 2, 3, 4], [2, 4, 6, 8])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_perfect_log_fit(self):
        xs = [1, 2, 4, 8, 16]
        ys = [0.05 * math.log(x) + 0.1 for x in xs]
        fit = fit_log(xs, ys)
        assert fit.coefficient == pytest.approx(0.05)
        assert fit.intercept == pytest.approx(0.1)
        assert fit.r2 == pytest.approx(1.0)

    def test_log_fit_predict(self):
        fit = fit_log([1, 10, 100], [0.0, 0.1, 0.2])
        assert fit.predict(10) == pytest.approx(0.1, abs=1e-6)

    def test_log_fit_rejects_non_positive_x(self):
        with pytest.raises(RegressionError):
            fit_log([0, 1], [0.1, 0.2])

    def test_fit_requires_two_points(self):
        with pytest.raises(RegressionError):
            fit_linear([1], [1])

    def test_fit_rejects_degenerate_x(self):
        with pytest.raises(RegressionError):
            fit_linear([3, 3, 3], [1, 2, 3])

    def test_r_squared_of_noisy_fit_below_one(self):
        xs = [1, 2, 3, 4, 5]
        ys = [1.0, 2.2, 2.7, 4.3, 4.8]
        fit = fit_linear(xs, ys)
        assert 0.9 < fit.r2 < 1.0

    def test_r_squared_constant_observed(self):
        assert r_squared([2, 2, 2], [2, 2, 2]) == 1.0

    def test_log_fit_describe_mentions_r2(self):
        fit = fit_log([1, 2, 4], [0.1, 0.2, 0.3])
        assert "R^2" in fit.describe()


class TestStats:
    def test_mean_and_empty_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_sample_standard_deviation(self):
        assert sample_standard_deviation([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(
            2.138, abs=1e-3
        )
        assert sample_standard_deviation([5]) == 0.0

    def test_confidence_interval_bounds(self):
        low, high = proportion_confidence_interval(30, 100)
        assert 0.0 <= low < 0.3 < high <= 1.0

    def test_confidence_interval_degenerate(self):
        assert proportion_confidence_interval(0, 0) == (0.0, 0.0)

    def test_confidence_interval_narrows_with_more_trials(self):
        low_small, high_small = proportion_confidence_interval(30, 100)
        low_large, high_large = proportion_confidence_interval(300, 1000)
        assert (high_large - low_large) < (high_small - low_small)

    def test_confidence_interval_bounds_zero_failures_above_zero(self):
        low, high = proportion_confidence_interval(0, 50)
        assert low == 0.0
        assert high > 0.0

    @pytest.mark.parametrize("trials", [10, 50, 200])
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.2, 0.5])
    def test_confidence_interval_exact_coverage(self, trials, p):
        # Exact coverage by binomial enumeration: the probability that the
        # interval computed from a Binomial(trials, p) draw contains p.
        coverage = 0.0
        for k in range(trials + 1):
            low, high = proportion_confidence_interval(k, trials)
            if low <= p <= high:
                coverage += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        assert coverage >= 0.90


class TestDiversityAnalysis:
    def test_characterize_program_matches_trace(self):
        characterization = characterize_program(build_program("intbench"))
        assert characterization.total_instructions > 0
        assert characterization.diversity > 10
        assert characterization.memory_instructions < characterization.total_instructions
        row = characterization.as_row()
        assert set(row) == {"Total", "Integer Unit", "Memory", "Diversity"}

    def test_unit_diversity_is_bounded_by_overall(self):
        characterization = characterize_program(build_program("rspeed"))
        for value in characterization.unit_diversity.values():
            assert value <= characterization.diversity

    def test_fetch_unit_diversity_equals_overall(self):
        characterization = characterize_program(build_program("rspeed"))
        assert characterization.unit_diversity[FunctionalUnit.FETCH] == characterization.diversity

    def test_diversity_from_static_opcodes(self):
        assert diversity_from_opcodes(["add", "add", "sub", "bogus"]) == 2

    def test_unit_diversities_cover_all_units(self):
        characterization = characterize_program(build_program("intbench"))
        assert set(characterization.unit_diversity) == set(FunctionalUnit)

    def test_characterize_failing_program_raises(self):
        from repro.isa.assembler import assemble

        endless = assemble(".text\nloop:\n        ba loop\n        nop\n")
        with pytest.raises(RuntimeError):
            characterize_program(endless, max_instructions=200)


class TestFailureModel:
    def test_combine_uses_area_weights(self):
        probabilities = {
            FunctionalUnit.ALU_ADDER: 1.0,
            FunctionalUnit.SHIFTER: 0.0,
        }
        combined = combine_unit_probabilities(probabilities)
        expected = area_fraction(
            FunctionalUnit.ALU_ADDER,
            scope=(FunctionalUnit.ALU_ADDER, FunctionalUnit.SHIFTER),
        )
        assert combined == pytest.approx(expected)

    def test_combine_empty_is_zero(self):
        assert combine_unit_probabilities({}) == 0.0

    def test_combined_probability_within_bounds(self):
        probabilities = {unit: 0.5 for unit in IU_UNITS}
        assert combine_unit_probabilities(probabilities) == pytest.approx(0.5)

    def test_model_requires_two_points(self):
        model = DiversityFailureModel()
        model.add_observation(10, 0.2)
        assert not model.calibrated
        with pytest.raises(RuntimeError):
            model.predict(20)

    def test_model_predicts_monotonic_increase(self):
        model = DiversityFailureModel()
        model.add_observations([(8, 0.12), (20, 0.2), (47, 0.3)])
        assert model.predict(10) < model.predict(40)
        assert 0.0 <= model.predict(100) <= 1.0

    def test_model_rejects_bad_observations(self):
        model = DiversityFailureModel()
        with pytest.raises(ValueError):
            model.add_observation(0, 0.5)
        with pytest.raises(ValueError):
            model.add_observation(5, 1.5)

    def test_predicted_failure_probability_pipeline(self):
        models = {
            FunctionalUnit.ALU_ADDER: DiversityFailureModel(),
            FunctionalUnit.SHIFTER: DiversityFailureModel(),
        }
        models[FunctionalUnit.ALU_ADDER].add_observations([(5, 0.2), (20, 0.4)])
        models[FunctionalUnit.SHIFTER].add_observations([(2, 0.1), (3, 0.15)])
        prediction = predicted_failure_probability(
            {FunctionalUnit.ALU_ADDER: 10, FunctionalUnit.SHIFTER: 3}, models
        )
        assert 0.0 < prediction < 1.0

    def test_per_unit_models_from_campaigns(self):
        observations = [
            ({FunctionalUnit.ALU_ADDER: 5}, {FunctionalUnit.ALU_ADDER: 0.2}),
            ({FunctionalUnit.ALU_ADDER: 20}, {FunctionalUnit.ALU_ADDER: 0.35}),
        ]
        models = per_unit_models_from_campaigns(observations)
        assert FunctionalUnit.ALU_ADDER in models
        assert models[FunctionalUnit.ALU_ADDER].calibrated


class TestAreaTable:
    def test_fractions_sum_to_one(self):
        total = sum(area_fraction(unit) for unit in unit_area_table())
        assert total == pytest.approx(1.0)

    def test_scoped_fractions_sum_to_one(self):
        assert sum(area_fraction(u, scope=IU_UNITS) for u in IU_UNITS) == pytest.approx(1.0)
        assert sum(area_fraction(u, scope=CMEM_UNITS) for u in CMEM_UNITS) == pytest.approx(1.0)

    def test_unit_outside_scope_has_zero_fraction(self):
        assert area_fraction(FunctionalUnit.ICACHE, scope=IU_UNITS) == 0.0

    def test_unit_path_mapping(self):
        assert functional_unit_for_path("iu.alu.adder") is FunctionalUnit.ALU_ADDER
        assert functional_unit_for_path("cmem.dcache") is FunctionalUnit.DCACHE
        assert functional_unit_for_path("unknown.unit") is None

    def test_unit_paths_reverse_lookup(self):
        assert "iu.alu.shifter" in unit_paths_for(FunctionalUnit.SHIFTER)


class TestCorrelation:
    def _points(self):
        return [
            CorrelationPoint("a", 8, 0.12),
            CorrelationPoint("b", 11, 0.15),
            CorrelationPoint("c", 20, 0.22),
            CorrelationPoint("d", 47, 0.30),
            CorrelationPoint("e", 48, 0.31),
        ]

    def test_correlate_recovers_log_trend(self):
        result = correlate(self._points())
        assert result.coefficient > 0
        assert result.r_squared > 0.9

    def test_prediction_clamped_to_probability_range(self):
        result = correlate(self._points())
        assert 0.0 <= result.predict(1) <= 1.0
        assert 0.0 <= result.predict(1000) <= 1.0

    def test_residuals_length_matches_points(self):
        result = correlate(self._points())
        assert len(result.residuals()) == 5

    def test_correlate_requires_two_points(self):
        with pytest.raises(ValueError):
            correlate([CorrelationPoint("x", 5, 0.1)])

    def test_correlation_from_measurements_validates_lengths(self):
        with pytest.raises(ValueError):
            correlation_from_measurements(["a"], [1, 2], [0.1])

    def test_correlation_from_measurements(self):
        result = correlation_from_measurements(
            ["a", "b", "c"], [8, 20, 47], [0.1, 0.2, 0.3]
        )
        assert result.r_squared > 0.9
        assert result.describe().startswith("y =")
