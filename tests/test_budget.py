import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank.budget import CostConfig, annotation_cost, compute_cost, total_cost

DEFAULTS = CostConfig()
ONE_SELECTION_HOUR = CostConfig(selection_hours_per_iteration=1.0)


class TestAnnotationCost:
    def test_one_full_hour_of_assessments(self):
        # 75 assessments at 75/hour is one hour at 50/hour
        assert annotation_cost(75, DEFAULTS) == pytest.approx(50.0, abs=1e-12)

    def test_large_round_numbers(self):
        # 600,000 assessments -> 8,000 hours -> 400,000
        assert annotation_cost(600_000, DEFAULTS) == pytest.approx(400_000.0, abs=1e-9)

    def test_zero(self):
        assert annotation_cost(0, DEFAULTS) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            annotation_cost(-1, DEFAULTS)

    @given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, a, b):
        total = annotation_cost(a + b, DEFAULTS)
        assert total == pytest.approx(
            annotation_cost(a, DEFAULTS) + annotation_cost(b, DEFAULTS), rel=1e-12, abs=1e-12
        )


class TestComputeCost:
    def test_reference_value(self):
        # 2 GPU hours at 3.060 plus 1 CPU hour at 0.408 over (3 - 1) iterations
        got = compute_cost(2.0, 3, ONE_SELECTION_HOUR)
        assert got == pytest.approx(6.936, abs=1e-12)

    def test_iteration_one_has_no_selection_term(self):
        config = CostConfig(selection_hours_per_iteration=100.0)
        assert compute_cost(5.0, 1, config) == pytest.approx(5.0 * 3.060, abs=1e-12)

    def test_selection_term_scales_with_iteration(self):
        base = compute_cost(0.0, 2, ONE_SELECTION_HOUR)
        assert compute_cost(0.0, 5, ONE_SELECTION_HOUR) == pytest.approx(4 * base, rel=1e-12)

    def test_default_selection_hours_from_config(self):
        config = CostConfig(selection_hours_per_iteration=0.5)
        assert compute_cost(0.0, 3, config) == pytest.approx(0.5 * 0.408 * 2, abs=1e-12)

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            compute_cost(1.0, 0, DEFAULTS)

    @given(g=st.floats(0, 100), i=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_gpu_hours(self, g, i):
        config = CostConfig(selection_hours_per_iteration=0.2)
        zero = compute_cost(0.0, i, config)
        got = compute_cost(g, i, config)
        assert got == pytest.approx(zero + g * 3.060, rel=1e-9, abs=1e-9)


class TestTotalCost:
    @staticmethod
    def _hours(iterations):
        return {i: 0.5 * i for i in iterations}

    def test_rows_decompose_exactly(self):
        totals = {1: 20, 2: 55, 3: 90}
        report = total_cost(totals, self._hours([1, 2, 3]), DEFAULTS)
        assert [r.iteration for r in report.rows] == [1, 2, 3]
        for r in report.rows:
            assert r.total == pytest.approx(
                annotation_cost(r.assessments, DEFAULTS) + r.compute_cost, abs=1e-12
            )
        # cumulative training hours: 0.5, 1.5, 3.0
        assert report.rows[2].compute_cost == pytest.approx(
            3.0 * 3.060 + 0.05 * 0.408 * 2, abs=1e-12
        )

    def test_iteration_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            total_cost({1: 5, 2: 10}, self._hours([1, 2, 3]), DEFAULTS)

    @pytest.mark.parametrize("hours", [-1.0, float("nan"), float("inf")])
    def test_bad_hours_rejected(self, hours):
        with pytest.raises(ValueError, match="hours must be finite and >= 0"):
            total_cost({1: 5, 2: 10}, {1: 0.5, 2: hours}, DEFAULTS)

    def test_cumulative_hours_are_a_left_to_right_sum(self):
        """Cumulative training hours are a plain running total from 0.0, on
        every Python: sum() compensates its additions from 3.12 on, which
        gives 1.0 here instead of 0.9999999999999999."""
        config = CostConfig(gpu_cost_per_hour=1.0, selection_hours_per_iteration=0.0)
        iterations = range(1, 11)
        report = total_cost({i: 0 for i in iterations}, {i: 0.1 for i in iterations}, config)
        total = 0.0
        for i in iterations:
            total += 0.1
            assert report.rows[i - 1].compute_cost == total
        assert report.rows[-1].compute_cost == 0.9999999999999999

    def test_csv_emission(self, tmp_path):
        report = total_cost({1: 20, 2: 55}, self._hours([1, 2]), DEFAULTS)
        path = tmp_path / "cost.csv"
        report.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,assessments,C_A,C_C,C_total"
        assert len(lines) == 3
        report.save_csv(tmp_path / "cost2.csv")
        assert path.read_bytes() == (tmp_path / "cost2.csv").read_bytes()


class TestCostConfig:
    def test_defaults(self):
        assert DEFAULTS.assessments_per_hour == 75.0
        assert DEFAULTS.annotator_cost_per_hour == 50.0
        assert DEFAULTS.gpu_cost_per_hour == 3.060
        assert DEFAULTS.cpu_cost_per_hour == 0.408

    def test_validation(self):
        with pytest.raises(ValueError):
            CostConfig(assessments_per_hour=0)
        with pytest.raises(ValueError):
            CostConfig(selection_hours_per_iteration=-1)
