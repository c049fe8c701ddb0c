import numpy as np
import pytest

from alrank.annotation import (
    AnnotationRecord,
    AssessmentLedger,
    Exhausted,
    annotate_pair,
    annotate_query,
    first_relevant,
    sample_negative,
)
from alrank.datamodel import Qrels, RankedList


def ranked(*doc_ids: str) -> RankedList:
    return RankedList("q1", [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)])


QRELS = Qrels({("q1", "r1"): 1, ("q1", "r2"): 2, ("q1", "z"): 0})


class TestFirstRelevant:
    def test_rank_one(self):
        assert first_relevant(ranked("r1", "n1"), QRELS, 10) == (1, "r1")

    def test_rank_counts_irrelevant_above(self):
        assert first_relevant(ranked("n1", "n2", "r2"), QRELS, 10) == (3, "r2")

    def test_zero_grade_not_relevant(self):
        assert first_relevant(ranked("z", "r1"), QRELS, 10) == (2, "r1")

    def test_exhausted_by_depth(self):
        out = first_relevant(ranked("n1", "n2", "r1"), QRELS, 2)
        assert out == Exhausted(examined=2)

    def test_exhausted_short_list(self):
        out = first_relevant(ranked("n1", "n2"), QRELS, 100)
        assert out == Exhausted(examined=2)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            first_relevant(ranked("n1"), QRELS, 0)


class TestSampleNegative:
    def test_excludes_relevant_and_given(self):
        pool = ranked("r1", "r2", "n1", "n2")
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = sample_negative("q1", pool, QRELS, rng, exclude={"n2"})
            assert out == "n1"

    def test_no_eligible_raises(self):
        pool = ranked("r1", "r2")
        with pytest.raises(ValueError, match="no eligible negative"):
            sample_negative("q1", pool, QRELS, np.random.default_rng(0), exclude=set())

    def test_uniformity_chi_square(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        pool = ranked("n1", "n2", "n3", "n4")
        rng = np.random.default_rng(123)
        counts = {d: 0 for d in pool.doc_ids()}
        trials = 8000
        for _ in range(trials):
            counts[sample_negative("q1", pool, QRELS, rng, exclude=set())] += 1
        _, p = scipy_stats.chisquare(list(counts.values()))
        assert p > 0.01


class TestAnnotateQuery:
    def test_assessments_equal_rank(self):
        rng = np.random.default_rng(0)
        triplet, cost = annotate_query(
            "q1", ranked("n1", "n2", "r1", "n3"), ranked("n1", "n2", "n3"), QRELS, rng
        )
        assert cost == 3
        assert triplet.query_id == "q1" and triplet.positive_id == "r1"
        assert triplet.negative_id in {"n1", "n2", "n3"}

    def test_exhausted_costs_examined_depth(self):
        rng = np.random.default_rng(0)
        triplet, cost = annotate_query(
            "q1", ranked("n1", "n2", "n3"), ranked("n1"), QRELS, rng, depth=2
        )
        assert triplet is None and cost == 2

    def test_negative_never_relevant_or_positive(self):
        rng = np.random.default_rng(7)
        pool = ranked("r1", "r2", "n1", "n2", "n3")
        for _ in range(100):
            triplet, _ = annotate_query("q1", ranked("r1", "n1"), pool, QRELS, rng)
            assert triplet.negative_id in {"n1", "n2", "n3"}
            assert triplet.negative_id != triplet.positive_id

    def test_deterministic_under_seed(self):
        pool = ranked("n1", "n2", "n3", "n4")
        a = annotate_query("q1", ranked("r1"), pool, QRELS, np.random.default_rng(5))
        b = annotate_query("q1", ranked("r1"), pool, QRELS, np.random.default_rng(5))
        assert a == b


class TestAnnotatePair:
    def test_relevant_selected_costs_one(self):
        rng = np.random.default_rng(0)
        triplet, cost = annotate_pair(
            "q1", "r2", QRELS, ranked("n1", "r1"), ranked("n1", "n2"), rng
        )
        assert cost == 1
        assert triplet.positive_id == "r2"
        assert triplet.negative_id in {"n1", "n2"}

    def test_irrelevant_selected_costs_one_plus_rank(self):
        rng = np.random.default_rng(0)
        triplet, cost = annotate_pair(
            "q1", "n9", QRELS, ranked("n1", "n2", "r1"), ranked("n1"), rng
        )
        assert cost == 1 + 3
        assert triplet.positive_id == "r1" and triplet.negative_id == "n9"

    def test_irrelevant_and_no_positive_found(self):
        rng = np.random.default_rng(0)
        triplet, cost = annotate_pair(
            "q1", "n9", QRELS, ranked("n1", "n2"), ranked("n1"), rng, depth=50
        )
        assert triplet is None and cost == 1 + 2


class TestAssessmentLedger:
    def _records(self, iteration, costs):
        return [
            AnnotationRecord(iteration, f"q{i}", "triplet", c, f"p{i}", f"n{i}")
            for i, c in enumerate(costs)
        ]

    def test_cumulative_totals(self):
        ledger = AssessmentLedger()
        ledger.update(1, self._records(1, [3, 5]))
        ledger.update(2, self._records(2, [1]))
        ledger.update(3, self._records(3, [4, 2]))
        assert ledger.per_iteration == {1: 8, 2: 1, 3: 6}
        assert ledger.cumulative(1) == 8
        assert ledger.cumulative(2) == 9
        assert ledger.cumulative(3) == 15

    def test_cumulative_matches_record_resummation(self):
        ledger = AssessmentLedger()
        rng = np.random.default_rng(2)
        for i in range(1, 6):
            ledger.update(i, self._records(i, rng.integers(1, 20, size=4).tolist()))
        for i in range(1, 6):
            oracle = sum(r.assessments for r in ledger.records if r.iteration <= i)
            assert ledger.cumulative(i) == oracle

    def test_nondecreasing_cumulative(self):
        ledger = AssessmentLedger()
        for i in range(1, 5):
            ledger.update(i, self._records(i, [i]))
        values = [ledger.cumulative(i) for i in range(1, 5)]
        assert values == sorted(values)

    def test_out_of_order_update_rejected(self):
        ledger = AssessmentLedger()
        ledger.update(2, self._records(2, [1]))
        with pytest.raises(ValueError, match="not after"):
            ledger.update(1, self._records(1, [1]))
        with pytest.raises(ValueError, match="not after"):
            ledger.update(2, self._records(2, [1]))

    def test_iteration_mismatch_rejected(self):
        ledger = AssessmentLedger()
        with pytest.raises(ValueError, match="iteration"):
            ledger.update(1, self._records(2, [1]))

    def test_skipped_records_count(self):
        ledger = AssessmentLedger()
        ledger.update(1, [AnnotationRecord(1, "q1", "skipped", 100)])
        assert ledger.cumulative(1) == 100

    def test_csv_round_trip(self, tmp_path):
        ledger = AssessmentLedger()
        ledger.update(1, self._records(1, [3, 7]))
        ledger.update(2, [AnnotationRecord(2, "qx", "skipped", 100)])
        path = tmp_path / "assessments.csv"
        ledger.save_csv(path)
        loaded = AssessmentLedger.load_csv(path)
        assert loaded.records == ledger.records
        assert loaded.per_iteration == ledger.per_iteration

    @pytest.mark.parametrize(
        "header, missing",
        [
            ("iteration,query_id,outcome,assessments,negative_id", "positive_id"),
            ("foo", "iteration, query_id, outcome, assessments, positive_id, negative_id"),
            ("", "iteration, query_id, outcome, assessments, positive_id, negative_id"),
        ],
    )
    def test_load_rejects_missing_columns(self, tmp_path, header, missing):
        path = tmp_path / "assessments.csv"
        path.write_text(header + "\n" if header else "")
        with pytest.raises(ValueError, match=f"lacks columns {missing}$"):
            AssessmentLedger.load_csv(path)
