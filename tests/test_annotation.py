from dataclasses import astuple

import numpy as np
import pytest

from alrank.annotation import (
    LEDGER_COLUMNS,
    AnnotationRecord,
    Exhausted,
    annotate_pair,
    annotate_query,
    first_relevant,
    read_assessment_totals,
    sample_negative,
)
from alrank.datamodel import Qrels, RankedList, write_csv


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


class TestReadAssessmentTotals:
    """cost-calc's reader of an assessments.csv: cumulative A(i) per iteration."""

    @staticmethod
    def _write(path, costs_by_iteration):
        records = [
            AnnotationRecord(i, f"q{k}", "triplet" if c < 100 else "skipped", c)
            for i, costs in costs_by_iteration.items() for k, c in enumerate(costs)
        ]
        write_csv(path, LEDGER_COLUMNS, map(astuple, records))
        return records

    def test_cumulative_totals(self, tmp_path):
        self._write(tmp_path / "a.csv", {1: [3, 5], 2: [1], 3: [4, 2], 4: [100]})
        assert read_assessment_totals(tmp_path / "a.csv") == {1: 8, 2: 9, 3: 15, 4: 115}

    def test_cumulative_matches_record_resummation(self, tmp_path):
        rng = np.random.default_rng(2)
        records = self._write(
            tmp_path / "a.csv", {i: rng.integers(1, 20, size=4).tolist() for i in range(1, 6)}
        )
        totals = read_assessment_totals(tmp_path / "a.csv")
        assert list(totals) == [1, 2, 3, 4, 5]
        for i, total in totals.items():
            assert total == sum(r.assessments for r in records if r.iteration <= i)

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
            read_assessment_totals(path)
