import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank.datamodel import Qrels, RankedList, Run
from alrank.evaluation import (
    MetricResult,
    emit_reports,
    ndcg_at_k,
    paired_ttest,
    regularized_incomplete_beta,
    t_sf_two_sided,
)


def oracle_ndcg(doc_grades: list[int], all_grades: list[int], k: int) -> float:
    """Independent nDCG oracle on explicit grade lists (linear gain)."""
    dcg = sum(g / math.log2(r + 2) for r, g in enumerate(doc_grades[:k]))
    ideal = sorted((g for g in all_grades if g > 0), reverse=True)
    idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal[:k]))
    return dcg / idcg


def run_of(doc_ids: list[str]) -> Run:
    return RankedList("q1", [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)])


def single_run(doc_ids: list[str]) -> Run:
    return Run("t", {"q1": run_of(doc_ids)})


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        qrels = Qrels({("q1", "a"): 2, ("q1", "b"): 1})
        result = ndcg_at_k(single_run(["a", "b", "c"]), qrels)
        assert result.per_query["q1"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_relevant_at_rank_two(self):
        # single relevant doc at rank 2: dcg = 1/log2(3), idcg = 1
        qrels = Qrels({("q1", "a"): 1})
        result = ndcg_at_k(single_run(["x", "a"]), qrels)
        assert result.per_query["q1"] == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert result.per_query["q1"] == pytest.approx(0.63093, abs=1e-5)

    def test_hand_value_graded(self):
        # grades (1, 2) ranked worst-first: dcg = 1 + 2/log2(3), idcg = 2 + 1/log2(3)
        qrels = Qrels({("q1", "a"): 1, ("q1", "b"): 2})
        result = ndcg_at_k(single_run(["a", "b"]), qrels)
        expected = (1 + 2 / math.log2(3)) / (2 + 1 / math.log2(3))
        assert result.per_query["q1"] == pytest.approx(expected, abs=1e-12)
        assert result.per_query["q1"] == pytest.approx(0.85972, abs=1e-5)

    def test_unjudged_docs_gain_zero(self):
        qrels = Qrels({("q1", "a"): 1})
        with_junk = ndcg_at_k(single_run(["u1", "u2", "a"]), qrels)
        assert with_junk.per_query["q1"] == pytest.approx(1 / math.log2(4), abs=1e-12)

    def test_truncation_at_k(self):
        qrels = Qrels({("q1", "a"): 1})
        result = ndcg_at_k(single_run(["x1", "x2", "a"]), qrels, k=2)
        assert result.per_query["q1"] == 0.0

    def test_no_positive_judgments_excluded_from_mean(self):
        qrels = Qrels({("q1", "a"): 1, ("q2", "b"): 0})
        run = Run("t", {
            "q1": RankedList("q1", [("a", 1.0)]),
            "q2": RankedList("q2", [("b", 1.0)]),
        })
        result = ndcg_at_k(run, qrels)
        assert set(result.per_query) == {"q1"}
        assert result.mean == pytest.approx(1.0, abs=1e-12)

    def test_no_shared_queries_raises(self):
        qrels = Qrels({("qx", "a"): 1})
        with pytest.raises(ValueError, match="share no queries"):
            ndcg_at_k(single_run(["a"]), qrels)

    def test_monotone_score_transform_invariant(self):
        qrels = Qrels({("q1", "a"): 1, ("q1", "c"): 2})
        base = RankedList("q1", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
        shifted = RankedList("q1", [(d, 10 * s + 5) for d, s in base.entries])
        a = ndcg_at_k(Run("t", {"q1": base}), qrels)
        b = ndcg_at_k(Run("t", {"q1": shifted}), qrels)
        assert a.per_query == b.per_query

    def test_swapping_relevant_down_never_helps(self):
        qrels = Qrels({("q1", "a"): 1})
        better = ndcg_at_k(single_run(["a", "x", "y"]), qrels).mean
        worse = ndcg_at_k(single_run(["x", "a", "y"]), qrels).mean
        worst = ndcg_at_k(single_run(["x", "y", "a"]), qrels).mean
        assert better > worse > worst

    @given(
        perm=st.permutations(list(range(6))),
        grades=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        k=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_property(self, perm, grades, k):
        if not any(g > 0 for g in grades):
            return
        docs = [f"d{i}" for i in perm]
        qrels = Qrels({("q1", f"d{i}"): g for i, g in enumerate(grades) if g != 0})
        got = ndcg_at_k(single_run(docs), qrels, k=k)
        want = oracle_ndcg([grades[i] for i in perm], grades, k)
        assert got.per_query["q1"] == pytest.approx(want, rel=1e-12)
        assert 0.0 <= got.per_query["q1"] <= 1.0 + 1e-12

    def test_matches_scipy_free_reference_batch(self):
        # randomized cross-check against the list-based oracle at k=10
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            grades = rng.integers(0, 4, size=n).tolist()
            if not any(g > 0 for g in grades):
                continue
            order = rng.permutation(n).tolist()
            docs = [f"d{i}" for i in order]
            qrels = Qrels({("q1", f"d{i}"): g for i, g in enumerate(grades) if g != 0})
            got = ndcg_at_k(single_run(docs), qrels, k=10).per_query["q1"]
            want = oracle_ndcg([grades[i] for i in order], grades, 10)
            assert got == pytest.approx(want, rel=1e-12)


class TestLeftToRightSums:
    def test_mean_and_ttest_sum_left_to_right(self):
        """nDCG means and t-test moments are sums of a plain loop from 0.0, on
        every Python: sum() compensates its additions from 3.12 on, which
        gives 1.0 here instead of 0.0."""
        values = (1e16, 1.0, -1e16)
        total = 0.0
        for value in values:
            total += value
        assert total == 0.0
        per_query = dict(zip(("a", "b", "c"), values))
        assert MetricResult(per_query, k=10).mean == 0.0
        # mean difference 0.0 gives t = 0 exactly; a compensated sum gives 1/3
        assert paired_ttest(list(values), [0.0, 0.0, 0.0]).t_statistic == 0.0


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_half(self):
        # I_x(a, a) at x = 1/2 is exactly 1/2
        for a in (0.5, 1.0, 2.5, 7.0):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.37, 0.92):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = float(rng.uniform(0.5, 30))
            b = float(rng.uniform(0.5, 30))
            x = float(rng.uniform(0.001, 0.999))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy_special.betainc(a, b, x)), rel=1e-8, abs=1e-12
            )


class TestPairedTtest:
    def test_hand_value(self):
        # diffs (1, 1, 2) -> mean 4/3, sd 1/sqrt(3), t = 4/3 / (1/3) = 4... recompute:
        # diffs all 1 except one 2: mean = 4/3, var = 1/3, se = sqrt(1/9) = 1/3
        result = paired_ttest([2.0, 2.0, 3.0], [1.0, 1.0, 1.0], n_comparisons=1)
        assert result.t_statistic == pytest.approx(4.0, rel=1e-12)

    def test_symmetric_diffs_t_two_sqrt_three(self):
        # diffs (1, 2, 3): mean 2, var 1, t = 2 / (1/sqrt(3)) = 2*sqrt(3)
        result = paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], n_comparisons=1)
        assert result.t_statistic == pytest.approx(2 * math.sqrt(3), rel=1e-12)
        # p for t = 2*sqrt(3), df = 2
        assert result.p_value == pytest.approx(0.0742, abs=2e-4)

    def test_antisymmetry(self):
        a, b = [1.0, 2.5, 3.0, 0.5], [0.7, 2.0, 3.5, 0.1]
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    def test_identical_samples(self):
        result = paired_ttest([1.0, 2.0], [1.0, 2.0])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_constant_nonzero_shift_is_significant(self):
        result = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0], n_comparisons=1)
        assert math.isinf(result.t_statistic)
        assert result.p_value == 0.0
        assert result.significant

    def test_bonferroni_correction_changes_decision(self):
        a = [0.9, 1.1, 1.3, 0.8, 1.2, 1.0, 1.4, 0.95]
        b = [0.5, 0.9, 1.0, 0.6, 0.8, 0.7, 1.1, 0.65]
        loose = paired_ttest(a, b, alpha=0.05, n_comparisons=1)
        strict = paired_ttest(a, b, alpha=0.05, n_comparisons=50_000)
        assert loose.significant and not strict.significant
        assert strict.corrected_alpha == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            paired_ttest([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest([1.0], [2.0])

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.normal(0.5, 0.2, size=n).tolist()
            b = rng.normal(0.45, 0.2, size=n).tolist()
            got = paired_ttest(a, b)
            want = scipy_stats.ttest_rel(a, b)
            assert got.t_statistic == pytest.approx(float(want.statistic), rel=1e-10)
            assert got.p_value == pytest.approx(float(want.pvalue), rel=1e-8, abs=1e-12)

    def test_sf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for t in (-4.0, -0.5, 0.0, 1.2, 2.0, 10.0):
            for df in (1, 2, 5, 30, 200):
                want = 2 * float(scipy_stats.t.sf(abs(t), df))
                assert t_sf_two_sided(t, df) == pytest.approx(want, rel=1e-8, abs=1e-15)


def _rows():
    rows = []
    for strategy in ("random", "uncertainty"):
        for seed in (0, 1):
            for i in (1, 2):
                rows.append({
                    "strategy": strategy,
                    "seed": seed,
                    "iteration": i,
                    "train_size": 20 * i,
                    "ndcg10": 0.1 * i + 0.01 * seed,
                    "assessments": 30 * i,
                    "C_A": 20.0 * i,
                    "C_C": 1.5 * i,
                    "C_total": 21.5 * i,
                })
    return rows


class TestEmitReports:
    def test_files_and_cardinality(self, tmp_path):
        rows = _rows()
        var = [{"strategy": "random", "size": 25, "seed": s, "ndcg10": 0.2 + 0.01 * s}
               for s in range(3)]
        written = emit_reports(rows, tmp_path, variability=var)
        assert set(written) == {
            "results", "fig_cost_stacked", "fig_ndcg_vs_assessments", "summary", "variability"
        }
        results = (tmp_path / "results.csv").read_text().splitlines()
        assert len(results) == 1 + len(rows)
        assert results[0] == "strategy,seed,iteration,train_size,ndcg10,assessments,C_A,C_C,C_total"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "strategy,size_20,size_40"
        assert len(summary) == 3
        assert len((tmp_path / "variability.csv").read_text().splitlines()) == 4

    def test_summary_means(self, tmp_path):
        emit_reports(_rows(), tmp_path)
        import csv as csv_mod
        with open(tmp_path / "summary.csv") as fh:
            table = {r["strategy"]: r for r in csv_mod.DictReader(fh)}
        # per-strategy mean over seeds 0 and 1 at iteration 1: (0.1 + 0.11) / 2
        assert float(table["random"]["size_20"]) == pytest.approx(0.105, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        rows = _rows()
        emit_reports(rows, tmp_path / "a")
        emit_reports(rows, tmp_path / "b")
        for name in ("results.csv", "fig_cost_stacked.csv", "fig_ndcg_vs_assessments.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_float_round_trip_via_repr(self, tmp_path):
        rows = _rows()
        emit_reports(rows, tmp_path)
        import csv as csv_mod
        with open(tmp_path / "results.csv") as fh:
            parsed = list(csv_mod.DictReader(fh))
        for row, original in zip(parsed, rows):
            assert float(row["ndcg10"]) == original["ndcg10"]
            assert float(row["C_total"]) == original["C_total"]
