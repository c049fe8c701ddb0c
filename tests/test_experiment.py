import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank import annotation as anno
from alrank import experiment
from alrank.datamodel import Qrels, QuerySet
from alrank.evaluation import emit_reports
from alrank.experiment import (
    Experiment,
    ExperimentConfig,
    derive_seed,
    make_bundle,
    report_rows,
    resume,
    run_experiment,
    run_variability,
)
from alrank.ranker import Ranker, RankerConfig, save_checkpoint
from alrank.selection import STRATEGIES, SelectionConfig

TINY_RANKER = RankerConfig(
    architecture="cross", dim=64, hash_buckets=128,
    learning_rate=0.3, epochs_selection=2, epochs_evaluation=4,
)


def tiny_config(strategy="random", **overrides) -> ExperimentConfig:
    defaults = dict(
        iterations=2,
        selection=SelectionConfig(strategy=strategy, samples_per_iteration=3, candidate_depth=20),
        ranker=TINY_RANKER,
        negatives_depth=50,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "train", 3) == derive_seed(0, "train", 3)

    def test_streams_independent(self):
        seen = {
            derive_seed(0, "train", 1),
            derive_seed(0, "train", 2),
            derive_seed(0, "subset", 1),
            derive_seed(1, "train", 1),
        }
        assert len(seen) == 4

    def test_label_not_prefix_ambiguous(self):
        assert derive_seed(0, "a|b", 1) != derive_seed(0, "a", 1)


class TestExperimentConfig:
    def test_schedule_length_must_match(self):
        with pytest.raises(ValueError, match="schedule length"):
            tiny_config(schedule=(5, 5, 5))

    def test_schedule_overrides_batch(self):
        config = tiny_config(schedule=(2, 7))
        assert config.batch_for(1) == 2
        assert config.batch_for(2) == 7

    def test_default_batch(self):
        assert tiny_config().batch_for(2) == 3

    def test_negatives_depth_below_candidate_depth_rejected(self):
        with pytest.raises(ValueError, match="negatives_depth"):
            tiny_config(negatives_depth=19)
        assert tiny_config(negatives_depth=20).negatives_depth == 20

    def test_retrain_needs_checkpoint(self):
        with pytest.raises(ValueError, match="initial_checkpoint"):
            tiny_config(scenario="retrain")

    def test_fingerprint_sensitive_to_fields(self):
        assert tiny_config().fingerprint() != tiny_config(master_seed=1).fingerprint()
        assert tiny_config().fingerprint() == tiny_config().fingerprint()


class TestRunLoop:
    def test_pool_shrinks_by_annotated_queries(self, tiny_bundle):
        # 15 train queries, 2 iterations of 3 query annotations each
        states = run_experiment(tiny_config(), tiny_bundle)
        assert len(states) == 2
        n_queries = len(tiny_bundle.train_queries)
        assert len(states[0].pool) == n_queries - 3
        assert len(states[1].pool) == n_queries - 6
        assert len(states[1].triplets) <= 6

    def test_training_set_is_cumulative(self, tiny_bundle):
        states = run_experiment(tiny_config(), tiny_bundle)
        first = set(states[0].triplets)
        assert first.issubset(set(states[1].triplets))

    def test_assessments_nondecreasing(self, tiny_bundle):
        states = run_experiment(tiny_config(iterations=4), tiny_bundle)
        totals = [s.assessments_cumulative for s in states]
        assert totals == sorted(totals)
        assert totals[0] > 0

    def test_same_seed_identical_runs(self, tiny_bundle):
        a = run_experiment(tiny_config(strategy="uncertainty"), tiny_bundle)
        b = run_experiment(tiny_config(strategy="uncertainty"), tiny_bundle)
        assert [s.to_json() for s in a] == [s.to_json() for s in b]

    def test_different_seed_differs(self, tiny_bundle):
        a = run_experiment(tiny_config(), tiny_bundle)
        b = run_experiment(tiny_config(master_seed=9), tiny_bundle)
        assert [s.selected for s in a] != [s.selected for s in b]

    def test_all_strategies_complete(self, tiny_bundle):
        for strategy in ("random", "uncertainty", "qbc", "diversity"):
            states = run_experiment(tiny_config(strategy=strategy), tiny_bundle)
            assert len(states) == 2
            assert all(0.0 <= s.ndcg10 <= 1.0 for s in states)

    def test_uncertainty_selects_pairs_after_first_iteration(self, tiny_bundle):
        states = run_experiment(tiny_config(strategy="uncertainty"), tiny_bundle)
        assert all(isinstance(q, str) for q in states[0].selected)
        assert all(len(pair) == 2 for pair in states[1].selected)

    def test_pool_exhaustion_stops_early(self, tiny_bundle):
        n = len(tiny_bundle.train_queries)
        config = tiny_config(
            iterations=4,
            selection=SelectionConfig(strategy="random", samples_per_iteration=n, candidate_depth=20),
        )
        states = run_experiment(config, tiny_bundle)
        assert len(states) == 1
        assert states[0].stop_reason == "pool exhausted"

    def test_retrain_scenario_starts_from_checkpoint(self, tiny_bundle, tmp_path):
        ranker_cfg = TINY_RANKER
        from alrank.ranker import Ranker

        warm = Ranker(ranker_cfg).init_state(99)
        ckpt = tmp_path / "warm.ckpt"
        save_checkpoint(warm, ckpt)
        config = tiny_config(scenario="retrain", initial_checkpoint=str(ckpt))
        exp = Experiment(config, tiny_bundle)
        assert exp._start_state == warm

    def test_report_rows_cost_identity(self, tiny_bundle):
        config = tiny_config(iterations=3)
        states = run_experiment(config, tiny_bundle)
        rows = report_rows(config, states, seed_label=7)
        assert [r["iteration"] for r in rows] == [1, 2, 3]
        for row, state in zip(rows, states):
            assert row["seed"] == 7
            assert row["assessments"] == state.assessments_cumulative
            assert row["C_total"] == pytest.approx(row["C_A"] + row["C_C"], abs=1e-12)
            assert row["C_A"] == pytest.approx(row["assessments"] / 75 * 50, abs=1e-9)


@pytest.fixture(scope="module")
def hitless_bundle(tiny_data):
    """tiny_bundle plus train queries whose terms occur in no document."""
    corpus, train_q, test_q, qrels = tiny_data
    texts = dict(train_q.items())
    texts.update({f"hitless{i}": f"unseen{i} absent{i}" for i in range(4)})
    return make_bundle(corpus, QuerySet(texts), test_q, qrels)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hitless_train_queries_run_to_the_end(hitless_bundle, strategy):
    hitless = {q for q in hitless_bundle.train_queries.ids() if q.startswith("hitless")}
    assert all(len(hitless_bundle.candidates[q]) == 0 for q in hitless)
    config = tiny_config(
        strategy,
        iterations=12,
        selection=SelectionConfig(strategy=strategy, samples_per_iteration=4, candidate_depth=20),
    )
    states = run_experiment(config, hitless_bundle)
    assert states[-1].stop_reason == "pool exhausted"
    # each hitless query was picked after the first (random) draw and walked
    # as an exhausted walk of zero assessments
    walked = [r for st in states for r in st.records if r.query_id in hitless]
    assert sorted(r.query_id for r in walked) == sorted(hitless)
    assert all(r.outcome == "skipped" and r.assessments == 0 for r in walked)
    assert all(r.iteration > 1 for r in walked)


@pytest.fixture(scope="module")
def unjudged_bundle(tiny_bundle):
    """tiny_bundle without the train queries' qrels: every walk is exhausted
    although the queries have BM25 hits, so no iteration yields a triplet."""
    train = set(tiny_bundle.train_queries.ids())
    qrels = Qrels({key: g for key, g in tiny_bundle.qrels.items() if key[0] not in train})
    return replace(tiny_bundle, qrels=qrels)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tripletless_run_goes_to_the_end(unjudged_bundle, strategy):
    assert all(len(unjudged_bundle.candidates[q]) for q in unjudged_bundle.train_queries.ids())
    states = run_experiment(tiny_config(strategy, iterations=3), unjudged_bundle)
    assert [s.iteration for s in states] == [1, 2, 3]
    assert all(not s.triplets and s.training_hours == 0.0 for s in states)
    exp = Experiment(tiny_config(strategy), unjudged_bundle)
    assert {s.ndcg10 for s in states} == {exp.evaluate(exp._start_state)}


@pytest.mark.parametrize("arch", ["cross", "maxsim"])
def test_annotation_reranks_each_query_once(tiny_bundle, tmp_path, monkeypatch, arch):
    """Pairs of one query walk one reranking of its candidates: one
    `Ranker.rerank` per distinct selected query, and the same run files as a
    run that reranks the candidates afresh for every pair."""
    config = tiny_config(
        "uncertainty", iterations=3,
        selection=SelectionConfig(strategy="uncertainty", samples_per_iteration=6,
                                  candidate_depth=20),
        ranker=replace(TINY_RANKER, architecture=arch),
    )
    reranks, walk_state = [], {}
    rerank, annotate, annotate_pair = Ranker.rerank, Experiment._annotate, anno.annotate_pair

    def counting_rerank(self, state, query_text, candidates, corpus):
        reranks.append(candidates.query_id)
        return rerank(self, state, query_text, candidates, corpus)

    def annotate_in(self, i, sel, pool):
        walk_state.update(experiment=self, state=sel.walk_state)
        reranks.clear()
        result = annotate(self, i, sel, pool)
        per_iteration.append((sel.picks, list(reranks)))
        return result

    def per_pair_reranking(qid, did, qrels, reranked, *args, **kwargs):
        fresh = walk_state["experiment"]._rerank_for_annotation(qid, walk_state["state"])
        assert fresh.entries == reranked.entries
        return annotate_pair(qid, did, qrels, fresh, *args, **kwargs)

    monkeypatch.setattr(Ranker, "rerank", counting_rerank)
    monkeypatch.setattr(Experiment, "_annotate", annotate_in)
    per_iteration = []
    run_experiment(config, tiny_bundle, tmp_path / "once")
    pairs = [(selected, calls) for selected, calls in per_iteration[1:]]
    assert all(isinstance(pair, list) for selected, _ in pairs for pair in selected)
    assert any(len({q for q, _ in selected}) < len(selected) for selected, _ in pairs)
    for selected, calls in pairs:
        assert sorted(calls) == sorted({q for q, _ in selected})

    monkeypatch.setattr(anno, "annotate_pair", per_pair_reranking)
    per_iteration = []
    run_experiment(config, tiny_bundle, tmp_path / "per-pair")
    # the per-query reranks, then one fresh rerank per pair
    assert [len(calls) for _, calls in per_iteration[1:]] == [
        len(calls) + len(selected) for selected, calls in pairs
    ]
    once, per_pair = (
        {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        for name in ("once", "per-pair")
    )
    assert once == per_pair


def first_iteration(strategy, bundle):
    """An Experiment, iteration 1's pool and triplets, and a trained state."""
    exp = Experiment(tiny_config(strategy), bundle)
    first = run_experiment(tiny_config(strategy, iterations=1), bundle)[0]
    assert first.triplets
    prev, _ = exp._train(1, first.triplets)
    return exp, first.pool, first.triplets, prev


def committee_hours(config, n_triplets):
    """QBC's committee training hours, summed member by member."""
    size = max(1, round(config.selection.member_fraction * n_triplets))
    hours = 0.0
    for _ in range(config.selection.committee_size):
        hours += config.ranker.epochs_selection * size * config.training_hours_per_sample_epoch
    return hours


class TestSelection:
    """The record `_select` hands to the annotation: picks, unit, walk state, hours."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_first_iteration_picks_queries_walked_in_bm25_order(self, tiny_bundle, strategy):
        exp = Experiment(tiny_config(strategy), tiny_bundle)
        pool = sorted(tiny_bundle.train_queries.ids())
        sel = exp._select(1, 3, pool, None, [])
        assert (sel.unit, sel.walk_state, sel.hours) == ("query", None, 0.0)
        assert len(sel.picks) == 3 and set(sel.picks) <= set(pool)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_hitless_pool_falls_back_to_random(self, hitless_bundle, strategy):
        exp, _, triplets, prev = first_iteration(strategy, hitless_bundle)
        pool = sorted(q for q in hitless_bundle.train_queries.ids() if q.startswith("hitless"))
        sel = exp._select(2, 2, pool, prev, triplets)
        assert (sel.unit, sel.walk_state, sel.hours) == ("query", None, 0.0)

    def test_uncertainty_picks_pairs_walking_the_previous_state(self, tiny_bundle):
        exp, pool, triplets, prev = first_iteration("uncertainty", tiny_bundle)
        sel = exp._select(2, 3, pool, prev, triplets)
        assert (sel.unit, sel.hours) == ("pair", 0.0)
        assert sel.walk_state is prev
        assert all(len(pair) == 2 and pair[0] in pool for pair in sel.picks)

    def test_diversity_picks_queries_walking_the_previous_state(self, tiny_bundle):
        exp, pool, triplets, prev = first_iteration("diversity", tiny_bundle)
        sel = exp._select(2, 3, pool, prev, triplets)
        assert (sel.unit, sel.hours) == ("query", 0.0)
        assert sel.walk_state is prev
        assert set(sel.picks) <= set(pool)

    def test_qbc_walks_the_first_member_and_carries_committee_hours(self, tiny_bundle):
        exp, pool, triplets, prev = first_iteration("qbc", tiny_bundle)
        sel = exp._select(2, 3, pool, prev, triplets)
        assert sel.unit == "query"
        committee, _ = exp._train_committee(2, triplets)
        assert sel.walk_state == committee[0] and sel.walk_state != prev
        assert sel.hours == committee_hours(exp.config, len(triplets)) > 0.0


@pytest.mark.parametrize("strategy", ["random", "qbc"])
def test_persisted_training_hours_add_committee_hours(tiny_bundle, strategy):
    """iter_*.json's training_hours: the evaluation training's hours, plus the
    committee's for QBC from iteration 2, with the same float bits as the
    formulas summed in that order."""
    config = tiny_config(strategy, iterations=3, training_hours_per_sample_epoch=0.1)
    states = run_experiment(config, tiny_bundle)
    assert [s.iteration for s in states] == [1, 2, 3]
    for prev, st in zip([None] + states[:-1], states):
        hours = (config.ranker.epochs_evaluation * len(st.triplets)
                 * config.training_hours_per_sample_epoch)
        if strategy == "qbc" and prev is not None:
            assert prev.triplets
            hours += committee_hours(config, len(prev.triplets))
        assert st.training_hours == hours


class TestResume:
    def test_resume_reproduces_interrupted_run(self, tiny_bundle, tmp_path):
        config = tiny_config(iterations=3)
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        full_states = run_experiment(config, tiny_bundle, full_dir)
        run_experiment(config, tiny_bundle, part_dir)
        # drop the last iteration to simulate an interrupt
        (part_dir / "iter_0003.json").unlink()
        (part_dir / "iter_0003.ckpt").unlink()
        resumed = resume(config, tiny_bundle, part_dir)
        assert [s.to_json() for s in resumed] == [s.to_json() for s in full_states]
        assert (part_dir / "iter_0003.ckpt").read_bytes() == (
            full_dir / "iter_0003.ckpt"
        ).read_bytes()

    @pytest.fixture(scope="class")
    def uninterrupted(self, tiny_bundle, tmp_path_factory):
        """Run directory of an uninterrupted 4-iteration run, one per strategy."""
        runs = {}

        def get(strategy):
            if strategy not in runs:
                runs[strategy] = tmp_path_factory.mktemp(f"full-{strategy}")
                run_experiment(tiny_config(strategy, iterations=4), tiny_bundle, runs[strategy])
            return runs[strategy]

        return get

    @pytest.mark.parametrize("cut", [2, 3, 4])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_resume_at_every_cut_equals_uninterrupted_bytes(
        self, uninterrupted, tiny_bundle, tmp_path, strategy, cut
    ):
        full_dir = uninterrupted(strategy)
        part_dir = tmp_path / "part"
        shutil.copytree(full_dir, part_dir)
        # a run killed after iteration cut - 1 has only the earlier iterations
        for k in range(cut, 5):
            (part_dir / f"iter_{k:04d}.json").unlink()
            (part_dir / f"iter_{k:04d}.ckpt").unlink()
        resume(tiny_config(strategy, iterations=4), tiny_bundle, part_dir)
        files = sorted(p.name for p in full_dir.iterdir())
        assert sorted(p.name for p in part_dir.iterdir()) == files
        for name in files:
            assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    # tempfile, not tmp_path: a function-scoped fixture would be shared by
    # every example hypothesis draws
    @settings(max_examples=12, deadline=None)
    @given(
        strategy=st.sampled_from(STRATEGIES),
        master_seed=st.integers(0, 2**32 - 1),
        iterations=st.integers(1, 4),
        batch=st.integers(1, 5),
        cut=st.integers(1, 4),
    )
    def test_resume_at_a_random_cut_equals_uninterrupted_bytes(
        self, tiny_bundle, strategy, master_seed, iterations, batch, cut
    ):
        config = tiny_config(
            strategy,
            iterations=iterations,
            master_seed=master_seed,
            selection=SelectionConfig(
                strategy=strategy, samples_per_iteration=batch, candidate_depth=20
            ),
        )
        with tempfile.TemporaryDirectory() as tmp:
            full_dir, part_dir = Path(tmp) / "full", Path(tmp) / "part"
            run_experiment(config, tiny_bundle, full_dir)
            shutil.copytree(full_dir, part_dir)
            # a run killed after iteration cut - 1 has only the earlier iterations
            written = len(list(full_dir.glob("iter_*.json")))
            for k in range(min(cut, written), written + 1):
                (part_dir / f"iter_{k:04d}.json").unlink()
                (part_dir / f"iter_{k:04d}.ckpt").unlink()
            resume(config, tiny_bundle, part_dir)
            files = sorted(p.name for p in full_dir.iterdir())
            assert sorted(p.name for p in part_dir.iterdir()) == files
            for name in files:
                assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    def test_resume_after_kill_while_writing_checkpoint(self, tiny_bundle, tmp_path):
        config = tiny_config(iterations=3)
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        full_states = run_experiment(config, tiny_bundle, full_dir)
        run_experiment(config, tiny_bundle, part_dir)
        # a kill inside the last checkpoint write leaves only a partial temp file
        ckpt = (part_dir / "iter_0003.ckpt").read_bytes()
        (part_dir / "iter_0003.ckpt").unlink()
        (part_dir / "iter_0003.json").unlink()
        (part_dir / "iter_0003.ckpt.tmp").write_bytes(ckpt[: len(ckpt) // 2])
        resumed = resume(config, tiny_bundle, part_dir)
        assert [s.to_json() for s in resumed] == [s.to_json() for s in full_states]
        assert sorted(p.name for p in part_dir.iterdir()) == sorted(
            p.name for p in full_dir.iterdir()
        )
        assert (part_dir / "iter_0003.ckpt").read_bytes() == ckpt

    def test_pool_exhaustion_is_persisted(self, tiny_bundle, tmp_path):
        n = len(tiny_bundle.train_queries)
        config = tiny_config(
            iterations=4,
            selection=SelectionConfig(strategy="random", samples_per_iteration=n, candidate_depth=20),
        )
        run_experiment(config, tiny_bundle, tmp_path)
        raw = json.loads((tmp_path / "iter_0001.json").read_text())
        assert raw["stop_reason"] == "pool exhausted"
        assert sorted(p.name for p in tmp_path.glob("iter_*")) == [
            "iter_0001.ckpt", "iter_0001.json"
        ]
        assert len(resume(config, tiny_bundle, tmp_path)) == 1

    def test_resume_complete_run_is_noop(self, tiny_bundle, tmp_path):
        config = tiny_config()
        run_experiment(config, tiny_bundle, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        states = resume(config, tiny_bundle, tmp_path)
        assert len(states) == 2
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert before == after

    def test_resume_rejects_changed_config(self, tiny_bundle, tmp_path):
        run_experiment(tiny_config(), tiny_bundle, tmp_path)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            resume(tiny_config(master_seed=5), tiny_bundle, tmp_path)

    def test_resume_without_artifacts(self, tiny_bundle, tmp_path):
        with pytest.raises(ValueError, match="no persisted experiment"):
            resume(tiny_config(), tiny_bundle, tmp_path / "missing")

    def test_persisted_state_round_trip(self, tiny_bundle, tmp_path):
        config = tiny_config()
        states = run_experiment(config, tiny_bundle, tmp_path)
        raw = json.loads((tmp_path / "iter_0002.json").read_text())
        from alrank.experiment import IterationState

        assert IterationState.from_json(raw).to_json() == states[1].to_json()


class TestVariability:
    def test_record_shape(self, tiny_bundle):
        config = tiny_config()
        records = run_variability(config, tiny_bundle, sizes=[3, 6], repeats=2)
        assert len(records) == 4
        assert [(r["size"], r["seed"]) for r in records] == [(3, 0), (3, 1), (6, 0), (6, 1)]
        for r in records:
            assert 0.0 <= r["ndcg10"] <= 1.0
            assert 1 <= r["n_triplets"] <= r["size"]

    def test_deterministic(self, tiny_bundle):
        config = tiny_config()
        a = run_variability(config, tiny_bundle, sizes=[4], repeats=2)
        b = run_variability(config, tiny_bundle, sizes=[4], repeats=2)
        assert a == b

    def test_repeats_validation(self, tiny_bundle):
        with pytest.raises(ValueError, match="repeats"):
            run_variability(tiny_config(), tiny_bundle, sizes=[3], repeats=1)

    def test_size_validation(self, tiny_bundle):
        n = len(tiny_bundle.train_queries)
        with pytest.raises(ValueError, match="exceeds"):
            run_variability(tiny_config(), tiny_bundle, sizes=[n + 1], repeats=2)


class TestMakeBundle:
    def test_candidates_are_prefix_of_negatives(self, tiny_data):
        corpus, train_q, test_q, qrels = tiny_data
        bundle = make_bundle(corpus, train_q, test_q, qrels, candidate_depth=10, negatives_depth=40)
        for qid in train_q.ids():
            cands = bundle.candidates[qid]
            negs = bundle.negatives[qid]
            assert negs.entries[: len(cands)] == cands.entries
            assert len(cands) <= 10 and len(negs) <= 40

    def test_all_query_splits_covered(self, tiny_bundle):
        assert set(tiny_bundle.candidates.query_ids()) == set(tiny_bundle.train_queries.ids())
        assert set(tiny_bundle.test_candidates.query_ids()) == set(tiny_bundle.test_queries.ids())


class BranchFailed(Exception):
    """Raised by a patched evaluation branch."""


def write_run(config, bundle, out_dir, resume_run=False):
    """A run (or a resume) into out_dir plus its reports, as `run-al` writes them;
    every file of the directory, keyed by its relative path."""
    exp = Experiment(config, bundle, out_dir)
    states = exp.resume() if resume_run else exp.run()
    emit_reports(report_rows(config, states), Path(out_dir) / "reports")
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(Path(out_dir).rglob("*")) if path.is_file()
    }


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestEvaluationWorker:
    """Each iteration's evaluation branch runs in one forked worker while the
    next iteration selects, or inline on one CPU: the same bytes either way."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pids of the workers forked during the test; `forks.cpus(n)` sets the
        CPU count the worker check reads."""

        class Forks(list):
            def cpus(self, n):
                if n > 1 and not experiment._fork_is_safe():
                    pytest.skip("os.fork would warn in this multi-threaded process")
                monkeypatch.setattr(experiment, "_cpu_count", lambda: n)

        pids = Forks()
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @pytest.mark.parametrize(
        "strategy,arch,epochs_evaluation",
        [("random", "cross", 4), ("uncertainty", "cross", 4), ("qbc", "cross", 4),
         ("diversity", "cross", 4), ("uncertainty", "maxsim", 4), ("random", "cross", 2)],
    )
    def test_worker_and_inline_write_the_same_bytes(
        self, tiny_bundle, tmp_path, forks, strategy, arch, epochs_evaluation
    ):
        config = tiny_config(
            strategy, iterations=4,
            ranker=replace(TINY_RANKER, architecture=arch, epochs_evaluation=epochs_evaluation),
        )
        forks.cpus(1)
        inline = write_run(config, tiny_bundle, tmp_path / "inline")
        assert forks == []
        forks.cpus(2)
        assert write_run(config, tiny_bundle, tmp_path / "worker") == inline
        assert len(forks) == 1
        assert_reaped(forks)
        assert sorted(inline)[:3] == ["config.json", "iter_0001.ckpt", "iter_0001.json"]
        assert "reports/results.csv" in inline

    @pytest.mark.parametrize("arch", ["cross", "maxsim"])
    def test_worker_evaluates_the_states_inline_evaluation_does(
        self, tiny_bundle, monkeypatch, forks, arch
    ):
        """On tiny data two evaluation states can share an nDCG, so here
        `evaluate` returns a digest of the state it is given. Given a worker,
        every branch runs there, the last one included."""

        def state_digest(self, state):
            blob = b"".join(state.arrays[k].tobytes() for k in sorted(state.arrays))
            return int.from_bytes(hashlib.sha256(blob).digest()[:6], "little") / 2**48

        branch, parent_branches = Experiment._evaluation_branch, []

        def parent_branch(self, i, triplets, sel_state):
            parent_branches.append(i)  # the worker appends to its own copy
            return branch(self, i, triplets, sel_state)

        monkeypatch.setattr(Experiment, "evaluate", state_digest)
        monkeypatch.setattr(Experiment, "_evaluation_branch", parent_branch)
        config = tiny_config(
            "uncertainty", iterations=4, ranker=replace(TINY_RANKER, architecture=arch)
        )
        forks.cpus(1)
        inline = [s.to_json() for s in run_experiment(config, tiny_bundle)]
        assert parent_branches == [1, 2, 3, 4]
        assert len({s["ndcg10"] for s in inline}) == 4
        parent_branches.clear()
        forks.cpus(2)
        assert [s.to_json() for s in run_experiment(config, tiny_bundle)] == inline
        assert parent_branches == [] and len(forks) == 1

    @pytest.mark.parametrize("cpus,committed", [
        (1, {1: 0, 2: 1, 3: 2, 4: 3}),
        (2, {1: 0, 2: 0, 3: 1, 4: 2}),
    ])
    def test_iteration_is_committed_after_the_next_selection_training(
        self, tiny_bundle, tmp_path, monkeypatch, forks, cpus, committed
    ):
        """Inline, iteration i is committed before iteration i + 1 trains; with
        the worker, once iteration i + 1's selection training is done."""
        train, seen = Experiment._train, {}

        def recording_train(self, i, triplets):
            seen[i] = len(list(tmp_path.glob("iter_*.json")))
            return train(self, i, triplets)

        monkeypatch.setattr(Experiment, "_train", recording_train)
        forks.cpus(cpus)
        run_experiment(tiny_config(iterations=4), tiny_bundle, tmp_path)
        assert seen == committed
        assert len(list(tmp_path.glob("iter_*.json"))) == 4

    def test_resume_from_a_cut_takes_the_worker_path(self, tiny_bundle, tmp_path, forks):
        config = tiny_config("uncertainty", iterations=4)
        forks.cpus(1)
        full = write_run(config, tiny_bundle, tmp_path / "full")
        shutil.copytree(tmp_path / "full", tmp_path / "part")
        shutil.rmtree(tmp_path / "part" / "reports")
        for k in (2, 3, 4):
            for suffix in ("json", "ckpt"):
                (tmp_path / "part" / f"iter_{k:04d}.{suffix}").unlink()
        forks.cpus(2)
        assert write_run(config, tiny_bundle, tmp_path / "part", resume_run=True) == full
        assert len(forks) == 1
        assert_reaped(forks)

    def test_pool_running_dry_after_a_handed_off_branch(self, tiny_bundle, tmp_path, forks):
        """Iteration 2 empties the pool: its branch still goes to the worker
        forked for iteration 1, and the stop is recorded once its nDCG is in."""
        config = tiny_config(
            iterations=4,
            selection=SelectionConfig(strategy="random", samples_per_iteration=8, candidate_depth=20),
        )
        forks.cpus(1)
        inline = write_run(config, tiny_bundle, tmp_path / "inline")
        forks.cpus(2)
        assert write_run(config, tiny_bundle, tmp_path / "worker") == inline
        assert len(forks) == 1
        assert json.loads(inline["iter_0002.json"])["stop_reason"] == "pool exhausted"
        assert "iter_0003.json" not in inline

    def test_worker_leaves_the_cpu_its_parent_ran_on(self, tiny_bundle, monkeypatch, forks):
        cpus = os.sched_getaffinity(0)
        assert experiment._current_cpu() in cpus
        if len(cpus) < 2:
            pytest.skip("one CPU in the affinity mask")
        forks.cpus(2)
        monkeypatch.setattr(experiment, "_current_cpu", lambda: min(cpus))

        def report_affinity(self, i, triplets, sel_state):
            raise BranchFailed(sorted(os.sched_getaffinity(0)))

        monkeypatch.setattr(Experiment, "_evaluation_branch", report_affinity)
        with pytest.raises(BranchFailed) as raised:
            run_experiment(tiny_config(iterations=2), tiny_bundle)
        assert raised.value.args[0] == sorted(cpus - {min(cpus)})
        assert_reaped(forks)

    def test_one_iteration_left_never_forks(self, tiny_bundle, tmp_path, forks):
        forks.cpus(2)
        config = tiny_config("uncertainty", iterations=3)
        run_experiment(config, tiny_bundle, tmp_path)
        assert len(forks) == 1
        for suffix in ("json", "ckpt"):
            (tmp_path / f"iter_0003.{suffix}").unlink()
        resume(config, tiny_bundle, tmp_path)
        run_experiment(tiny_config("uncertainty", iterations=1), tiny_bundle, tmp_path / "one")
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_branch_raises_and_resume_finishes_the_run(
        self, tiny_bundle, tmp_path, monkeypatch, forks, cpus
    ):
        """Iteration 2's branch raises (in the worker, given two CPUs): the run
        re-raises its type and message with only iteration 1 committed, and a
        resume writes the uninterrupted run's bytes."""
        config = tiny_config("qbc", iterations=4)
        forks.cpus(cpus)
        full = write_run(config, tiny_bundle, tmp_path / "full")
        branch = Experiment._evaluation_branch

        def failing_branch(self, i, triplets, sel_state):
            if i == 2:
                raise BranchFailed(f"evaluation of iteration {i} failed")
            return branch(self, i, triplets, sel_state)

        monkeypatch.setattr(Experiment, "_evaluation_branch", failing_branch)
        with pytest.raises(BranchFailed, match="evaluation of iteration 2 failed"):
            run_experiment(config, tiny_bundle, tmp_path / "part")
        assert sorted(p.name for p in (tmp_path / "part").iterdir()) == [
            "config.json", "iter_0001.ckpt", "iter_0001.json",
        ]
        monkeypatch.setattr(Experiment, "_evaluation_branch", branch)
        assert write_run(config, tiny_bundle, tmp_path / "part", resume_run=True) == full
        assert len(forks) == (3 if cpus == 2 else 0)
        assert_reaped(forks)

    def test_worker_exiting_without_a_result_raises(self, tiny_bundle, tmp_path, monkeypatch, forks):
        forks.cpus(2)
        branch = Experiment._evaluation_branch

        def dying_branch(self, i, triplets, sel_state):
            if i == 1:
                os._exit(3)  # the worker dies without a reply
            return branch(self, i, triplets, sel_state)

        monkeypatch.setattr(Experiment, "_evaluation_branch", dying_branch)
        with pytest.raises(RuntimeError, match="exited without a result"):
            run_experiment(tiny_config(iterations=3), tiny_bundle, tmp_path)
        assert not list(tmp_path.glob("iter_*"))
        assert len(forks) == 1
        assert_reaped(forks)

    def test_failed_fork_runs_inline(self, tiny_bundle, tmp_path, monkeypatch, forks):
        forks.cpus(1)
        config = tiny_config("diversity", iterations=3)
        inline = write_run(config, tiny_bundle, tmp_path / "inline")
        forks.cpus(2)

        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert write_run(config, tiny_bundle, tmp_path / "refused") == inline

    def test_unpicklable_exception_comes_back_as_runtime_error(self):
        class TwoArgs(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        portable = experiment._portable(TwoArgs(1, 2))
        assert type(portable) is RuntimeError
        assert str(portable) == "TwoArgs: 1 and 2"
        error = ValueError("bad value")
        assert experiment._portable(error) is error
