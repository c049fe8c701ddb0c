"""Acceptance gate: one test per shipped criterion, each printing a pass/fail line.

Tolerances are pinned in the assertions; regression constants for the
desk-scale runs come from the first recorded run of this code on the frozen
synthetic bundle (generator seed 0, master seed 0).
"""

import functools
import itertools
import math
import statistics
import sys
import time
import zlib

import numpy as np
import pytest

from alrank.budget import CostConfig, annotation_cost, compute_cost
from alrank.cli import main as cli_main
from alrank.datamodel import Corpus, Qrels, QuerySet, RankedList, Run
from alrank.evaluation import ndcg_at_k
from alrank.experiment import (
    Experiment,
    ExperimentConfig,
    make_bundle,
    report_rows,
    run_variability,
)
from alrank.lexical import build_index, retrieve_topk, tokenize
from alrank.ranker import ARCHITECTURES, Ranker, RankerConfig
from alrank.selection import (
    SelectionConfig,
    select_diversity,
    select_qbc,
    select_random,
    select_uncertainty,
    vote_entropy,
)
from alrank.synthetic import DESK_SPEC, SyntheticSpec, generate_synthetic

DESK_RANKER = RankerConfig(
    architecture="cross",
    dim=512,
    hash_buckets=512,
    learning_rate=0.3,
    epochs_selection=5,
    epochs_evaluation=50,
)


def criterion(number: int, title: str):
    """Print one CRITERION line with the outcome and elapsed time."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number} FAIL - {title}", file=sys.stderr)
                raise
            elapsed = time.time() - start
            print(f"CRITERION {number} PASS - {title} ({elapsed:.2f}s)")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def desk_bundle():
    corpus, train_q, test_q, qrels = generate_synthetic(DESK_SPEC, 0)
    return make_bundle(corpus, train_q, test_q, qrels)


# -- 1. formula fidelity -----------------------------------------------------


@criterion(1, "formula fidelity (vote entropy, cost model; exact to 1e-12)")
def test_criterion_1_formula_fidelity():
    agree = RankedList("q", [("a", 2.0), ("b", 1.0)])
    assert vote_entropy([agree, agree]) == 0.0
    flipped = RankedList("q", [("b", 2.0), ("a", 1.0)])
    assert abs(vote_entropy([agree, flipped]) - math.log(2)) < 1e-12

    assert abs(annotation_cost(75, CostConfig()) - 50.0) < 1e-12
    cost = CostConfig(selection_hours_per_iteration=1.0)
    assert abs(compute_cost(2.0, 3, cost) - 6.936) < 1e-12


# -- 2. oracle equivalence ---------------------------------------------------


def _brute_force_bm25(corpus: Corpus, query: str) -> dict[str, float]:
    docs = {did: tokenize(text) for did, text in corpus.items()}
    n = len(docs)
    lengths = {did: len(toks) for did, toks in docs.items()}
    avgdl = sum(lengths.values()) / n
    scores = {}
    for did, toks in docs.items():
        total = 0.0
        for term in tokenize(query):
            tf = toks.count(term)
            if tf == 0 or avgdl == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            total += idf * tf * 1.9 / (tf + 0.9 * (0.6 + 0.4 * lengths[did] / avgdl))
        scores[did] = total
    return scores


def _oracle_vote_entropy(rankings):
    m = len(rankings)
    total = 0.0
    for p_i, p_j in itertools.permutations(rankings[0].doc_ids(), 2):
        n = sum(1 for r in rankings if r.doc_ids().index(p_i) < r.doc_ids().index(p_j))
        if n:
            total += n * math.log(n / m)
    return -total / m


def _oracle_ndcg(doc_grades, all_grades, k):
    dcg = sum(g / math.log2(r + 2) for r, g in enumerate(doc_grades[:k]))
    ideal = sorted((g for g in all_grades if g > 0), reverse=True)
    idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal[:k]))
    return dcg / idcg


@criterion(2, "oracle equivalence (BM25, vote entropy, uncertainty, nDCG@10)")
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20)
    vocab = [f"w{i}" for i in range(30)]

    # BM25 vs exhaustive scoring on 50 random corpora
    for _ in range(50):
        n_docs = int(rng.integers(1, 500))
        corpus = Corpus({
            f"d{i:04d}": " ".join(rng.choice(vocab, size=rng.integers(1, 12)))
            for i in range(n_docs)
        })
        query = " ".join(rng.choice(vocab, size=rng.integers(1, 4)))
        index = build_index(corpus)
        got = retrieve_topk(index, query, 10)
        oracle = _brute_force_bm25(corpus, query)
        expected = sorted(
            ((d, s) for d, s in oracle.items() if s > 0), key=lambda e: (-e[1], e[0])
        )[:10]
        assert got.doc_ids() == [d for d, _ in expected]
        for (_, a), (_, b) in zip(got.entries, expected):
            assert a == pytest.approx(b, rel=1e-9)

    # vote entropy vs the pair-counting oracle on 100 random committees
    for _ in range(100):
        n_docs = int(rng.integers(2, 7))
        members = int(rng.integers(2, 5))
        docs = [f"p{i}" for i in range(n_docs)]
        rankings = [
            RankedList("q", list(zip(docs, rng.permutation(n_docs).astype(float))))
            for _ in range(members)
        ]
        assert vote_entropy(rankings) == pytest.approx(
            _oracle_vote_entropy(rankings), rel=1e-10, abs=1e-12
        )

    # uncertainty selection vs a brute-force |score - mean| sort
    corpus = Corpus({f"d{i}": f"tok{i} tok{i + 1}" for i in range(30)})
    queries = QuerySet({f"q{i}": f"tok{i} tok{i + 2}" for i in range(10)})
    run = Run("bm25", {
        qid: RankedList(qid, [(f"d{(i + j) % 30}", 5.0 - j) for j in range(5)])
        for i, qid in enumerate(queries.ids())
    })
    ranker = Ranker(RankerConfig(architecture="cross", dim=32))
    state = ranker.init_state(3)
    got = select_uncertainty(ranker, state, queries.ids(), queries, run, corpus, 5, 6)
    scores = {
        (qid, did): ranker.score(state, queries[qid], corpus[did])
        for qid in queries.ids()
        for did in run[qid].doc_ids()[:5]
    }
    mean = sum(scores.values()) / len(scores)
    expected = sorted(scores, key=lambda p: (abs(scores[p] - mean), p[0], p[1]))[:6]
    assert [(q, d) for q, d, _ in got] == expected

    # nDCG@10 vs the list-based reference on 100 random run/qrels instances
    for _ in range(100):
        n = int(rng.integers(2, 15))
        grades = rng.integers(0, 4, size=n).tolist()
        if not any(g > 0 for g in grades):
            grades[0] = 1
        order = rng.permutation(n).tolist()
        qrels = Qrels({("q1", f"d{i}"): g for i, g in enumerate(grades) if g != 0})
        run_docs = [f"d{i}" for i in order]
        ranked = RankedList("q1", [(d, float(n - r)) for r, d in enumerate(run_docs)])
        got_ndcg = ndcg_at_k(Run("t", {"q1": ranked}), qrels, k=10).per_query["q1"]
        want = _oracle_ndcg([grades[i] for i in order], grades, 10)
        assert got_ndcg == pytest.approx(want, rel=1e-8, abs=1e-12)


# -- 3. gradient checks ------------------------------------------------------


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@criterion(3, "gradients match central finite differences (rel <= 1e-4, 100 instances each)")
def test_criterion_3_gradient_checks(architecture):
    vocab = [f"w{i}" for i in range(12)]
    h = 1e-4
    config = RankerConfig(architecture=architecture, dim=6, hash_buckets=24)
    ranker = Ranker(config)
    rng = np.random.default_rng(zlib.crc32(architecture.encode()))
    for instance in range(100):
        query = " ".join(rng.choice(vocab, size=rng.integers(1, 4)))
        pos = " ".join(rng.choice(vocab, size=rng.integers(1, 5)))
        neg = " ".join(rng.choice(vocab, size=rng.integers(1, 5)))
        state = ranker.init_state(instance)
        _, grads = ranker.loss_and_gradient(state, query, pos, neg)
        flat = state.ravel()
        gflat = grads.ravel()
        probe = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for j in probe:
            orig = flat[j]
            flat[j] = orig + h
            up, _ = ranker.loss_and_gradient(state, query, pos, neg)
            flat[j] = orig - h
            down, _ = ranker.loss_and_gradient(state, query, pos, neg)
            flat[j] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            assert abs(gflat[j] - fd) / denom <= 1e-4


# -- 4. incremental loop contract --------------------------------------------


def _ten_query_bundle():
    spec = SyntheticSpec(
        topics=2, docs_per_topic=20, queries_per_topic=5, test_queries_per_topic=2,
        rel_per_query=2, noise_vocab_size=50, topic_vocab_size=8,
    )
    corpus, train_q, test_q, qrels = generate_synthetic(spec, 4)
    return make_bundle(corpus, train_q, test_q, qrels)


@criterion(4, "loop contract: pool bookkeeping, no reselection, ledger recomputation")
def test_criterion_4_loop_contract():
    bundle = _ten_query_bundle()
    ranker_cfg = RankerConfig(
        architecture="cross", dim=64, hash_buckets=128,
        learning_rate=0.3, epochs_selection=2, epochs_evaluation=3,
    )

    # 10-query pool, I=2, s=3: six queries annotated, four remain
    for strategy in ("random", "uncertainty", "qbc", "diversity"):
        config = ExperimentConfig(
            iterations=2,
            selection=SelectionConfig(
                strategy=strategy,
                samples_per_iteration=3,
                candidate_depth=20,
                # pair selection picks one pair per query here so the
                # annotated-query count is comparable across strategies
                one_pair_per_query=True,
            ),
            ranker=ranker_cfg,
            negatives_depth=40,
        )
        states = Experiment(config, bundle).run()
        assert len(states) == 2
        assert len(states[1].pool) == 4
        annotated = [r.query_id for s in states for r in s.records]
        assert len(annotated) == 6
        assert len(set(annotated)) == 6  # no query annotated twice across iterations

    # 1,000-seed fuzz of every strategy: a selection never repeats a query
    pool = sorted(bundle.train_queries.ids())
    queries = bundle.train_queries
    small = Ranker(RankerConfig(architecture="cross", dim=32, hash_buckets=64))
    for seed in range(1000):
        picked = select_random(pool, 3, np.random.default_rng(seed))
        assert len(set(picked)) == 3
    for seed in range(1000):
        state = small.init_state(seed)
        picked = select_diversity(small, state, pool, queries, 3, np.random.default_rng(seed))
        assert len(set(picked)) == 3
        pairs = select_uncertainty(
            small, state, pool, queries, bundle.negatives, bundle.corpus, 5, 3
        )
        assert len({(q, d) for q, d, _ in pairs}) == 3
        committee = [state, small.init_state(seed + 1_000_000)]
        picked = select_qbc(
            small, committee, pool, queries, bundle.negatives, bundle.corpus, 5, 3
        )
        assert len({q for q, _ in picked}) == 3

    # random-baseline ledger equals independently recomputed BM25 walk ranks
    config = ExperimentConfig(
        iterations=2,
        selection=SelectionConfig(strategy="random", samples_per_iteration=3, candidate_depth=20),
        ranker=ranker_cfg,
        negatives_depth=40,
    )
    states = Experiment(config, bundle).run()
    for state in states:
        for record in state.records:
            walk = bundle.negatives[record.query_id].top(20).doc_ids()
            rank = next(
                (r for r, did in enumerate(walk, start=1)
                 if bundle.qrels.is_relevant(record.query_id, did)),
                None,
            )
            if record.outcome == "triplet":
                assert record.assessments == rank
            else:
                assert rank is None and record.assessments == len(walk)
    records = [r for state in states for r in state.records]
    for state in states:
        oracle = sum(r.assessments for r in records if r.iteration <= state.iteration)
        assert state.assessments_cumulative == oracle


# -- 5. learning-curve analog ------------------------------------------------

# regression constants from the first recorded run (synthetic seed 0, master seed 0)
PINNED_UNTRAINED = 0.16118268469010374
PINNED_MEDIANS = {
    25: 0.2855282700215488,
    50: 0.3933363769119571,
    100: 0.5466379255079193,
    200: 0.681148899973354,
}
PINNED_MEAN_200 = 0.6716067305026364


@criterion(5, "learning curve: non-decreasing medians, seed variance, +0.1 over untrained")
def test_criterion_5_learning_curve(desk_bundle):
    config = ExperimentConfig(ranker=DESK_RANKER)
    exp = Experiment(config, desk_bundle)
    untrained = exp.evaluate(exp._start_state)
    assert untrained == pytest.approx(PINNED_UNTRAINED, abs=1e-9)

    records = run_variability(config, desk_bundle, sizes=[25, 50, 100, 200], repeats=4)
    by_size = {}
    for r in records:
        by_size.setdefault(r["size"], []).append(r["ndcg10"])
    medians = {s: statistics.median(v) for s, v in by_size.items()}
    assert [medians[s] for s in (25, 50, 100, 200)] == sorted(
        medians[s] for s in (25, 50, 100, 200)
    )
    assert max(by_size[25]) - min(by_size[25]) > 0.0
    mean_200 = sum(by_size[200]) / len(by_size[200])
    assert mean_200 - untrained >= 0.1
    for size, pinned in PINNED_MEDIANS.items():
        assert medians[size] == pytest.approx(pinned, abs=1e-9)
    assert mean_200 == pytest.approx(PINNED_MEAN_200, abs=1e-9)


# -- 6. strategy comparison analog -------------------------------------------


@criterion(6, "strategy runs: cost identity, monotone assessments, byte-identical reports")
def test_criterion_6_strategy_runs(desk_bundle, tmp_path):
    for strategy in ("random", "uncertainty", "qbc", "diversity"):
        config = ExperimentConfig(
            iterations=5,
            selection=SelectionConfig(strategy=strategy, samples_per_iteration=20),
            ranker=DESK_RANKER,
        )
        states = Experiment(config, desk_bundle).run()
        assert len(states) == 5
        rows = report_rows(config, states)
        totals = [row["assessments"] for row in rows]
        assert totals == sorted(totals)
        for row in rows:
            assert row["C_total"] == row["C_A"] + row["C_C"]  # exact decomposition

        from alrank.evaluation import emit_reports

        dir_a = tmp_path / f"{strategy}_a"
        dir_b = tmp_path / f"{strategy}_b"
        written = emit_reports(rows, dir_a)
        emit_reports(rows, dir_b)
        assert {"results", "fig_cost_stacked", "fig_ndcg_vs_assessments", "summary"} <= set(written)
        for name in ("results.csv", "fig_cost_stacked.csv", "fig_ndcg_vs_assessments.csv", "summary.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


# -- 7. determinism and resume -----------------------------------------------


@criterion(7, "interrupt/resume equality; CLI re-runs byte-identical")
def test_criterion_7_determinism_and_resume(desk_bundle, tmp_path):
    config = ExperimentConfig(
        iterations=3,
        selection=SelectionConfig(strategy="uncertainty", samples_per_iteration=10),
        ranker=RankerConfig(
            architecture="cross", dim=128, hash_buckets=256,
            learning_rate=0.3, epochs_selection=2, epochs_evaluation=4,
        ),
    )
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    full_states = Experiment(config, desk_bundle, full_dir).run()
    Experiment(config, desk_bundle, part_dir).run()
    (part_dir / "iter_0003.json").unlink()
    (part_dir / "iter_0003.ckpt").unlink()
    resumed = Experiment(config, desk_bundle, part_dir).resume()
    assert [s.to_json() for s in resumed] == [s.to_json() for s in full_states]
    assert (part_dir / "iter_0003.ckpt").read_bytes() == (full_dir / "iter_0003.ckpt").read_bytes()

    argv_base = [
        "run-al", "--synthetic", "--strategy", "random", "--iterations", "2",
        "--batch", "5", "--seed", "0",
        "--set", "dim=64", "--set", "hash_buckets=128",
        "--set", "epochs_selection=2", "--set", "epochs_evaluation=3",
        "--set", "learning_rate=0.3",
    ]
    dir_1 = tmp_path / "run1"
    dir_2 = tmp_path / "run2"
    assert cli_main(argv_base + ["--out", str(dir_1)]) == 0
    assert cli_main(argv_base + ["--out", str(dir_2)]) == 0
    for name in ("assessments.csv", "iter_0001.json", "iter_0002.json",
                 "iter_0001.ckpt", "iter_0002.ckpt"):
        assert (dir_1 / name).read_bytes() == (dir_2 / name).read_bytes()
    for name in ("results.csv", "summary.csv", "fig_cost_stacked.csv",
                 "fig_ndcg_vs_assessments.csv"):
        assert (dir_1 / "reports" / name).read_bytes() == (dir_2 / "reports" / name).read_bytes()
