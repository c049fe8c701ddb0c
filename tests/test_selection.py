import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank import selection
from alrank.datamodel import Corpus, QuerySet, RankedList, Run
from alrank.ranker import Ranker, RankerConfig
from alrank.selection import (
    SelectionConfig,
    kmeans,
    select_diversity,
    select_qbc,
    select_random,
    select_uncertainty,
    vote_entropy,
)


def oracle_vote_entropy(member_rankings, pair_depth=None):
    """Independent pair-enumeration oracle for the committee disagreement score.

    It adds one term per ordered pair, in (i, j) order, as the triple loop that
    vote_entropy was before it was vectorised did, so the two are equal to the
    bit.
    """
    m = len(member_rankings)
    first = member_rankings[0].doc_ids()
    depth = pair_depth if pair_depth is not None else len(first)
    top = first[:depth]
    positions = [{did: pos for pos, did in enumerate(r.doc_ids())} for r in member_rankings]
    total = 0.0
    for p_i, p_j in itertools.permutations(top, 2):
        n = 0
        for pos in positions:
            if pos[p_i] < pos[p_j]:
                n += 1
        if n:
            total += n * math.log(n / m)
    return -total / m


def broadcast_squared_distances(points, centroids):
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def oracle_kmeans(points, k, rng, max_iters=100):
    """k-means as it was before the distance pass went to row blocks: every
    distance comes from one (n, k, d) broadcast, so kmeans must match it bit
    for bit."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            centroids[c] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest_sq), r))
            idx = min(idx, n - 1)
            centroids[c] = points[idx]
        closest_sq = np.minimum(closest_sq, ((points - centroids[c]) ** 2).sum(axis=1))
    assignment = None
    for _iter in range(max_iters):
        dists = broadcast_squared_distances(points, centroids)
        new_assignment = dists.argmin(axis=1)
        own_dist = dists[np.arange(n), new_assignment].copy()
        for c in range(k):
            if not (new_assignment == c).any():
                counts = np.bincount(new_assignment, minlength=k)
                eligible = counts[new_assignment] >= 2
                masked = np.where(eligible, own_dist, -np.inf)
                worst = int(masked.argmax())
                new_assignment[worst] = c
                own_dist[worst] = -np.inf
        if assignment is not None and (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assignment


def _kmeans_case(name):
    """(points, k) for one exactness case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    rows = selection._BLOCK_FLOATS // 256  # pairs per block at d=256; seeding measures n
    if name == "below_block_rows":
        return rng.normal(size=(rows - 1, 256)), 4
    if name == "equal_to_block_rows":
        return rng.normal(size=(rows, 256)), 4
    if name == "not_a_multiple_of_block_rows":
        return rng.normal(size=(2 * rows + 37, 256)), 4
    if name == "k_is_1":
        return rng.normal(size=(293, 256)), 1
    if name == "k_is_n":
        return rng.normal(size=(40, 16)), 40
    if name == "d_is_1":
        return rng.normal(size=(300, 1)), 6
    if name == "duplicates_force_repair":
        # 5 distinct points, 8 clusters: seeding repeats a point, so some
        # cluster starts empty and must be repaired
        return np.repeat(rng.normal(size=(5, 32)), 20, axis=0), 8
    if name == "negative_zeros":
        pts = rng.normal(size=(150, 64))
        pts[rng.random(pts.shape) < 0.3] = -0.0
        pts[::7] = 0.0
        pts[3::7] = -0.0
        return pts, 6
    if name == "near_ties_1ulp":
        # 60 copies of each of two poles and 40 points on their bisector: once
        # the poles are the seeds, a bisector point's two distances differ by
        # 0-2 ulps, closer than the estimate can tell
        base, step = rng.normal(size=8), rng.normal(size=8)
        v = 0.3 * rng.normal(size=(40, 8))
        v -= np.outer(v @ step, step) / (step @ step)
        return np.concatenate((np.repeat([base - step, base + step], 60, axis=0), base + v)), 2
    if name == "lattice_ties":
        # integer points 1000 from the origin: distances to seeds tie exactly,
        # and |p|^2 is 1e5 times them, so the estimate cannot order the pairs
        return 1000.0 + rng.integers(0, 4, size=(300, 4)), 6
    if name == "duplicate_centroids":
        # 3 distinct rows, 6 clusters: once every row is a seed, closest_sq is
        # all 0 and the next seeds repeat rows, so centroids tie exactly
        return np.repeat(rng.normal(size=(3, 16)), [10, 7, 13], axis=0), 6
    if name == "scale_1e-160":
        # squares are subnormal: below eps |p|^2, only the margin's floor keeps pairs
        return rng.normal(size=(300, 8)) * 1e-160, 6
    if name == "scale_1e154":
        # exact distances are finite, but |p|^2 + |c|^2 and 2 p.c overflow
        return (0.4 + 0.01 * rng.normal(size=(120, 8))) * 1e154, 4
    if name == "scale_1e154_overflow":
        return rng.normal(size=(120, 8)) * 1e154, 4  # exact distances overflow too
    if name in ("nan_row", "inf_row"):
        pts = rng.normal(size=(80, 8))
        pts[17, 3] = np.nan if name == "nan_row" else np.inf
        return pts, 4
    raise ValueError(name)


KMEANS_CASES = (
    "below_block_rows", "equal_to_block_rows", "not_a_multiple_of_block_rows",
    "k_is_1", "k_is_n", "d_is_1", "duplicates_force_repair", "negative_zeros",
    "near_ties_1ulp", "lattice_ties", "duplicate_centroids", "scale_1e-160", "scale_1e154",
    "scale_1e154_overflow", "nan_row", "inf_row",
)


@st.composite
def sparse_encodings(draw):
    """(points, k) shaped like cross query encodings: 64 dims, 2-6 nonzeros
    a row, the rest 0.0 or -0.0, with repeated rows."""
    distinct = draw(st.integers(1, 12))
    rows = []
    for _ in range(distinct):
        row = [draw(st.sampled_from((0.0, -0.0))) for _ in range(64)]
        nonzero = draw(st.lists(st.integers(0, 63), min_size=2, max_size=6, unique=True))
        for j in nonzero:
            row[j] = draw(
                st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False).filter(bool)
            )
        rows.append(row)
    order = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=30))
    points = np.array([rows[i] for i in order])
    return points, draw(st.integers(1, len(points)))


def kmeans_passes(points, k, seed, max_iters):
    """Assignments after each Lloyd pass, from the oracle, and whether the
    last pass found nothing to change."""
    passes = []
    for p in range(1, max_iters + 1):
        labels = oracle_kmeans(points, k, np.random.default_rng(seed), max_iters=p)
        if passes and np.array_equal(labels, passes[-1]):
            return passes, True
        passes.append(labels)
    return passes, False


class TestSelectRandom:
    def test_exhaustion(self):
        rng = np.random.default_rng(0)
        assert sorted(select_random(["a", "b", "c"], 5, rng)) == ["a", "b", "c"]

    def test_deterministic(self):
        pool = [f"q{i}" for i in range(20)]
        a = select_random(pool, 5, np.random.default_rng(42))
        b = select_random(pool, 5, np.random.default_rng(42))
        assert a == b

    def test_empty_pool(self):
        with pytest.raises(ValueError, match="empty pool"):
            select_random([], 1, np.random.default_rng(0))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(10_000):
            counts[select_random(["a", "b", "c"], 1, rng)[0]] += 1
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 3) < 0.02


def _uncertainty_fixture():
    corpus = Corpus({f"d{i}": f"tok{i} tok{i + 1}" for i in range(30)})
    queries = QuerySet({f"q{i}": f"tok{i} tok{i + 2}" for i in range(10)})
    rankings = {
        qid: RankedList(qid, [(f"d{(i + j) % 30}", 5.0 - j) for j in range(5)])
        for i, qid in enumerate(queries.ids())
    }
    run = Run("bm25", rankings)
    ranker = Ranker(RankerConfig(architecture="cross", dim=16))
    state = ranker.init_state(3)
    return ranker, state, corpus, queries, run


class TestSelectUncertainty:
    def test_exact_mean_hit(self):
        # scores 0.1, 0.5, 0.9 -> mean 0.5 -> the 0.5 pair wins
        class Fake:
            def score(self, state, q, d):
                return {"x": 0.1, "y": 0.5}[d] if q == "one" else 0.9

            def score_batch(self, state, q, docs):
                return np.array([self.score(state, q, d) for d in docs])

        corpus = Corpus({"p1": "x", "p2": "y"})
        queries = QuerySet({"q1": "one", "q2": "two"})
        run = Run("t", {
            "q1": RankedList("q1", [("p1", 2.0), ("p2", 1.0)]),
            "q2": RankedList("q2", [("p1", 1.0)]),
        })
        out = select_uncertainty(Fake(), None, ["q1", "q2"], queries, run, corpus, 10, 1)
        assert [(q, d) for q, d, _ in out] == [("q1", "p2")]

    def test_all_equal_tie_break(self):
        class Flat:
            def score(self, state, q, d):
                return 1.0

            def score_batch(self, state, q, docs):
                return np.array([self.score(state, q, d) for d in docs])

        corpus = Corpus({"a": "x", "b": "y"})
        queries = QuerySet({"q1": "t", "q2": "t2"})
        run = Run("t", {
            "q1": RankedList("q1", [("b", 2.0), ("a", 1.0)]),
            "q2": RankedList("q2", [("a", 1.0)]),
        })
        out = select_uncertainty(Flat(), None, ["q2", "q1"], queries, run, corpus, 10, 3)
        assert [(q, d) for q, d, _ in out] == [("q1", "a"), ("q1", "b"), ("q2", "a")]

    def test_matches_brute_force(self):
        ranker, state, corpus, queries, run = _uncertainty_fixture()
        pool = queries.ids()
        out = select_uncertainty(ranker, state, pool, queries, run, corpus, 5, 5)
        # oracle: enumerate every (q, d) score, sort by |score - global mean|
        scores = {}
        for qid in pool:
            for did in run[qid].doc_ids()[:5]:
                scores[(qid, did)] = ranker.score(state, queries[qid], corpus[did])
        mean = sum(scores.values()) / len(scores)
        expected = sorted(scores, key=lambda p: (abs(scores[p] - mean), p[0], p[1]))[:5]
        assert [(q, d) for q, d, _ in out] == expected

    def test_pool_order_invariance(self):
        ranker, state, corpus, queries, run = _uncertainty_fixture()
        pool = queries.ids()
        a = select_uncertainty(ranker, state, pool, queries, run, corpus, 5, 4)
        b = select_uncertainty(ranker, state, pool[::-1], queries, run, corpus, 5, 4)
        assert a == b

    def test_one_pair_per_query_flag(self):
        ranker, state, corpus, queries, run = _uncertainty_fixture()
        out = select_uncertainty(
            ranker, state, queries.ids(), queries, run, corpus, 5, 6, one_pair_per_query=True
        )
        qids = [q for q, _, _ in out]
        assert len(qids) == len(set(qids))

    def test_no_candidates(self):
        corpus = Corpus({"a": "x"})
        queries = QuerySet({"q1": "t"})
        with pytest.raises(ValueError, match="no candidates"):
            select_uncertainty(None, None, ["q1"], queries, Run("t", {}), corpus, 5, 1)

    @pytest.mark.parametrize("s", [0, -1])
    def test_rejects_s_below_one(self, s):
        corpus = Corpus({"d1": "a"})
        queries = QuerySet({"q1": "t"})
        run = Run("t", {"q1": RankedList("q1", [("d1", 1.0)])})
        with pytest.raises(ValueError, match="s must be >= 1"):
            select_uncertainty(None, None, ["q1"], queries, run, corpus, 5, s)

    def test_mean_is_a_left_to_right_sum(self):
        """The mean is the sum of a plain loop from 0.0, on every Python:
        sum() compensates its additions from 3.12 on, which gives 1.0 here
        instead of 0.0."""
        values = {"a": 1e16, "b": 1.0, "c": -1e16}

        class Scripted:
            def score_batch(self, state, q, docs):
                return np.array([values[d] for d in docs])

        corpus = Corpus({"d1": "a", "d2": "b", "d3": "c"})
        queries = QuerySet({"q1": "t"})
        run = Run("t", {"q1": RankedList("q1", [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)])})
        out = select_uncertainty(Scripted(), None, ["q1"], queries, run, corpus, 10, 3)
        total = 0.0
        for score in values.values():
            total += score
        mean = total / 3
        assert mean == 0.0
        want = sorted(
            (("q1", did, abs(values[text] - mean)) for did, text in corpus.items()),
            key=lambda e: (e[2], e[0], e[1]),
        )
        assert out == want
        assert out[0] == ("q1", "d2", 1.0)


class TestVoteEntropy:
    def test_full_agreement_zero(self):
        r = RankedList("q", [("a", 2.0), ("b", 1.0)])
        assert vote_entropy([r, r]) == 0.0

    def test_single_pair_disagreement_ln2(self):
        a = RankedList("q", [("a", 2.0), ("b", 1.0)])
        b = RankedList("q", [("b", 2.0), ("a", 1.0)])
        assert vote_entropy([a, b]) == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_oracle_three_members(self):
        rng = np.random.default_rng(5)
        docs = ["a", "b", "c", "d"]
        for _ in range(50):
            rankings = []
            for _ in range(3):
                scores = rng.permutation(len(docs)).astype(float)
                rankings.append(RankedList("q", list(zip(docs, scores))))
            assert vote_entropy(rankings) == pytest.approx(
                oracle_vote_entropy(rankings), rel=1e-12
            )

    def test_truncated_pair_depth(self):
        rng = np.random.default_rng(8)
        docs = [f"d{i}" for i in range(6)]
        rankings = [
            RankedList("q", list(zip(docs, rng.permutation(len(docs)).astype(float))))
            for _ in range(2)
        ]
        assert vote_entropy(rankings, pair_depth=3) == pytest.approx(
            oracle_vote_entropy(rankings, pair_depth=3), rel=1e-12
        )

    def test_equals_oracle_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for trial in range(120):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 101))
            docs = [f"d{i}" for i in range(n)]
            base = rng.permutation(n).astype(float)
            # members perturb one base order, so vote counts span 0..m
            rankings = [
                RankedList("q", list(zip(docs, base + rng.normal(scale=n / 4, size=n))))
                for _ in range(m)
            ]
            for pair_depth in (None, int(rng.integers(2, n + 1))):
                got = vote_entropy(rankings, pair_depth)
                want = oracle_vote_entropy(rankings, pair_depth)
                assert got == want and math.copysign(1, got) == math.copysign(1, want), trial

    def test_full_agreement_is_negative_zero_like_the_oracle(self):
        r = RankedList("q", [(f"d{i}", float(i)) for i in range(7)])
        got = vote_entropy([r, r, r])
        assert got == oracle_vote_entropy([r, r, r]) == 0.0
        assert math.copysign(1, got) == -1.0

    def test_mismatched_candidates(self):
        a = RankedList("q", [("a", 2.0), ("b", 1.0)])
        b = RankedList("q", [("a", 2.0), ("c", 1.0)])
        with pytest.raises(ValueError, match="different candidate sets"):
            vote_entropy([a, b])

    def test_nonnegative_and_complement_votes(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i}" for i in range(5)]
        for _ in range(30):
            rankings = [
                RankedList("q", list(zip(docs, rng.permutation(len(docs)).astype(float))))
                for _ in range(3)
            ]
            ve = vote_entropy(rankings)
            assert ve >= 0.0
            # complement pair counts sum to committee size
            pos = [{d: i for i, d in enumerate(r.doc_ids())} for r in rankings]
            for p, q in itertools.combinations(docs, 2):
                n_pq = sum(1 for m in pos if m[p] < m[q])
                n_qp = sum(1 for m in pos if m[q] < m[p])
                assert n_pq + n_qp == 3

    def test_log_base_rescales_only(self):
        # entropy in another base is a positive multiple -> same argmax ordering
        rng = np.random.default_rng(9)
        docs = [f"d{i}" for i in range(4)]
        ves = []
        for _ in range(10):
            rankings = [
                RankedList("q", list(zip(docs, rng.permutation(len(docs)).astype(float))))
                for _ in range(2)
            ]
            ves.append(vote_entropy(rankings))
        base2 = [v / math.log(2) for v in ves]
        assert np.argsort(ves).tolist() == np.argsort(base2).tolist()

    def test_monotone_transform_of_scores_invariant(self):
        a = RankedList("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
        b = RankedList("q", [("b", 9.0), ("c", 5.0), ("a", 1.0)])
        a2 = RankedList("q", [(d, math.exp(s)) for d, s in a.entries])
        b2 = RankedList("q", [(d, 10 * s + 3) for d, s in b.entries])
        assert vote_entropy([a, b]) == vote_entropy([a2, b2])


class TestSelectQbc:
    def _fixture(self):
        corpus = Corpus({f"d{i}": f"t{i} t{i + 1} t{i + 2}" for i in range(20)})
        queries = QuerySet({f"q{i}": f"t{2 * i} t{2 * i + 1}" for i in range(8)})
        rankings = {
            qid: RankedList(qid, [(f"d{(3 * i + j) % 20}", 9.0 - j) for j in range(6)])
            for i, qid in enumerate(queries.ids())
        }
        return corpus, queries, Run("bm25", rankings)

    def test_identical_members_degenerate_to_qid_order(self):
        corpus, queries, run = self._fixture()
        ranker = Ranker(RankerConfig(architecture="cross", dim=16))
        state = ranker.init_state(1)
        out = select_qbc(ranker, [state, state.copy()], queries.ids(), queries, run, corpus, 6, 3)
        assert [q for q, _ in out] == sorted(queries.ids())[:3]
        assert all(ve == 0.0 for _, ve in out)

    def test_matches_brute_force_ranking(self):
        corpus, queries, run = self._fixture()
        ranker = Ranker(RankerConfig(architecture="cross", dim=16))
        committee = [ranker.init_state(1), ranker.init_state(2)]
        out = select_qbc(ranker, committee, queries.ids(), queries, run, corpus, 6, 3)
        oracle = []
        for qid in queries.ids():
            rankings = [ranker.rerank(m, queries[qid], run[qid].top(6), corpus) for m in committee]
            oracle.append((qid, oracle_vote_entropy(rankings)))
        oracle.sort(key=lambda e: (-e[1], e[0]))
        assert [q for q, _ in out] == [q for q, _ in oracle[:3]]
        for (_, got), (_, want) in zip(out, oracle[:3]):
            assert got == pytest.approx(want, rel=1e-12)

    def test_queries_without_pairs_have_zero_entropy(self):
        corpus, queries, run = self._fixture()
        rankings = dict(run.rankings)
        rankings["q1"] = RankedList("q1", [])
        rankings["q2"] = RankedList("q2", [("d0", 1.0)])
        run = Run("bm25", rankings)
        ranker = Ranker(RankerConfig(architecture="cross", dim=16))
        committee = [ranker.init_state(1), ranker.init_state(2)]
        out = select_qbc(ranker, committee, queries.ids(), queries, run, corpus, 6, 8)
        # they follow every scored query, in id order
        assert out[-2:] == [("q1", 0.0), ("q2", 0.0)]
        assert [q for q, _ in out[:6]] == [q for q, _ in select_qbc(
            ranker, committee, queries.ids(), queries, run, corpus, 6, 6)]
        assert select_qbc(ranker, committee, ["q2", "q1"], queries, run, corpus, 6, 1) == [
            ("q1", 0.0)
        ]

    def test_committee_size_validation(self):
        corpus, queries, run = self._fixture()
        ranker = Ranker(RankerConfig(architecture="cross", dim=16))
        with pytest.raises(ValueError, match="at least 2"):
            select_qbc(ranker, [ranker.init_state(0)], queries.ids(), queries, run, corpus, 6, 3)

    def test_pair_depth_validation(self):
        corpus, queries, run = self._fixture()
        ranker = Ranker(RankerConfig(architecture="cross", dim=16))
        committee = [ranker.init_state(1), ranker.init_state(2)]
        with pytest.raises(ValueError, match="pair depth must be >= 2"):
            select_qbc(ranker, committee, queries.ids(), queries, run, corpus, 6, 3, pair_depth=1)


class _ScriptedRanker(Ranker):
    """A Ranker whose member "state" is its list of scores, one per candidate."""

    def __init__(self):
        super().__init__(RankerConfig(architecture="cross", dim=4))

    def score_batch(self, state, query_text, doc_texts):
        assert len(state) == len(doc_texts)
        return np.array(state, dtype=float)


# few distinct values, so members tie often; 0.0 and -0.0 tie too
_tied_scores = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])


@given(members=st.integers(2, 4), n=st.integers(2, 12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_qbc_equals_oracle_over_reranks(members, n, data):
    """select_qbc gives the vote entropy of the members' Ranker.rerank lists,
    bit for bit: ties (0.0 with -0.0 included) broken by doc id, whose string
    order differs from the candidates' order."""
    doc_ids = data.draw(st.permutations([f"d{i}" for i in range(n)]))
    committee = [data.draw(st.lists(_tied_scores, min_size=n, max_size=n)) for _ in range(members)]
    pair_depth = data.draw(st.none() | st.integers(2, n))
    corpus = Corpus({did: "x" for did in doc_ids})
    candidates = RankedList("q", [(did, float(n - k)) for k, did in enumerate(doc_ids)])
    ranker = _ScriptedRanker()
    [(_, got)] = select_qbc(ranker, committee, ["q"], QuerySet({"q": "t"}),
                            Run("bm25", {"q": candidates}), corpus, n, 1, pair_depth=pair_depth)
    rankings = [ranker.rerank(member, "t", candidates, corpus) for member in committee]
    want = oracle_vote_entropy(rankings, pair_depth)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)
    public = vote_entropy(rankings, pair_depth)
    assert public == want and math.copysign(1, public) == math.copysign(1, want)


class TestPicksEqualRerankBruteForce:
    """Uncertainty and QBC picks on a generated bundle equal a brute force
    over `Ranker.rerank` lists."""

    DEPTH = 12

    @pytest.mark.parametrize("arch", ["cross", "maxsim"])
    @pytest.mark.parametrize("one_pair_per_query", [False, True])
    def test_uncertainty(self, tiny_bundle, arch, one_pair_per_query):
        ranker = Ranker(RankerConfig(architecture=arch, dim=32, hash_buckets=64))
        state = ranker.init_state(4)
        b = tiny_bundle
        pool = b.train_queries.ids()
        scored = []
        for qid in pool:
            candidates = b.negatives[qid].top(self.DEPTH)
            if len(candidates):
                reranked = ranker.rerank(state, b.train_queries[qid], candidates, b.corpus)
                score = dict(reranked.entries)
                # in candidate order, which the mean's additions follow
                scored += [(qid, did, score[did]) for did in candidates.doc_ids()]
        total = 0.0
        for _, _, score in scored:
            total += score
        mean = total / len(scored)
        ranked = sorted(((q, d, abs(s - mean)) for q, d, s in scored),
                        key=lambda e: (e[2], e[0], e[1]))
        if one_pair_per_query:
            ranked = [e for k, e in enumerate(ranked)
                      if e[0] not in {f[0] for f in ranked[:k]}]
        got = select_uncertainty(ranker, state, pool, b.train_queries, b.negatives, b.corpus,
                                 self.DEPTH, 9, one_pair_per_query=one_pair_per_query)
        assert got == ranked[:9]

    @pytest.mark.parametrize("arch", ["cross", "maxsim"])
    @pytest.mark.parametrize("pair_depth", [None, 4])
    def test_qbc(self, tiny_bundle, arch, pair_depth):
        ranker = Ranker(RankerConfig(architecture=arch, dim=32, hash_buckets=64))
        committee = [ranker.init_state(seed) for seed in (1, 2, 3)]
        b = tiny_bundle
        pool = b.train_queries.ids()
        scored, unscored = [], []
        for qid in pool:
            candidates = b.negatives[qid].top(self.DEPTH)
            if len(candidates) < 2:
                unscored.append((qid, 0.0))
                continue
            rankings = [ranker.rerank(m, b.train_queries[qid], candidates, b.corpus)
                        for m in committee]
            scored.append((qid, oracle_vote_entropy(rankings, pair_depth)))
        want = (sorted(scored, key=lambda e: (-e[1], e[0])) + sorted(unscored))[:9]
        got = select_qbc(ranker, committee, pool, b.train_queries, b.negatives, b.corpus,
                         self.DEPTH, 9, pair_depth=pair_depth)
        assert got == want


class TestKmeans:
    @pytest.mark.parametrize("block_floats", ["default", 64])
    @pytest.mark.parametrize("case", KMEANS_CASES)
    def test_equals_broadcast_oracle_bit_for_bit(self, case, block_floats, monkeypatch):
        points, k = _kmeans_case(case)
        n = len(points)
        if block_floats != "default":  # blocks of 1 pair, 64 at d=1
            monkeypatch.setattr(selection, "_BLOCK_FLOATS", block_floats)
        # the oracle itself overflows or subtracts inf from inf on these
        quiet = {"scale_1e154_overflow": {"over": "ignore"}, "inf_row": {"invalid": "ignore"}}
        with np.errstate(**quiet.get(case, {})):
            for seed in range(3, 8):
                expected = oracle_kmeans(points, k, np.random.default_rng(seed))
                got = kmeans(points, k, np.random.default_rng(seed))
                assert got.tobytes() == expected.tobytes(), seed
                if case in ("duplicates_force_repair", "duplicate_centroids"):
                    assert sorted(set(expected.tolist())) == list(range(k))
            # with no bound to beat, every (i, c) pair is measured
            centroids = points[np.random.default_rng(5).choice(n, k, replace=False)]
            point_sq = np.einsum("ij,ij->i", points, points)
            every = np.full(n, np.inf)
            assert (
                selection._near_distances(points, point_sq, centroids, every).tobytes()
                == broadcast_squared_distances(points, centroids).tobytes()
            )
            for c in range(k):
                column = selection._near_distances(points, point_sq, centroids[c : c + 1], every)
                assert column[:, 0].tobytes() == ((points - centroids[c]) ** 2).sum(axis=1).tobytes()

    @given(
        case=sparse_encodings(),
        max_iters=st.sampled_from((1, 2, 100)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_sparse_encodings_equal_oracle_byte_for_byte(self, case, max_iters, seed):
        points, k = case
        expected = oracle_kmeans(points, k, np.random.default_rng(seed), max_iters=max_iters)
        got = kmeans(points, k, np.random.default_rng(seed), max_iters=max_iters)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_pairs_that_can_be_nearest_are_measured(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        k, d = 12, 32
        centers = rng.normal(scale=4.0, size=(k, d))
        points = centers[rng.integers(k, size=300)] + rng.normal(size=(300, d))
        n = len(points)
        passes, converged = kmeans_passes(points, k, seed, 100)
        # passes run, counting the one that found nothing to change
        run = len(passes) + 1 if converged else len(passes)
        assert run >= 3
        calls = []  # pairs measured per call; "seeded" marks the end of seeding
        measure, seed_fn = selection._near_distances, selection._kmeans_pp_seeds

        def counting(*args):
            dists = measure(*args)
            calls.append(int(np.isfinite(dists).sum()))  # pruned pairs read +inf
            return dists

        def seeding(*args):
            seeds = seed_fn(*args)
            calls.append("seeded")
            return seeds

        monkeypatch.setattr(selection, "_near_distances", counting)
        monkeypatch.setattr(selection, "_kmeans_pp_seeds", seeding)
        labels = kmeans(points, k, np.random.default_rng(seed))
        assert labels.tobytes() == passes[-1].tobytes()
        seeding_calls, pass_calls = calls[: calls.index("seeded")], calls[calls.index("seeded") + 1 :]
        # the first seed is measured at every point, each later one where it may
        # lower closest_sq; then one call per pass
        assert len(seeding_calls) == k and seeding_calls[0] == n
        assert sum(seeding_calls) < n * k
        assert len(pass_calls) == run
        # every point keeps at least its nearest pair, and far fewer than all k
        assert all(n <= pairs < n * k / 4 for pairs in pass_calls)

    @pytest.mark.parametrize(
        "where, step_scale, spread",
        # near the origin a bisector point's two distances differ by 0-2 ulps;
        # about 1000 from it, with centroids 2e-5 apart, the estimate's rounding
        # (about eps |p|^2 = 1e-10) dwarfs the distances themselves
        [("origin", 1.0, 1.0), ("far", 1e-5, 1e-12)],
    )
    def test_margin_keeps_the_pairs_the_estimate_cannot_order(self, where, step_scale, spread):
        ties = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for d in (1, 2, 3, 8):
                base = rng.normal(size=d) if where == "origin" else rng.uniform(500, 2000, size=d)
                step = rng.normal(size=d) * step_scale
                centroids = np.stack((base - step, base + step, base + 3 * step))
                v = rng.normal(size=(300, d)) * spread
                points = base + v - np.outer(v @ step, step) / (step @ step)  # on the bisector
                point_sq = np.einsum("ij,ij->i", points, points)
                got = selection._near_distances(points, point_sq, centroids)
                exact = broadcast_squared_distances(points, centroids)
                kept = np.isfinite(got)
                assert got[kept].tobytes() == exact[kept].tobytes()
                least = exact.min(axis=1, keepdims=True)
                assert (exact > least)[~kept].all()
                assert got.argmin(axis=1).tobytes() == exact.argmin(axis=1).tobytes()
                gap = np.abs(exact[:, 0] - exact[:, 1]) / np.spacing(least[:, 0])
                ties += int((gap <= 1).sum())
        if where == "origin":
            assert ties > 10000, ties  # of 24000 points, so the ties are really there

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            kmeans(np.zeros((4, 2)), 2, np.random.default_rng(0), max_iters=0)

    def test_traced_peak_is_below_one_copy_of_the_points(self):
        points = np.random.default_rng(0).normal(size=(2000, 512))
        tracemalloc.start()
        try:
            kmeans(points, 20, np.random.default_rng(0), max_iters=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (n, k, d) broadcast would need 2000 * 20 * 512 * 8 bytes = 164 MB
        assert peak < points.nbytes

    def test_separated_clusters(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = kmeans(pts, 2, np.random.default_rng(0))
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_singleton_clusters(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        labels = kmeans(pts, 3, np.random.default_rng(1))
        assert sorted(labels.tolist()) == [0, 1, 2]

    def test_k_exceeds_points(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((2, 3)), 5, np.random.default_rng(0))

    def test_identical_points_repair_yields_nonempty_clusters(self):
        pts = np.zeros((6, 2))
        labels = kmeans(pts, 4, np.random.default_rng(2))
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 3))

        def objective(labels):
            total = 0.0
            for c in set(labels.tolist()):
                members = pts[labels == c]
                total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        # run with increasing iteration caps; objective must not increase
        prev = None
        for iters in (1, 2, 4, 8, 16):
            labels = kmeans(pts, 5, np.random.default_rng(7), max_iters=iters)
            obj = objective(labels)
            if prev is not None:
                assert obj <= prev + 1e-9
            prev = obj


class TestSelectDiversity:
    def test_full_pool(self):
        queries = QuerySet({f"q{i}": f"tok{i}" for i in range(5)})
        ranker = Ranker(RankerConfig(architecture="bi", dim=8, hash_buckets=32))
        state = ranker.init_state(0)
        out = select_diversity(ranker, state, queries.ids(), queries, 5, np.random.default_rng(0))
        assert sorted(out) == sorted(queries.ids())

    def test_identical_embeddings_still_distinct(self):
        queries = QuerySet({f"q{i}": "same text" for i in range(6)})
        ranker = Ranker(RankerConfig(architecture="bi", dim=8, hash_buckets=32))
        state = ranker.init_state(0)
        out = select_diversity(ranker, state, queries.ids(), queries, 3, np.random.default_rng(1))
        assert len(out) == len(set(out)) == 3

    def test_s_exceeds_pool(self):
        queries = QuerySet({"q1": "a"})
        ranker = Ranker(RankerConfig(architecture="bi", dim=8, hash_buckets=32))
        with pytest.raises(ValueError, match="exceeds pool"):
            select_diversity(ranker, ranker.init_state(0), ["q1"], queries, 2, np.random.default_rng(0))

    def test_topic_spread_monte_carlo(self):
        # three disjoint topic vocabularies; queries within a topic share one
        # token set so their embeddings coincide and clusters are separable
        topics = {"t0": "alpha bravo", "t1": "delta echo", "t2": "golf hotel"}
        texts = {}
        for t, text in topics.items():
            for i in range(4):
                texts[f"{t}_q{i}"] = text if i % 2 == 0 else " ".join(reversed(text.split()))
        queries = QuerySet(texts)
        pool = queries.ids()
        ranker = Ranker(RankerConfig(architecture="bi", dim=64, hash_buckets=256))
        state = ranker.init_state(1)
        good = 0
        trials = 1000
        for t in range(trials):
            picked = select_diversity(ranker, state, pool, queries, 3, np.random.default_rng(t))
            if len({q.split("_")[0] for q in picked}) == 3:
                good += 1
        assert good / trials >= 0.95

    def test_picks_match_per_cluster_scan(self):
        """One draw per cluster from its members in sorted-pool order, as a
        Python scan of the pool per cluster gives them."""
        queries = QuerySet({f"q{i:02d}": f"tok{i % 5} tok{i % 3} w{i}" for i in range(14)})
        ranker = Ranker(RankerConfig(architecture="bi", dim=8, hash_buckets=32))
        state = ranker.init_state(0)
        pool = sorted(queries.ids())
        points = np.array([ranker.encode_query(state, queries[q]) for q in pool])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assignment = kmeans(points, 4, rng)
            expected = []
            for c in range(4):
                members = [q for q, a in zip(pool, assignment) if a == c]
                expected.append(members[rng.integers(len(members))])
            picked = select_diversity(ranker, state, pool[::-1], queries, 4,
                                      np.random.default_rng(seed))
            assert picked == expected


class TestSelectionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(strategy="bogus")
        with pytest.raises(ValueError):
            SelectionConfig(samples_per_iteration=0)
        with pytest.raises(ValueError):
            SelectionConfig(committee_size=1)
        with pytest.raises(ValueError):
            SelectionConfig(member_fraction=0.0)

    def test_candidate_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="candidate_depth"):
            SelectionConfig(candidate_depth=0)
        assert SelectionConfig(candidate_depth=1).candidate_depth == 1

    def test_kmeans_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError, match="kmeans_max_iters"):
            SelectionConfig(strategy="diversity", kmeans_max_iters=0)
        assert SelectionConfig(kmeans_max_iters=1).kmeans_max_iters == 1

    def test_entropy_pair_depth_below_two_rejected(self):
        with pytest.raises(ValueError, match="entropy_pair_depth"):
            SelectionConfig(strategy="qbc", entropy_pair_depth=1)
        assert SelectionConfig(entropy_pair_depth=2).entropy_pair_depth == 2
        assert SelectionConfig(entropy_pair_depth=None).entropy_pair_depth is None
