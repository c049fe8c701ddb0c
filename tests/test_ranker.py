import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank import ranker as ranker_module
from alrank.datamodel import Corpus, QuerySet, RankedList, TrainingTriplet
from alrank.experiment import Experiment, ExperimentConfig
from alrank.lexical import build_index, tokenize
from alrank.ranker import (
    Ranker,
    RankerConfig,
    load_checkpoint,
    ranknet_gradient,
    ranknet_loss,
    save_checkpoint,
)
from alrank.selection import SelectionConfig


def oracle_cross_features(query: str, doc: str | None, dim: int, seed: int) -> np.ndarray:
    """Independent reimplementation of the cross-scorer feature map."""
    import re

    def toks(text):
        return re.findall(r"[^\W_]+", text.lower(), re.UNICODE)

    def hashed(key):
        digest = hashlib.blake2b(
            key.encode(), digest_size=8, key=seed.to_bytes(8, "little")
        ).digest()
        h = int.from_bytes(digest, "little")
        return (h >> 1) % dim, 1.0 if h & 1 else -1.0

    q = toks(query)
    vec = np.zeros(dim)
    if not q:
        return vec
    d = toks(doc) if doc is not None else []
    for t in set(q):
        c = q.count(t)
        idx, sign = hashed(f"q|{t}")
        vec[idx] += sign * c / len(q)
        tf = d.count(t)
        if tf:
            idx, sign = hashed(f"m|{t}")
            vec[idx] += sign * c * (1.0 + math.log(tf)) / len(q)
    return vec


def per_call_cross_features(
    query_text: str, doc_text: str | None, dim: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cross feature map computed from scratch: both texts tokenized and
    every ``q|t``/``m|t`` key hashed on each call. The reference for the
    cached `Ranker.cross_features`."""

    def signed_bucket(feature_key):
        digest = hashlib.blake2b(
            feature_key.encode(), digest_size=8, key=seed.to_bytes(8, "little")
        ).digest()
        h = int.from_bytes(digest, "little")
        return (h >> 1) % dim, 1.0 if h & 1 else -1.0

    q_tokens = tokenize(query_text)
    if not q_tokens:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    q_counts: dict[str, int] = {}
    for t in q_tokens:
        q_counts[t] = q_counts.get(t, 0) + 1
    d_counts: dict[str, int] = {}
    if doc_text is not None:
        for t in tokenize(doc_text):
            d_counts[t] = d_counts.get(t, 0) + 1

    values: dict[int, float] = {}

    def add(feature_key: str, value: float) -> None:
        idx, sign = signed_bucket(feature_key)
        values[idx] = values.get(idx, 0.0) + sign * value

    n_q = len(q_tokens)
    for t, c in q_counts.items():
        add(f"q|{t}", c / n_q)
        tf = d_counts.get(t, 0)
        if tf > 0:
            add(f"m|{t}", c * (1.0 + math.log(tf)) / n_q)

    idx = np.array(sorted(values), dtype=np.int64)
    vals = np.array([values[i] for i in idx])
    return idx, vals


def small_ranker(arch, dim=16, buckets=48, **kw):
    return Ranker(RankerConfig(architecture=arch, dim=dim, hash_buckets=buckets, **kw))


class TestRankNetLoss:
    def test_equal_scores(self):
        assert ranknet_loss(1.0, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_limit_large_margin(self):
        assert ranknet_loss(100.0, 0.0) < 1e-40
        assert ranknet_loss(0.0, 100.0) == pytest.approx(100.0, rel=1e-6)

    def test_overflow_safe(self):
        assert math.isfinite(ranknet_loss(-1e6, 1e6))
        assert math.isfinite(ranknet_loss(1e6, -1e6))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-4
        for _ in range(100):
            sp, sn = rng.normal(size=2) * 3
            sigma = rng.uniform(0.5, 2.0)
            gp, gn = ranknet_gradient(sp, sn, sigma)
            fd_p = (ranknet_loss(sp + h, sn, sigma) - ranknet_loss(sp - h, sn, sigma)) / (2 * h)
            fd_n = (ranknet_loss(sp, sn + h, sigma) - ranknet_loss(sp, sn - h, sigma)) / (2 * h)
            assert gp == pytest.approx(fd_p, rel=1e-5, abs=1e-9)
            assert gn == pytest.approx(fd_n, rel=1e-5, abs=1e-9)


class TestScoring:
    def test_zero_weights_score_zero(self):
        for arch in ("cross", "bi", "maxsim"):
            ranker = small_ranker(arch)
            state = ranker.init_state(0, zero=True)
            assert ranker.score(state, "apple pear", "pear fig") == 0.0

    def test_empty_texts_score_zero(self):
        ranker = small_ranker("bi")
        state = ranker.init_state(3)
        assert ranker.score(state, "", "apple") == 0.0
        assert ranker.score(state, "apple", "") == 0.0

    def test_maxsim_single_query_token(self):
        ranker = small_ranker("maxsim")
        state = ranker.init_state(5)
        emb = state.arrays["emb"]
        h = ranker._hasher
        b = ranker.config.hash_buckets
        e_q, e_a, e_b = (emb[h.bucket(t, b)] for t in ("q0", "alpha", "beta"))
        expected = max(float(e_q @ e_a), float(e_q @ e_b))
        assert ranker.score(state, "q0", "alpha beta") == pytest.approx(expected, rel=1e-12)

    def test_cross_matches_independent_feature_oracle(self):
        cfg = RankerConfig(architecture="cross", dim=32, hash_seed=9)
        ranker = Ranker(cfg)
        state = ranker.init_state(1)
        rng = np.random.default_rng(4)
        vocab = ["apple", "pear", "fig", "kiwi", "plum"]
        for _ in range(20):
            q = " ".join(rng.choice(vocab, size=rng.integers(1, 4)))
            d = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
            phi = oracle_cross_features(q, d, cfg.dim, cfg.hash_seed)
            assert ranker.score(state, q, d) == pytest.approx(
                float(state.arrays["w"] @ phi), rel=1e-12, abs=1e-15
            )

    def test_bi_repeated_token_mean(self):
        ranker = small_ranker("bi")
        state = ranker.init_state(2)
        np.testing.assert_allclose(
            ranker.encode_query(state, "apple apple"), ranker.encode_query(state, "apple")
        )

    def test_encode_query_shape_and_empty(self):
        for arch in ("cross", "bi", "maxsim"):
            ranker = small_ranker(arch, dim=16)
            state = ranker.init_state(0)
            assert ranker.encode_query(state, "apple pear").shape == (16,)
            assert not ranker.encode_query(state, "").any()

    def test_score_is_pure(self):
        ranker = small_ranker("maxsim")
        state = ranker.init_state(7)
        a = ranker.score(state, "apple pear", "pear fig kiwi")
        b = ranker.score(state, "apple pear", "pear fig kiwi")
        assert a == b


class TestCrossFeatureExactness:
    """cross_features equals the feature map computed per call, byte for byte."""

    QUERIES = [
        "apple pear", "apple apple pear apple", "kiwi kiwi", "Apple PEAR fig", "date lime plum",
        "fig, fig; fig! kiwi", "", "?! ...", "a_b a-b",
    ]
    DOCS = [
        "apple pear fig apple", "plum date", "APPLE apple Pear", "kiwi kiwi kiwi fig",
        "nothing shared here", "", "--", "a b a b",
    ]

    @classmethod
    def _texts(cls):
        # plus seeded texts of up to 9 distinct terms with repeats, so that
        # several unequal values share a bucket and their order shows
        rng = np.random.default_rng(8)
        words = ["zeta", "kiwi", "apple", "fig", "pear", "plum", "date", "lime", "yam"]
        queries = [" ".join(rng.choice(words, size=k)) for k in (3, 5, 8, 12) for _ in range(4)]
        docs = [" ".join(rng.choice(words, size=k)) for k in (4, 9, 20) for _ in range(3)]
        return cls.QUERIES + queries, cls.DOCS + docs + [None]

    # dim 2 and 4 force q|t / m|t and distinct terms into shared buckets
    @pytest.mark.parametrize("dim", [2, 4, 64])
    @pytest.mark.parametrize("hash_seed", [0, 9])
    def test_equals_per_call_oracle_bytes(self, dim, hash_seed):
        ranker = Ranker(RankerConfig(architecture="cross", dim=dim, hash_seed=hash_seed))
        queries, docs = self._texts()
        for q in queries:
            for d in docs:
                idx, vals = ranker.cross_features(q, d)
                want_idx, want_vals = per_call_cross_features(q, d, dim, hash_seed)
                assert _same_bytes(idx, want_idx), (q, d)
                assert _same_bytes(vals, want_vals), (q, d)

    def test_encode_query_uses_the_doc_free_features(self):
        ranker = small_ranker("cross", dim=4)
        state = ranker.init_state(3)
        for q in self.QUERIES:
            idx, vals = per_call_cross_features(q, None, 4, 0)
            want = np.zeros(4)
            if idx.size:
                want[idx] = vals
                want = want * state.arrays["w"]
            assert _same_bytes(ranker.encode_query(state, q), want), q

    def test_doc_free_features_do_not_depend_on_call_order(self):
        # a corpus may hold any text, including one that looks like a cache tag
        corpus = Corpus({"d1": "\x00none"})
        want = per_call_cross_features("none", corpus["d1"], 16, 0)
        fresh = small_ranker("cross", dim=16)
        warmed = small_ranker("cross", dim=16)
        warmed.encode_query(warmed.init_state(0), "none")
        for ranker in (fresh, warmed):
            idx, vals = ranker.cross_features("none", corpus["d1"])
            assert _same_bytes(idx, want[0]) and _same_bytes(vals, want[1])


class TestTokenCache:
    def test_cross_run_tokenizes_each_text_once(self, tiny_bundle, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(ranker_module, "tokenize", counting_tokenize)
        config = ExperimentConfig(
            iterations=3,
            selection=SelectionConfig(strategy="qbc", samples_per_iteration=3, candidate_depth=20),
            ranker=RankerConfig(architecture="cross", dim=64, hash_buckets=128,
                                epochs_selection=2, epochs_evaluation=4),
            negatives_depth=50,
        )
        states = Experiment(config, tiny_bundle).run()
        assert len(states) == 3 and states[-1].triplets
        texts = {text for split in (tiny_bundle.corpus, tiny_bundle.train_queries,
                                    tiny_bundle.test_queries) for _, text in split.items()}
        assert len(calls) == len(set(calls)) <= len(texts)

    def test_texts_sharing_a_term_share_one_token_object(self):
        ranker = small_ranker("cross")
        state = ranker.init_state(0)
        ranker.score_batch(state, "Apple pear", ["pear fig", "FIG apple pear"])
        q, d1, d2 = (ranker._tokens(t) for t in ("Apple pear", "pear fig", "FIG apple pear"))
        assert q == ("apple", "pear") and d2 == ("fig", "apple", "pear")
        assert q[0] is d2[1] and q[1] is d1[0] is d2[2] and d1[1] is d2[0]
        assert not ranker._bucket_cache

    @pytest.mark.parametrize("arch", ["bi", "maxsim"])
    def test_embedding_models_keep_only_bucket_arrays(self, arch):
        ranker = small_ranker(arch)
        state = ranker.init_state(0)
        ranker.score_batch(state, "apple pear", ["pear fig", "fig apple"])
        ranker.loss_and_gradient(state, "apple", "pear fig", "fig apple")
        assert not ranker._token_cache and not ranker._term_cache
        assert set(ranker._bucket_cache) == {"apple pear", "pear fig", "fig apple", "apple"}


class TestRerank:
    def test_permutation_and_oracle_order(self):
        corpus = Corpus({f"d{i}": t for i, t in enumerate(
            ["apple pear", "fig kiwi apple", "plum plum", "pear pear fig"])})
        ranker = small_ranker("cross")
        state = ranker.init_state(5)
        candidates = RankedList("q", [(d, 1.0 - 0.1 * i) for i, d in enumerate(corpus.ids())])
        result = ranker.rerank(state, "apple pear", candidates, corpus)
        assert sorted(result.doc_ids()) == sorted(candidates.doc_ids())
        scores = {d: ranker.score(state, "apple pear", corpus[d]) for d in corpus.ids()}
        expected = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
        assert result.doc_ids() == [d for d, _ in expected]

    def test_zero_state_falls_back_to_docid_order(self):
        corpus = Corpus({"b": "x", "a": "y", "c": "z"})
        ranker = small_ranker("bi")
        state = ranker.init_state(0, zero=True)
        candidates = RankedList("q", [("b", 3.0), ("a", 2.0), ("c", 1.0)])
        assert ranker.rerank(state, "x", candidates, corpus).doc_ids() == ["a", "b", "c"]

    def test_equals_validating_constructor(self, monkeypatch):
        # tied scores and signed zeros: ties go to the smaller doc id, and each
        # entry keeps its score's bits
        ids = ["d3", "d0", "d7", "d1", "d5", "d2", "d6", "d4"]
        scores = np.array([0.0, -0.0, 1.5, 1.5, -0.0, 0.0, -2.0, 1.5])
        ranker = small_ranker("cross")
        monkeypatch.setattr(ranker, "score_batch", lambda *args: scores)
        candidates = RankedList("q", [(did, -float(i)) for i, did in enumerate(ids)])
        got = ranker.rerank(ranker.init_state(0), "x", candidates, Corpus({d: d for d in ids}))
        want = RankedList("q", list(zip(ids, scores.tolist())))
        assert got == want
        assert got.doc_ids() == ["d1", "d4", "d7", "d0", "d2", "d3", "d5", "d6"]
        assert repr(got.entries) == repr(want.entries)

    def test_bi_full_retrieval_equals_full_rerank(self, tiny_bundle):
        # exhaustive dot-product scoring over the corpus == rerank with all docs
        ranker = small_ranker("bi", dim=8, buckets=64)
        state = ranker.init_state(3)
        qid, text = next(iter(tiny_bundle.train_queries.items()))
        all_docs = RankedList(qid, [(d, 0.0) for d in tiny_bundle.corpus.ids()])
        reranked = ranker.rerank(state, text, all_docs, tiny_bundle.corpus)
        brute = sorted(
            ((d, ranker.score(state, text, tiny_bundle.corpus[d])) for d in tiny_bundle.corpus.ids()),
            key=lambda e: (-e[1], e[0]),
        )
        assert reranked.doc_ids() == [d for d, _ in brute]


def _finite_difference_check(arch, seed, rel_tol=1e-4):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(12)]
    ranker = small_ranker(arch, dim=6, buckets=24)
    state = ranker.init_state(int(rng.integers(1 << 30)))
    q = " ".join(rng.choice(vocab, size=rng.integers(1, 4), replace=False))
    pos = " ".join(rng.choice(vocab, size=rng.integers(1, 5), replace=False))
    neg = " ".join(rng.choice(vocab, size=rng.integers(1, 5), replace=False))
    _, grads = ranker.loss_and_gradient(state, q, pos, neg)
    h = 1e-4
    name = next(iter(state.arrays))
    w = state.arrays[name]
    flat_grad = grads[name].ravel()
    # probe a subset of coordinates for speed
    idx = rng.choice(w.size, size=min(w.size, 40), replace=False)
    for i in idx:
        orig = w.ravel()[i]
        w.ravel()[i] = orig + h
        lp = ranknet_losses(ranker, state, q, pos, neg)
        w.ravel()[i] = orig - h
        lm = ranknet_losses(ranker, state, q, pos, neg)
        w.ravel()[i] = orig
        fd = (lp - lm) / (2 * h)
        scale = max(abs(fd), abs(flat_grad[i]), 1e-8)
        assert abs(fd - flat_grad[i]) / scale <= rel_tol, (arch, seed, i, fd, flat_grad[i])


def ranknet_losses(ranker, state, q, pos, neg):
    return ranknet_loss(
        ranker.score(state, q, pos), ranker.score(state, q, neg), ranker.config.sigma
    )


@pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
def test_full_model_gradient_finite_differences(arch):
    for seed in range(25):
        _finite_difference_check(arch, seed)


def _oracle_loss_and_gradient(ranker, state, query, pos, neg):
    """The dense per-triplet algorithm: a zero array of the full weight shape per
    triplet, filled with np.add.at for the positive and then the negative doc."""
    s_pos, s_neg = ranker.score(state, query, pos), ranker.score(state, query, neg)
    g_pos, g_neg = ranknet_gradient(s_pos, s_neg, ranker.config.sigma)
    grads = {k: np.zeros_like(v) for k, v in state.arrays.items()}
    for doc, g in ((pos, g_pos), (neg, g_neg)):
        if not tokenize(query) or not tokenize(doc):
            continue
        if state.architecture == "cross":
            idx, vals = ranker.cross_features(query, doc)
            np.add.at(grads["w"], idx, g * vals)
            continue
        qb, db = ranker._buckets(query), ranker._buckets(doc)
        emb = state.arrays["emb"]
        if state.architecture == "bi":
            vq, vd = emb[qb].mean(axis=0), emb[db].mean(axis=0)
            np.add.at(grads["emb"], qb, g * vd / qb.size)
            np.add.at(grads["emb"], db, g * vq / db.size)
            continue
        best = (emb[qb] @ emb[db].T).argmax(axis=1)
        np.add.at(grads["emb"], qb, g * emb[db[best]])
        np.add.at(grads["emb"], db[best], g * emb[qb])
    return ranknet_loss(s_pos, s_neg, ranker.config.sigma), grads


def _oracle_train(ranker, state, triplets, corpus, queries, epochs, seed):
    """Dense mini-batch SGD: every triplet's full gradient summed into a dense
    batch gradient, then every weight updated."""
    cfg = ranker.config
    new = state.copy()
    rng = np.random.default_rng(seed)
    order = np.arange(len(triplets))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = [triplets[i] for i in order[start : start + cfg.batch_size]]
            batch_grads = {k: np.zeros_like(v) for k, v in new.arrays.items()}
            for t in batch:
                _, grads = _oracle_loss_and_gradient(
                    ranker, new, queries[t.query_id], corpus[t.positive_id], corpus[t.negative_id]
                )
                for k, g in grads.items():
                    batch_grads[k] += g
            for k in new.arrays:
                new.arrays[k] -= cfg.learning_rate * batch_grads[k] / len(batch)
            new.step += 1
    return new


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte equality, which (unlike np.array_equal) tells -0.0 from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _realistic_training_data(seed: int, n_triplets: int = 100):
    """Seeded texts over 40 words for 16 buckets: bucket collisions, queries with
    repeated tokens, a token-less query and token-less docs."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]

    def text(words, lo, hi):
        return " ".join(rng.choice(words, size=int(rng.integers(lo, hi + 1))))

    docs = {f"d{i}": text(vocab, 1, 12) for i in range(40)}
    docs.update({"e1": "?!", "e2": "--"})
    queries = {f"q{i}": text(vocab[i % 30 : i % 30 + 4], 1, 6) for i in range(30)}
    queries["q30"] = "..."
    doc_ids, query_ids = list(docs), list(queries)
    triplets = []
    for _ in range(n_triplets):
        pos, neg = rng.choice(len(doc_ids), size=2, replace=False)
        qid = query_ids[int(rng.integers(len(query_ids)))]
        triplets.append(TrainingTriplet(qid, doc_ids[pos], doc_ids[neg]))
    return triplets, Corpus(docs), QuerySet(queries)


class TestSparseTrainingExactness:
    """The sparse training step equals the dense algorithm bit for bit."""

    # 8 buckets for 9 words: bucket collisions, repeated query tokens (duplicate
    # rows and duplicate argmax rows) and texts without any token.
    CORPUS = Corpus({
        "d1": "apple pear fig apple", "d2": "kiwi plum", "d3": "fig fig fig date",
        "d4": "lime date kiwi apple pear", "d5": "?!", "d6": "plum", "d7": "-- ..",
    })
    QUERIES = QuerySet({
        "q1": "apple apple pear", "q2": "fig kiwi fig", "q3": "...", "q4": "date lime plum plum",
    })
    TRIPLETS = [
        TrainingTriplet("q1", "d1", "d2"), TrainingTriplet("q2", "d3", "d5"),
        TrainingTriplet("q3", "d4", "d6"), TrainingTriplet("q4", "d4", "d1"),
        TrainingTriplet("q1", "d5", "d3"), TrainingTriplet("q2", "d2", "d4"),
        TrainingTriplet("q4", "d6", "d2"),
    ]

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_gradient_equals_dense_oracle(self, arch):
        ranker = small_ranker(arch, dim=6, buckets=8)
        state = ranker.init_state(4)
        for t in self.TRIPLETS:
            texts = (
                self.QUERIES[t.query_id], self.CORPUS[t.positive_id], self.CORPUS[t.negative_id]
            )
            loss, grads = ranker.loss_and_gradient(state, *texts)
            want_loss, want = _oracle_loss_and_gradient(ranker, state, *texts)
            assert loss == want_loss
            assert grads.keys() == want.keys()
            assert all(np.array_equal(grads[k], want[k]) for k in want), t
            assert all(_same_bytes(grads[k], want[k]) for k in want), t

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_train_equals_dense_oracle(self, arch):
        ranker = small_ranker(arch, dim=6, buckets=8, batch_size=3, learning_rate=0.3)
        state = ranker.init_state(11)
        args = (self.TRIPLETS, self.CORPUS, self.QUERIES, 4, 7)
        trained = ranker.train(state, *args)
        want = _oracle_train(ranker, state, *args)
        assert trained == want
        assert all(_same_bytes(trained.arrays[k], want.arrays[k]) for k in want.arrays)
        assert trained != state

    @pytest.mark.parametrize("batch_size", [1, 50])
    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_one_triplet_and_oversized_batches_equal_dense_oracle(self, arch, batch_size):
        # batch_size=1: one update per triplet; 50 > 7 triplets: one update per epoch
        ranker = small_ranker(arch, dim=6, buckets=8, batch_size=batch_size, learning_rate=0.3)
        state = ranker.init_state(9)
        args = (self.TRIPLETS, self.CORPUS, self.QUERIES, 3, 2)
        trained = ranker.train(state, *args)
        want = _oracle_train(ranker, state, *args)
        assert trained.step == want.step == 3 * (7 if batch_size == 1 else 1)
        assert all(_same_bytes(trained.arrays[k], want.arrays[k]) for k in want.arrays)
        assert trained != state

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_prepared_triplets_reused_over_batches_and_epochs(self, arch):
        # repeated triplets (within and across batches), a triplet of two
        # token-less docs and one with a token-less query: 5 batches of 4 in
        # each of 6 epochs reuse every prepared triplet
        triplets = self.TRIPLETS * 2 + [
            self.TRIPLETS[0], TrainingTriplet("q2", "d5", "d7"),
            TrainingTriplet("q3", "d7", "d1"), TrainingTriplet("q4", "d7", "d4"),
            self.TRIPLETS[3], self.TRIPLETS[3],
        ]
        ranker = small_ranker(arch, dim=6, buckets=8, batch_size=4, learning_rate=0.3)
        state = ranker.init_state(5)
        args = (triplets, self.CORPUS, self.QUERIES, 6, 3)
        trained = ranker.train(state, *args)
        want = _oracle_train(ranker, state, *args)
        assert trained.step == want.step == 30
        assert all(_same_bytes(trained.arrays[k], want.arrays[k]) for k in want.arrays)
        assert trained != state

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_warm_ranker_trains_to_the_state_of_a_fresh_one(self, arch):
        # earlier calls on overlapping subsets, from other states and seeds,
        # prepare every triplet, so the checked call takes each from the memo
        triplets, corpus, queries = _realistic_training_data(seed=8, n_triplets=60)
        warm, fresh = (
            small_ranker(arch, dim=32, buckets=16, batch_size=8, learning_rate=0.3)
            for _ in range(2)
        )
        for k, subset in enumerate((triplets[:40], triplets[20:])):
            warm.train(warm.init_state(k), subset, corpus, queries, 2, k)
        texts = {(queries[t.query_id], corpus[t.positive_id], corpus[t.negative_id])
                 for t in triplets}
        assert warm._triplet_cache.keys() == texts
        prepared = dict(warm._triplet_cache)
        state = fresh.init_state(6)
        args = (triplets, corpus, queries, 3, 4)
        got, want = warm.train(state, *args), fresh.train(state, *args)
        assert got.step == want.step
        assert all(_same_bytes(got.arrays[k], want.arrays[k]) for k in want.arrays)
        assert all(warm._triplet_cache[key] is value for key, value in prepared.items())
        assert all(_same_bytes(got.arrays[k], v) for k, v in
                   _oracle_train(fresh, state, *args).arrays.items())

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_realistic_width_equals_dense_oracle_bytes(self, arch):
        triplets, corpus, queries = _realistic_training_data(seed=3)
        ranker = small_ranker(arch, dim=64, buckets=16, batch_size=32, learning_rate=0.3)
        state = ranker.init_state(2)
        for t in triplets:
            texts = (queries[t.query_id], corpus[t.positive_id], corpus[t.negative_id])
            _, grads = ranker.loss_and_gradient(state, *texts)
            _, want = _oracle_loss_and_gradient(ranker, state, *texts)
            assert all(_same_bytes(grads[k], want[k]) for k in want), t
        args = (triplets, corpus, queries, 3, 5)
        trained = ranker.train(state, *args)
        want = _oracle_train(ranker, state, *args)
        assert trained == want
        assert all(_same_bytes(trained.arrays[k], want.arrays[k]) for k in want.arrays)
        assert trained != state


_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True
)


@given(
    n_rows=st.integers(1, 5),
    width=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_ordered_add_equals_add_at_bytes(n_rows, width, data):
    """The training step's ordered add equals `np.add.at` byte for byte, on
    1-D and 2-D targets, with repeated indices and signed zeros."""
    shape = (n_rows,) if width is None else (n_rows, width)
    size = int(np.prod(shape))
    target = np.array(data.draw(st.lists(_floats, min_size=size, max_size=size))).reshape(shape)
    index = np.array(
        data.draw(st.lists(st.integers(0, n_rows - 1), max_size=12)), dtype=np.int64
    )
    n_values = index.size * (1 if width is None else width)
    values = np.array(
        data.draw(st.lists(_floats, min_size=n_values, max_size=n_values)), dtype=float
    ).reshape(index.shape + shape[1:])
    got, want = target.copy(), target.copy()
    ranker_module._ordered_add(got, index, values)
    np.add.at(want, index, values)
    assert _same_bytes(got, want)


@pytest.mark.parametrize("group_floats", [1, 10_000])
@pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
def test_training_groups_equal_dense_oracle_bytes(arch, group_floats, monkeypatch):
    """Assembling a batch's gradient in groups of one triplet, or (bi and
    maxsim at 10k floats) in groups of five or more triplets but the last,
    changes no bit of the trained weights."""
    monkeypatch.setattr(ranker_module, "_GROUP_FLOATS", group_floats)
    triplets, corpus, queries = _realistic_training_data(seed=4, n_triplets=60)
    ranker = small_ranker(arch, dim=64, buckets=16, batch_size=16, learning_rate=0.3)
    state = ranker.init_state(6)
    args = (triplets, corpus, queries, 2, 1)
    trained = ranker.train(state, *args)
    want = _oracle_train(ranker, state, *args)
    assert trained == want
    assert all(_same_bytes(trained.arrays[k], want.arrays[k]) for k in want.arrays)


def _oracle_score(ranker, state, query, doc):
    """The one-document score from before batched scoring, which tokenized
    both texts on every call (cross: from features computed per call)."""
    if not tokenize(query) or not tokenize(doc):
        return 0.0
    if state.architecture == "cross":
        idx, vals = per_call_cross_features(query, doc, ranker.config.dim, ranker.config.hash_seed)
        return float(state.arrays["w"][idx] @ vals)
    emb = state.arrays["emb"]
    qb, db = ranker._buckets(query), ranker._buckets(doc)
    if state.architecture == "bi":
        return float(emb[qb].mean(axis=0) @ emb[db].mean(axis=0))
    return float((emb[qb] @ emb[db].T).max(axis=1).sum())


class TestScoreBatchExactness:
    """score_batch equals per-document scoring bit for bit."""

    @staticmethod
    def _texts():
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(40)]
        docs = [" ".join(rng.choice(words, size=rng.integers(1, 30))) for _ in range(60)]
        # an empty doc, a punctuation-only doc and two repeated docs
        docs += ["", "?! ...", docs[0], docs[5]]
        queries = [" ".join(rng.choice(words, size=k)) for k in (1, 2, 3, 5, 8)]
        return queries + ["", "..."], docs

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_equals_per_document_scores(self, arch):
        ranker = small_ranker(arch, dim=64, buckets=32)
        oracle = small_ranker(arch, dim=64, buckets=32)
        state = ranker.init_state(7)
        queries, docs = self._texts()
        for q in queries:
            got = ranker.score_batch(state, q, docs)
            assert got.shape == (len(docs),)
            assert np.array_equal(got, [_oracle_score(oracle, state, q, d) for d in docs]), q
            assert np.array_equal(got, [ranker.score(state, q, d) for d in docs]), q
            assert ranker.score_batch(state, q, []).shape == (0,)
        assert not ranker.score_batch(state, "...", docs).any()
        assert ranker.score_batch(state, queries[0], ["", "?! ..."]).tolist() == [0.0, 0.0]

    def test_rerank_and_mean_loss_use_the_same_scores(self):
        ranker = small_ranker("maxsim", dim=64, buckets=32)
        state = ranker.init_state(2)
        queries, docs = self._texts()
        corpus = Corpus({f"d{i}": d for i, d in enumerate(docs)}, permissive=True)
        candidates = RankedList("q", [(did, 0.0) for did in corpus.ids()])
        reranked = ranker.rerank(state, queries[3], candidates, corpus)
        want = RankedList("q", [(did, _oracle_score(ranker, state, queries[3], corpus[did]))
                                for did in corpus.ids()])
        assert reranked.entries == want.entries
        query_set = QuerySet({"q": queries[3]})
        triplets = [TrainingTriplet("q", "d0", "d60"), TrainingTriplet("q", "d61", "d1"),
                    TrainingTriplet("q", "d2", "d3")]
        losses = [
            ranknet_loss(_oracle_score(ranker, state, queries[3], corpus[t.positive_id]),
                         _oracle_score(ranker, state, queries[3], corpus[t.negative_id]))
            for t in triplets
        ]
        assert ranker.mean_loss(state, triplets, corpus, query_set) == sum(losses) / len(losses)


class TestMaxSimStackedScoring:
    """Max-sim scores a list in stacked matmuls, one per chunk of docs of equal
    token count; at desk width (512 dims, 512 buckets) each score keeps the
    bytes of the one-document matmul."""

    @staticmethod
    def _texts():
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(3000)]

        def text(n):
            return " ".join(rng.choice(words, size=n))

        # mixed lengths, a run of 20 equal lengths (several chunks), |d| = 1
        # (numpy's matrix-vector case) and token-less docs between them
        docs = [text(int(n)) for n in rng.integers(1, 40, size=40)]
        docs += [text(16) for _ in range(20)] + [text(1) for _ in range(3)]
        docs[5:5] = ["", "?! ..."]
        docs.insert(30, "--")
        # |q| = 1 (vector-matrix, and with |d| = 1 a dot), up to 11 tokens
        queries = [text(n) for n in (1, 2, 3, 5, 11)]
        return queries, docs

    def _check(self, ranker, state):
        queries, docs = self._texts()
        for q in queries:
            want = np.array([_oracle_score(ranker, state, q, d) for d in docs])
            assert _same_bytes(ranker.score_batch(state, q, docs), want), q
            assert _same_bytes(ranker.score_batch(state, q, docs[-1:]), want[-1:]), q
        assert _same_bytes(ranker.score_batch(state, "...", docs), np.zeros(len(docs)))

    def test_equals_per_document_scores_bytes(self):
        ranker = small_ranker("maxsim", dim=512, buckets=512)
        state = ranker.init_state(5)
        self._check(ranker, state)
        trained = state.copy()
        trained.arrays["emb"] *= np.random.default_rng(1).normal(size=trained.arrays["emb"].shape)
        self._check(ranker, trained)

    @pytest.mark.parametrize("group_floats", [1, 3 * 16 * 512])
    def test_chunk_boundaries(self, group_floats, monkeypatch):
        """One doc per chunk, and 3 docs of 16 tokens per chunk (48 of 1)."""
        monkeypatch.setattr(ranker_module, "_GROUP_FLOATS", group_floats)
        ranker = small_ranker("maxsim", dim=512, buckets=512)
        self._check(ranker, ranker.init_state(8))


class TestCrossPlan:
    """The cross model scores a list from a plan made on its first scoring:
    one feature vector per distinct signature (count of each query term)."""

    QUERY = "apple pear apple"
    DOCS = [
        "apple fig",  # signature (1, 0)
        "fig kiwi apple",  # (1, 0) again
        "pear apple pear",  # (1, 2)
        "",  # no tokens
        "kiwi plum",  # no query term: (0, 0)
        "apple fig",  # repeated doc
        "?! ...",  # no tokens
        "pear pear apple",  # (1, 2) again
        "apple apple pear fig",  # (2, 1)
    ]

    def _states(self, ranker):
        state = ranker.init_state(4)
        corpus = Corpus({f"d{i}": d for i, d in enumerate(self.DOCS)}, permissive=True)
        queries = QuerySet({"q": self.QUERY, "r": "kiwi fig"})
        triplets = [TrainingTriplet("q", "d2", "d4"), TrainingTriplet("q", "d8", "d0"),
                    TrainingTriplet("r", "d4", "d2")]
        trained = ranker.train(state, triplets, corpus, queries, epochs=5, seed=1)
        assert not np.array_equal(trained.arrays["w"], state.arrays["w"])
        return corpus, [state, trained]

    @staticmethod
    def _want(ranker, state, query, docs):
        return np.array([_oracle_score(ranker, state, query, d) for d in docs])

    def test_plan_reuse_equals_per_document_oracle_bytes(self):
        ranker = small_ranker("cross", dim=8)
        corpus, states = self._states(ranker)
        prefix = self.DOCS[:5]
        for _ in range(2):  # the second round reuses every plan
            for state in states:
                want = self._want(ranker, state, self.QUERY, self.DOCS)
                assert _same_bytes(ranker.score_batch(state, self.QUERY, self.DOCS), want)
                assert _same_bytes(ranker.score_batch(state, self.QUERY, prefix), want[:5])
                assert _same_bytes(ranker.score_batch(state, self.QUERY, []), np.zeros(0))
                assert _same_bytes(ranker.score_batch(state, "?!", self.DOCS),
                                   np.zeros(len(self.DOCS)))
                candidates = RankedList("q", [(did, 0.0) for did in corpus.ids()])
                reranked = ranker.rerank(state, self.QUERY, candidates, corpus)
                assert reranked.entries == RankedList(
                    "q", list(zip(corpus.ids(), want.tolist()))
                ).entries

    def test_one_cache_entry_per_distinct_signature(self):
        ranker = small_ranker("cross", dim=8)
        state = ranker.init_state(4)
        ranker.score_batch(state, self.QUERY, self.DOCS)
        # (1, 0), (1, 2), (0, 0) and (2, 1) for 9 docs, 2 of them token-less
        keys = [key for key in ranker._feature_cache if key[0] == self.QUERY]
        assert sorted(sig for _, sig in keys) == [(0, 0), (1, 0), (1, 2), (2, 1)]
        ranker.encode_query(state, self.QUERY)  # the all-zero signature is reused
        assert len(ranker._feature_cache) == 4
        a = ranker.cross_features(self.QUERY, "apple fig")
        b = ranker.cross_features(self.QUERY, "fig kiwi apple")
        assert a[0] is b[0] and a[1] is b[1]


class TestIndexedCrossPlan:
    """A cross ranker given a corpus and its index reads its plans' signatures
    from the postings; its plans equal the token path's bit for bit."""

    DOCS = [
        "apple fig",
        "",  # no tokens
        "kiwi plum",  # no query term
        "Apple, FIG!",  # an upper-case and punctuation variant of d0
        "pear apple pear pear",
        "apple fig",  # the same text as d0
        "?! ...",  # no tokens
        "fig_pear apple-apple",
    ]
    QUERIES = ["apple pear apple", "PEAR?", "fig fig kiwi", "zzzz", "apple zzzz pear", "?!"]

    @staticmethod
    def _same_plans(indexed, tokens, tokenized, state, query, texts) -> set[str]:
        """Checks the two rankers' scores and plans; returns the texts that the
        indexed ranker tokenized."""
        tokenized.clear()
        scores = indexed.score_batch(state, query, texts)
        plan = indexed._cross_plan(query, texts) if tokenize(query) else None
        seen = set(tokenized)
        assert _same_bytes(scores, tokens.score_batch(state, query, texts))
        if plan is not None:
            (got, got_slots), (want, want_slots) = plan, tokens._cross_plan(query, texts)
            assert _same_bytes(got_slots, want_slots) and len(got) == len(want)
            for (idx, vals), (want_idx, want_vals) in zip(got, want):
                assert _same_bytes(idx, want_idx) and _same_bytes(vals, want_vals)
        return seen

    @staticmethod
    def _rankers(corpus, index, monkeypatch):
        """An indexed and a token-path ranker, and the texts the indexed one tokenized."""
        tokenized = []

        def recording_tokenize(text):
            tokenized.append(text)
            return tokenize(text)

        monkeypatch.setattr(ranker_module, "tokenize", recording_tokenize)
        config = RankerConfig(architecture="cross", dim=32)
        return Ranker(config, corpus, index), Ranker(config), tokenized

    def test_tiny_bundle_candidate_lists(self, tiny_bundle, monkeypatch):
        b = tiny_bundle
        indexed, tokens, tokenized = self._rankers(b.corpus, b.index, monkeypatch)
        state = indexed.init_state(3)
        lists = 0
        for run, queries in ((b.negatives, b.train_queries), (b.test_candidates, b.test_queries)):
            for qid, ranked in run.rankings.items():
                texts = [b.corpus[did] for did in ranked.doc_ids()]
                seen = self._same_plans(indexed, tokens, tokenized, state, queries[qid], texts)
                assert seen <= {queries[qid]}  # no document was tokenized
                lists += bool(texts)
        assert lists == len(b.train_queries) + len(b.test_queries)

    def test_hand_made_corpus(self, monkeypatch):
        corpus = Corpus({f"d{i}": text for i, text in enumerate(self.DOCS)}, permissive=True)
        indexed, tokens, tokenized = self._rankers(corpus, build_index(corpus), monkeypatch)
        state = indexed.init_state(5)
        lists = [self.DOCS, self.DOCS[::-1], self.DOCS[2:4], ["", "?! ..."], []]
        for query in self.QUERIES:
            for texts in lists:
                seen = self._same_plans(indexed, tokens, tokenized, state, query, texts)
                assert seen <= {query}
        # a list with a text that is no document of the index takes the token path
        mixed = self.DOCS + ["apple pear kiwi"]
        seen = self._same_plans(indexed, tokens, tokenized, state, self.QUERIES[0], mixed)
        assert seen == set(mixed)

    def test_other_architectures_ignore_the_index(self, tiny_bundle):
        for arch in ("bi", "maxsim"):
            ranker = Ranker(RankerConfig(architecture=arch), tiny_bundle.corpus, tiny_bundle.index)
            assert not ranker._ordinals


class TestTraining:
    def _setup(self):
        corpus = Corpus({
            "p1": "apple pear fig", "p2": "apple kiwi", "n1": "plum date", "n2": "lime date",
        })
        queries = QuerySet({"q1": "apple pear", "q2": "apple kiwi"})
        triplets = [TrainingTriplet("q1", "p1", "n1"), TrainingTriplet("q2", "p2", "n2")]
        return corpus, queries, triplets

    def test_loss_decreases(self):
        corpus, queries, triplets = self._setup()
        for arch in ("cross", "bi", "maxsim"):
            ranker = small_ranker(arch, learning_rate=0.1)
            state = ranker.init_state(0)
            before = ranker.mean_loss(state, triplets, corpus, queries)
            trained = ranker.train(state, triplets, corpus, queries, epochs=20, seed=1)
            after = ranker.mean_loss(trained, triplets, corpus, queries)
            assert after < before, arch

    def test_training_is_pure_and_deterministic(self):
        corpus, queries, triplets = self._setup()
        ranker = small_ranker("cross", batch_size=1)
        state = ranker.init_state(5)
        snapshot = state.copy()
        a = ranker.train(state, triplets, corpus, queries, epochs=3, seed=9)
        assert state == snapshot  # input untouched
        b = ranker.train(state, triplets, corpus, queries, epochs=3, seed=9)
        assert a == b
        c = ranker.train(state, triplets, corpus, queries, epochs=3, seed=10)
        assert a != c

    def test_zero_learning_rate_keeps_state(self):
        corpus, queries, triplets = self._setup()
        ranker = small_ranker("bi", learning_rate=0.0)
        state = ranker.init_state(2)
        trained = ranker.train(state, triplets, corpus, queries, epochs=1, seed=0)
        np.testing.assert_array_equal(trained.arrays["emb"], state.arrays["emb"])

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            RankerConfig(batch_size=0)
        assert RankerConfig(batch_size=1).batch_size == 1

    def test_epochs_selection_below_one_rejected(self):
        with pytest.raises(ValueError, match="epochs_selection"):
            RankerConfig(epochs_selection=0)
        assert RankerConfig(epochs_selection=1).epochs_selection == 1

    def test_epoch_validation(self):
        corpus, queries, triplets = self._setup()
        ranker = small_ranker("cross")
        with pytest.raises(ValueError, match="epochs"):
            ranker.train(ranker.init_state(0), triplets, corpus, queries, epochs=0, seed=0)

    def test_unknown_document_rejected(self):
        corpus, queries, _ = self._setup()
        ranker = small_ranker("cross")
        bad = [TrainingTriplet("q1", "p1", "ghost")]
        with pytest.raises(ValueError, match="unknown document"):
            ranker.train(ranker.init_state(0), bad, corpus, queries, epochs=1, seed=0)

    def test_empty_triplets_rejected(self):
        corpus, queries, _ = self._setup()
        ranker = small_ranker("cross")
        with pytest.raises(ValueError, match="empty triplet"):
            ranker.train(ranker.init_state(0), [], corpus, queries, epochs=1, seed=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for arch in ("cross", "bi", "maxsim"):
            ranker = small_ranker(arch)
            state = ranker.init_state(3)
            state.step = 17
            path = tmp_path / f"{arch}.ckpt"
            save_checkpoint(state, path)
            loaded = load_checkpoint(path)
            assert loaded == state

    def test_architecture_mismatch(self, tmp_path):
        ranker = small_ranker("cross")
        path = tmp_path / "c.ckpt"
        save_checkpoint(ranker.init_state(0), path)
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(path, RankerConfig(architecture="bi"))

    @pytest.mark.parametrize("arch, saved, wanted, found, expected", [
        ("cross", dict(dim=1024), dict(dim=512), "(1024,)", "(512,)"),
        ("bi", dict(buckets=64), dict(buckets=48), "(64, 16)", "(48, 16)"),
        ("maxsim", dict(dim=32), dict(dim=16), "(48, 32)", "(48, 16)"),
    ])
    def test_shape_mismatch_names_the_file_and_both_shapes(
        self, tmp_path, arch, saved, wanted, found, expected
    ):
        """A state of another shape would be scored with the config's hashing
        without an error, so loading it under that config fails."""
        path = tmp_path / f"{arch}.ckpt"
        saved_ranker = small_ranker(arch, **saved)
        save_checkpoint(saved_ranker.init_state(0), path)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path, small_ranker(arch, **wanted).config)
        message = str(exc.value)
        assert str(path) in message and found in message and expected in message
        assert load_checkpoint(path, saved_ranker.config) == saved_ranker.init_state(0)

    def test_scores_identical_after_reload(self, tmp_path):
        corpus = Corpus({"d1": "apple pear", "d2": "kiwi plum fig"})
        queries = QuerySet({"q1": "apple", "q2": "plum fig"})
        triplets = [TrainingTriplet("q1", "d1", "d2")]
        ranker = small_ranker("maxsim", learning_rate=0.05)
        trained = ranker.train(ranker.init_state(1), triplets, corpus, queries, epochs=5, seed=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained, path)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(0)
        vocab = ["apple", "pear", "kiwi", "plum", "fig"]
        for _ in range(20):
            q = " ".join(rng.choice(vocab, size=2))
            d = " ".join(rng.choice(vocab, size=3))
            assert ranker.score(loaded, q, d) == ranker.score(trained, q, d)

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(small_ranker("maxsim").init_state(0), path)
        data = path.read_bytes()
        for size in (len(data) - 1, 20, 6):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError, match=r"truncated checkpoint .*t\.ckpt"):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a ranker checkpoint"):
            load_checkpoint(path)
