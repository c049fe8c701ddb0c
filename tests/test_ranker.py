import hashlib
import math

import numpy as np
import pytest

from alrank.datamodel import Corpus, QuerySet, RankedList, TrainingTriplet
from alrank.ranker import (
    Ranker,
    RankerConfig,
    load_checkpoint,
    ranknet_gradient,
    ranknet_loss,
    save_checkpoint,
)


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
        qb, db = ranker._buckets(query), ranker._buckets(doc)
        if qb.size == 0 or db.size == 0:
            continue
        if state.architecture == "cross":
            idx, vals = ranker.cross_features(query, doc)
            np.add.at(grads["w"], idx, g * vals)
            continue
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


class TestSparseTrainingExactness:
    """The sparse training step equals the dense algorithm bit for bit."""

    # 8 buckets for 9 words: bucket collisions, repeated query tokens (duplicate
    # rows and duplicate argmax rows) and texts without any token.
    CORPUS = Corpus({
        "d1": "apple pear fig apple", "d2": "kiwi plum", "d3": "fig fig fig date",
        "d4": "lime date kiwi apple pear", "d5": "?!", "d6": "plum",
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

    @pytest.mark.parametrize("arch", ["cross", "bi", "maxsim"])
    def test_train_equals_dense_oracle(self, arch):
        ranker = small_ranker(arch, dim=6, buckets=8, batch_size=3, learning_rate=0.3)
        state = ranker.init_state(11)
        args = (self.TRIPLETS, self.CORPUS, self.QUERIES, 4, 7)
        trained = ranker.train(state, *args)
        assert trained == _oracle_train(ranker, state, *args)
        assert trained != state


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
