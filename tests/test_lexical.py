import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank.datamodel import Corpus
from alrank.lexical import build_index, load_index, retrieve_topk, save_index, tokenize


def brute_force_bm25(corpus: Corpus, query: str, k1=0.9, b=0.4) -> dict[str, float]:
    """Independent BM25 oracle: naive loops, no inverted index."""
    docs = {did: tokenize(text) for did, text in corpus.items()}
    n = len(docs)
    lengths = {did: len(toks) for did, toks in docs.items()}
    avgdl = sum(lengths.values()) / n
    scores = {}
    for did, toks in docs.items():
        total = 0.0
        for term in tokenize(query):
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            if avgdl == 0:
                continue
            denom = tf + k1 * (1.0 - b + b * lengths[did] / avgdl)
            total += idf * tf * (k1 + 1.0) / denom
        scores[did] = total
    return scores


def bm25_scores(index, query: str) -> dict[str, float]:
    """The BM25 score of every document retrieve_topk returns for `query`."""
    return dict(retrieve_topk(index, query, index.n_docs).entries)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separators(self):
        assert tokenize("a1-b2") == ["a1", "b2"]

    def test_underscore_is_separator(self):
        assert tokenize("a_b") == ["a", "b"]


class TestBuildIndex:
    def test_counting(self, small_corpus):
        index = build_index(small_corpus)
        assert index.n_docs == 2
        assert index.df["apple"] == 2
        assert index.df["banana"] == 1
        assert index.avgdl == 1.5

    def test_deterministic_rebuild(self, small_corpus):
        a, b = build_index(small_corpus), build_index(small_corpus)
        assert a.postings == b.postings and a.doc_lengths == b.doc_lengths

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_index(Corpus({}))

    def test_all_empty_docs_degenerate(self):
        corpus = Corpus({"d1": "", "d2": ""}, permissive=True)
        index = build_index(corpus)
        assert index.avgdl == 0.0
        assert len(retrieve_topk(index, "apple", 5)) == 0

    def test_parameter_validation(self, small_corpus):
        with pytest.raises(ValueError):
            build_index(small_corpus, k1=-0.1)
        with pytest.raises(ValueError):
            build_index(small_corpus, b=1.5)


class TestBm25Score:
    def test_hand_computed_value(self, small_corpus):
        # idf(banana) = ln 2; tf=1, dl=2, avgdl=1.5
        index = build_index(small_corpus, k1=0.9, b=0.4)
        expected = math.log(2) * (1 * 1.9) / (1 + 0.9 * (0.6 + 0.4 * (2 / 1.5)))
        got = bm25_scores(index, "banana")["d1"]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.652, abs=1e-3)

    def test_absent_term_contributes_zero(self, small_corpus):
        index = build_index(small_corpus)
        assert bm25_scores(index, "durian") == {}
        assert bm25_scores(index, "banana durian") == bm25_scores(index, "banana")

    def test_b_zero_ignores_length(self):
        corpus = Corpus({"d1": "apple banana cherry fig", "d2": "apple"})
        index = build_index(corpus, k1=0.9, b=0.0)
        scores = bm25_scores(index, "apple")
        assert scores["d1"] == pytest.approx(scores["d2"], rel=1e-12)

    def test_matches_brute_force(self, small_corpus):
        index = build_index(small_corpus)
        oracle = brute_force_bm25(small_corpus, "apple banana")
        scores = bm25_scores(index, "apple banana")
        assert set(scores) == {did for did, s in oracle.items() if s > 0}
        for did in index.doc_ids:
            assert scores.get(did, 0.0) == pytest.approx(oracle[did], rel=1e-12)


class TestRetrieveTopK:
    def test_short_list_when_few_matches(self, small_corpus):
        index = build_index(small_corpus)
        assert len(retrieve_topk(index, "banana", 10)) == 1

    def test_repeated_call_identical(self, small_corpus):
        index = build_index(small_corpus)
        assert retrieve_topk(index, "apple", 5) == retrieve_topk(index, "apple", 5)

    def test_prefix_property(self, tiny_bundle):
        index = tiny_bundle.index
        for qid, text in list(tiny_bundle.train_queries.items())[:5]:
            small = retrieve_topk(index, text, 3, query_id=qid)
            large = retrieve_topk(index, text, 10, query_id=qid)
            assert large.entries[: len(small)] == small.entries

    def test_scores_positive_and_sorted(self, tiny_bundle):
        for qid, text in list(tiny_bundle.train_queries.items())[:5]:
            result = retrieve_topk(tiny_bundle.index, text, 50, query_id=qid)
            scores = [s for _, s in result.entries]
            assert all(s > 0 for s in scores)
            assert scores == sorted(scores, reverse=True)

    def test_k_validation(self, small_corpus):
        with pytest.raises(ValueError):
            retrieve_topk(build_index(small_corpus), "apple", 0)


words = st.sampled_from(["apple", "pear", "fig", "kiwi", "plum", "lime", "date"])
doc_texts = st.lists(words, min_size=1, max_size=8).map(" ".join)


@given(
    docs=st.lists(doc_texts, min_size=1, max_size=30),
    query=st.lists(words, min_size=1, max_size=3).map(" ".join),
    k=st.integers(1, 10),
)
@settings(max_examples=60, deadline=None)
def test_retrieval_equals_brute_force_property(docs, query, k):
    corpus = Corpus({f"d{i:03d}": text for i, text in enumerate(docs)})
    index = build_index(corpus)
    got = retrieve_topk(index, query, k)
    oracle = brute_force_bm25(corpus, query)
    expected = sorted(
        ((d, s) for d, s in oracle.items() if s > 0), key=lambda e: (-e[1], e[0])
    )[:k]
    assert got.doc_ids() == [d for d, _ in expected]
    for (_, a), (_, b) in zip(got.entries, expected):
        assert a == pytest.approx(b, rel=1e-9)


class TestIndexPersistence:
    def test_round_trip(self, small_corpus, tmp_path):
        index = build_index(small_corpus)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_ids == index.doc_ids
        assert loaded.avgdl == index.avgdl
        assert retrieve_topk(loaded, "apple banana", 5) == retrieve_topk(index, "apple banana", 5)

    def test_version_check(self, small_corpus, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_index(path)
