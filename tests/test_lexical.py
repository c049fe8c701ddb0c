import json
import math
from collections import Counter

import numpy as np
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


def oracle_retrieve_topk(corpus: Corpus, query: str, k: int, k1=0.9, b=0.4) -> list:
    """Reference BM25 top-k: a dict-of-postings index and a per-document
    accumulation loop. retrieve_topk must return the same entries, bit for bit."""
    doc_ids = corpus.ids()
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for ordinal, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus[doc_id])
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((ordinal, tf))
    n_docs = len(doc_ids)
    avgdl = sum(doc_lengths) / len(doc_lengths)
    terms = tokenize(query)
    if avgdl == 0.0 or not terms:
        return []
    accum: dict[int, float] = {}
    term_counts: dict[str, int] = {}
    for t in terms:
        term_counts[t] = term_counts.get(t, 0) + 1
    for term, q_count in term_counts.items():
        plist = postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for ordinal, tf in plist:
            dl = doc_lengths[ordinal]
            norm = k1 * (1.0 - b + b * dl / avgdl)
            contrib = idf * tf * (k1 + 1.0) / (tf + norm)
            accum[ordinal] = accum.get(ordinal, 0.0) + q_count * contrib
    scored = [(doc_ids[ordinal], s) for ordinal, s in accum.items() if s > 0.0]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def posting_data(index) -> tuple:
    """Every posting of an index, in order: term, doc ordinals, tf, contributions."""
    postings = [
        (term, docs.tolist(), tf.tolist(), contrib.tolist())
        for term, (docs, tf, contrib) in index.postings.items()
    ]
    return postings, index.doc_lengths


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
        postings, _ = posting_data(index)
        # (term, docs, tf): df of apple is 2, of banana 1
        assert [p[:3] for p in postings] == [("apple", [0, 1], [1, 1]), ("banana", [0], [1])]
        assert index.avgdl == 1.5

    def test_deterministic_rebuild(self, small_corpus):
        a, b = build_index(small_corpus), build_index(small_corpus)
        assert posting_data(a) == posting_data(b)

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


@st.composite
def oracle_cases(draw):
    """Corpora with duplicate docs (score ties), token-less docs and ids whose
    sorted order differs from corpus order; queries with repeated and unknown
    terms; k below and above the hit count."""
    texts = draw(st.lists(st.one_of(doc_texts, st.sampled_from(["", "-- !", "_"])),
                          min_size=1, max_size=25))
    texts += draw(st.lists(st.sampled_from(texts), max_size=8))
    names = draw(st.permutations(range(len(texts))))
    corpus = Corpus({f"d{n:03d}": text for n, text in zip(names, texts)}, permissive=True)
    query = " ".join(draw(st.lists(st.one_of(words, st.just("durian")), min_size=1, max_size=6)))
    return corpus, query, draw(st.integers(1, len(texts) + 2))


@given(case=oracle_cases(), k1=st.sampled_from([0.0, 0.9, 1.2]), b=st.sampled_from([0.0, 0.4, 1.0]))
@settings(max_examples=150, deadline=None)
def test_retrieval_matches_dict_loop_oracle(case, k1, b):
    corpus, query, k = case
    got = retrieve_topk(build_index(corpus, k1=k1, b=b), query, k, query_id="q1")
    expected = oracle_retrieve_topk(corpus, query, k, k1=k1, b=b)
    assert got.query_id == "q1"
    assert [(d, s.hex()) for d, s in got.entries] == [(d, s.hex()) for d, s in expected]
    assert all(type(s) is float for _, s in got.entries)


class TestTermFrequencies:
    """`InvertedIndex.term_frequencies` reads tf from the postings; the oracle
    is each document's token counts."""

    ABSENT = ("zzzz", "", "Apple")  # no such term: the index holds lowercase tokens

    @staticmethod
    def check(index, corpus, terms):
        counts = [Counter(tokenize(corpus[did])) for did in index.doc_ids]
        n = index.n_docs
        # every ordinal, in order, reversed and repeated
        for ordinals in (np.arange(n), np.arange(n)[::-1], np.array([n - 1, 0, n - 1, 0])):
            for term in terms:
                got = index.term_frequencies(term, ordinals)
                assert got.tolist() == [counts[k][term] for k in ordinals.tolist()], term
        assert index.term_frequencies("apple", np.zeros(0, np.int64)).size == 0

    def test_equals_token_counts(self, tiny_bundle):
        index, corpus = tiny_bundle.index, tiny_bundle.corpus
        terms = {t for did in corpus.ids() for t in tokenize(corpus[did])}
        for split in (tiny_bundle.train_queries, tiny_bundle.test_queries):
            terms.update(t for _, text in split.items() for t in tokenize(text))
        terms.update(self.ABSENT)
        # ordinals before a term's first posting and after its last are looked up
        docs = [index.postings[t][0] for t in terms if t in index.postings]
        assert any(d[0] > 0 for d in docs) and any(d[-1] < index.n_docs - 1 for d in docs)
        assert any(t not in index.postings for t in terms)
        self.check(index, corpus, sorted(terms))

    def test_loaded_index_with_unordered_postings(self, tmp_path):
        corpus = Corpus({"a": "fig kiwi fig", "b": "", "c": "kiwi", "d": "FIG, plum!"},
                        permissive=True)
        path = tmp_path / "index.json"
        save_index(build_index(corpus), path)
        payload = json.loads(path.read_text())
        payload["postings"] = {t: plist[::-1] for t, plist in payload["postings"].items()}
        payload["postings"]["unused"] = []
        path.write_text(json.dumps(payload))
        self.check(load_index(path), corpus, ["fig", "kiwi", "plum", "unused", *self.ABSENT])


class TestIndexPersistence:
    def test_round_trip(self, small_corpus, tmp_path):
        index = build_index(small_corpus)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert posting_data(loaded) == posting_data(index)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.avgdl == index.avgdl
        assert retrieve_topk(loaded, "apple banana", 5) == retrieve_topk(index, "apple banana", 5)

    def test_version_check(self, small_corpus, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_index(path)


class TestLoadIndexRejects:
    """A saved index that does not describe its corpus fails at load time."""

    @staticmethod
    def saved(small_corpus, tmp_path, edit):
        path = tmp_path / "index.json"
        save_index(build_index(small_corpus), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def check(self, small_corpus, tmp_path, edit, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            load_index(self.saved(small_corpus, tmp_path, edit))

    def test_unedited_file_loads(self, small_corpus, tmp_path):
        load_index(self.saved(small_corpus, tmp_path, lambda payload: None))

    def test_negative_ordinal(self, small_corpus, tmp_path):
        # used to score the last document
        self.check(small_corpus, tmp_path,
                   lambda p: p["postings"]["apple"][0].__setitem__(0, -1), "postings")

    def test_ordinal_out_of_range(self, small_corpus, tmp_path):
        self.check(small_corpus, tmp_path,
                   lambda p: p["postings"]["banana"][0].__setitem__(0, 2), "postings")

    def test_doc_lengths_shorter_than_doc_ids(self, small_corpus, tmp_path):
        self.check(small_corpus, tmp_path, lambda p: p["doc_lengths"].pop(), "doc_lengths")

    def test_duplicate_posting(self, small_corpus, tmp_path):
        # used to double the term's df
        self.check(small_corpus, tmp_path,
                   lambda p: p["postings"]["apple"].append([0, 1]), "postings")

    def test_zero_tf(self, small_corpus, tmp_path):
        self.check(small_corpus, tmp_path,
                   lambda p: p["postings"]["banana"][0].__setitem__(1, 0), "postings")

    def test_lengths_disagree_with_postings(self, small_corpus, tmp_path):
        self.check(small_corpus, tmp_path,
                   lambda p: p["doc_lengths"].__setitem__(0, 5), "doc_lengths")
