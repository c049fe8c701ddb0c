"""Tokenization, inverted index, BM25 scoring and top-k retrieval."""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter, defaultdict
from itertools import count
from pathlib import Path

import numpy as np

from .datamodel import Corpus, RankedList

# Unicode alphanumeric runs; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

INDEX_FORMAT_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint."""
    return _TOKEN_RE.findall(text.lower())


class InvertedIndex:
    """BM25 index over a corpus; immutable after build.

    `postings` maps each term (first-occurrence order; term i owns offsets[i]:offsets[i + 1]
    of post_docs and post_tf) to its doc ordinals, tf and BM25 contribution per occurrence.
    """

    def __init__(self, doc_ids: list[str], terms: list[str], offsets: np.ndarray,
                 post_docs: np.ndarray, post_tf: np.ndarray, doc_lengths: list[int],
                 k1: float, b: float):
        self.doc_ids, self.doc_lengths, self.k1, self.b = doc_ids, doc_lengths, k1, b
        n = self.n_docs = len(doc_ids)
        self.avgdl = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0
        df = np.diff(offsets)
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
        # a per-document loop's float operations, in its order; no postings if avgdl is 0
        dl = np.asarray(doc_lengths, dtype=np.int64)[post_docs]
        norm = k1 * (1.0 - b + b * dl / self.avgdl)
        contrib = np.repeat(idf, df) * post_tf * (k1 + 1.0) / (post_tf + norm)
        self.postings = {term: (post_docs[s:e], post_tf[s:e], contrib[s:e]) for term, s, e
                         in zip(terms, offsets[:-1].tolist(), offsets[1:].tolist())}
        # rank of each ordinal among the sorted doc ids: the order of score ties
        self.doc_rank = np.argsort(sorted(range(n), key=doc_ids.__getitem__))


def build_index(corpus: Corpus, k1: float = 0.9, b: float = 0.4) -> InvertedIndex:
    """Build an inverted index; deterministic for a given corpus."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    if k1 < 0:
        raise ValueError(f"k1 must be >= 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be in [0, 1], got {b}")

    doc_ids = corpus.ids()
    n_docs = len(doc_ids)
    term_ids = defaultdict(count().__next__)  # a new term gets the next id
    ids, doc_lengths = array("q"), []  # the term id of every token, doc by doc
    for doc_id in doc_ids:
        tokens = tokenize(corpus[doc_id])
        doc_lengths.append(len(tokens))
        ids.extend(map(term_ids.__getitem__, tokens))
    # one key per token; the distinct keys are the postings, in (term, doc) order
    keys = np.frombuffer(ids, np.int64) * n_docs + np.repeat(np.arange(n_docs), doc_lengths)
    del ids
    keys, post_tf = np.unique(keys, return_counts=True)
    offsets = np.searchsorted(keys, np.arange(len(term_ids) + 1) * n_docs)
    keys %= n_docs  # now the doc ordinal of each posting
    return InvertedIndex(doc_ids, list(term_ids), offsets, keys, post_tf, doc_lengths, k1, b)


def retrieve_topk(index: InvertedIndex, query: str, k: int, query_id: str = "q") -> RankedList:
    """Top-k documents by BM25, zero-score documents excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = tokenize(query)
    ranked = RankedList(query_id, [])
    if index.avgdl == 0.0 or not terms:
        return ranked
    # per document, the additions of a loop over distinct terms by first occurrence
    scores = np.zeros(index.n_docs)
    for term, q_count in Counter(terms).items():
        if term in index.postings:
            docs, _, contrib = index.postings[term]
            scores[docs] += q_count * contrib
    hits = np.flatnonzero(scores > 0.0)
    top = hits[np.lexsort((index.doc_rank[hits], -scores[hits]))[:k]]
    # RankedList's order, unchecked: descending score, then ascending doc id
    ranked.entries = list(zip(map(index.doc_ids.__getitem__, top.tolist()), scores[top].tolist()))
    return ranked


def save_index(index: InvertedIndex, path: str | Path) -> None:
    payload = dict(format_version=INDEX_FORMAT_VERSION, n_docs=index.n_docs, avgdl=index.avgdl,
                   k1=index.k1, b=index.b, doc_ids=index.doc_ids, doc_lengths=index.doc_lengths,
                   postings={t: np.column_stack(p[:2]).tolist() for t, p in index.postings.items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_index(path: str | Path) -> InvertedIndex:
    """Read a saved index; ValueError naming the field on inconsistent data."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if (version := payload.get("format_version")) != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {version}")
    doc_ids, doc_lengths, postings = payload["doc_ids"], payload["doc_lengths"], payload["postings"]
    if len(doc_lengths) != (n_docs := len(doc_ids)):
        raise ValueError(f"doc_lengths has {len(doc_lengths)} entries for {n_docs} doc_ids")
    sizes = [len(plist) for plist in postings.values()]
    rows = np.array([row for plist in postings.values() for row in plist], np.int64)
    post_docs, post_tf = rows.reshape(-1, 2).T
    if ((post_docs < 0) | (post_docs >= n_docs) | (post_tf < 1)).any():
        raise ValueError(f"postings: need 0 <= document ordinal < {n_docs} and tf >= 1")
    keys = np.repeat(np.arange(len(sizes)), sizes) * n_docs + post_docs
    if np.unique(keys).size != keys.size:
        raise ValueError("postings: a document appears twice in one term's postings")
    if not np.array_equal(np.bincount(post_docs, post_tf, n_docs), doc_lengths):
        raise ValueError("doc_lengths: a document's length is not the sum of its postings' tf")
    return InvertedIndex(doc_ids, list(postings), np.cumsum([0, *sizes]), post_docs, post_tf,
                         doc_lengths, payload["k1"], payload["b"])
