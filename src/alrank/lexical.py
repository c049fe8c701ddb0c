"""Tokenization, inverted index, BM25 scoring and top-k retrieval."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .datamodel import Corpus, RankedList

# Unicode alphanumeric runs; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

INDEX_FORMAT_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint."""
    return _TOKEN_RE.findall(text.lower())


class InvertedIndex:
    """BM25 index over a corpus; immutable after build."""

    def __init__(
        self,
        doc_ids: list[str],
        postings: dict[str, list[tuple[int, int]]],
        doc_lengths: list[int],
        k1: float,
        b: float,
    ):
        self.doc_ids = doc_ids
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.n_docs = len(doc_ids)
        self.avgdl = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0
        self.df = {term: len(plist) for term, plist in postings.items()}
        self.k1 = k1
        self.b = b

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def build_index(corpus: Corpus, k1: float = 0.9, b: float = 0.4) -> InvertedIndex:
    """Build an inverted index; deterministic for a given corpus."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    if k1 < 0:
        raise ValueError(f"k1 must be >= 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be in [0, 1], got {b}")

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
    return InvertedIndex(doc_ids, postings, doc_lengths, k1, b)


def retrieve_topk(index: InvertedIndex, query: str, k: int, query_id: str = "q") -> RankedList:
    """Top-k documents by BM25, zero-score documents excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = tokenize(query)
    if index.avgdl == 0.0 or not terms:
        return RankedList(query_id, [])

    accum: dict[int, float] = {}
    term_counts: dict[str, int] = {}
    for t in terms:
        term_counts[t] = term_counts.get(t, 0) + 1
    for term, q_count in term_counts.items():
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for ordinal, tf in plist:
            dl = index.doc_lengths[ordinal]
            norm = index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
            contrib = idf * tf * (index.k1 + 1.0) / (tf + norm)
            accum[ordinal] = accum.get(ordinal, 0.0) + q_count * contrib
    scored = [
        (index.doc_ids[ordinal], s) for ordinal, s in accum.items() if s > 0.0
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return RankedList(query_id, scored[:k])


def save_index(index: InvertedIndex, path: str | Path) -> None:
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "n_docs": index.n_docs,
        "avgdl": index.avgdl,
        "k1": index.k1,
        "b": index.b,
        "doc_ids": index.doc_ids,
        "doc_lengths": index.doc_lengths,
        "postings": {t: [[d, tf] for d, tf in pl] for t, pl in index.postings.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_index(path: str | Path) -> InvertedIndex:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {version}")
    return InvertedIndex(
        doc_ids=payload["doc_ids"],
        postings={t: [(d, tf) for d, tf in pl] for t, pl in payload["postings"].items()},
        doc_lengths=payload["doc_lengths"],
        k1=payload["k1"],
        b=payload["b"],
    )
