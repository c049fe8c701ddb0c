"""Deterministic synthetic corpus generator with planted topical relevance.

The noise vocabulary, and each topic's vocabulary, is built once as a numpy
array: given a list, `rng.choice` would convert it to a fresh array on every
call. Noise tokens index that array with `rng.integers(0, n, size)`, which
is the draw `rng.choice(array, size)` makes, without its per-call checks.
The random stream, and every document, query and judgment, is the same as
drawing with `choice` from the lists; `tests/test_datamodel.py` pins it by
digest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Corpus, Qrels, QuerySet


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated corpus: topics, per-topic docs/queries, vocabularies."""

    topics: int = 20
    docs_per_topic: int = 100
    noise_vocab_size: int = 400
    topic_vocab_size: int = 12
    queries_per_topic: int = 15
    test_queries_per_topic: int = 5
    rel_per_query: int = 3
    doc_noise_tokens: int = 12

    def __post_init__(self):
        # a lower count gives an empty or shrunken bundle or fails inside
        # numpy; a query draws up to 4 distinct topic tokens
        for name, least in (("topics", 1), ("docs_per_topic", 1), ("noise_vocab_size", 1),
                            ("topic_vocab_size", 4), ("queries_per_topic", 0),
                            ("test_queries_per_topic", 0), ("rel_per_query", 1),
                            ("doc_noise_tokens", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.rel_per_query > self.docs_per_topic:
            raise ValueError(
                f"rel_per_query ({self.rel_per_query}) exceeds docs_per_topic "
                f"({self.docs_per_topic})"
            )
        needed = (self.queries_per_topic + self.test_queries_per_topic) * self.rel_per_query
        if needed > self.docs_per_topic:
            raise ValueError(
                f"need {needed} relevant doc slots per topic but only "
                f"{self.docs_per_topic} docs per topic"
            )


# Frozen configuration used by the desk-scale regression suite:
# 20 topics x 100 docs = 2,000 docs; 300 train / 100 test queries.
DESK_SPEC = SyntheticSpec()


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[Corpus, QuerySet, QuerySet, Qrels]:
    """Build (corpus, train queries, test queries, qrels), a pure function of (spec, seed).

    Queries are 2-4 tokens from their topic vocabulary. Each query gets
    `rel_per_query` dedicated relevant documents that contain the query tokens
    (at least 3 topic tokens) plus noise; all other documents contain noise only.
    """
    rng = np.random.default_rng(seed)
    noise_vocab = np.array([f"noise{j:04d}" for j in range(spec.noise_vocab_size)])
    n_noise = len(noise_vocab)

    docs: dict[str, str] = {}
    train_queries: dict[str, str] = {}
    test_queries: dict[str, str] = {}
    grades: dict[tuple[str, str], int] = {}

    for t in range(spec.topics):
        topic_vocab = np.array([f"topic{t:03d}w{j:02d}" for j in range(spec.topic_vocab_size)])
        doc_ids = [f"d{t:03d}_{j:03d}" for j in range(spec.docs_per_topic)]
        free_slots = list(doc_ids)

        n_queries = spec.queries_per_topic + spec.test_queries_per_topic
        for qn in range(n_queries):
            is_test = qn >= spec.queries_per_topic
            qid = f"{'qt' if is_test else 'q'}{t:03d}_{qn:03d}"
            q_len = int(rng.integers(2, 5))
            q_tokens = rng.choice(topic_vocab, size=q_len, replace=False).tolist()
            target = test_queries if is_test else train_queries
            target[qid] = " ".join(q_tokens)

            for _ in range(spec.rel_per_query):
                slot = free_slots.pop(int(rng.integers(0, len(free_slots))))
                topic_tokens = list(q_tokens)
                while len(set(topic_tokens)) < 3:
                    extra = str(topic_vocab[int(rng.integers(0, len(topic_vocab)))])
                    if extra not in topic_tokens:
                        topic_tokens.append(extra)
                noise = noise_vocab[rng.integers(0, n_noise, size=spec.doc_noise_tokens)].tolist()
                tokens = topic_tokens + noise
                rng.shuffle(tokens)
                docs[slot] = " ".join(tokens)
                grades[(qid, slot)] = 1

        # remaining slots: pure-noise non-relevant documents
        for slot in free_slots:
            noise = noise_vocab[rng.integers(0, n_noise, size=spec.doc_noise_tokens + 3)].tolist()
            docs[slot] = " ".join(noise)

    ordered_docs = {d: docs[d] for d in sorted(docs)}
    return (
        Corpus(ordered_docs),
        QuerySet(train_queries),
        QuerySet(test_queries),
        Qrels(grades, threshold=1),
    )
