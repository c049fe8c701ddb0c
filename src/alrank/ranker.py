"""Trainable rankers: feature-hashed cross-scorer, bi-encoder, and token max-sim.

All three share a RankNet pairwise loss and plain SGD. Feature/embedding
hashing is keyed by a config seed so states are fully reproducible.

A `Ranker` computes what does not depend on the weights once and keeps it.
The `Ranker` an `Experiment` uses lives as long as its data bundle
(`experiment.DataBundle.ranker`, one per config), so every `Experiment` built
on that bundle in one process reuses these caches:
  - per text it tokenizes, `tokenize` runs once. Cross keeps the tokens, one
    interned string per distinct term, so texts sharing a word share its
    object; bi and maxsim keep only the text's token-bucket array.
  - per term (cross), the ``q|t`` and ``m|t`` keys are hashed once to their
    (bucket, sign).
  - per (query, signature) (cross), the sparse feature vector. A doc's
    signature is its count of each distinct query term, in first-occurrence
    order; the features depend on nothing else, so docs with equal counts
    share one vector; `cross_features(q, None)` has the all-zero signature.
  - per (query, doc list) (cross), a scoring plan (`_cross_plan`): the list's
    distinct signatures' features and each doc's position among them. A
    cross ranker built with a corpus and its index (as `Experiment` builds
    it) reads the signatures of a list of the corpus's documents from the
    index postings, one tf lookup per distinct query term over the list's
    doc ordinals, and never tokenizes those documents. A list with any other
    text (no index, or an ad-hoc text) counts the terms in each doc's tokens.
  - per (query, positive, negative) text triple, the triplet's scoring docs
    and their feature or bucket arrays (`_prepare_triplet`), so committee,
    selection and evaluation training prepare each triplet once; their
    signatures come from tokens.
The caches only skip recomputing the same values: a signature read from the
postings is the token count (the index tokenized the same text), and a cross
feature vector is built with the float operations of the per-call version
(per bucket, `sign * value` added for ``q|t`` and then ``m|t``, over the
query's distinct terms in first-occurrence order, bucket ids sorted), so
features, scores and trained weights are bit-identical.

Scoring has one path, `Ranker.score_batch`: one query against a list of
documents. `score`, `rerank`, `mean_loss`, uncertainty and QBC selection and
evaluation all go through it. Cross computes one `w[idx].dot(vals)` per
distinct signature of the list's plan and gathers the documents' scores from
those; bi scores each document with its own dot product. Maxsim scores each
chunk of equal-length documents (`_GROUP_FLOATS // (n * dim)` of n tokens)
with one `np.matmul(eq, D.transpose(0, 2, 1))`, in which numpy makes one BLAS
call per document with the shape and layout of the one-document
`eq @ emb[db].T`, so each score keeps its bits. A 1-D `a.dot(b)` is the same
`ddot` call as `a @ b`, with less dispatch. One product per document stays: a
`(|q|, buckets)` table gathered by column, one big matmul, a sum or
`np.add.reduceat` over several would change the last bit of some scores
(OpenBLAS's result depends on the product's shape and a column's position;
for n < 16 its `ddot` accumulates by fused multiply-add).

Training computes one gradient per mini-batch (`_batch_gradient`): per
triplet only the score operations and the scalar `ranknet_gradient` run, and
the batch's gradient terms are assembled at once. Each term is keyed by
(triplet, row), each key's terms are summed in term order, which gives the
triplet's own gradient at that row, and those sums go into the batch gradient
in triplet order (`_ordered_add`). Maxsim sorts its keys once (stably) and
builds its wide term rows only as it adds them; a key's sum starts from its
first term, not 0.0, which differs only as -0.0 for 0.0 and adds the same
into the batch gradient, whose entries are never -0.0. So each touched row
receives the same float additions in the same order as a dense per-triplet
gradient summed into a dense batch gradient, and the SGD update rewrites
only the touched rows (an untouched one would only see `+ 0.0` and `- 0.0`):
the trained weights are bit-identical to the dense algorithm's.

Cross-scorer feature map (hashed into `dim` signed buckets):
  - per distinct query term t with count c: key ``q|t``, value c / |q|
  - per distinct query term t occurring tf times in the doc (term overlap):
    key ``m|t``, value c * (1 + ln tf) / |q|
Per-term features keep generalization tied to term coverage of the training
set, so effectiveness grows with training size instead of saturating.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datamodel import Corpus, QuerySet, RankedList, TrainingTriplet
from .lexical import InvertedIndex, tokenize

ARCHITECTURES = ("cross", "bi", "maxsim")
CHECKPOINT_MAGIC = b"ALRK"
CHECKPOINT_VERSION = 1
# floats of each (terms, width) temporary of one group of triplets in a
# training step, or of docs in max-sim scoring: 512 KB stays in cache; a
# cross batch fits in one group
_GROUP_FLOATS = 2**16


@dataclass(frozen=True)
class RankerConfig:
    architecture: str = "cross"
    dim: int = 256
    hash_buckets: int = 1024
    hash_seed: int = 0
    # The reference protocol uses 7e-6 for transformer-scale models; the
    # hashed linear models here need a larger step to move at all.
    learning_rate: float = 0.1
    epochs_selection: int = 15
    epochs_evaluation: int = 200
    batch_size: int = 32
    sigma: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs_selection < 1:
            raise ValueError("epochs_selection must be >= 1")
        if self.epochs_selection > self.epochs_evaluation:
            raise ValueError("epochs_selection must be <= epochs_evaluation")

    def fingerprint(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RankerState:
    architecture: str
    arrays: dict[str, np.ndarray]
    step: int
    config_fingerprint: str

    def copy(self) -> "RankerState":
        return RankerState(
            architecture=self.architecture,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            step=self.step,
            config_fingerprint=self.config_fingerprint,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankerState)
            and self.architecture == other.architecture
            and self.step == other.step
            and self.config_fingerprint == other.config_fingerprint
            and self.arrays.keys() == other.arrays.keys()
            and all(np.array_equal(self.arrays[k], other.arrays[k]) for k in self.arrays)
        )


def _weights(config: RankerConfig) -> tuple[str, tuple[int, ...]]:
    """The name and shape of the one weight array of the config's states."""
    if config.architecture == "cross":
        return "w", (config.dim,)
    return "emb", (config.hash_buckets, config.dim)


class _Hasher:
    """Seeded token/feature hashing; `raw` and `bucket` are memoized."""

    def __init__(self, seed: int):
        self._key = seed.to_bytes(8, "little", signed=False)
        self._cache: dict[str, int] = {}

    def digest(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode(), digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "little")

    def raw(self, token: str) -> int:
        h = self._cache.get(token)
        if h is None:
            h = self._cache[token] = self.digest(token)
        return h

    def bucket(self, token: str, n_buckets: int) -> int:
        return self.raw(token) % n_buckets

    def signed_bucket(self, key: str, n_buckets: int) -> tuple[int, float]:
        """Not memoized: the cross model calls it once per key (`_term_features`)."""
        h = self.digest(key)
        return (h >> 1) % n_buckets, 1.0 if h & 1 else -1.0


def ranknet_loss(s_pos: float, s_neg: float, sigma: float = 1.0) -> float:
    """Overflow-safe log(1 + exp(-sigma * (s_pos - s_neg)))."""
    x = -sigma * (s_pos - s_neg)
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def ranknet_gradient(s_pos: float, s_neg: float, sigma: float = 1.0) -> tuple[float, float]:
    """(dL/ds_pos, dL/ds_neg) for the RankNet loss."""
    x = sigma * (s_pos - s_neg)
    if x > 0:
        g = -sigma * math.exp(-x) / (1.0 + math.exp(-x))
    else:
        g = -sigma / (1.0 + math.exp(x))
    return g, -g


class _Triplet(NamedTuple):
    """A triplet as `Ranker._prepare_triplet` leaves it for `_batch_gradient`."""

    query_buckets: np.ndarray | None  # bi and maxsim
    # (0 for the positive doc or 1 for the negative, its cross (idx, vals) or
    # its buckets), for the docs that score: both texts have tokens
    docs: tuple
    size: int  # the number of rows of its gradient terms (see `_batch_gradient`)


def _occurrences(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted keys: whether each is its key's first, and its occurrence
    rank among its key's entries (0 for the first)."""
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    position = np.arange(ranked.size)
    return first, position - np.maximum.accumulate(np.where(first, position, 0))


def _ordered_add(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(target, index, values)`, bit for bit: the values of each
    index are added to its row one at a time, in order.

    2-D `np.add.at` is slow on wide rows, so a 2-D target takes one fancy-index
    `+=` per occurrence rank instead: every index's first value, then every
    repeated index's second, and so on. Within one rank the indices are
    distinct, so each element still gets one rounded addition per value."""
    if target.ndim == 1 or index.size == 0:
        np.add.at(target, index, values)
        return
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    _, rank = _occurrences(ranked)
    for r in range(rank.max() + 1):
        at = rank == r
        target[ranked[at]] += values[order[at]]


def _signature(q_tokens: tuple[str, ...], d_tokens: tuple[str, ...]) -> tuple[int, ...]:
    """A doc's count of each distinct query term, in first-occurrence order:
    the only part of the doc its cross features depend on."""
    return tuple(map(d_tokens.count, dict.fromkeys(q_tokens)))


class Ranker:
    """Stateless scoring/training engine for one config; states are explicit.

    A cross ranker given a corpus and its index reads its plans' signatures of
    the corpus's documents from the index postings (see `_cross_plan`).
    """

    def __init__(
        self, config: RankerConfig, corpus: Corpus | None = None, index: InvertedIndex | None = None
    ):
        self.config = config
        self._index = index
        # cross with an index: each indexed text's doc ordinal (equal texts have equal postings)
        self._ordinals: dict[str, int] = (
            {corpus[did]: k for k, did in enumerate(index.doc_ids)}
            if index is not None and config.architecture == "cross"
            else {}
        )
        self._hasher = _Hasher(config.hash_seed)
        # cross: (query, signature) -> features and (query, doc list) -> plan
        self._feature_cache: dict[tuple[str, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
        self._plan_cache: dict[tuple[str, tuple[str, ...]], tuple[list, np.ndarray]] = {}
        # cross: text -> interned tokens and term -> hashed features;
        # bi and maxsim: text -> token buckets
        self._token_cache: dict[str, tuple[str, ...]] = {}
        self._term_cache: dict[str, tuple[int, float, int, float]] = {}
        self._bucket_cache: dict[str, np.ndarray] = {}
        # (query, positive, negative) texts -> the prepared triplet
        self._triplet_cache: dict[tuple[str, str, str], _Triplet] = {}
        self._param, self._shape = _weights(config)

    # -- state management -------------------------------------------------

    def init_state(self, seed: int, zero: bool = False) -> RankerState:
        cfg = self.config
        if zero:
            weights = np.zeros(self._shape)
        else:
            rng = np.random.default_rng(seed)
            bound = 1.0 / math.sqrt(cfg.dim)
            weights = rng.uniform(-bound, bound, size=self._shape)
        return RankerState(
            architecture=cfg.architecture,
            arrays={self._param: weights},
            step=0,
            config_fingerprint=cfg.fingerprint(),
        )

    # -- feature / token helpers ------------------------------------------

    def _buckets(self, text: str) -> np.ndarray:
        cached = self._bucket_cache.get(text)
        if cached is None:
            cached = np.array(
                [self._hasher.bucket(t, self.config.hash_buckets) for t in tokenize(text)],
                dtype=np.int64,
            )
            self._bucket_cache[text] = cached
        return cached

    def _tokens(self, text: str) -> tuple[str, ...]:
        """The cross model's tokens of `text`, one shared string per term."""
        cached = self._token_cache.get(text)
        if cached is None:
            cached = self._token_cache[text] = tuple(map(sys.intern, tokenize(text)))
        return cached

    def _term_features(self, term: str) -> tuple[int, float, int, float]:
        """(bucket, sign) of the term's ``q|t`` key, then of its ``m|t`` key."""
        cached = self._term_cache.get(term)
        if cached is None:
            dim = self.config.dim
            cached = self._term_cache[term] = (
                *self._hasher.signed_bucket(f"q|{term}", dim),
                *self._hasher.signed_bucket(f"m|{term}", dim),
            )
        return cached

    def cross_features(self, query_text: str, doc_text: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Sparse hashed feature vector as (bucket indices, signed values).

        `doc_text=None` gives the doc-free features: the all-zero signature."""
        q_tokens = self._tokens(query_text)
        if not q_tokens:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        d_tokens = self._tokens(doc_text) if doc_text is not None else ()
        return self._signature_features(query_text, _signature(q_tokens, d_tokens))

    def _signature_features(
        self, query_text: str, signature: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """`cross_features` of any doc with this signature (see `_signature`)."""
        key = (query_text, signature)
        cached = self._feature_cache.get(key)
        if cached is not None:
            return cached
        q_tokens = self._tokens(query_text)
        n_q = len(q_tokens)
        values: dict[int, float] = {}
        # distinct query terms in first-occurrence order, as in the signature
        for t, tf in zip(dict.fromkeys(q_tokens), signature):
            c = q_tokens.count(t)
            q_idx, q_sign, m_idx, m_sign = self._term_features(t)
            values[q_idx] = values.get(q_idx, 0.0) + q_sign * (c / n_q)
            if tf > 0:
                values[m_idx] = values.get(m_idx, 0.0) + m_sign * (c * (1.0 + math.log(tf)) / n_q)

        order = sorted(values)
        cached = self._feature_cache[key] = (
            np.array(order, dtype=np.int64),
            np.array([values[i] for i in order]),
        )
        return cached

    def _cross_plan(self, query_text: str, doc_texts: list[str]) -> tuple[list, np.ndarray]:
        """The cross scoring plan of a query with tokens and a doc list: the
        features of the list's distinct signatures, and each doc's position
        among them (-1 for a doc with no tokens). Made once per list.

        When every text is a document of the ranker's index, the signatures
        come from its postings, one tf lookup per distinct query term over the
        list's ordinals; otherwise from each text's tokens."""
        key = (query_text, tuple(doc_texts))
        plan = self._plan_cache.get(key)
        if plan is None:
            q_tokens = self._tokens(query_text)
            ordinals = list(map(self._ordinals.get, doc_texts))
            if self._ordinals and None not in ordinals:
                at = np.array(ordinals, dtype=np.int64)
                terms = dict.fromkeys(q_tokens)
                signatures = zip(*(self._index.term_frequencies(t, at).tolist() for t in terms))
                has_tokens = map(self._index.doc_lengths.__getitem__, ordinals)
            else:
                d_tokens = [self._tokens(doc_text) for doc_text in doc_texts]
                signatures = (_signature(q_tokens, d) for d in d_tokens)
                has_tokens = d_tokens
            slots: dict[tuple[int, ...], int] = {}
            doc_slots = [slots.setdefault(sig, len(slots)) if has else -1
                         for sig, has in zip(signatures, has_tokens)]
            features = [self._signature_features(query_text, sig) for sig in slots]
            plan = self._plan_cache[key] = (features, np.array(doc_slots, dtype=np.intp))
        return plan

    # -- scoring -----------------------------------------------------------

    def score(self, state: RankerState, query_text: str, doc_text: str) -> float:
        return float(self.score_batch(state, query_text, [doc_text])[0])

    def score_batch(self, state: RankerState, query_text: str, doc_texts: list[str]) -> np.ndarray:
        """Scores of one query against each document, in order.

        A query or document with no tokens scores 0. Each score uses the same
        operations as the training step's scores (see `_batch_gradient`).
        """
        self._check_state(state)
        scores = np.zeros(len(doc_texts))
        arch = state.architecture
        if arch == "cross":
            if not self._tokens(query_text):
                return scores
            features, doc_slots = self._cross_plan(query_text, doc_texts)
            w = state.arrays["w"]
            # one dot per signature; the appended 0.0 is slot -1's score
            return np.array([w[idx].dot(vals) for idx, vals in features] + [0.0])[doc_slots]
        qb = self._buckets(query_text)
        if qb.size == 0:
            return scores
        emb = state.arrays["emb"]
        eq = emb[qb]
        if arch == "bi":
            vq = eq.mean(axis=0)
            for k, doc_text in enumerate(doc_texts):
                db = self._buckets(doc_text)
                if db.size:
                    scores[k] = vq.dot(emb[db].mean(axis=0))
            return scores
        # maxsim: docs grouped by token count, each group scored in chunks of
        # one stacked matmul (token-less docs keep 0)
        groups: dict[int, list[int]] = {}
        buckets = [self._buckets(doc_text) for doc_text in doc_texts]
        for k, db in enumerate(buckets):
            if db.size:
                groups.setdefault(db.size, []).append(k)
        for n, members in groups.items():
            per_chunk = max(1, _GROUP_FLOATS // (n * emb.shape[1]))
            for a in range(0, len(members), per_chunk):
                chunk = members[a : a + per_chunk]
                docs = emb[np.concatenate([buckets[k] for k in chunk])].reshape(len(chunk), n, -1)
                scores[chunk] = np.matmul(eq, docs.transpose(0, 2, 1)).max(axis=2).sum(axis=1)
        return scores

    def encode_query(self, state: RankerState, query_text: str) -> np.ndarray:
        """Length-`dim` query representation used by diversity selection."""
        self._check_state(state)
        if state.architecture == "cross":
            if not self._tokens(query_text):
                return np.zeros(self.config.dim)
            idx, vals = self.cross_features(query_text, None)
            vec = np.zeros(self.config.dim)
            vec[idx] = vals
            return vec * state.arrays["w"]
        qb = self._buckets(query_text)
        if qb.size == 0:
            return np.zeros(self.config.dim)
        return state.arrays["emb"][qb].mean(axis=0)

    def rerank(
        self,
        state: RankerState,
        query_text: str,
        candidates: RankedList,
        corpus: Corpus,
    ) -> RankedList:
        """Reorder a candidate list by ranker score (descending, doc-id tie-break)."""
        if len(candidates) == 0:
            raise ValueError(f"empty candidate list for query {candidates.query_id}")
        doc_ids = candidates.doc_ids()
        scores = self.score_batch(state, query_text, corpus.texts(doc_ids))
        # RankedList's order, unchecked (ids distinct, scores floats); -(-s) is s
        ranked = RankedList(candidates.query_id, [])
        ranked.entries = [(did, -neg) for neg, did in sorted(zip((-scores).tolist(), doc_ids))]
        return ranked

    # -- training ----------------------------------------------------------

    def loss_and_gradient(
        self,
        state: RankerState,
        query_text: str,
        pos_text: str,
        neg_text: str,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """RankNet loss and dense gradient for a single triplet: the training
        step's gradient of a one-triplet batch, added into a zero array."""
        self._check_state(state)
        weights = state.arrays[self._param]
        grad = np.zeros_like(weights)
        triplet = self._prepare_triplet(query_text, pos_text, neg_text)
        [(s_pos, s_neg)], _ = self._batch_gradient(weights, [triplet], grad)
        return ranknet_loss(s_pos, s_neg, self.config.sigma), {self._param: grad}

    def _prepare_triplet(self, query_text: str, pos_text: str, neg_text: str) -> _Triplet:
        """The part of a triplet's gradient that does not depend on the weights,
        built once per text triple.

        A doc with no tokens, or a query with none, scores 0 and is left out
        of `docs`.
        """
        key = (query_text, pos_text, neg_text)
        cached = self._triplet_cache.get(key)
        if cached is not None:
            return cached
        arch = self.config.architecture
        if arch == "cross":
            qb = None
            docs = tuple(
                (k, self.cross_features(query_text, doc_text))
                for k, doc_text in enumerate((pos_text, neg_text))
                if self._tokens(query_text) and self._tokens(doc_text)
            )
            size = sum(idx.size for _, (idx, _) in docs)
        else:
            qb = self._buckets(query_text)
            docs = tuple(
                (k, db)
                for k, db in enumerate((self._buckets(pos_text), self._buckets(neg_text)))
                if qb.size and db.size
            )
            size = sum(qb.size + (qb.size if arch == "maxsim" else db.size) for _, db in docs)
        cached = self._triplet_cache[key] = _Triplet(qb, docs, size)
        return cached

    def _batch_gradient(
        self, weights: np.ndarray, batch: list[_Triplet], grads: np.ndarray
    ) -> tuple[list[list[float]], list[np.ndarray]]:
        """Add the RankNet gradient of each prepared triplet of a mini-batch
        into `grads`, as if triplet by triplet.

        Per triplet, only the score operations (those of `score_batch`) and
        `ranknet_gradient` run. The gradient terms are rows of values, per doc
        in this order: cross `g * vals` at its feature rows; bi `g * vd / |q|`
        at the query's rows, then `g * vq / |d|` at the doc's; maxsim
        `g * w[argmax rows]` at the query's rows, then `g * w[query rows]` at
        the argmax rows. They are summed per (triplet, row) in term order, and
        the sums go into `grads` in triplet order. The weights are fixed within
        a batch, so this runs per group of consecutive triplets, whose (terms,
        width) temporaries stay under `_GROUP_FLOATS`, with no change to the sums.

        Returns each triplet's [positive, negative] score and, per group, the
        rows of `grads` it added to (with repeats).
        """
        arch = self.config.architecture
        n_rows = weights.shape[0]
        per_doc = 1 if arch == "cross" else 2  # gradient sources per scoring doc
        width = weights[0].size
        per_group = max(1, _GROUP_FLOATS // (width * max(max(t.size for t in batch), 1)))
        scores, touched = [], []
        for a in range(0, len(batch), per_group):
            group = batch[a : a + per_group]
            # per gradient source, in term order: its factor g, its rows, and
            # its values (cross), vector (bi) or source rows (maxsim)
            factors, rows, sources = [], [], []
            for t in group:
                s = [0.0, 0.0]
                if arch == "cross":
                    for k, (idx, vals) in t.docs:
                        s[k] = float(weights[idx].dot(vals))
                        rows.append(idx)
                        sources.append(vals)
                elif t.docs:
                    qb = t.query_buckets
                    eq = weights[qb]
                    vq = eq.mean(axis=0) if arch == "bi" else None
                    for k, db in t.docs:
                        if arch == "bi":
                            vd = weights[db].mean(axis=0)
                            s[k] = float(vq.dot(vd))
                            rows += [qb, db]
                            sources += [vd, vq]
                        else:
                            sims = eq @ weights[db].T
                            best = db[sims.argmax(axis=1)]
                            s[k] = float(sims.max(axis=1).sum())
                            rows += [qb, best]
                            sources += [best, qb]
                g = ranknet_gradient(s[0], s[1], self.config.sigma)
                for k, _ in t.docs:
                    factors += [g[k]] * per_doc
                scores.append(s)
            if not factors:
                continue
            counts = [r.size for r in rows]
            position = np.repeat(np.arange(len(group)), [t.size for t in group])
            keys = position * n_rows + np.concatenate(rows)
            if arch == "maxsim":
                # keys sorted once; each rank's weight rows built as added
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                first, rank = _occurrences(keys)
                slot = np.cumsum(first) - 1  # each sorted term's key
                keys = keys[first]
                factor = np.repeat(factors, counts)[order]
                source = np.concatenate(sources)[order]
                sums = factor[first, None] * weights[source[first]]
                for r in range(1, rank.max() + 1):
                    at = rank == r
                    sums[slot[at]] += factor[at, None] * weights[source[at]]
            else:
                if arch == "cross":
                    values = np.repeat(factors, counts) * np.concatenate(sources)
                else:
                    n = np.array(counts)
                    values = np.repeat(np.array(factors)[:, None] * np.array(sources) / n[:, None], n, axis=0)
                keys, inverse = np.unique(keys, return_inverse=True)
                sums = np.zeros((keys.size,) + weights.shape[1:])
                _ordered_add(sums, inverse, values)
            touched.append(keys % n_rows)
            _ordered_add(grads, touched[-1], sums)
        return scores, touched

    def mean_loss(
        self,
        state: RankerState,
        triplets: list[TrainingTriplet],
        corpus: Corpus,
        queries: QuerySet,
    ) -> float:
        total = 0.0
        for t in triplets:
            s_pos, s_neg = self.score_batch(
                state, queries[t.query_id], [corpus[t.positive_id], corpus[t.negative_id]]
            ).tolist()
            total += ranknet_loss(s_pos, s_neg, self.config.sigma)
        return total / len(triplets)

    def train(
        self,
        state: RankerState,
        triplets: list[TrainingTriplet],
        corpus: Corpus,
        queries: QuerySet,
        epochs: int,
        seed: int,
    ) -> RankerState:
        """SGD over shuffled mini-batches; pure in `state`, deterministic in seed.

        Each mini-batch's gradient is assembled once (`_batch_gradient`) over
        only the rows its triplets touch, and the update changes only those
        rows. The result is bit-identical to summing dense per-triplet
        gradients into a dense batch gradient and updating every row (see the
        module docstring). Each triplet is prepared once per ranker
        (`_prepare_triplet`), not once per call or epoch.
        """
        if not triplets:
            raise ValueError("cannot train on an empty triplet list")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        for t in triplets:
            if t.query_id not in queries:
                raise ValueError(f"triplet references unknown query {t.query_id!r}")
            for did in (t.positive_id, t.negative_id):
                if did not in corpus:
                    raise ValueError(f"triplet references unknown document {did!r}")
        self._check_state(state)

        new = state.copy()
        weights = new.arrays[self._param]
        batch_grads = np.zeros_like(weights)
        in_batch = np.zeros(len(weights), dtype=bool)  # the rows a batch touched
        prepared = [
            self._prepare_triplet(queries[t.query_id], corpus[t.positive_id], corpus[t.negative_id])
            for t in triplets
        ]
        rng = np.random.default_rng(seed)
        cfg = self.config
        order = np.arange(len(triplets))
        for _ in range(epochs):
            rng.shuffle(order)
            for start in range(0, len(order), cfg.batch_size):
                batch = [prepared[i] for i in order[start : start + cfg.batch_size].tolist()]
                for rows in self._batch_gradient(weights, batch, batch_grads)[1]:
                    in_batch[rows] = True
                rows = np.flatnonzero(in_batch)
                weights[rows] -= cfg.learning_rate * batch_grads[rows] / len(batch)
                batch_grads[rows] = 0.0
                in_batch[rows] = False
                new.step += 1
        return new

    def _check_state(self, state: RankerState) -> None:
        if state.architecture != self.config.architecture:
            raise ValueError(
                f"state architecture {state.architecture!r} does not match "
                f"config {self.config.architecture!r}"
            )


# -- checkpointing ---------------------------------------------------------


def save_checkpoint(state: RankerState, path) -> None:
    """Versioned binary checkpoint: JSON header + little-endian float64 arrays."""
    header = {
        "version": CHECKPOINT_VERSION,
        "architecture": state.architecture,
        "step": state.step,
        "config_fingerprint": state.config_fingerprint,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in state.arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for v in state.arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path, config: RankerConfig | None = None) -> RankerState:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a ranker checkpoint: {path}")
    offset = 8 + int.from_bytes(data[4:8], "little")
    if len(data) < offset:
        raise ValueError(f"truncated checkpoint {path}: {len(data)} bytes, header needs {offset}")
    header = json.loads(data[8:offset])
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header['version']}")
    shapes = {spec["name"]: tuple(spec["shape"]) for spec in header["arrays"]}
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) < expected:
        raise ValueError(
            f"truncated checkpoint {path}: {len(data)} bytes, arrays need {expected}"
        )
    arrays = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        data_view = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        arrays[name] = data_view.reshape(shape).astype(np.float64)
        offset += 8 * count
    state = RankerState(
        architecture=header["architecture"],
        arrays=arrays,
        step=header["step"],
        config_fingerprint=header["config_fingerprint"],
    )
    if config is not None:
        if config.architecture != state.architecture:
            raise ValueError(
                f"checkpoint architecture {state.architecture!r} does not match "
                f"config {config.architecture!r}"
            )
        # a state of another shape would be scored and trained with the
        # config's hashing without an error
        name, shape = _weights(config)
        if shapes.get(name) != shape:
            raise ValueError(
                f"checkpoint {path} holds arrays of shapes {shapes}; "
                f"the config expects {name!r} of shape {shape}"
            )
    return state
