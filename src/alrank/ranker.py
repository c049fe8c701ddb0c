"""Trainable rankers: feature-hashed cross-scorer, bi-encoder, and token max-sim.

All three share a RankNet pairwise loss and plain SGD. Feature/embedding
hashing is keyed by a config seed so states are fully reproducible.

A `Ranker` computes what does not depend on the weights once and keeps it:
  - per text, `tokenize` runs once. Cross keeps the tokens, one interned
    string per distinct term, so texts sharing a word share its object; bi
    and maxsim keep only the text's token-bucket array.
  - per term (cross), the ``q|t`` and ``m|t`` keys are hashed once to their
    (bucket, sign).
  - per (query, signature) (cross), the sparse feature vector. A doc's
    signature is its count of each distinct query term, in first-occurrence
    order; the features depend on nothing else, so docs with equal counts
    share one vector; `cross_features(q, None)` has the all-zero signature.
  - per (query, doc list) (cross), a scoring plan (`_cross_plan`): the list's
    distinct signatures' features and each doc's position among them.
  - per `train` call, each triplet's scoring docs and feature or bucket
    arrays and, for cross and bi, its gradient rows and their inverse map
    (`_prepare_triplet`). Maxsim's rows depend on the argmax, so it keeps
    the sorted union of its buckets and each bucket's position in it, and
    each step marks the positions the argmax picked.
The caches only skip recomputing the same values: a cross feature vector is
built from the cached tokens with the float operations of the per-call
version (per bucket, `sign * value` added for ``q|t`` and then ``m|t``, over
the query's distinct terms in first-occurrence order, bucket ids sorted), so
features, scores and trained weights are bit-identical.

Scoring has one path, `Ranker.score_batch`: one query against a list of
documents. `score`, `rerank`, `mean_loss`, uncertainty and QBC selection and
evaluation all go through it. Cross computes one `w[idx] @ vals` per distinct
signature of the list's plan and gathers the documents' scores from those;
bi and maxsim score each document with its own dot product or small matmul,
as one `score` call did before. The dot products stay separate: one big
matmul, a sum or `np.add.reduceat` over all of them would change the last
bit of some scores (for n < 16 OpenBLAS's `ddot` accumulates by fused
multiply-add, which a plain sequential sum does not reproduce).

Training is sparse: a triplet's gradient is a block over only the weight rows
it touches (its query's and documents' buckets or hashed features), added into
the mini-batch gradient at those rows, and the SGD update rewrites only the
rows the batch touched. The block is filled by one 1-D `np.add.at` over its
flattened elements, with the terms laid out in the order of the dense
per-term fill. Each touched row receives the same float additions in the
same order as a dense per-triplet gradient summed into a dense batch
gradient, and an untouched row would only see `+ 0.0` and `- 0.0`, so the
trained weights are bit-identical to the dense algorithm's.

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
from .lexical import tokenize

ARCHITECTURES = ("cross", "bi", "maxsim")
CHECKPOINT_MAGIC = b"ALRK"
CHECKPOINT_VERSION = 1


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
    """A triplet as `Ranker._prepare_triplet` leaves it for `_triplet_gradient`."""

    query_buckets: np.ndarray | None  # bi and maxsim
    # (0 for the positive doc or 1 for the negative, its cross (idx, vals) or
    # its buckets), for the docs that score: both texts have tokens
    docs: tuple
    # cross and bi: the gradient's rows and each term index's position among
    # them. maxsim: `rows` is the sorted union of the query's and the scoring
    # docs' buckets, `where` is None, and `positions` holds the position in
    # `rows` of each of the query's buckets, then of each scoring doc's.
    rows: np.ndarray | None
    where: np.ndarray | None
    positions: tuple | None


def _unique_rows(indices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct rows of the concatenated indices, and the position
    of each index among them."""
    return np.unique(np.concatenate(indices), return_inverse=True)


def _marked_rows(union: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_unique_rows` of `union[positions]`, for a sorted distinct `union`:
    the marked entries of `union`, and each position's rank among the marks."""
    mask = np.zeros(union.size, dtype=bool)
    mask[positions] = True
    return union[mask], mask.cumsum()[positions] - 1


def _signature(q_tokens: tuple[str, ...], d_tokens: tuple[str, ...]) -> tuple[int, ...]:
    """A doc's count of each distinct query term, in first-occurrence order:
    the only part of the doc its cross features depend on."""
    return tuple(map(d_tokens.count, dict.fromkeys(q_tokens)))


class Ranker:
    """Stateless scoring/training engine for one config; states are explicit."""

    def __init__(self, config: RankerConfig):
        self.config = config
        self._hasher = _Hasher(config.hash_seed)
        # cross: (query, signature) -> features and (query, doc list) -> plan
        self._feature_cache: dict[tuple[str, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
        self._plan_cache: dict[tuple[str, tuple[str, ...]], tuple[list, np.ndarray]] = {}
        # cross: text -> interned tokens and term -> hashed features;
        # bi and maxsim: text -> token buckets
        self._token_cache: dict[str, tuple[str, ...]] = {}
        self._term_cache: dict[str, tuple[int, float, int, float]] = {}
        self._bucket_cache: dict[str, np.ndarray] = {}
        self._param = "w" if config.architecture == "cross" else "emb"

    # -- state management -------------------------------------------------

    def init_state(self, seed: int, zero: bool = False) -> RankerState:
        cfg = self.config
        shape = (cfg.dim,) if cfg.architecture == "cross" else (cfg.hash_buckets, cfg.dim)
        if zero:
            weights = np.zeros(shape)
        else:
            rng = np.random.default_rng(seed)
            bound = 1.0 / math.sqrt(cfg.dim)
            weights = rng.uniform(-bound, bound, size=shape)
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
        among them (-1 for a doc with no tokens). Made once per list."""
        key = (query_text, tuple(doc_texts))
        plan = self._plan_cache.get(key)
        if plan is None:
            q_tokens = self._tokens(query_text)
            slots: dict[tuple[int, ...], int] = {}
            doc_slots = []
            for doc_text in doc_texts:
                d_tokens = self._tokens(doc_text)
                if d_tokens:
                    doc_slots.append(slots.setdefault(_signature(q_tokens, d_tokens), len(slots)))
                else:
                    doc_slots.append(-1)
            features = [self._signature_features(query_text, sig) for sig in slots]
            plan = self._plan_cache[key] = (features, np.array(doc_slots, dtype=np.intp))
        return plan

    # -- scoring -----------------------------------------------------------

    def score(self, state: RankerState, query_text: str, doc_text: str) -> float:
        return float(self.score_batch(state, query_text, [doc_text])[0])

    def score_batch(self, state: RankerState, query_text: str, doc_texts: list[str]) -> np.ndarray:
        """Scores of one query against each document, in order.

        A query or document with no tokens scores 0. Each score uses the same
        operations as the training step's scores (see `_triplet_gradient`).
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
            return np.array([w[idx] @ vals for idx, vals in features] + [0.0])[doc_slots]
        qb = self._buckets(query_text)
        if qb.size == 0:
            return scores
        emb = state.arrays["emb"]
        eq = emb[qb]
        vq = eq.mean(axis=0) if arch == "bi" else None
        for k, doc_text in enumerate(doc_texts):
            db = self._buckets(doc_text)
            if db.size == 0:
                continue
            if arch == "bi":
                scores[k] = vq @ emb[db].mean(axis=0)
            else:
                scores[k] = (eq @ emb[db].T).max(axis=1).sum()
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
        scores = self.score_batch(state, query_text, [corpus[did] for did in doc_ids])
        return RankedList(candidates.query_id, list(zip(doc_ids, scores.tolist())))

    # -- training ----------------------------------------------------------

    def loss_and_gradient(
        self,
        state: RankerState,
        query_text: str,
        pos_text: str,
        neg_text: str,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """RankNet loss and dense gradient for a single triplet (the sparse
        gradient of `_triplet_gradient` written into a zero array)."""
        self._check_state(state)
        weights = state.arrays[self._param]
        triplet = self._prepare_triplet(query_text, pos_text, neg_text)
        loss, rows, block = self._triplet_gradient(weights, triplet)
        grad = np.zeros_like(weights)
        grad[rows] = block
        return loss, {self._param: grad}

    def _prepare_triplet(self, query_text: str, pos_text: str, neg_text: str) -> _Triplet:
        """The part of a triplet's gradient that does not depend on the weights.

        A doc with no tokens, or a query with none, scores 0 and is left out
        of `docs`. The gradient's rows are the concatenated indices of its
        terms: cross, per doc its feature indices; bi, per doc the query's
        buckets, then the doc's. Their `np.unique` is computed here. Maxsim's
        doc rows depend on the argmax, so it keeps the union of its buckets
        and their positions in it instead.
        """
        arch = self.config.architecture
        if arch == "cross":
            qb = None
            docs = tuple(
                (k, self.cross_features(query_text, doc_text))
                for k, doc_text in enumerate((pos_text, neg_text))
                if self._tokens(query_text) and self._tokens(doc_text)
            )
        else:
            qb = self._buckets(query_text)
            docs = tuple(
                (k, db)
                for k, db in enumerate((self._buckets(pos_text), self._buckets(neg_text)))
                if qb.size and db.size
            )
        if not docs:
            return _Triplet(qb, docs, None, None, None)
        if arch == "maxsim":
            buckets = [qb] + [db for _, db in docs]
            union = np.unique(np.concatenate(buckets))
            positions = tuple(np.searchsorted(union, b) for b in buckets)
            return _Triplet(qb, docs, union, None, positions)
        if arch == "cross":
            indices = [idx for _, (idx, _) in docs]
        else:
            indices = [b for _, db in docs for b in (qb, db)]
        return _Triplet(qb, docs, *_unique_rows(indices), None)

    def _triplet_gradient(
        self, weights: np.ndarray, triplet: _Triplet
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """RankNet loss of one prepared triplet and its gradient over the rows
        it touches.

        Returns (loss, rows, block): `rows` are the sorted distinct indices of
        `weights` with a gradient term and `block[k]` is the gradient of row
        `rows[k]`. The terms are laid out in a fixed order (positive doc, then
        negative; within a doc, query rows, then doc rows) and added by one
        1-D `np.add.at` on the flattened block, which adds them one element
        at a time in that order, so every element sums the same floats in the
        same order as one `np.add.at` per term into a dense zero array would.
        The scores use the same operations as `score`.

        Maxsim's rows are those of the union its terms' positions mark
        (`_marked_rows`).
        """
        arch = self.config.architecture
        qb, docs, rows, where, positions = triplet
        if docs and arch != "cross":
            eq = weights[qb]
            vq = eq.mean(axis=0) if arch == "bi" else None
        scores = [0.0, 0.0]
        # per doc: (indices, vector, n) with d(score)/d(weights[indices]) = vector / n
        partials: list[list[tuple]] = [[], []]
        picked = []  # maxsim: each term's positions in `rows`, in term order
        for j, (k, data) in enumerate(docs):
            if arch == "cross":
                idx, vals = data
                scores[k] = float(weights[idx] @ vals)
                partials[k] = [(idx, vals, 1)]
            elif arch == "bi":
                vd = weights[data].mean(axis=0)
                scores[k] = float(vq @ vd)
                partials[k] = [(qb, vd, qb.size), (data, vq, data.size)]
            else:
                ed = weights[data]
                sims = eq @ ed.T
                best = sims.argmax(axis=1)
                scores[k] = float(sims[np.arange(best.size), best].sum())
                partials[k] = [(qb, ed[best], 1), (data[best], eq, 1)]
                picked += [positions[0], positions[1 + j][best]]
        sigma = self.config.sigma
        loss = ranknet_loss(scores[0], scores[1], sigma)
        g_docs = ranknet_gradient(scores[0], scores[1], sigma)
        # x / 1.0 == x exactly, so the division is skipped when n == 1.
        terms = [
            (idx, g * vec if n == 1 else g * vec / n)
            for g, doc in zip(g_docs, partials)
            for idx, vec, n in doc
        ]
        if not terms:
            return loss, np.zeros(0, dtype=np.int64), np.zeros((0,) + weights.shape[1:])
        if where is None:
            rows, where = _marked_rows(rows, np.concatenate(picked))
        block = np.zeros((rows.size,) + weights.shape[1:])
        # bi's terms are one vector for all of a doc's rows; broadcast it to them.
        values = np.concatenate([
            vals if vals.ndim == weights.ndim else np.broadcast_to(vals, (idx.size, vals.size))
            for idx, vals in terms
        ])
        if weights.ndim == 2:
            width = weights.shape[1]
            where = (where[:, None] * width + np.arange(width)).ravel()
        np.add.at(block.reshape(-1), where, values.ravel())
        return loss, rows, block

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

        Each triplet's gradient covers only the rows it touches and is added
        into the batch gradient at those rows; the update then changes only
        the rows the batch touched. The result is bit-identical to summing
        dense per-triplet gradients into a dense batch gradient and updating
        every row (see the module docstring). Each triplet is prepared once
        per call (`_prepare_triplet`), not once per epoch.
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
                batch = order[start : start + cfg.batch_size]
                touched = []
                for i in batch:
                    _, rows, block = self._triplet_gradient(weights, prepared[i])
                    batch_grads[rows] += block
                    touched.append(rows)
                batch_rows = np.unique(np.concatenate(touched))
                weights[batch_rows] -= cfg.learning_rate * batch_grads[batch_rows] / len(batch)
                batch_grads[batch_rows] = 0.0
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
    if config is not None and config.architecture != state.architecture:
        raise ValueError(
            f"checkpoint architecture {state.architecture!r} does not match "
            f"config {config.architecture!r}"
        )
    return state
