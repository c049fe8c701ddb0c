"""Trainable rankers: feature-hashed cross-scorer, bi-encoder, and token max-sim.

All three share a RankNet pairwise loss and plain SGD. Feature/embedding
hashing is keyed by a config seed so states are fully reproducible.

Training is sparse: a triplet's gradient is a block over only the weight rows
it touches (its query's and documents' buckets or hashed features), added into
the mini-batch gradient at those rows, and the SGD update rewrites only the
rows the batch touched. Each touched row receives the same float additions in
the same order as a dense per-triplet gradient summed into a dense batch
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
from dataclasses import dataclass

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
    """Seeded, memoized token/feature hashing."""

    def __init__(self, seed: int):
        self._key = seed.to_bytes(8, "little", signed=False)
        self._cache: dict[str, int] = {}

    def raw(self, token: str) -> int:
        h = self._cache.get(token)
        if h is None:
            digest = hashlib.blake2b(token.encode(), digest_size=8, key=self._key).digest()
            h = int.from_bytes(digest, "little")
            self._cache[token] = h
        return h

    def bucket(self, token: str, n_buckets: int) -> int:
        return self.raw(token) % n_buckets

    def signed_bucket(self, key: str, n_buckets: int) -> tuple[int, float]:
        h = self.raw(key)
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


class Ranker:
    """Stateless scoring/training engine for one config; states are explicit."""

    def __init__(self, config: RankerConfig):
        self.config = config
        self._hasher = _Hasher(config.hash_seed)
        self._feature_cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
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

    def cross_features(self, query_text: str, doc_text: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Sparse hashed feature vector as (bucket indices, signed values)."""
        key = (query_text, doc_text if doc_text is not None else "\x00none")
        cached = self._feature_cache.get(key)
        if cached is not None:
            return cached
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
            idx, sign = self._hasher.signed_bucket(feature_key, self.config.dim)
            values[idx] = values.get(idx, 0.0) + sign * value

        n_q = len(q_tokens)
        for t, c in q_counts.items():
            add(f"q|{t}", c / n_q)
            tf = d_counts.get(t, 0)
            if tf > 0:
                add(f"m|{t}", c * (1.0 + math.log(tf)) / n_q)

        idx = np.array(sorted(values), dtype=np.int64)
        vals = np.array([values[i] for i in idx])
        self._feature_cache[key] = (idx, vals)
        return idx, vals

    # -- scoring -----------------------------------------------------------

    def score(self, state: RankerState, query_text: str, doc_text: str) -> float:
        self._check_state(state)
        if not tokenize(query_text) or not tokenize(doc_text):
            return 0.0
        if state.architecture == "cross":
            idx, vals = self.cross_features(query_text, doc_text)
            return float(state.arrays["w"][idx] @ vals)
        emb = state.arrays["emb"]
        qb = self._buckets(query_text)
        db = self._buckets(doc_text)
        if state.architecture == "bi":
            vq = emb[qb].mean(axis=0)
            vd = emb[db].mean(axis=0)
            return float(vq @ vd)
        sims = emb[qb] @ emb[db].T
        return float(sims.max(axis=1).sum())

    def encode_query(self, state: RankerState, query_text: str) -> np.ndarray:
        """Length-`dim` query representation used by diversity selection."""
        self._check_state(state)
        tokens = tokenize(query_text)
        if not tokens:
            return np.zeros(self.config.dim)
        if state.architecture == "cross":
            idx, vals = self.cross_features(query_text, None)
            vec = np.zeros(self.config.dim)
            vec[idx] = vals
            return vec * state.arrays["w"]
        return state.arrays["emb"][self._buckets(query_text)].mean(axis=0)

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
        scored = [
            (did, self.score(state, query_text, corpus[did]))
            for did in candidates.doc_ids()
        ]
        return RankedList(candidates.query_id, scored)

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
        loss, rows, block = self._triplet_gradient(weights, query_text, pos_text, neg_text)
        grad = np.zeros_like(weights)
        grad[rows] = block
        return loss, {self._param: grad}

    def _triplet_gradient(
        self,
        weights: np.ndarray,
        query_text: str,
        pos_text: str,
        neg_text: str,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """RankNet loss of one triplet and its gradient over the rows it touches.

        Returns (loss, rows, block): `rows` are the sorted distinct indices of
        `weights` with a gradient term and `block[k]` is the gradient of row
        `rows[k]`. Terms are added one occurrence at a time in a fixed order
        (positive doc, then negative; within a doc, query rows, then doc rows),
        so every row sums the same floats in the same order as a dense
        `np.add.at` into a zero array would. The scores use the same
        operations as `score`. A doc with no tokens, or a query with none,
        scores 0 and adds no terms.
        """
        arch = self.config.architecture
        qb = self._buckets(query_text)
        if qb.size and arch != "cross":
            eq = weights[qb]
            vq = eq.mean(axis=0) if arch == "bi" else None
        scores = [0.0, 0.0]
        # per doc: (indices, vector, n) with d(score)/d(weights[indices]) = vector / n
        partials: list[list[tuple]] = [[], []]
        for k, doc_text in enumerate((pos_text, neg_text)):
            db = self._buckets(doc_text)
            if qb.size == 0 or db.size == 0:
                continue
            if arch == "cross":
                idx, vals = self.cross_features(query_text, doc_text)
                scores[k] = float(weights[idx] @ vals)
                partials[k] = [(idx, vals, 1)]
            elif arch == "bi":
                vd = weights[db].mean(axis=0)
                scores[k] = float(vq @ vd)
                partials[k] = [(qb, vd, qb.size), (db, vq, db.size)]
            else:
                ed = weights[db]
                sims = eq @ ed.T
                best = sims.argmax(axis=1)
                scores[k] = float(sims.max(axis=1).sum())
                partials[k] = [(qb, ed[best], 1), (db[best], eq, 1)]
        sigma = self.config.sigma
        loss = ranknet_loss(scores[0], scores[1], sigma)
        g_docs = ranknet_gradient(scores[0], scores[1], sigma)
        terms = [(idx, g * vec / n) for g, doc in zip(g_docs, partials) for idx, vec, n in doc]
        if not terms:
            return loss, np.zeros(0, dtype=np.int64), np.zeros((0,) + weights.shape[1:])
        rows, where = np.unique(np.concatenate([idx for idx, _ in terms]), return_inverse=True)
        block = np.zeros((rows.size,) + weights.shape[1:])
        start = 0
        for idx, vals in terms:
            np.add.at(block, where[start : start + idx.size], vals)
            start += idx.size
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
            s_pos = self.score(state, queries[t.query_id], corpus[t.positive_id])
            s_neg = self.score(state, queries[t.query_id], corpus[t.negative_id])
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
        every row (see the module docstring).
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
        texts = [
            (queries[t.query_id], corpus[t.positive_id], corpus[t.negative_id]) for t in triplets
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
                    _, rows, block = self._triplet_gradient(weights, *texts[i])
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
