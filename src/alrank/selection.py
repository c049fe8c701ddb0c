"""Query/pair selection strategies: random, uncertainty, QBC vote entropy, diversity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Corpus, QuerySet, RankedList, Run
from .ranker import Ranker, RankerState

STRATEGIES = ("random", "uncertainty", "qbc", "diversity")

# floats of (rows, k, d) temporary per row block of the k-means distance pass:
# 1 MB stays in cache
_BLOCK_FLOATS = 2**17


@dataclass(frozen=True)
class SelectionConfig:
    strategy: str = "random"
    samples_per_iteration: int = 20
    candidate_depth: int = 100
    committee_size: int = 2
    member_fraction: float = 0.8
    entropy_pair_depth: int | None = None  # None: full candidate depth
    kmeans_max_iters: int = 100
    one_pair_per_query: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.samples_per_iteration < 1:
            raise ValueError("samples_per_iteration must be >= 1")
        if self.candidate_depth < 1:
            raise ValueError("candidate_depth must be >= 1")
        if self.committee_size < 2:
            raise ValueError("committee_size must be >= 2")
        if not 0 < self.member_fraction <= 1:
            raise ValueError("member_fraction must be in (0, 1]")


def select_random(pool: list[str], s: int, rng: np.random.Generator) -> list[str]:
    """Uniform sample without replacement of size min(s, |pool|)."""
    if not pool:
        raise ValueError("cannot select from an empty pool")
    if s < 1:
        raise ValueError("s must be >= 1")
    n = min(s, len(pool))
    picked = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in picked]


def select_uncertainty(
    ranker: Ranker,
    state: RankerState,
    pool: list[str],
    queries: QuerySet,
    bm25_run: Run,
    corpus: Corpus,
    depth: int,
    s: int,
    one_pair_per_query: bool = False,
) -> list[tuple[str, str, float]]:
    """Pairs whose ranker score is closest to the global mean over all top-depth scores.

    Returns (query id, doc id, |score - mean|) triples, most uncertain first.
    """
    scored: list[tuple[str, str, float]] = []
    for qid in pool:
        if qid not in bm25_run:
            continue
        doc_ids = bm25_run[qid].top(depth).doc_ids()
        scores = ranker.score_batch(state, queries[qid], [corpus[did] for did in doc_ids])
        scored.extend((qid, did, score) for did, score in zip(doc_ids, scores.tolist()))
    if not scored:
        raise ValueError("no candidates available for uncertainty selection")
    mean = sum(score for _, _, score in scored) / len(scored)
    ranked = sorted(
        ((qid, did, abs(score - mean)) for qid, did, score in scored),
        key=lambda e: (e[2], e[0], e[1]),
    )
    if not one_pair_per_query:
        return ranked[:s]
    out = []
    seen_queries: set[str] = set()
    for qid, did, dist in ranked:
        if qid in seen_queries:
            continue
        seen_queries.add(qid)
        out.append((qid, did, dist))
        if len(out) == s:
            break
    return out


def vote_entropy(member_rankings: list[RankedList], pair_depth: int | None = None) -> float:
    """Committee disagreement over ordered document pairs.

    Pairs are drawn from the top-`pair_depth` of the first member's ranking;
    N(p_i before p_j) counts members ranking p_i above p_j.
    """
    if len(member_rankings) < 2:
        raise ValueError("vote entropy requires at least 2 committee members")
    candidate_set = set(member_rankings[0].doc_ids())
    for r in member_rankings[1:]:
        if set(r.doc_ids()) != candidate_set:
            raise ValueError("committee members rank different candidate sets")
    depth = pair_depth if pair_depth is not None else len(candidate_set)
    if depth < 2:
        raise ValueError("pair depth must be >= 2")
    top_docs = member_rankings[0].doc_ids()[:depth]
    m = len(member_rankings)
    pos = np.empty((m, len(top_docs)), dtype=np.int64)
    for k, r in enumerate(member_rankings):
        position = {did: p for p, did in enumerate(r.doc_ids())}
        pos[k] = [position[did] for did in top_docs]
    # votes[i, j] = members ranking top_docs[i] above top_docs[j]; 0 on the
    # diagonal, and votes[i, j] + votes[j, i] = m, so some term is nonzero
    votes = (pos[:, :, None] < pos[:, None, :]).sum(axis=0)
    nonzero = votes[votes > 0]  # row-major: the (i, j) order of a double loop
    table = np.array([0.0] + [v * math.log(v / m) for v in range(1, m + 1)])
    # cumsum adds one term at a time, in order, like a loop's `+=`; np.sum
    # adds pairwise and would change the last bits
    total = float(np.cumsum(table[nonzero])[-1])
    return -total / m


def select_qbc(
    ranker: Ranker,
    committee: list[RankerState],
    pool: list[str],
    queries: QuerySet,
    bm25_run: Run,
    corpus: Corpus,
    depth: int,
    s: int,
    pair_depth: int | None = None,
) -> list[tuple[str, float]]:
    """Top-s pool queries by committee vote entropy, descending; (qid, VE) pairs.

    A query with fewer than two candidates (no BM25 hits, say) has no pair to
    vote on: it gets vote entropy 0.0 and follows every scored query, in id
    order, so it is picked only when too few queries can be scored.
    """
    if len(committee) < 2:
        raise ValueError("QBC requires a committee of at least 2")
    entropies: list[tuple[str, float]] = []
    unscored: list[tuple[str, float]] = []
    for qid in pool:
        if qid not in bm25_run:
            continue
        candidates = bm25_run[qid].top(depth)
        if len(candidates) < 2:
            unscored.append((qid, 0.0))
            continue
        rankings = [
            ranker.rerank(member, queries[qid], candidates, corpus)
            for member in committee
        ]
        entropies.append((qid, vote_entropy(rankings, pair_depth)))
    if not entropies and not unscored:
        raise ValueError("no candidates available for QBC selection")
    entropies.sort(key=lambda e: (-e[1], e[0]))
    return (entropies + sorted(unscored))[:s]


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances of every point to every centroid, one
    broadcast per block of `_BLOCK_FLOATS // (k * d)` points."""
    k, d = centroids.shape
    rows = max(1, _BLOCK_FLOATS // max(k * d, 1))
    out = np.empty((len(points), k))
    for a in range(0, len(points), rows):
        block = points[a : a + rows]
        out[a : a + rows] = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return out


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 100
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; guarantees k non-empty clusters.

    Empty clusters are repaired by reseeding from the point farthest from its
    assigned centroid. Returns an assignment array of length len(points).

    Seeding and every Lloyd pass take their distances from
    `_squared_distances`, which works through the points in row blocks of
    about `_BLOCK_FLOATS` (2**17) floats of (rows, k, d) temporary: 12 rows
    at k=20, d=512, about 1 MB whatever n is. Each (i, c) entry is still one
    sum over the same contiguous length-d row of squared differences, so the
    distances, hence the argmin, the repair and the assignment, are
    bit-identical to one (n, k, d) broadcast.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of points ({n})")
    if k < 1:
        raise ValueError("k must be >= 1")

    # k-means++ initialization
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest_sq = _squared_distances(points, centroids[0:1])[:, 0]
    for c in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            centroids[c] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest_sq), r))
            idx = min(idx, n - 1)
            centroids[c] = points[idx]
        closest_sq = np.minimum(
            closest_sq, _squared_distances(points, centroids[c : c + 1])[:, 0]
        )

    assignment = None
    for _iter in range(max_iters):
        dists = _squared_distances(points, centroids)
        new_assignment = dists.argmin(axis=1)
        # repair empty clusters: steal the farthest point from a cluster of >= 2
        own_dist = dists[np.arange(n), new_assignment]
        for c in range(k):
            if not (new_assignment == c).any():
                counts = np.bincount(new_assignment, minlength=k)
                eligible = counts[new_assignment] >= 2
                masked = np.where(eligible, own_dist, -np.inf)
                worst = int(masked.argmax())
                new_assignment[worst] = c
                own_dist[worst] = -np.inf
        if assignment is not None and (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assignment


def select_diversity(
    ranker: Ranker,
    state: RankerState,
    pool: list[str],
    queries: QuerySet,
    s: int,
    rng: np.random.Generator,
    max_iters: int = 100,
) -> list[str]:
    """Cluster pool query encodings into s groups; sample one query per cluster."""
    if s > len(pool):
        raise ValueError(f"s ({s}) exceeds pool size ({len(pool)})")
    ordered_pool = sorted(pool)
    points = np.stack([ranker.encode_query(state, queries[q]) for q in ordered_pool])
    assignment = kmeans(points, s, rng, max_iters=max_iters)
    selected = []
    for c in range(s):
        members = [q for q, a in zip(ordered_pool, assignment) if a == c]
        selected.append(members[rng.integers(len(members))])
    return selected
