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
        if self.entropy_pair_depth is not None and self.entropy_pair_depth < 2:
            raise ValueError("entropy_pair_depth must be >= 2 or None")
        if self.kmeans_max_iters < 1:
            raise ValueError("kmeans_max_iters must be >= 1")


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

    Returns (query id, doc id, |score - mean|) triples, most uncertain first:
    ordered by (distance, query id, doc id).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    qids: list[str] = []
    dids: list[str] = []
    parts = []
    for qid in pool:
        if qid not in bm25_run:
            continue
        doc_ids = bm25_run[qid].top(depth).doc_ids()
        parts.append(ranker.score_batch(state, queries[qid], [corpus[did] for did in doc_ids]))
        qids += [qid] * len(doc_ids)
        dids += doc_ids
    if not qids:
        raise ValueError("no candidates available for uncertainty selection")
    scores = np.concatenate(parts)
    # the sum of a left-to-right loop from 0.0: Python's sum() compensates its
    # additions from 3.12 on, and np.sum adds pairwise
    mean = float(np.cumsum(np.concatenate(([0.0], scores)))[-1]) / scores.size
    dist = np.abs(scores - mean)
    order = np.lexsort((_string_ranks(dids), _string_ranks(qids), dist)).tolist()
    dist_list = dist.tolist()
    out = []
    seen_queries: set[str] = set()
    for i in order:
        if one_pair_per_query:
            if qids[i] in seen_queries:
                continue
            seen_queries.add(qids[i])
        out.append((qids[i], dids[i], dist_list[i]))
        if len(out) == s:
            break
    return out


def _string_ranks(strings: list[str]) -> np.ndarray:
    """Each string's rank in sorted order of the distinct strings (equal
    strings share a rank), for `np.lexsort` keys."""
    rank = {v: r for r, v in enumerate(sorted(set(strings)))}
    return np.fromiter(map(rank.__getitem__, strings), dtype=np.intp, count=len(strings))


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
    if pair_depth is not None and pair_depth < 2:
        raise ValueError("pair depth must be >= 2")
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

    Distances come from `_squared_distances`, which works through the points
    in row blocks of about `_BLOCK_FLOATS` (2**17) floats of (rows, k, d)
    temporary: 12 rows at k=20, d=512, about 1 MB whatever n is. The (n, k)
    distance table is kept across passes and only stale columns are refilled:
    seeding measures every seed's column and keeps it, so the first pass does
    no distance work; after each pass only the clusters that gained or lost a
    point get a new mean, and the next pass re-measures only their columns.

    This is bit-identical to recomputing every distance and every mean in
    every pass. Entry (i, c) is one sum over the contiguous length-d row of
    squared differences of points[i] and centroids[c], whatever other
    centroids are measured with it or how the rows are blocked; and an
    unchanged cluster's mean runs over the same rows in the same order, so
    its centroid keeps its bytes. The argmin, the repair and the assignment
    are therefore those of one (n, k, d) broadcast per pass.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of points ({n})")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    # k-means++ initialization; each seed's distance column is kept in dists
    centroids = np.empty((k, points.shape[1]))
    dists = np.empty((n, k))
    centroids[0] = points[rng.integers(n)]
    dists[:, 0] = closest_sq = _squared_distances(points, centroids[0:1])[:, 0]
    for c in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            centroids[c] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest_sq), r))
            idx = min(idx, n - 1)
            centroids[c] = points[idx]
        dists[:, c] = _squared_distances(points, centroids[c : c + 1])[:, 0]
        closest_sq = np.minimum(closest_sq, dists[:, c])

    assignment = None
    moved = np.zeros(k, dtype=bool)  # centroids whose dists column is stale
    for _iter in range(max_iters):
        if moved.any():
            dists[:, moved] = _squared_distances(points, centroids[moved])
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
        if assignment is None:
            moved[:] = True
        else:
            changed = new_assignment != assignment
            if not changed.any():
                break
            moved[:] = False
            moved[assignment[changed]] = True
            moved[new_assignment[changed]] = True
        assignment = new_assignment
        for c in np.flatnonzero(moved):
            centroids[c] = points[assignment == c].mean(axis=0)
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
