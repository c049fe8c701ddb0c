"""Query/pair selection strategies: random, uncertainty, QBC vote entropy, diversity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Corpus, QuerySet, RankedList, Run
from .ranker import Ranker, RankerState

STRATEGIES = ("random", "uncertainty", "qbc", "diversity")

# floats of (pairs, d) temporary per block of exact k-means distances: 256 KB
# stays in cache (1 MB blocks cost about 25% more k-means time in a
# mid-diversity loop on a 2-vCPU x86-64 VM)
_BLOCK_FLOATS = 2**15


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
        parts.append(ranker.score_batch(state, queries[qid], corpus.texts(doc_ids)))
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
    if s < 1:
        raise ValueError("s must be >= 1")
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


def _near_distances(points, point_sq, centroids, best=None) -> np.ndarray:
    """(n, k) squared distances, +inf where a pair's lower bound exceeds best[i]
    (default: point i's least upper bound); see `kmeans`. Each is one contiguous
    row sum, in blocks of `_BLOCK_FLOATS // d` pairs."""
    fp = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        total_sq = point_sq[:, None] + np.einsum("ij,ij->i", centroids, centroids)
        estimate = total_sq - 2.0 * (points @ centroids.T)
        estimate[np.isinf(estimate)] = np.nan  # an overflow bounds nothing
        margin = 8 * points.shape[1] * (fp.eps * total_sq + fp.smallest_subnormal)
        if best is None:
            best = (estimate + margin).min(axis=1)
        rows, cols = np.nonzero(~(estimate - margin > best[:, None]))  # NaN keeps a pair
    dists = np.full(estimate.shape, np.inf)
    step = max(1, _BLOCK_FLOATS // max(points.shape[1], 1))
    for a in range(0, len(rows), step):
        r, c = rows[a : a + step], cols[a : a + step]
        dists[r, c] = ((points[r] - centroids[c]) ** 2).sum(axis=1)
    return dists


def _kmeans_pp_seeds(points, point_sq, k, rng) -> np.ndarray:
    """Indices of k k-means++ seeds (D^2 sampling); a seed is measured only at
    the points whose closest_sq it may lower."""
    n = len(points)
    seeds = np.empty(k, dtype=np.intp)
    closest_sq = np.full(n, np.inf)
    for c in range(k):
        if c == 0 or (total := closest_sq.sum()) == 0.0:
            seeds[c] = rng.integers(n)
        else:
            r = rng.random() * total
            seeds[c] = min(int(np.searchsorted(np.cumsum(closest_sq), r)), n - 1)
        near = _near_distances(points, point_sq, points[seeds[c : c + 1]], closest_sq)
        closest_sq = np.minimum(closest_sq, near[:, 0])
    return seeds


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 100
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; guarantees k non-empty clusters.

    Empty clusters are repaired by reseeding from the point farthest from its
    assigned centroid. Returns an assignment array of length len(points).

    Exact distances are measured only for pairs that can be nearest (Elkan, ICML
    2003): a pass estimates every pair as |p|^2 + |c|^2 - 2 p.c by one matmul and
    prunes pair (i, c) if its lower bound exceeds point i's least upper bound.
    Margin: with S = |p|^2 + |c|^2, the three dot products err by at most d eps S
    in all, in any summation order (|2 p.c| <= S), the two additions by 1.5 eps S,
    and the exact sum, at most 2 S, by (d + 2) eps S. 8 d eps S covers that
    (2d + 3.5) eps S for every d >= 1, with eps S to spare for rounding a bound,
    and 8 d subnormals cover underflowed products. So a pruned pair's distance
    exceeds its point's least one: argmins (first index on ties), own_dist,
    closest_sq, the D^2 draws and labels are bit for bit those of measuring all
    pairs. NaN, inf or overflow give NaN or infinite bounds, which keep pairs.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of points ({n})")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    point_sq = np.einsum("ij,ij->i", points, points)
    centroids = points[_kmeans_pp_seeds(points, point_sq, k, rng)]
    assignment = None
    for _iter in range(max_iters):
        dists = _near_distances(points, point_sq, centroids)
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
        moved = range(k)
        if assignment is not None:
            changed = new_assignment != assignment
            if not changed.any():
                break
            moved = set(assignment[changed].tolist()) | set(new_assignment[changed].tolist())
        assignment = new_assignment
        for c in moved:  # an unmoved cluster's mean would keep its bytes
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
    points = np.empty((len(ordered_pool), ranker.config.dim))
    for i, q in enumerate(ordered_pool):
        points[i] = ranker.encode_query(state, queries[q])
    assignment = kmeans(points, s, rng, max_iters=max_iters)
    selected = []
    for c in range(s):
        members = np.flatnonzero(assignment == c)
        selected.append(ordered_pool[members[rng.integers(len(members))]])
    return selected
