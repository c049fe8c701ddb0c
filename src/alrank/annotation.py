"""Simulated annotator: qrels-backed triplet construction with assessment counting."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .datamodel import ParseError, Qrels, RankedList, TrainingTriplet


@dataclass(frozen=True)
class Exhausted:
    """No relevant document found within the examined depth."""

    examined: int


@dataclass(frozen=True)
class AnnotationRecord:
    iteration: int
    query_id: str
    outcome: str  # "triplet" or "skipped"
    assessments: int
    positive_id: str = ""
    negative_id: str = ""


def first_relevant(
    ranked: RankedList, qrels: Qrels, depth: int
) -> tuple[int, str] | Exhausted:
    """Walk the ranking top-down; (1-based rank, doc id) of the first relevant hit."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    docs = ranked.doc_ids()[:depth]
    for rank, did in enumerate(docs, start=1):
        if qrels.is_relevant(ranked.query_id, did):
            return rank, did
    return Exhausted(examined=len(docs))


def sample_negative(
    query_id: str,
    negatives_pool: RankedList,
    qrels: Qrels,
    rng: np.random.Generator,
    exclude: set[str],
) -> str:
    """Uniform draw from the BM25 negatives pool, excluding given and judged-relevant docs."""
    eligible = [
        did
        for did in negatives_pool.doc_ids()
        if did not in exclude and not qrels.is_relevant(query_id, did)
    ]
    if not eligible:
        raise ValueError(f"no eligible negative for query {query_id}")
    return eligible[rng.integers(len(eligible))]


def annotate_query(
    query_id: str,
    reranked: RankedList,
    bm25_negatives: RankedList,
    qrels: Qrels,
    rng: np.random.Generator,
    depth: int = 100,
) -> tuple[TrainingTriplet | None, int]:
    """Query-level annotation: positive is the first relevant in the reranked list.

    Assessments equal the rank of the positive, or the examined depth when the
    walk is exhausted (in which case no triplet is produced).
    """
    found = first_relevant(reranked, qrels, depth)
    if isinstance(found, Exhausted):
        return None, found.examined
    rank, positive = found
    negative = sample_negative(query_id, bm25_negatives, qrels, rng, {positive})
    return TrainingTriplet(query_id, positive, negative), rank


def annotate_pair(
    query_id: str,
    selected_doc: str,
    qrels: Qrels,
    reranked: RankedList,
    bm25_negatives: RankedList,
    rng: np.random.Generator,
    depth: int = 100,
) -> tuple[TrainingTriplet | None, int]:
    """Pair-level annotation for uncertainty selection.

    A relevant selected doc becomes the positive (1 assessment). An irrelevant
    one becomes the negative, with the positive found by walking the reranked
    list (1 + rank assessments).
    """
    if qrels.is_relevant(query_id, selected_doc):
        negative = sample_negative(query_id, bm25_negatives, qrels, rng, {selected_doc})
        return TrainingTriplet(query_id, selected_doc, negative), 1
    found = first_relevant(reranked, qrels, depth)
    if isinstance(found, Exhausted):
        return None, 1 + found.examined
    rank, positive = found
    if positive == selected_doc:
        # cannot happen when qrels are consistent, but keep the triplet valid
        raise ValueError(f"selected doc {selected_doc} is both positive and negative")
    return TrainingTriplet(query_id, positive, selected_doc), 1 + rank


# assessments.csv's header: the AnnotationRecord fields, in order
LEDGER_COLUMNS = [f.name for f in fields(AnnotationRecord)]


def read_assessment_totals(path: str | Path) -> dict[int, int]:
    """An assessments.csv read back: the cumulative assessments A(i) of each
    iteration, in iteration order."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in LEDGER_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: assessment ledger lacks columns {', '.join(missing)}")
        per_iteration: dict[int, int] = {}
        for row in reader:
            cells = []
            for column in ("iteration", "assessments"):
                try:
                    cells.append(int(row[column]))
                except (TypeError, ValueError):  # TypeError: a short row's missing cell
                    raise ParseError(
                        path, reader.line_num, f"column {column!r}: not an integer: {row[column]!r}"
                    ) from None
            i, n = cells
            per_iteration[i] = per_iteration.get(i, 0) + n
    iterations = sorted(per_iteration)
    return dict(zip(iterations, accumulate(per_iteration[i] for i in iterations)))
