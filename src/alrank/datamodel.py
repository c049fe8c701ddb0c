"""Corpus, query, qrels, run and triplet containers with TREC-compatible I/O."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


class ParseError(ValueError):
    """Raised when an input file violates its format; carries a 1-based line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _check_id(value: str, kind: str) -> str:
    # split() drops every str.isspace() character, so this rejects an empty
    # id and any id containing whitespace
    if value.split() != [value]:
        raise ValueError(f"invalid {kind} identifier: {value!r}")
    return value


@dataclass(frozen=True)
class TrainingTriplet:
    """One training unit: query with a relevant and an irrelevant document."""

    query_id: str
    positive_id: str
    negative_id: str

    def __post_init__(self):
        if self.positive_id == self.negative_id:
            raise ValueError(
                f"triplet for {self.query_id}: positive equals negative "
                f"({self.positive_id})"
            )


class TextCollection:
    """Ordered id -> text mapping; base for Corpus and QuerySet."""

    _kind = "document"

    def __init__(self, entries: dict[str, str] | None = None, permissive: bool = False):
        entries = dict(entries or {})
        for doc_id, text in entries.items():
            _check_id(doc_id, self._kind)
            if not text and not permissive:
                raise ValueError(f"empty text for {self._kind} {doc_id!r}")
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    def __getitem__(self, doc_id: str) -> str:
        return self._entries[doc_id]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, TextCollection) and self._entries == other._entries

    def ids(self) -> list[str]:
        return list(self._entries)

    def texts(self, ids) -> list[str]:
        """The texts of `ids`, in order, in one bulk lookup."""
        return list(map(self._entries.__getitem__, ids))

    def items(self):
        return self._entries.items()


class Corpus(TextCollection):
    _kind = "document"


class QuerySet(TextCollection):
    _kind = "query"


class Qrels:
    """Graded relevance judgments with a binary-relevance threshold."""

    def __init__(self, grades: dict[tuple[str, str], int], threshold: int = 1):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        for (qid, did), grade in grades.items():
            _check_id(qid, "query")
            _check_id(did, "document")
            if grade < 0:
                raise ValueError(f"negative grade for ({qid}, {did}): {grade}")
        self._grades = dict(grades)
        self.threshold = threshold
        self._by_query: dict[str, dict[str, int]] = {}
        self._relevant: dict[str, set[str]] = {}
        for (qid, did), grade in self._grades.items():
            self._by_query.setdefault(qid, {})[did] = grade
            if grade >= threshold:
                self._relevant.setdefault(qid, set()).add(did)

    def __len__(self) -> int:
        return len(self._grades)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Qrels)
            and self._grades == other._grades
            and self.threshold == other.threshold
        )

    def grade(self, qid: str, did: str) -> int:
        """Judged grade, or 0 for unjudged pairs."""
        return self._grades.get((qid, did), 0)

    def is_relevant(self, qid: str, did: str) -> bool:
        return self.grade(qid, did) >= self.threshold

    def relevant_docs(self, qid: str) -> set[str]:
        return set(self._relevant.get(qid, set()))

    def query_ids(self) -> set[str]:
        return set(self._by_query)

    def grades_for(self, qid: str) -> dict[str, int]:
        return dict(self._by_query.get(qid, {}))

    def items(self):
        return self._grades.items()


class RankedList:
    """Per-query ranking: (doc id, score) pairs, scores non-increasing, 1-based ranks.

    Construction sorts by descending score with ascending doc id as tie-break.
    """

    def __init__(self, query_id: str, scored: list[tuple[str, float]]):
        _check_id(query_id, "query")
        seen = set()
        for did, _ in scored:
            if did in seen:
                raise ValueError(f"duplicate document {did!r} in ranking for {query_id}")
            seen.add(did)
        self.query_id = query_id
        self.entries: list[tuple[str, float]] = sorted(
            ((d, float(s)) for d, s in scored), key=lambda e: (-e[1], e[0])
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankedList)
            and self.query_id == other.query_id
            and self.entries == other.entries
        )

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]

    def top(self, k: int) -> "RankedList":
        out = RankedList(self.query_id, [])
        out.entries = self.entries[:k]
        return out


@dataclass
class Run:
    """Tagged collection of per-query rankings (TREC run)."""

    tag: str
    rankings: dict[str, RankedList] = field(default_factory=dict)

    def __post_init__(self):
        for qid, ranking in self.rankings.items():
            if ranking.query_id != qid:
                raise ValueError(
                    f"ranking key {qid!r} does not match its query id "
                    f"{ranking.query_id!r}"
                )

    def query_ids(self) -> list[str]:
        return list(self.rankings)

    def __getitem__(self, qid: str) -> RankedList:
        return self.rankings[qid]

    def __contains__(self, qid: str) -> bool:
        return qid in self.rankings

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Run)
            and self.tag == other.tag
            and self.rankings == other.rankings
        )


def _read_lines(path: str | Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def parse_collection(path: str | Path, permissive: bool = False) -> Corpus:
    """Read a `<id>\\t<text>` TSV into a Corpus."""
    return Corpus(_parse_tsv(path), permissive=permissive)


def parse_queries(path: str | Path, permissive: bool = False) -> QuerySet:
    """Read a `<id>\\t<text>` TSV into a QuerySet."""
    return QuerySet(_parse_tsv(path), permissive=permissive)


def _parse_tsv(path: str | Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_no, line in enumerate(_read_lines(path), start=1):
        if "\t" not in line:
            raise ParseError(path, line_no, "expected <id>\\t<text>")
        entry_id, text = line.split("\t", 1)
        if entry_id in entries:
            raise ParseError(path, line_no, f"duplicate id {entry_id!r}")
        entries[entry_id] = text
    return entries


def parse_qrels(path: str | Path, threshold: int = 1) -> Qrels:
    """Read TREC qrels (`<qid> 0 <docid> <grade>`, whitespace separated)."""
    grades: dict[tuple[str, str], int] = {}
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
        qid, _, did, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise ParseError(path, line_no, f"non-integer grade {grade_str!r}") from None
        if (qid, did) in grades:
            raise ParseError(path, line_no, f"duplicate judgment for ({qid}, {did})")
        grades[(qid, did)] = grade
    return Qrels(grades, threshold=threshold)


def serialize_collection(collection: TextCollection, path: str | Path) -> None:
    """Write a Corpus or QuerySet as the `<id>\\t<text>` TSV that
    `parse_collection` and `parse_queries` read; ValueError for a text with a
    line break, which would not read back."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry_id, text in collection.items():
            if text.splitlines() != ([text] if text else []):
                raise ValueError(f"{collection._kind} {entry_id!r}: text has a line break")
            fh.write(f"{entry_id}\t{text}\n")


def serialize_qrels(qrels: Qrels, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, did), grade in qrels.items():
            fh.write(f"{qid} 0 {did} {grade}\n")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header line and one line per row. csv writes a float by str(),
    its shortest repr, so every value reads back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def serialize_run(run: Run, path: str | Path) -> None:
    """Write a run as TREC `<qid> Q0 <docid> <rank> <score> <tag>` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in run.query_ids():
            for rank, (did, score) in enumerate(run[qid].entries, start=1):
                fh.write(f"{qid} Q0 {did} {rank} {score!r} {run.tag}\n")


def parse_run(path: str | Path) -> Run:
    """Inverse of serialize_run; validates contiguous 1-based ranks per query."""
    tag = ""
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(path, line_no, f"expected 6 fields, got {len(parts)}")
        qid, _, did, rank_str, score_str, tag = parts
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError:
            raise ParseError(path, line_no, "bad rank or score") from None
        per_query.setdefault(qid, []).append((rank, did, score))
    rankings = {}
    for qid, rows in per_query.items():
        rows.sort()
        ranks = [r for r, _, _ in rows]
        if ranks != list(range(1, len(rows) + 1)):
            raise ParseError(path, 1, f"ranks for {qid} are not contiguous from 1: {ranks}")
        rankings[qid] = RankedList(qid, [(d, s) for _, d, s in rows])
    return Run(tag=tag, rankings=rankings)

