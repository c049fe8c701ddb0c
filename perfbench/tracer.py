"""Spans and leaf counters recorded around alrank's public calls, from outside.

The tracer patches module and class attributes of the installed package; the
package source is not edited. Coarse calls become spans (name, start, end,
parent span id). Hot leaf calls are aggregated as (count, busy seconds) under
the innermost open span, so a traced run stays close to the untraced one.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.counters: dict[str, float] = {}
        self.cross_feature_keys: set = set()
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, observe=None) -> None:
        """Record every call of owner.attr as a span; observe(args, result) after it."""
        original = getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr: str, name: str, observe=None) -> None:
        """Aggregate calls of owner.attr as (count, seconds) under the open span."""
        original = getattr(owner, attr)
        stack, leaves = self._stack, self.leaves

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1], name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                if observe is not None:
                    observe(args)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- instrumentation of alrank -----------------------------------------

    def instrument(self) -> None:
        """Patch the layer boundaries of the alrank package."""
        from alrank import annotation, datamodel, experiment, lexical, ranker, selection, synthetic

        self.wrap_span(synthetic, "generate_synthetic", "synthetic.generate")
        self.wrap_span(experiment, "build_index", "lexical.build_index")
        self.wrap_leaf(experiment, "retrieve_topk", "lexical.retrieve")
        for module in (lexical, ranker):
            self.wrap_leaf(module, "tokenize", "lexical.tokenize")

        self.wrap_span(ranker.Ranker, "train", "ranker.train", observe=self._observe_train)
        self.wrap_span(ranker.Ranker, "rerank", "ranker.rerank")
        self.wrap_leaf(ranker.Ranker, "score", "ranker.score")
        self.wrap_leaf(ranker.Ranker, "cross_features", "ranker.cross_features",
                       observe=self._observe_cross_features)
        self.wrap_leaf(ranker.Ranker, "encode_query", "ranker.encode_query")
        self.wrap_span(experiment, "save_checkpoint", "ranker.save_checkpoint",
                       observe=self._observe_save)
        self.wrap_span(experiment, "load_checkpoint", "ranker.load_checkpoint")

        for name in ("select_random", "select_uncertainty", "select_qbc", "select_diversity"):
            self.wrap_span(experiment, name, "selection.select")
        self.wrap_span(selection, "vote_entropy", "selection.vote_entropy")
        self.wrap_span(selection, "kmeans", "selection.kmeans")

        for name in ("annotate_query", "annotate_pair"):
            self.wrap_span(annotation, name, "annotation.annotate", observe=self._observe_annotate)

        self.wrap_span(experiment.Experiment, "run", "experiment.run")
        self.wrap_span(experiment.Experiment, "resume", "experiment.resume")
        self.wrap_span(experiment.Experiment, "evaluate", "experiment.evaluate")
        self.wrap_span(experiment, "ndcg_at_k", "evaluation.ndcg")
        self.wrap_leaf(datamodel.Qrels, "grades_for", "datamodel.grades_for")
        self.wrap_leaf(datamodel.Qrels, "query_ids", "datamodel.query_ids")

    def _observe_train(self, args, result) -> None:
        # Ranker.train(self, state, triplets, corpus, queries, epochs, seed)
        self.count("ranker.train_triplet_epochs", len(args[2]) * args[5])

    def _observe_cross_features(self, args) -> None:
        self.cross_feature_keys.add((args[1], args[2]))

    def _observe_save(self, args, result) -> None:
        self.count("ranker.checkpoint_bytes", os.path.getsize(args[1]))

    def _observe_annotate(self, args, result) -> None:
        triplet, assessments = result
        self.count("annotation.assessments", assessments)
        if triplet is None:
            self.count("annotation.skipped")

    # -- analysis ----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, because the loop is sequential.
        """
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            agg = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            agg["calls"] += 1
            agg["seconds"] += end - start
            agg["self_seconds"] += end - start - child_time.get(span_id, 0.0)
        return totals

    def leaf_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for (_, name), (count, seconds) in self.leaves.items():
            agg = totals.setdefault(name, [0, 0.0])
            agg[0] += count
            agg[1] += seconds
        return totals

    def leaves_under(self, names: tuple[str, ...], ancestor: str) -> int:
        """Calls of the named leaves whose open span is `ancestor` or a rerank inside it."""
        by_id = {span_id: (parent, name) for span_id, parent, name, _, _ in self.spans}
        calls = 0
        for (parent, name), (count, _) in self.leaves.items():
            if name not in names or parent is None:
                continue
            parent_of, span_name = by_id[parent]
            if span_name == "ranker.rerank" and parent_of is not None:
                span_name = by_id[parent_of][1]
            if span_name == ancestor:
                calls += count
        return calls

    def write(self, path: Path) -> None:
        """One JSON object per line: every span, then every (parent, leaf) aggregate."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"trace": self.trace_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for (parent, name), (count, seconds) in self.leaves.items():
                fh.write(json.dumps({"trace": self.trace_id, "leaf": name, "parent": parent,
                                     "calls": count, "seconds": seconds}) + "\n")
