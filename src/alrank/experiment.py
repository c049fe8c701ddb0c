"""Incremental annotate/train/evaluate loop with resumable persisted state.

Each iteration i has two dependency chains. The selection chain runs
select -> annotate -> train `epochs_selection` epochs, and its state is what
iteration i + 1 selects with. The evaluation branch trains the remaining
`epochs_evaluation - epochs_selection` epochs from that state and measures
test nDCG@10; only iteration i's record reads its result. So while iteration
i + 1 runs its selection chain, iteration i's branch runs in one forked worker
process, when a second CPU is free (see `_EvaluationWorker`); a run with one
iteration left never forks and evaluates inline. Either way each branch is
the same single-threaded sequence of float operations, so every output keeps
its bits. Iteration i is committed (checkpoint, then JSON) once its nDCG is
back, after iteration i + 1's selection training.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import annotation as anno
from .budget import CostConfig, total_cost
from .datamodel import Corpus, Qrels, QuerySet, RankedList, Run, TrainingTriplet
from .evaluation import ndcg_at_k
from .lexical import InvertedIndex, build_index, retrieve_topk
from .ranker import Ranker, RankerConfig, RankerState, load_checkpoint, save_checkpoint
from .selection import (
    SelectionConfig,
    select_diversity,
    select_qbc,
    select_random,
    select_uncertainty,
)

SCENARIOS = ("scratch", "retrain")


def derive_seed(master_seed: int, label: str, iteration: int = 0) -> int:
    """Independent labeled sub-seed stream from the master seed."""
    blob = f"{master_seed}|{label}|{iteration}".encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "scratch"
    initial_checkpoint: str | None = None
    iterations: int = 5
    schedule: tuple[int, ...] | None = None
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    ranker: RankerConfig = field(default_factory=RankerConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    master_seed: int = 0
    negatives_depth: int = 1000
    training_hours_per_sample_epoch: float = 1e-6
    exhausted_back_to_pool: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "retrain" and not self.initial_checkpoint:
            raise ValueError("retrain scenario requires initial_checkpoint")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.negatives_depth < self.selection.candidate_depth:
            # make_bundle would cut the training candidates to negatives_depth
            # while the test candidates keep candidate_depth
            raise ValueError("negatives_depth must be >= selection.candidate_depth")
        if self.schedule is not None and len(self.schedule) != self.iterations:
            raise ValueError(
                f"schedule length {len(self.schedule)} does not match "
                f"iterations {self.iterations}"
            )

    def batch_for(self, iteration: int) -> int:
        if self.schedule is not None:
            return self.schedule[iteration - 1]
        return self.selection.samples_per_iteration

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class DataBundle:
    """Corpus, query splits, qrels and precomputed BM25 runs."""

    corpus: Corpus
    train_queries: QuerySet
    test_queries: QuerySet
    qrels: Qrels
    index: InvertedIndex
    candidates: Run  # train-query BM25 top candidate_depth
    negatives: Run  # train-query BM25 top negatives_depth
    test_candidates: Run


def make_bundle(
    corpus: Corpus,
    train_queries: QuerySet,
    test_queries: QuerySet,
    qrels: Qrels,
    candidate_depth: int = 100,
    negatives_depth: int = 1000,
) -> DataBundle:
    index = build_index(corpus)
    candidates, negatives = {}, {}
    for qid, text in train_queries.items():
        full = retrieve_topk(index, text, negatives_depth, query_id=qid)
        negatives[qid] = full
        candidates[qid] = full.top(candidate_depth)
    test_candidates = {
        qid: retrieve_topk(index, text, candidate_depth, query_id=qid)
        for qid, text in test_queries.items()
    }
    return DataBundle(
        corpus=corpus,
        train_queries=train_queries,
        test_queries=test_queries,
        qrels=qrels,
        index=index,
        candidates=Run("bm25-candidates", candidates),
        negatives=Run("bm25-negatives", negatives),
        test_candidates=Run("bm25-test", test_candidates),
    )


def _write_replacing(path: Path, write) -> None:
    """write(tmp) to a sibling temp file, then rename it over `path` in one step."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


@dataclass(frozen=True)
class Selection:
    """One iteration's picks: query ids (unit "query") or [qid, did] pairs
    (unit "pair"), the state whose reranking the annotation walks (None for
    BM25 order) and the accelerator hours of committee training."""

    picks: list
    unit: str
    walk_state: RankerState | None
    hours: float = 0.0


@dataclass
class IterationState:
    iteration: int
    selected: list  # Selection.picks: query ids, or [qid, did] pairs for unit "pair"
    pool: list[str]  # remaining pool after this iteration
    triplets: list[TrainingTriplet]  # cumulative annotated set D
    records: list[anno.AnnotationRecord]
    assessments_cumulative: int
    ndcg10: float
    training_hours: float
    selection_hours: float  # kept in iter_*.json; no cost reads it
    checkpoint_name: str
    stop_reason: str = ""

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "selected": self.selected,
            "pool": self.pool,
            "triplets": [[t.query_id, t.positive_id, t.negative_id] for t in self.triplets],
            "records": [asdict(r) for r in self.records],
            "assessments_cumulative": self.assessments_cumulative,
            "ndcg10": self.ndcg10,
            "training_hours": self.training_hours,
            "selection_hours": self.selection_hours,
            "checkpoint_name": self.checkpoint_name,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_json(cls, data: dict) -> "IterationState":
        return cls(**{
            **data,
            "triplets": [TrainingTriplet(*t) for t in data["triplets"]],
            "records": [anno.AnnotationRecord(**r) for r in data["records"]],
        })


def _from_fields(cls, data: dict):
    """`cls` built from the keys of `data` it has a field for. A config.json
    written with other fields fails `Experiment.resume`'s fingerprint check."""
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def load_run(run_dir: str | Path) -> tuple[ExperimentConfig, str | None, list[IterationState]]:
    """A run directory read back: the ExperimentConfig its config.json was
    written from, the fingerprint stored with it, and the persisted iterations
    in order."""
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    if not cfg_path.exists():
        raise ValueError(f"no persisted experiment in {run_dir}")
    data = json.loads(cfg_path.read_text(encoding="utf-8"))
    schedule = data.get("schedule")
    config = _from_fields(ExperimentConfig, {
        **data,
        "schedule": tuple(schedule) if schedule is not None else None,
        "selection": _from_fields(SelectionConfig, data["selection"]),
        "ranker": _from_fields(RankerConfig, data["ranker"]),
        "cost": _from_fields(CostConfig, data["cost"]),
    })
    states = [
        IterationState.from_json(json.loads(path.read_text(encoding="utf-8")))
        for path in sorted(run_dir.glob("iter_*.json"))
    ]
    return config, data.get("fingerprint"), states


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_is_safe() -> bool:
    """From Python 3.12 on, os.fork warns in a process with more than one OS
    thread (an unpinned BLAS pool is one), so fork only a single thread."""
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _current_cpu() -> int | None:
    """The CPU this process runs on now (field 39 of Linux's /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class _EvaluationWorker:
    """One child process that runs evaluation branches in order while the
    parent goes on with the next iteration.

    The child is forked at the first `submit`, and only where this process
    may run on two CPUs and can fork safely; otherwise, or if fork fails,
    `submit` returns False and the caller runs the branch inline. The child
    reads `(i, triplets, sel_state)` pickles from one pipe and writes each
    branch's nDCG, or the exception it raised, to another. It never writes to
    the run directory, ends at EOF or at `close`, and leaves by `os._exit`,
    so no atexit hook runs and no buffer of the parent is flushed twice.

    A forked child starts on its parent's CPU. Where the scheduler does not
    balance load between CPUs (a cpuset without load balancing, isolated
    CPUs), two busy processes stay there and share it, so the child leaves
    the CPU its parent ran on at the fork for the others of its mask.
    """

    def __init__(self, branch):
        self._branch = branch
        self._pid: int | None = None  # None: not forked yet; 0: run inline
        self._tasks = self._results = None

    @property
    def forked(self) -> bool:
        return bool(self._pid)

    def submit(self, *args) -> bool:
        if self._pid is None:
            self._pid = self._fork()
        if not self._pid:
            return False
        pickle.dump(args, self._tasks, protocol=pickle.HIGHEST_PROTOCOL)
        self._tasks.flush()
        return True

    def result(self) -> float:
        """The oldest submitted branch's nDCG; its exception is raised here."""
        try:
            reply = pickle.load(self._results)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("evaluation worker exited without a result") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def close(self, kill: bool = False) -> None:
        """Stop the child (at once if `kill`, else after its current branch)
        and reap it."""
        if not self._pid:
            return
        pid, self._pid = self._pid, 0
        if kill:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
        for pipe in (self._tasks, self._results):
            try:
                pipe.close()  # EOF on the task pipe stops the child
            except OSError:
                pass
        os.waitpid(pid, 0)

    def _fork(self) -> int:
        if _cpu_count() < 2 or not _fork_is_safe():
            return 0
        parent_cpu = _current_cpu()
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            return 0
        if pid == 0:
            os.close(task_w)
            os.close(result_r)
            self._serve(task_r, result_w, parent_cpu)
        os.close(task_r)
        os.close(result_w)
        self._tasks = os.fdopen(task_w, "wb")
        self._results = os.fdopen(result_r, "rb")
        return pid

    def _serve(self, task_fd: int, result_fd: int, parent_cpu: int | None) -> None:
        """The child's loop; never returns."""
        status = 1
        try:
            others = os.sched_getaffinity(0) - {parent_cpu}
            if others:
                try:
                    os.sched_setaffinity(0, others)
                except OSError:
                    pass  # a worker on the parent's CPU still gives the same bytes
            with os.fdopen(task_fd, "rb") as tasks, os.fdopen(result_fd, "wb") as results:
                while True:
                    try:
                        args = pickle.load(tasks)
                    except EOFError:
                        break
                    try:
                        reply = self._branch(*args)
                    except Exception as exc:
                        import traceback

                        exc.add_note("".join(traceback.format_exception(exc)).rstrip())
                        reply = _portable(exc)
                    pickle.dump(reply, results, protocol=pickle.HIGHEST_PROTOCOL)
                    results.flush()
            status = 0
        finally:
            os._exit(status)


class Experiment:
    """Runs the incremental annotation/training loop for one strategy and seed."""

    def __init__(self, config: ExperimentConfig, bundle: DataBundle, out_dir: str | Path | None = None):
        self.config = config
        self.bundle = bundle
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.ranker = Ranker(config.ranker, bundle.corpus, bundle.index)
        self._start_state = self._scenario_start()

    def _scenario_start(self) -> RankerState:
        if self.config.scenario == "retrain":
            return load_checkpoint(self.config.initial_checkpoint, self.config.ranker)
        return self.ranker.init_state(derive_seed(self.config.master_seed, "ranker-init"))

    # -- persistence -------------------------------------------------------

    def _start_run_dir(self) -> None:
        """Delete the iteration, temp, assessment and report files of any
        earlier run in the directory, then write config.json: the directory
        holds this run only."""
        assert self.out_dir is not None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for pattern in ("iter_*", "*.tmp", "assessments.csv"):
            for path in self.out_dir.glob(pattern):
                path.unlink(missing_ok=True)
        if (self.out_dir / "reports").is_dir():
            shutil.rmtree(self.out_dir / "reports")
        payload = asdict(self.config)
        payload["fingerprint"] = self.config.fingerprint()
        text = json.dumps(payload, sort_keys=True, indent=2, default=str)
        _write_replacing(
            self.out_dir / "config.json", lambda tmp: tmp.write_text(text, encoding="utf-8")
        )

    def _persist(self, state: IterationState, sel_state: RankerState | None = None) -> None:
        """Write the iteration's checkpoint (if given), then its JSON, which marks
        the iteration as committed. A kill leaves each file whole or absent."""
        if self.out_dir is None:
            return
        if sel_state is not None:
            _write_replacing(
                self.out_dir / state.checkpoint_name, lambda tmp: save_checkpoint(sel_state, tmp)
            )
        text = json.dumps(state.to_json(), sort_keys=True)
        _write_replacing(
            self.out_dir / f"iter_{state.iteration:04d}.json",
            lambda tmp: tmp.write_text(text, encoding="utf-8"),
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> list[IterationState]:
        if self.out_dir is not None:
            self._start_run_dir()
        return self._run_from([], sorted(self.bundle.train_queries.ids()), None)

    def resume(self) -> list[IterationState]:
        """Continue a persisted run; no-op when already complete."""
        if self.out_dir is None:
            raise ValueError("resume requires an output directory")
        _, fingerprint, states = load_run(self.out_dir)
        if fingerprint != self.config.fingerprint():
            raise ValueError(
                "config fingerprint mismatch: persisted "
                f"{fingerprint} vs current {self.config.fingerprint()}"
            )
        if not states:
            return self._run_from([], sorted(self.bundle.train_queries.ids()), None)
        last = states[-1]
        if last.iteration >= self.config.iterations or last.stop_reason:
            return states
        prev_sel = load_checkpoint(self.out_dir / last.checkpoint_name, self.config.ranker)
        return self._run_from(states, list(last.pool), prev_sel)

    def _run_from(
        self,
        states: list[IterationState],
        pool: list[str],
        prev_sel_state: RankerState | None,
    ) -> list[IterationState]:
        cfg = self.config
        triplets: list[TrainingTriplet] = list(states[-1].triplets) if states else []
        ledger = anno.AssessmentLedger()
        for st in states:
            ledger.update(st.iteration, st.records)

        worker = _EvaluationWorker(self._evaluation_branch)
        pending = None  # (state, sel_state) whose nDCG the worker is computing

        def commit_pending():
            nonlocal pending
            if pending is not None:
                pending[0].ndcg10 = worker.result()
                self._persist(*pending)
                pending = None

        start_iter = states[-1].iteration + 1 if states else 1
        try:
            for i in range(start_iter, cfg.iterations + 1):
                if not pool:
                    commit_pending()
                    if states:
                        states[-1].stop_reason = "pool exhausted"
                        self._persist(states[-1])
                    break
                s_i = min(cfg.batch_for(i), len(pool))
                sel = self._select(i, s_i, pool, prev_sel_state, triplets)
                new_triplets, records, pool = self._annotate(i, sel, pool)
                ledger.update(i, records)
                triplets = triplets + new_triplets

                sel_state, train_hours = self._train(i, triplets)
                prev_sel_state = sel_state
                commit_pending()

                state = IterationState(
                    iteration=i,
                    selected=sel.picks,
                    pool=list(pool),
                    triplets=list(triplets),
                    records=records,
                    assessments_cumulative=ledger.cumulative(i),
                    ndcg10=float("nan"),
                    training_hours=train_hours + sel.hours,
                    selection_hours=cfg.cost.selection_hours_per_iteration if i > 1 else 0.0,
                    checkpoint_name=f"iter_{i:04d}.ckpt",
                )
                states.append(state)
                # fork a worker only for a branch a next iteration can overlap;
                # once forked, it takes every branch, as its caches are warm
                overlapped = i < cfg.iterations and bool(pool)
                if (overlapped or worker.forked) and worker.submit(i, triplets, sel_state):
                    pending = (state, sel_state)
                else:
                    state.ndcg10 = self._evaluation_branch(i, triplets, sel_state)
                    self._persist(state, sel_state)
            commit_pending()
        except BaseException:
            worker.close(kill=True)
            raise
        worker.close()
        return states

    # -- phases ------------------------------------------------------------

    def _select(
        self,
        i: int,
        s_i: int,
        pool: list[str],
        prev_sel_state: RankerState | None,
        triplets: list[TrainingTriplet],
    ) -> Selection:
        """When no pool query has a BM25 candidate, every walk is exhausted with
        zero assessments whatever is selected, so the draw is random, as in
        iteration 1."""
        cfg = self.config
        strategy = cfg.selection.strategy
        hitless = not any(len(self.bundle.candidates[qid]) for qid in pool)
        if i == 1 or strategy == "random" or hitless:
            rng = np.random.default_rng(derive_seed(cfg.master_seed, "subset", i))
            return Selection(select_random(pool, s_i, rng), "query", None)
        assert prev_sel_state is not None
        if strategy == "uncertainty":
            pairs = select_uncertainty(
                self.ranker,
                prev_sel_state,
                pool,
                self.bundle.train_queries,
                self.bundle.candidates,
                self.bundle.corpus,
                cfg.selection.candidate_depth,
                s_i,
                one_pair_per_query=cfg.selection.one_pair_per_query,
            )
            return Selection([[qid, did] for qid, did, _ in pairs], "pair", prev_sel_state)
        if strategy == "qbc":
            committee, hours = self._train_committee(i, triplets)
            picked = select_qbc(
                self.ranker,
                committee,
                pool,
                self.bundle.train_queries,
                self.bundle.candidates,
                self.bundle.corpus,
                cfg.selection.candidate_depth,
                s_i,
                pair_depth=cfg.selection.entropy_pair_depth,
            )
            return Selection([qid for qid, _ in picked], "query", committee[0], hours)
        if strategy == "diversity":
            rng = np.random.default_rng(derive_seed(cfg.master_seed, "kmeans", i))
            picked = select_diversity(
                self.ranker,
                prev_sel_state,
                pool,
                self.bundle.train_queries,
                s_i,
                rng,
                max_iters=cfg.selection.kmeans_max_iters,
            )
            return Selection(picked, "query", prev_sel_state)
        raise ValueError(f"unknown strategy {strategy!r}")

    def _train_committee(self, i: int, triplets: list[TrainingTriplet]):
        """Committee members trained on random subsets of `triplets`; with no
        triplet, every member is the start state (as `_train` returns)."""
        cfg = self.config
        if not triplets:
            return [self._start_state] * cfg.selection.committee_size, 0.0
        committee = []
        hours = 0.0
        for m in range(cfg.selection.committee_size):
            rng = np.random.default_rng(derive_seed(cfg.master_seed, f"committee-subset-{m}", i))
            size = max(1, round(cfg.selection.member_fraction * len(triplets)))
            picked = rng.choice(len(triplets), size=size, replace=False)
            subset = [triplets[j] for j in sorted(picked)]
            member = self.ranker.train(
                self._start_state,
                subset,
                self.bundle.corpus,
                self.bundle.train_queries,
                cfg.ranker.epochs_selection,
                derive_seed(cfg.master_seed, f"committee-train-{m}", i),
            )
            hours += cfg.ranker.epochs_selection * len(subset) * cfg.training_hours_per_sample_epoch
            committee.append(member)
        return committee, hours

    def _rerank_for_annotation(self, qid: str, walk_state: RankerState | None) -> RankedList:
        """The list the annotation walks: the BM25 candidates (iteration 1, the
        random baseline), else `walk_state`'s reranking of them: the previous
        ranker's, or the first committee member's for QBC. A query without
        BM25 hits keeps its empty list: an exhausted walk of zero assessments."""
        candidates = self.bundle.candidates[qid].top(self.config.selection.candidate_depth)
        if walk_state is None or len(candidates) == 0:
            return candidates
        return self.ranker.rerank(
            walk_state, self.bundle.train_queries[qid], candidates, self.bundle.corpus
        )

    def _annotate(self, i: int, sel: Selection, pool: list[str]):
        cfg = self.config
        new_triplets: list[TrainingTriplet] = []
        records: list[anno.AnnotationRecord] = []
        touched_queries: set[str] = set()

        if sel.unit == "pair":
            items = [(qid, did) for qid, did in sel.picks]
        else:
            items = [(qid, None) for qid in sel.picks]
        # canonical order keeps ledger totals independent of scheduling; a
        # query's pairs all walk one reranking of its candidates
        for qid, group in groupby(sorted(items), key=itemgetter(0)):
            reranked = self._rerank_for_annotation(qid, sel.walk_state)
            negatives = self.bundle.negatives[qid].top(cfg.negatives_depth)
            for _, did in group:
                rng = np.random.default_rng(derive_seed(cfg.master_seed, f"negatives|{qid}", i))
                if did is None:
                    triplet, assessments = anno.annotate_query(
                        qid, reranked, negatives, self.bundle.qrels, rng,
                        depth=cfg.selection.candidate_depth,
                    )
                else:
                    triplet, assessments = anno.annotate_pair(
                        qid, did, self.bundle.qrels, reranked, negatives, rng,
                        depth=cfg.selection.candidate_depth,
                    )
                if triplet is not None:
                    new_triplets.append(triplet)
                    records.append(
                        anno.AnnotationRecord(i, qid, "triplet", assessments,
                                              triplet.positive_id, triplet.negative_id)
                    )
                    touched_queries.add(qid)
                else:
                    records.append(anno.AnnotationRecord(i, qid, "skipped", assessments))
                    if not cfg.exhausted_back_to_pool:
                        touched_queries.add(qid)
        remaining = [q for q in pool if q not in touched_queries]
        return new_triplets, records, remaining

    def _train(self, i: int, triplets: list[TrainingTriplet]) -> tuple[RankerState, float]:
        """The selection state (`epochs_selection` epochs from the start state)
        and the training hours of all `epochs_evaluation` epochs."""
        cfg = self.config
        if not triplets:
            return self._start_state, 0.0
        sel_state = self.ranker.train(
            self._start_state,
            triplets,
            self.bundle.corpus,
            self.bundle.train_queries,
            cfg.ranker.epochs_selection,
            derive_seed(cfg.master_seed, "train", i),
        )
        hours = cfg.ranker.epochs_evaluation * len(triplets) * cfg.training_hours_per_sample_epoch
        return sel_state, hours

    def _evaluation_branch(
        self, i: int, triplets: list[TrainingTriplet], sel_state: RankerState
    ) -> float:
        """Iteration i's test nDCG@10: the remaining evaluation epochs from the
        selection state, then `evaluate`. Nothing else reads its states."""
        cfg = self.config
        extra_epochs = cfg.ranker.epochs_evaluation - cfg.ranker.epochs_selection
        if triplets and extra_epochs > 0:
            sel_state = self.ranker.train(
                sel_state,
                triplets,
                self.bundle.corpus,
                self.bundle.train_queries,
                extra_epochs,
                derive_seed(cfg.master_seed, "train-resume", i),
            )
        return self.evaluate(sel_state)

    def evaluate(self, state: RankerState) -> float:
        """Mean test nDCG@10 of the given state reranking the BM25 candidates."""
        rankings = {}
        for qid, text in self.bundle.test_queries.items():
            candidates = self.bundle.test_candidates[qid]
            if len(candidates) == 0:
                continue
            rankings[qid] = self.ranker.rerank(state, text, candidates, self.bundle.corpus)
        run = Run("eval", rankings)
        return ndcg_at_k(run, self.bundle.qrels, k=10).mean


def report_rows(
    config: ExperimentConfig, states: list[IterationState], seed_label: int = 0
) -> list[dict]:
    """Flat per-iteration report rows (effectiveness + cost breakdown)."""
    report = total_cost(
        {st.iteration: st.assessments_cumulative for st in states},
        {st.iteration: st.training_hours for st in states},
        config.cost,
    )
    by_iter = {r.iteration: r for r in report.rows}
    rows = []
    for st in states:
        cost_row = by_iter[st.iteration]
        rows.append(
            {
                "strategy": config.selection.strategy,
                "seed": seed_label,
                "iteration": st.iteration,
                "train_size": len(st.triplets),
                "ndcg10": st.ndcg10,
                "assessments": st.assessments_cumulative,
                "C_A": cost_row.annotation_cost,
                "C_C": cost_row.compute_cost,
                "C_total": cost_row.total,
            }
        )
    return rows


def run_experiment(
    config: ExperimentConfig, bundle: DataBundle, out_dir: str | Path | None = None
) -> list[IterationState]:
    return Experiment(config, bundle, out_dir).run()


def resume(config: ExperimentConfig, bundle: DataBundle, out_dir: str | Path) -> list[IterationState]:
    return Experiment(config, bundle, out_dir).resume()


def run_variability(
    config: ExperimentConfig,
    bundle: DataBundle,
    sizes: list[int],
    repeats: int = 4,
) -> list[dict]:
    """Train on random subsets of each size with `repeats` seeds; (size, seed, ndcg) records."""
    if repeats < 2:
        raise ValueError("repeats must be >= 2")
    exp = Experiment(config, bundle)
    all_queries = sorted(bundle.train_queries.ids())
    records = []
    for size in sizes:
        if size > len(all_queries):
            raise ValueError(
                f"size {size} exceeds available training queries ({len(all_queries)})"
            )
        for rep in range(repeats):
            rng = np.random.default_rng(
                derive_seed(config.master_seed, f"var-subset|{size}", rep)
            )
            picked = sorted(select_random(all_queries, size, rng))
            triplets = []
            for qid in picked:
                neg_rng = np.random.default_rng(
                    derive_seed(config.master_seed, f"var-negatives|{size}|{rep}|{qid}")
                )
                candidates = bundle.candidates[qid].top(config.selection.candidate_depth)
                triplet, _ = anno.annotate_query(
                    qid,
                    candidates,
                    bundle.negatives[qid],
                    bundle.qrels,
                    neg_rng,
                    depth=config.selection.candidate_depth,
                )
                if triplet is not None:
                    triplets.append(triplet)
            if not triplets:
                raise ValueError(f"no triplets producible for size {size}, seed {rep}")
            state = exp.ranker.train(
                exp._start_state,
                triplets,
                bundle.corpus,
                bundle.train_queries,
                config.ranker.epochs_evaluation,
                derive_seed(config.master_seed, f"var-train|{size}", rep),
            )
            records.append(
                {
                    "strategy": "random",
                    "size": size,
                    "seed": rep,
                    "ndcg10": exp.evaluate(state),
                    "n_triplets": len(triplets),
                }
            )
    return records
