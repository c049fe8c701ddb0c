"""One repetition of a workload in a fresh interpreter: set-up, loop, resume, checks.

    python3 perfbench/worker.py '<job json>'

The job names the workload parameters, the data seed, the reference digest
(or null), a scratch directory inside the checkout and whether to trace. The
last line of standard output is one JSON object with the repetition's samples,
its attempted and failed checks, and, when traced, its per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
from alrank import evaluation, experiment  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import compare_digest, digest, experiment_config, setup  # noqa: E402

# Set-up and resume are repeated until this much time is spent on them (at
# most MAX_REPEATS times), so phases of a fraction of a second still give a
# median over many samples. A traced repetition runs each phase once.
SETUP_BUDGET_S = 2.0
RESUME_BUDGET_S = 2.5
MAX_REPEATS = 8


def run_job(job: dict) -> dict:
    workload, seed = job["workload"], job["seed"]
    config = experiment_config(workload, seed)
    run_dir = Path(job["work_dir"]) / "run"
    tracer = Tracer(job["trace_id"]) if job["trace"] else None

    def phase(name):
        return tracer.span(name) if tracer else nullcontext()

    def enough(samples, budget):
        return tracer or sum(samples) >= budget or len(samples) >= MAX_REPEATS

    if tracer:
        tracer.instrument()
    out = {"setup_s": [], "resume_s": [], "checks": {}, "numpy": numpy.__version__}
    try:
        while True:
            bundle = None  # never hold two bundles: peak RSS is one set-up's
            start = perf_counter()
            with phase("setup"):
                bundle = setup(workload, seed, config)
            out["setup_s"].append(perf_counter() - start)
            if enough(out["setup_s"], SETUP_BUDGET_S):
                break

        start = perf_counter()
        with phase("loop"):
            states = experiment.Experiment(config, bundle, run_dir).run()
            rows = experiment.report_rows(config, states, seed_label=seed)
            with phase("evaluation.emit_reports"):
                evaluation.emit_reports(rows, run_dir / "reports")
        out["loop_s"] = perf_counter() - start
        out["iterations"] = len(states)
        out["digest"] = digest(states)
        persist_bytes = sum(p.stat().st_size for p in run_dir.glob("iter_*.json"))

        last = run_dir / f"iter_{len(states):04d}.json"
        uninterrupted = last.read_bytes()
        differing = 0
        while True:
            last.unlink()
            (run_dir / states[-1].checkpoint_name).unlink()
            start = perf_counter()
            with phase("resume"):
                resumed = experiment.Experiment(config, bundle, run_dir).resume()
            out["resume_s"].append(perf_counter() - start)
            if last.read_bytes() != uninterrupted or resumed[-1].to_json() != states[-1].to_json():
                differing += 1
            if enough(out["resume_s"], RESUME_BUDGET_S):
                break
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    finally:
        if tracer:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = out["checks"]
    expected = job["reference"]
    checks["reference_digest"] = (
        compare_digest(out["digest"], expected) if expected else ["no reference digest"]
    )
    checks["resume_equal"] = [
        f"{differing} of {len(out['resume_s'])} resumes differ from the uninterrupted run "
        f"({last.name} or the final state)"
    ] if differing else []
    results_csv = run_dir / "reports" / "results.csv"
    n_rows = len(results_csv.read_text(encoding="utf-8").splitlines()) - 1
    checks["reports"] = [] if n_rows == len(states) else [f"results.csv has {n_rows} rows"]

    if tracer:
        out["per_layer"] = per_layer_metrics(tracer, persist_bytes)
        tracer.write(Path(job["work_dir"]) / "spans.jsonl")
        out["span_totals"] = tracer.span_totals()
    shutil.rmtree(run_dir, ignore_errors=True)
    return out


def per_layer_metrics(tracer: Tracer, persist_bytes: int) -> dict:
    """Per-layer metrics over the whole traced repetition (set-up, loop and resume)."""
    spans = tracer.span_totals()
    leaves = tracer.leaf_totals()

    def span_s(name):
        return spans.get(name, {}).get("seconds", 0.0)

    def span_calls(name):
        return spans.get(name, {}).get("calls", 0)

    def leaf(name):
        return leaves.get(name, [0, 0.0])

    annotate_calls = span_calls("annotation.annotate")
    cross_calls = leaf("ranker.cross_features")[0]
    counters = tracer.counters
    return {
        "synthetic.generate_s": span_s("synthetic.generate"),
        "lexical.build_index_s": span_s("lexical.build_index"),
        "lexical.retrieve_calls": leaf("lexical.retrieve")[0],
        "lexical.retrieve_s": leaf("lexical.retrieve")[1],
        "lexical.tokenize_calls": leaf("lexical.tokenize")[0],
        "lexical.tokenize_s": leaf("lexical.tokenize")[1],
        "ranker.train_calls": span_calls("ranker.train"),
        "ranker.train_s": span_s("ranker.train"),
        "ranker.train_triplet_epochs": counters.get("ranker.train_triplet_epochs", 0),
        "ranker.rerank_calls": span_calls("ranker.rerank"),
        "ranker.rerank_s": span_s("ranker.rerank"),
        "ranker.score_calls": leaf("ranker.score")[0],
        "ranker.score_s": leaf("ranker.score")[1],
        "ranker.cross_features_calls": cross_calls,
        "ranker.cross_features_distinct_ratio": (
            len(tracer.cross_feature_keys) / cross_calls if cross_calls else 0.0
        ),
        "ranker.encode_query_s": leaf("ranker.encode_query")[1],
        "ranker.save_checkpoint_s": span_s("ranker.save_checkpoint"),
        "ranker.load_checkpoint_s": span_s("ranker.load_checkpoint"),
        "ranker.checkpoint_bytes": counters.get("ranker.checkpoint_bytes", 0),
        "selection.select_s": span_s("selection.select"),
        "selection.candidates_scored": tracer.leaves_under(
            ("ranker.score", "ranker.encode_query"), "selection.select"
        ),
        "selection.vote_entropy_calls": span_calls("selection.vote_entropy"),
        "selection.vote_entropy_s": span_s("selection.vote_entropy"),
        "selection.kmeans_s": span_s("selection.kmeans"),
        "annotation.annotate_calls": annotate_calls,
        "annotation.annotate_s": span_s("annotation.annotate"),
        "annotation.assessments": counters.get("annotation.assessments", 0),
        "annotation.skipped_ratio": (
            counters.get("annotation.skipped", 0) / annotate_calls if annotate_calls else 0.0
        ),
        "experiment.evaluate_s": span_s("experiment.evaluate"),
        "evaluation.ndcg_s": span_s("evaluation.ndcg"),
        "datamodel.grades_for_calls": leaf("datamodel.grades_for")[0],
        "datamodel.grades_for_s": leaf("datamodel.grades_for")[1],
        "datamodel.query_ids_calls": leaf("datamodel.query_ids")[0],
        "evaluation.emit_reports_s": span_s("evaluation.emit_reports"),
        "experiment.self_s": spans.get("experiment.run", {}).get("self_seconds", 0.0),
        "experiment.persist_bytes": persist_bytes,
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    out = run_job(job)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
