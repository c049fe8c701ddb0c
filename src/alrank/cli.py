"""Command-line entry point: data prep, retrieval, experiments, cost reports.

Each command turns its arguments into calls; the run directory that run-al,
resume and report use is written and read by the experiment module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datamodel, lexical, synthetic
from .annotation import read_assessment_totals
from .budget import annotation_cost, total_cost
from .evaluation import emit_reports
from .experiment import (
    DATA_FILES,
    SCENARIOS,
    ExperimentConfig,
    IterationState,
    bundle_from_provenance,
    config_from_dict,
    parse_override,
    report_al,
    resume_al,
    run_al,
    run_variability,
)
from .selection import STRATEGIES

DESK_PROFILE = {
    "dim": 512,
    "hash_buckets": 512,
    "learning_rate": 0.3,
    "epochs_selection": 5,
    "epochs_evaluation": 50,
    "batch_size": 32,
}


# config key -> the run-al argument that sets it
_ARG_KEYS = {
    "strategy": "strategy",
    "scenario": "scenario",
    "iterations": "iterations",
    "master_seed": "seed",
    "initial_checkpoint": "initial_checkpoint",
    "samples_per_iteration": "batch",
}


def _load_config(args) -> ExperimentConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config keys")
    if getattr(args, "profile", None) == "desk":
        for key, value in DESK_PROFILE.items():
            data.setdefault(key, value)
    for key, arg in _ARG_KEYS.items():
        value = getattr(args, arg, None)
        if value is not None:
            data[key] = value
    data.update(parse_override(override) for override in getattr(args, "set", None) or [])
    return config_from_dict(data)


def _provenance_from_args(args) -> dict:
    """Where the data comes from: the provenance that `run_al` records."""
    if getattr(args, "synthetic", False):
        return {"kind": "synthetic", "seed": getattr(args, "synthetic_seed", 0) or 0}
    for name in DATA_FILES:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required path: --{name.replace('_', '-')}")
    return {"kind": "files", **{name: str(getattr(args, name)) for name in DATA_FILES}}


def _print_summary(states: list[IterationState]) -> None:
    print(f"{'iter':>4} {'train_size':>10} {'ndcg@10':>8} {'assessments':>11}")
    for st in states:
        print(
            f"{st.iteration:>4} {len(st.triplets):>10} {st.ndcg10:>8.4f} "
            f"{st.assessments_cumulative:>11}"
        )


# -- subcommand handlers ----------------------------------------------------


def cmd_build_index(args) -> int:
    corpus = datamodel.parse_collection(args.corpus)
    index = lexical.build_index(corpus, k1=args.k1, b=args.b)
    lexical.save_index(index, args.out)
    print(f"indexed {index.n_docs} documents -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    index = lexical.load_index(args.index)
    queries = datamodel.parse_queries(args.queries)
    rankings = {
        qid: lexical.retrieve_topk(index, text, args.k, query_id=qid)
        for qid, text in queries.items()
    }
    run = datamodel.Run(tag=args.tag, rankings=rankings)
    datamodel.serialize_run(run, args.out)
    print(f"wrote run for {len(rankings)} queries -> {args.out}")
    return 0


def cmd_make_synthetic(args) -> int:
    spec = synthetic.SyntheticSpec(
        topics=args.topics,
        docs_per_topic=args.docs_per_topic,
        queries_per_topic=args.queries_per_topic,
        test_queries_per_topic=args.test_queries_per_topic,
        rel_per_query=args.rel_per_query,
    )
    corpus, train_q, test_q, qrels = synthetic.generate_synthetic(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.tsv", "w", encoding="utf-8") as fh:
        for did, text in corpus.items():
            fh.write(f"{did}\t{text}\n")
    for name, qs in (("queries_train.tsv", train_q), ("queries_test.tsv", test_q)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for qid, text in qs.items():
                fh.write(f"{qid}\t{text}\n")
    datamodel.serialize_qrels(qrels, out / "qrels.txt")
    print(
        f"wrote {len(corpus)} docs, {len(train_q)}/{len(test_q)} train/test queries -> {out}"
    )
    return 0


def cmd_run_al(args) -> int:
    _print_summary(run_al(_load_config(args), _provenance_from_args(args), args.out))
    return 0


def cmd_resume(args) -> int:
    _print_summary(resume_al(args.out))
    return 0


def cmd_cost_calc(args) -> int:
    cost = _load_config(args).cost
    if args.assessments is not None:
        print(f"C_A={annotation_cost(args.assessments, cost):.2f}")
        return 0
    if not args.ledger:
        raise ValueError("either --assessments or --ledger is required")
    totals = read_assessment_totals(args.ledger)
    iterations = list(totals)
    gpu_hours = [0.0] * len(iterations)
    if args.gpu_hours:
        gpu_hours = [float(h) for h in args.gpu_hours.split(",")]
        if len(gpu_hours) != len(iterations):
            raise ValueError(
                f"--gpu-hours needs {len(iterations)} comma-separated values"
            )
    report = total_cost(totals, dict(zip(iterations, gpu_hours)), cost)
    print(f"{'iter':>4} {'A(i)':>8} {'C_A':>12} {'C_C':>12} {'C':>12}")
    for row in report.rows:
        print(
            f"{row.iteration:>4} {row.assessments:>8} {row.annotation_cost:>12.3f} "
            f"{row.compute_cost:>12.3f} {row.total:>12.3f}"
        )
    if args.out:
        report.save_csv(args.out)
    return 0


def cmd_run_variability(args) -> int:
    config = _load_config(args)
    bundle = bundle_from_provenance(_provenance_from_args(args), config)
    sizes = [int(s) for s in args.sizes.split(",")]
    records = run_variability(config, bundle, sizes, repeats=args.repeats)
    emit_reports([], args.out, variability=records)
    print(f"{'size':>6} {'seed':>4} {'ndcg@10':>8}")
    for r in records:
        print(f"{r['size']:>6} {r['seed']:>4} {r['ndcg10']:>8.4f}")
    return 0


def cmd_report(args) -> int:
    config, states = report_al(args.input)
    print(f"strategy={config.selection.strategy} scenario={config.scenario}")
    _print_summary(states)
    return 0


# -- argument parsing -------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="collection TSV (<id>\\t<text>)")
    p.add_argument("--queries", help="training queries TSV")
    p.add_argument("--test-queries", dest="test_queries", help="test queries TSV")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--synthetic", action="store_true", help="use the built-in synthetic bundle")
    p.add_argument("--synthetic-seed", type=int, default=0, help="synthetic generator seed")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flat keys)")
    p.add_argument("--profile", choices=["desk"], help="preset shrinking epochs/sizes")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build and save a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k1", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.4)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="BM25 top-k retrieval to a TREC run file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--tag", default="bm25")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("make-synthetic", help="generate a synthetic corpus bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topics", type=int, default=synthetic.DESK_SPEC.topics)
    p.add_argument("--docs-per-topic", type=int, default=synthetic.DESK_SPEC.docs_per_topic)
    p.add_argument("--queries-per-topic", type=int, default=synthetic.DESK_SPEC.queries_per_topic)
    p.add_argument(
        "--test-queries-per-topic", type=int, default=synthetic.DESK_SPEC.test_queries_per_topic
    )
    p.add_argument("--rel-per-query", type=int, default=synthetic.DESK_SPEC.rel_per_query)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("run-al", help="run the incremental active-learning experiment")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True, help="run state/output directory")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--initial-checkpoint", dest="initial_checkpoint")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch", type=int, help="queries selected per iteration")
    p.set_defaults(func=cmd_run_al)

    p = sub.add_parser("resume", help="continue an interrupted run-al experiment")
    p.add_argument("--out", required=True, help="existing run directory")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("run-variability", help="train on random subsets of several sizes")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated subset sizes")
    p.add_argument("--repeats", type=int, default=4)
    p.set_defaults(func=cmd_run_variability)

    p = sub.add_parser("cost-calc", help="cost report from an assessment ledger")
    p.add_argument("--assessments", type=int, help="print the annotation cost of this many assessments")
    p.add_argument("--ledger", help="assessment ledger CSV")
    p.add_argument("--gpu-hours", dest="gpu_hours", help="comma-separated per-iteration training hours")
    p.add_argument("--config", help="run-al's JSON config file (flat keys); its cost keys are read")
    p.add_argument("--out", help="write the report CSV here")
    p.set_defaults(func=cmd_cost_calc)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
