"""Command-line entry point: data prep, retrieval, experiments, cost reports."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import datamodel, lexical, synthetic
from .annotation import AssessmentLedger
from .budget import CostConfig, TimeLedger, annotation_cost, load_cost_config, total_cost
from .evaluation import emit_reports
from .experiment import (
    DataBundle,
    Experiment,
    ExperimentConfig,
    IterationState,
    make_bundle,
    report_rows,
    run_variability,
)
from .ranker import RankerConfig
from .selection import SelectionConfig

DESK_PROFILE = {
    "dim": 512,
    "hash_buckets": 512,
    "learning_rate": 0.3,
    "epochs_selection": 5,
    "epochs_evaluation": 50,
    "batch_size": 32,
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat key-value mapping."""
    data = dict(data)
    ranker_keys = {f.name for f in fields(RankerConfig)}
    selection_keys = {f.name for f in fields(SelectionConfig)}
    cost_keys = {f.name for f in fields(CostConfig)}
    exp_keys = {f.name for f in fields(ExperimentConfig)} - {"ranker", "selection", "cost"}

    ranker_args, selection_args, cost_args, exp_args = {}, {}, {}, {}
    for key, value in data.items():
        if key in ranker_keys:
            ranker_args[key] = value
        elif key in selection_keys:
            selection_args[key] = value
        elif key in cost_keys:
            cost_args[key] = value
        elif key in exp_keys:
            if key == "schedule" and value is not None:
                value = tuple(value)
            exp_args[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentConfig(
        ranker=RankerConfig(**ranker_args),
        selection=SelectionConfig(**selection_args),
        cost=CostConfig(**cost_args),
        **exp_args,
    )


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def _load_config(args) -> ExperimentConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    if getattr(args, "profile", None) == "desk":
        for key, value in DESK_PROFILE.items():
            data.setdefault(key, value)
    for name in ("strategy", "scenario", "iterations", "master_seed", "initial_checkpoint"):
        value = getattr(args, name.replace("master_seed", "seed"), None) if name == "master_seed" else getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "batch", None) is not None:
        data["samples_per_iteration"] = args.batch
    for override in getattr(args, "set", None) or []:
        if "=" not in override:
            raise ValueError(f"override must be key=value, got {override!r}")
        key, value = override.split("=", 1)
        data[key] = _coerce(value)
    return config_from_dict(data)


def _load_bundle_from_args(args, config: ExperimentConfig) -> tuple[DataBundle, dict]:
    depth = config.selection.candidate_depth
    if getattr(args, "synthetic", False):
        seed = getattr(args, "synthetic_seed", 0) or 0
        corpus, train_q, test_q, qrels = synthetic.generate_synthetic(synthetic.DESK_SPEC, seed)
        provenance = {"kind": "synthetic", "seed": seed}
    else:
        for name in ("corpus", "queries", "test_queries", "qrels"):
            if getattr(args, name, None) is None:
                raise ValueError(f"missing required path: --{name.replace('_', '-')}")
        corpus = datamodel.parse_collection(args.corpus)
        train_q = datamodel.parse_queries(args.queries)
        test_q = datamodel.parse_queries(args.test_queries)
        qrels = datamodel.parse_qrels(args.qrels)
        provenance = {
            "kind": "files",
            "corpus": str(args.corpus),
            "queries": str(args.queries),
            "test_queries": str(args.test_queries),
            "qrels": str(args.qrels),
        }
    bundle = make_bundle(
        corpus, train_q, test_q, qrels,
        candidate_depth=depth, negatives_depth=config.negatives_depth,
    )
    return bundle, provenance


def _write_run_outputs(config: ExperimentConfig, states: list[IterationState], out_dir: Path) -> None:
    ledger = AssessmentLedger()
    for st in states:
        ledger.update(st.iteration, st.records)
    ledger.save_csv(out_dir / "assessments.csv")
    exp_rows = report_rows(config, states, seed_label=config.master_seed)
    emit_reports(exp_rows, out_dir / "reports")


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
    config = _load_config(args)
    bundle, provenance = _load_bundle_from_args(args, config)
    out_dir = Path(args.out)
    exp = Experiment(config, bundle, out_dir)
    states = exp.run()
    (out_dir / "data.json").write_text(json.dumps(provenance, sort_keys=True), encoding="utf-8")
    _write_run_outputs(config, states, out_dir)
    _print_summary(states)
    return 0


def _load_run_config(run_dir: Path) -> ExperimentConfig:
    """The ExperimentConfig a run directory's config.json was written from."""
    persisted = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    persisted.pop("fingerprint", None)
    flat = {}
    for key, value in persisted.items():
        if isinstance(value, dict):
            flat.update(value)
        else:
            flat[key] = value
    return config_from_dict(flat)


def cmd_resume(args) -> int:
    out_dir = Path(args.out)
    config = _load_run_config(out_dir)
    provenance = json.loads((out_dir / "data.json").read_text(encoding="utf-8"))
    if provenance["kind"] == "synthetic":
        corpus, train_q, test_q, qrels = synthetic.generate_synthetic(
            synthetic.DESK_SPEC, provenance["seed"]
        )
    else:
        corpus = datamodel.parse_collection(provenance["corpus"])
        train_q = datamodel.parse_queries(provenance["queries"])
        test_q = datamodel.parse_queries(provenance["test_queries"])
        qrels = datamodel.parse_qrels(provenance["qrels"])
    bundle = make_bundle(
        corpus, train_q, test_q, qrels,
        candidate_depth=config.selection.candidate_depth,
        negatives_depth=config.negatives_depth,
    )
    states = Experiment(config, bundle, out_dir).resume()
    _write_run_outputs(config, states, out_dir)
    _print_summary(states)
    return 0


def cmd_cost_calc(args) -> int:
    if args.config and args.config != "default":
        cost = load_cost_config(args.config)
    else:
        cost = CostConfig()
    if args.assessments is not None:
        print(f"C_A={annotation_cost(args.assessments, cost):.2f}")
        return 0
    if not args.ledger:
        raise ValueError("either --assessments or --ledger is required")
    ledger = AssessmentLedger.load_csv(args.ledger)
    iterations = sorted(ledger.per_iteration)
    gpu_hours = [0.0] * len(iterations)
    if args.gpu_hours:
        gpu_hours = [float(h) for h in args.gpu_hours.split(",")]
        if len(gpu_hours) != len(iterations):
            raise ValueError(
                f"--gpu-hours needs {len(iterations)} comma-separated values"
            )
    time_ledger = TimeLedger()
    for idx, i in enumerate(iterations):
        time_ledger.record(i, gpu_hours[idx], cost.selection_hours_per_iteration)
    totals = {i: ledger.cumulative(i) for i in iterations}
    report = total_cost(totals, time_ledger, cost)
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
    bundle, provenance = _load_bundle_from_args(args, config)
    sizes = [int(s) for s in args.sizes.split(",")]
    records = run_variability(config, bundle, sizes, repeats=args.repeats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_reports([], out_dir, variability=records)
    print(f"{'size':>6} {'seed':>4} {'ndcg@10':>8}")
    for r in records:
        print(f"{r['size']:>6} {r['seed']:>4} {r['ndcg10']:>8.4f}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.input)
    config = _load_run_config(run_dir)
    states = [
        IterationState.from_json(json.loads(p.read_text(encoding="utf-8")))
        for p in sorted(run_dir.glob("iter_*.json"))
    ]
    if not states:
        raise ValueError(f"no iteration states in {run_dir}")
    _write_run_outputs(config, states, run_dir)
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
    p.add_argument("--threads", type=int, default=1, help="worker thread bound (outputs are thread-count independent)")


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
    p.add_argument("--strategy", choices=["random", "uncertainty", "qbc", "diversity"])
    p.add_argument("--scenario", choices=["scratch", "retrain"])
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
    p.add_argument("--config", help="cost config file, or 'default'")
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
