"""Workload table, experiment configuration and result digests for the benchmark.

Every workload runs the desk ranker profile (`cli.DESK_PROFILE`: 512-dim,
5 selection / 50 evaluation epochs) with a batch of 20 queries per iteration.
Each one gives a different layer most of its time:

- desk-qbc: committee training, committee reranks and vote entropy.
- mid-diversity: set-up (index + BM25 for 1.2k queries), evaluation over 300
  test queries and k-means over 900 query encodings.
- large-diversity: the same layers at 20k docs (index + BM25 for 4k queries,
  evaluation over 1k test queries, k-means over 3k query encodings); run by
  hand, as it does not fit BENCHMARK.json's run time.
- desk-uncertainty-maxsim: dense max-sim training, pair-level annotation and
  2 MB checkpoints written by the loop and read back by resume.
"""

from __future__ import annotations

import hashlib
import json

# Reference digests exist for data seeds 0 .. REFERENCE_SEEDS-1; a benchmark
# seed n runs on data seed n % REFERENCE_SEEDS, so every run has a reference.
REFERENCE_SEEDS = 32

DESK_SPEC: dict = {}  # SyntheticSpec defaults: 20 topics, 2k docs, 300/100 queries

WORKLOADS = {
    "desk-qbc": {
        "spec": DESK_SPEC,
        "strategy": "qbc",
        "architecture": "cross",
        "iterations": 5,
        "batch": 20,
    },
    "mid-diversity": {
        "spec": {"topics": 60},
        "strategy": "diversity",
        "architecture": "cross",
        "iterations": 3,
        "batch": 20,
    },
    "large-diversity": {
        "spec": {"topics": 200},
        "strategy": "diversity",
        "architecture": "cross",
        "iterations": 3,
        "batch": 20,
    },
    "desk-uncertainty-maxsim": {
        "spec": DESK_SPEC,
        "strategy": "uncertainty",
        "architecture": "maxsim",
        "iterations": 5,
        "batch": 20,
    },
}


def experiment_config(workload: dict, seed: int):
    """The run-al configuration of a workload, built through the public config path."""
    from alrank.cli import DESK_PROFILE, config_from_dict

    return config_from_dict(
        {
            **DESK_PROFILE,
            "strategy": workload["strategy"],
            "architecture": workload["architecture"],
            "iterations": workload["iterations"],
            "samples_per_iteration": workload["batch"],
            "master_seed": seed,
        }
    )


def setup(workload: dict, seed: int, config):
    """The workload's synthetic bundle: generate_synthetic + make_bundle, as run-al does."""
    from alrank import experiment, synthetic

    corpus, train_q, test_q, qrels = synthetic.generate_synthetic(
        synthetic.SyntheticSpec(**workload["spec"]), seed
    )
    return experiment.make_bundle(
        corpus, train_q, test_q, qrels,
        candidate_depth=config.selection.candidate_depth,
        negatives_depth=config.negatives_depth,
    )


def digest(states) -> dict:
    """Exact digest of what the loop selected and annotated, plus nDCG per iteration.

    The sha256 covers selected ids, annotation records, the cumulative triplets
    and cumulative assessments of every iteration; nDCG is compared to 1e-9.
    """
    payload = []
    for st in states:
        data = st.to_json()
        payload.append(
            {key: data[key] for key in ("iteration", "selected", "records", "triplets",
                                        "assessments_cumulative")}
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "ndcg10": [st.ndcg10 for st in states],
    }


def compare_digest(found: dict, expected: dict, tolerance: float = 1e-9) -> list[str]:
    """Mismatch messages between a run's digest and its reference (empty when equal)."""
    problems = []
    if found["sha256"] != expected["sha256"]:
        problems.append(
            f"selection/annotation digest {found['sha256'][:12]} != reference "
            f"{expected['sha256'][:12]}"
        )
    if len(found["ndcg10"]) != len(expected["ndcg10"]):
        problems.append(
            f"{len(found['ndcg10'])} iterations != reference {len(expected['ndcg10'])}"
        )
    else:
        for i, (a, b) in enumerate(zip(found["ndcg10"], expected["ndcg10"]), start=1):
            if abs(a - b) > tolerance:
                problems.append(f"iteration {i} ndcg10 {a!r} != reference {b!r}")
    return problems
