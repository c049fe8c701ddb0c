"""Budget-aware active-learning harness for trainable rankers."""

from .budget import CostConfig, CostReport, annotation_cost, compute_cost, total_cost
from .datamodel import (
    Corpus,
    Qrels,
    QuerySet,
    RankedList,
    Run,
    TrainingTriplet,
    parse_collection,
    parse_qrels,
    parse_queries,
    parse_run,
    serialize_run,
)
from .evaluation import ndcg_at_k, paired_ttest
from .experiment import (
    DataBundle,
    Experiment,
    ExperimentConfig,
    make_bundle,
    run_variability,
)
from .lexical import build_index, retrieve_topk, tokenize
from .ranker import Ranker, RankerConfig, RankerState, load_checkpoint, ranknet_loss, save_checkpoint
from .selection import (
    SelectionConfig,
    kmeans,
    select_diversity,
    select_qbc,
    select_random,
    select_uncertainty,
    vote_entropy,
)
from .synthetic import DESK_SPEC, SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
