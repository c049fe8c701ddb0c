import hashlib
import json
import struct
from pathlib import Path

import pytest

from alrank.datamodel import Corpus, Qrels, QuerySet
from alrank.experiment import DataBundle, make_bundle
from alrank.ranker import RankerConfig
from alrank.synthetic import DESK_SPEC, SyntheticSpec, generate_synthetic

# desk-profile ranker settings shared by integration and acceptance tests
DESK_RANKER = dict(
    architecture="cross",
    dim=512,
    hash_buckets=512,
    learning_rate=0.3,
    epochs_selection=5,
    epochs_evaluation=50,
)


@pytest.fixture(scope="session")
def desk_data():
    return generate_synthetic(DESK_SPEC, 0)


@pytest.fixture(scope="session")
def desk_bundle(desk_data) -> DataBundle:
    corpus, train_q, test_q, qrels = desk_data
    return make_bundle(corpus, train_q, test_q, qrels)


@pytest.fixture(scope="session")
def tiny_data():
    spec = SyntheticSpec(
        topics=3,
        docs_per_topic=24,
        queries_per_topic=5,
        test_queries_per_topic=2,
        rel_per_query=2,
        noise_vocab_size=60,
        topic_vocab_size=8,
    )
    return generate_synthetic(spec, 11)


@pytest.fixture(scope="session")
def tiny_bundle(tiny_data) -> DataBundle:
    corpus, train_q, test_q, qrels = tiny_data
    return make_bundle(corpus, train_q, test_q, qrels)


@pytest.fixture
def small_corpus() -> Corpus:
    return Corpus({"d1": "apple banana", "d2": "apple"})


@pytest.fixture
def desk_ranker_config() -> RankerConfig:
    return RankerConfig(**DESK_RANKER)


@pytest.fixture
def write_legacy_checkpoint():
    """Writes a state in the checkpoint layout of before a state was one array:
    the header lists the array by name and carries the training step and the
    ranker config's fingerprint."""

    def write(path, state, config: RankerConfig, step: int = 0) -> None:
        fingerprint = hashlib.sha256(json.dumps(config.__dict__, sort_keys=True).encode())
        header = {
            "version": 1,
            "architecture": config.architecture,
            "step": step,
            "config_fingerprint": fingerprint.hexdigest()[:16],
            "arrays": [{"name": "w" if config.architecture == "cross" else "emb",
                        "shape": list(state.shape)}],
        }
        blob = json.dumps(header, sort_keys=True).encode()
        Path(path).write_bytes(
            b"ALRK" + struct.pack("<I", len(blob)) + blob + state.astype("<f8").tobytes()
        )

    return write
