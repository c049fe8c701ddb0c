import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alrank.datamodel import (
    Corpus,
    ParseError,
    Qrels,
    RankedList,
    Run,
    TrainingTriplet,
    _check_id,
    parse_collection,
    parse_qrels,
    parse_run,
    serialize_run,
)
from alrank.experiment import make_bundle
from alrank.synthetic import DESK_SPEC, SyntheticSpec, generate_synthetic


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestCollectionParsing:
    def test_single_line(self, tmp_path):
        corpus = parse_collection(write(tmp_path, "c.tsv", "d1\thello world\n"))
        assert corpus.ids() == ["d1"]
        assert corpus["d1"] == "hello world"

    def test_duplicate_id_reports_line(self, tmp_path):
        path = write(tmp_path, "c.tsv", "d1\ta\nd1\tb\n")
        with pytest.raises(ParseError, match="2: duplicate id 'd1'"):
            parse_collection(path)

    def test_missing_tab_reports_line(self, tmp_path):
        path = write(tmp_path, "c.tsv", "d1\ta\nd2 no tab here\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_collection(path)

    def test_empty_file_is_valid(self, tmp_path):
        assert len(parse_collection(write(tmp_path, "c.tsv", ""))) == 0

    def test_order_preserved(self, tmp_path):
        corpus = parse_collection(write(tmp_path, "c.tsv", "b\tx\na\ty\n"))
        assert corpus.ids() == ["b", "a"]

    def test_empty_text_needs_permissive(self, tmp_path):
        path = write(tmp_path, "c.tsv", "d1\t\n")
        with pytest.raises(ValueError):
            parse_collection(path)
        assert parse_collection(path, permissive=True)["d1"] == ""


class TestQrelsParsing:
    def test_basic_entry(self, tmp_path):
        qrels = parse_qrels(write(tmp_path, "q.txt", "q1 0 d3 2\n"), threshold=1)
        assert qrels.grade("q1", "d3") == 2
        assert qrels.is_relevant("q1", "d3")

    def test_zero_grade_present_but_irrelevant(self, tmp_path):
        qrels = parse_qrels(write(tmp_path, "q.txt", "q1 0 d3 0\n"), threshold=1)
        assert qrels.grades_for("q1") == {"d3": 0}
        assert not qrels.is_relevant("q1", "d3")

    def test_non_integer_grade(self, tmp_path):
        with pytest.raises(ParseError, match=":1: non-integer grade"):
            parse_qrels(write(tmp_path, "q.txt", "q1 0 d3 x\n"))

    def test_duplicate_pair_is_error(self, tmp_path):
        with pytest.raises(ParseError, match=":2: duplicate"):
            parse_qrels(write(tmp_path, "q.txt", "q1 0 d3 1\nq1 0 d3 2\n"))

    def test_threshold_semantics(self):
        qrels = Qrels({("q", "a"): 1, ("q", "b"): 2}, threshold=2)
        assert not qrels.is_relevant("q", "a")
        assert qrels.is_relevant("q", "b")
        assert qrels.relevant_docs("q") == {"b"}

    def test_per_query_index_matches_a_scan(self):
        grades = {("q2", "c"): 0, ("q1", "b"): 2, ("q2", "a"): 1, ("q1", "a"): 1}
        qrels = Qrels(grades)
        assert qrels.query_ids() == {"q1", "q2"}
        for qid in ("q1", "q2", "unjudged"):
            want = {d: g for (q, d), g in grades.items() if q == qid}
            got = qrels.grades_for(qid)
            assert got == want and list(got) == list(want)
        qrels.grades_for("q1")["z"] = 3  # a copy: the index is not changed
        assert qrels.grades_for("q1") == {"b": 2, "a": 1}


class TestRankedList:
    def test_sorted_with_docid_tiebreak(self):
        rl = RankedList("q", [("b", 1.0), ("a", 1.0), ("c", 2.0)])
        assert rl.doc_ids() == ["c", "a", "b"]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="duplicate document"):
            RankedList("q", [("a", 1.0), ("a", 0.5)])


class TestRunRoundTrip:
    def test_serialize_format(self, tmp_path):
        run = Run("bm25", {"q1": RankedList("q1", [("d2", 1.5), ("d1", 0.5)])})
        path = tmp_path / "run.txt"
        serialize_run(run, path)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["q1", "Q0", "d2", "1", "1.5", "bm25"]
        assert lines[1].split() == ["q1", "Q0", "d1", "2", "0.5", "bm25"]

    def test_round_trip(self, tmp_path):
        run = Run(
            "t",
            {
                "q1": RankedList("q1", [("d2", 1.5), ("d1", 0.5)]),
                "q2": RankedList("q2", [("d9", 0.25)]),
            },
        )
        path = tmp_path / "run.txt"
        serialize_run(run, path)
        assert parse_run(path) == run

    def test_rank_gap_is_error(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 3 1.0 t\n")
        with pytest.raises(ParseError, match="not contiguous"):
            parse_run(path)

    def test_mismatched_key_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Run("t", {"q1": RankedList("q2", [("d1", 1.0)])})


class TestIdentifiers:
    def test_whitespace_and_empty_ids_rejected(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) == 29
        bad = [""] + [f"d{c}1" for c in spaces] + [f"{c}d1" for c in spaces] + [f"d1{c}" for c in spaces]
        for doc_id in bad:
            with pytest.raises(ValueError, match="invalid document identifier"):
                Corpus({doc_id: "text"})
            with pytest.raises(ValueError, match="invalid query identifier"):
                Qrels({(doc_id, "d1"): 1})

    def test_ids_without_whitespace_accepted(self):
        # every code point that is not str.isspace(), between two letters
        for c in range(sys.maxunicode + 1):
            if not chr(c).isspace():
                doc_id = f"d{chr(c)}1"
                assert _check_id(doc_id, "document") == doc_id


class TestTriplets:
    def test_positive_equals_negative_rejected(self):
        with pytest.raises(ValueError, match="positive equals negative"):
            TrainingTriplet("q", "d", "d")


@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4).map(lambda s: "q" + s),
        st.lists(
            st.tuples(st.text(alphabet="xyz01", min_size=1, max_size=4), st.integers(0, 1000)),
            min_size=1,
            max_size=8,
            unique_by=lambda e: e[0],
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_run_round_trip_property(tmp_path_factory, data):
    rankings = {
        qid: RankedList(qid, [(f"d{did}", score / 4.0) for did, score in docs])
        for qid, docs in data.items()
    }
    run = Run("prop", rankings)
    path = tmp_path_factory.mktemp("runs") / "r.txt"
    serialize_run(run, path)
    assert parse_run(path) == run


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(topics=2, docs_per_topic=12, queries_per_topic=2,
                             test_queries_per_topic=1, rel_per_query=2)
        a = generate_synthetic(spec, 7)
        b = generate_synthetic(spec, 7)
        assert a[0] == b[0] and a[3] == b[3]
        assert dict(a[1].items()) == dict(b[1].items())
        assert dict(a[2].items()) == dict(b[2].items())

    def test_different_seed_differs(self):
        spec = SyntheticSpec(topics=2, docs_per_topic=12, queries_per_topic=2,
                             test_queries_per_topic=1, rel_per_query=2)
        assert generate_synthetic(spec, 7)[0] != generate_synthetic(spec, 8)[0]

    def test_rel_per_query_planted(self):
        spec = SyntheticSpec(topics=2, docs_per_topic=16, queries_per_topic=3,
                             test_queries_per_topic=1, rel_per_query=2)
        _, train_q, test_q, qrels = generate_synthetic(spec, 3)
        for qid in list(train_q.ids()) + list(test_q.ids()):
            assert len(qrels.relevant_docs(qid)) == spec.rel_per_query

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="rel_per_query"):
            SyntheticSpec(docs_per_topic=2, rel_per_query=3)
        with pytest.raises(ValueError, match="slots"):
            SyntheticSpec(docs_per_topic=10, queries_per_topic=5,
                          test_queries_per_topic=2, rel_per_query=2)

    @pytest.mark.parametrize(
        "field, value", [("topic_vocab_size", 2), ("topic_vocab_size", 3), ("noise_vocab_size", 0)]
    )
    def test_unusable_vocabulary_rejected(self, field, value):
        # topic_vocab_size=2 at generator seed 11 looped forever; 3 and a
        # noise_vocab_size of 0 failed inside numpy
        kwargs = dict(topics=1, topic_vocab_size=4, queries_per_topic=1,
                      test_queries_per_topic=0, docs_per_topic=5)
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{**kwargs, field: value})
        SyntheticSpec(**kwargs)

    # sha256 of the generator's full output, recorded when it still drew from
    # Python lists: the random stream must not change
    PINNED = [
        (DESK_SPEC, 0, "97311c58e2062f2ed7872a5c9d72b7df17cb1f06621f255612f9d6ba51db2b2c"),
        (SyntheticSpec(topics=60), 3,
         "f6decf43b95032f45de004a8ba7cbb121951d6a7418f2a65aa447a6d51a09cf9"),
        # the `tiny_data` fixture's spec
        (SyntheticSpec(topics=3, docs_per_topic=24, queries_per_topic=5,
                       test_queries_per_topic=2, rel_per_query=2, noise_vocab_size=60,
                       topic_vocab_size=8), 11,
         "1a0043d074165bb3ccdc9ff4c3f3a7428876bb3067e167feede28f6d29da873d"),
    ]

    @pytest.mark.parametrize("spec, seed, sha256", PINNED)
    def test_output_pinned(self, spec, seed, sha256):
        corpus, train_q, test_q, qrels = generate_synthetic(spec, seed)
        payload = json.dumps([
            list(corpus.items()),
            list(train_q.items()),
            list(test_q.items()),
            sorted((qid, did, grade) for (qid, did), grade in qrels.items()),
        ])
        assert hashlib.sha256(payload.encode()).hexdigest() == sha256

    # sha256 of make_bundle's BM25 lists (ids, order, float.hex of each score),
    # recorded when the index was a dict of posting tuples scored doc by doc
    PINNED_BUNDLES = [
        (DESK_SPEC, 0, "84f9795b5a32e1bcf41675e43e4ca85e486eb5595588f83c158789d7d84cad5e"),
        (SyntheticSpec(topics=60), 3,
         "03af9b9782433fed248aa76bc82a91e4b7018d85927318aaf52a8ff365c52757"),
    ]

    @pytest.mark.parametrize("spec, seed, sha256", PINNED_BUNDLES)
    def test_bundle_pinned(self, spec, seed, sha256):
        bundle = make_bundle(*generate_synthetic(spec, seed))
        # the walks' candidates (each list cut to the default candidate_depth
        # 100), the negatives and the test candidates
        candidates = {qid: ranked.top(100) for qid, ranked in bundle.negatives.rankings.items()}
        payload = json.dumps([
            [[qid, [[did, score.hex()] for did, score in ranked.entries]]
             for qid, ranked in rankings.items()]
            for rankings in (candidates, bundle.negatives.rankings, bundle.test_candidates.rankings)
        ])
        assert hashlib.sha256(payload.encode()).hexdigest() == sha256

    def test_query_lengths(self):
        _, train_q, test_q, _ = generate_synthetic(DESK_SPEC, 0)
        for _, text in list(train_q.items()) + list(test_q.items()):
            assert 2 <= len(text.split()) <= 4

    def test_relevant_docs_carry_topic_tokens(self):
        corpus, train_q, _, qrels = generate_synthetic(DESK_SPEC, 0)
        for qid in list(train_q.ids())[:20]:
            for did in qrels.relevant_docs(qid):
                topic_tokens = {t for t in corpus[did].split() if t.startswith("topic")}
                assert len(topic_tokens) >= 3
