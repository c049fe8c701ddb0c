import json
import shutil
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from alrank import datamodel, experiment
from alrank.budget import CostConfig
from alrank.cli import DESK_PROFILE, _load_config, build_parser, config_from_dict, main
from alrank.experiment import Experiment, ExperimentConfig, load_run
from alrank.ranker import RankerConfig, load_checkpoint
from alrank.selection import SelectionConfig
from alrank.synthetic import SyntheticSpec, generate_synthetic

SMALL_RANKER = [
    "--set", "dim=64", "--set", "hash_buckets=128",
    "--set", "epochs_selection=2", "--set", "epochs_evaluation=3",
    "--set", "learning_rate=0.3",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_files(run_dir) -> dict[str, bytes]:
    """Every file under a run directory, keyed by its relative path."""
    return {
        path.relative_to(run_dir).as_posix(): path.read_bytes()
        for path in sorted(run_dir.rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    code = main([
        "make-synthetic", "--out", str(out), "--seed", "3",
        "--topics", "3", "--docs-per-topic", "24", "--queries-per-topic", "5",
        "--test-queries-per-topic", "2", "--rel-per-query", "2",
    ])
    assert code == 0
    return out


class TestConfigFromDict:
    def test_routes_flat_keys(self):
        config = config_from_dict({
            "strategy": "qbc",
            "dim": 64,
            "samples_per_iteration": 7,
            "gpu_cost_per_hour": 2.0,
            "iterations": 3,
        })
        assert config.selection.strategy == "qbc"
        assert config.ranker.dim == 64
        assert config.selection.samples_per_iteration == 7
        assert config.cost.gpu_cost_per_hour == 2.0
        assert config.iterations == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"bogus": 1})

    def test_desk_profile_keys_are_valid(self):
        config = config_from_dict(dict(DESK_PROFILE))
        assert config.ranker.dim == 512
        assert config.ranker.epochs_evaluation == 50

    def test_every_default_value_is_accepted(self):
        data = {f.name: getattr(part(), f.name)
                for part in (RankerConfig, SelectionConfig, CostConfig) for f in fields(part)}
        data.update(iterations=2, schedule=[3, 4], initial_checkpoint=None,
                    exhausted_back_to_pool=True, training_hours_per_sample_epoch=1)
        config = config_from_dict(data)
        assert config.schedule == (3, 4) and config.training_hours_per_sample_epoch == 1

    @pytest.mark.parametrize("data, key", [
        ({"iterations": "3"}, "iterations"),
        ({"iterations": True}, "iterations"),
        ({"iterations": 3.0}, "iterations"),
        ({"learning_rate": False}, "learning_rate"),
        ({"learning_rate": "0.1"}, "learning_rate"),
        ({"schedule": 3}, "schedule"),
        ({"schedule": [3, True]}, "schedule"),
        ({"schedule": ["3"]}, "schedule"),
        ({"strategy": None}, "strategy"),
        ({"initial_checkpoint": 5}, "initial_checkpoint"),
        ({"one_pair_per_query": 1}, "one_pair_per_query"),
    ])
    def test_value_of_another_type_rejected(self, data, key):
        with pytest.raises(ValueError, match=f"^config key '{key}': expected "):
            config_from_dict(data)

    def test_int_is_a_valid_float(self):
        assert config_from_dict({"learning_rate": 1}).ranker.learning_rate == 1


class TestConfigFileTypes:
    """run-al and cost-calc report a config file value of the wrong type as one
    error line naming the key, and exit 1."""

    @pytest.mark.parametrize("text, key", [
        ('{"iterations": "3"}', "'iterations'"),
        ('{"iterations": true}', "'iterations'"),
        ('{"schedule": 3}', "'schedule'"),
        ("[1]", "JSON object"),
    ])
    @pytest.mark.parametrize("command", ["run-al", "cost-calc"])
    def test_error_line(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        extra = (["--synthetic", "--out", str(tmp_path / "run")] if command == "run-al"
                 else ["--assessments", "10"])
        code, out, err = run_cli(capsys, command, "--config", str(path), *extra)
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ") and key in err

    def test_int_learning_rate_accepted(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"learning_rate": 1}')
        code, out, _ = run_cli(capsys, "cost-calc", "--config", str(path), "--assessments", "75")
        assert code == 0 and "C_A=50.00" in out
        assert _load_config(build_parser().parse_args(
            ["run-al", "--out", "x", "--config", str(path)])).ranker.learning_rate == 1


class TestMakeSynthetic:
    def test_outputs(self, synthetic_dir):
        for name in ("corpus.tsv", "queries_train.tsv", "queries_test.tsv", "qrels.txt"):
            assert (synthetic_dir / name).exists()
        assert len((synthetic_dir / "corpus.tsv").read_text().splitlines()) == 72
        assert len((synthetic_dir / "queries_train.tsv").read_text().splitlines()) == 15

    def test_files_parse_back_to_the_generated_bundle(self, synthetic_dir):
        spec = SyntheticSpec(topics=3, docs_per_topic=24, queries_per_topic=5,
                             test_queries_per_topic=2, rel_per_query=2)
        corpus, train_q, test_q, qrels = generate_synthetic(spec, 3)
        assert datamodel.parse_collection(synthetic_dir / "corpus.tsv") == corpus
        assert datamodel.parse_queries(synthetic_dir / "queries_train.tsv") == train_q
        assert datamodel.parse_queries(synthetic_dir / "queries_test.tsv") == test_q
        assert datamodel.parse_qrels(synthetic_dir / "qrels.txt") == qrels


    @pytest.mark.parametrize("flag, value, message", [
        ("--topics", "0", "topics must be >= 1, got 0"),
        ("--docs-per-topic", "0", "docs_per_topic must be >= 1, got 0"),
        ("--queries-per-topic", "-2", "queries_per_topic must be >= 0, got -2"),
        ("--test-queries-per-topic", "-1", "test_queries_per_topic must be >= 0, got -1"),
    ])
    def test_count_that_changes_the_bundle_is_one_error_line(
        self, tmp_path, capsys, flag, value, message
    ):
        code, out, err = run_cli(
            capsys, "make-synthetic", "--out", str(tmp_path / "d"), flag, value
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "d").exists()

class TestIndexAndRetrieve:
    def test_round_trip(self, synthetic_dir, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        code, out, _ = run_cli(
            capsys, "build-index", "--corpus", str(synthetic_dir / "corpus.tsv"),
            "--out", str(index_path),
        )
        assert code == 0 and "72 documents" in out

        run_path = tmp_path / "run.txt"
        code, out, _ = run_cli(
            capsys, "retrieve", "--index", str(index_path),
            "--queries", str(synthetic_dir / "queries_train.tsv"),
            "--out", str(run_path), "--k", "10",
        )
        assert code == 0 and "15 queries" in out
        assert run_path.read_text().splitlines()

    def test_missing_corpus_errors(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "build-index", "--corpus", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "i.json"),
        )
        assert code == 1 and "error:" in err


class TestCostCalc:
    def test_flat_assessments(self, capsys):
        code, out, _ = run_cli(capsys, "cost-calc", "--assessments", "75")
        assert code == 0
        assert "C_A=50.00" in out

    def test_ledger_report(self, tmp_path, capsys):
        ledger = tmp_path / "assessments.csv"
        ledger.write_text(
            "iteration,query_id,outcome,assessments,positive_id,negative_id\n"
            "1,q1,triplet,30,p,n\n"
            "2,q2,triplet,45,p,n\n"
        )
        out_path = tmp_path / "cost.csv"
        code, out, _ = run_cli(
            capsys, "cost-calc", "--ledger", str(ledger),
            "--gpu-hours", "1.0,1.0", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "iteration,assessments,C_A,C_C,C_total"
        assert len(lines) == 3

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "cost-calc")
        assert code == 1 and "either --assessments or --ledger" in err

    @staticmethod
    def _ledger(tmp_path, header="iteration,query_id,outcome,assessments,positive_id,negative_id"):
        ledger = tmp_path / "assessments.csv"
        ledger.write_text(f"{header}\n1,q1,triplet,30,p,n\n2,q2,triplet,45,p,n\n")
        return ledger

    @pytest.mark.parametrize("hours", ["-1", "nan", "inf"])
    def test_bad_gpu_hours_rejected(self, tmp_path, capsys, hours):
        code, out, err = run_cli(
            capsys, "cost-calc", "--ledger", str(self._ledger(tmp_path)),
            "--gpu-hours", f"1.0,{hours}",
        )
        assert code == 1 and "hours must be finite and >= 0" in err
        assert out == ""

    def test_ledger_without_columns_rejected(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path, header="iteration,query_id,outcome,assessments,negative_id")
        code, _, err = run_cli(capsys, "cost-calc", "--ledger", str(ledger))
        assert code == 1 and "lacks columns positive_id" in err

    @pytest.mark.parametrize("row, column, cell", [
        ("abc,q2,triplet,45,p,n", "iteration", "'abc'"),
        ("2,q2,triplet,4.5,p,n", "assessments", "'4.5'"),
        ("2,q2,triplet", "assessments", "None"),  # a short row
    ])
    def test_non_integer_cell_names_file_line_and_column(self, tmp_path, capsys, row, column, cell):
        ledger = tmp_path / "assessments.csv"
        ledger.write_text(
            "iteration,query_id,outcome,assessments,positive_id,negative_id\n"
            f"1,q1,triplet,30,p,n\n{row}\n"
        )
        code, out, err = run_cli(capsys, "cost-calc", "--ledger", str(ledger))
        assert code == 1 and not out
        assert err == f"error: {ledger}:3: column '{column}': not an integer: {cell}\n"

    def test_config_is_run_al_json(self, tmp_path, capsys):
        # the same flat file run-al reads; only its cost keys change the report
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strategy": "qbc", "dim": 64, "gpu_cost_per_hour": 2.0}))
        code, out, _ = run_cli(
            capsys, "cost-calc", "--ledger", str(self._ledger(tmp_path)),
            "--gpu-hours", "1.0,1.0", "--config", str(config),
        )
        assert code == 0
        # iteration 2: 2 GPU hours at 2.0 plus 0.05 CPU hours at 0.408
        assert out.splitlines()[2].split()[3] == f"{2 * 2.0 + 0.05 * 0.408:.3f}"

    def test_key_value_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "cost.cfg"
        config.write_text("gpu_cost_per_hour=2.0\n")
        code, _, err = run_cli(capsys, "cost-calc", "--assessments", "75", "--config", str(config))
        assert code == 1 and "error:" in err


class TestSetOverrides:
    """`--set` reads each value as the type of its config field."""

    @staticmethod
    def _config(*overrides):
        argv = ["run-al", "--synthetic", "--out", "unused"]
        for override in overrides:
            argv += ["--set", override]
        return _load_config(build_parser().parse_args(argv))

    def test_str_field_stays_a_string(self):
        config = self._config("scenario=retrain", "initial_checkpoint=5")
        assert config.initial_checkpoint == "5"

    def test_none_for_optional_field(self):
        assert self._config("entropy_pair_depth=None").selection.entropy_pair_depth is None
        assert self._config("entropy_pair_depth=4").selection.entropy_pair_depth == 4

    def test_schedule_takes_comma_separated_ints(self):
        assert self._config("iterations=1", "schedule=3").schedule == (3,)
        assert self._config("iterations=2", "schedule=3,5").schedule == (3, 5)

    def test_float_and_bool_fields(self):
        config = self._config("learning_rate=1", "one_pair_per_query=True")
        assert config.ranker.learning_rate == 1.0 and isinstance(config.ranker.learning_rate, float)
        assert config.selection.one_pair_per_query is True

    @pytest.mark.parametrize(
        "override", ["iterations=abc", "schedule=3,x", "one_pair_per_query=yes", "dim=none"]
    )
    def test_unconvertible_value_names_the_key(self, tmp_path, capsys, override):
        code, _, err = run_cli(
            capsys, "run-al", "--synthetic", "--out", str(tmp_path / "x"), "--set", override,
        )
        key = override.split("=")[0]
        assert code == 1 and err.startswith(f"error: --set {key}=")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        "learning_rate=inf", "learning_rate=nan", "learning_rate=-1", "sigma=-1", "sigma=0",
        "sigma=inf", "assessments_per_hour=nan", "annotator_cost_per_hour=inf",
        "gpu_cost_per_hour=inf", "cpu_cost_per_hour=-inf", "selection_hours_per_iteration=nan",
        "training_hours_per_sample_epoch=inf", "training_hours_per_sample_epoch=-1",
    ])
    def test_rate_that_cannot_train_or_cost_is_one_error_line(self, tmp_path, capsys, override):
        # learning_rate=inf ran to the end with nan weights; nan and inf cost
        # rates gave nan and inf costs
        code, out, err = run_cli(
            capsys, "run-al", "--synthetic", "--profile", "desk", "--out", str(tmp_path / "x"),
            "--set", override,
        )
        key = override.split("=")[0]
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "x").exists()

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "run-al", "--synthetic", "--out", str(out),
        "--strategy", "random", "--iterations", "2", "--batch", "5",
        "--seed", "0", *SMALL_RANKER,
    ])
    assert code == 0
    return out


class TestRunAl:
    def test_artifacts(self, run_dir):
        for name in ("config.json", "data.json", "assessments.csv",
                      "iter_0001.json", "iter_0002.json",
                      "iter_0001.ckpt", "iter_0002.ckpt"):
            assert (run_dir / name).exists(), name
        reports = run_dir / "reports"
        assert (reports / "results.csv").exists()
        assert (reports / "summary.csv").exists()

    def test_results_rows(self, run_dir):
        lines = (run_dir / "reports" / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 iterations

    def test_resume_is_noop_when_complete(self, run_dir, capsys):
        before = (run_dir / "reports" / "results.csv").read_bytes()
        code, out, _ = run_cli(capsys, "resume", "--out", str(run_dir))
        assert code == 0
        assert (run_dir / "reports" / "results.csv").read_bytes() == before

    def test_report_regenerates(self, run_dir, capsys):
        code, out, _ = run_cli(capsys, "report", "--in", str(run_dir))
        assert code == 0
        assert "strategy=random" in out

    def test_rerun_into_fresh_dir_identical(self, run_dir, tmp_path, capsys):
        out2 = tmp_path / "run2"
        argv = [
            "run-al", "--synthetic", "--out", str(out2),
            "--strategy", "random", "--iterations", "2", "--batch", "5",
            "--seed", "0", *SMALL_RANKER,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert (out2 / "reports" / "results.csv").read_bytes() == (
            run_dir / "reports" / "results.csv"
        ).read_bytes()
        assert (out2 / "iter_0002.ckpt").read_bytes() == (
            run_dir / "iter_0002.ckpt"
        ).read_bytes()

    def test_missing_data_args(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run-al", "--out", str(tmp_path / "x"), "--strategy", "random"
        )
        assert code == 1 and "missing required path" in err

    def test_bad_override(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run-al", "--synthetic", "--out", str(tmp_path / "x"),
            "--set", "notakey",
        )
        assert code == 1 and "key=value" in err


class Interrupted(Exception):
    """Stands in for a kill of the process."""


class TestRunDirectory:
    def test_resume_after_kill_equals_uninterrupted_bytes(self, tmp_path, monkeypatch, capsys):
        argv = [
            "run-al", "--synthetic", "--strategy", "uncertainty", "--iterations", "3",
            "--batch", "5", "--seed", "0", *SMALL_RANKER,
        ]
        full, killed = tmp_path / "full", tmp_path / "killed"
        assert main(argv + ["--out", str(full)]) == 0

        branch = Experiment._evaluation_branch

        # keyed on the iteration, not on a call count: earlier iterations'
        # branches may run in a forked worker, whose calls this process never sees
        def evaluate_until_third(self, i, triplets, sel_state):
            if i == 3:
                raise Interrupted
            return branch(self, i, triplets, sel_state)

        monkeypatch.setattr(Experiment, "_evaluation_branch", evaluate_until_third)
        with pytest.raises(Interrupted):
            main(argv + ["--out", str(killed)])
        monkeypatch.undo()
        assert sorted(p.name for p in killed.glob("iter_*")) == [
            "iter_0001.ckpt", "iter_0001.json", "iter_0002.ckpt", "iter_0002.json",
        ]

        code, _, err = run_cli(capsys, "resume", "--out", str(killed))
        assert code == 0, err
        assert run_files(killed) == run_files(full)

    @pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
    def test_resume_reads_each_iteration_file_once(self, run_copy, monkeypatch, capsys, cut):
        if cut:
            for name in ("iter_0002.json", "iter_0002.ckpt"):
                (run_copy / name).unlink()
        loads, reads = [], Counter()
        load_run, read_text = experiment.load_run, Path.read_text

        def counting_load_run(run_dir):
            loads.append(run_dir)
            return load_run(run_dir)

        def counting_read_text(self, *args, **kwargs):
            reads[self.name] += 1
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(experiment, "load_run", counting_load_run)
        monkeypatch.setattr(Path, "read_text", counting_read_text)
        code, _, err = run_cli(capsys, "resume", "--out", str(run_copy))
        monkeypatch.undo()
        assert code == 0, err
        assert len(loads) == 1
        read_json = {name: n for name, n in reads.items() if name.endswith(".json")}
        persisted = ["iter_0001.json"] if cut else ["iter_0001.json", "iter_0002.json"]
        assert read_json == dict.fromkeys(["config.json", "data.json", *persisted], 1)

    def test_evaluation_error_is_reported(self, tmp_path, monkeypatch, capsys):
        """A ValueError from iteration 1's evaluation branch, which runs in the
        worker given two CPUs, reaches `main` with its type and message."""
        branch = Experiment._evaluation_branch

        def failing_first(self, i, triplets, sel_state):
            if i == 1:
                raise ValueError("no test query has candidates")
            return branch(self, i, triplets, sel_state)

        monkeypatch.setattr(Experiment, "_evaluation_branch", failing_first)
        code, _, err = run_cli(
            capsys, "run-al", "--synthetic", "--strategy", "random", "--iterations", "2",
            "--batch", "5", *SMALL_RANKER, "--out", str(tmp_path),
        )
        assert code == 1
        assert err == "error: no test query has candidates\n"
        assert not list(tmp_path.glob("iter_*"))

    def test_rerun_into_used_dir_replaces_earlier_run(self, tmp_path, capsys):
        argv = ["run-al", "--synthetic", "--strategy", "random", "--batch", "5", *SMALL_RANKER]
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(argv + ["--iterations", "4", "--seed", "0", "--out", str(used)]) == 0
        for out in (used, fresh):
            assert main(argv + ["--iterations", "2", "--seed", "7", "--out", str(out)]) == 0
        assert sorted(p.name for p in used.glob("iter_*")) == [
            "iter_0001.ckpt", "iter_0001.json", "iter_0002.ckpt", "iter_0002.json",
        ]
        capsys.readouterr()

        reports = [run_cli(capsys, "report", "--in", str(out)) for out in (used, fresh)]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0
        assert run_files(used) == run_files(fresh)

    def test_rerun_killed_in_first_iteration_leaves_no_earlier_outputs(
        self, tmp_path, monkeypatch
    ):
        argv = [
            "run-al", "--synthetic", "--strategy", "random", "--iterations", "2",
            "--batch", "5", *SMALL_RANKER, "--out", str(tmp_path),
        ]
        assert main(argv + ["--seed", "0"]) == 0
        assert (tmp_path / "assessments.csv").exists()
        assert (tmp_path / "reports" / "results.csv").exists()

        def killed(self, state):
            raise Interrupted

        monkeypatch.setattr(Experiment, "evaluate", killed)
        with pytest.raises(Interrupted):
            main(argv + ["--seed", "7"])
        assert json.loads((tmp_path / "config.json").read_text())["master_seed"] == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.json"]

    def test_run_into_a_run_al_dir_leaves_no_earlier_data(self, tmp_path, capsys):
        """`Experiment.run()` into a directory run-al used deletes its
        data.json too, so resume cannot rebuild the earlier run's data and
        mix it with this run's iterations."""
        argv = ["run-al", "--synthetic", "--synthetic-seed", "0", "--strategy", "random",
                "--iterations", "2", "--batch", "5", "--seed", "0", *SMALL_RANKER]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        config, _, _ = load_run(tmp_path)
        seed_5 = experiment.bundle_from_provenance({"kind": "synthetic", "seed": 5}, config)
        Experiment(config, seed_5, tmp_path).run()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "iter_0001.ckpt", "iter_0001.json", "iter_0002.ckpt", "iter_0002.json",
        ]
        for name in ("iter_0002.json", "iter_0002.ckpt"):
            (tmp_path / name).unlink()
        capsys.readouterr()
        code, out, err = run_cli(capsys, "resume", "--out", str(tmp_path))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ") and "data.json" in err
        assert not (tmp_path / "iter_0002.json").exists()

    def test_resume_from_legacy_checkpoints_equals_uninterrupted_bytes(
        self, tmp_path, capsys, write_legacy_checkpoint
    ):
        """A run directory cut after iteration 2 whose checkpoints have the
        layout of before a state was one array (a named array, a step and a
        config fingerprint) resumes to the uninterrupted run's bytes."""
        argv = [
            "run-al", "--synthetic", "--strategy", "uncertainty", "--iterations", "3",
            "--batch", "5", "--seed", "0", *SMALL_RANKER,
        ]
        full = tmp_path / "full"
        assert main(argv + ["--out", str(full)]) == 0
        cut = Path(shutil.copytree(full, tmp_path / "cut"))
        for name in ("iter_0003.json", "iter_0003.ckpt", "assessments.csv"):
            (cut / name).unlink()
        shutil.rmtree(cut / "reports")
        config = load_run(full)[0].ranker
        legacy = ["iter_0001.ckpt", "iter_0002.ckpt"]
        for step, name in enumerate(legacy, start=1):
            write_legacy_checkpoint(cut / name, load_checkpoint(full / name), config, step)
            assert (cut / name).read_bytes() != (full / name).read_bytes()

        code, _, err = run_cli(capsys, "resume", "--out", str(cut))
        assert code == 0, err
        got, want = run_files(cut), run_files(full)
        for name in legacy:
            old, new = load_checkpoint(cut / name, config), load_checkpoint(full / name, config)
            assert old.tobytes() == new.tobytes()
            del got[name], want[name]
        assert got == want

    @pytest.mark.parametrize("schedule", ["5,0", "5,-3"])
    @pytest.mark.parametrize("strategy", ["random", "qbc"])
    def test_schedule_entry_below_one_is_one_error_line(self, tmp_path, capsys, schedule, strategy):
        code, out, err = run_cli(
            capsys, "run-al", "--synthetic", "--iterations", "2", "--profile", "desk",
            "--strategy", strategy, "--set", f"schedule={schedule}", "--out", str(tmp_path / "run"),
        )
        entry = schedule.split(",")[1]
        assert code == 1 and not out
        assert err == f"error: schedule entry 2 is {entry}; each entry must be >= 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("blob", [b"{}", b"[1]", b"{"],
                             ids=["missing-key", "not-an-object", "bad-json"])
    def test_malformed_initial_checkpoint_is_one_error_line(self, tmp_path, capsys, blob):
        ckpt = tmp_path / "start.ckpt"
        ckpt.write_bytes(b"ALRK" + len(blob).to_bytes(4, "little") + blob)
        code, out, err = run_cli(
            capsys, "run-al", "--synthetic", "--scenario", "retrain", "--initial-checkpoint",
            str(ckpt), "--iterations", "1", "--batch", "5", *SMALL_RANKER,
            "--out", str(tmp_path / "run"),
        )
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert err.startswith(f"error: unreadable checkpoint header in {ckpt}: ")
        assert not (tmp_path / "run").exists()

    def test_load_run_returns_the_written_config(self, tiny_bundle, tmp_path):
        config = ExperimentConfig(
            iterations=2,
            schedule=(4, 3),
            selection=SelectionConfig(strategy="diversity", kmeans_max_iters=20),
            ranker=RankerConfig(dim=16, hash_buckets=32, epochs_selection=1, epochs_evaluation=2),
            cost=CostConfig(gpu_cost_per_hour=2.0),
            master_seed=5,
            exhausted_back_to_pool=True,
        )
        states = Experiment(config, tiny_bundle, tmp_path).run()
        loaded, stamp, loaded_states = load_run(tmp_path)
        assert loaded == config
        assert isinstance(loaded.schedule, tuple)
        assert stamp == {"fingerprint": config.fingerprint(), "data_digest": tiny_bundle.digest}
        assert loaded.fingerprint() == config.fingerprint()
        assert [s.to_json() for s in loaded_states] == [s.to_json() for s in states]


@pytest.fixture
def run_copy(run_dir, tmp_path):
    """A copy of the finished run directory, free to be damaged."""
    return Path(shutil.copytree(run_dir, tmp_path / "run"))


def edit_config(run, edit) -> None:
    data = json.loads((run / "config.json").read_text())
    edit(data)
    (run / "config.json").write_text(json.dumps(data))


class TestPersistedConfig:
    """config.json is read with --config's type and key checks: a damaged one
    is one error line naming what is wrong, never a traceback or a summary
    for other settings."""

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(iterations="3"), "'iterations': expected int, got '3'"),
        (lambda d: d["selection"].update(stratgy="qbc"), "unknown config key 'stratgy'"),
        (lambda d: d.update(selection=3), "'selection' is not a JSON object"),
        (lambda d: d["ranker"].update(dim="512"), "'dim': expected int"),
    ], ids=["str-iterations", "misspelt-key", "int-part", "str-dim"])
    @pytest.mark.parametrize("command", ["report", "resume"])
    def test_error_line(self, run_copy, capsys, command, edit, named):
        edit_config(run_copy, edit)
        flag = "--in" if command == "report" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(run_copy))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err

    def test_not_an_object(self, run_copy, capsys):
        (run_copy / "config.json").write_text("[1]")
        code, _, err = run_cli(capsys, "report", "--in", str(run_copy))
        assert code == 1 and err.startswith("error: ") and "expected a JSON object" in err

    def test_missing_key_takes_its_default(self, run_copy, capsys):
        edit_config(run_copy, lambda d: (d.pop("cost"), d["ranker"].pop("sigma")))
        config, _, _ = load_run(run_copy)
        assert config.cost == CostConfig() and config.ranker.sigma == RankerConfig().sigma


class TestMalformedRunFiles:
    """A run file that is no JSON, or an iteration file that holds no
    iteration state, is one error line naming the file."""

    @pytest.mark.parametrize("text", ["{}", "[]", '{"iteration": 2}', "{"],
                             ids=["empty-object", "list", "iteration-only", "bad-json"])
    @pytest.mark.parametrize("command", ["report", "resume"])
    def test_iteration_file(self, run_copy, capsys, command, text):
        path = run_copy / "iter_0002.json"
        path.write_text(text)
        flag = "--in" if command == "report" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(run_copy))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("name, command", [
        ("config.json", "report"), ("config.json", "resume"), ("data.json", "resume"),
    ])
    def test_invalid_json(self, run_copy, capsys, name, command):
        path = run_copy / name
        path.write_text('{"kind": ')
        flag = "--in" if command == "report" else "--out"
        code, out, err = run_cli(capsys, command, flag, str(run_copy))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: Expecting value")


class TestRetiredBiArchitecture:
    """Run files and checkpoints of the deleted bi-encoder are refused with
    one error line that names it."""

    def test_resume_of_a_bi_run(self, run_copy, capsys):
        edit_config(run_copy, lambda d: d["ranker"].update(architecture="bi"))
        code, out, err = run_cli(capsys, "resume", "--out", str(run_copy))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ") and "'bi'" in err

    def test_bi_initial_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "bi.ckpt"
        blob = json.dumps({"version": 1, "architecture": "bi", "shape": [128, 64]}).encode()
        ckpt.write_bytes(b"ALRK" + len(blob).to_bytes(4, "little") + blob + bytes(8 * 128 * 64))
        code, out, err = run_cli(
            capsys, "run-al", "--synthetic", "--scenario", "retrain", "--initial-checkpoint",
            str(ckpt), "--iterations", "1", "--batch", "5", *SMALL_RANKER,
            "--out", str(tmp_path / "run"),
        )
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ") and "'bi'" in err
        assert not (tmp_path / "run").exists()


class TestResumeDataJson:
    @pytest.mark.parametrize("text", [
        '{"kind": "files"}',
        "[1]",
        '{"kind": "synthetic", "seed": "0"}',
        '{"kind": "synthetic", "seed": true}',
        '{"kind": "tsv", "seed": 0}',
    ])
    def test_error_line(self, run_copy, capsys, text):
        (run_copy / "data.json").write_text(text)
        code, out, err = run_cli(capsys, "resume", "--out", str(run_copy))
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "data.json: expected kind 'synthetic' with an int seed" in err


class TestRunVariability:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "var"
        code, printed, _ = run_cli(
            capsys, "run-variability", "--synthetic", "--out", str(out),
            "--sizes", "3,5", "--repeats", "2", "--seed", "0", *SMALL_RANKER,
        )
        assert code == 0
        lines = (out / "variability.csv").read_text().splitlines()
        assert lines[0] == "strategy,size,seed,ndcg10"
        assert len(lines) == 5

    def test_unjudged_train_queries_are_an_error(self, synthetic_dir, tmp_path, capsys):
        """With qrels for the test queries only, no subset yields a triplet."""
        test_ids = {line.split("\t")[0]
                    for line in (synthetic_dir / "queries_test.tsv").read_text().splitlines()}
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(
            line + "\n" for line in (synthetic_dir / "qrels.txt").read_text().splitlines()
            if line.split()[0] in test_ids
        ))
        code, out, err = run_cli(
            capsys, "run-variability", "--corpus", str(synthetic_dir / "corpus.tsv"),
            "--queries", str(synthetic_dir / "queries_train.tsv"),
            "--test-queries", str(synthetic_dir / "queries_test.tsv"), "--qrels", str(qrels),
            "--out", str(tmp_path / "var"), "--sizes", "3", "--repeats", "2", *SMALL_RANKER,
        )
        assert code == 1 and not out
        assert err == "error: no triplets producible for size 3, seed 0\n"


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("build-index", "retrieve", "run-al", "resume", "cost-calc", "report"):
            assert command in out

    def test_config_json_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"iterations": 1, "dim": 32, "hash_buckets": 64,
                                           "epochs_selection": 1, "epochs_evaluation": 1}))
        out = tmp_path / "run"
        code, printed, _ = run_cli(
            capsys, "run-al", "--synthetic", "--out", str(out),
            "--config", str(config_path), "--strategy", "random", "--batch", "3",
        )
        assert code == 0
        persisted = json.loads((out / "config.json").read_text())
        assert persisted["ranker"]["dim"] == 32
        assert persisted["iterations"] == 1
