import json
from dataclasses import fields

import pytest

from alrank.budget import CostConfig
from alrank.cli import DESK_PROFILE, _load_config, build_parser, config_from_dict, main
from alrank.experiment import Experiment, ExperimentConfig, load_run
from alrank.ranker import RankerConfig
from alrank.selection import SelectionConfig

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
        loaded, fingerprint, loaded_states = load_run(tmp_path)
        assert loaded == config
        assert isinstance(loaded.schedule, tuple)
        assert fingerprint == config.fingerprint() == loaded.fingerprint()
        assert [s.to_json() for s in loaded_states] == [s.to_json() for s in states]


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
