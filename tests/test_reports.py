"""The bytes of every CSV the package writes, pinned by sha256 for fixed inputs."""

import hashlib

from alrank.annotation import AnnotationRecord
from alrank.cli import main
from alrank.datamodel import TrainingTriplet
from alrank.evaluation import emit_reports
from alrank.experiment import ExperimentConfig, IterationState, report_rows, write_run_outputs
from alrank.selection import SelectionConfig


def _states(seed: int = 0) -> list[IterationState]:
    states, triplets = [], []
    hours = (0.1, 0.2, 0.3)  # cumulative 0.1, 0.30000000000000004, 0.6000000000000001
    assessments = (7, 12, 21)
    for i in (1, 2, 3):
        triplets = triplets + [TrainingTriplet(f"q{i}", f"p{i}", f"n{i}")]
        records = [
            AnnotationRecord(i, f"q{i}", "triplet", assessments[i - 1] - 1, f"p{i}", f"n{i}"),
            AnnotationRecord(i, f"x{i}", "skipped", 1),
        ]
        states.append(IterationState(
            iteration=i,
            selected=[f"q{i}", f"x{i}"],
            pool=[],
            triplets=list(triplets),
            records=records,
            assessments_cumulative=sum(assessments[:i]),
            ndcg10=(i + 0.1 * seed) / 7,
            training_hours=hours[i - 1],
            selection_hours=0.05 if i > 1 else 0.0,
            checkpoint_name=f"iter_{i:04d}.ckpt",
        ))
    return states


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCsvBytesPinned:
    def test_reports(self, tmp_path):
        rows = []
        for strategy, seed in (("random", 0), ("qbc", 1), ("random", 2)):
            config = ExperimentConfig(selection=SelectionConfig(strategy=strategy))
            rows += report_rows(config, _states(seed), seed_label=seed)
        variability = [
            {"strategy": "random", "size": 10, "seed": rep, "ndcg10": 0.1 * (rep + 1), "n_triplets": 9}
            for rep in range(3)
        ]
        written = emit_reports(rows, tmp_path, variability=variability)
        assert {name: _sha(path) for name, path in written.items()} == {
            "results": "0ce9122ec58080e3cc4e8f08fd11bd5cd2f0c2469aa590f40c082385e40d5513",
            "fig_cost_stacked": "59155104c7b083289ca4cebf0606348487098cb4022c7ae57126ee1a9b942fc7",
            "fig_ndcg_vs_assessments": "45609f5adf3a5084b05e55ee423b8799f759c601a09304eeb47881c737658b36",
            "summary": "4b3d324be054695cdba53e6441a2c9d464b136558abe0c10270618fde8f79ea0",
            "variability": "ad7d36f3c9452b38e3c469d70d8fec26a0891cad5563783513f06b87a18a8fea",
        }

    def test_assessment_ledger(self, tmp_path):
        write_run_outputs(ExperimentConfig(), _states(), tmp_path)
        assert _sha(tmp_path / "assessments.csv") == (
            "213c13d94b28035a5395c6d241f3324c1d889fddbb34d018ed7088252062ab10"
        )

    def test_cost_calc(self, tmp_path, capsys):
        write_run_outputs(ExperimentConfig(), _states(), tmp_path)
        (tmp_path / "config.json").write_text('{"gpu_cost_per_hour": 2.5}')
        code = main([
            "cost-calc", "--ledger", str(tmp_path / "assessments.csv"),
            "--gpu-hours", "0.1,0.2,0.3", "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "cost.csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert _sha(tmp_path / "cost.csv") == (
            "2f82ca9dd912916bc09ddf216bd0474fc814638bec76e8452666053d5f4f605a"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "462e822e91c359817c32df1cf46bbcc643b8a300c80e8dd1e794ec0ea23ba952"
        )
