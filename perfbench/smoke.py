"""Smoke test of the benchmark itself, on tiny bundles (a few seconds in total).

    python3 perfbench/smoke.py

Exercises the three code paths of the workloads (qbc/cross, diversity/cross,
uncertainty/maxsim with resume), traced and untraced, and checks that a
corrupted reference digest is reported as failed with a non-zero exit and that
the benchmark refuses to run without the alrank source. Exits 0 when all pass.
It is not named test_*.py, so the repository's pytest run does not collect it.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from record_reference import reference_digest  # noqa: E402

TINY = {
    "tiny-qbc": {"spec": {"topics": 3}, "strategy": "qbc", "architecture": "cross",
                 "iterations": 3, "batch": 5},
    "tiny-diversity": {"spec": {"topics": 3}, "strategy": "diversity", "architecture": "cross",
                       "iterations": 3, "batch": 5},
    "tiny-uncertainty-maxsim": {"spec": {"topics": 3}, "strategy": "uncertainty",
                                "architecture": "maxsim", "iterations": 3, "batch": 5},
}
SMOKE_DIR = run.WORK / "smoke"


def bench(name: str, references: dict, trace: int = 0) -> tuple[int, dict]:
    argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv, TINY, references)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    good = {name: {"0": reference_digest(wl, 0)} for name, wl in TINY.items()}

    for name in TINY:
        code, result = bench(name, good)
        assert code == 0 and result["correct"] and result["failed"] == 0, (name, result)
        assert set(result["metrics"]) == end_to_end, result["metrics"]
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]

        code, result = bench(name, good, trace=1)
        assert code == 0 and result["correct"], (name, result)
        assert set(result["metrics"]) == per_layer, set(result["metrics"]) ^ per_layer
        layer = {k: m["value"] for k, m in result["metrics"].items()}
        assert layer["ranker.train_calls"] > 0 and layer["annotation.annotate_calls"] > 0, layer
        assert layer["ranker.checkpoint_bytes"] > 0 and layer["trace.overhead_ratio"] > 0, layer
        assert (layer["selection.vote_entropy_calls"] > 0) == (name == "tiny-qbc"), layer
        assert (layer["selection.kmeans_s"] > 0) == (name == "tiny-diversity"), layer
        assert (layer["ranker.cross_features_calls"] > 0) == (name != "tiny-uncertainty-maxsim")
        print(f"ok {name}")

    corrupted = copy.deepcopy(good)
    corrupted["tiny-qbc"]["0"]["sha256"] = "0" * 64
    code, result = bench("tiny-qbc", corrupted)
    assert code != 0 and not result["correct"], result
    assert result["failed"] / result["attempted"] > 0, result
    print("ok corrupted reference fails")

    bare = SMOKE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-qbc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses to run without the source")

    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
