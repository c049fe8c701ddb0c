"""Record the reference digests the benchmark checks every repetition against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs each workload's loop once per data seed 0 .. REFERENCE_SEEDS-1 (no
persistence, no timing) and merges the digests into perfbench/reference.json.
Record them from a commit whose results are known good; a later commit must
reproduce them exactly (nDCG to 1e-9).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from alrank import experiment  # noqa: E402

from workloads import REFERENCE_SEEDS, WORKLOADS, digest, experiment_config, setup  # noqa: E402


def reference_digest(workload: dict, seed: int) -> dict:
    config = experiment_config(workload, seed)
    return digest(experiment.Experiment(config, setup(workload, seed, config)).run())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    out = HERE / "reference.json"
    references = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        table = references.setdefault(name, {})
        for seed in range(REFERENCE_SEEDS):
            table[str(seed)] = reference_digest(WORKLOADS[name], seed)
            print(f"{name} seed {seed} {table[str(seed)]['sha256'][:12]}", flush=True)
        # written after each workload so an interrupted recording keeps its work
        out.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
