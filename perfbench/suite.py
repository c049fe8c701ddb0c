"""Run the benchmark over several seeds and workloads, summarise and optionally record.

    python3 perfbench/suite.py [--workload NAME ...] [--seeds 10] [--first-seed 0]
                               [--traced] [--record perfbench/results/BENCH_x.json]

Each (seed, workload) pair is one `run.py --trace 0` run of BENCHMARK.json's
run_seconds, seeds in the outer loop so that slow periods of the machine touch
every workload. For each end-to-end metric the table gives the median over
seeds, the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound. With --traced one more traced run
per workload (first seed) adds the per-layer metrics. --record writes every
run's result, raw samples and environment to a JSON file. Exits 1 when any run
failed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("env ", "samples "))}
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "result": result, **tagged, "stderr_tail": proc.stderr.strip()[-1500:]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs: list[dict] = []
    for seed in seeds:
        for name in names:
            runs.append(bench_run(name, seed, spec["run_seconds"], 0))
            r = runs[-1]["result"] or {}
            values = {k: round(m["value"], 4) for k, m in r.get("metrics", {}).items()}
            print(f"{name} seed {seed} exit {runs[-1]['exit']} {values}", file=sys.stderr)
    if args.traced:
        for name in names:
            runs.append(bench_run(name, args.first_seed, spec["run_seconds"], 1))
            print(f"{name} traced exit {runs[-1]['exit']}", file=sys.stderr)

    summary: dict = {}
    ok = all(run["exit"] == 0 for run in runs)
    for name in names:
        mine = [run for run in runs if run["workload"] == name and run["result"]]
        attempted = sum(run["result"]["attempted"] for run in mine)
        failed = sum(run["result"]["failed"] for run in mine)
        entry = {"error_rate": failed / attempted if attempted else 1.0, "metrics": {}}
        timed = [run for run in mine if run["trace"] == 0 and run["result"]["correct"]]
        print(f"\n{name}: {len(timed)} runs, error_rate {entry['error_rate']:.4g} "
              f"({failed} failed of {attempted} attempted)")
        print(f"  {'metric':<14} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in timed]
            if len(values) < 2:
                continue
            stats = {**spread(values), "bound": metric["bound"], "values": values}
            entry["metrics"][metric["name"]] = stats
            print(f"  {metric['name']:<14} {metric['unit']:<6} {stats['median']:>10.4f} "
                  f"{stats['q1']:>10.4f} {stats['q3']:>10.4f} {stats['spread']:>7.3f} "
                  f"{metric['bound']:>6.2f}")
        traced = [run for run in mine if run["trace"] == 1 and run["result"]["correct"]]
        if traced:
            layer = {k: m["value"] for k, m in traced[0]["result"]["metrics"].items()}
            entry["per_layer"] = layer
            top = sorted(((k, v) for k, v in layer.items() if k.endswith("_s")),
                         key=lambda kv: -kv[1])[:6]
            print("  traced: " + ", ".join(f"{k} {v:.3f}s" for k, v in top)
                  + f", overhead {layer['trace.overhead_ratio']:.3f}x")
        summary[name] = entry

    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "label": args.label,
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "summary": summary,
            "runs": runs,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
