"""Benchmark of the alrank active-learning loop.

    python3 perfbench/run.py --workload desk-qbc --seed 0 --seconds 60 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client: each
repetition is a fresh single-threaded interpreter (worker.py) that sets up the
synthetic bundle, runs Experiment.run() plus report emission, then deletes the
final iteration and times Experiment.resume() (set-up and resume are repeated
within a repetition while they are short; see worker.py). Repetitions start
while the next one is expected to finish within --seconds; there is always at
least one.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json
(medians over repetitions); with --trace 1 each repetition is an untraced and
a traced pair, and the result carries the per-layer metrics of the traced runs
plus the tracing overhead. Every repetition checks its outputs against the
reference digest of its data seed and checks that resume reproduces the final
iteration; any failure makes the exit code 1. The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
# Leaves room under the 180 s limit of one benchmark run for the parent.
DEADLINE_S = 170.0
CHECKS_PER_REPETITION = 3  # reference digest, resume equality, report rows

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_repetition(job: dict, timeout: float) -> dict:
    env = {**os.environ, **SINGLE_THREAD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def tally(rep: dict, iterations: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): the loop's iterations plus the checks."""
    attempted = iterations + CHECKS_PER_REPETITION
    if "error" in rep:
        return attempted, attempted, [rep["error"]]
    problems = [f"{name}: {msg}" for name, msgs in rep["checks"].items() for msg in msgs]
    failed = sum(1 for msgs in rep["checks"].values() if msgs)
    failed += iterations - rep["iterations"]
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "setup_s": median([s for rep in untraced for s in rep["setup_s"]]),
        "loop_s": median([rep["loop_s"] for rep in untraced]),
        "resume_s": median([s for rep in untraced for s in rep["resume_s"]]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in untraced]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["per_layer"]
    metrics = {name: median([rep["per_layer"][name] for rep in traced]) for name in names}
    metrics["trace.overhead_ratio"] = (
        median([rep["loop_s"] for rep in traced]) / median([rep["loop_s"] for rep in untraced])
    )
    return metrics


def span_table(rep: dict) -> list[str]:
    rows = sorted(rep["span_totals"].items(), key=lambda kv: -kv[1]["seconds"])
    lines = [f"{'span':<28} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
    for name, agg in rows:
        lines.append(
            f"{name:<28} {agg['calls']:>7} {agg['seconds']:>9.3f} {agg['self_seconds']:>9.3f}"
        )
    return lines


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS,
         references: dict | None = None) -> int:
    """Run the benchmark; `workloads` and `references` (reference digests by
    workload and data seed, default reference.json) are replaceable for tests."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alrank").is_dir():
        print(f"error: no alrank source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workload = workloads[args.workload]
    data_seed = args.seed % REFERENCE_SEEDS
    if references is None:
        references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference = references.get(args.workload, {}).get(str(data_seed))

    run_tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    while True:
        modes = (False, True) if args.trace else (False,)
        for trace in modes:
            n = len(untraced) + len(traced)
            job = {
                "workload": workload, "seed": data_seed, "reference": reference,
                "work_dir": str(WORK / run_tag / f"rep{n}"), "trace": trace,
                "trace_id": f"{run_tag}-rep{n}",
            }
            rep = run_repetition(job, max(1.0, DEADLINE_S - (perf_counter() - start)))
            if not trace:
                shutil.rmtree(job["work_dir"], ignore_errors=True)
            a, f, msgs = tally(rep, workload["iterations"])
            attempted, failed = attempted + a, failed + f
            problems += msgs
            if "error" in rep:
                break
            (traced if trace else untraced).append(rep)
            print(f"rep {n} trace={int(trace)} setup_s={median(rep['setup_s']):.4f} "
                  f"loop_s={rep['loop_s']:.4f} resume_s={median(rep['resume_s']):.4f} "
                  f"peak_rss_mb={rep['peak_rss_mb']:.1f}", file=sys.stderr)
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if problems or elapsed + elapsed / max(rounds, 1) > args.seconds:
            break

    if not args.trace:
        shutil.rmtree(WORK / run_tag, ignore_errors=True)
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    metrics = {}
    if correct:
        values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in reported}
    print("env " + json.dumps({
        "workload": args.workload, "params": workload, "seed": args.seed,
        "data_seed": data_seed, "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(untraced), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": untraced[0]["numpy"] if untraced else None,
        "threads_env": SINGLE_THREAD_ENV,
    }, sort_keys=True))
    print("samples " + json.dumps({
        "setup_s": [rep["setup_s"] for rep in untraced],
        "loop_s": [rep["loop_s"] for rep in untraced],
        "resume_s": [rep["resume_s"] for rep in untraced],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        "traced_loop_s": [rep["loop_s"] for rep in traced],
    }))
    if traced:
        print(f"spans written to {WORK / run_tag}/rep*/spans.jsonl")
        print("\n".join(span_table(traced[0])))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
