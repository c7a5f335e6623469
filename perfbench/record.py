"""Run every workload over several seeds and record the numbers.

Usage, from the root of a checkout:

    python3 perfbench/record.py
    python3 perfbench/record.py --write perfbench/baseline.json

Each run is one ``run.py`` process at BENCHMARK.json's ``run_seconds``, on
every workload and seeds 1-10.  For every end-to-end metric this prints the
median of the per-seed values, the quartiles and the spread
(q3 - q1) / median next to the metric's bound, and whether each run's answers
were correct.  One traced run per workload at the default seed adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=200)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result, elapsed


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, help="write the numbers to this JSON file")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "default_seed": workloads.DEFAULT_SEED,
        "workloads": {},
    }
    all_correct = True
    for name in NAMES:
        per_seed = []
        for seed in SEEDS:
            result, elapsed = run_once(name, seed, 0)
            all_correct = all_correct and result["correct"]
            per_seed.append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{values} ({elapsed:.1f} s)", flush=True)
        entry = {"attempted": sum(r["attempted"] for r in per_seed),
                 "failed": sum(r["failed"] for r in per_seed),
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in per_seed])
            stats["unit"] = per_seed[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            verdict = "steady" if stats["spread"] < bound / 3 else (
                "within bound" if stats["spread"] <= bound else "TOO WIDE")
            print(f"  {name} {metric}: median {stats['median']:.4f} {stats['unit']} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['spread']:.3f} "
                  f"bound {bound} {verdict}", flush=True)
        result, elapsed = run_once(name, workloads.DEFAULT_SEED, 1)
        all_correct = all_correct and result["correct"]
        entry["per_layer"] = result["metrics"]
        print(f"{name} traced seed {workloads.DEFAULT_SEED}: correct={result['correct']} "
              f"({elapsed:.1f} s)", flush=True)
        for metric, value in result["metrics"].items():
            print(f"  {name} {metric} = {value['value']:.6g} {value['unit']}")
        record["workloads"][name] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.write}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
