"""Benchmark of the dottrees CLI: four seeded workloads, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

One run starts fresh Python processes: a few set-up probes, which only
import dottrees, generate the workload's inputs and write them, and one
worker, which does the same and then calls ``dottrees.cli.cli_main`` in a
closed loop (one call at a time, stdout captured) for ``--seconds``, timing
a fixed reference loop (``reference.py``) between iterations.
Every call's exit code and answer are checked after the loop.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs untraced and traced calls in turn and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics; a wrong answer shows as ``"correct": false`` and in ``failed``.
A run that cannot start (no ``src/dottrees`` next to this directory) or
cannot finish exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up probes per untraced run, besides the worker itself.  Half run before
# the worker and half after, so that slow drift of the machine's speed during
# a run moves their median less.
PROBES = 8
DEADLINE_S = 170.0  # a run must end within 180 s
UNCOVERED_MAX_S = 0.05  # wall time of a traced call that no span may cover

HAVE_SOURCES = (SRC / "dottrees" / "__init__.py").is_file()
if HAVE_SOURCES:
    sys.path.insert(0, str(SRC))
    import reference
    import workloads
    from dottrees import cli, counting, geometry
    from spans import CALL_METRICS, Tracer


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_table(trace: int) -> dict:
    """Name -> unit of the metrics a run prints."""
    metrics = _spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


# ---------------------------------------------------------------------------
# Worker: one fresh process that sets up a workload and runs it.
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[object, str, float, float]:
    """One CLI call, stdout captured: (exit code, stdout, wall s, CPU s)."""
    buf = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.cli_main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return rc, buf.getvalue(), wall, time.process_time() - cpu


class Runner:
    """Runs a workload's calls and keeps their outputs for the checks."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs = []  # (call, exit code, stdout, JSON report text)
        self.cpu_s = 0.0  # CPU time of every call made, all threads

    def call(self, call) -> float:
        """One CLI call; returns its wall time."""
        gc.collect()
        rc, out, wall, cpu = _run_cli(call.argv)
        self.cpu_s += cpu
        try:
            report = call.json_path.read_text()
            call.json_path.unlink()
        except OSError:
            report = None
        self.outputs.append((call, rc, out, report))
        return wall

    def iteration(self) -> float:
        """Every call of the workload once; returns their summed wall time."""
        return sum(self.call(call) for call in self.workload.calls)

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every call made."""
        workloads.add_recounts(self.workload)
        problems = list(self.workload.problems)
        failed = 0
        for call, rc, out, report in self.outputs:
            found = workloads.check(call, rc, out, report)
            failed += bool(found)
            problems += [f"{call.label}: {p}" for p in found]
        return len(self.outputs), failed, problems


def _decomposed(workload) -> tuple[dict, list[str]]:
    """Layer calls outside the CLI, each checked against the CLI's answer."""
    metrics = {
        "counting.backtrack_s.t1": 0.0, "counting.backtrack_s.t2": 0.0,
        "counting.embeddings": 0, "counting.embeddings_per_s": 0.0,
        "counting.thread_speedup": 0.0, "counting.value_table_s": 0.0,
        "counting.tuples_emitted": 0, "counting.tuples_distinct": 0,
        "counting.tuples_distinct_ratio": 0.0,
    }
    problems: list[str] = []
    ctx = workload.context
    if workload.name == "embed":
        with open(ctx["path"]) as fh:
            points = geometry.read_point_set(fh)
        index = counting.DotProductIndex(points)
        for threads in (1, 2):
            gc.collect()
            start = time.perf_counter()
            count = counting.count_embeddings(ctx["wt"], points, index=index, threads=threads)
            metrics[f"counting.backtrack_s.t{threads}"] = time.perf_counter() - start
            if count != ctx["answer"]:
                problems.append(f"count_embeddings at {threads} threads gave {count}")
        metrics["counting.embeddings"] = ctx["answer"]
        metrics["counting.embeddings_per_s"] = ctx["answer"] / metrics["counting.backtrack_s.t1"]
        metrics["counting.thread_speedup"] = (
            metrics["counting.backtrack_s.t1"] / metrics["counting.backtrack_s.t2"]
        )
    elif workload.name == "tuples":
        with open(ctx["path"]) as fh:
            points = geometry.read_point_set(fh)
        gc.collect()
        start = time.perf_counter()
        summary = counting.distinct_dot_products(points)
        metrics["counting.value_table_s"] = time.perf_counter() - start
        if summary.distinct != ctx["distinct_values"]:
            problems.append(f"distinct_dot_products gave {summary.distinct}")
        n = ctx["n"]
        metrics["counting.tuples_emitted"] = n * (n - 1) * (n - 2)
        metrics["counting.tuples_distinct"] = ctx["answer"]
        metrics["counting.tuples_distinct_ratio"] = ctx["answer"] / metrics["counting.tuples_emitted"]
    return metrics, problems


def _span_problems(call, tracer: Tracer, m: dict, wall: float,
                   report: str | None) -> list[str]:
    """The spans must account for the traced call's wall time and match its
    answer.  One ``cli_main`` span holds all others; only the stdout
    redirection and that span's own wrapper lie outside it."""
    problems = []
    roots = [s.name for s in tracer.spans if s.run == tracer.run and s.parent is None]
    if roots != ["cli"]:
        problems.append(f"root spans are {roots}, not one cli_main span")
    if not 0.0 <= m["trace.uncovered_s"] <= UNCOVERED_MAX_S:
        problems.append(f"spans leave {m['trace.uncovered_s']:.6f} s of the "
                        f"{wall:.6f} s call uncovered")
    if call.label.startswith("proofgraph"):
        try:
            counts = json.loads(report)["counts"]
        except (TypeError, ValueError, KeyError):
            counts = {}
        traced = (m["counting.edges"], m["counting.crossings"])
        if traced != (counts.get("edges"), counts.get("drawing_crossings")):
            problems.append(f"traced edges and crossings {traced} differ from the report")
    return [f"{call.label}: {p}" for p in problems]


def worker(args) -> int:
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(workloads)
        try:
            workload = workloads.build(args.workload, args.seed, args.scale, workdir)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_s = time.monotonic() - args.t0
        if args.role == "probe":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = Runner(workload)
        if tracer is None:
            result = _untraced(args, runner, setup_s)
        else:
            result = _traced(args, runner, tracer)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, runner: Runner, setup_s: float) -> dict:
    """Iterations and reference loops in turn: ref, iteration, ref, ...

    Each iteration's wall time is divided by the mean of the reference
    loops just before and just after it, and ``wall_rel`` is the median of
    these ratios.
    """
    samples, refs, ratios = [], [], []
    ref_before = reference.timed()
    start = time.perf_counter()
    while True:
        wall = runner.iteration()
        ref_after = reference.timed()
        samples.append(wall)
        refs.append(ref_after)
        ratios.append(wall / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        # Start no iteration that would end after --seconds.
        if time.perf_counter() - start + wall + ref_after > args.seconds:
            break
    # Read before the checks, whose recounts would otherwise set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = runner.check()
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_s": setup_s,
        "wall_samples": samples,
        "ref_samples": refs,
        "metrics": {"wall_rel": statistics.median(ratios), "peak_rss_mb": peak_rss_mb},
    }


def _traced(args, runner: Runner, tracer: Tracer) -> dict:
    workload = runner.workload
    per_iteration = []
    problems: list[str] = []
    start = time.perf_counter()
    k = 0
    while True:
        iteration = {}
        untraced = traced = cpu = 0.0
        for call in workload.calls:
            before = runner.cpu_s
            untraced += runner.call(call)
            cpu += runner.cpu_s - before
            # The same call again, traced; its spans share one run id.
            tracer.run = f"{k}:{call.label}"
            tracer.install(workloads)
            try:
                wall = runner.call(call)
            finally:
                tracer.restore()
            traced += wall
            m = tracer.decompose(tracer.run)
            m["trace.uncovered_s"] = wall - sum(m[key] for key in set(CALL_METRICS.values()))
            problems += _span_problems(call, tracer, m, wall, runner.outputs[-1][3])
            for key, value in m.items():
                iteration[key] = iteration.get(key, 0) + value
        decomposed, found = _decomposed(workload)
        problems += found
        iteration.update(decomposed)
        iteration["trace.call_s"] = traced
        iteration["trace.untraced_s"] = untraced
        iteration["trace.overhead_s"] = traced - untraced
        iteration["proc.cpu_s"] = cpu
        iteration["proc.cpu_util"] = cpu / untraced
        iteration["counting.crossing_ratio"] = (
            iteration["counting.crossings"] / iteration["counting.segment_pairs"]
            if iteration["counting.segment_pairs"] else 0.0
        )
        per_iteration.append(iteration)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > args.seconds:
            break
    attempted, failed, found = runner.check()
    problems += found
    # median_low: each value is one iteration's measurement.
    metrics = {key: statistics.median_low(it[key] for it in per_iteration)
               for key in per_iteration[0]}
    metrics.update(tracer.setup_metrics())
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "iterations": len(per_iteration),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Orchestrator: probes, worker, result line.
# ---------------------------------------------------------------------------


def _child(args, role: str, deadline: float) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]
    # CLOCK_MONOTONIC is one clock for every process on the machine, so the
    # child can measure its own set-up from just before it was started.
    proc = subprocess.Popen(argv + ["--t0", repr(time.monotonic())],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} did not finish within the run's deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RuntimeError(f"{role} printed no result") from None


def orchestrate(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    table = _metric_table(args.trace)
    probes = 0 if args.trace else PROBES // 2
    setup = [_child(args, "probe", deadline)["setup_s"] for _ in range(probes)]
    result = _child(args, "worker", deadline)
    setup += [_child(args, "probe", deadline)["setup_s"] for _ in range(probes)]
    metrics = dict(result["metrics"])
    problems = list(result["problems"])
    if not args.trace:
        setup.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setup)
    missing = sorted(set(table) - set(metrics))
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    attempted, failed = result["attempted"], result["failed"]
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    print(f"operations attempted {attempted} failed {failed} "
          f"fail_frac {failed / attempted:.4f}")
    if not args.trace:
        samples = sorted(result["wall_samples"])
        print(f"wall_rel is the median over {len(samples)} iterations of the wall time "
              f"over the reference loop's around it")
        print(f"iteration wall s: median {statistics.median(samples):.4f}, fastest "
              f"{samples[0]:.4f}: " + " ".join(f"{s:.4f}" for s in result["wall_samples"]))
        # The highest percentile with at least ten samples beyond it.
        k = len(samples) - 11
        if k > len(samples) // 2:
            print(f"iteration wall s p{100 * (k + 1) // len(samples)} = {samples[k]:.4f}, "
                  f"with {len(samples) - 1 - k} samples beyond it")
        print(f"reference loop wall s: median {statistics.median(result['ref_samples']):.4f}")
        print(f"setup_s is the median of {len(setup)} processes: "
              + " ".join(f"{s:.4f}" for s in setup))
    else:
        print(f"per-layer values are medians of {result['iterations']} traced iterations")
    for name, unit in table.items():
        print(f"  {name} = {metrics.get(name)} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table.items() if name in metrics},
    }))
    return 0


def self_check() -> int:
    """Every workload once at reduced size, untraced and traced."""
    seed = workloads.DEFAULT_SEED
    ok = True
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                    "--scale", "reduced"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=DEADLINE_S)
            lines = proc.stdout.strip().splitlines()
            passed = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            ok = ok and passed
            print(f"{'ok  ' if passed else 'FAIL'} {name} trace {trace}")
            if not passed:
                print(proc.stdout + proc.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "reduced"), default="full")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at reduced size and check it")
    parser.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not HAVE_SOURCES:
        print(f"error: no dottrees sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload not in workloads.NAMES or args.seed is None:
        parser.error(f"give --workload ({', '.join(workloads.NAMES)}) and --seed")
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.role is not None:
        return worker(args)
    try:
        return orchestrate(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
