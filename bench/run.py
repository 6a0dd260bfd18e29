"""sgwaves benchmark: one seeded workload, closed loop, one client, one thread.

    python3 bench/run.py --workload kink_ensemble --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from a traced pass
over the seed's first tasks.  A full record (machine, versions, raw
counts) goes to bench/out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["SGW_LOG"] = "quiet"

import numpy as np  # noqa: E402  (after the thread pins)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("kink_ensemble", "front_scan", "oracle_sweep")
SETUP_SAMPLES = 5     # this process plus four fresh ones
MIN_TASKS = 100       # so that ten latency samples lie beyond p90
MAX_MEASURE_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p90_ms": "ms",
                    "peak_rss_mb": "MB"}


def setup(name: str, seed: int):
    """Import sgwaves, make the seed's tasks and run one warm-up task.

    Returns (seconds taken, workload, tasks); numpy is already imported.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name]()
    tasks = workload.make_tasks(seed)
    workload.check(tasks[0], workload.run(tasks[0]))
    return time.perf_counter() - start, workload, tasks


def fresh_setup_seconds(name: str, seed: int) -> float:
    """setup() in a new interpreter, so the import is paid again."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"print(run.setup({name!r}, {seed})[0])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_task(workload, task) -> tuple[float, bool]:
    """Run and check one task; returns (latency of the program's work, passed)."""
    start = time.perf_counter()
    try:
        output = workload.run(task)
        latency = time.perf_counter() - start
        workload.check(task, output)
        return latency, True
    except Exception:  # a task that raises or misses its check counts as failed
        latency = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return latency, False


def closed_loop(workload, tasks, seconds: float):
    """Run tasks back to back for `seconds` (and at least MIN_TASKS of them)."""
    latencies, failed = [], 0
    start = time.perf_counter()
    while True:
        latency, ok = run_task(workload, tasks[len(latencies) % len(tasks)])
        latencies.append(latency)
        failed += not ok
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_TASKS) or elapsed >= MAX_MEASURE_S:
            return np.array(latencies), failed, elapsed


def one_pass(workload, tasks, tracer=None):
    """Run each task once; returns (tasks per second, failures)."""
    failed = 0
    start = time.perf_counter()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        failed += not run_task(workload, task)[1]
    return len(tasks) / (time.perf_counter() - start), failed


def environment(seed: int) -> dict:
    # the ceiling keeps git from searching above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, env=env,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        commit, dirty = "unknown", None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "dirty": dirty, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "seed": seed, "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, workload, tasks = setup(name, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        import tracing

        subset = tasks[:workload.traced_tasks]
        untraced_tps, failed_plain = one_pass(workload, subset)
        tracer = tracing.Tracer()
        with tracer:
            traced_tps, failed_traced = one_pass(workload, subset, tracer)
        metrics = tracing.layer_metrics(tracer, untraced_tps, traced_tps)
        spans_file = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write_spans(spans_file)
        record.update(attempted=2 * len(subset), failed=failed_plain + failed_traced,
                      counts=dict(sorted(tracer.counts.items())), spans=str(spans_file))
    else:
        setups = [setup_s] + [fresh_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        latencies, failed, elapsed = closed_loop(workload, tasks, seconds)
        values = {
            "setup_s": float(np.median(setups)),
            "tasks_per_s": latencies.size / elapsed,
            "task_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}
        # printed and recorded, but not bounded: see "Steadiness" in README.md
        record["task_p50_ms"] = 1e3 * float(np.percentile(latencies, 50))
        record.update(attempted=int(latencies.size), failed=failed, task_samples=int(latencies.size),
                      setup_samples_s=setups)
    record["metrics"] = {key: {"value": float(v), "unit": u} for key, (v, u) in metrics.items()}
    record["environment"] = environment(seed)
    return record


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sgwaves" / "__init__.py").is_file():
        print(f"sgwaves sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    OUT_DIR.mkdir(exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed, attempted = record["failed"], record["attempted"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} tasks, "
          f"record in {out_file.relative_to(ROOT)}")
    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    if "task_p50_ms" in record:
        print(f"task_p50_ms = {record['task_p50_ms']:.6g} ms")
    print(f"error_rate = {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
