"""Run the qmarkoff benchmark over several seeds and print every metric.

Usage (from the root of a source checkout):

    python3 perfbench/report.py [--runs 10] [--workloads NAME ...] [--trace]
                                [--write-baseline] [--record-digests]

For each workload this runs ``perfbench/run.py`` once per seed (seeds
1..runs, ``run_seconds`` from BENCHMARK.json) and prints, per end-to-end
metric, the median over the runs, the quartiles, and the spread (distance
between the quartiles as a share of the median) against the metric's bound,
plus ``failed_share``, the failed runs over the attempted ones.  ``--trace``
adds one traced run per workload and prints the per-layer metrics.

``--write-baseline`` stores the figures in ``perfbench/baseline.json``.
``--record-digests`` re-records the stdout digests the correctness gate
compares against, including those of the ``--jobs 1`` form of each
``--jobs 2`` workload; outputs are byte-identical for every ``--jobs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import checks
import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def record_digests(baseline: dict) -> None:
    for name, workload in checks.WORKLOADS.items():
        digests = {}
        argv = workload.command(checks.DEFAULT_SEED)
        digests["sha256"] = hashlib.sha256(run.spawn(argv).stdout).hexdigest()
        if "--jobs" in argv:
            jobs1 = run.spawn(workload.command(checks.DEFAULT_SEED, jobs="1")).stdout
            digests["sha256_jobs1"] = hashlib.sha256(jobs1).hexdigest()
        baseline["workloads"][name]["digests"] = digests
        print(f"{name}: {digests}")


def save_baseline(baseline: dict, spec: dict, runs: int) -> None:
    baseline["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()}
    baseline["run_seconds"] = spec["run_seconds"]
    baseline["runs"] = runs
    checks.BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=sorted(checks.WORKLOADS),
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    baseline = checks.load_baseline()
    if args.record_digests:
        record_digests(baseline)
        save_baseline(baseline, spec, args.runs)
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workloads or [w["name"] for w in spec["workloads"]]:
        results = [run_once(name, seed, spec["run_seconds"], False)
                   for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{name}: {args.runs} runs of {spec['run_seconds']} s, "
              f"{attempted} commands, failed_share {failed / attempted:g}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        figures = {}
        for metric, bound in bounds.items():
            unit = results[0]["metrics"][metric]["unit"]
            med, q1, q3, share = spread([r["metrics"][metric]["value"] for r in results])
            flag = "" if metric == "setup_s" or share < bound / 3 else "  > bound/3"
            print(f"  {metric:<14} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.4f} {bound:>6}{flag}")
            figures[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3}
        entry = baseline["workloads"][name]
        entry["end_to_end"] = figures
        entry["failed_share"] = failed / attempted
        if args.trace:
            traced = run_once(name, checks.DEFAULT_SEED, spec["run_seconds"], True)
            print(f"  traced run: correct {traced['correct']}, "
                  f"{traced['attempted']} commands, {traced['failed']} failed")
            for metric, m in traced["metrics"].items():
                print(f"  {metric:<30} {m['unit']:<6} {m['value']:>14.6g}")
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.write_baseline:
        save_baseline(baseline, spec, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
