"""qmarkoff benchmark: one CLI workload, run as users run it.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration runs one ``qmarkoff`` command in a fresh process, with
``src/`` of the checkout on ``PYTHONPATH``; iterations follow one another
(a closed loop with a single client) until the next one would end after
``--seconds``.  Every output is checked: exit code, stdout SHA-256 against
``perfbench/baseline.json``, summary values, and an independent evaluation
of the words at q = 2 and q = 3 by plain integer 2x2 products.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall time, CPU time of the process tree, items per second and peak resident
set per command (see ``typical``), and ``setup_s``, the median time of
``qmarkoff --version`` probes run before the first iteration and after
each one.  With ``--trace 1`` each iteration is a pair: the untraced
command, then the same command under ``perfbench/traced.py``; the last line
reports the per-layer metrics derived from the spans, and the difference
between the two as ``trace.overhead_s``.  ``attempted`` counts commands and
``failed`` those whose exit code, output or trace failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from checks import DEFAULT_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES_FIRST = 3       # `qmarkoff --version` runs before the first iteration
ITERATION_TIMEOUT_S = 150.0


# --- running one command -----------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    started: float             # perf_counter at spawn: CLOCK_MONOTONIC, shared by processes
    stdout: bytes = b""        # kept only when no checker reads it
    stderr: bytes = b""
    trace: bytes = b""
    check: dict = field(default_factory=dict)
    failed: bool = False


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QMARKOFF_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], check: Optional[list[str]] = None, trace: bool = False) -> Sample:
    """Run one command to exit.  Its rusage covers the whole process tree.

    With ``check``, stdout goes straight into a ``checks.py`` process
    started (and ready) beforehand, so this process never holds the output:
    a child's peak resident set would otherwise include this process's own.
    """
    checker = None
    out = subprocess.PIPE
    if check is not None:
        checker = subprocess.Popen([sys.executable, str(BENCH / "checks.py"), *check],
                                   cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        checker.stdout.readline()
        out = checker.stdin
    read_fd = write_fd = None
    if trace:
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(BENCH / "traced.py"), str(write_fd), *argv]
    else:
        cmd = [sys.executable, "-m", "qmarkoff.cli", *argv]
    sinks: list[list] = [[], []]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                            stderr=subprocess.PIPE, start_new_session=True,
                            pass_fds=() if write_fd is None else (write_fd,))
    if write_fd is not None:
        os.close(write_fd)
    if checker is not None:
        checker.stdin.close()
    readers = [threading.Thread(target=_drain, args=(proc.stderr, sinks[0]))]
    if read_fd is not None:
        readers.append(threading.Thread(
            target=_drain, args=(os.fdopen(read_fd, "rb"), sinks[1])))
    for t in readers:
        t.start()
    timer = threading.Timer(ITERATION_TIMEOUT_S, _kill_group, args=(proc.pid,))
    timer.start()
    try:
        stdout = b"" if checker is not None else proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        if checker is not None:
            checker.kill()
            checker.wait()
        raise
    finally:
        timer.cancel()
    for t in readers:
        t.join()
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode, t0, stdout, b"".join(sinks[0]), b"".join(sinks[1]))
    if checker is not None:
        result = checker.stdout.read()
        checker.stdout.close()
        checker.wait()
        try:
            sample.check = json.loads(result)
        except ValueError:
            sample.check = {"problems": [f"checker exited {checker.returncode}"]}
    return sample


def problems_of(workload: Workload, sample: Sample) -> list[str]:
    problems = []
    if sample.exit_code != workload.exit_code:
        tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {sample.exit_code}, expected {workload.exit_code} {tail}")
    return problems + sample.check.get("problems", ["output not checked"])


def setup_probe() -> float:
    """Wall time of ``qmarkoff --version``: interpreter start plus importing
    every module."""
    s = spawn(["--version"])
    if s.exit_code != 0 or not s.stdout.startswith(b"qmarkoff "):
        raise RuntimeError(f"qmarkoff --version failed: {s.stderr.decode(errors='replace')}")
    return s.wall_s


# --- metrics -----------------------------------------------------------------

def typical(values: list[float]) -> float:
    """Mean over the iterations of one run.

    On the 2-vCPU KVM guest the baseline was measured on, host contention
    comes in episodes of 5 to 30 seconds that slow every process by about a
    third, longer than most iterations.  A median of a few iterations then reads whichever speed
    held for most of them, while the mean averages over the whole run.
    """
    return statistics.fmean(values)


def end_to_end_metrics(workload: Workload, samples: list[Sample], setup: list[float]) -> dict:
    wall = typical([s.wall_s for s in samples])
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (typical([s.cpu_s for s in samples]), "s"),
        "items_per_s": (workload.items / wall, "1/s"),
        "peak_rss_mib": (statistics.median(s.peak_rss_mib for s in samples), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


#: Per-layer metric -> hooks (as named by traced.py) it needs.  A metric whose
#: hook target no longer exists is reported missing, not failed.
_WORD_PRODUCT_HOOKS = tuple(f"qmarkoff.{m}.{f}" for m in ("cli", "search", "identities")
                            for f in ("M_q", "mu_q"))
_COMPUTE_HOOKS = ("qmarkoff.cli.collide", "qmarkoff.cli.residue_relation_check",
                  "qmarkoff.cli.delta", "qmarkoff.cli.M_q", "qmarkoff.cli.mu_q")
LAYER_HOOKS = {
    "qmatrix.word_products": _WORD_PRODUCT_HOOKS,
    "qmatrix.word_product_s": _WORD_PRODUCT_HOOKS,
    "qmatrix.matmul_calls": ("qmarkoff.qmatrix.QMatrix.__mul__",),
    "laurent.mul_calls": ("qmarkoff.laurent.LaurentPoly.__mul__",),
    "laurent.mul_s": ("qmarkoff.laurent.LaurentPoly.__mul__",),
    "search.collide_self_s": ("qmarkoff.cli.collide", "qmarkoff.search.classify_pair",
                              "qmarkoff.search.M_q", "qmarkoff.search.mu_q"),
    "search.classify_calls": ("qmarkoff.search.classify_pair",),
    "search.classify_s": ("qmarkoff.search.classify_pair",),
    "cli.render_s": _COMPUTE_HOOKS,
    "identities.delta_calls": ("qmarkoff.cli.delta",),
    "identities.delta_s": ("qmarkoff.cli.delta", "qmarkoff.identities.M_q"),
    "cyclotomic.residue_check_s": ("qmarkoff.cli.residue_relation_check",),
    "cyclotomic.cycint_mul_calls": ("qmarkoff.cyclotomic.CycInt.__mul__",),
}

#: Per-layer metrics of one traced command.  Times ending in ``_s`` are span
#: self times: ``search.collide_self_s`` is the scan, bucketing, unpacking and
#: chain upgrade (collide minus its word products and pair classification);
#: ``cli.render_s`` is ``main`` minus the compute calls (argument parsing,
#: case generation, ``to_json_dict``, ``json.dumps`` and the write);
#: ``cli.startup_s`` runs from spawn to ``main`` (interpreter start, imports,
#: hook installation); ``trace.unaccounted_s`` is the rest of the traced wall
#: time (writing the spans out and interpreter exit).  Counts include the
#: worker processes; ``laurent.mul_s`` is the time inside the Laurent
#: products, a part of ``qmatrix.word_product_s``.
LAYER_UNITS = {
    "qmatrix.word_products": "count", "qmatrix.word_product_s": "s",
    "qmatrix.matmul_calls": "count", "laurent.mul_calls": "count", "laurent.mul_s": "s",
    "search.collide_self_s": "s", "search.classify_calls": "count", "search.classify_s": "s",
    "search.words_searched": "count", "search.colliding_words": "count",
    "search.pairs": "count", "search.unexplained": "count",
    "search.direct_explained_share": "share", "cli.startup_s": "s", "cli.render_s": "s",
    "identities.delta_calls": "count", "identities.delta_s": "s",
    "cyclotomic.residue_check_s": "s", "cyclotomic.words_checked": "count",
    "cyclotomic.cycint_mul_calls": "count",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def layer_metrics(traced: Sample) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced iteration, and the hooks it lacked."""
    records = [json.loads(line) for line in traced.trace.splitlines() if line.strip()]
    root = next(r for r in records if r.get("root"))
    names = root["names"]
    spans = root["spans"]
    main_start = spans[0][2]
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name_id, parent, start, end) in enumerate(spans):
        name = names[name_id]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
    counters: dict[str, list] = {}
    for r in records:
        for name, (n, secs) in r["counters"].items():
            cell = counters.setdefault(name, [0, 0.0])
            cell[0] += n
            cell[1] += secs

    values = {
        "qmatrix.word_products": calls.get("qmatrix.word_product", 0),
        "qmatrix.word_product_s": self_s.get("qmatrix.word_product", 0.0),
        "qmatrix.matmul_calls": counters.get("qmatrix.matmul", [0])[0],
        "laurent.mul_calls": counters.get("laurent.mul", [0])[0],
        "laurent.mul_s": counters.get("laurent.mul", [0, 0.0])[1],
        "search.collide_self_s": self_s.get("search.collide", 0.0),
        "search.classify_calls": calls.get("search.classify", 0),
        "search.classify_s": self_s.get("search.classify", 0.0),
        "cli.startup_s": main_start - traced.started,
        "cli.render_s": self_s.get("cli.main", 0.0),
        "identities.delta_calls": calls.get("identities.delta", 0),
        "identities.delta_s": self_s.get("identities.delta", 0.0),
        "cyclotomic.residue_check_s": self_s.get("cyclotomic.residue_check", 0.0),
        "cyclotomic.cycint_mul_calls": counters.get("cyclotomic.cycint_mul", [0])[0],
        "trace.unaccounted_s": (traced.wall_s - (main_start - traced.started)
                                - sum(self_s.values())),
        **traced.check["facts"],
    }
    missing = set(root["missing"])
    for metric, hooks in LAYER_HOOKS.items():
        if missing.intersection(hooks):
            del values[metric]
    return values, sorted(missing)


# --- driver ------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    argv = workload.command(seed)
    check = ["--workload", workload.name, "--seed", str(seed)]
    setup_probe()  # warm-up: bytecode compilation is not set-up cost
    setup = [] if trace else [setup_probe() for _ in range(SETUP_PROBES_FIRST)]

    attempted = failed = 0
    untraced: list[Sample] = []
    traced: list[Sample] = []
    start = perf_counter()
    while True:
        batch = [spawn(argv, check)] + ([spawn(argv, check, trace=True)] if trace else [])
        for sample in batch:
            attempted += 1
            problems = problems_of(workload, sample)
            if problems:
                sample.failed = True
                failed += 1
                for p in problems[:10]:
                    print(f"{workload.name}: {p}", file=sys.stderr)
        untraced.append(batch[0])
        traced += batch[1:]
        if not trace:
            setup.append(setup_probe())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            break

    if not trace:
        metrics = end_to_end_metrics(workload, untraced, setup)
    else:
        layers = []
        missing: set[str] = set()
        for sample in traced:
            try:
                values, lacking = layer_metrics(sample)
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                failed += not sample.failed
                print(f"{workload.name}: unreadable trace: {exc!r}", file=sys.stderr)
                continue
            layers.append(values)
            missing.update(lacking)
        for hook in sorted(missing):
            print(f"{workload.name}: hook target missing: {hook}", file=sys.stderr)
        names = [n for n in LAYER_UNITS if layers and all(n in v for v in layers)]
        metrics = {n: (statistics.median(v[n] for v in layers), LAYER_UNITS[n]) for n in names}
        metrics["trace.overhead_s"] = (typical([s.wall_s for s in traced])
                                       - typical([s.wall_s for s in untraced]), "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def _terminate(signum, frame) -> None:
    # Raising unwinds through spawn(), which kills the command's process group.
    raise SystemExit(128 + signum)


def main(argv: Optional[list[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmarkoff" / "cli.py").is_file():
        print(f"error: no qmarkoff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
