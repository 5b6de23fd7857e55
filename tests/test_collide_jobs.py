"""``collide --jobs N``: the pair stage of the JSON split between the
parent and a forked worker (``qmarkoff.collide_json``).

The output is byte-identical for every ``--jobs`` value, and no worker
outlives the command, whether it is interrupted, its reader closes stdout
or a worker fails: the lifetime tests start the command in a session of
its own and then check that its process group is empty.
"""

import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from qmarkoff import collide_json, search
from qmarkoff.cli import EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, EXIT_WORKER, main
from qmarkoff.search import collide

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1, 1, 0), (1, 4, 0), (2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1),
    (10 ** 6, 2, 1), (10 ** 6, 1, 0), (2, 64, 1), (64, 64, 1),
])
def test_worker_count(jobs, cpus, workers):
    assert collide_json.worker_count(jobs, cpus) == workers


def test_chunks_are_cut_by_pairs():
    groups = collide("M", 12).groups
    starts = collide_json.chunk_starts(groups)
    assert starts[0] == 0 and starts[-1] == len(groups)
    sizes = [sum(len(g.words) * (len(g.words) - 1) // 2 for g in groups[a:b])
             for a, b in zip(starts, starts[1:])]
    # each chunk but the last ends with the group that fills it
    for (a, b), size in zip(zip(starts, starts[1:]), sizes[:-1]):
        assert size >= collide_json.CHUNK_PAIRS
        last = len(groups[b - 1].words)
        assert size - last * (last - 1) // 2 < collide_json.CHUNK_PAIRS
    assert sum(sizes) == collide("M", 12).pair_count


def _run(capsys, map_kind, max_len, jobs):
    code = main(["collide", "--map", map_kind, "--max-len", str(max_len),
                 "--jobs", str(jobs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("map_kind, max_len", [("M", 10), ("M", 12), ("mu", 14)])
@pytest.mark.parametrize("chunk_pairs", [collide_json.CHUNK_PAIRS, 1],
                         ids=["chunks", "one-group-chunks"])
def test_output_is_identical_for_every_jobs_value(capsys, monkeypatch, forks, map_kind,
                                                  max_len, chunk_pairs):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: 3)
    monkeypatch.setattr(collide_json, "CHUNK_PAIRS", chunk_pairs)
    calls = []
    classify_group = search._classify_group

    def counting_classify(map_kind, words):
        calls.append(words)
        return classify_group(map_kind, words)

    monkeypatch.setattr(search, "_classify_group", counting_classify)
    serial = _run(capsys, map_kind, max_len, 1)
    assert forks == []
    groups = collide(map_kind, max_len).groups
    starts = collide_json.chunk_starts(groups)
    chunks = list(zip(starts, starts[1:]))
    assert len(chunks) >= 2
    for jobs in (2, 3):
        calls.clear()
        forks.clear()
        # the same stdout, summary tail included, stderr and exit code
        assert _run(capsys, map_kind, max_len, jobs) == serial, jobs
        # one worker, also where three processes would fit
        assert len(forks) == 1
        # the parent classifies its own chunks, the even ones, each group once
        assert calls == [g.words for a, b in chunks[::2] for g in groups[a:b]]


def test_no_classify_and_other_forms_stay_serial(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: 2)
    for extra in (["--no-classify"], ["--format", "csv"], ["--format", "human"]):
        argv = ["collide", "--map", "M", "--max-len", "10", *extra]
        outputs = []
        for jobs in ("1", "2"):
            outputs.append((main([*argv, "--jobs", jobs]), capsys.readouterr()))
        assert outputs[0] == outputs[1], extra
    assert forks == []


def test_one_usable_cpu_stays_serial(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: 1)
    assert _run(capsys, "M", 10, 4) == _run(capsys, "M", 10, 1)
    assert forks == []


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two usable CPUs and the affinity calls")
def test_each_process_runs_on_its_own_cpus(capsys, monkeypatch):
    # unpinned, the pipe's wakeups draw the parent and its worker onto one CPU
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: 2)
    pins = []
    fork, pin = collide_json._fork, collide_json._pin

    def recording_fork(job, worker_cpus, pids, readers):
        pins.append(("worker", worker_cpus))
        fork(job, worker_cpus, pids, readers)

    def recording_pin(parent_cpus):
        pins.append(("parent", parent_cpus))  # the worker's own calls stay in it
        pin(parent_cpus)

    monkeypatch.setattr(collide_json, "_fork", recording_fork)
    monkeypatch.setattr(collide_json, "_pin", recording_pin)
    assert _run(capsys, "M", 10, 2) == _run(capsys, "M", 10, 1)
    assert pins == [("worker", cpus[1::2]), ("parent", cpus[::2]), ("parent", cpus)]
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(11, "Resource temporarily unavailable")),
    ("pipe", OSError(24, "Too many open files")),
])
def test_no_process_to_be_had_leaves_the_parent_every_chunk(capsys, monkeypatch, call,
                                                             error):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: 2)
    serial = _run(capsys, "M", 12, 1)

    def refuse():
        raise error

    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, call, refuse)
    assert _run(capsys, "M", 12, 2) == serial
    # nothing is left behind: no frozen objects, no blocked SIGINT, no open fd
    assert gc.get_freeze_count() == 0
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    if fds is not None:
        assert os.listdir("/proc/self/fd") == fds


def _start(*args):
    """``python -S ARGS`` on this checkout's sources, in a session of its
    own, with stdout and stderr pipes."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen([sys.executable, "-S", *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)


def _finish(proc, timeout=60):
    """Wait for ``proc`` (killing its group past ``timeout``); return its
    exit code and stderr lines, once its process group is empty."""
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    # the group is empty: no worker outlived the command
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, err.decode().splitlines()


CENSUS_M = ("collide", "--map", "M", "--max-len", "14", "--jobs", "2")


def _census_with_two_processes():
    """census-M, with two usable CPUs whatever the host has."""
    return _start("-c", "import sys; from qmarkoff import cli, collide_json; "
                        "collide_json.usable_cpus = lambda: 2; "
                        f"sys.exit(cli.main({list(CENSUS_M)!r}))")


def test_interrupt_with_workers_exits_130():
    # the first stdout bytes come once the parent has forked and written its
    # first chunk: with the pipe unread, both processes are still writing
    proc = _census_with_two_processes()
    assert proc.stdout.read(1) == b"{"
    os.killpg(proc.pid, signal.SIGINT)
    code, err = _finish(proc)
    assert (code, err) == (EXIT_INTERRUPTED, ["interrupted"])


def test_closed_stdout_with_workers_exits_141():
    proc = _census_with_two_processes()
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code, err = _finish(proc)
    assert code == EXIT_BROKEN_PIPE
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize("work", [
    "lambda fds, *args: os._exit(1)",
    # a frame header promising 16 bytes, then 2 bytes and a clean exit
    "lambda fds, *args: (os.write(fds[1], bytes([16, 0, 0, 0]) + b'ab'), os._exit(0))",
    "lambda fds, *args: os.kill(os.getpid(), signal.SIGKILL)",
], ids=["exits-at-once", "short-frame", "killed"])
def test_a_failed_worker_fails_the_command(work):
    proc = _start("-c", "import os, signal, sys; from qmarkoff import cli, collide_json; "
                        "collide_json.usable_cpus = lambda: 2; "
                        f"collide_json._work = {work}; "
                        "sys.exit(cli.main(['collide', '--map', 'M', '--max-len', '12', "
                        "'--jobs', '2']))")
    code, err = _finish(proc)
    assert code == EXIT_WORKER
    assert err == ["error: a worker process ended before its output was complete"]
