"""``collide --jobs N``: the soundness check and the pair stage of the JSON
split between the parent and a forked worker (``qmarkoff.collide_json``).

The output is byte-identical for every ``--jobs`` value, and no worker
outlives the command, whether it is interrupted, its reader closes stdout
or a worker fails: the lifetime tests start the command in a session of
its own and then check that its process group is empty.
"""

import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qmarkoff import collide_json, search
from qmarkoff.cli import (EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, EXIT_SOUNDNESS, EXIT_WORKER,
                          main)
from qmarkoff.search import collide

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1, 1, 0), (1, 4, 0), (2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1),
    (10 ** 6, 2, 1), (10 ** 6, 1, 0), (2, 64, 1), (64, 64, 1),
])
def test_worker_count(capsys, monkeypatch, forks, jobs, cpus, workers):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: list(range(cpus)))
    assert _run(capsys, "M", 12, jobs)[0] == 3
    assert len(forks) == workers


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
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1, 2])
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


@pytest.mark.parametrize("jobs, cpus, parts", [("1", 2, 1), ("2", 1, 1), ("2", 2, 2)])
def test_each_process_checks_its_part_once(capsys, monkeypatch, forks, tmp_path, jobs, cpus,
                                           parts):
    # each call of the check, from whichever process, is one line of the log
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: list(range(cpus)))
    log = tmp_path / "checks"
    verify = collide_json._verify_groups

    def logging_verify(map_kind, groups, part, parts):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {part} {parts}\n")
        verify(map_kind, groups, part, parts)

    monkeypatch.setattr(collide_json, "_verify_groups", logging_verify)
    assert _run(capsys, "M", 12, jobs)[0] == 3
    calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    pids = [os.getpid(), *forks]
    # the parent checks part 0 and its worker, if any, part 1: every word once
    assert sorted((pids.index(pid), part, n) for pid, part, n in calls) == [
        (p, p, parts) for p in range(parts)]


def test_no_classify_and_other_forms_stay_serial(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1])
    for extra in (["--no-classify"], ["--format", "csv"], ["--format", "human"]):
        argv = ["collide", "--map", "M", "--max-len", "10", *extra]
        outputs = []
        for jobs in ("1", "2"):
            outputs.append((main([*argv, "--jobs", jobs]), capsys.readouterr()))
        assert outputs[0] == outputs[1], extra
    assert forks == []


def test_one_usable_cpu_stays_serial(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0])
    assert _run(capsys, "M", 10, 4) == _run(capsys, "M", 10, 1)
    assert forks == []


def test_usable_cpus_without_affinity_calls_are_every_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert collide_json.usable_cpus() == [0, 1, 2, 3]


def test_two_cpus_without_affinity_calls_fork_once(capsys, monkeypatch, forks):
    # the OS places both processes: pinning is skipped, not an error
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = _run(capsys, "M", 12, 1)
    assert forks == []
    assert _run(capsys, "M", 12, 2) == serial
    assert len(forks) == 1


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two usable CPUs and the affinity calls")
def test_each_process_runs_on_its_own_cpus(capsys, monkeypatch):
    # unpinned, the pipe's wakeups draw the parent and its worker onto one CPU
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: cpus)
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
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1])
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


def _tamper_a_group_in(monkeypatch, half):
    """Give one group of M 12 a wrong polynomial through ``search.unpack_poly``,
    a group whose words lie in ``half`` (0 or 1) of the sorted colliding
    words; return the word the check names, the group's first in sorted
    order."""
    groups = collide("M", 12).groups
    words = sorted(w for g in groups for w in g.words)
    middle = words[len(words) // 2]
    target = next(g for g in groups
                  if (min(g.words) >= middle if half else max(g.words) < middle))
    unpack = search.unpack_poly

    def unpack_tampered(packed, shift):
        poly = unpack(packed, shift)
        return poly + 1 if poly == target.polynomial else poly

    monkeypatch.setattr(search, "unpack_poly", unpack_tampered)
    return min(target.words)


@pytest.mark.parametrize("half", [0, 1], ids=["first-half", "second-half"])
@pytest.mark.parametrize("argv, workers", [
    (["--jobs", "1"], 0), (["--jobs", "2"], 1), (["--format", "csv"], 0),
    (["--format", "human"], 0),
], ids=["json-jobs-1", "json-jobs-2", "csv", "human"])
def test_a_soundness_failure_exits_6_before_any_output(capsys, monkeypatch, forks, half,
                                                       argv, workers):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1])
    word = _tamper_a_group_in(monkeypatch, half)
    code = main(["collide", "--map", "M", "--max-len", "12", *argv])
    captured = capsys.readouterr()
    # a word of the second half fails in the worker, which sends its verdict
    assert (code, captured.out) == (EXIT_SOUNDNESS, "")
    assert captured.err == f"error: packed bucket mismatch for word {word!r}\n"
    assert len(forks) == workers


class _CountingRaw(io.RawIOBase):
    """A binary stdout that keeps each write call's bytes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_json_goes_out_in_64_kib_writes(capsys, monkeypatch, jobs):
    # write-through, as under PYTHONUNBUFFERED=1: each write is one call
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1])
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii",
                                                        write_through=True))
    assert main(["collide", "--map", "M", "--max-len", "12", "--jobs", jobs]) == 3
    data = b"".join(raw.writes)
    expected = json.dumps(collide("M", 12).to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert data == expected.encode()
    assert len(raw.writes) <= len(data) // (32 * 1024) + 4
    capsys.readouterr()


def _start(*args):
    """``python -S ARGS`` on this checkout's sources, in a session of its
    own, with stdout and stderr pipes."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen([sys.executable, "-S", *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)


def _finish(proc, timeout=60):
    """Wait for ``proc`` (killing its group past ``timeout``); return its
    exit code, the stdout bytes not yet read and its stderr lines, once its
    process group is empty."""
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    # the group is empty: no worker outlived the command
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, out, err.decode().splitlines()


CENSUS_M = ("collide", "--map", "M", "--max-len", "14", "--jobs", "2")


def _census_with_two_processes():
    """census-M, with two usable CPUs whatever the host has."""
    return _start("-c", "import sys; from qmarkoff import cli, collide_json; "
                        "collide_json.usable_cpus = lambda: [0, 1]; "
                        f"sys.exit(cli.main({list(CENSUS_M)!r}))")


def test_census_M_forks_once(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1])
    assert main(list(CENSUS_M)) == 3
    assert len(forks) == 1
    capsys.readouterr()


def test_interrupt_with_workers_exits_130():
    # the first stdout bytes come once both halves of the check have passed
    # and the parent has its first 64 KiB of text: with the pipe unread, both
    # processes are still writing
    proc = _census_with_two_processes()
    assert proc.stdout.read(1) == b"{"
    os.killpg(proc.pid, signal.SIGINT)
    code, _, err = _finish(proc)
    assert (code, err) == (EXIT_INTERRUPTED, ["interrupted"])


def test_interrupt_while_both_processes_check_exits_130(tmp_path):
    # each process marks its part of the soundness check, then waits in it
    proc = _start("-c", "import os, sys, time; from qmarkoff import cli, collide_json; "
                        "collide_json.usable_cpus = lambda: [0, 1]; "
                        "collide_json._verify_groups = lambda map_kind, groups, part, parts: "
                        f"(open(os.path.join({str(tmp_path)!r}, str(part)), 'w').close(), "
                        "time.sleep(60)); "
                        "sys.exit(cli.main(['collide', '--map', 'M', '--max-len', '12', "
                        "'--jobs', '2']))")
    deadline = time.monotonic() + 30
    while sorted(os.listdir(tmp_path)) != ["0", "1"] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sorted(os.listdir(tmp_path)) == ["0", "1"]
    os.killpg(proc.pid, signal.SIGINT)
    code, out, err = _finish(proc)
    assert (code, out, err) == (EXIT_INTERRUPTED, b"", ["interrupted"])


def test_closed_stdout_with_workers_exits_141():
    proc = _census_with_two_processes()
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code, _, err = _finish(proc)
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
                        "collide_json.usable_cpus = lambda: [0, 1]; "
                        f"collide_json._work = {work}; "
                        "sys.exit(cli.main(['collide', '--map', 'M', '--max-len', '12', "
                        "'--jobs', '2']))")
    code, out, err = _finish(proc)
    # each dies before its verdict frame, so no byte was written
    assert (code, out) == (EXIT_WORKER, b"")
    assert err == ["error: a worker process ended before its output was complete"]
