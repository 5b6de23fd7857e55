"""``collide``'s JSON: the text of ``json.dumps(report.to_json_dict(),
sort_keys=True, indent=2) + "\\n"``, written in chunks straight from the
report's objects once the report's groups have passed their soundness
check, with that check and the pair stage split between the parent and a
forked worker when ``--jobs`` allows two processes.  Only ``collide``
imports this module, so no other command compiles it.

The pairs come first in sorted-key order, so they are classified one group
at a time (``search.classify_groups``), each group written as one chunk and
dropped; the summary after them reads the tallies of that pass.  A pair is
one f-string of five pieces: the text before its bound (its kind), its
bound, the text from its witness to x, x, and the text from y on.  The kind
and witness pieces are made once per table entry (a witness through one
template per key set, keys in sorted order), and the word pieces once per
word of the group.  A group is one template filled with its polynomial's
coefficients and its words.  So neither the dict tree, the whole text nor
the list of pairs is ever built.

The split.  The groups are cut in order into chunks that each end with the
group that brings them to ``CHUNK_PAIRS`` pairs.  With ``--jobs`` and the
usable CPUs both above 1 (``worker_count``), two chunks or more and
classification on, one worker is forked once the groups are built, before
their soundness check; otherwise, or when no pipe or process can be had,
the parent does every part on the same code path.  The worker is a bare
``os.fork`` of the command's one thread (``gc.freeze`` first, so the
worker's collections do not touch, and copy, the pages it shares with the
parent) writing into one pipe, enlarged to ``PIPE_BYTES`` where the OS
allows it, so it can run that far ahead of the parent; each process is kept
on its own share of the usable CPUs (``_pin``).  The report comes from
``search._scan_and_group`` unchecked, and the check is split by sorted
word: the parent checks the first half of the sorted colliding words and
the worker the second (``search._verify_groups``), or the parent checks
them all.  The worker writes frames (a 4-byte little-endian length, then
the bytes) through a 64 KiB buffer: first its verdict, empty or the text of
its ``SoundnessError`` (then nothing more); then the pair text of each of
the odd chunks, then their group text, then one frame of its tallies, the
count of each kind in ``Classification`` order and its largest
``w_search_bound`` as decimal numbers.  The parent reads the verdict once
its own half has passed and raises the worker's ``SoundnessError``, so no
byte, not even the "{", is written before every colliding word has passed.
It then renders the even chunks group by group, copies the worker's frames
to its output in chunk order, 64 KiB at a time, and merges its tallies into
the report's, so the summary classifies nothing again.  A frame per chunk,
not per group, cut census-M's wall from 0.85x to 0.82x the serial
command's (20 rounds of each); the worker holds one chunk's text at a time,
and its peak stays under the parent's.

A worker writes nothing to stdout or stderr (both point at the null device)
and ends with ``os._exit``, also when it is interrupted or its pipe is
closed.  The parent kills and reaps the worker on every exit path; a worker
that ends before its stream is complete, or with a status other than 0,
raises ``ChildProcessError`` (``collide`` exit 5).
"""

from __future__ import annotations

import gc
import json
import os
import signal
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Optional

from .search import Classification, SoundnessError, _verify_groups, classify_groups

if TYPE_CHECKING:
    from .search import CollisionGroup, CollisionReport, GroupTable

Writer = Callable[[object, str], str]  # cli._json_writer's render(value, newline)

#: The fewest pairs a chunk of the split holds, but for the last chunk: the
#: first 512 groups of census-M hold 32,261 of its 81,938 pairs, so chunks
#: are cut by pairs, not by groups.
CHUNK_PAIRS = 2048
#: The size a worker's pipe is enlarged to: with the default 64 KiB the
#: worker can lead the parent by too little to gain anything.
PIPE_BYTES = 1 << 20
_SHORT_STREAM = "a worker process ended before its output was complete"


def worker_count(jobs: int, cpus: int) -> int:
    """The workers beside the parent for ``--jobs`` ``jobs`` on ``cpus``
    usable CPUs: one when both allow two processes, else none.  The split
    was measured only as a parent and one worker on two CPUs
    (``BENCH_24.json``), so it starts no more than that."""
    return 1 if min(jobs, cpus) > 1 else 0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def chunk_starts(groups: list[CollisionGroup]) -> list[int]:
    """The index of the first group of each chunk, then ``len(groups)``: a
    chunk ends with the group that brings it to ``CHUNK_PAIRS`` pairs."""
    starts, held = [0], 0
    for i, g in enumerate(groups, 1):
        held += len(g.words) * (len(g.words) - 1) // 2
        if held >= CHUNK_PAIRS:
            starts.append(i)
            held = 0
    if starts[-1] != len(groups):
        starts.append(len(groups))
    return starts


def _renderers(render: Writer) -> tuple[Callable[[GroupTable], str],
                                        Callable[[CollisionGroup], str]]:
    """The text of one group's pairs, from its table, and of one group;
    ``render`` writes the values of a witness."""
    encode = json.encoder.encode_basestring_ascii
    group_text = ('{\n      "polynomial": {\n        "coeffs": %s,\n        "min_degree": %d'
                  '\n      },\n      "words": [\n        %s\n      ]\n    }')
    # the pieces of a pair's text, keys in sorted order; the kind is a str
    # enum, which the string encoder writes as its value
    heads = {kind: '{\n      "kind": ' + encode(kind) + ',\n      "w_search_bound": '
             for kind in Classification}
    middles: dict[tuple, tuple[str, list]] = {}  # witness keys -> (template, sorted keys)

    def middle(w: Optional[dict]) -> str:
        if w is None:
            return ',\n      "witness": null,\n      "x": '
        keys = tuple(w)
        form = middles.get(keys)
        if form is None:
            order = sorted(keys)
            fields = ",".join(["\n        " + encode(k).replace("%", "%%") + ": %s"
                               for k in order])
            form = middles[keys] = (',\n      "witness": {' + fields
                                    + '\n      },\n      "x": '), order
        template, order = form
        return template % tuple([encode(v) if type(v) is str else render(v, "\n        ")
                                 for v in map(w.__getitem__, order)])

    def pairs(table: GroupTable) -> str:
        words, entries, rows = table.words, table.entries, table.rows()
        # one pair, as in almost every mu group: the per-group lists below
        # made mu 16's pair stage about 1.2x the parent's (BENCH_19.json)
        if len(words) == 2:
            kind, w = entries[rows[0][0]]
            return (f'{heads[kind]}{len(words[1]) // 2}{middle(w)}{encode(words[0])},'
                    f'\n      "y": {encode(words[1])}\n    }}')
        entry_heads = [heads[kind] for kind, _ in entries]
        entry_middles = [middle(w) for _, w in entries]
        xs = list(map(encode, words))
        ys = [f',\n      "y": {y}\n    }}' for y in xs]
        # a group's words are sorted by length: the later word's half is the bound
        bounds = [len(w) // 2 for w in words]
        texts: list[str] = []
        for i, row in enumerate(rows):
            x = xs[i]
            texts += [f"{entry_heads[e]}{bounds[j]}{entry_middles[e]}{x}{ys[j]}"
                      for j, e in enumerate(row, i + 1)]
        return ",\n    ".join(texts)

    def group(g: CollisionGroup) -> str:
        coeffs = ",\n          ".join(['"%d"' % c for c in g.polynomial.coefficients])
        coeffs = "[\n          " + coeffs + "\n        ]" if coeffs else "[]"
        return group_text % (coeffs, g.polynomial.min_degree,
                             ",\n        ".join(map(encode, g.words)))

    return pairs, group


def collide_json(report: CollisionReport, jobs: int,
                 json_writer: Callable[[], Writer]) -> Iterator[str]:
    """``json_writer()(report.to_json_dict(), "\\n") + "\\n"``, in chunks of
    text, once the soundness check of the report's groups has passed, its
    check and its pair stage split between the parent and a worker when
    ``--jobs`` allows one (see the module docstring).  The report comes
    unchecked from ``search._scan_and_group``: no piece is yielded before
    every colliding word has passed ``search._verify_groups``, and a word
    that fails raises ``SoundnessError`` before the first piece.

    ``json_writer`` is ``cli._json_writer``, passed in: under ``python -m
    qmarkoff.cli`` the command line runs as ``__main__``, and importing
    ``qmarkoff.cli`` here would load and compile it a second time."""
    render = json_writer()
    pairs, group = _renderers(render)
    starts = chunk_starts(report.groups)
    # the worker needs a chunk of its own: two chunks or more
    split = (report.classify and len(starts) > 2 and hasattr(os, "fork")
             and worker_count(jobs, usable_cpus()) > 0)
    yield from _lists(report, starts, split, pairs, group)
    # the top-level keys in sorted order: the lists' two, then the tail's four
    tail = render({"map": report.map_kind, "max_len": report.max_len,
                   "summary": report.summary(),
                   "unexplained_present": report.has_unexplained}, "\n")
    yield ",\n" + tail[len("{\n"):] + "\n"


def _lists(report: CollisionReport, starts: list[int], split: bool,
           pairs: Callable[[GroupTable], str],
           group: Callable[[CollisionGroup], str]) -> Iterator[str]:
    """The soundness check of the report's groups, then the JSON from its
    "{" to the "]" of the groups, chunk by chunk (``starts``); with
    ``split``, a forked worker checks the second half of the sorted
    colliding words and renders the odd chunks, each process on its own
    share of the usable CPUs.  Leave the tallies of every pair in
    ``report.tallies``."""
    groups, map_kind = report.groups, report.map_kind
    chunks = list(zip(starts, starts[1:]))
    tallies: list = [Counter(), 0]
    pids: list[int] = []  # the worker, until it is reaped
    readers: list[BinaryIO] = []  # the read end of its pipe, once it runs
    cpus: list[int] = []
    if split:
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # no affinity calls: the OS places the processes
            pass
        gc.freeze()
    try:
        if split:
            try:
                _fork(partial(_write_share, map_kind, groups, chunks[1::2], pairs, group),
                      cpus[1::2] or cpus, pids, readers)
                _pin(cpus[::2])
            except OSError:
                pass  # no pipe or no process to be had: the parent does every part
        # the parent checks the first half of the words while the worker
        # checks the second, or every word alone; no byte before both pass
        _verify_groups(map_kind, groups, 0, 2 if readers else 1)
        if readers:
            verdict = "".join(_frame(readers[0]))
            if verdict:
                raise SoundnessError(verdict)

        def relay(own: Callable[[int, int], Iterable[str]]) -> Iterator[str]:
            # one list: the parent's chunks value by value, each of the
            # worker's as the one frame it sent; "[]" when there are none
            sep = "[\n    "
            for c, (start, end) in enumerate(chunks):
                if c % 2 and readers:
                    yield sep
                    yield from _frame(readers[0])
                    sep = ",\n    "
                    continue
                for text in own(start, end):
                    yield sep
                    yield text
                    sep = ",\n    "
            yield "[]" if sep == "[\n    " else "\n  ]"

        yield '{\n  "classifications": '
        if report.classify:
            yield from relay(lambda start, end: map(
                pairs, classify_groups(map_kind, groups[start:end], tallies)))
        else:
            yield "[]"
        yield ',\n  "groups": '
        yield from relay(lambda start, end: map(group, groups[start:end]))
        if readers:
            *counts, bound = map(int, "".join(_frame(readers[0])).split())
            tallies[0].update(dict(zip(Classification, counts)))
            tallies[1] = max(tallies[1], bound)
            _, status = os.waitpid(pids[0], 0)
            pids.clear()
            if status:
                raise ChildProcessError(f"a worker process ended with status "
                                        f"{os.waitstatus_to_exitcode(status)}")
        report.tallies = tallies[0], tallies[1]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # an unreaped child, so it exists
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
        if split:
            _pin(cpus)
            gc.unfreeze()


def _pin(cpus: list[int]) -> None:
    """Keep this process on ``cpus`` where the OS allows it.  Each process
    of the split wakes the other through their pipe, and the OS places a
    woken process on its waker's CPU: unpinned, the parent and its worker
    took turns on one CPU (census-M's pair stage at 1.1x its serial time,
    against 0.6-0.8x pinned apart), and with the worker alone pinned the
    woken parent followed it (the command at 1.12x, against 0.89x)."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _frame(reader: BinaryIO) -> Iterator[str]:
    """The text of the next frame of a worker's stream, in pieces of at most
    64 KiB (the text is ASCII, so a piece ends between two characters)."""
    head = reader.read(4)
    if len(head) < 4:
        raise ChildProcessError(_SHORT_STREAM)
    size = int.from_bytes(head, "little")
    while size:
        piece = reader.read(min(size, 1 << 16))
        if not piece:
            raise ChildProcessError(_SHORT_STREAM)
        size -= len(piece)
        yield piece.decode()


def _write_share(map_kind: str, groups: list[CollisionGroup], chunks: list[tuple[int, int]],
                 pairs: Callable[[GroupTable], str], group: Callable[[CollisionGroup], str],
                 frame: Callable[[str], None]) -> None:
    """A worker's stream, one ``frame`` each: the verdict of its half of the
    soundness check (empty, or the text of its ``SoundnessError``, which
    ends the stream), then the pair text of each chunk of ``chunks``, then
    the group text of each, then the tallies of their pairs."""
    try:
        _verify_groups(map_kind, groups, 1, 2)
    except SoundnessError as exc:
        frame(str(exc))
        return
    frame("")
    tallies: list = [Counter(), 0]
    for start, end in chunks:
        frame(",\n    ".join(map(pairs, classify_groups(map_kind, groups[start:end],
                                                         tallies))))
    for start, end in chunks:
        frame(",\n    ".join(map(group, groups[start:end])))
    frame(" ".join(map(str, [*map(tallies[0].__getitem__, Classification), tallies[1]])))


def _fork(job: Callable[[Callable[[str], None]], None], cpus: list[int],
          pids: list[int], readers: list[BinaryIO]) -> None:
    """Start one worker that runs ``job(frame)`` on ``cpus``; add its pid to
    ``pids``, then the read end of its pipe to ``readers``.  An ``OSError``
    of the pipe or the fork leaves both lists as they were.

    SIGINT is blocked from before the fork until the pid is in ``pids``, so
    an interrupt can neither raise in the worker before it is ready nor
    leave the parent without its pid."""
    fds: list[int] = []
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        fds += os.pipe()
        try:
            import fcntl
            fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass  # no such call, or a smaller pipe-max-size: the default pipe
        pid = os.fork()
        if pid == 0:
            _work(fds, cpus, job)
        pids.append(pid)
        readers.append(open(fds[0], "rb", buffering=1 << 16))
        del fds[0]
    finally:
        for fd in fds:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])


def _work(fds: list[int], cpus: list[int],
          job: Callable[[Callable[[str], None]], None]) -> None:
    """The worker: run ``job`` with a function that writes one frame into
    the write end of its pipe ``fds``, then exit with ``os._exit``, status 0
    only when every frame was written.  Any exception, an interrupt or a
    closed pipe included, ends it with status 1 and no output."""
    status = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        os.close(null)
        os.close(fds[0])
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])
        _pin(cpus)
        out = open(fds[1], "wb", buffering=1 << 16)

        def frame(text: str) -> None:
            data = text.encode()
            out.write(len(data).to_bytes(4, "little"))
            out.write(data)

        job(frame)
        out.flush()
        status = 0
    finally:
        os._exit(status)
