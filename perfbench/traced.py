"""Run one qmarkoff CLI command in-process with tracing hooks installed.

Usage: python3 perfbench/traced.py FD ARG...

The command's stdout and exit code are the CLI's own.  Trace records go to
the already-open file descriptor FD as JSON lines:

- the traced process writes one record with every span (name, parent,
  start, end), the operator counters, and the hooks it installed or could
  not find;
- each worker process forked from it writes one record with its operator
  counters when it exits.

Hooks wrap the public names each module calls through, from outside the
program.  A name that no longer exists is reported as missing rather than
failing the run, so the benchmark survives refactors.  This file is used
only by the traced run; end-to-end runs never import it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from multiprocessing import util
from time import perf_counter

#: (module, attribute, span name): spans around calls into a layer.
SPAN_HOOKS = (
    ("qmarkoff.cli", "collide", "search.collide"),
    ("qmarkoff.cli", "residue_relation_check", "cyclotomic.residue_check"),
    ("qmarkoff.cli", "delta", "identities.delta"),
    ("qmarkoff.cli", "M_q", "qmatrix.word_product"),
    ("qmarkoff.cli", "mu_q", "qmatrix.word_product"),
    ("qmarkoff.search", "M_q", "qmatrix.word_product"),
    ("qmarkoff.search", "mu_q", "qmatrix.word_product"),
    ("qmarkoff.search", "classify_pair", "search.classify"),
    ("qmarkoff.identities", "M_q", "qmatrix.word_product"),
    ("qmarkoff.identities", "mu_q", "qmatrix.word_product"),
)

#: (module, class, method, counter name, timed): hot operators get counters,
#: not spans; only the Laurent product also accumulates its time.
COUNT_HOOKS = (
    ("qmarkoff.laurent", "LaurentPoly", "__mul__", "laurent.mul", True),
    ("qmarkoff.qmatrix", "QMatrix", "__mul__", "qmatrix.matmul", False),
    ("qmarkoff.cyclotomic", "CycInt", "__mul__", "cyclotomic.cycint_mul", False),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters of one traced process, written out at the end."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.installed: list[str] = []
        self.missing: list[str] = []

    def span(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
        return traced

    def counter(self, name: str, fn, timed: bool):
        cell = self.counters.setdefault(name, [0, 0.0])

        if timed:
            @functools.wraps(fn)
            def counted(*args):
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    cell[1] += perf_counter() - t0
                    cell[0] += 1
        else:
            @functools.wraps(fn)
            def counted(*args):
                cell[0] += 1
                return fn(*args)
        return counted

    def install(self) -> None:
        for module_name, attr, name in SPAN_HOOKS:
            key = f"{module_name}.{attr}"
            module = _import(module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.missing.append(key)
                continue
            setattr(module, attr, self.span(name, target))
            self.installed.append(key)
        for module_name, cls_name, method, name, timed in COUNT_HOOKS:
            key = f"{module_name}.{cls_name}.{method}"
            cls = getattr(_import(module_name), cls_name, None)
            target = None if cls is None else cls.__dict__.get(method)
            if target is None:
                self.missing.append(key)
                continue
            setattr(cls, method, self.counter(name, target, timed))
            self.installed.append(key)
        # Forked workers start from zero and report their counters on exit.
        util.register_after_fork(self, Tracer._start_worker)

    def _start_worker(self) -> None:
        for cell in self.counters.values():
            cell[0], cell[1] = 0, 0.0
        util.Finalize(None, self._write_worker, exitpriority=100)

    def _write_worker(self) -> None:
        self._write({"pid": os.getpid(), "counters": self.counters})

    def run(self, main, argv: list[str]) -> int:
        return self.span(ROOT_SPAN, main)(argv)

    def write(self, exit_code: int) -> None:
        self._write({"pid": os.getpid(), "root": True, "exit_code": exit_code,
                     "names": self.names, "spans": self.spans,
                     "counters": self.counters, "installed": self.installed,
                     "missing": self.missing})

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _write(self, record: dict) -> None:
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        view = memoryview(data)
        while view:
            view = view[os.write(self.fd, view):]


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def main() -> int:
    fd = int(sys.argv[1])
    tracer = Tracer(fd)
    tracer.install()
    cli = _import("qmarkoff.cli")
    if cli is None or not hasattr(cli, "main"):
        print("traced: qmarkoff.cli.main not found", file=sys.stderr)
        return 70
    exit_code = tracer.run(cli.main, sys.argv[2:])
    sys.stdout.flush()
    tracer.write(exit_code)
    os.close(fd)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
