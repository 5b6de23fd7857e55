"""The package's lazy public names and what each command imports.

Importing ``qmarkoff`` loads none of its modules, and each command loads
only the modules it runs; the scope checks run a fresh interpreter under
``-S`` (no site-packages, so nothing outside the program is imported) and
read its imports from ``-X importtime``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmarkoff

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = ("cyclotomic", "identities", "laurent", "markoff", "qmatrix", "search", "words")


def _python(*args):
    """Run ``python -S ARGS`` on this checkout's sources; return the process."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-S", *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _imports_of(*argv, exit_code=0):
    """The modules ``python -m qmarkoff.cli ARGV`` imports."""
    proc = _python("-X", "importtime", "-m", "qmarkoff.cli", *argv)
    assert proc.returncode == exit_code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_import_loads_no_submodule():
    proc = _python("-c", "import sys, qmarkoff; print(qmarkoff.__version__); "
                         "print(sorted(m for m in sys.modules if m.startswith('qmarkoff.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [qmarkoff.__version__, "[]"]


@pytest.mark.parametrize("argv", [
    ["residues", "--k", "5", "--max-len", "16", "--jobs", "2"],
    ["residues", "--k", "3", "--max-len", "9", "--format", "human"],
    ["figure2-data", "--max-len", "10", "--format", "json"],
], ids=["residues-5", "residues-3-human", "figure2-json"])
def test_residues_never_loads_the_search(argv):
    loaded = _imports_of(*argv)
    assert "qmarkoff.cyclotomic" in loaded
    assert loaded.isdisjoint({"qmarkoff.search", "qmarkoff.markoff", "qmarkoff.collide_json",
                              "csv", "dataclasses"})


def test_a_bound_error_exits_4_without_loading_the_search():
    loaded = _imports_of("residues", "--k", "5", "--max-len", "20000", exit_code=4)
    assert loaded.isdisjoint({"qmarkoff.search", "qmarkoff.markoff", "dataclasses"})


def test_verify_identities_never_loads_the_search_or_the_cyclotomic_layer():
    loaded = _imports_of("verify-identities", "--family", "all", "--cases", "20",
                         "--seed", "7")
    assert "qmarkoff.identities" in loaded
    assert loaded.isdisjoint({"qmarkoff.search", "qmarkoff.cyclotomic",
                              "qmarkoff.collide_json", "csv"})


def test_collide_never_loads_the_cyclotomic_layer():
    loaded = _imports_of("collide", "--map", "mu", "--max-len", "8")
    assert {"qmarkoff.search", "qmarkoff.collide_json"} <= loaded
    assert loaded.isdisjoint({"qmarkoff.cyclotomic", "qmarkoff.markoff", "csv"})


def test_version_loads_only_what_the_parser_needs():
    proc = _python("-X", "importtime", "-m", "qmarkoff.cli", "--version")
    assert (proc.returncode, proc.stdout) == (0, f"qmarkoff {qmarkoff.__version__}\n")
    assert "qmarkoff.search" not in proc.stderr
    assert "qmarkoff.cyclotomic" not in proc.stderr
    assert "qmarkoff.markoff" not in proc.stderr
    assert "qmarkoff.collide_json" not in proc.stderr


def test_every_public_name_is_its_defining_module_object():
    modules = {m: importlib.import_module(f"qmarkoff.{m}") for m in MODULES}
    assert len(set(qmarkoff.__all__)) == len(qmarkoff.__all__)
    for name in qmarkoff.__all__:
        value = getattr(qmarkoff, name)
        holders = [m for m in modules.values() if name in vars(m)]
        assert holders, name
        # every module that holds the name (its own or imported) holds this object
        assert all(getattr(m, name) is value for m in holders), name
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("qmarkoff."):
            assert getattr(modules[home.split(".", 1)[1]], name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qmarkoff import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qmarkoff.__all__)
    assert all(namespace[name] is getattr(qmarkoff, name) for name in namespace)


def test_dir_lists_every_public_name():
    assert set(qmarkoff.__all__) <= set(dir(qmarkoff))
    assert "__version__" in dir(qmarkoff)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmarkoff.no_such_name
    assert not hasattr(qmarkoff, "Tracer")
    # a submodule is still imported by name, not mistaken for an export
    from qmarkoff import words
    assert words.BINARY is qmarkoff.BINARY
