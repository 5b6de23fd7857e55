import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmarkoff import cli, cyclotomic, search
from qmarkoff.cli import _json_text, main
from qmarkoff.cyclotomic import residue_relation_check
from qmarkoff.identities import FAMILIES
from qmarkoff.laurent import LaurentPoly
from qmarkoff.qmatrix import QMatrix
from qmarkoff.search import Classification, collide


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_headline_polynomial(capsys):
    code, out, _ = run_cli(capsys, "compute", "--map", "mu", "--word", "aabab")
    assert code == 0
    data = json.loads(out)
    assert data["at_q1"] == {"m11": "463", "m12": "194", "m21": "284", "m22": "119"}
    m12 = LaurentPoly.from_json_dict(data["matrix"]["m12"])
    assert m12.coefficients == (1, 4, 10, 18, 27, 33, 33, 29, 21, 12, 5, 1)
    assert QMatrix.from_json_dict(data["matrix"]).m12 == m12


def test_compute_invalid_word_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--word", "abc")
    assert code == 2
    assert "error:" in err


def test_compute_formats(capsys):
    code, out, _ = run_cli(capsys, "compute", "--word", "ab", "--format", "human")
    assert code == 0 and "m12" in out
    code, out, _ = run_cli(capsys, "compute", "--word", "ab", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["entry", "min_degree", "coefficients"]
    assert len(rows) == 5


def test_christoffel_listing(capsys):
    code, out, _ = run_cli(capsys, "christoffel", "--max-len", "4")
    assert code == 0
    data = json.loads(out)
    assert data["words"] == ["a", "b", "ab", "aab", "abb", "aaab", "abbb"]
    code, out, _ = run_cli(capsys, "christoffel", "--max-len", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["word", "length", "count_a", "count_b", "fraction"]
    assert rows[4] == ["aab", "3", "2", "1", "1/2"]


def test_eval_at_zeta6(capsys):
    code, out, _ = run_cli(capsys, "eval", "--word", "abb", "--k", "6")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == {"k": 6, "coords": [-2, -3]}
    assert data["cone_residue"] == 5
    assert data["counts"] == {"a": 1, "b": 2}


def test_eval_other_orders_have_no_cone(capsys):
    code, out, _ = run_cli(capsys, "eval", "--word", "abb", "--k", "3")
    data = json.loads(out)
    assert code == 0
    assert "cone_residue" not in data
    code, _, err = run_cli(capsys, "eval", "--word", "abb", "--k", "9")
    assert code == 2


def test_collide_mu_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "collide", "--map", "mu", "--max-len", "5")
    assert code == 0
    data = json.loads(out)
    groups = [g["words"] for g in data["groups"]]
    assert ["aaabb", "abaab"] in groups
    kinds = {(c["x"], c["y"]): c["kind"] for c in data["classifications"]}
    assert kinds[("aaabb", "abaab")] == "identity1"
    assert data["unexplained_present"] is False


def test_collide_M_exit_three(capsys):
    code, out, err = run_cli(capsys, "collide", "--map", "M", "--max-len", "5")
    assert code == 3
    data = json.loads(out)
    assert data["unexplained_present"] is True
    assert "unexplained" in err


def test_collide_resource_bound_exit(capsys):
    code, _, err = run_cli(capsys, "collide", "--map", "mu", "--max-len", "9",
                           "--safety-bound", "8")
    assert code == 4
    assert "safety bound" in err


def test_collide_negative_safety_bound_is_usage_error(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the check must refuse before any walk")

    monkeypatch.setattr(search, "walk_words", no_walk)
    monkeypatch.setattr(search, "max_entry_at_one", no_walk)
    assert run_cli(capsys, "collide", "--map", "M", "--max-len", "3",
                   "--safety-bound", "-1") == (2, "", "error: safety_bound must be >= 0\n")


@pytest.mark.parametrize("max_len", ["20000", "1000000000"])
def test_collide_refuses_huge_lengths_before_any_work(capsys, monkeypatch, max_len):
    def no_walk(*args):
        raise AssertionError("the guard must refuse before any walk")

    monkeypatch.setattr(search, "walk_words", no_walk)
    monkeypatch.setattr(search, "max_entry_at_one", no_walk)
    code, out, err = run_cli(capsys, "collide", "--map", "mu", "--max-len", max_len)
    assert code == 4
    assert out == ""
    assert f"error: max_len {max_len} exceeds the safety bound 16: 2^" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["residues --k 5", "figure2-data"])
@pytest.mark.parametrize("max_len", ["14284", "20000", "1000000000"])
def test_residues_refuse_huge_lengths_before_any_work(capsys, monkeypatch, command,
                                                      max_len):
    def no_walk(*args):
        raise AssertionError("the guard must refuse before any walk")

    monkeypatch.setattr(cyclotomic, "_residue_states", no_walk)
    code, out, err = run_cli(capsys, *command.split(), "--max-len", max_len)
    assert code == 4
    assert out == ""
    assert err == (f"error: max_len {max_len} exceeds 14283, the longest length "
                   f"whose word count 2^(max_len+1) - 1 can be printed\n")


def test_residues_print_the_word_count_at_the_length_bound(capsys):
    code, out, _ = run_cli(capsys, "residues", "--k", "2", "--max-len", "14283",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == f"2,14283,{2 ** 14284 - 1},0"


def test_collide_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "collide", "--map", "mu", "--max-len", "6")
    _, second, _ = run_cli(capsys, "collide", "--map", "mu", "--max-len", "6")
    assert first == second


def test_verify_identities_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-identities", "--family", "all",
                           "--cases", "5", "--max-w", "3", "--max-v", "2")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["cases"] >= 20
    families = {v["family"] for v in data["verdicts"]}
    assert families == {"1M", "1mu", "2M", "2mu", "delta"}


def test_verify_identities_deterministic_given_seed(capsys):
    args = ("verify-identities", "--family", "2mu", "--cases", "8", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_closure_cli(capsys):
    code, out, _ = run_cli(capsys, "closure", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"k": 2, "scaled": True, "cap": 10000,
                               "finite": True, "size": 3}
    code, out, _ = run_cli(capsys, "closure", "--k", "6", "--cap", "200")
    data = json.loads(out)
    assert code == 0 and data["finite"] is False and data["size"] is None


def test_residues_cli(capsys):
    code, out, _ = run_cli(capsys, "residues", "--k", "2", "--max-len", "7")
    assert code == 0
    assert json.loads(out)["violations"] == []
    code, out, _ = run_cli(capsys, "residues", "--k", "5", "--max-len", "10")
    data = json.loads(out)
    assert code == 0
    assert data["distinct_values"] == 31
    assert data["partition_sizes"] == {"0": 11, "1": 5, "2": 5, "3": 5, "4": 5}


def test_markoff_cli(capsys):
    code, out, _ = run_cli(capsys, "markoff", "--depth", "0")
    assert code == 0 and json.loads(out) == ["1"]
    code, out, _ = run_cli(capsys, "markoff", "--up-to", "200")
    assert json.loads(out) == ["1", "2", "5", "13", "29", "34", "89", "169", "194"]


def test_figure2_csv(capsys):
    code, out, _ = run_cli(capsys, "figure2-data", "--max-len", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["residue_class", "c0", "c1", "c2", "c3",
                       "re_approx", "im_approx"]
    assert len(rows) == 32  # header plus the 31 distinct values
    origin_rows = [r for r in rows[1:] if r[1:5] == ["0", "0", "0", "0"]]
    assert len(origin_rows) == 1 and origin_rows[0][0] == "0"


def test_figure2_output_is_independent_of_jobs(capsys):
    outs = [run_cli(capsys, "figure2-data", "--max-len", "10", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["collide"])  # missing required --max-len
    assert exc.value.code == 2


def test_eval_human_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--word", "abb", "--format", "human")
    assert code == 0
    assert "cone residue: 5" in out


def test_jobs_default_from_environment(monkeypatch):
    from qmarkoff import cli

    # --jobs changes no output, so no environment variable sets it: even a
    # value that --jobs would refuse is ignored
    monkeypatch.setenv("QMARKOFF_JOBS", "x")
    assert cli.build_parser().parse_args(["collide", "--max-len", "4"]).jobs == 1
    # a bad value on the command line is a usage error (exit 2), not a
    # traceback and not a silent serial run
    for bad in ("x", "0", "-2"):
        for command in (["collide", "--max-len", "4"], ["residues", "--k", "3"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--jobs", bad])
            assert exc.value.code == 2


def test_verify_identities_verdicts_carry_words(capsys):
    code, out, _ = run_cli(capsys, "verify-identities", "--family", "1mu",
                           "--cases", "3", "--seed", "1")
    data = json.loads(out)
    assert code == 0
    for verdict in data["verdicts"]:
        assert verdict["lhs"].startswith("a") and verdict["lhs"].endswith("b")
        assert sorted(verdict["lhs"]) == sorted(verdict["rhs"])
        assert verdict["equal"] is True


@pytest.mark.parametrize("flag", ["--cases", "--max-w", "--max-v", "--max-kmn"])
def test_verify_identities_rejects_negative_counts(capsys, flag):
    code, out, err = run_cli(capsys, "verify-identities", flag, "-1")
    assert code == 2
    assert out == ""
    assert f"{flag} must be >= 0" in err


def _start_cli(*argv):
    """Start the CLI in a child process, with stdout and stderr pipes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "qmarkoff.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def _close_stdout_after_first_line(*argv):
    """Run the CLI with stdout a pipe closed after its first line; return
    that line, the exit code and stderr."""
    proc = _start_cli(*argv)
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return line, proc.wait(timeout=60), err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_closed_stdout_exits_without_traceback():
    # about 1.6 MB are still to come after the first line
    line, code, err = _close_stdout_after_first_line(
        "christoffel", "--max-len", "200", "--format", "human")
    assert line == b"a\n"
    assert code == 141
    assert "Traceback" not in err


def test_closed_stdout_exits_without_traceback_mid_stream():
    # the collide JSON is written in chunks; megabytes are still to come
    line, code, err = _close_stdout_after_first_line("collide", "--map", "M",
                                                     "--max-len", "12")
    assert line == b"{\n"
    assert code == 141
    assert "Traceback" not in err


def test_interrupt_exits_130_without_traceback():
    # census-M writes 18.8 MB of JSON: with the pipe unread, it is still
    # writing when the signal comes
    proc = _start_cli("collide", "--map", "M", "--max-len", "14")
    try:
        first = proc.stdout.read(1)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert first == b"{"
    assert proc.returncode == 130
    assert err.decode().splitlines() == ["interrupted"]


def test_interrupt_while_parsing_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_parser", interrupted)
    assert run_cli(capsys, "residues", "--k", "5") == (130, "", "interrupted\n")


def test_bound_errors_share_one_base(monkeypatch):
    from qmarkoff.words import BoundError

    assert issubclass(search.SearchBoundError, BoundError)
    assert issubclass(cyclotomic.ResidueBoundError, BoundError)

    # exit 4 is for bound errors only: any other RuntimeError is a fault
    def recursing(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "residue_relation_check", recursing)
    with pytest.raises(RecursionError):
        main(["residues", "--k", "5"])


def test_collide_csv_renders_each_polynomial_once(capsys, monkeypatch):
    rendered = []

    def counting_str(poly):
        rendered.append(poly)
        return to_text(poly)

    to_text = LaurentPoly.__str__
    monkeypatch.setattr(LaurentPoly, "__str__", counting_str)
    code, out, _ = run_cli(capsys, "collide", "--map", "M", "--max-len", "10",
                           "--format", "csv")
    groups = collide("M", 10, classify=False).groups
    assert code == 3
    assert len(rendered) == len(groups)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows == [[str(i), w, str(len(w)), to_text(g.polynomial)]
                    for i, g in enumerate(groups) for w in g.words]


@pytest.mark.parametrize("map_kind", ["M", "mu"])
@pytest.mark.parametrize("classify", [True, False], ids=["classify", "no-classify"])
def test_collide_json_streams_the_json_writer_bytes(capsys, monkeypatch, map_kind,
                                                    classify):
    reports = []

    def recording_collide(*args, **kwargs):
        # the JSON form takes the unchecked report (checked=False) and checks it itself
        reports.append(cli_collide(*args, **kwargs))
        return reports[-1]

    cli_collide = cli.collide
    monkeypatch.setattr(cli, "collide", recording_collide)
    outputs = []
    for max_len in range(13):
        argv = ["collide", "--map", map_kind, "--max-len", str(max_len)]
        main(argv if classify else [*argv, "--no-classify"])
        outputs.append(capsys.readouterr().out)
        assert outputs[-1] == _json_text(reports[-1].to_json_dict()) + "\n", max_len
    # empty lists: no pairs (mu at lengths 0..4, or unclassified) and, for M,
    # the zero polynomial of the group of a^n
    assert '"classifications": []' in outputs[0]
    assert '"groups": []' in outputs[0]
    assert ('"coeffs": []' in outputs[12]) == (map_kind == "M")


def _materialised_output(report, fmt):
    """(exit code, stdout, stderr) of ``collide`` rendered from the list of
    every pair of a fresh report, as the command wrote it when the report
    held them all."""
    pairs = report.classifications
    unexplained = [c for c in pairs if c.kind is Classification.UNEXPLAINED]
    if fmt == "json":
        out = _json_text(report.to_json_dict()) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["group", "word", "length", "polynomial"])
        writer.writerows([i, w, len(w), str(g.polynomial)]
                         for i, g in enumerate(report.groups) for w in g.words)
        out = buffer.getvalue()
    else:
        summary = report.summary()
        lines = [f"{summary['groups']} groups, {summary['pairs']} pairs "
                 f"over {summary['words_searched']} words"]
        lines += ["  {" + ", ".join(w or "''" for w in g.words) + "}  " + str(g.polynomial)
                  for g in report.groups]
        lines += [f"  UNEXPLAINED: ({c.x or repr('')}, {c.y or repr('')})" for c in unexplained]
        out = "".join(line + "\n" for line in lines)
    if not unexplained:
        return 0, out, ""
    bound = max(c.w_search_bound for c in pairs)
    return 3, out, f"unexplained pairs present (searched w up to length {bound})\n"


@pytest.mark.parametrize("map_kind", ["M", "mu"])
def test_collide_output_equals_the_materialised_report(capsys, monkeypatch, map_kind):
    # the command classifies and writes one group at a time; every form must
    # give what the list of all pairs gives, classifying each group once
    calls = []

    def counting_classify(*args):
        calls.append(args)
        return classify_group(*args)

    classify_group = search._classify_group
    monkeypatch.setattr(search, "_classify_group", counting_classify)
    for max_len in range(13):
        expected_report = collide(map_kind, max_len)
        for fmt in ("json", "human", "csv"):
            expected = _materialised_output(expected_report, fmt)
            calls.clear()
            code = main(["collide", "--map", map_kind, "--max-len", str(max_len),
                         "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected, (max_len, fmt)
            assert len(calls) == len(expected_report.groups), (max_len, fmt)
    # empty lists still render as []
    main(["collide", "--map", map_kind, "--max-len", "0"])
    assert '"classifications": []' in capsys.readouterr().out


def _traced_peak(argv):
    """Peak bytes traced by tracemalloc while ``main(argv)`` runs, its
    stdout written to the null device."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_collide_holds_one_group_of_pairs_at_a_time():
    # held pairs would make classifying cost about twice the scan's memory
    argv = ["collide", "--map", "M", "--max-len", "12"]
    assert _traced_peak(argv) <= 1.6 * _traced_peak([*argv, "--no-classify"])


json_strings = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é", "\u2028", "日本", "\U0001f600"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2 ** 64, max_value=2 ** 200)
    | st.integers(min_value=-(2 ** 200), max_value=-1)
    | st.floats(allow_nan=False, allow_infinity=False) | json_strings,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(json_strings, inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=30)


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@given(json_values)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {}, ()], "": [{"x": []}]})
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


def test_json_writer_matches_json_dumps_on_reports():
    for report in (collide("M", 10), collide("mu", 12), residue_relation_check(5, 10)):
        data = report.to_json_dict()
        assert _json_text(data) == _dumps(data)


_FUZZ_INTS = st.integers(-3, 8).map(str)
_FUZZ_WORDS = st.text(alphabet="abz", max_size=6)
_FUZZ_MAPS = st.sampled_from(["M", "mu"])
#: Each subcommand's flags, each with the values drawn for it (None: a flag
#: with no value).  Every flag is drawn or left out, required ones too, except
#: --cap: the default closure cap of 10,000 elements is not a short run.
#: --max-v stays <= 3: the delta family checks every word of up to --max-v
#: letter pairs, 4^max_v of them at the longest.
_FUZZ_GRAMMAR = {
    "compute": {"--map": _FUZZ_MAPS, "--word": _FUZZ_WORDS},
    "christoffel": {"--max-len": _FUZZ_INTS},
    "eval": {"--word": _FUZZ_WORDS, "--k": _FUZZ_INTS},
    "collide": {"--map": _FUZZ_MAPS, "--max-len": _FUZZ_INTS,
                "--safety-bound": _FUZZ_INTS, "--no-classify": None},
    "verify-identities": {"--family": st.sampled_from([*FAMILIES, "delta", "all"]),
                          "--cases": _FUZZ_INTS, "--seed": _FUZZ_INTS,
                          "--max-w": _FUZZ_INTS, "--max-v": st.integers(-3, 3).map(str),
                          "--max-kmn": _FUZZ_INTS},
    "closure": {"--k": _FUZZ_INTS, "--no-scaled": None},
    "residues": {"--k": _FUZZ_INTS, "--max-len": _FUZZ_INTS},
    "markoff": {"--depth": _FUZZ_INTS, "--up-to": _FUZZ_INTS},
    "figure2-data": {"--max-len": _FUZZ_INTS},
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_GRAMMAR)))
    flags = {**_FUZZ_GRAMMAR[command], "--format": st.sampled_from(["json", "csv", "human"]),
             "--jobs": _FUZZ_INTS}
    argv = [command]
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    if command == "closure":
        argv += ["--cap", draw(_FUZZ_INTS)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_fuzz_argv())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    assert code in {0, 1, 2, 3, 4}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3 * cli.WRITE_CHARS), max_size=12))
@example([cli.WRITE_CHARS - 1, 1, cli.WRITE_CHARS, 0, 2 * cli.WRITE_CHARS + 5, 3])
def test_writes_cut_the_text_into_strings_of_one_size(sizes):
    pieces = [chr(ord("a") + i % 26) * n for i, n in enumerate(sizes)]
    writes = list(cli._writes(iter(pieces)))
    assert "".join(writes) == "".join(pieces)
    # every write but the last fills WRITE_CHARS; none is empty
    assert all(len(w) == cli.WRITE_CHARS for w in writes[:-1])
    assert all(0 < len(w) <= cli.WRITE_CHARS for w in writes)
