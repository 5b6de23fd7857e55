"""Command-line interface.

One binary with subcommands; JSON output is byte-deterministic for identical
invocations, all big integers are emitted as decimal strings, and CSV comes
with a header row.  Exit codes: 0 success, 1 verify-identities found a
failing case, 2 usage or validation error (including a --jobs value that
is not an integer >= 1), 3 unexplained collision pairs found (evidence
signal), 4 resource bound hit (``collide`` past its ``--safety-bound``;
``residues`` or ``figure2-data`` past ``--max-len`` 14283, the longest
length whose word count 2^(max_len+1) - 1 Python can print), 130
interrupted (SIGINT, e.g. Ctrl-C, also while the arguments are parsed), 141
stdout was closed before all of the output was written (e.g. piped into
head); neither prints a traceback.  ``markoff --depth`` below 0 is a
validation error (exit 2), while ``markoff --up-to`` below 1 prints the
empty list and exits 0: no Markoff number is that small.
``--jobs`` (default 1, read from no environment variable) is accepted by
every command and changes no output: every command runs in one process.

Each command loads only the modules it runs.  This module loads
``identities`` (with ``laurent``, ``qmatrix`` and ``words``); ``search``,
``cyclotomic``, ``markoff``, ``csv``, ``json`` and ``random`` are imported by
the commands and writers that use them, so ``residues`` never loads the
collision search, and neither ``collide`` nor ``verify-identities`` loads
the cyclotomic layer.

``collide`` writes its JSON in chunks as it renders them, straight from the
report's objects, classifying and writing the pairs one group at a time
from the group's table of verdicts (``search.GroupTable``: the kind and
witness text is made once per table entry, each word's text once per
group); every other command renders one value with ``_json_text``.  Both
give the bytes of ``json.dumps(..., sort_keys=True, indent=2)``.  Every
output form of ``collide`` classifies each collision group once: JSON and
human output as they write the pairs, CSV (which lists no pairs) for its
exit code, which the table's tallies give with no pass over the pairs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from . import __version__
# identities loads only laurent, qmatrix and words, which most commands use
# anyway; search, cyclotomic, markoff, csv, json and random are imported by
# the commands and writers that use them
from .identities import FAMILIES, alternating_words, delta, verify_family
from .qmatrix import M_q, mu_q
from .words import (BINARY, EXTENDED, BoundError, christoffel_words, letter_counts,
                    require_word, stern_brocot_fraction)

if TYPE_CHECKING:
    from .search import CollisionGroup, CollisionReport, GroupTable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EVIDENCE = 3
EXIT_RESOURCE = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports an interrupted command
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader closing early


# collide and residues call their computation through these module
# attributes (the benchmark's traced run wraps them here); each imports its
# module on first call.
def collide(*args, **kwargs):
    """``search.collide``."""
    from .search import collide
    return collide(*args, **kwargs)


def residue_relation_check(*args, **kwargs):
    """``cyclotomic.residue_relation_check``."""
    from .cyclotomic import residue_relation_check
    return residue_relation_check(*args, **kwargs)


def _json_writer() -> Callable[[object, str], str]:
    """A function render(value, newline) giving the text of
    ``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, with
    ``newline`` (a line break and the indent of the value's own level) in
    place of each line break; at the top level ``newline`` is "\n".

    The standard library writes indented JSON with its pure-Python encoder,
    one small string per token.  Here each dict, list or tuple is one
    ``str.join`` of its items' texts, strings use the C string encoder, each
    distinct string key is encoded once per writer, and a leaf other than a
    str, int, bool or None goes to ``json.dumps``, which writes leaves as the
    indented encoder does.
    """
    import json

    encode = json.encoder.encode_basestring_ascii
    key_heads: dict[str, str] = {}

    def head(key: object) -> str:
        if isinstance(key, str):
            text = key_heads[key] = encode(key) + ": "
            return text
        if key is None or isinstance(key, (int, float)):
            return encode(json.dumps(key)) + ": "
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")

    def render(value: object, newline: str) -> str:
        if type(value) is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        inner = newline + "  "
        if isinstance(value, dict):
            if not value:
                return "{}"
            return ("{" + inner + ("," + inner).join([
                (key_heads.get(k) or head(k))
                + (encode(v) if type(v) is str else render(v, inner))
                for k, v in sorted(value.items())]) + newline + "}")
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            return ("[" + inner + ("," + inner).join([
                encode(v) if type(v) is str else render(v, inner) for v in value])
                + newline + "]")
        return json.dumps(value)  # any other leaf, e.g. a float or a str subclass

    return render


def _json_text(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte (see
    ``_json_writer``)."""
    return _json_writer()(obj, "\n")


def _collide_json(report: CollisionReport) -> Iterator[str]:
    """``_json_text(report.to_json_dict()) + "\n"``, in chunks of text.

    The pairs come first in sorted-key order, so they are classified one
    group at a time (``report.group_tables``), written as one chunk and
    dropped; the summary after them reads the tallies of that pass.  A pair
    is one f-string of five pieces: the text before its bound (its kind),
    its bound, the text from its witness to x, x, and the text from y on.
    The kind and witness pieces are made once per table entry (a witness
    through one template per key set, keys in sorted order), and the word
    pieces once per word of the group.  A group is one template filled with
    its polynomial's coefficients and its words.  So neither the dict tree,
    the whole text nor the list of pairs is ever built; the groups go a
    chunk of at most 512 at a time."""
    import json

    from .search import Classification

    render = _json_writer()
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

    def items(chunks: Iterable[str]) -> Iterator[str]:
        # one chunk of text per nonempty list of values; "[]" when there are none.
        # A chunk is yielded as it is, not copied behind its separator.
        sep = "[\n    "
        for chunk in chunks:
            yield sep
            yield chunk
            sep = ",\n    "
        yield "[]" if sep == "[\n    " else "\n  ]"

    # the top-level keys in sorted order: these two, then the tail's four
    groups = report.groups
    yield '{\n  "classifications": '
    yield from items(map(pairs, report.group_tables()))
    yield ',\n  "groups": '
    yield from items(",\n    ".join(map(group, groups[i:i + 512]))
                     for i in range(0, len(groups), 512))
    tail = _json_text({"map": report.map_kind, "max_len": report.max_len,
                       "summary": report.summary(),
                       "unexplained_present": report.has_unexplained})
    yield ",\n" + tail[len("{\n"):] + "\n"


def _emit(fmt: str, json_of: Callable[[], object], header: list[str],
          rows: Iterable, human: Optional[Iterable[str]] = None) -> None:
    """Write one result to stdout in ``fmt``.

    Only the chosen format is built: ``json_of`` is called for JSON and
    returns the value to write, or an iterator of its text in chunks, which
    are written as they come; the CSV ``rows`` (below ``header``) and the
    ``human`` lines are iterated lazily.  A command without a human form
    (``human`` None) prints CSV instead.
    """
    if fmt == "json":
        value = json_of()
        if isinstance(value, Iterator):
            sys.stdout.writelines(value)
        else:
            print(_json_text(value))
    elif fmt == "csv" or human is None:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in human:
            print(line)


def _cmd_compute(args: argparse.Namespace) -> int:
    word = require_word(args.word, BINARY)
    mat = (M_q if args.map == "M" else mu_q)(word)
    entries = list(zip(("m11", "m12", "m21", "m22"), mat.entries()))
    _emit(args.format,
          lambda: {"map": args.map, "word": word, "matrix": mat.to_json_dict(),
                   "at_q1": {name: str(p.eval_at_one()) for name, p in entries}},
          ["entry", "min_degree", "coefficients"],
          ([name, p.min_degree, " ".join(map(str, p.coefficients))]
           for name, p in entries),
          (f"{name} = {p}" for name, p in entries))
    return EXIT_OK


def _cmd_christoffel(args: argparse.Namespace) -> int:
    words = christoffel_words(args.max_len)
    _emit(args.format,
          lambda: {"max_len": args.max_len, "count": len(words), "words": words},
          ["word", "length", "count_a", "count_b", "fraction"],
          ([w, len(w), *letter_counts(w), "{}/{}".format(*stern_brocot_fraction(w))]
           for w in words),
          words)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    from .cyclotomic import cone_of, eval_cyclotomic, recover_counts

    word = require_word(args.word, BINARY)
    poly = mu_q(word).m12
    value = eval_cyclotomic(poly, args.k)
    payload = {"word": word, "k": args.k, "polynomial": poly.to_json_dict(),
               "value": value.to_json_dict()}
    header = ["word", "k", "coords"]
    row = [word, args.k, " ".join(map(str, value.coords))]
    human = [f"mu_12({word}) = {poly}", f"value in Z[zeta_{args.k}]: {value}"]
    if args.k == 6:
        residue, counts = cone_of(value), recover_counts(value)
        payload["cone_residue"] = residue
        payload["counts"] = None if counts is None else {"a": counts[0], "b": counts[1]}
        header += ["cone_residue", "count_a", "count_b"]
        row += [residue, *(counts or (None, None))]
        human.append(f"cone residue: {residue}, counts: {payload['counts']}")
    _emit(args.format, lambda: payload, header, [row], human)
    return EXIT_OK


def _cmd_collide(args: argparse.Namespace) -> int:
    from .search import Classification

    report = collide(args.map, args.max_len, safety_bound=args.safety_bound,
                     classify=not args.no_classify)

    def human() -> Iterator[str]:
        yield (f"{len(report.groups)} groups, {report.pair_count} pairs "
               f"over {report.words_searched} words")
        empty = "''"
        for g in report.groups:
            yield "  {" + ", ".join(w or empty for w in g.words) + "}  " + str(g.polynomial)
        for pairs in report.group_pairs():
            for c in pairs:
                if c.kind is Classification.UNEXPLAINED:
                    yield f"  UNEXPLAINED: ({c.x or empty}, {c.y or empty})"

    def csv_rows() -> Iterator[list]:
        for i, g in enumerate(report.groups):
            poly = str(g.polynomial)  # once per group, not once per word
            for w in g.words:
                yield [i, w, len(w), poly]

    _emit(args.format, lambda: _collide_json(report),
          ["group", "word", "length", "polynomial"], csv_rows(), human())
    if report.has_unexplained:
        print(f"unexplained pairs present (searched w up to length "
              f"{report.w_search_bound})", file=sys.stderr)
        return EXIT_EVIDENCE
    return EXIT_OK


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    import random

    for name in ("cases", "max_w", "max_v", "max_kmn"):
        if getattr(args, name) < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0")
    rng = random.Random(args.seed)
    families = [*FAMILIES, "delta"] if args.family == "all" else [args.family]
    cases = []

    def rand_word(alphabet: str, max_len: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))

    for family in families:
        if family == "delta":
            for v in alternating_words(args.max_v):
                for wlen in range(args.max_w + 1):
                    w = rand_word(BINARY, wlen)
                    cases.append({"family": "delta", "w": w, "v": v,
                                  "equal": delta(w, v).is_zero()})
            continue
        names = FAMILIES[family][2]
        for _ in range(args.cases):
            # draw order: w, then k, m, n for every family, then v
            w = rand_word(BINARY, args.max_w)
            drawn = {name: rng.randint(0, args.max_kmn) for name in "kmn"}
            if "v" in names:
                drawn["v"] = rand_word(EXTENDED, args.max_v)
            params = {name: drawn[name] for name in names}
            x, y, equal = verify_family(family, w, *params.values())
            cases.append({"family": family, "w": w, **params,
                          "lhs": x, "rhs": y, "equal": equal})
    failures = [c for c in cases if not c["equal"]]
    _emit(args.format,
          lambda: {"seed": args.seed, "cases": len(cases),
                   "failures": len(failures), "verdicts": cases},
          ["family", "w", "v", "equal"],
          ([c["family"], c["w"], c.get("v", ""), c["equal"]] for c in cases),
          [f"{len(cases)} cases, {len(failures)} failures",
           *(f"  FAIL: {c}" for c in failures)])
    return EXIT_OK if not failures else 1


def _cmd_closure(args: argparse.Namespace) -> int:
    from .cyclotomic import monoid_closure

    result = monoid_closure(args.k, args.scaled, cap=args.cap)
    state = f"finite with {result.size} elements" if result.finite \
        else f"exceeded cap {result.cap}"
    _emit(args.format, result.to_json_dict, ["k", "scaled", "cap", "finite", "size"],
          [[result.k, result.scaled, result.cap, result.finite, result.size]],
          [f"closure at k={args.k} ({'scaled' if args.scaled else 'unscaled'}): {state}"])
    return EXIT_OK


def _cmd_residues(args: argparse.Namespace) -> int:
    report = residue_relation_check(args.k, args.max_len)
    if args.k == 5:
        header, rows = ["residue", "distinct_values"], sorted(report.partition_sizes.items())
    else:
        header = ["k", "max_len", "words_checked", "violations"]
        rows = [[report.k, report.max_len, report.words_checked, len(report.violations)]]
    if report.ok:
        human = [f"k={args.k}: no violations over {report.words_checked} words"]
    else:
        human = [f"k={args.k}: {len(report.violations)} violations: "
                 f"{list(report.violations)[:10]}"]
    if report.distinct_values is not None:
        human.append(f"distinct values: {report.distinct_values}, "
                     f"partition: {dict(sorted(report.partition_sizes.items()))}")
    _emit(args.format, report.to_json_dict, header, rows, human)
    return EXIT_OK


def _cmd_markoff(args: argparse.Namespace) -> int:
    from .markoff import markoff_numbers, markoff_numbers_up_to

    nums = (markoff_numbers(args.depth) if args.up_to is None
            else markoff_numbers_up_to(args.up_to))
    _emit(args.format, lambda: [str(n) for n in nums], ["markoff_number"],
          ([n] for n in nums), [", ".join(map(str, nums))])
    return EXIT_OK


def _cmd_figure2(args: argparse.Namespace) -> int:
    from .cyclotomic import figure2_rows

    rows = figure2_rows(args.max_len)
    _emit(args.format,
          lambda: [{"residue_class": r, "coords": list(coords),
                    "re_approx": f"{re:.15g}", "im_approx": f"{im:.15g}"}
                   for r, coords, re, im in rows],
          ["residue_class", "c0", "c1", "c2", "c3", "re_approx", "im_approx"],
          ([r, *coords, f"{re:.15g}", f"{im:.15g}"] for r, coords, re, im in rows))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of ``--jobs``: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkoff",
        description="Exact q-deformed Markoff machinery: matrix products over "
                    "binary words, Christoffel enumeration, cyclotomic evaluation, "
                    "identity verification and collision search.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str,
                format_default: str = "json") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "csv", "human"),
                       default=format_default)
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="changes no output: every command runs in one "
                            "process (default 1)")
        p.set_defaults(func=func)
        return p

    p = command("compute", _cmd_compute, "matrix of a word under either letter map")
    p.add_argument("--map", choices=("M", "mu"), default="mu")
    p.add_argument("--word", required=True)

    p = command("christoffel", _cmd_christoffel, "enumerate Christoffel words")
    p.add_argument("--max-len", type=int, required=True)

    p = command("eval", _cmd_eval, "cyclotomic evaluation of the mu 12-entry "
                                   "(with cone and recovered counts at k=6)")
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=6)

    p = command("collide", _cmd_collide, "exhaustive 12-entry collision search")
    p.add_argument("--map", choices=("M", "mu"), default="mu")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--safety-bound", type=int, default=16,
                   help="refuse searches beyond this length (default 16)")
    p.add_argument("--no-classify", action="store_true",
                   help="skip per-pair classification")

    p = command("verify-identities", _cmd_verify_identities,
                "randomized verification of the identity families")
    p.add_argument("--family", choices=(*FAMILIES, "delta", "all"), default="all")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-w", type=int, default=4)
    p.add_argument("--max-v", type=int, default=3)
    p.add_argument("--max-kmn", type=int, default=3)

    p = command("closure", _cmd_closure, "finite closure of the evaluated generators")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scaled", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--cap", type=int, default=10_000)

    p = command("residues", _cmd_residues,
                "residue-class correspondence checks (k in 2..5)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-len", type=int, default=10)

    p = command("markoff", _cmd_markoff, "Markoff numbers")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--depth", type=int)
    group.add_argument("--up-to", type=int)

    p = command("figure2-data", _cmd_figure2,
                "zeta_5 value cloud with exact coordinates and approximate "
                "floats (CSV by default)", format_default="csv")
    p.add_argument("--max-len", type=int, default=10)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # argparse's SystemExit (usage errors, --help, --version) passes through
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early: point stdout at devnull so the
        # final flush at exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
