"""Command-line interface.

One binary with subcommands; JSON output is byte-deterministic for identical
invocations, all big integers are emitted as decimal strings, and CSV comes
with a header row.  Exit codes: 0 success, 1 verify-identities found a
failing case, 2 usage or validation error (including a bad QMARKOFF_JOBS),
3 unexplained collision pairs found (evidence signal), 4 resource bound hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from . import __version__
from .cyclotomic import (cone_of, eval_cyclotomic, figure2_rows,
                         monoid_closure, recover_counts, residue_relation_check)
from .identities import (alternating_words, delta, identity1_M_words,
                         identity1_mu_words, identity2_M_words,
                         identity2_mu_words)
from .markoff import markoff_numbers, markoff_numbers_up_to
from .qmatrix import M_q, mu_q
from .search import SearchBoundError, collide
from .words import (BINARY, EXTENDED, christoffel_words, letter_counts,
                    require_word, stern_brocot_fraction)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EVIDENCE = 3
EXIT_RESOURCE = 4


def _print_json(data: object) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _print_csv(header: list[str], rows: list[list]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _cmd_compute(args: argparse.Namespace) -> int:
    word = require_word(args.word, BINARY)
    mat = (M_q if args.map == "M" else mu_q)(word)
    q1 = mat.at_one()
    payload = {
        "map": args.map,
        "word": word,
        "matrix": mat.to_json_dict(),
        "at_q1": {"m11": str(q1[0][0]), "m12": str(q1[0][1]),
                  "m21": str(q1[1][0]), "m22": str(q1[1][1])},
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [[name, p.min_degree, " ".join(str(c) for c in p.coefficients)]
                for name, p in zip(("m11", "m12", "m21", "m22"), mat.entries())]
        _print_csv(["entry", "min_degree", "coefficients"], rows)
    else:
        for name, p in zip(("m11", "m12", "m21", "m22"), mat.entries()):
            print(f"{name} = {p}")
    return EXIT_OK


def _cmd_christoffel(args: argparse.Namespace) -> int:
    words = christoffel_words(args.max_len)
    if args.format == "json":
        _print_json({"max_len": args.max_len, "count": len(words), "words": words})
    elif args.format == "csv":
        rows = []
        for w in words:
            na, nb = letter_counts(w)
            num, den = stern_brocot_fraction(w)
            rows.append([w, len(w), na, nb, f"{num}/{den}"])
        _print_csv(["word", "length", "count_a", "count_b", "fraction"], rows)
    else:
        print("\n".join(words))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    word = require_word(args.word, BINARY)
    poly = mu_q(word).m12
    value = eval_cyclotomic(poly, args.k)
    payload = {"word": word, "k": args.k, "polynomial": poly.to_json_dict(),
               "value": value.to_json_dict()}
    if args.k == 6:
        residue = cone_of(value)
        counts = recover_counts(value)
        payload["cone_residue"] = residue
        payload["counts"] = None if counts is None else {"a": counts[0], "b": counts[1]}
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        row = [word, args.k, " ".join(str(c) for c in value.coords)]
        header = ["word", "k", "coords"]
        if args.k == 6:
            header += ["cone_residue", "count_a", "count_b"]
            counts = payload["counts"]
            row += [payload["cone_residue"],
                    None if counts is None else counts["a"],
                    None if counts is None else counts["b"]]
        _print_csv(header, [row])
    else:
        print(f"mu_12({word}) = {poly}")
        print(f"value in Z[zeta_{args.k}]: {value}")
        if args.k == 6:
            print(f"cone residue: {payload['cone_residue']}, counts: {payload['counts']}")
    return EXIT_OK


def _cmd_collide(args: argparse.Namespace) -> int:
    report = collide(args.map, args.max_len, jobs=args.jobs,
                     safety_bound=args.safety_bound, classify=not args.no_classify)
    if args.format == "json":
        _print_json(report.to_json_dict())
    elif args.format == "csv":
        rows = []
        for i, g in enumerate(report.groups):
            for w in g.words:
                rows.append([i, w, len(w), str(g.polynomial)])
        _print_csv(["group", "word", "length", "polynomial"], rows)
    else:
        summary = report.summary()
        print(f"{summary['groups']} groups, {summary['pairs']} pairs "
              f"over {summary['words_searched']} words")
        empty = "''"
        for g in report.groups:
            print("  {" + ", ".join(w or empty for w in g.words) + "}  " + str(g.polynomial))
        for c in report.classifications:
            if c.kind.value == "unexplained":
                print(f"  UNEXPLAINED: ({c.x or empty}, {c.y or empty})")
    if report.has_unexplained:
        print(f"unexplained pairs present (searched w up to length "
              f"{max((c.w_search_bound for c in report.classifications), default=0)})",
              file=sys.stderr)
        return EXIT_EVIDENCE
    return EXIT_OK


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    families = (["1M", "1mu", "2M", "2mu", "delta"]
                if args.family == "all" else [args.family])
    cases = []

    def rand_word(alphabet: str, max_len: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))

    for family in families:
        if family == "delta":
            for v in alternating_words(args.max_v):
                for wlen in range(args.max_w + 1):
                    w = rand_word(BINARY, wlen)
                    value = delta(w, v)
                    cases.append({"family": "delta", "w": w, "v": v,
                                  "equal": value.is_zero()})
            continue
        for _ in range(args.cases):
            w = rand_word(BINARY, args.max_w)
            k, m, n = (rng.randint(0, args.max_kmn) for _ in range(3))
            if family == "1M":
                x, y = identity1_M_words(w, k, m, n)
                equal = M_q(x).m12 == M_q(y).m12
                case = {"family": family, "w": w, "k": k, "m": m, "n": n,
                        "lhs": x, "rhs": y, "equal": equal}
            elif family == "1mu":
                x, y = identity1_mu_words(w)
                equal = mu_q(x).m12 == mu_q(y).m12
                case = {"family": family, "w": w, "lhs": x, "rhs": y, "equal": equal}
            elif family == "2M":
                v = rand_word(EXTENDED, args.max_v)
                x, y = identity2_M_words(w, v, k, m, n)
                equal = M_q(x).m12 == M_q(y).m12
                case = {"family": family, "w": w, "v": v, "k": k, "m": m, "n": n,
                        "lhs": x, "rhs": y, "equal": equal}
            else:
                v = rand_word(EXTENDED, args.max_v)
                x, y = identity2_mu_words(w, v)
                equal = mu_q(x).m12 == mu_q(y).m12
                case = {"family": family, "w": w, "v": v,
                        "lhs": x, "rhs": y, "equal": equal}
            cases.append(case)
    failures = [c for c in cases if not c["equal"]]
    payload = {"seed": args.seed, "cases": len(cases),
               "failures": len(failures), "verdicts": cases}
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [[c["family"], c.get("w", ""), c.get("v", ""), c["equal"]] for c in cases]
        _print_csv(["family", "w", "v", "equal"], rows)
    else:
        print(f"{len(cases)} cases, {len(failures)} failures")
        for c in failures:
            print(f"  FAIL: {c}")
    return EXIT_OK if not failures else 1


def _cmd_closure(args: argparse.Namespace) -> int:
    result = monoid_closure(args.k, args.scaled, cap=args.cap)
    if args.format == "json":
        _print_json(result.to_json_dict())
    elif args.format == "csv":
        _print_csv(["k", "scaled", "cap", "finite", "size"],
                   [[result.k, result.scaled, result.cap, result.finite, result.size]])
    else:
        state = f"finite with {result.size} elements" if result.finite \
            else f"exceeded cap {result.cap}"
        print(f"closure at k={args.k} ({'scaled' if args.scaled else 'unscaled'}): {state}")
    return EXIT_OK


def _cmd_residues(args: argparse.Namespace) -> int:
    report = residue_relation_check(args.k, args.max_len, jobs=args.jobs)
    if args.format == "json":
        _print_json(report.to_json_dict())
    elif args.format == "csv":
        if args.k == 5:
            rows = [[r, n] for r, n in sorted(report.partition_sizes.items())]
            _print_csv(["residue", "distinct_values"], rows)
        else:
            _print_csv(["k", "max_len", "words_checked", "violations"],
                       [[report.k, report.max_len, report.words_checked,
                         len(report.violations)]])
    else:
        if report.ok:
            print(f"k={args.k}: no violations over {report.words_checked} words")
        else:
            print(f"k={args.k}: {len(report.violations)} violations: "
                  f"{list(report.violations)[:10]}")
        if report.distinct_values is not None:
            print(f"distinct values: {report.distinct_values}, "
                  f"partition: {dict(sorted(report.partition_sizes.items()))}")
    return EXIT_OK


def _cmd_markoff(args: argparse.Namespace) -> int:
    if args.up_to is not None:
        nums = markoff_numbers_up_to(args.up_to)
    else:
        nums = markoff_numbers(args.depth)
    if args.format == "json":
        _print_json([str(n) for n in nums])
    elif args.format == "csv":
        _print_csv(["markoff_number"], [[n] for n in nums])
    else:
        print(", ".join(str(n) for n in nums))
    return EXIT_OK


def _cmd_figure2(args: argparse.Namespace) -> int:
    rows = figure2_rows(args.max_len)
    if args.format == "json":
        _print_json([{"residue_class": r, "coords": list(coords),
                      "re_approx": f"{re:.15g}", "im_approx": f"{im:.15g}"}
                     for r, coords, re, im in rows])
    else:
        table = [[r, *coords, f"{re:.15g}", f"{im:.15g}"]
                 for r, coords, re, im in rows]
        _print_csv(["residue_class", "c0", "c1", "c2", "c3",
                    "re_approx", "im_approx"], table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkoff",
        description="Exact q-deformed Markoff machinery: matrix products over "
                    "binary words, Christoffel enumeration, cyclotomic evaluation, "
                    "identity verification and collision search.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    def add_common(p: argparse.ArgumentParser, format_default: str = "json") -> None:
        p.add_argument("--format", choices=("json", "csv", "human"),
                       default=format_default)
        p.add_argument("--jobs", type=int,
                       default=os.environ.get("QMARKOFF_JOBS", "1"),
                       help="worker processes (default from QMARKOFF_JOBS, else 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute",
                       help="matrix of a word under either letter map")
    add_common(p)
    p.add_argument("--map", choices=("M", "mu"), default="mu")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("christoffel", help="enumerate Christoffel words")
    add_common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_christoffel)

    p = sub.add_parser("eval",
                       help="cyclotomic evaluation of the mu 12-entry "
                            "(with cone and recovered counts at k=6)")
    add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=6)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("collide", help="exhaustive 12-entry collision search")
    add_common(p)
    p.add_argument("--map", choices=("M", "mu"), default="mu")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--safety-bound", type=int, default=16,
                   help="refuse searches beyond this length (default 16)")
    p.add_argument("--no-classify", action="store_true",
                   help="skip per-pair classification")
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("verify-identities",
                       help="randomized verification of the identity families")
    add_common(p)
    p.add_argument("--family", choices=("1M", "1mu", "2M", "2mu", "delta", "all"),
                   default="all")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-w", type=int, default=4)
    p.add_argument("--max-v", type=int, default=3)
    p.add_argument("--max-kmn", type=int, default=3)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("closure",
                       help="finite closure of the evaluated generators")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scaled", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--cap", type=int, default=10_000)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("residues",
                       help="residue-class correspondence checks (k in 2..5)")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-len", type=int, default=10)
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("markoff", help="Markoff numbers")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--depth", type=int)
    group.add_argument("--up-to", type=int)
    p.set_defaults(func=_cmd_markoff)

    p = sub.add_parser("figure2-data",
                       help="zeta_5 value cloud with exact coordinates and "
                            "approximate floats (CSV by default)")
    add_common(p, format_default="csv")
    p.add_argument("--max-len", type=int, default=10)
    p.set_defaults(func=_cmd_figure2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
