"""Workloads of the qmarkoff benchmark and the checks on their outputs.

Usage: python3 perfbench/checks.py --workload NAME --seed N < STDOUT

Reads one command's stdout and prints a JSON object with its SHA-256, the
problems found (an empty list when the output is correct), and the
output-fixed counts the traced run reports.  The benchmark pipes each
command's stdout straight into this process, so the benchmark process stays
small and the peak resident set it measures is the command's own.

The checks are independent of the program: they compare the digest with
the one recorded in ``perfbench/baseline.json`` (for ``identities`` only at
the default seed), compare summary values with the ones this file states,
and evaluate every census word and every identity verdict's two words at
q = 2 and q = 3 by plain integer 2x2 products written from the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]      # "{seed}" is replaced by the workload seed
    exit_code: int
    items: int                 # words searched or checked, or cases
    check: Callable[[dict, int], list[str]]

    def command(self, seed: int, jobs: Optional[str] = None) -> list[str]:
        argv = [a.replace("{seed}", str(seed)) for a in self.argv]
        if jobs is not None and "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = jobs
        return argv

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv


def _integer_letters(map_kind: str, q: int) -> dict[str, tuple]:
    """Letter matrices at an integer q, written from their definitions:
    a -> L = [[q, 0], [q, 1]], b -> R = [[q, 1], [0, 1]] for M, and
    a -> RL, b -> RRLL for mu."""
    lower = ((q, 0), (q, 1))
    upper = ((q, 1), (0, 1))
    if map_kind == "M":
        return {"a": lower, "b": upper}
    return {"a": _mul(upper, lower),
            "b": _mul(_mul(upper, upper), _mul(lower, lower))}


def _mul(x: tuple, y: tuple) -> tuple:
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]))


class IntegerEntry:
    """Upper-right entry of a word's matrix at an integer q, sharing prefixes."""

    def __init__(self, map_kind: str, q: int) -> None:
        self.letters = _integer_letters(map_kind, q)
        self.cache: dict[str, tuple] = {"": ((1, 0), (0, 1))}

    def matrix(self, w: str) -> tuple:
        m = self.cache.get(w)
        if m is None:
            m = _mul(self.matrix(w[:-1]), self.letters[w[-1]])
            self.cache[w] = m
        return m

    def __call__(self, w: str) -> int:
        return self.matrix(w)[0][1]


def _poly_at(poly: dict, q: int) -> Fraction | int:
    value = 0
    for c in reversed(poly["coeffs"]):
        value = value * q + int(c)
    low = int(poly["min_degree"])
    return value * q ** low if low >= 0 else Fraction(value, q ** -low)


_CHECK_POINTS = (2, 3)


def _census_check(map_kind: str, groups: int, pairs: int, unexplained: int):
    def check(payload: dict, seed: int) -> list[str]:
        problems = []
        summary = payload["summary"]
        want = {"groups": groups, "pairs": pairs, "unexplained": unexplained,
                "words_searched": 32767}
        for key, value in want.items():
            if summary[key] != value:
                problems.append(f"summary {key} is {summary[key]}, expected {value}")
        if len(payload["groups"]) != groups:
            problems.append(f"{len(payload['groups'])} groups listed, expected {groups}")
        kinds = [c["kind"] for c in payload["classifications"]]
        if len(kinds) != pairs:
            problems.append(f"{len(kinds)} classifications listed, expected {pairs}")
        if kinds.count("unexplained") != unexplained:
            problems.append("unexplained classifications disagree with the summary")
        if payload["unexplained_present"] != (unexplained > 0):
            problems.append("unexplained_present disagrees with the summary")
        for q in _CHECK_POINTS:
            entry = IntegerEntry(map_kind, q)
            for g in payload["groups"]:
                value = _poly_at(g["polynomial"], q)
                if len(g["words"]) < 2:
                    problems.append(f"group {g['words']} has fewer than two words")
                bad = [w for w in g["words"] if entry(w) != value]
                if bad:
                    problems.append(f"q={q}: words {bad[:3]} miss their group polynomial")
        return problems
    return check


_BAR = str.maketrans("abcd", "badc")


def _bar(w: str) -> str:
    return w[::-1].translate(_BAR)


def _delta_words(w: str, v: str) -> tuple[str, str]:
    """The two eta-bracketed words whose 12-entries the delta difference compares."""
    bw = _bar(w)
    eta = {"a": w + "abba", "b": w + "baab", "c": bw + "abba", "d": bw + "baab"}
    eta_prime = {"a": "abba" + w, "b": "baab" + w, "c": "abba" + bw, "d": "baab" + bw}
    lhs = "b" + "".join(eta[ch] for ch in v) + w + "b"
    rhs = "b" + w + "".join(eta_prime[ch] for ch in _bar(v)) + "b"
    return lhs, rhs


def _identities_check(payload: dict, seed: int) -> list[str]:
    problems = []
    for key, value in {"seed": seed, "cases": 2425, "failures": 0}.items():
        if payload[key] != value:
            problems.append(f"{key} is {payload[key]}, expected {value}")
    verdicts = payload["verdicts"]
    if len(verdicts) != payload["cases"]:
        problems.append(f"{len(verdicts)} verdicts for {payload['cases']} cases")
    entries = {(m, q): IntegerEntry(m, q) for m in ("M", "mu") for q in _CHECK_POINTS}
    for c in verdicts:
        family = c["family"]
        if family == "delta":
            lhs, rhs = _delta_words(c["w"], c["v"])
        else:
            lhs, rhs = c["lhs"], c["rhs"]
        map_kind = "M" if family in ("1M", "2M", "delta") else "mu"
        agree = all(entries[map_kind, q](lhs) == entries[map_kind, q](rhs)
                    for q in _CHECK_POINTS)
        if not (c["equal"] and agree):
            problems.append(f"verdict {c} (integer check agrees: {agree})")
    return problems


def _residues_check(payload: dict, seed: int) -> list[str]:
    want = {"k": 5, "max_len": 16, "words_checked": 131071, "violations": [],
            "distinct_values": 31, "classes_disjoint": True,
            "partition_sizes": {"0": 11, "1": 5, "2": 5, "3": 5, "4": 5}}
    return [f"{key} is {payload.get(key)!r}, expected {value!r}"
            for key, value in want.items() if payload.get(key) != value]


WORKLOADS = {w.name: w for w in (
    Workload("census-mu", ("collide", "--map", "mu", "--max-len", "14"),
             0, 32767, _census_check("mu", 3968, 3973, 0)),
    Workload("census-M", ("collide", "--map", "M", "--max-len", "14", "--jobs", "2"),
             3, 32767, _census_check("M", 8073, 81938, 3952)),
    Workload("identities", ("verify-identities", "--family", "all", "--cases", "500",
                            "--seed", "{seed}"),
             0, 2425, _identities_check),
    Workload("residues", ("residues", "--k", "5", "--max-len", "16", "--jobs", "2"),
             0, 131071, _residues_check),
)}


def output_facts(payload: dict) -> dict:
    """Output-fixed counts of one command, reported next to the layer metrics."""
    summary = payload.get("summary", {})
    pairs = summary.get("pairs", 0)
    direct = sum(summary.get(k, 0) for k in ("identity1", "identity2", "both"))
    return {
        "search.words_searched": summary.get("words_searched", 0),
        "search.colliding_words": summary.get("colliding_words", 0),
        "search.pairs": pairs,
        "search.unexplained": summary.get("unexplained", 0),
        "search.direct_explained_share": direct / pairs if pairs else 0.0,
        "cyclotomic.words_checked": payload.get("words_checked", 0),
    }


def load_baseline() -> dict:
    with open(BASELINE) as fh:
        return json.load(fh)


def check_stdout(workload: Workload, seed: int, stdout: bytes) -> dict:
    digest = hashlib.sha256(stdout).hexdigest()
    problems = []
    if not workload.seeded or seed == DEFAULT_SEED:
        recorded = load_baseline()["workloads"][workload.name]["digests"]
        for key in ("sha256", "sha256_jobs1"):
            if key in recorded and digest != recorded[key]:
                problems.append(f"stdout {key} {digest} differs from recorded {recorded[key]}")
    facts = {}
    try:
        payload = json.loads(stdout)
        problems += workload.check(payload, seed)
        facts = output_facts(payload)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return {"sha256": digest, "problems": problems, "facts": facts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    print("ready", flush=True)  # start-up is over; the timed command may start
    result = check_stdout(WORKLOADS[args.workload], args.seed, sys.stdin.buffer.read())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
