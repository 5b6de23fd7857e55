"""Exhaustive collision search over binary words for the two matrix maps,
classification of colliding pairs against the identity families, and the
Christoffel injectivity experiment.

The enumeration runs on the packed product engine of ``qmatrix``: the first
row of each word's matrix, which holds the 12-entry, at q = 2^shift (one
limb of ``shift`` bits per coefficient) is its parent's stepped through the
M letters its last letter stands for, by shift and add
(``qmatrix.packed_step``), with no matrix product.  Both letter maps have
entries in N[q], and the limb width is the bit length of
``qmatrix.max_entry_at_one``, the largest q = 1 entry of any word up to
max_len (exact for both maps: F(max_len + 1) for M, an entry of b^max_len
for mu), which bounds every coefficient: packing is injective.
Groups are keyed by the packed upper-right entry, unpacked once per group,
and re-verified afterwards on an independent route: every
colliding word's 12-entry is recomputed by the same ``walk_words``, pruned
to the prefixes of the colliding words, carrying only the first row of the
word's matrix, which holds the 12-entry, as plain coefficient tuples.  Each
step multiplies that row by the M letters (a mu letter by those of its sigma
image) through shift and add, with no multiplication
(``qmatrix.first_row_step``): one step per distinct nonempty prefix.  The
row's 12-entry is compared with its group polynomial's coefficient tuple.

Inner words cut from validated words go to the unchecked forms of
``bar``, ``partner``, ``phi`` and ``psi``, which skip ``require_word``.

Each group is classified by one pass, ``_classify_group``: every word is
bracketed once, each word that can be explained with a later one gets one
table (the involution image of its inner word and its identity-2 partner
inner words), each pair is two lookups, and a union-find over the explained
pairs in the same pass marks the chains.  ``classify_pair`` is that pass on
a group of two.  The report holds no pairs: ``CollisionReport.group_pairs``
classifies one group at a time and tallies what the summary needs, so a
census's memory grows with its words, not with its pairs.

The scan runs in the calling process, whatever ``--jobs`` says: it costs one
packed step per word, and worker processes would have to pickle every
word's bucket back to the parent, whose unpickling and merging measured
slower than the serial scan at every length the default safety bound allows.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Iterator, NamedTuple, Optional

from .cyclotomic import eval_cyclotomic
from .identities import _partner, _phi, _psi
from .laurent import LaurentPoly
from .qmatrix import (IMAGES, M_q, Mat2, first_row_step, max_entry_at_one, mu_q,
                      packed_step, unpack_poly, walk_words)
from .words import (BINARY, _bar, apply_morphism, christoffel_fold, letter_counts,
                    mirror, require_word)


class Classification(str, Enum):
    IDENTITY1 = "identity1"
    IDENTITY2 = "identity2"
    BOTH = "both"
    CHAIN = "chain"          # explained only by composing family identities
    UNEXPLAINED = "unexplained"


class PairClassification(NamedTuple):
    x: str
    y: str
    kind: Classification
    witness: Optional[dict] = None
    w_search_bound: int = 0

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "kind": self.kind.value,
                "witness": self.witness, "w_search_bound": self.w_search_bound}


@dataclass(frozen=True)
class CollisionGroup:
    polynomial: LaurentPoly
    words: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"polynomial": self.polynomial.to_json_dict(),
                "words": list(self.words)}


@dataclass
class CollisionReport:
    """The collision groups of one search and, unless ``classify`` is off,
    the classification of their pairs.

    The pairs are not stored: ``group_pairs`` classifies them one group at
    a time and tallies them as it goes, and ``summary``, ``has_unexplained``
    and ``w_search_bound`` read those tallies, classifying every group once
    more only if no pass has finished yet.  ``classifications`` is the list
    of every pair, built by one such pass when first read."""

    map_kind: str
    max_len: int
    groups: list[CollisionGroup]
    words_searched: int
    classify: bool = True
    _tallies: Optional[tuple[Counter, int]] = field(default=None, init=False,
                                                    repr=False, compare=False)

    def group_pairs(self) -> Iterator[list[PairClassification]]:
        """Yield each group's classified pairs (``_classify_group``), group
        by group in report order; once the last group is yielded, keep the
        count of each kind and the largest ``w_search_bound``."""
        counts: Counter = Counter()
        bound = 0
        if self.classify:
            for g in self.groups:
                pairs = _classify_group(self.map_kind, g.words)
                counts.update([c.kind for c in pairs])
                # the last pair holds the group's longest word: the largest bound
                bound = max(bound, pairs[-1].w_search_bound)
                yield pairs
        self._tallies = counts, bound

    def _tally(self) -> tuple[Counter, int]:
        if self._tallies is None:
            for _ in self.group_pairs():
                pass
        return self._tallies

    @cached_property
    def classifications(self) -> list[PairClassification]:
        return [c for pairs in self.group_pairs() for c in pairs]

    @property
    def pair_count(self) -> int:
        """The number of pairs classified: every pair of every group, or
        none when ``classify`` is off."""
        if not self.classify:
            return 0
        return sum(len(g.words) * (len(g.words) - 1) // 2 for g in self.groups)

    @property
    def has_unexplained(self) -> bool:
        return self._tally()[0][Classification.UNEXPLAINED] > 0

    @property
    def w_search_bound(self) -> int:
        """The longest w any pair's identity-2 search allowed (0 without pairs)."""
        return self._tally()[1]

    def summary(self) -> dict:
        counts = self._tally()[0]
        return {"groups": len(self.groups),
                "colliding_words": sum(len(g.words) for g in self.groups),
                "pairs": self.pair_count,
                "words_searched": self.words_searched,
                **{kind.value: counts[kind] for kind in Classification}}

    def group_of(self, word: str) -> Optional[CollisionGroup]:
        for g in self.groups:
            if word in g.words:
                return g
        return None

    def to_json_dict(self) -> dict:
        # the pairs first: the pass that lists them leaves the summary's tallies
        pairs = [c.to_json_dict() for c in self.classifications]
        return {"map": self.map_kind, "max_len": self.max_len,
                "summary": self.summary(),
                "groups": [g.to_json_dict() for g in self.groups],
                "classifications": pairs,
                "unexplained_present": self.has_unexplained}


#: Peak resident bytes per searched word of ``qmarkoff collide``, classify and
#: JSON output included: the rise in peak RSS from one --max-len to the next
#: over the words it adds (Python 3.11, x86-64, JSON streamed to /dev/null),
#: rounded up past every slope measured from 12 to 16 (M 260-330, mu
#: 530-860 bytes: the buckets' dict grows in steps).  The pairs are classified
#: and written one group at a time, so the peak is the scan's: mu costs more
#: because its limbs, and so its packed entries, are wider.
_BYTES_PER_WORD = {"M": 400, "mu": 900}


class SearchBoundError(RuntimeError):
    """Raised when a search would exceed the configured safety bound.

    The memory estimate uses the measured figure of ``map_kind``; the default,
    mu, is the larger one."""

    def __init__(self, max_len: int, bound: int, map_kind: str = "mu") -> None:
        per_word = _BYTES_PER_WORD[map_kind]
        if max_len <= 64:
            words = 2 ** (max_len + 1) - 1
            size = f"{words} words, roughly {words * per_word // (1 << 20)} MiB"
        else:
            # in powers of two: the exact figures cost time and memory growing
            # with max_len, and str() refuses them from max_len ~14,282 on
            size = f"2^{max_len + 1} - 1 words, roughly {per_word} x 2^{max_len - 19} MiB"
        super().__init__(
            f"max_len {max_len} exceeds the safety bound {bound}: "
            f"{size}; raise the bound explicitly to proceed")
        self.max_len = max_len
        self.bound = bound


def classify_pair(x: str, y: str, map_kind: str = "mu",
                  require_collision: bool = True) -> PairClassification:
    """Direct classification of one colliding unordered pair.

    The pair must consist of two distinct words whose 12-entries agree
    (checked unless ``require_collision`` is disabled by a caller that has
    already confirmed it).  The pair is classified as the two-word group
    (x, y) by :func:`_classify_group`, the one classifier; chain
    explanations need a larger group and are assigned by :func:`collide`.
    """
    require_word(x, BINARY)
    require_word(y, BINARY)
    if x == y:
        raise ValueError("pairs are unordered distinct words")
    if map_kind not in IMAGES:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if require_collision:
        fn = M_q if map_kind == "M" else mu_q
        if fn(x).m12 != fn(y).m12:
            raise ValueError(f"{x!r} and {y!r} do not share their 12-entry under {map_kind}")
    return _classify_group(map_kind, (x, y))[0]


#: Per map: the identity-1 involution, the identity-2 morphism, and the
#: length of that morphism's letter images at w = "".  These are the
#: unchecked forms: every word they see was cut from a validated word.
_FAMILY_MAPS = {"mu": (mirror, _psi, 4), "M": (_bar, _phi, 8)}


def _bracket(map_kind: str, x: str) -> Optional[tuple[int, str]]:
    """Split x as a . inner . b (mu, k = 0) or a^k . b inner b . a^m (M);
    return (k, inner), or None when x has no such bracket."""
    if map_kind == "mu":
        return (0, x[1:-1]) if len(x) >= 2 and x[0] == "a" and x[-1] == "b" else None
    k = len(x) - len(x.lstrip("a"))
    core = x[k:].rstrip("a")  # starts and ends with b when nonempty
    return (k, core[1:-1]) if len(core) >= 2 else None


def _identity2_partners(map_kind: str, inner: str,
                        mates: list[str]) -> dict[str, tuple[int, str, str]]:
    """Decompose ``inner`` as morphism_w(v) . w, for each |w| from 0 up, and
    map each partner inner word morphism_w(partner(v)) . w to (|w|, w, v),
    keeping the smallest |w|.  A partner ends in its w, so only the w that
    some word of ``mates`` ends in are tried.

    Two inner words are identity-2 partners in both directions alike:
    partner is an involution and the morphism's letter images are distinct
    blocks of one length."""
    _, morphism, base = _FAMILY_MAPS[map_kind]
    n = len(inner)
    table: dict[str, tuple[int, str, str]] = {}
    for wlen in range((n - base) // 3 + 1):  # the body holds one block or more
        body_len, block = n - wlen, 2 * wlen + base
        w = inner[body_len:]
        if body_len % block or not any(m.endswith(w) for m in mates):
            continue
        images = morphism(w)
        inverse = {img: letter for letter, img in images.items()}
        letters = [inverse.get(inner[i:i + block]) for i in range(0, body_len, block)]
        if None not in letters:
            v = "".join(letters)
            table.setdefault(apply_morphism(images, _partner(v)) + w, (wlen, w, v))
    return table


def _classify_group(map_kind: str, words: tuple[str, ...]) -> list[PairClassification]:
    """Classify every pair of one collision group, in the order of
    ``combinations(words, 2)``.

    Each word is bracketed once.  A pair can be explained only when both
    words bracket with the same leading a-run k and inner words of one
    length n.  Each word followed by such a word gets one table: the
    involution image of its inner word (identity 1) and its identity-2
    partners (``_identity2_partners``), decomposed only at the w that a
    later inner word of its (k, n) class ends in.  A pair (x, y) is then
    identity 1 when y's inner word is the image, and identity 2 when it is
    a partner with |w| <= max(|x|, |y|) // 2; with both, the witness is
    identity 2's.  A union-find over the explained pairs runs in the same
    pass, and an unexplained pair whose words it joins is a chain.
    """
    involution = _FAMILY_MAPS[map_kind][0]
    brackets: list[Optional[tuple[int, str]]] = [None] * len(words)
    parent = list(range(len(words)))  # a union-find over the explained pairs
    later: dict[tuple[int, int], list[str]] = {}  # (k, n) -> inner words after word i
    rows = []  # the pairs (i, j), j > i, for i from the last word down
    for i in range(len(words) - 1, -1, -1):
        x = words[i]
        bx = brackets[i] = _bracket(map_kind, x)
        row = []
        rows.append(row)
        if bx is not None:
            k, inner = bx
            mates = later.setdefault((k, len(inner)), [])
            if mates:
                partners = _identity2_partners(map_kind, inner, mates)
                image = involution(inner)
            else:
                bx = None  # no later word to pair with
            mates.append(inner)
        for j in range(i + 1, len(words)):
            w_bound = max(len(x), len(words[j])) // 2
            py = brackets[j]
            kind = witness = None
            if bx is not None and py is not None and py[0] == k:
                by = py[1]
                hit = partners.get(by)
                if hit is not None and hit[0] <= w_bound:
                    witness = {"family": "identity2", "w": hit[1], "v": hit[2]}
                    kind = Classification.BOTH if by == image else Classification.IDENTITY2
                elif by == image:
                    witness = {"family": "identity1", "inner": inner}
                    kind = Classification.IDENTITY1
                if witness is not None:
                    if map_kind == "M":
                        witness["k"] = k  # the leading a-run of both words
                    parent[_find(parent, i)] = _find(parent, j)
            row.append((i, j, kind, witness, w_bound))
    pairs = []
    for row in reversed(rows):
        for i, j, kind, witness, w_bound in row:
            if kind is None:
                joined = _find(parent, i) == _find(parent, j)
                kind = Classification.CHAIN if joined else Classification.UNEXPLAINED
            pairs.append(PairClassification(words[i], words[j], kind, witness, w_bound))
    return pairs


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _verify_groups(map_kind: str, groups: list[CollisionGroup]) -> None:
    """Bucket soundness: recompute the 12-entry of every colliding word on
    an exact route independent of packing, and raise AssertionError naming a
    word whose entry differs from its group's.

    The route carries the first row (p, r) of the word's matrix as plain
    coefficient tuples, whose second entry is the 12-entry, and steps it
    through the M letters by shift and add (``qmatrix.first_row_step``; a mu
    letter through its sigma image, since mu = M o sigma).  The entry is
    compared with the group polynomial's coefficient tuple from q^0 up,
    built once per group: neither side has trailing zeros, so tuple
    equality is polynomial equality.  ``walk_words`` is pruned to the
    prefixes of the colliding words, so it reaches every colliding word and
    costs one row step per distinct nonempty prefix; a prefix is recognised
    by a binary search of the sorted words, with no set of prefixes built."""
    expected = {}
    for g in groups:
        poly = g.polynomial
        # the polynomial's coefficients from q^0 up, as r holds them; a
        # negative exponent matches no r (None)
        row = (0,) * poly.min_degree + poly.coefficients if poly.min_degree >= 0 else None
        expected.update(dict.fromkeys(g.words, row))
    words = sorted(expected)

    def keep(prefix: str) -> bool:
        # the words starting with prefix, if any, follow it in sorted order
        i = bisect_left(words, prefix)
        return i < len(words) and words[i].startswith(prefix)

    longest = max(map(len, words), default=0)
    for w, (_, r) in walk_words(IMAGES[map_kind], ((1,), ()), longest, keep, first_row_step):
        if w in expected and r != expected[w]:
            raise AssertionError(f"packed bucket mismatch for word {w!r}")


def collide(map_kind: str, max_len: int, *, safety_bound: int = 16,
            classify: bool = True) -> CollisionReport:
    """All maximal groups of words of length <= max_len sharing their 12-entry.

    The scan is one in-process ``walk_words`` that buckets every word by its
    packed 12-entry: one ``packed_step`` per word from its parent's first
    row, by shift and add, with limbs of the bit length of
    ``max_entry_at_one`` and no matrix product.  Every word of a group of two or more is then
    checked by ``_verify_groups``, a second ``walk_words`` pruned to the
    prefixes of the colliding words, on the first row of the word's matrix
    stepped by shift and add: one row step per distinct nonempty prefix.  A
    word whose entry differs from its group's raises AssertionError naming
    it.  The report classifies the pairs when they are read, one
    ``_classify_group`` pass per group, chains included
    (``CollisionReport.group_pairs``); ``classify=False`` reports none.

    Deterministic: group words are sorted by (length, lexicographic) and the
    groups by their first word.
    """
    if map_kind not in IMAGES:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > safety_bound:
        raise SearchBoundError(max_len, safety_bound, map_kind)
    shift = max(max_entry_at_one(map_kind, max_len).bit_length(), 1)
    buckets: dict[int, list[str]] = {}
    step = partial(packed_step, shift=shift)
    for w, row in walk_words(IMAGES[map_kind], (1, 0), max_len, step=step):
        buckets.setdefault(row[1], []).append(w)
    words_searched = sum(len(ws) for ws in buckets.values())

    groups = []
    for key, ws in buckets.items():
        if len(ws) < 2:
            continue
        ws = sorted(ws, key=lambda w: (len(w), w))
        poly = unpack_poly(key, shift)
        if map_kind == "mu" and len({letter_counts(w) for w in ws}) != 1:
            # the zeta_6 image pins both letter counts, so this cannot happen
            raise AssertionError(f"mu collision group mixes letter counts: {ws}")
        groups.append(CollisionGroup(poly, tuple(ws)))
    groups.sort(key=lambda g: (len(g.words[0]), g.words[0]))
    _verify_groups(map_kind, groups)
    return CollisionReport(map_kind, max_len, groups, words_searched, classify)


@dataclass
class InjectivityReport:
    """Distinctness checks over the Christoffel words up to a length bound."""

    max_len: int
    word_count: int
    polynomials_distinct: bool
    zeta6_values_distinct: bool
    letter_counts_distinct: bool
    m12_by_word: dict[str, LaurentPoly] = field(repr=False, default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.polynomials_distinct and self.zeta6_values_distinct
                and self.letter_counts_distinct)

    def to_json_dict(self) -> dict:
        return {"max_len": self.max_len, "word_count": self.word_count,
                "polynomials_distinct": self.polynomials_distinct,
                "zeta6_values_distinct": self.zeta6_values_distinct,
                "letter_counts_distinct": self.letter_counts_distinct,
                "injective": self.ok}


def christoffel_injectivity(max_len: int) -> InjectivityReport:
    """Compute the mu entry of every Christoffel word of length <= max_len and
    check that the polynomials, their zeta_6 images, and the letter-count
    pairs are pairwise distinct.

    The two letters are packed by ``packed_step``, and packed matrices are
    built along the Christoffel tree (one integer matrix product per node,
    mu(uv) = mu(u) mu(v), reusing both factors), so the cost is linear in
    the word count.  Packing is injective, so the packed entries are
    compared directly.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    shift = max(max_entry_at_one("mu", max_len).bit_length(), 1)
    a, b = (Mat2(*packed_step((1, 0), IMAGES["mu"][ch], shift),
                 *packed_step((0, 1), IMAGES["mu"][ch], shift)) for ch in "ab")
    packed = {"a": a.m12, "b": b.m12}
    for u, v, mat in christoffel_fold(max_len, a, b, operator.mul):
        packed[u + v] = mat.m12
    m12 = {w: unpack_poly(x, shift) for w, x in packed.items()}
    distinct_polys = len(set(packed.values())) == len(packed)
    zeta6 = {eval_cyclotomic(p, 6) for p in m12.values()}
    counts = {letter_counts(w) for w in m12}
    return InjectivityReport(max_len, len(m12), distinct_polys,
                             len(zeta6) == len(m12), len(counts) == len(m12),
                             m12_by_word=m12)
