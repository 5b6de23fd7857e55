"""Exhaustive collision search over binary words for the two matrix maps,
classification of colliding pairs against the identity families, and the
Christoffel injectivity experiment.

The enumeration runs on the packed product engine of ``qmatrix``: each
letter matrix is packed into integers (one limb of ``shift`` bits per
coefficient, ``qmatrix.pack_poly``), so a word product is a product of
integer matrices.  Both letter maps have entries in N[q], and the limb width
comes from ``qmatrix.max_entry_at_one``, a bound on the q = 1 entries of all
words up to max_len, which bounds every coefficient: packing is injective.
Groups are keyed by the packed upper-right entry, unpacked once per group,
and re-verified afterwards on an independent route: every colliding word's
12-entry is recomputed on ``LaurentPoly`` matrices, walking the sorted words
with a prefix stack (one Laurent matrix product per distinct prefix) and
carrying only the first row of each product, which holds the 12-entry.

The scan runs in the calling process, whatever ``--jobs`` says: it costs one
integer product per word, and worker processes would have to pickle every
word's bucket back to the parent, whose unpickling and merging measured
slower than the serial scan at every length the default safety bound allows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .cyclotomic import eval_cyclotomic
from .identities import partner, phi, psi
from .laurent import ONE, ZERO, LaurentPoly
from .qmatrix import (LETTERS, M_q, Mat2, max_entry_at_one, mu_q, packed_letters,
                      prefix_products, unpack_poly, walk_words)
from .words import (BINARY, apply_morphism, bar, christoffel_fold,
                    letter_counts, mirror, require_word)


class Classification(str, Enum):
    IDENTITY1 = "identity1"
    IDENTITY2 = "identity2"
    BOTH = "both"
    CHAIN = "chain"          # explained only by composing family identities
    UNEXPLAINED = "unexplained"


@dataclass(frozen=True)
class PairClassification:
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
    map_kind: str
    max_len: int
    groups: list[CollisionGroup]
    classifications: list[PairClassification]
    words_searched: int

    @property
    def has_unexplained(self) -> bool:
        return any(c.kind is Classification.UNEXPLAINED for c in self.classifications)

    def summary(self) -> dict:
        counts = {kind.value: 0 for kind in Classification}
        for c in self.classifications:
            counts[c.kind.value] += 1
        return {"groups": len(self.groups),
                "colliding_words": sum(len(g.words) for g in self.groups),
                "pairs": len(self.classifications),
                "words_searched": self.words_searched,
                **counts}

    def group_of(self, word: str) -> Optional[CollisionGroup]:
        for g in self.groups:
            if word in g.words:
                return g
        return None

    def to_json_dict(self) -> dict:
        return {"map": self.map_kind, "max_len": self.max_len,
                "summary": self.summary(),
                "groups": [g.to_json_dict() for g in self.groups],
                "classifications": [c.to_json_dict() for c in self.classifications],
                "unexplained_present": self.has_unexplained}


#: Peak resident bytes per searched word of ``qmarkoff collide``, classify and
#: JSON output included: the rise in peak RSS from --max-len 13 to 14 over the
#: 16,384 added words (Python 3.11, x86-64; M 69.0 -> 121.3 MiB, mu 36.7 ->
#: 55.7 MiB, about 3,350 and 1,220 bytes; from 12 to 13 the slopes were 3,250
#: and 1,190 bytes), rounded up.  M costs more because its groups, and so its
#: pairs, are far larger.
_BYTES_PER_WORD = {"M": 3400, "mu": 1300}


class SearchBoundError(RuntimeError):
    """Raised when a search would exceed the configured safety bound.

    The memory estimate uses the measured figure of ``map_kind``; the default,
    M, is the larger one."""

    def __init__(self, max_len: int, bound: int, map_kind: str = "M") -> None:
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


def _word_map(map_kind: str):
    return M_q if map_kind == "M" else mu_q


def classify_pair(x: str, y: str, map_kind: str = "mu",
                  require_collision: bool = True) -> PairClassification:
    """Direct classification of one colliding unordered pair.

    The pair must consist of two distinct words whose 12-entries agree
    (checked unless ``require_collision`` is disabled by a caller that has
    already confirmed it).  Chain explanations need group context and are
    assigned by :func:`collide`, not here.
    """
    require_word(x, BINARY)
    require_word(y, BINARY)
    if x == y:
        raise ValueError("pairs are unordered distinct words")
    if map_kind not in LETTERS:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if require_collision:
        fn = _word_map(map_kind)
        if fn(x).m12 != fn(y).m12:
            raise ValueError(f"{x!r} and {y!r} do not share their 12-entry under {map_kind}")
    w_bound = max(len(x), len(y)) // 2
    id1 = id2 = None
    px, py = _bracket(map_kind, x), _bracket(map_kind, y)
    if px and py and px[0] == py[0]:
        (k, bx), by = px, py[1]
        id1 = _identity1_witness(map_kind, bx, by)
        id2 = (_identity2_witness(map_kind, bx, by, w_bound)
               or _identity2_witness(map_kind, by, bx, w_bound))
    if id1 and id2:
        kind = Classification.BOTH
    elif id1:
        kind = Classification.IDENTITY1
    elif id2:
        kind = Classification.IDENTITY2
    else:
        kind = Classification.UNEXPLAINED
    witness = id2 or id1
    if witness and map_kind == "M":
        witness["k"] = k  # the leading a-run of both words
    return PairClassification(x, y, kind, witness=witness, w_search_bound=w_bound)


#: Per map: the identity-1 involution, the identity-2 morphism, and the
#: length of that morphism's letter images at w = "".
_FAMILY_MAPS = {"mu": (mirror, psi, 4), "M": (bar, phi, 8)}


def _bracket(map_kind: str, x: str) -> Optional[tuple[int, str]]:
    """Split x as a . inner . b (mu, k = 0) or a^k . b inner b . a^m (M);
    return (k, inner), or None when x has no such bracket."""
    if map_kind == "mu":
        return (0, x[1:-1]) if len(x) >= 2 and x[0] == "a" and x[-1] == "b" else None
    k = len(x) - len(x.lstrip("a"))
    core = x[k:].rstrip("a")  # starts and ends with b when nonempty
    return (k, core[1:-1]) if len(core) >= 2 else None


def _identity1_witness(map_kind: str, bx: str, by: str) -> Optional[dict]:
    """The inner words are exchanged by the map's involution."""
    if by == _FAMILY_MAPS[map_kind][0](bx):
        return {"family": "identity1", "inner": bx}
    return None


def _identity2_witness(map_kind: str, bx: str, by: str, w_bound: int) -> Optional[dict]:
    """Decompose the inner word bx as morphism_w(v) . w and check by against
    morphism_w(partner(v)) . w."""
    _, morphism, base = _FAMILY_MAPS[map_kind]
    n = len(bx)
    if len(by) != n or n < base:
        return None
    for wlen in range(0, w_bound + 1):
        block = 2 * wlen + base
        body_len = n - wlen
        if body_len < block or body_len % block:
            continue
        w = bx[body_len:]
        if by[body_len:] != w:
            continue
        images = morphism(w)
        v = _peel(bx[:body_len], images, block)
        if v is not None and apply_morphism(images, partner(v)) + w == by:
            return {"family": "identity2", "w": w, "v": v}
    return None


def _peel(body: str, images: dict[str, str], block: int) -> Optional[str]:
    inverse = {img: letter for letter, img in images.items()}
    letters = []
    for i in range(0, len(body), block):
        letter = inverse.get(body[i:i + block])
        if letter is None:
            return None
        letters.append(letter)
    return "".join(letters)


def _chain_upgrade(words: tuple[str, ...],
                   pairs: list[PairClassification]) -> list[PairClassification]:
    """Within one group, mark unexplained pairs whose endpoints are joined by
    a chain of directly-explained pairs."""
    parent = {w: w for w in words}

    def find(w: str) -> str:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for c in pairs:
        if c.kind is not Classification.UNEXPLAINED:
            parent[find(c.x)] = find(c.y)
    out = []
    for c in pairs:
        if c.kind is Classification.UNEXPLAINED and find(c.x) == find(c.y):
            out.append(PairClassification(c.x, c.y, Classification.CHAIN,
                                          witness=None, w_search_bound=c.w_search_bound))
        else:
            out.append(c)
    return out


def _verify_groups(map_kind: str, groups: list[CollisionGroup]) -> None:
    """Bucket soundness: recompute the 12-entry of every colliding word on
    LaurentPoly matrices, independently of the packed route, and raise
    AssertionError naming the first word whose entry differs from its group's.

    The words are walked in sorted order with ``prefix_products``, so the
    check costs one Laurent matrix product per distinct prefix.  The walk
    starts from e1 e1^T = [[1, 0], [0, 0]] instead of the identity: each
    product then carries only the first row of the word's matrix, whose
    second entry is the 12-entry, and the zero second row costs no
    convolution."""
    expected = {w: g.polynomial for g in groups for w in g.words}
    first_row = Mat2(ONE, ZERO, ZERO, ZERO)
    for w, m in prefix_products(LETTERS[map_kind], first_row, sorted(expected)):
        if m.m12 != expected[w]:
            raise AssertionError(f"packed bucket mismatch for word {w!r}")


def collide(map_kind: str, max_len: int, *, safety_bound: int = 16,
            classify: bool = True) -> CollisionReport:
    """All maximal groups of words of length <= max_len sharing their 12-entry.

    The scan is one in-process walk that buckets every word by its packed
    12-entry (one integer matrix product per word, limbs sized by
    ``max_entry_at_one``).  Every word of a group of two or more is then
    checked on ``LaurentPoly`` matrices, one first-row product per distinct
    prefix of the sorted colliding words; a word whose entry differs from its
    group's raises AssertionError naming it.

    Deterministic: group words are sorted by (length, lexicographic) and the
    groups by their first word.
    """
    if map_kind not in LETTERS:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > safety_bound:
        raise SearchBoundError(max_len, safety_bound, map_kind)
    shift = max_entry_at_one(map_kind, max_len).bit_length() + 1
    buckets: dict[int, list[str]] = {}
    for w, m in walk_words(packed_letters(map_kind, shift), Mat2.identity(1, 0), max_len):
        buckets.setdefault(m.m12, []).append(w)
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

    classifications: list[PairClassification] = []
    if classify:
        from itertools import combinations

        for g in groups:
            pairs = [classify_pair(x, y, map_kind, require_collision=False)
                     for x, y in combinations(g.words, 2)]
            classifications.extend(_chain_upgrade(g.words, pairs))
    return CollisionReport(map_kind, max_len, groups, classifications, words_searched)


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

    Packed matrices are built along the Christoffel tree (one multiplication
    per node, reusing both factors), so the cost is linear in the word count.
    Packing is injective, so the packed entries are compared directly.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    shift = max_entry_at_one("mu", max_len).bit_length() + 1
    a, b = (packed_letters("mu", shift)[ch] for ch in "ab")
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
