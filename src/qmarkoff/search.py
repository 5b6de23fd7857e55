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
Groups are keyed by the packed upper-right entry.  The words that collide
with nothing are dropped first, and the other buckets are consumed one at a
time: each is sorted in place and its key unpacked once, so no bucket
outlives its group.  The groups are re-verified afterwards on an
independent route: every colliding word's 12-entry is recomputed by the
same ``walk_words``, pruned to the prefixes of the colliding words, carrying
only the first row of the word's matrix, which holds the 12-entry, as plain
coefficient tuples.  Each step multiplies that row by the M letters (a mu
letter by those of its sigma image) through shift and add, with no
multiplication (``qmatrix.first_row_step``): one step per distinct nonempty
prefix.  Given the letters b then a, the walk yields its words in
lexicographic order and is merged with the sorted colliding words, each
paired with its group's polynomial by a list aligned with them, so no dict
of words is built; the row's 12-entry is compared with that polynomial's
coefficient tuple, and a colliding word the walk never reaches is an error
as well.  So the search holds little more than the groups it reports.

Each group is classified by one classifier, ``_classify_group``, which
gives one verdict per ordered pair of distinct brackets (``GroupTable``): a
pair's verdict depends only on the brackets of its two words, and under M
the trailing-a variants of a word share its bracket.  Every word is
bracketed once; each bracket that can be explained with a later word gets
one table (the involution image of its inner word and its identity-2
partner inner words); a union-find over the brackets of the explained
entries marks the chains; and the group's tallies are counted from the
entries and components, with no pass over its pairs.  ``GroupTable.rows``
gives the entry of every pair.  ``classify_pair`` is the classifier on a
group of two, its collision checked by ``qmatrix.m12_equal``.  The report
holds no pairs: ``CollisionReport.group_tables`` classifies one group at a
time and tallies what the summary needs, so a census's memory grows with
its words, not with its pairs.

The scan and the grouping run in the calling process, whatever ``--jobs``
says: the scan costs one packed step per word, and worker processes would
have to pickle every word's bucket back to the parent, whose unpickling and
merging measured slower than the serial scan at every length the default
safety bound allows.  The soundness check and the pair stage are split:
``collide --jobs N`` forks one worker after the grouping
(``qmarkoff.collide_json``), which checks the second half of the sorted
colliding words while the parent checks the first (``_verify_groups`` with
``part`` and ``parts``), then classifies and renders every other chunk of
the groups and sends back the output text, each process's share of the
pairs through ``classify_groups``.  ``collide`` itself checks every word in
the calling process.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .identities import partner, phi, psi
from .laurent import LaurentPoly
# M_q and mu_q are not called here: they stay importable as search.M_q and
# search.mu_q, which perfbench/traced.py hooks
from .qmatrix import (IMAGES, M_q, Mat2, first_row_step, m12_equal, max_entry_at_one,
                      mu_q, packed_step, unpack_poly, walk_words)
from .words import (BINARY, BoundError, SoundnessError, apply_morphism, bar,
                    christoffel_fold, letter_counts, mirror, require_word)


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


@dataclass(frozen=True, slots=True)
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

    The pairs are not stored: ``group_tables`` classifies them one group at
    a time and tallies each group from its table as it goes (``group_pairs``
    lists each group's pairs from the same table), and ``summary``,
    ``has_unexplained`` and ``w_search_bound`` read those tallies,
    classifying every group once more, with no pass over its pairs, only if
    no pass has finished yet.  ``classifications`` is the list of every
    pair, built by one such pass when first read.

    ``tallies`` holds the count of each kind and the largest
    ``w_search_bound`` once a pass over every group has finished; a pass
    split between processes (``collide --jobs``) sets it from the merged
    tallies of its shares (``classify_groups``)."""

    map_kind: str
    max_len: int
    groups: list[CollisionGroup]
    words_searched: int
    classify: bool = True
    tallies: Optional[tuple[Counter, int]] = field(default=None, init=False,
                                                   repr=False, compare=False)

    def group_tables(self) -> Iterator[GroupTable]:
        """Yield each group's ``GroupTable`` (``_classify_group``), group by
        group in report order; once the last group is yielded, keep the
        count of each kind and the largest ``w_search_bound``."""
        tallies: list = [Counter(), 0]
        if self.classify:
            yield from classify_groups(self.map_kind, self.groups, tallies)
        self.tallies = tallies[0], tallies[1]

    def group_pairs(self) -> Iterator[list[PairClassification]]:
        """Yield each group's classified pairs, built from its table, as
        ``group_tables`` yields it."""
        for table in self.group_tables():
            yield table.classifications()

    def _tally(self) -> tuple[Counter, int]:
        if self.tallies is None:
            for _ in self.group_tables():
                pass
        return self.tallies

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
#: rounded up past every slope measured from 12 to 17 (M 163-219, mu
#: 276-512 bytes, rising with the length as the entries widen).  The pairs
#: are classified and written one group at a time, and the buckets are
#: consumed as the groups are built, so the peak is the scan's buckets or
#: the groups: mu costs more because its limbs, and so its packed entries
#: and coefficients, are wider.
_BYTES_PER_WORD = {"M": 300, "mu": 600}


class SearchBoundError(BoundError):
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


def classify_pair(x: str, y: str, map_kind: str = "mu") -> PairClassification:
    """Direct classification of one colliding unordered pair.

    The pair must consist of two distinct words whose 12-entries agree
    (checked by ``qmatrix.m12_equal``, on packed integers with no polynomial
    built).  The pair is classified as the two-word group (x, y) by
    :func:`_classify_group`, the one classifier; chain explanations need a
    larger group and are assigned by :func:`collide`.
    """
    require_word(x, BINARY)
    require_word(y, BINARY)
    if x == y:
        raise ValueError("pairs are unordered distinct words")
    if map_kind not in IMAGES:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if not m12_equal(map_kind, x, y):
        raise ValueError(f"{x!r} and {y!r} do not share their 12-entry under {map_kind}")
    return _classify_group(map_kind, (x, y)).classifications()[0]


#: Per map: the identity-1 involution, the identity-2 morphism, and the
#: length of that morphism's letter images at w = "".
_FAMILY_MAPS = {"mu": (mirror, psi, 4), "M": (bar, phi, 8)}


def _bracket(map_kind: str, x: str) -> Optional[tuple[int, str]]:
    """Split x as a . inner . b (mu, k = 0) or a^k . b inner b . a^m (M);
    return (k, inner), or None when x has no such bracket."""
    if map_kind == "mu":
        return (0, x[1:-1]) if len(x) >= 2 and x[0] == "a" and x[-1] == "b" else None
    core = x.strip("a")  # starts and ends with b when nonempty
    return (x.find("b"), core[1:-1]) if len(core) >= 2 else None


def _identity2_partners(map_kind: str, inner: str,
                        mates: Iterable[str]) -> dict[str, tuple[int, str, str]]:
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
        # every mate ends in the empty w
        if body_len % block or w and not any(m.endswith(w) for m in mates):
            continue
        images = morphism(w)
        inverse = {img: letter for letter, img in images.items()}
        letters = [inverse.get(inner[i:i + block]) for i in range(0, body_len, block)]
        if None not in letters:
            v = "".join(letters)
            table.setdefault(apply_morphism(images, partner(v)) + w, (wlen, w, v))
    return table


#: The first two entries of every ``GroupTable``, at these positions: the
#: verdicts of a pair that no family explains, apart or joined by a chain of
#: explained pairs.
_UNEXPLAINED, _CHAIN = 0, 1
_FIXED_ENTRIES = ((Classification.UNEXPLAINED, None), (Classification.CHAIN, None))
#: The row of a bracket that explains none.
_NO_ENTRIES: Mapping[int, int] = MappingProxyType({})


class GroupTable(NamedTuple):
    """The verdicts of one collision group (``_classify_group``).

    A bracket is numbered by the position of its first word in ``words``,
    and ``index`` gives each word's bracket.
    ``table[t]`` maps each bracket u that bracket t explains, and that has a
    word after t's first word, to the position in ``entries`` of their
    (kind, witness), the witness cut from t's inner word.  ``entries``
    starts with the unexplained and the chain verdict (``_FIXED_ENTRIES``).
    ``roots`` gives each word the root of its component in the union-find
    over the explained pairs, or ~position for a word that no explained pair
    holds.  ``counts`` tallies the group's pairs by kind."""

    words: tuple[str, ...]
    index: Sequence[int]
    table: list[Mapping[int, int]]
    entries: list[tuple[Classification, Optional[dict]]]
    roots: Sequence[int]
    counts: dict[Classification, int]

    def rows(self) -> list[list[int]]:
        """Row i holds the entries of the pairs (i, j) for j = i + 1, ...:
        the pairs in the order of ``combinations(words, 2)``."""
        index, table, roots = self.index, self.table, self.roots
        n = len(index)
        rows = []
        for i in range(n - 1):
            row, root = table[index[i]], roots[i]
            rows.append([row.get(index[j], _CHAIN if roots[j] == root else _UNEXPLAINED)
                         for j in range(i + 1, n)])
        return rows

    def classifications(self) -> list[PairClassification]:
        """Every pair's ``PairClassification``, each with its own witness dict."""
        words, entries = self.words, self.entries
        out = []
        for i, row in enumerate(self.rows()):
            x = words[i]
            for y, (kind, witness) in zip(words[i + 1:], map(entries.__getitem__, row)):
                out.append(PairClassification(x, y, kind, witness and dict(witness),
                                              max(len(x), len(y)) // 2))
        return out


def _explain(map_kind: str, k: int, inner: str, later: dict[str, int],
             entries: list[tuple[Classification, Optional[dict]]]) -> dict[int, int]:
    """Map each bracket of ``later`` (inner word -> bracket, all of the class
    (k, |inner|)) that the bracket (k, inner) explains to the position of
    their (kind, witness), appended to ``entries``."""
    row: dict[int, int] = {}
    image = _FAMILY_MAPS[map_kind][0](inner)
    # no |w| bound is checked: every partner passes the pair's bound
    # |w| <= max(|x|, |y|) // 2, as 3|w| + base <= |inner| <= |x| - 2
    # (the body holds one block or more)
    for by, (_, w, v) in _identity2_partners(map_kind, inner, later).items():
        u = later.get(by)
        if u is not None:
            row[u] = len(entries)
            kind = Classification.BOTH if by == image else Classification.IDENTITY2
            entries.append((kind, {"family": "identity2", "w": w, "v": v}))
    u = later.get(image)
    if u is not None and u not in row:
        row[u] = len(entries)
        entries.append((Classification.IDENTITY1, {"family": "identity1", "inner": inner}))
    if map_kind == "M":
        for e in row.values():
            entries[e][1]["k"] = k  # the leading a-run of both words
    return row


def _classify_group(map_kind: str, words: tuple[str, ...]) -> GroupTable:
    """Classify every pair of one collision group: one verdict per ordered
    pair of distinct brackets (``GroupTable``).

    A pair's verdict depends only on the brackets of its two words, and it
    can be explained only when both bracket with the same leading a-run k
    and inner words of one length n.  Walking the words from the last, each
    bracket's first word that has a later word of its (k, n) class gets one
    table: the involution image of its inner word (identity 1) and its
    identity-2 partners (``_identity2_partners``), decomposed only at the w
    that a later inner word of the class ends in.  A pair is identity 1 when
    the later bracket's inner word is the image, and identity 2 when it is a
    partner; with both, the witness is identity 2's.  The kind is symmetric
    (partner and the involution are involutions), so bracket t explains u
    exactly when u explains t.  A union-find over the brackets joins the two
    of every entry, and an unexplained pair whose words it joins is a chain.
    The tallies come from the table: an entry of two distinct brackets
    stands for |t| * |u| pairs and one of a bracket with itself for
    C(|t|, 2), and each component of c words holds C(c, 2) pairs, of which
    those not explained are chains.
    """
    n = len(words)
    if n == 2:
        bx, by = _bracket(map_kind, words[0]), _bracket(map_kind, words[1])
        if bx != by:  # one pair of two brackets: every mu group but a few
            entries = [*_FIXED_ENTRIES]
            row = _NO_ENTRIES
            if bx and by and bx[0] == by[0] and len(bx[1]) == len(by[1]):
                row = _explain(map_kind, *bx, {by[1]: 1}, entries) or _NO_ENTRIES
            kind = entries[2][0] if row else Classification.UNEXPLAINED
            return GroupTable(words, range(2), [row, _NO_ENTRIES], entries, (-1, -2),
                              {kind: 1})
    brackets = [_bracket(map_kind, w) for w in words]
    first: dict = {}
    index = [first.setdefault(b, i) for i, b in enumerate(brackets)]
    size = [0] * n  # words per bracket
    for t in index:
        size[t] += 1
    table: list[Mapping[int, int]] = [_NO_ENTRIES] * n
    entries: list[tuple[Classification, Optional[dict]]] = [*_FIXED_ENTRIES]
    counts: dict[Classification, int] = {}
    explained = 0
    # (k, |inner|) -> the inner words of the class after word i -> their bracket
    classes: dict[tuple[int, int], dict[str, int]] = {}
    for i in range(n - 1, -1, -1):
        b = brackets[i]
        if b is None:
            continue
        k, inner = b
        later = classes.get((k, len(inner)))
        if later is None:
            later = classes[k, len(inner)] = {}
        elif index[i] == i:
            row = _explain(map_kind, k, inner, later, entries)
            if row:
                table[i] = row
            for u, e in row.items():
                if u < i:
                    continue  # the same pairs as entry table[u][i]
                pairs = size[i] * size[u] if u != i else size[i] * (size[i] - 1) // 2
                kind = entries[e][0]
                counts[kind] = counts.get(kind, 0) + pairs
                explained += pairs
        later[inner] = index[i]

    total = n * (n - 1) // 2
    roots: Sequence[int] = range(-1, -n - 1, -1)  # ~i: no word joined to another
    chains = 0
    if 0 < explained < total:  # else no unexplained pair, or none joined
        parent = list(range(n))  # a union-find over the brackets
        for t, row in enumerate(table):
            for u in row:
                parent[_find(parent, t)] = _find(parent, u)
        linked = {b for t, row in enumerate(table) if row for b in (t, *row)}
        tops = {t: _find(parent, t) for t in linked}
        roots = [tops.get(t, ~i) for i, t in enumerate(index)]
        words_in = dict.fromkeys(tops.values(), 0)  # words per component, by its root
        for t, r in tops.items():
            words_in[r] += size[t]
        chains = sum([c * (c - 1) // 2 for c in words_in.values()]) - explained
        if chains:
            counts[Classification.CHAIN] = chains
    if explained + chains < total:
        counts[Classification.UNEXPLAINED] = total - explained - chains
    return GroupTable(words, index, table, entries, roots, counts)


def classify_groups(map_kind: str, groups: Iterable[CollisionGroup],
                    tallies: list) -> Iterator[GroupTable]:
    """Yield the ``GroupTable`` of each of ``groups`` in order
    (``_classify_group``), adding the group's count of each kind to
    ``tallies[0]``, a Counter, and raising ``tallies[1]`` to its largest
    ``w_search_bound``."""
    counts = tallies[0]
    for g in groups:
        table = _classify_group(map_kind, g.words)
        for kind, count in table.counts.items():
            counts[kind] += count
        # the group's last word is its longest: the largest bound
        tallies[1] = max(tallies[1], len(g.words[-1]) // 2)
        yield table


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _verify_groups(map_kind: str, groups: list[CollisionGroup], part: int = 0,
                   parts: int = 1) -> None:
    """Bucket soundness: recompute the 12-entry of the ``part``-th of
    ``parts`` slices of the sorted colliding words on an exact route
    independent of packing, and raise ``SoundnessError`` naming a word of
    the slice whose entry differs from its group's, or one the walk never
    reaches.  The slices are cut by sorted position, so each holds within
    one word of n / ``parts`` of the n words (every colliding mu word starts
    with a, so a cut by first letter would leave one slice empty); the
    ``parts`` calls together check every word once, and the default checks
    them all.

    The route carries the first row (p, r) of the word's matrix as plain
    coefficient tuples, whose second entry is the 12-entry, and steps it
    through the M letters by shift and add (``qmatrix.first_row_step``; a mu
    letter through its sigma image, since mu = M o sigma).  The entry is
    compared with the group polynomial's coefficients from q^0 up: neither
    side has trailing zeros, so tuple equality is polynomial equality.
    ``walk_words`` is pruned to the prefixes of the slice's words, so it
    costs one row step per distinct nonempty prefix of the slice; a prefix
    is recognised by a binary search of the slice.  Given the letters b then
    a, the walk yields its words in lexicographic order, so it is merged
    with the slice, each word paired with its group's polynomial by a list
    aligned with the slice (each word placed by a binary search of the
    slice), and no dict of words is built.  Every word of the slice must be
    reached: one that the walk passes without yielding raises as well."""
    # each colliding word in lexicographic order; this part checks words[lo:hi]
    words = sorted([w for g in groups for w in g.words])
    lo, hi = part * len(words) // parts, (part + 1) * len(words) // parts
    if lo == hi:
        return
    first, last = words[lo], words[hi - 1]
    polys = [None] * (hi - lo)  # the group polynomial of each word of the slice
    for g in groups:
        for w in g.words:
            if first <= w <= last:  # a word of another slice needs no place
                polys[bisect_left(words, w, lo, hi) - lo] = g.polynomial

    def keep(prefix: str) -> bool:
        # the slice's words starting with prefix, if any, follow it in sorted order
        i = bisect_left(words, prefix, lo, hi)
        return i < hi and words[i].startswith(prefix)

    # the walk pops the last letter pushed first: b then a walks a's subtree first
    letters = dict(reversed(IMAGES[map_kind].items()))
    longest = max(map(len, words))  # keep prunes the walk to the slice
    i = lo
    for w, (_, r) in walk_words(letters, ((1,), ()), longest, keep, first_row_step):
        if i < hi and w == words[i]:
            poly = polys[i - lo]
            # a negative exponent matches no r
            if poly.min_degree < 0 or r != (0,) * poly.min_degree + poly.coefficients:
                raise SoundnessError(f"packed bucket mismatch for word {w!r}")
            i += 1
    if i < hi:  # the walk passed words[i] without yielding it
        raise SoundnessError(f"bucket soundness walk never reached word {words[i]!r}")


def _scan_and_group(map_kind: str, max_len: int, *, safety_bound: int = 16,
                    classify: bool = True) -> CollisionReport:
    """``collide``'s report before its soundness check: the scan and the
    grouping.  Only ``collide`` and the JSON form of the ``collide`` command,
    which checks the groups itself, split between its processes
    (``qmarkoff.collide_json``), before it writes a byte, call it."""
    if map_kind not in IMAGES:
        raise ValueError(f"map_kind must be 'M' or 'mu', got {map_kind!r}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if safety_bound < 0:
        raise ValueError("safety_bound must be >= 0")
    if max_len > safety_bound:
        raise SearchBoundError(max_len, safety_bound, map_kind)
    shift = max(max_entry_at_one(map_kind, max_len).bit_length(), 1)
    buckets: dict[int, list[str]] = {}
    step = partial(packed_step, shift=shift)
    for w, row in walk_words(IMAGES[map_kind], (1, 0), max_len, step=step):
        buckets.setdefault(row[1], []).append(w)
    words_searched = sum(len(ws) for ws in buckets.values())

    # the words that collide with nothing are dropped first, and the other
    # buckets are consumed as the groups are built: no bucket outlives its group
    buckets = {key: ws for key, ws in buckets.items() if len(ws) > 1}
    groups = []
    while buckets:
        key, ws = buckets.popitem()
        ws.sort()
        ws.sort(key=len)  # stable: by (length, lexicographic)
        if map_kind == "mu" and len({letter_counts(w) for w in ws}) != 1:
            # the zeta_6 image pins both letter counts, so this cannot happen
            raise AssertionError(f"mu collision group mixes letter counts: {ws}")
        groups.append(CollisionGroup(unpack_poly(key, shift), tuple(ws)))
    del buckets  # emptied by popitem, the dict still holds its table
    groups.sort(key=lambda g: (len(g.words[0]), g.words[0]))
    return CollisionReport(map_kind, max_len, groups, words_searched, classify)


def collide(map_kind: str, max_len: int, *, safety_bound: int = 16,
            classify: bool = True) -> CollisionReport:
    """All maximal groups of words of length <= max_len sharing their 12-entry.

    The scan is one in-process ``walk_words`` that buckets every word by its
    packed 12-entry: one ``packed_step`` per word from its parent's first
    row, by shift and add, with limbs of the bit length of
    ``max_entry_at_one`` and no matrix product.  The groups are built by
    consuming the buckets, so none outlives its group
    (``_scan_and_group``).  Every word of a group of two or more is then
    checked by ``_verify_groups``, a second ``walk_words`` pruned to the
    prefixes of the colliding words, on the first row of the word's matrix
    stepped by shift and add: one row step per distinct nonempty prefix.  A
    word whose entry differs from its group's, or that the walk never
    reaches, raises ``SoundnessError`` naming it.  The report classifies the
    pairs when they are read, one ``_classify_group`` table per group,
    chains included (``CollisionReport.group_tables``); ``classify=False``
    reports none.

    Deterministic: group words are sorted by (length, lexicographic) and the
    groups by their first word.
    """
    report = _scan_and_group(map_kind, max_len, safety_bound=safety_bound,
                             classify=classify)
    _verify_groups(map_kind, report.groups)
    return report


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
    from .cyclotomic import eval_cyclotomic  # only this experiment needs it

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
