"""Exact arithmetic in Z[zeta_k] for k <= 6, with the closed-form evaluation
of the letter-product matrices at zeta_6, the six-cone classifier, letter-count
recovery, finite monoid closures and residue-class correspondences.

All geometry is done by exact integer linear algebra in the basis
{1, zeta_6}; no floating point is ever consulted for a classification.

The residue check walks states, not words: a word's state is its mu matrix
at zeta_k together with its q = 1 mu matrix mod k, and the mu letters
generate a finite monoid at zeta_k (6, 24, 48 and 600 elements for
k = 2..5).  One breadth-first walk (``_walk_states``) finds these states for
the residue check and the elements for ``monoid_closure``; the words behind
a violating state are listed by a walk that visits only prefixes leading to
one (``_words_reaching``).  The closure multiplies ``Mat2`` over ``CycInt``;
the residue check steps a state as one flat tuple of ints, each row of its
zeta_k matrix through a fixed integer matrix per letter (``_row_map``), so
that walk makes no ``CycInt`` and no ``Mat2``.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from .laurent import LaurentPoly, format_terms
from .qmatrix import LETTERS, LETTERS_AT_ONE, MU_A, MU_B, Mat2
from .words import BoundError

_DEGREE = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}
# x**deg reduced: constant-first coefficient rows of the minimal polynomials
# x-1, x+1, x^2+x+1, x^2+1, x^4+x^3+x^2+x+1, x^2-x+1.
_TAIL = {
    1: (1,),
    2: (-1,),
    3: (-1, -1),
    4: (-1, 0),
    5: (-1, -1, -1, -1),
    6: (-1, 1),
}


def _reduce(cs: list[int], k: int) -> tuple[int, ...]:
    deg = _DEGREE[k]
    tail = _TAIL[k]
    for d in range(len(cs) - 1, deg - 1, -1):
        c = cs[d]
        if c:
            cs[d] = 0
            base = d - deg
            for i, t in enumerate(tail):
                cs[base + i] += c * t
    cs.extend([0] * (deg - len(cs)))
    return tuple(cs[:deg])


def _mul_coords(x: tuple[int, ...], y: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return _reduce(out, k)


def _check_order(k: int) -> int:
    if k not in _DEGREE:
        raise ValueError(f"k must be in 1..6, got {k}")
    return k


def _build_powers(k: int) -> tuple[tuple[int, ...], ...]:
    deg = _DEGREE[k]
    one = (1,) + (0,) * (deg - 1)
    zeta = _reduce([0, 1], k)
    powers = [one]
    for _ in range(1, k):
        powers.append(_mul_coords(powers[-1], zeta, k))
    return tuple(powers)


_POWERS = {k: _build_powers(k) for k in _DEGREE}


class CycInt:
    """An element of Z[zeta_k], coordinates in the basis 1, zeta, ..., zeta^(deg-1)."""

    __slots__ = ("_k", "_coords")

    def __init__(self, k: int, coords: Iterable[int]) -> None:
        _check_order(k)
        cs = tuple(int(c) for c in coords)
        if len(cs) != _DEGREE[k]:
            raise ValueError(f"k={k} needs {_DEGREE[k]} coordinates, got {len(cs)}")
        self._k = k
        self._coords = cs

    @classmethod
    def zero(cls, k: int) -> CycInt:
        return cls(k, (0,) * _DEGREE[_check_order(k)])

    @classmethod
    def one(cls, k: int) -> CycInt:
        return cls(k, _POWERS[_check_order(k)][0])

    @classmethod
    def from_int(cls, k: int, n: int) -> CycInt:
        return cls(k, (n,) + (0,) * (_DEGREE[_check_order(k)] - 1))

    @classmethod
    def zeta_pow(cls, k: int, j: int) -> CycInt:
        """zeta_k raised to any integer power j (j is reduced mod k)."""
        return cls(k, _POWERS[_check_order(k)][j % k])

    @property
    def k(self) -> int:
        return self._k

    @property
    def coords(self) -> tuple[int, ...]:
        return self._coords

    def _check(self, other: CycInt) -> None:
        if self._k != other._k:
            raise ValueError(f"mixed cyclotomic orders {self._k} and {other._k}")

    def __bool__(self) -> bool:
        return any(self._coords)

    def is_zero(self) -> bool:
        return not any(self._coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self._k == other._k and self._coords == other._coords

    def __hash__(self) -> int:
        return hash((self._k, self._coords))

    def __neg__(self) -> CycInt:
        return CycInt(self._k, tuple(-c for c in self._coords))

    def __add__(self, other: CycInt) -> CycInt:
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self._k, tuple(a + b for a, b in zip(self._coords, other._coords)))

    def __sub__(self, other: CycInt) -> CycInt:
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self._k, tuple(a - b for a, b in zip(self._coords, other._coords)))

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt(self._k, tuple(c * other for c in self._coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self._k, _mul_coords(self._coords, other._coords, self._k))

    __rmul__ = __mul__

    def times_zeta_pow(self, j: int) -> CycInt:
        return CycInt(self._k, _mul_coords(self._coords, _POWERS[self._k][j % self._k], self._k))

    def approx(self) -> complex:
        """Floating-point image in the complex plane; for plotting only."""
        z = cmath.exp(2j * cmath.pi / self._k)
        return sum(c * z ** j for j, c in enumerate(self._coords))

    def to_json_dict(self) -> dict:
        return {"k": self._k, "coords": list(self._coords)}

    @classmethod
    def from_json_dict(cls, data: dict) -> CycInt:
        return cls(int(data["k"]), [int(c) for c in data["coords"]])

    def __repr__(self) -> str:
        return f"CycInt({self._k}, {self._coords})"

    def __str__(self) -> str:
        return format_terms(((j, c) for j, c in enumerate(self._coords) if c),
                            f"z{self._k}")


def eval_cyclotomic(p: LaurentPoly, k: int) -> CycInt:
    """Exact image of p under q -> zeta_k; q^-1 goes to zeta_k^(k-1)."""
    powers = _POWERS[_check_order(k)]
    acc = [0] * _DEGREE[k]
    for e, c in p.terms():
        z = powers[e % k]
        for i, t in enumerate(z):
            acc[i] += c * t
    return CycInt(k, acc)


def evaluate_matrix(m: Mat2, k: int) -> Mat2:
    """Entrywise evaluation of a Laurent matrix at zeta_k."""
    return m.map(partial(eval_cyclotomic, k=k))


def closed_form_mu_zeta6(length: int, count_b: int) -> Mat2:
    """The matrix mu at zeta_6 for any word with the given length and b-count.

    The image at zeta_6 depends only on (length, count_b); the entries are
    degree-one expressions in zeta_6 times a power of zeta_6.
    """
    if count_b < 0 or length < 0 or count_b > length:
        raise ValueError("need 0 <= count_b <= length")
    n, s = length, count_b
    e = n + s
    z = CycInt.zeta_pow(6, e)

    def lin(c0: int, c1: int) -> CycInt:
        return CycInt(6, (c0, c1)) * z

    return Mat2(lin(s + 1, n), lin(n, -(n + s)),
                lin(n + s, -s), lin(1 - s, -n))


def entry12_zeta6(length: int, count_b: int) -> CycInt:
    """Upper-right entry of the closed form: zeta^(n+s) * (n - (n+s) zeta)."""
    return closed_form_mu_zeta6(length, count_b).m12


def cone_of(z: CycInt) -> Optional[int]:
    """Index of the half-open sixth-plane cone containing z, or None for zero.

    Cone r is spanned by zeta_6^(r+4) and zeta_6^(r+5); it excludes its
    clockwise boundary ray and includes the counterclockwise one, i.e.
    z = alpha * zeta^(r+4) + beta * zeta^(r+5) with alpha >= 0 and beta > 0.
    Solved exactly: consecutive zeta-power pairs form unimodular bases of the
    coordinate lattice, so alpha and beta are integers given by Cramer's rule.
    """
    if z.k != 6:
        raise ValueError("cone classification lives in Z[zeta_6]")
    if z.is_zero():
        return None
    c0, c1 = z.coords
    for j in range(6):
        x1, y1 = _POWERS[6][j % 6]
        x2, y2 = _POWERS[6][(j + 1) % 6]
        # det of the (zeta^j, zeta^(j+1)) basis is +1 for every j
        alpha = c0 * y2 - c1 * x2
        beta = c1 * x1 - c0 * y1
        if alpha >= 0 and beta > 0:
            return (j - 4) % 6
    raise AssertionError("nonzero point escaped the cone partition")


def recover_counts(z: CycInt) -> Optional[tuple[int, int]]:
    """Invert the zeta_6 image: return (count_a, count_b) or None if unattained.

    Zero maps to (0, 0).  Otherwise the cone index recovers the power of
    zeta_6, and peeling it off leaves length and b-count as the two integer
    coordinates; any point whose recovered b-count exceeds its length is not
    the image of a word.
    """
    if z.k != 6:
        raise ValueError("count recovery lives in Z[zeta_6]")
    if z.is_zero():
        return (0, 0)
    r = cone_of(z)
    u = z.times_zeta_pow(-r)
    n = u.coords[0]
    s = -(u.coords[0] + u.coords[1])
    # the peeled power of zeta must match length + b-count mod 6, otherwise z
    # sits in the right cone but is not the image of any word (e.g. zeta_6)
    if n <= 0 or s < 0 or s > n or (n + s) % 6 != r:
        return None
    return (n - s, s)


class ClosureResult(NamedTuple):
    """Outcome of a monoid closure computation under a size cap."""

    k: int
    scaled: bool
    cap: int
    size: Optional[int]  # None when the cap was exceeded

    @property
    def finite(self) -> bool:
        return self.size is not None

    @property
    def exceeded_cap(self) -> bool:
        return self.size is None

    def to_json_dict(self) -> dict:
        return {"k": self.k, "scaled": self.scaled, "cap": self.cap,
                "finite": self.finite, "size": self.size}


def _walk_states(start, letters, mul: Callable, max_len: int, cap: float = math.inf):
    """Breadth-first walk over the states of the words of length <= max_len:
    the empty word's state is ``start`` and w + c has ``mul(state(w), c)``
    for each c of ``letters``.

    States are compared exactly and numbered in the order found, so each
    length's new states follow the last length's.  ``step[i]`` holds the
    numbers of state i times each letter, for every state that a word
    shorter than max_len reaches; every state is multiplied out once per
    letter, however many words share it.  Returns (states, step), or None
    as soon as more than ``cap`` states appear.
    """
    index, step, level = {start: 0}, [], [start]
    for _ in range(max_len):
        found = len(index)
        for s in level:
            step.append(tuple(index.setdefault(mul(s, g), len(index)) for g in letters))
            if len(index) > cap:
                return None
        level = list(index)[found:]
        if not level:
            break
    return list(index), step


def monoid_closure(k: int, scaled: bool, cap: int = 10_000) -> ClosureResult:
    """Breadth-first closure of the two evaluated generators under multiplication.

    With ``scaled`` the generators are premultiplied by zeta^-1 and zeta^-2
    respectively.  Matrices are compared exactly; the computation stops with
    an exceeded-cap result as soon as more than ``cap`` distinct elements
    appear (expected for k = 6, where the closure is infinite).  The walk
    starts at the identity, which every finite closure contains: the
    generators are invertible, and a finite monoid of invertible elements is
    a group.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gen_a = evaluate_matrix(MU_A, k)
    gen_b = evaluate_matrix(MU_B, k)
    if scaled:
        gen_a = gen_a.scale(CycInt.zeta_pow(k, -1))
        gen_b = gen_b.scale(CycInt.zeta_pow(k, -2))
    # no closure of at most cap elements is more than cap letters deep
    walk = _walk_states(Mat2.identity(CycInt.one(k), CycInt.zero(k)),
                        (gen_a, gen_b), operator.mul, cap, cap)
    return ClosureResult(k, scaled, cap, None if walk is None else len(walk[0]))


#: The longest max_len of ``residue_relation_check``: its word count
#: 2^(max_len + 1) - 1 has 4,300 digits there, the most Python converts to str.
MAX_RESIDUE_LEN = 14_283


class ResidueBoundError(BoundError):
    """Raised, before any work, for a residue check past ``MAX_RESIDUE_LEN``."""


# Residue-class correspondence tables: value coordinates -> allowed residues
# of the q=1 entry modulo k.
_RESIDUE_CLASSES = {
    2: {(0,): frozenset({0}), (1,): frozenset({1}), (-1,): frozenset({1})},
    3: {(0, 0): frozenset({0}),
        (1, 0): frozenset({1}), (0, 1): frozenset({1}), (-1, -1): frozenset({1}),
        (-1, 0): frozenset({2}), (0, -1): frozenset({2}), (1, 1): frozenset({2})},
    4: {(0, 0): frozenset({0}),
        (1, 0): frozenset({1, 3}), (-1, 0): frozenset({1, 3}),
        (0, 1): frozenset({1, 3}), (0, -1): frozenset({1, 3}),
        (1, 1): frozenset({2}), (1, -1): frozenset({2}),
        (-1, 1): frozenset({2}), (-1, -1): frozenset({2})},
}


class ResidueReport(NamedTuple):
    """Comparison of q=1 entries modulo k with the zeta_k evaluations."""

    k: int
    max_len: int
    words_checked: int
    violations: tuple[str, ...]
    distinct_values: Optional[int] = None
    partition_sizes: Optional[dict] = None
    classes_disjoint: Optional[bool] = None
    partition: Optional[dict] = None  # residue -> sorted tuple of CycInt

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        data = {"k": self.k, "max_len": self.max_len,
                "words_checked": self.words_checked,
                "violations": list(self.violations)}
        if self.distinct_values is not None:
            data["distinct_values"] = self.distinct_values
            data["partition_sizes"] = {str(r): n for r, n in sorted(self.partition_sizes.items())}
            data["classes_disjoint"] = self.classes_disjoint
        return data


def _row_map(g: Mat2, k: int) -> list[tuple[int, ...]]:
    """Right multiplication by ``g``, a matrix over Z[zeta_k], on one row
    (x, y) of a matrix over Z[zeta_k], as an integer matrix on the row's
    2 deg coordinates (those of x, then of y): one tuple of weights on them
    per coordinate of (x g11 + y g21, x g12 + y g22).  The weights are the
    products of each basis element 1, zeta, ..., zeta^(deg-1) with the
    entries of ``g``."""
    deg = _DEGREE[k]
    basis = _POWERS[k][:deg]
    g11, g12, g21, g22 = (z.coords for z in g.entries())
    weights = []
    for column in ((g11, g21), (g12, g22)):
        images = [_mul_coords(u, c, k) for c in column for u in basis]
        weights += [tuple(image[t] for image in images) for t in range(deg)]
    return weights


def _residue_states(k: int, max_len: int) -> tuple[list, list]:
    """``_walk_states`` of the words of length <= max_len, where a word's
    state is one tuple of ints: the coordinates of its mu matrix at zeta_k,
    entry by entry in row-major order (4 deg of them), then its q = 1 mu
    matrix reduced mod k, row-major (4 of them).

    Both are ring maps of the word product, so the state of w + c is the
    state of w times that of c, and the states are finitely many for
    k = 2..5.  A step multiplies each row of the zeta_k matrix by the
    letter's ``_row_map`` and the q = 1 matrix by the letter's q = 1 matrix,
    once per state and letter at any max_len, on plain ints.
    """
    deg = _DEGREE[k]
    row, entries = 2 * deg, 4 * deg  # coordinates of one row, of the matrix
    letters = [(_row_map(evaluate_matrix(g, k), k), LETTERS_AT_ONE["mu"][ch].entries())
               for ch, g in LETTERS["mu"].items()]
    one, zero = _POWERS[k][0], (0,) * deg
    start = (*one, *zero, *zero, *one, 1, 0, 0, 1)
    mul = operator.mul

    def times(state: tuple[int, ...], letter) -> tuple[int, ...]:
        weights, (e, f, g, h) = letter
        top, bottom = state[:row], state[row:entries]
        a, b, c, d = state[entries:]
        return (*[sum(map(mul, w, top)) for w in weights],
                *[sum(map(mul, w, bottom)) for w in weights],
                (a * e + b * g) % k, (a * f + b * h) % k,
                (c * e + d * g) % k, (c * f + d * h) % k)

    return _walk_states(start, letters, times, max_len)


def _words_reaching(targets: set, step: list, max_len: int) -> list[str]:
    """Every word of length <= max_len whose state index is in ``targets``,
    sorted by (length, word).

    ``within[r]`` holds the states from which a target is at most r letters
    away (backward reachability over ``step``); the depth-first walk enters
    a state only if a target lies within the letters left, so every branch
    it takes ends in at least one listed word.
    """
    within = [targets]
    while len(within) <= max_len:
        grown = within[-1] | {i for i, js in enumerate(step) if within[-1].intersection(js)}
        if grown == within[-1]:
            break
        within.append(grown)
    words, stack = [], [("", 0)]
    while stack:
        w, i = stack.pop()
        if i in targets:
            words.append(w)
        left = max_len - len(w) - 1  # letters left after the next one
        if left >= 0:
            near = within[min(left, len(within) - 1)]
            stack.extend((w + ch, j) for ch, j in zip("ab", step[i]) if j in near)
    return sorted(words, key=lambda w: (len(w), w))


def residue_relation_check(k: int, max_len: int) -> ResidueReport:
    """Check the residue correspondences for k in 2..4, or collect the value
    partition for k = 5, over every word of length <= max_len (empty word
    included), from the states of ``_residue_states``.

    Raises ``ResidueBoundError`` before any work when max_len exceeds
    ``MAX_RESIDUE_LEN``.
    """
    if k not in (2, 3, 4, 5):
        raise ValueError(f"k must be in 2..5, got {k}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > MAX_RESIDUE_LEN:
        raise ResidueBoundError(f"max_len {max_len} exceeds {MAX_RESIDUE_LEN}, the longest "
                                "length whose word count 2^(max_len+1) - 1 can be printed")
    states, step = _residue_states(k, max_len)
    checked = (1 << (max_len + 1)) - 1
    # a state's 12-entries: coordinates at zeta_k, and the value at q = 1 mod k
    deg = _DEGREE[k]
    m12 = slice(deg, 2 * deg)
    m12_mod_k = 4 * deg + 1
    table = _RESIDUE_CLASSES.get(k)
    if table is not None:
        bad = {i for i, s in enumerate(states)
               if s[m12_mod_k] not in table.get(s[m12], ())}
        violations = _words_reaching(bad, step, max_len)
        return ResidueReport(k, max_len, checked, tuple(violations))
    partition: dict[int, set] = {}
    for s in states:
        partition.setdefault(s[m12_mod_k], set()).add(s[m12])
    sizes = {r: len(vals) for r, vals in partition.items()}
    all_values = set().union(*partition.values())
    disjoint = sum(sizes.values()) == len(all_values)
    ordered = {r: tuple(CycInt(k, c) for c in sorted(vals))
               for r, vals in sorted(partition.items())}
    return ResidueReport(k, max_len, checked, (),
                         distinct_values=len(all_values), partition_sizes=sizes,
                         classes_disjoint=disjoint, partition=ordered)


def figure2_rows(max_len: int = 10) -> list[tuple[int, tuple[int, ...], float, float]]:
    """Point cloud of the zeta_5 values labelled by the q=1 residue class.

    Each row is (residue_class, exact coordinates, approximate real part,
    approximate imaginary part), in the order of ``ResidueReport.partition``:
    by residue, then by coordinates.  The float columns are for plotting only.
    """
    report = residue_relation_check(5, max_len)
    rows = []
    for r, values in report.partition.items():
        for v in values:
            z = v.approx()
            rows.append((r, v.coords, z.real, z.imag))
    return rows
