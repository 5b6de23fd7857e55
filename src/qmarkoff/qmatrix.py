"""2x2 matrices over a commutative ring, the two word-to-matrix
homomorphisms and the packed shift-and-add product engine behind them, the
packed 12-entry comparator, the word walker shared by the searches, and the
shift-and-add first-row step on coefficient tuples that the collision
search's soundness check walks with.

``M_q`` sends a to the lower-triangular generator and b to the
upper-triangular one; ``mu_q`` sends each letter to a fixed product of those
generators and recovers the classical Markoff matrices at q = 1.  The same
``Mat2`` type carries products over Z[q, q^-1], over Z (at q = 1) and over
Z[zeta_k] (at roots of unity).

Packed products (Kronecker substitution).  Every letter matrix has entries
in N[q], so every word product does too, and each coefficient of an entry is
at most that entry's value at q = 1.  Take ``shift``, the bits per
coefficient, as the bit length of the largest such value: every coefficient
is then below 2^shift, so evaluation at q = 2^shift is injective on those
entries, and ``unpack_poly`` reads the coefficients back.  One routine,
``packed_step``, makes every packed product, one row at a time, by shift and
add alone: right multiplication by ``L_Q`` sends a row (a, b) to
((a + b) << s, b) and by ``R_Q`` to (a << s, a + b), with s = ``shift``.  A
letter of either map stands for a word of M letters (``IMAGES``: itself
under M, its sigma image under mu, since mu_q(w) = M_q(sigma(w))), so a
word's packed product is the identity's rows (1, 0) and (0, 1) stepped
through the image of each of its letters.  ``M_q`` and ``mu_q`` step both
rows of the whole image once at s = 0, the exact product at q = 1, which
sets ``shift``, and once at ``shift``; the collision scan steps each word's
first row, which holds the 12-entry, from its parent's in ``walk_words``, and
the Christoffel fold starts from the two stepped letters.  Intermediate
packed values need no bound of their own: they are exact evaluations, not
digit strings.  A walk over all words up to a length takes ``shift`` from
the bit length of ``max_entry_at_one``, the largest q = 1 entry of any such
word (exact for both maps).

``m12_equal`` decides whether two words share their 12-entry without reading
back any polynomial: it steps the first row of each word at s = 0, and
unequal q = 1 values already mean unequal polynomials (evaluation is a ring
map); equal ones bound every coefficient of both entries, so one more step at
their bit length makes the two packed entries equal exactly when the
polynomials are.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Mapping, Optional

from .laurent import ONE, Q, ZERO, LaurentPoly
from .words import BINARY, SIGMA, require_word


class Mat2:
    """Immutable 2x2 matrix over a commutative ring: int, LaurentPoly or CycInt."""

    __slots__ = ("_e",)

    def __init__(self, m11, m12, m21, m22) -> None:
        self._e = (m11, m12, m21, m22)

    @classmethod
    def identity(cls, one=ONE, zero=ZERO) -> Mat2:
        """The identity over the ring of ``one`` and ``zero`` (default Z[q, q^-1])."""
        return cls(one, zero, zero, one)

    @property
    def m11(self):
        return self._e[0]

    @property
    def m12(self):
        return self._e[1]

    @property
    def m21(self):
        return self._e[2]

    @property
    def m22(self):
        return self._e[3]

    def entries(self) -> tuple:
        """Row-major entry tuple."""
        return self._e

    def map(self, fn: Callable) -> Mat2:
        """Apply a ring homomorphism entrywise, e.g. evaluation at q = 1."""
        return Mat2(*map(fn, self._e))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __mul__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b, c, d = self._e
        e, f, g, h = other._e
        return Mat2(a * e + b * g, a * f + b * h,
                    c * e + d * g, c * f + d * h)

    def __sub__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(*(x - y for x, y in zip(self._e, other._e)))

    def __add__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(*(x + y for x, y in zip(self._e, other._e)))

    def scale(self, factor) -> Mat2:
        return Mat2(*(factor * x for x in self._e))

    def transpose(self) -> Mat2:
        a, b, c, d = self._e
        return Mat2(a, c, b, d)

    def det(self):
        a, b, c, d = self._e
        return a * d - b * c

    def trace(self):
        return self._e[0] + self._e[3]

    def is_zero(self) -> bool:
        return not any(self._e)

    def at_one(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Evaluate every LaurentPoly entry at q = 1."""
        a, b, c, d = (x.eval_at_one() for x in self._e)
        return ((a, b), (c, d))

    def to_json_dict(self) -> dict:
        keys = ("m11", "m12", "m21", "m22")
        return {k: p.to_json_dict() for k, p in zip(keys, self._e)}

    @classmethod
    def from_json_dict(cls, data: dict) -> Mat2:
        return cls(*(LaurentPoly.from_json_dict(data[k])
                     for k in ("m11", "m12", "m21", "m22")))

    def __repr__(self) -> str:
        a, b, c, d = self._e
        return f"Mat2([[{a}, {b}], [{c}, {d}]])"


#: ``Mat2`` under its earlier name, which ``perfbench/traced.py`` hooks.
QMatrix = Mat2

# Named constant matrices.
L_Q = Mat2(Q, ZERO, Q, ONE)
R_Q = Mat2(Q, ONE, ZERO, ONE)
Q_Q = Mat2(Q, ZERO, ZERO, ONE)
Q_Q_INV = Mat2(LaurentPoly.q(-1), ZERO, ZERO, ONE)
S_MAT = Mat2(ZERO, LaurentPoly.from_int(-1), ONE, ZERO)

MU_A = R_Q * L_Q
MU_B = R_Q * R_Q * L_Q * L_Q

#: Letter matrices of the two word maps.
LETTERS = {"M": {"a": L_Q, "b": R_Q}, "mu": {"a": MU_A, "b": MU_B}}


#: The letter matrices at q = 1, over Z.
LETTERS_AT_ONE = {kind: {ch: g.map(LaurentPoly.eval_at_one) for ch, g in letters.items()}
                  for kind, letters in LETTERS.items()}


#: The M letters each letter stands for: itself under M, its sigma image
#: under mu, since mu_q(w) = M_q(sigma(w)).
IMAGES = {"M": {"a": "a", "b": "b"}, "mu": SIGMA}

#: The ``str.translate`` table sending a word to its image, per map.
_IMAGE_TABLES = {kind: str.maketrans(images) for kind, images in IMAGES.items()}

#: The rows of the identity matrix, which every packed product starts from.
_IDENTITY_ROWS = ((1, 0), (0, 1))


def packed_step(row: tuple[int, int], image: str, shift: int) -> tuple[int, int]:
    """A row (a, b) of a matrix over N[q] at q = 2^shift, times
    ``M_q(image)``: stepped through the M letters of ``image`` by shift and
    add.  With shift 0 it is the exact product at q = 1."""
    a, b = row
    for ch in image:
        if ch == "a":
            a = (a + b) << shift
        else:
            a, b = a << shift, a + b
    return a, b


def unpack_poly(packed: int, shift: int) -> LaurentPoly:
    """The polynomial p with ``packed`` = p(2^shift), for p in N[q] with
    coefficients below 2^shift.

    The loop reads one limb per step by shifting the whole remaining
    integer, so an entry of more than 64 limbs is first halved, recursively:
    the reading stays O(n log n) in the entry's limbs, and a short entry
    pays one comparison."""
    if packed >> (shift << 6):
        half = packed.bit_length() // shift >> 1  # in limbs, at least 32
        low = unpack_poly(packed & ((1 << half * shift) - 1), shift)
        high = unpack_poly(packed >> half * shift, shift)
        coeffs = (0,) * low.min_degree + low.coefficients
        return LaurentPoly(0, coeffs + (0,) * (half - len(coeffs) + high.min_degree)
                           + high.coefficients)
    mask = (1 << shift) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= shift
    return LaurentPoly(0, coeffs)


def max_entry_at_one(map_kind: str, max_len: int) -> int:
    """The largest q = 1 entry of any word of length <= max_len.  The letter
    matrices are nonnegative, so it bounds every coefficient of those words.

    It is exact for both maps.  For M, each row (x, y) of a q = 1 product
    steps to (x + y, y) under a and to (x, x + y) under b, so by induction
    on the length n its (larger, smaller) entries are at most (F(n+1), F(n)),
    Fibonacci numbers; the second row of abab... of length n attains F(n+1).
    For mu, I <= mu(a) <= mu(b) entrywise at q = 1, so b^max_len has the
    largest entries.
    """
    if map_kind == "M":
        big, small = 1, 0
        for _ in range(max_len):
            big, small = big + small, big
        return big
    image = IMAGES["mu"]["b"] * max_len
    return max(max(packed_step(row, image, 0)) for row in _IDENTITY_ROWS)


def _word_product(map_kind: str, w: str) -> Mat2:
    require_word(w, BINARY)
    image = w.translate(_IMAGE_TABLES[map_kind])
    # no coefficient of an entry exceeds the entry's value at q = 1 (shift 0)
    largest = max(max(packed_step(row, image, 0)) for row in _IDENTITY_ROWS)
    shift = max(largest.bit_length(), 1)
    return Mat2(*(unpack_poly(x, shift)
                  for row in _IDENTITY_ROWS for x in packed_step(row, image, shift)))


def m12_equal(map_kind: str, x: str, y: str) -> bool:
    """Whether the words x and y share their 12-entry under the map
    ``map_kind`` ("M" or "mu"), compared as packed integers.

    The first row of each word's product, which holds the 12-entry, is
    stepped from (1, 0) at shift 0: unequal q = 1 values mean unequal
    polynomials.  Equal ones bound every coefficient of both entries (the
    coefficients are nonnegative and sum to that value), so at q = 2^s, with
    s its bit length, packing is injective on both and the packed entries are
    equal exactly when the polynomials are.  No polynomial is built."""
    table = _IMAGE_TABLES[map_kind]
    x = require_word(x, BINARY).translate(table)
    y = require_word(y, BINARY).translate(table)
    at_one = packed_step((1, 0), x, 0)[1]
    if at_one != packed_step((1, 0), y, 0)[1]:
        return False
    shift = max(at_one.bit_length(), 1)
    return packed_step((1, 0), x, shift)[1] == packed_step((1, 0), y, shift)[1]


def M_q(w: str) -> Mat2:
    """Product of the letter generators of w (a -> L, b -> R); identity for the empty word."""
    return _word_product("M", w)


def mu_q(w: str) -> Mat2:
    """Product of the per-letter matrices MU_A and MU_B over w."""
    return _word_product("mu", w)


def walk_words(letters: Mapping[str, object], start: object, max_len: int,
               keep: Optional[Callable[[str], bool]] = None,
               step: Callable = operator.mul) -> Iterator[tuple[str, object]]:
    """Yield (word, ``start`` stepped through its letters) depth-first for
    every word of length <= max_len or, given ``keep``, for every such word
    whose nonempty prefixes ``keep`` all accepts.

    A child's value is ``step(value of its parent, letters[letter])``; by
    default ``step`` multiplies, so ``letters`` maps each letter to its
    matrix over the ring of ``start`` (which may be any start matrix).
    Every yielded nonempty word costs one step, and ``keep`` is asked before
    a word's step is made, so a rejected word and everything below it cost
    nothing.
    """
    stack = [("", start)]
    while stack:
        w, m = stack.pop()
        yield w, m
        if len(w) < max_len:
            for ch, g in letters.items():
                child = w + ch
                if keep is None or keep(child):
                    stack.append((child, step(m, g)))


def first_row_step(row: tuple[tuple[int, ...], tuple[int, ...]],
                   image: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first row (p, r) of a matrix over N[q], times ``M_q(image)``.

    p and r are coefficient tuples from q^0 up, with no trailing zeros.
    ``L_Q`` maps (p, r) to (q(p + r), r) and ``R_Q`` maps it to
    (q p, p + r), so each letter costs one coefficient addition and one
    shift, and no multiplication.  mu_q(w) = M_q(sigma(w)), so stepping
    through ``SIGMA``'s images gives the first row of mu_q.  The route uses
    neither packing nor ``Mat2``.
    """
    p, r = row
    for ch in image:
        # p + r: the shared coefficients summed, then the longer one's tail,
        # as one tuple of its final size; tuple(map(...)) resizes a guessed
        # one, and the blocks it takes fill the tuple free lists when freed
        s = (*map(operator.add, p, r), *(p[len(r):] if len(p) > len(r) else r[len(p):]))
        if ch == "a":
            p = (0,) + s
        else:
            p, r = (0,) + p, s
    return p, r


def char_poly_scaled_a() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Coefficients (1, -trace, det) of the characteristic polynomial of q^-1 * mu_q(a).

    Computed from the trace and determinant of the scaled matrix, not
    hard-coded, so the result doubles as a consistency check.
    """
    scaled = MU_A.scale(LaurentPoly.q(-1))
    return ONE, -scaled.trace(), scaled.det()
