"""2x2 matrices over a commutative ring, the two word-to-matrix
homomorphisms, the packed exact product engine behind them, and the word
walker shared by the searches.

``M_q`` sends a to the lower-triangular generator and b to the
upper-triangular one; ``mu_q`` sends each letter to a fixed product of those
generators and recovers the classical Markoff matrices at q = 1.  The same
``Mat2`` type carries products over Z[q, q^-1], over Z (at q = 1) and over
Z[zeta_k] (at roots of unity).

Packed products (Kronecker substitution).  Every letter matrix has entries
in N[q], so every word product does too, and each coefficient of an entry is
at most that entry's value at q = 1.  Take ``shift``, the bits per
coefficient, as the bit length of the largest such value: every coefficient
is then below 2^shift, so evaluation at q = 2^shift (``pack_poly``) is
injective on those entries, and, being a ring homomorphism, it turns the
whole word product into one product of integer matrices; ``unpack_poly``
reads the coefficients back once at the end.  Intermediate packed products
need no bound of their own: they are exact evaluations, not digit strings.
A walk over all words up to a length takes ``shift`` from the bit length of
``max_entry_at_one``, a bound on every such value.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, reduce
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from .laurent import ONE, Q, ZERO, LaurentPoly
from .words import BINARY, SIGMA, apply_morphism, require_word


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


def pack_poly(p: LaurentPoly, shift: int) -> int:
    """p evaluated at q = 2^shift; injective on polynomials with nonnegative
    exponents and coefficients below 2^shift."""
    out = 0
    for e, c in p.terms():
        if e < 0 or c < 0:
            raise ValueError("packing requires nonnegative exponents and coefficients")
        out |= c << (shift * e)
    return out


def unpack_poly(packed: int, shift: int) -> LaurentPoly:
    """The inverse of ``pack_poly`` for coefficients below 2^shift."""
    mask = (1 << shift) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= shift
    return LaurentPoly(0, coeffs)


@lru_cache(maxsize=256)
def packed_letters(map_kind: str, shift: int) -> Mapping[str, Mat2]:
    """The letter matrices of ``map_kind`` packed with ``shift`` bits per
    coefficient (cached: packing is a quarter of a short word's product)."""
    return MappingProxyType({ch: g.map(partial(pack_poly, shift=shift))
                             for ch, g in LETTERS[map_kind].items()})


def max_entry_at_one(map_kind: str, max_len: int) -> int:
    """The largest entry of U_0 = I, U_1, ..., U_max_len, where U_n is the
    entrywise max over letters g of U_(n-1) g at q = 1.  The letter matrices
    are nonnegative, so it bounds every q = 1 entry, and so every coefficient,
    of every word of length <= max_len.  It is exact for mu, where U_n is the
    q = 1 matrix of b^n, since mu(a) <= mu(b) entrywise at q = 1."""
    letters = LETTERS_AT_ONE[map_kind].values()
    u, bound = Mat2.identity(1, 0), 1
    for _ in range(max_len):
        u = Mat2(*map(max, *((u * g).entries() for g in letters)))
        bound = max(bound, *u.entries())
    return bound


def _word_product(map_kind: str, w: str) -> Mat2:
    require_word(w, BINARY)
    int_one = Mat2.identity(1, 0)
    at_one = reduce(operator.mul, (LETTERS_AT_ONE[map_kind][ch] for ch in w), int_one)
    # no coefficient of an entry exceeds the entry's value at q = 1
    shift = max(max(at_one.entries()).bit_length(), 1)
    letters = packed_letters(map_kind, shift)
    packed = reduce(operator.mul, (letters[ch] for ch in w), int_one)
    return packed.map(partial(unpack_poly, shift=shift))


def M_q(w: str) -> Mat2:
    """Product of the letter generators of w (a -> L, b -> R); identity for the empty word."""
    return _word_product("M", w)


def mu_q(w: str) -> Mat2:
    """Product of the per-letter matrices MU_A and MU_B over w."""
    return _word_product("mu", w)


def walk_words(letters: Mapping[str, Mat2], identity: Mat2, max_len: int,
               keep: Optional[Callable[[str], bool]] = None) -> Iterator[tuple[str, Mat2]]:
    """Yield (word, ``identity`` times the product of its letter matrices)
    depth-first for every word of length <= max_len or, given ``keep``, for
    every such word whose nonempty prefixes ``keep`` all accepts.

    ``letters`` maps each letter to its matrix over the ring of ``identity``
    (which may be any start matrix); every yielded nonempty word costs one
    matrix multiplication, and ``keep`` is asked before a word's product is
    made, so a rejected word and everything below it cost nothing.
    """
    stack = [("", identity)]
    while stack:
        w, m = stack.pop()
        yield w, m
        if len(w) < max_len:
            for ch, g in letters.items():
                child = w + ch
                if keep is None or keep(child):
                    stack.append((child, m * g))


def mu_q_via_sigma(w: str) -> Mat2:
    """Alternative route to mu_q(w) through M_q and the morphism sigma.

    Kept as an independent path so tests can cross-check the base matrices.
    """
    require_word(w, BINARY)
    return M_q(apply_morphism(SIGMA, w))


def char_poly_scaled_a() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Coefficients (1, -trace, det) of the characteristic polynomial of q^-1 * mu_q(a).

    Computed from the trace and determinant of the scaled matrix, not
    hard-coded, so the result doubles as a consistency check.
    """
    scaled = MU_A.scale(LaurentPoly.q(-1))
    return ONE, -scaled.trace(), scaled.det()
