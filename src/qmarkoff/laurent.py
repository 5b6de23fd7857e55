"""Exact Laurent polynomials over the integers in one indeterminate q.

Coefficients are arbitrary-precision; values are immutable and hashable.
Canonical form strips leading and trailing zero coefficients, so equality
and hashing are structural.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator


def format_terms(terms: Iterable[tuple[int, int]], var: str) -> str:
    """Human form of nonzero (exponent, coefficient) terms, e.g.
    ``1 + 4q - q^2``; "0" when there are none."""
    parts = []
    for e, c in terms:
        if e == 0:
            body = str(abs(c))
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class LaurentPoly:
    """An element of Z[q, q^-1] stored densely from its lowest exponent up."""

    __slots__ = ("_min", "_coeffs")

    def __init__(self, min_degree: int = 0, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        hi = len(cs)
        while hi and cs[hi - 1] == 0:
            hi -= 1
        lo = 0
        while lo < hi and cs[lo] == 0:
            lo += 1
        if lo == hi:
            self._min = 0
            self._coeffs: tuple[int, ...] = ()
        else:
            self._min = min_degree + lo
            self._coeffs = tuple(cs[lo:hi])

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(0, (1,))

    @classmethod
    def from_int(cls, n: int) -> LaurentPoly:
        return cls(0, (n,))

    @classmethod
    def q(cls, power: int = 1, coefficient: int = 1) -> LaurentPoly:
        """The monomial coefficient * q**power."""
        return cls(power, (coefficient,))

    @classmethod
    def from_dict(cls, terms: dict[int, int]) -> LaurentPoly:
        if not terms:
            return cls()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, [terms.get(e, 0) for e in range(lo, hi + 1)])

    @property
    def min_degree(self) -> int:
        return self._min

    @property
    def max_degree(self) -> int:
        return self._min + len(self._coeffs) - 1 if self._coeffs else 0

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._min
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs with nonzero coefficient, ascending."""
        for i, c in enumerate(self._coeffs):
            if c:
                yield self._min + i, c

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._min == other._min and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._min, self._coeffs))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self._min, tuple(-c for c in self._coeffs))

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        lo = min(self._min, other._min)
        hi = max(self.max_degree, other.max_degree)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self._coeffs):
            out[self._min - lo + i] += c
        for i, c in enumerate(other._coeffs):
            out[other._min - lo + i] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: LaurentPoly | int) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return LaurentPoly()
        if len(a) == 1 or len(b) == 1:
            # c q^e times p: p's coefficients scaled by c and shifted by e.
            # Z has no zero divisors, so the end coefficients stay nonzero
            # and the result is canonical without the constructor's scan.
            (c,), rest = (a, b) if len(a) == 1 else (b, a)
            product = LaurentPoly.__new__(LaurentPoly)
            product._min = self._min + other._min
            product._coeffs = rest if c == 1 else tuple([c * x for x in rest])
            return product
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return LaurentPoly(self._min + other._min, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, exponent: int) -> LaurentPoly:
        """Multiply by q**exponent."""
        return LaurentPoly(self._min + exponent, self._coeffs)

    def eval_at_one(self) -> int:
        """The sum of all coefficients, i.e. the value at q = 1."""
        return sum(self._coeffs)

    def content_hash(self) -> str:
        """Stable hex digest of the canonical form, for caching and bucketing."""
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self._min).encode())
        for c in self._coeffs:
            h.update(b"|")
            h.update(str(c).encode())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        return {"min_degree": self._min, "coeffs": [str(c) for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> LaurentPoly:
        return cls(int(data["min_degree"]), [int(c) for c in data["coeffs"]])

    def __repr__(self) -> str:
        return f"LaurentPoly({self._min}, {self._coeffs})"

    def __str__(self) -> str:
        return format_terms(self.terms(), "q")


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q()
