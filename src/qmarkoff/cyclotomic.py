"""Exact arithmetic in Z[zeta_k] for k <= 6, with the closed-form evaluation
of the letter-product matrices at zeta_6, the six-cone classifier, letter-count
recovery, finite monoid closures and residue-class correspondences.

All geometry is done by exact integer linear algebra in the basis
{1, zeta_6}; no floating point is ever consulted for a classification.

The residue check folds each word's packed mu 12-entry p modulo
2^(k*shift) - 1, the cyclic wraparound of Schönhage-Strassen multiplication,
into p modulo q^k - 1 (``_residue_walk``): p(1) and p(zeta_k) with no CycInt
product.  It is exact because p has coefficients in N and ``shift`` comes
from ``qmatrix.max_entry_at_one`` with a spare bit, so no limb carries.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional

from .laurent import LaurentPoly, format_terms
from .qmatrix import MU_A, MU_B, Mat2, fan_out, max_entry_at_one, packed_letters, walk_words

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
        if k not in _DEGREE:
            raise ValueError(f"k must be in 1..6, got {k}")
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


@dataclass(frozen=True)
class ClosureResult:
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


def monoid_closure(k: int, scaled: bool, cap: int = 10_000) -> ClosureResult:
    """Breadth-first closure of the two evaluated generators under multiplication.

    With ``scaled`` the generators are premultiplied by zeta^-1 and zeta^-2
    respectively.  Matrices are compared exactly; the computation stops with
    an exceeded-cap result as soon as more than ``cap`` distinct elements
    appear (expected for k = 6, where the closure is infinite).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gen_a = evaluate_matrix(MU_A, k)
    gen_b = evaluate_matrix(MU_B, k)
    if scaled:
        gen_a = gen_a.scale(CycInt.zeta_pow(k, -1))
        gen_b = gen_b.scale(CycInt.zeta_pow(k, -2))
    gens = (gen_a, gen_b)
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    if len(seen) > cap:
                        return ClosureResult(k, scaled, cap, None)
                    fresh.append(p)
        frontier = fresh
    return ClosureResult(k, scaled, cap, len(seen))


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

@dataclass(frozen=True)
class ResidueReport:
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


def _residue_walk(k: int, shift: int, prefix: str,
                  max_len: int) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    """Yield (w, p(1), coordinates of p(zeta_k)) for the mu 12-entry p of
    every word w extending ``prefix`` up to max_len, from one packed walk.

    The walk gives x = p(2^shift).  Modulo N = 2^(k*shift) - 1, where
    2^(k*shift) = 1, the k limbs of ``shift`` bits of x are the sums of p's
    coefficients over the exponent classes mod k, that is p modulo q^k - 1:
    they sum to p(1), and ``_reduce`` by the minimal polynomial evaluates
    them at zeta_k.  Exact because p has coefficients in N, so each class
    sum is at most p(1), and the caller sizes ``shift`` from
    ``qmatrix.max_entry_at_one`` with a spare bit: no limb carries, and
    x mod N is never N.
    """
    modulus, mask = (1 << (k * shift)) - 1, (1 << shift) - 1
    offsets = range(0, k * shift, shift)
    for w, m in walk_words(packed_letters("mu", shift), Mat2.identity(1, 0), max_len, prefix):
        x = m.m12 % modulus
        limbs = [(x >> o) & mask for o in offsets]
        yield w, sum(limbs), _reduce(limbs, k)


def _scan_residues(k: int, shift: int, prefix: str, max_len: int) -> tuple[int, list[str], dict]:
    """Over ``_residue_walk``: the word count, the words breaking the residue
    correspondence (k = 2..4) and residue -> zeta_k coordinates (k = 5)."""
    table = _RESIDUE_CLASSES.get(k)
    checked, violations, partition = 0, [], {}
    for w, at_one, coords in _residue_walk(k, shift, prefix, max_len):
        checked += 1
        if table is None:
            partition.setdefault(at_one % k, set()).add(coords)
        elif at_one % k not in table.get(coords, ()):
            violations.append(w)
    return checked, violations, partition


def residue_relation_check(k: int, max_len: int, jobs: int = 1) -> ResidueReport:
    """Check the residue correspondences for k in 2..4, or collect the value
    partition for k = 5, over every word of length <= max_len (empty word
    included)."""
    if k not in (2, 3, 4, 5):
        raise ValueError(f"k must be in 2..5, got {k}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    shift = max_entry_at_one("mu", max_len).bit_length() + 1
    (checked, violations, partition), *parts = fan_out(
        partial(_scan_residues, k, shift), max_len, jobs)
    for c, v, p in parts:
        checked += c
        violations.extend(v)
        for r, vals in p.items():
            partition.setdefault(r, set()).update(vals)
    violations.sort(key=lambda w: (len(w), w))
    if k != 5:
        return ResidueReport(k, max_len, checked, tuple(violations))
    sizes = {r: len(vals) for r, vals in partition.items()}
    all_values = set().union(*partition.values()) if partition else set()
    disjoint = sum(sizes.values()) == len(all_values)
    ordered = {r: tuple(CycInt(k, c) for c in sorted(vals))
               for r, vals in sorted(partition.items())}
    return ResidueReport(k, max_len, checked, tuple(violations),
                         distinct_values=len(all_values), partition_sizes=sizes,
                         classes_disjoint=disjoint, partition=ordered)


def figure2_rows(max_len: int = 10,
                 jobs: int = 1) -> list[tuple[int, tuple[int, ...], float, float]]:
    """Point cloud of the zeta_5 values labelled by the q=1 residue class.

    Each row is (residue_class, exact coordinates, approximate real part,
    approximate imaginary part); the float columns are for plotting only.
    """
    report = residue_relation_check(5, max_len, jobs)
    rows = []
    for r, values in report.partition.items():
        for v in values:
            z = v.approx()
            rows.append((r, v.coords, z.real, z.imag))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows
