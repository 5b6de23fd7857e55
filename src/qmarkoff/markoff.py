"""Markoff triples: tree generation and number enumeration.

Triples are kept with the middle component maximal, which is the orientation
the branching rule preserves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .qmatrix import LETTERS_AT_ONE
from .words import christoffel_fold


@dataclass(frozen=True)
class MarkoffTriple:
    """A positive solution of x^2 + y^2 + z^2 = 3xyz with y >= x and y >= z."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise ValueError("components must be positive")
        if self.x * self.x + self.y * self.y + self.z * self.z != 3 * self.x * self.y * self.z:
            raise ValueError(f"({self.x}, {self.y}, {self.z}) does not solve the triple equation")
        if self.y < self.x or self.y < self.z:
            raise ValueError("middle component must be maximal")

    def children(self) -> tuple[MarkoffTriple, MarkoffTriple]:
        x, y, z = self.x, self.y, self.z
        return (MarkoffTriple(x, 3 * x * y - z, y),
                MarkoffTriple(y, 3 * y * z - x, z))

    def components(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


ROOT = MarkoffTriple(1, 1, 1)


#: Both branches below a triple; each satisfies the equation by construction.
triple_children = MarkoffTriple.children


def _walk(depth: int, bound: Optional[int] = None) -> list[int]:
    """Sorted distinct components of every triple within ``depth`` levels of
    the root and, given ``bound``, whose middle component is <= bound.

    One depth-first walk holding O(depth) triples and no set of seen ones.
    A triple with x == z, which only (1, 1, 1) and (1, 2, 1) are, has two
    mirror-image children with mirror-image subtrees and the same
    components, so only its first child is walked; past those two the tree
    has no repeats.  The middle component strictly increases along each
    branch, so pruning a child whose middle exceeds the bound keeps every
    triple whose maximum is within it.
    """
    nums: set[int] = set()
    stack = [(ROOT, depth)]
    while stack:
        t, left = stack.pop()
        nums.update(t.components())
        if left:
            children = t.children()
            for child in children[:1] if t.x == t.z else children:
                if bound is None or child.y <= bound:
                    stack.append((child, left - 1))
    return sorted(nums)


def markoff_numbers(depth: int) -> list[int]:
    """Sorted distinct components of every triple within ``depth`` levels of the root."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _walk(depth)


def markoff_numbers_up_to(bound: int) -> list[int]:
    """Every Markoff number <= bound."""
    if bound < 1:
        return []
    # the middle grows from 1 by at least 1 a level: depth ``bound`` prunes nothing
    return [n for n in _walk(bound, bound) if n <= bound]


def christoffel_entry_values(max_len: int) -> dict[str, int]:
    """Upper-right integer matrix entry for every Christoffel word <= max_len.

    Matrices at q = 1 are propagated along the Christoffel tree, so each word
    costs one 2x2 integer multiplication.
    """
    a1, b1 = LETTERS_AT_ONE["mu"]["a"], LETTERS_AT_ONE["mu"]["b"]
    values = {"a": a1.m12, "b": b1.m12}
    for u, v, m in christoffel_fold(max_len, a1, b1, operator.mul):
        values[u + v] = m.m12
    return values
