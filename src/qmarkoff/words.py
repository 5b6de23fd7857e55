"""Words over {a,b} and {a,b,c,d}: involutions, morphism application,
Christoffel enumeration and the Stern-Brocot correspondence.

Words are plain Python strings; functions validate letters at their
boundaries.  The binary alphabet is ``ab``, the extended one ``abcd``.
"""

from __future__ import annotations

import operator
from collections import deque
from math import gcd
from typing import Callable, Iterator, Mapping, Sequence

BINARY = "ab"
EXTENDED = "abcd"

_BAR_TABLE = str.maketrans("abcd", "badc")

#: Morphism a -> ba, b -> bbaa; conjugates the two matrix homomorphisms.
SIGMA: Mapping[str, str] = {"a": "ba", "b": "bbaa"}


def require_word(w: str, alphabet: str = BINARY) -> str:
    """Validate that every letter of ``w`` belongs to ``alphabet``.

    ``w.strip(alphabet)`` is empty exactly when every letter is in the
    alphabet: one C-level pass, with no set built unless the word is bad."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a str, got {type(w).__name__}")
    if w.strip(alphabet):
        raise ValueError(f"letters {sorted(set(w) - set(alphabet))} "
                         f"not in alphabet {alphabet!r}")
    return w


class BoundError(RuntimeError):
    """Raised before any work when a word length is past a command's resource
    bound; the base of every such error, so the command line can map them all
    to one exit code without importing the modules that raise them."""


class SoundnessError(AssertionError):
    """Raised when a collision search's soundness check finds a colliding
    word whose 12-entry, recomputed on the independent route, differs from
    its group's, or one the check never reaches (``search._verify_groups``);
    defined here, as ``BoundError`` is, so the command line maps it to its
    exit code without importing the search."""


def letter_counts(w: str) -> tuple[int, int]:
    """Return (number of a's, number of b's)."""
    return w.count("a"), w.count("b")


def mirror(w: str) -> str:
    """Reverse the word."""
    return w[::-1]


def bar(w: str) -> str:
    """Reverse the word and exchange a with b and c with d."""
    return require_word(w, EXTENDED)[::-1].translate(_BAR_TABLE)


def is_palindrome(w: str) -> bool:
    """True iff the word equals its mirror image."""
    return w == w[::-1]


def apply_morphism(images: Mapping[str, str], w: str) -> str:
    """Concatenate the letterwise images of ``w`` under a morphism table."""
    try:
        return "".join(images[ch] for ch in w)
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} outside morphism domain") from None


def christoffel_fold(max_len: int, a, b, combine: Callable) -> Iterator[tuple]:
    """Yield (u, v, value(uv)) for every Christoffel pair with |uv| <= max_len.

    The root pair is (a, b); the children of (u, v) are (u, uv) and (uv, v).
    value(a) = ``a``, value(b) = ``b`` and value(uv) = combine(value(u),
    value(v)), so each pair costs one ``combine``.  Breadth-first order; both
    children are pruned independently since word length is strictly
    increasing along each branch.
    """
    queue = deque([("a", "b", a, b)])
    while queue:
        u, v, x, y = queue.popleft()
        if len(u) + len(v) > max_len:
            continue
        xy = combine(x, y)
        yield u, v, xy
        queue.append((u, u + v, x, xy))
        queue.append((u + v, v, xy, y))


def christoffel_tree(max_len: int) -> list[tuple[str, str]]:
    """Factorization pairs (u, v) of all Christoffel words uv with |uv| <= max_len,
    in the breadth-first order of :func:`christoffel_fold`."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [(u, v) for u, v, _ in christoffel_fold(max_len, "a", "b", operator.add)]


def christoffel_words(max_len: int) -> list[str]:
    """All Christoffel words of length <= max_len, sorted by (length, lexicographic).

    The single letters a and b are included.
    """
    words = ["a", "b"]
    words.extend(u + v for u, v in christoffel_tree(max_len))
    words.sort(key=lambda w: (len(w), w))
    return words


def iter_words(alphabet: Sequence[str], max_len: int, min_len: int = 0) -> Iterator[str]:
    """Yield every word with min_len <= length <= max_len in (length, lex) order.

    The letters may be blocks of several characters: length then counts
    blocks, and lex follows the order of ``alphabet``."""
    frontier = [""]
    for length in range(max_len + 1):
        if length >= min_len:
            yield from frontier
        if length < max_len:
            frontier = [w + ch for w in frontier for ch in alphabet]


def stern_brocot_fraction(w: str) -> tuple[int, int]:
    """The fraction (|w|_b, |w|_a) in lowest terms, as a (numerator, denominator) pair.

    The word b alone gives the formal fraction (1, 0).  The empty word is
    rejected: it has no associated fraction.
    """
    require_word(w, BINARY)
    if not w:
        raise ValueError("the empty word has no Stern-Brocot fraction")
    num, den = w.count("b"), w.count("a")
    g = gcd(num, den)
    return num // g, den // g
