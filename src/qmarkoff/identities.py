"""Parametrized word morphisms and the two families of entry identities.

The first family pairs a bracketed word with its bracketed mirror (or, on the
letter-generator side, its bar image).  The second family is generated by the
four-letter morphisms phi and psi: two words built from images of v and of
``partner(v)`` share their upper-right matrix entry.

``partner`` reverses a word and exchanges a with b while fixing c and d.
It is not the same as :func:`qmarkoff.words.bar`, which also exchanges c and
d: with the c/d exchange the second family's equalities simply fail (already
for single letters), while the delta difference below needs the full bar to
vanish.  Both involutions are therefore exposed and used where each is true.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .laurent import ZERO, LaurentPoly
# mu_q is not called here: it stays importable as identities.mu_q, which
# perfbench/traced.py hooks
from .qmatrix import M_q, m12_equal, mu_q
from .words import (BINARY, EXTENDED, apply_morphism, bar, iter_words, mirror,
                    require_word)

#: Two-letter refinement of the extended alphabet: the image alternates one
#: letter of {a,b} with one of {c,d}.  Images are chosen so that
#: phi_w == eta_w composed with tau holds letterwise.
TAU: Mapping[str, str] = {"a": "ac", "b": "bd", "c": "ad", "d": "bc"}

_PARTNER_TABLE = str.maketrans("ab", "ba")


def partner(v: str) -> str:
    """Reverse v and exchange a with b, leaving c and d fixed."""
    return require_word(v, EXTENDED)[::-1].translate(_PARTNER_TABLE)


def phi(w: str) -> dict[str, str]:
    """Letter images of the first four-letter morphism with parameter w."""
    bw = bar(require_word(w, BINARY))
    return {
        "a": w + "abba" + bw + "abba",
        "b": w + "baab" + bw + "baab",
        "c": w + "abba" + bw + "baab",
        "d": w + "baab" + bw + "abba",
    }


def psi(w: str) -> dict[str, str]:
    """Letter images of the second four-letter morphism with parameter w."""
    mw = mirror(require_word(w, BINARY))
    return {
        "a": w + "ab" + mw + "ab",
        "b": w + "ba" + mw + "ba",
        "c": w + "ab" + mw + "ba",
        "d": w + "ba" + mw + "ab",
    }


def eta(w: str) -> dict[str, str]:
    """Half-blocks of phi: a,b prepend w, c,d prepend bar(w)."""
    require_word(w, BINARY)
    bw = bar(w)
    return {"a": w + "abba", "b": w + "baab", "c": bw + "abba", "d": bw + "baab"}


def eta_prime(w: str) -> dict[str, str]:
    """Mirrored half-blocks: the parameter word follows the four-letter block."""
    require_word(w, BINARY)
    bw = bar(w)
    return {"a": "abba" + w, "b": "baab" + w, "c": "abba" + bw, "d": "baab" + bw}


def identity1_M_words(w: str, k: int = 0, m: int = 0, n: int = 0) -> tuple[str, str]:
    """The two bracketed words of a first-family instance on the generator side."""
    require_word(w, BINARY)
    return ("a" * k + "b" + w + "b" + "a" * m,
            "a" * k + "b" + bar(w) + "b" + "a" * n)


def identity1_mu_words(w: str) -> tuple[str, str]:
    """The two bracketed words of a first-family instance on the mu side."""
    require_word(w, BINARY)
    return "a" + w + "b", "a" + mirror(w) + "b"


def identity2_M_words(w: str, v: str, k: int = 0, m: int = 0, n: int = 0) -> tuple[str, str]:
    """The two words of a second-family instance on the generator side."""
    images = phi(w)
    return ("a" * k + "b" + apply_morphism(images, v) + w + "b" + "a" * m,
            "a" * k + "b" + apply_morphism(images, partner(v)) + w + "b" + "a" * n)


def identity2_mu_words(w: str, v: str) -> tuple[str, str]:
    """The two words of a second-family instance on the mu side."""
    images = psi(w)
    return ("a" + apply_morphism(images, v) + w + "b",
            "a" + apply_morphism(images, partner(v)) + w + "b")


#: Identity family -> (word map name, word-pair function, the function's
#: parameters after w).  ``verify_family`` passes the map name to
#: ``qmatrix.m12_equal``.
FAMILIES = {
    "1M": ("M", identity1_M_words, ("k", "m", "n")),
    "1mu": ("mu", identity1_mu_words, ()),
    "2M": ("M", identity2_M_words, ("v", "k", "m", "n")),
    "2mu": ("mu", identity2_mu_words, ("v",)),
}


def verify_family(family: str, w: str, *params) -> tuple[str, str, bool]:
    """The two words of one instance of ``family`` and whether they share
    their 12-entry under the family's word map, compared as packed integers
    by ``qmatrix.m12_equal``: no polynomial is built."""
    map_kind, words, _ = FAMILIES[family]
    x, y = words(w, *params)
    return x, y, m12_equal(map_kind, x, y)


def verify_identity1_M(w: str, k: int = 0, m: int = 0, n: int = 0) -> bool:
    """Whether the two bracketed letter-generator products share their 12-entry."""
    return verify_family("1M", w, k, m, n)[2]


def verify_identity1_mu(w: str) -> bool:
    """Whether a(w)b and a(mirror w)b share their 12-entry under mu."""
    return verify_family("1mu", w)[2]


def verify_identity2_M(w: str, v: str, k: int = 0, m: int = 0, n: int = 0) -> bool:
    """Second-family check on the letter-generator side."""
    return verify_family("2M", w, v, k, m, n)[2]


def verify_identity2_mu(w: str, v: str) -> bool:
    """Second-family check on the mu side."""
    return verify_family("2mu", w, v)[2]


def delta(w: str, v: str) -> LaurentPoly:
    """Difference of the two eta-bracketed 12-entries.

    Vanishes identically when v alternates {a,b} with {c,d}; outside that
    language the value is data, not a claim.  Note the second word uses the
    full bar involution (with c and d exchanged) on v.  The two entries are
    first compared as packed integers (``qmatrix.m12_equal``), and ``ZERO``
    is returned when they agree; only a nonzero difference is computed from
    the two ``M_q`` products.
    """
    require_word(v, EXTENDED)
    x = "b" + apply_morphism(eta(w), v) + w + "b"
    y = "b" + w + apply_morphism(eta_prime(w), bar(v)) + "b"
    if m12_equal("M", x, y):
        return ZERO
    return M_q(x).m12 - M_q(y).m12


def alternating_words(max_pairs: int) -> Iterator[str]:
    """All words in ({a,b}{c,d})^j for j = 0..max_pairs, shortest first."""
    return iter_words([x + y for x in "ab" for y in "cd"], max_pairs)
