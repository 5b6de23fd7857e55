import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmarkoff.words import (BINARY, EXTENDED, SIGMA, apply_morphism, bar,
                            christoffel_tree, christoffel_words, is_palindrome,
                            iter_words, letter_counts, mirror, require_word,
                            stern_brocot_fraction)

binary_words = st.text(alphabet="ab", max_size=12)
extended_words = st.text(alphabet="abcd", max_size=12)


def test_mirror_examples():
    assert mirror("aab") == "baa"
    assert mirror("") == ""
    assert mirror("abba") == "abba"


def test_bar_examples():
    assert bar("aab") == "abb"
    assert bar("") == ""
    assert bar("acd") == "cdb"


@given(extended_words)
def test_bar_is_an_involution(w):
    assert bar(bar(w)) == w


@given(binary_words)
def test_mirror_is_an_involution(w):
    assert mirror(mirror(w)) == w


@given(extended_words, extended_words)
def test_bar_reverses_concatenation(u, v):
    assert bar(u + v) == bar(v) + bar(u)


def test_is_palindrome():
    assert is_palindrome("aba")
    assert not is_palindrome("ab")
    assert is_palindrome("")


def test_christoffel_words_small():
    assert christoffel_words(2) == ["a", "b", "ab"]
    assert christoffel_words(4) == ["a", "b", "ab", "aab", "abb", "aaab", "abbb"]


def test_christoffel_words_length_five():
    words = christoffel_words(5)
    assert "aabab" in words
    assert {w for w in words if len(w) == 5} == {"aaaab", "aabab", "ababb", "abbbb"}


def test_christoffel_words_rejects_zero():
    with pytest.raises(ValueError):
        christoffel_words(0)


def test_christoffel_uniqueness_and_order():
    words = christoffel_words(20)
    assert len(words) == len(set(words))
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_stern_brocot_injective_up_to_20():
    words = christoffel_words(20)
    fractions = [stern_brocot_fraction(w) for w in words]
    assert len(set(fractions)) == len(words)


def test_christoffel_fractions_already_reduced():
    for w in christoffel_words(20):
        nb, na = w.count("b"), w.count("a")
        assert math.gcd(nb, na) == 1
        assert stern_brocot_fraction(w) == (nb, na)


def test_stern_brocot_examples():
    assert stern_brocot_fraction("aabab") == (2, 3)
    assert stern_brocot_fraction("a") == (0, 1)
    assert stern_brocot_fraction("ab") == (1, 1)
    assert stern_brocot_fraction("b") == (1, 0)
    assert stern_brocot_fraction("bbaa") == (1, 1)
    with pytest.raises(ValueError):
        stern_brocot_fraction("")


def test_christoffel_tree_structure():
    nodes = christoffel_tree(6)
    assert nodes[0] == ("a", "b")
    words = set(christoffel_words(6))
    for u, v in nodes:
        assert u + v in words
        assert len(u) + len(v) <= 6
    # children relation: both (u, uv) and (uv, v) appear when short enough
    node_set = set(nodes)
    for u, v in nodes:
        if len(u) + len(u) + len(v) <= 6:
            assert (u, u + v) in node_set
        if len(u) + len(v) + len(v) <= 6:
            assert (u + v, v) in node_set


def test_inner_factor_of_christoffel_is_palindrome():
    for w in christoffel_words(16):
        if len(w) >= 2:
            assert w[0] == "a" and w[-1] == "b"
            assert is_palindrome(w[1:-1])


def test_apply_morphism_sigma():
    assert apply_morphism(SIGMA, "aabab") == "bababbaababbaa"
    assert apply_morphism(SIGMA, "") == ""
    with pytest.raises(ValueError):
        apply_morphism(SIGMA, "abc")


# arbitrary text, whitespace and non-ASCII letters included, with enough
# alphabet letters that many drawn words are accepted
any_text = st.text(st.one_of(st.sampled_from("abcd \t\n"), st.characters()), max_size=12)


@given(any_text, st.sampled_from([BINARY, EXTENDED]))
@example("", BINARY)
@example(" ab\n", BINARY)
@example("abé", EXTENDED)
@example("bzb", BINARY)
def test_require_word(w, alphabet):
    assert require_word("ab") == "ab"
    assert require_word("abcd", EXTENDED) == "abcd"
    with pytest.raises(ValueError):
        require_word("abc", BINARY)
    with pytest.raises(TypeError, match="word must be a str, got int"):
        require_word(3)
    # accepted iff every letter is in the alphabet; the error names the others
    bad = sorted(set(w) - set(alphabet))
    if not bad:
        assert require_word(w, alphabet) is w
        return
    with pytest.raises(ValueError) as exc:
        require_word(w, alphabet)
    assert str(exc.value) == f"letters {bad} not in alphabet {alphabet!r}"


@given(binary_words)
def test_letter_counts_partition_length(w):
    na, nb = letter_counts(w)
    assert na + nb == len(w)


def test_iter_words_counts():
    assert sum(1 for _ in iter_words("ab", 5)) == 2 ** 6 - 1
    assert list(iter_words("ab", 1)) == ["", "a", "b"]
    assert list(iter_words("ab", 2, min_len=2)) == ["aa", "ab", "ba", "bb"]
