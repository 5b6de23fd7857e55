import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import identities, qmatrix
from qmarkoff.identities import (FAMILIES, TAU, alternating_words, delta, eta,
                                 eta_prime, identity2_M_words, partner, phi,
                                 psi, verify_family, verify_identity1_M,
                                 verify_identity1_mu, verify_identity2_M,
                                 verify_identity2_mu)
from qmarkoff.laurent import ZERO, LaurentPoly
from qmarkoff.qmatrix import M_q, mu_q
from qmarkoff.words import apply_morphism, bar, iter_words, mirror

binary_words = st.text(alphabet="ab", max_size=5)
extended_words = st.text(alphabet="abcd", max_size=4)


def test_psi_images_for_empty_parameter():
    images = psi("")
    assert images == {"a": "abab", "b": "baba", "c": "abba", "d": "baab"}


def test_phi_images_for_empty_parameter():
    images = phi("")
    assert images == {"a": "abbaabba", "b": "baabbaab",
                      "c": "abbabaab", "d": "baababba"}


def test_parameter_word_threads_through_images():
    images = psi("ab")
    assert images["a"] == "ab" + "ab" + "ba" + "ab"
    images = phi("ab")
    assert images["c"] == "ab" + "abba" + "ab" + "baab"  # bar(ab) == ab


def test_eta_blocks():
    assert eta("a") == {"a": "aabba", "b": "abaab", "c": "babba", "d": "bbaab"}
    assert eta_prime("a") == {"a": "abbaa", "b": "baaba", "c": "abbab", "d": "baabb"}


def test_partner_involution():
    assert partner("ac") == "cb"
    assert partner("c") == "c"
    assert partner("d") == "d"
    assert partner("abcd") == "dcab"
    with pytest.raises(ValueError):
        partner("xyz")


@given(extended_words)
def test_partner_is_an_involution(v):
    assert partner(partner(v)) == v


@given(extended_words)
def test_partner_and_bar_differ_exactly_on_cd(v):
    swapped = bar(v).translate(str.maketrans("cd", "dc"))
    assert partner(v) == swapped


@given(binary_words, extended_words)
def test_phi_decomposes_through_tau(w, v):
    assert apply_morphism(phi(w), v) == apply_morphism(eta(w), apply_morphism(TAU, v))


@given(binary_words, extended_words)
def test_structural_word_identity(w, v):
    lhs = apply_morphism(phi(w), partner(v)) + w
    rhs = w + apply_morphism(eta_prime(w), bar(apply_morphism(TAU, v)))
    assert lhs == rhs


def test_identity1_M_examples():
    assert verify_identity1_M("a")  # both bracketed words give q^2 + q + 1
    assert M_q("bab").m12 == M_q("bbb").m12 == LaurentPoly(0, (1, 1, 1))
    assert verify_identity1_M("", 2, 1, 3)


@settings(max_examples=60)
@given(binary_words, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_identity1_M_randomized(w, k, m, n):
    assert verify_identity1_M(w, k, m, n)


def test_identity1_mu_examples():
    assert verify_identity1_mu("aab")
    assert mu_q("aaabb").m12 == mu_q("abaab").m12
    assert verify_identity1_mu("ab")
    assert mu_q("aabb").m12 == mu_q("abab").m12
    assert verify_identity1_mu("aba")  # palindrome: identical words


@given(binary_words)
def test_identity1_mu_randomized(w):
    assert verify_identity1_mu(w)


def test_identity2_examples():
    assert verify_identity2_M("", "")
    assert verify_identity2_M("", "a")
    assert verify_identity2_mu("", "")
    assert verify_identity2_mu("", "a")
    assert mu_q("a" + "abab" + "b").m12 == mu_q("a" + "baba" + "b").m12


@settings(max_examples=40, deadline=None)
@given(binary_words, extended_words, st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_identity2_M_randomized(w, v, k, m, n):
    assert verify_identity2_M(w, v, k, m, n)


@settings(max_examples=40, deadline=None)
@given(binary_words, extended_words)
def test_identity2_mu_randomized(w, v):
    assert verify_identity2_mu(w, v)


def test_cd_exchange_is_not_the_second_family_pairing():
    # pairing c with d (instead of fixing both) breaks the equality already
    # for single letters: the two bracketed words below are not a collision
    images = psi("")
    x = mu_q("a" + images["c"] + "b").m12
    y = mu_q("a" + images["d"] + "b").m12
    assert x != y
    assert x.eval_at_one() == y.eval_at_one()  # they do agree at q = 1


def test_delta_empty_v_is_zero():
    for w in ("", "a", "b", "ab", "bab"):
        assert delta(w, "").is_zero()


def test_alternating_words_are_the_pair_words_shortest_first():
    units = ["ac", "ad", "bc", "bd"]
    expected = ["".join(p) for j in range(4) for p in itertools.product(units, repeat=j)]
    assert list(alternating_words(3)) == expected
    assert list(alternating_words(0)) == [""]


def test_delta_vanishes_on_alternating_words():
    for w in iter_words("ab", 2):
        for v in alternating_words(2):
            assert delta(w, v).is_zero(), (w, v)


def test_delta_outside_language_is_reported_not_zero():
    value = delta("a", "a")
    assert value == LaurentPoly(1, (-1, -1, -1, -1, -1, -1))
    assert not value.is_zero()


def test_delta_validates_letters():
    with pytest.raises(ValueError):
        delta("a", "ax")


def test_delta_recursion_step():
    # whenever the tail difference vanishes, prepending u x bar(u) with either
    # letter of {a,b} in the middle gives equal values
    rng = random.Random(7)
    units = ["ac", "ad", "bc", "bd"]
    for _ in range(25):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
        v = "".join(rng.choice(units) for _ in range(rng.randint(0, 2)))
        u = "".join(rng.choice(units) for _ in range(rng.randint(0, 2)))
        x = rng.choice("cd")
        assert delta(w, v).is_zero()
        first = delta(w, u + "a" + bar(u) + x + v)
        second = delta(w, u + "b" + bar(u) + x + v)
        assert first == second
        # odd-length u variant exchanges the c/d letter in the middle
        u_odd = u + rng.choice("ab")
        third = delta(w, u_odd + "c" + bar(u_odd) + x + v)
        fourth = delta(w, u_odd + "d" + bar(u_odd) + x + v)
        assert third == fourth


def test_alternating_words_enumeration():
    words = list(alternating_words(2))
    assert words[0] == ""
    assert len(words) == 1 + 4 + 16
    assert all(len(v) % 2 == 0 for v in words)
    assert all(all(v[i] in "ab" and v[i + 1] in "cd" for i in range(0, len(v), 2))
               for v in words)


def test_morphism_tables_reject_bad_parameters():
    with pytest.raises(ValueError):
        phi("abc")
    with pytest.raises(ValueError):
        psi("cd")


@given(binary_words, extended_words, extended_words)
def test_morphisms_are_homomorphisms(w, u, v):
    for table in (phi(w), psi(w), eta(w), eta_prime(w)):
        assert apply_morphism(table, u + v) == \
            apply_morphism(table, u) + apply_morphism(table, v)


def test_second_family_words_against_mirror_route():
    # mu route rewritten through the first family when the parameter word is
    # a palindrome: then psi_w(a)w mirrored equals psi_w(b)w
    w = "aba"
    x_inner = apply_morphism(psi(w), "a") + w
    y_inner = apply_morphism(psi(w), "b") + w
    assert mirror(x_inner) == y_inner


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_table_names_the_word_pair_parameters(family):
    map_kind, words, names = FAMILIES[family]
    assert map_kind in ("M", "mu")
    assert tuple(inspect.signature(words).parameters)[1:] == names


def test_verify_family_returns_both_words_and_the_verdict():
    assert verify_family("1mu", "aab") == ("aaabb", "abaab", True)
    x, y, equal = verify_family("2M", "ab", "ca", 1, 0, 2)
    assert (x, y) == identity2_M_words("ab", "ca", 1, 0, 2)
    assert equal and M_q(x).m12 == M_q(y).m12
    with pytest.raises(KeyError):
        verify_family("delta", "")


def test_verdicts_compare_packed_entries_and_build_no_polynomial(monkeypatch):
    # a verdict is an equality test of packed 12-entries: no word product
    # through identities.M_q/mu_q and no polynomial read back
    seen = []

    def counting(name, fn):
        def wrapped(*args):
            seen.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(identities, "M_q", counting("M_q", M_q))
    monkeypatch.setattr(identities, "mu_q", counting("mu_q", mu_q))
    monkeypatch.setattr(qmatrix, "unpack_poly", counting("unpack", qmatrix.unpack_poly))
    instances = {"1M": ("ab", 1, 0, 2), "1mu": ("aab",), "2M": ("ab", "ca", 1, 0, 2),
                 "2mu": ("ab", "cd")}
    for family, args in instances.items():
        x, y, equal = verify_family(family, *args)
        assert equal and x != y
    assert delta("ab", "ac") == ZERO
    assert seen == []
    # an unequal pair (v not alternating) still gets its Laurent difference
    w, v = "a", "a"
    x = "b" + apply_morphism(eta(w), v) + w + "b"
    y = "b" + w + apply_morphism(eta_prime(w), bar(v)) + "b"
    difference = delta(w, v)
    assert not difference.is_zero()
    assert difference == M_q(x).m12 - M_q(y).m12
    assert seen.count("M_q") == 2 and "mu_q" not in seen
