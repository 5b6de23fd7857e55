import operator
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmarkoff import qmatrix
from qmarkoff.cyclotomic import CycInt, evaluate_matrix
from qmarkoff.laurent import ONE, Q, ZERO, LaurentPoly
from qmarkoff.qmatrix import (L_Q, LETTERS, MU_A, MU_B, Q_Q, Q_Q_INV, R_Q,
                              S_MAT, M_q, Mat2, QMatrix, char_poly_scaled_a,
                              first_row_step, max_entry_at_one, mu_q,
                              packed_step, unpack_poly, walk_words)
from qmarkoff.words import SIGMA, bar, iter_words

from oracle import letter_product_at, matrix_at

binary_words = st.text(alphabet="ab", max_size=8)


def test_generator_matrices():
    assert L_Q.entries() == (Q, ZERO, Q, ONE)
    assert R_Q.entries() == (Q, ONE, ZERO, ONE)
    assert Q_Q * Q_Q_INV == QMatrix.identity()


def test_mu_letter_matrices_match_displayed_products():
    assert MU_A == R_Q * L_Q
    assert MU_A.entries() == (LaurentPoly(1, (1, 1)), ONE, Q, ONE)
    assert MU_B == R_Q * R_Q * L_Q * L_Q
    assert MU_B.m11 == LaurentPoly(1, (1, 2, 1, 1))
    assert MU_B.m12 == LaurentPoly(0, (1, 1))
    assert MU_B.m21 == LaurentPoly(1, (1, 1))
    assert MU_B.m22 == ONE


def test_identity_product():
    m = mu_q("ab")
    assert QMatrix.identity() * m == m
    assert M_q("") == QMatrix.identity()


def test_M_q_examples():
    assert M_q("bab").m12 == LaurentPoly(0, (1, 1, 1))
    assert M_q("bbaaaaabb").m12 == LaurentPoly(0, (1, 2, 3, 4, 4, 4, 3, 2, 1))
    assert M_q("bbaaaaabb").m12 == M_q("baaabaaab").m12


def test_M_q_rejects_extended_letters():
    with pytest.raises(ValueError):
        M_q("ac")


def test_mu_q_headline_word():
    m = mu_q("aabab")
    assert m.m12 == LaurentPoly(0, (1, 4, 10, 18, 27, 33, 33, 29, 21, 12, 5, 1))
    assert m.m12.eval_at_one() == 194
    assert m.at_one() == ((463, 194), (284, 119))


def test_mu_q_collision_display():
    expected = LaurentPoly(0, (1, 4, 10, 19, 27, 33, 34, 29, 21, 12, 5, 1))
    assert mu_q("aaabb").m12 == expected
    assert mu_q("abaab").m12 == expected


def test_mu_entry_values_at_one():
    assert mu_q("aab").m12.eval_at_one() == 13
    assert mu_q("abb").m12.eval_at_one() == 29


def _laurent_product(kind, w):
    """The word's product over Z[q, q^-1], one ``Mat2`` product per letter."""
    return reduce(operator.mul, (LETTERS[kind][ch] for ch in w), Mat2.identity())


@pytest.mark.parametrize("kind, word_map", [("M", M_q), ("mu", mu_q)])
def test_maps_match_the_laurent_product_of_every_word_up_to_12(kind, word_map):
    # walk_words yields the same left-to-right Laurent product, one product per word
    walked = list(walk_words(LETTERS[kind], Mat2.identity(), 12))
    assert len(walked) == 2 ** 13 - 1
    for w, m in walked:
        assert word_map(w) == m, w


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", max_size=80))
@example("ab" * 40)
@example("b" * 80)
def test_maps_match_the_laurent_product_of_long_words(w):
    assert M_q(w) == _laurent_product("M", w)
    assert mu_q(w) == _laurent_product("mu", w)


@pytest.mark.parametrize("word_map", [M_q, mu_q])
def test_word_maps_make_no_matrix_product(monkeypatch, word_map):
    calls = []
    mul = Mat2.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    assert Mat2.identity() * Mat2.identity() == Mat2.identity() and calls == [1]
    calls.clear()
    for w in ("ab" * 20, "a" * 40, "b" * 40, "aabba" * 8):
        word_map(w)
    assert calls == []


@given(binary_words, binary_words)
def test_both_maps_are_homomorphisms(u, v):
    assert M_q(u + v) == M_q(u) * M_q(v)
    assert mu_q(u + v) == mu_q(u) * mu_q(v)


@given(binary_words)
def test_determinants(w):
    assert M_q(w).det() == LaurentPoly.q(len(w))
    na, nb = w.count("a"), w.count("b")
    assert mu_q(w).det() == LaurentPoly.q(2 * na + 4 * nb)


@given(binary_words)
def test_conjugation_transposes_barred_word(w):
    assert Q_Q * M_q(w) * Q_Q_INV == M_q(bar(w)).transpose()


def test_key_matrix_identity():
    factor = LaurentPoly.from_dict({3: 1, 0: 1})
    assert M_q("abba") == M_q("baab") + (S_MAT * Q_Q).scale(factor)


@given(binary_words, st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_outer_a_runs_scale_the_entry(w, k, m):
    assert M_q("a" * k + w + "a" * m).m12 == M_q(w).m12.shift(k)


@settings(max_examples=40)
@given(binary_words, st.integers(min_value=2, max_value=5))
def test_matrix_agrees_with_integer_oracle(w, x):
    assert matrix_at(M_q(w), x) == letter_product_at(w, x, "M")
    assert matrix_at(mu_q(w), x) == letter_product_at(w, x, "mu")


def test_char_poly_of_scaled_a_generator():
    lead, linear, const = char_poly_scaled_a()
    assert lead == ONE
    assert linear == -(Q + 1 + LaurentPoly.q(-1))
    assert const == ONE
    scaled = MU_A.scale(LaurentPoly.q(-1))
    assert scaled.trace() == Q + 1 + LaurentPoly.q(-1)
    assert scaled.det() == ONE


def test_cayley_hamilton_for_scaled_a():
    a = MU_A.scale(LaurentPoly.q(-1))
    trace = a.trace()
    combo = a * a - a.scale(trace) + QMatrix.identity()
    assert combo.is_zero()


def test_mu_entry_coefficients_nonnegative_up_to_length_10():
    stack = [("", QMatrix.identity())]
    while stack:
        w, m = stack.pop()
        p = m.m12
        assert p.min_degree >= 0 or p.is_zero()
        assert all(c >= 0 for c in p.coefficients)
        if len(w) < 10:
            stack.append((w + "a", m * MU_A))
            stack.append((w + "b", m * MU_B))


def test_json_round_trip():
    m = mu_q("abba")
    assert QMatrix.from_json_dict(m.to_json_dict()) == m


def test_trace_transpose_scale():
    m = M_q("ab")
    assert m.transpose().transpose() == m
    assert m.trace() == m.m11 + m.m22
    assert m.scale(ONE) == m
    assert m.scale(ZERO).is_zero()


def test_words_up_to_six_via_oracle_at_q2():
    for w in iter_words("ab", 6):
        assert matrix_at(mu_q(w), 2) == letter_product_at(w, 2, "mu")


@pytest.mark.parametrize("kind, word_map", [("M", M_q), ("mu", mu_q)])
def test_walker_yields_every_word_once_with_its_product(kind, word_map):
    rings = [
        (LETTERS[kind], Mat2.identity(), word_map),
        ({ch: g.map(LaurentPoly.eval_at_one) for ch, g in LETTERS[kind].items()},
         Mat2.identity(1, 0), lambda w: Mat2(*sum(word_map(w).at_one(), ()))),
        ({ch: evaluate_matrix(g, 5) for ch, g in LETTERS[kind].items()},
         Mat2.identity(CycInt.one(5), CycInt.zero(5)),
         lambda w: evaluate_matrix(word_map(w), 5)),
    ]
    for letters, identity, expected in rings:
        walked = list(walk_words(letters, identity, 8))
        assert sorted(w for w, _ in walked) == sorted(iter_words("ab", 8))
        for w, m in walked:
            assert m == expected(w)


@pytest.mark.parametrize("kind, word_map, images", [
    ("M", M_q, {"a": "a", "b": "b"}),
    ("mu", mu_q, SIGMA),
])
def test_first_row_steps_give_the_first_row_of_every_word(kind, word_map, images):
    walked = list(walk_words(images, ((1,), ()), 12, step=first_row_step))
    assert sorted(w for w, _ in walked) == sorted(iter_words("ab", 12))
    for w, (p, r) in walked:
        m = word_map(w)
        assert (LaurentPoly(0, p), LaurentPoly(0, r)) == (m.m11, m.m12), w
        # coefficients from q^0 up, with no trailing zero
        assert p[-1:] != (0,) and r[-1:] != (0,)


@pytest.fixture(scope="module")
def sympy_route():
    """Letter matrices of both maps over sympy's Z[q], built from the two
    displayed generators rather than the package's constants, and the
    identity; products over this ring are sympy's exact expansion."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    q = sympy.Symbol("q")
    ring = sympy.ZZ[q]
    lower = sympy.Matrix([[q, 0], [q, 1]])
    upper = sympy.Matrix([[q, 1], [0, 1]])
    symbolic = {"M": {"a": lower, "b": upper},
                "mu": {"a": upper * lower, "b": upper * upper * lower * lower}}
    letters = {kind: {ch: DomainMatrix.from_Matrix(m.expand()).convert_to(ring)
                      for ch, m in pair.items()}
               for kind, pair in symbolic.items()}
    return letters, DomainMatrix.eye(2, ring)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ab", max_size=60))
@example("")
@example("a" * 60)
@example("b" * 60)
def test_packed_maps_match_laurent_and_sympy_products(sympy_route, w):
    letters, identity = sympy_route
    for kind, word_map in (("M", M_q), ("mu", mu_q)):
        packed = word_map(w)
        laurent = reduce(operator.mul, (LETTERS[kind][ch] for ch in w), Mat2.identity())
        assert packed == laurent
        expanded = reduce(operator.mul, (letters[kind][ch] for ch in w), identity)
        entries = [{e: int(c) for (e,), c in entry.items()}
                   for row in expanded.to_list() for entry in row]
        assert [dict(p.terms()) for p in packed.entries()] == entries
    if "b" not in w:
        assert M_q(w).m12.is_zero()


@pytest.mark.parametrize("kind, word_map", [("M", M_q), ("mu", mu_q)])
def test_limb_width_is_the_bit_length_of_the_largest_entry_at_one(monkeypatch, kind,
                                                                  word_map):
    # the proven coefficient bound; on these words a limb one bit narrower
    # would unpack correctly too, so only the width itself shows the bound held
    widths, nested = [], []

    def recording_unpack(packed, shift):
        # an entry of more than 64 limbs unpacks its halves by calls of its own
        if not nested:
            widths.append(shift)
        nested.append(shift)
        try:
            return unpack_poly(packed, shift)
        finally:
            nested.pop()

    monkeypatch.setattr(qmatrix, "unpack_poly", recording_unpack)
    for w in [*iter_words("ab", 6), "ab" * 20, "b" * 30]:
        widths.clear()
        largest = max(_laurent_product(kind, w).map(LaurentPoly.eval_at_one).entries())
        word_map(w)
        assert widths == [max(largest.bit_length(), 1)] * 4, w


@pytest.mark.parametrize("kind", ["M", "mu"])
def test_max_entry_at_one_bounds_every_word(kind):
    bounds = [max_entry_at_one(kind, n) for n in range(13)]
    at_one = {ch: g.map(LaurentPoly.eval_at_one) for ch, g in LETTERS[kind].items()}
    largest = [0] * 13
    for w, m in walk_words(at_one, Mat2.identity(1, 0), 12):
        largest[len(w)] = max(largest[len(w)], *m.entries())
    # exact: the largest q = 1 entry over every word of length <= n
    assert bounds == [max(largest[:n + 1]) for n in range(13)]
    if kind == "M":
        # Fibonacci numbers F(n + 1)
        assert bounds == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
    else:
        # attained by b^n
        assert bounds == [max(max(row) for row in mu_q("b" * n).at_one())
                          for n in range(13)]


def _pack(p, shift):
    """p at q = 2^shift, written here rather than taken from the package."""
    return sum(c << shift * e for e, c in p.terms())


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=80),
       st.lists(st.integers(min_value=0, max_value=4095), max_size=300))
@example(3, 0, [3, 0, 7, 1])
@example(1, 0, [])
@example(2, 0, [1] + [0] * 200 + [3])  # zeros on both sides of every halving cut
@example(5, 64, [1])  # a lone limb past the first 64
def test_pack_round_trip(shift, min_degree, coeffs):
    p = LaurentPoly(min_degree, [c % (1 << shift) for c in coeffs])
    assert unpack_poly(_pack(p, shift), shift) == p


def test_unpack_of_a_long_entry_matches_the_first_row_route():
    # (aab)^150 has a 12-entry of more than 1,000 limbs, read by halving
    image = ("aab" * 150).translate(str.maketrans(SIGMA))
    shift = max(packed_step((1, 0, 0, 1), image, 0)).bit_length()
    a, b, _, _ = packed_step((1, 0, 0, 1), image, shift)
    assert b.bit_length() > 1000 * shift
    p, r = first_row_step(((1,), ()), image)
    assert unpack_poly(a, shift) == LaurentPoly(0, p)
    assert unpack_poly(b, shift) == LaurentPoly(0, r)


@pytest.mark.parametrize("kind", ["M", "mu"])
def test_prefix_products_share_prefixes(kind):
    class Counting(Mat2):
        calls = 0

        def __mul__(self, other):
            Counting.calls += 1
            return Counting(*Mat2.__mul__(self, other).entries())

    letters = {ch: Counting(*g.entries()) for ch, g in LETTERS[kind].items()}
    words = sorted(["", "ab", "abba", "abb", "b", "ab"] + list(iter_words("ab", 3)))
    asked = []

    def keep(prefix):
        asked.append(prefix)
        return any(w.startswith(prefix) for w in words)

    walked = list(walk_words(letters, Counting(*Mat2.identity().entries()), 4, keep))
    closure = {w[:i] for w in words for i in range(len(w) + 1)}
    assert sorted(w for w, _ in walked) == sorted(closure)
    assert all(m == (M_q if kind == "M" else mu_q)(w) for w, m in walked)
    # one product per distinct nonempty prefix: the 14 words of length 1..3, plus "abba"
    assert Counting.calls == 15
    # keep is asked once for each child of a kept word, and for nothing else
    assert sorted(asked) == sorted(w + ch for w in closure if len(w) < 4 for ch in "ab")
