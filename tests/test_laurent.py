import json

from hypothesis import given
from hypothesis import strategies as st
from oracle import poly_mul

from qmarkoff.laurent import ONE, Q, ZERO, LaurentPoly

small_polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)


def test_canonical_form():
    assert LaurentPoly(2, (0, 0)) == ZERO
    assert ZERO.min_degree == 0
    assert ZERO.coefficients == ()
    assert LaurentPoly(0, (0, 1, 0)) == LaurentPoly(1, (1,))
    assert LaurentPoly(-3, (0, 5, 7, 0, 0)) == LaurentPoly(-2, (5, 7))


def test_constructors():
    assert LaurentPoly.one() == LaurentPoly(0, (1,))
    assert LaurentPoly.from_int(0) == ZERO
    assert LaurentPoly.q(-2, 3) == LaurentPoly(-2, (3,))
    assert LaurentPoly.from_dict({2: 1, -1: 4}) == LaurentPoly(-1, (4, 0, 0, 1))


def test_arithmetic_examples():
    q = Q
    assert (q + 1) * (q - 1) == q * q - ONE
    p = LaurentPoly(0, (1, 4, 10))
    assert p + ZERO == p
    assert (LaurentPoly.q(-1) + 1) * q == ONE + q


def test_subtraction_and_negation():
    p = LaurentPoly(-1, (2, -3, 5))
    assert p - p == ZERO
    assert -(-p) == p
    assert ZERO - p == -p


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(small_polys, st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_product(p, n):
    expected = ONE
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


@given(small_polys, st.integers(min_value=-4, max_value=4))
def test_shift_is_monomial_multiplication(p, e):
    assert p.shift(e) == p * LaurentPoly.q(e)


monomials = st.builds(
    LaurentPoly.q,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, -1]) | st.integers(min_value=-(10 ** 30), max_value=10 ** 30).filter(bool),
)


@given(small_polys, monomials)
def test_monomial_products_match_the_oracle(p, m):
    expected = poly_mul(p, m)
    products = [p * m, m * p]
    if m.min_degree == 0:  # an int factor takes the same route
        (c,) = m.coefficients
        products += [p * c, c * p]
    for product in products:
        assert dict(product.terms()) == expected
        # canonical: nonzero end coefficients, the zero polynomial at degree 0
        cs = product.coefficients
        if cs:
            assert cs[0] and cs[-1]
            assert product.min_degree == min(expected)
        else:
            assert product.min_degree == 0 and not expected
        assert product == products[0]


def test_eval_at_one():
    assert ZERO.eval_at_one() == 0
    assert LaurentPoly(0, (1, 4, 10, 18, 27, 33, 33, 29, 21, 12, 5, 1)).eval_at_one() == 194


@given(small_polys)
def test_coefficient_accessor_matches_terms(p):
    terms = dict(p.terms())
    for e in range(p.min_degree - 2, p.max_degree + 3):
        assert p.coefficient(e) == terms.get(e, 0)


def test_terms_iteration():
    p = LaurentPoly(-1, (2, 0, 7))
    assert list(p.terms()) == [(-1, 2), (1, 7)]


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(LaurentPoly(0, (1, 4, 10))) == "1 + 4q + 10q^2"
    assert str(LaurentPoly(-1, (1, 0, -2))) == "q^-1 - 2q"
    assert str(LaurentPoly(1, (-1,))) == "-q"
    assert str(ONE) == "1"


def test_json_round_trip_keeps_big_integers_exact():
    big = 10 ** 40 + 7
    p = LaurentPoly(-2, (big, 0, -big, 13))
    data = json.loads(json.dumps(p.to_json_dict()))
    assert data["coeffs"][0] == str(big)
    assert LaurentPoly.from_json_dict(data) == p


def test_content_hash_stability():
    p = LaurentPoly(0, (1, 4, 10))
    r = LaurentPoly(-1, (0, 1, 4, 10, 0))
    assert p.content_hash() == r.content_hash()
    assert p.content_hash() != (p + ONE).content_hash()
    assert len(p.content_hash()) == 32


def test_int_mixing():
    p = LaurentPoly(0, (1, 1))
    assert p + 1 == LaurentPoly(0, (2, 1))
    assert 2 * p == LaurentPoly(0, (2, 2))
    assert 1 - p == LaurentPoly(1, (-1,))
    assert p == LaurentPoly.from_int(1) + Q
