"""Independent oracles used by the tests.

Everything here recomputes expected values by a route that does not share
code with the package: plain integer 2x2 matrix products for evaluations at
integer points of q, and Fraction-based polynomial evaluation.
"""

from fractions import Fraction


def eval_poly(p, x):
    """Evaluate a LaurentPoly at a rational point through its public accessors."""
    x = Fraction(x)
    return sum(Fraction(c) * x ** e for e, c in p.terms())


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def letter_product_at(word, x, kind="M"):
    """Product of the letter matrices with q replaced by the integer x."""
    lower = ((x, 0), (x, 1))
    upper = ((x, 1), (0, 1))
    if kind == "M":
        letters = {"a": lower, "b": upper}
    else:
        mu_a = mat_mul(upper, lower)
        mu_b = mat_mul(mat_mul(upper, upper), mat_mul(lower, lower))
        letters = {"a": mu_a, "b": mu_b}
    m = ((1, 0), (0, 1))
    for ch in word:
        m = mat_mul(m, letters[ch])
    return m


def matrix_at(qm, x):
    """Evaluate all four entries of a QMatrix at the rational point x."""
    a, b, c, d = qm.entries()
    return ((eval_poly(a, x), eval_poly(b, x)), (eval_poly(c, x), eval_poly(d, x)))


def poly_mul(p, r):
    """Product of two LaurentPolys as a dict exponent -> nonzero coefficient,
    convolving the terms their public accessor yields."""
    out = {}
    for e, c in p.terms():
        for f, d in r.terms():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}
