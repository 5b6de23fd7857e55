"""Independent oracles used by the tests.

Everything here recomputes expected values by a route that does not share
code with the package: plain integer 2x2 matrix products for evaluations at
integer points of q, Fraction-based polynomial evaluation, and a per-pair
search for the identity-family witnesses of colliding pairs.
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


# The per-pair search of the collision classifier, written out on its own:
# each pair is bracketed, decomposed and checked by itself, and chains are
# found afterwards by a union-find over the explained pairs of each group.
# The letter images of phi and psi, bar and partner are spelled out here,
# not imported from the package.

def _bar(w):
    return w[::-1].translate(str.maketrans("abcd", "badc"))


def _partner(v):
    return v[::-1].translate(str.maketrans("ab", "ba"))


def _phi(w):
    bw = _bar(w)
    return {"a": w + "abba" + bw + "abba", "b": w + "baab" + bw + "baab",
            "c": w + "abba" + bw + "baab", "d": w + "baab" + bw + "abba"}


def _psi(w):
    mw = w[::-1]
    return {"a": w + "ab" + mw + "ab", "b": w + "ba" + mw + "ba",
            "c": w + "ab" + mw + "ba", "d": w + "ba" + mw + "ab"}


#: Per map: the identity-1 involution, the identity-2 morphism and the
#: length of its letter images at w = "".
_FAMILY_MAPS = {"mu": (lambda w: w[::-1], _psi, 4), "M": (_bar, _phi, 8)}


def bracket(map_kind, x):
    """(k, inner) for x = a . inner . b (mu, k = 0) or a^k . b inner b . a^m
    (M), else None."""
    if map_kind == "mu":
        return (0, x[1:-1]) if len(x) >= 2 and x[0] == "a" and x[-1] == "b" else None
    k = len(x) - len(x.lstrip("a"))
    core = x[k:].rstrip("a")
    return (k, core[1:-1]) if len(core) >= 2 else None


def identity2_witness(map_kind, bx, by, w_bound):
    """Decompose the inner word bx as morphism_w(v) . w for |w| = 0, 1, ...,
    w_bound and check by against morphism_w(partner(v)) . w."""
    _, morphism, base = _FAMILY_MAPS[map_kind]
    n = len(bx)
    if len(by) != n or n < base:
        return None
    for wlen in range(w_bound + 1):
        block = 2 * wlen + base
        body_len = n - wlen
        if body_len < block or body_len % block or by[body_len:] != bx[body_len:]:
            continue
        w = bx[body_len:]
        images = morphism(w)
        inverse = {img: letter for letter, img in images.items()}
        blocks = [bx[i:i + block] for i in range(0, body_len, block)]
        if all(b in inverse for b in blocks):
            v = "".join(inverse[b] for b in blocks)
            if "".join(images[ch] for ch in _partner(v)) + w == by:
                return {"family": "identity2", "w": w, "v": v}
    return None


def classify_pair(map_kind, x, y):
    """(x, y, kind, witness, w_search_bound) of one pair, chains aside."""
    w_bound = max(len(x), len(y)) // 2
    px, py = bracket(map_kind, x), bracket(map_kind, y)
    id1 = id2 = None
    if px and py and px[0] == py[0]:
        if py[1] == _FAMILY_MAPS[map_kind][0](px[1]):
            id1 = {"family": "identity1", "inner": px[1]}
        id2 = identity2_witness(map_kind, px[1], py[1], w_bound)
    kind = ("both" if id1 and id2 else "identity1" if id1
            else "identity2" if id2 else "unexplained")
    witness = id2 or id1
    if witness and map_kind == "M":
        witness["k"] = px[0]
    return x, y, kind, witness, w_bound


def classify_group(map_kind, words):
    """Every pair of one group in combinations order, unexplained pairs
    joined by a chain of explained ones marked "chain"."""
    pairs = [classify_pair(map_kind, x, y)
             for i, x in enumerate(words) for y in words[i + 1:]]
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            w = parent[w]
        return w

    for x, y, kind, _, _ in pairs:
        if kind != "unexplained":
            parent[find(x)] = find(y)
    return [(x, y, "chain", None, b) if kind == "unexplained" and find(x) == find(y)
            else (x, y, kind, witness, b) for x, y, kind, witness, b in pairs]


def markoff_numbers(depth=None, bound=None):
    """Components of the Markoff triples (x, y, z), y maximal, breadth-first
    from (1, 1, 1) with a set of seen triples: every triple within ``depth``
    levels or, given ``bound``, every triple whose middle is <= bound, and
    of those only the components <= bound."""
    level, seen, nums = [(1, 1, 1)], {(1, 1, 1)}, {1}
    while level and (depth is None or depth > 0):
        depth = None if depth is None else depth - 1
        nxt = []
        for x, y, z in level:
            for child in ((x, 3 * x * y - z, y), (y, 3 * y * z - x, z)):
                if bound is not None and child[1] > bound:
                    continue
                nums.update(child)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        level = nxt
    return sorted(n for n in nums if bound is None or n <= bound)
