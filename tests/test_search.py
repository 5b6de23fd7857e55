import random
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from qmarkoff import collide_json, qmatrix, search
from qmarkoff.cli import main
from qmarkoff.identities import FAMILIES, identity2_M_words, identity2_mu_words
from qmarkoff.markoff import markoff_numbers_up_to
from qmarkoff.qmatrix import LETTERS, M_q, Mat2, mu_q, walk_words
from qmarkoff.search import (Classification, CollisionGroup, CollisionReport,
                             SearchBoundError, christoffel_injectivity, classify_pair,
                             collide)
from qmarkoff.words import christoffel_words, iter_words, letter_counts


def test_no_collisions_up_to_length_two():
    report = collide("mu", 2)
    assert report.groups == []
    assert report.words_searched == 7  # empty word plus six nonempty ones


def test_mu_collisions_up_to_length_five():
    report = collide("mu", 5)
    assert [g.words for g in report.groups] == [
        ("aabb", "abab"), ("aaabb", "abaab"), ("aabbb", "abbab")]
    assert all(c.kind is Classification.IDENTITY1 for c in report.classifications)
    assert not report.has_unexplained
    # the reported polynomial really is the shared entry
    for g in report.groups:
        for w in g.words:
            assert mu_q(w).m12 == g.polynomial


def test_group_lookup_and_summary():
    report = collide("mu", 5)
    g = report.group_of("aaabb")
    assert g is not None and "abaab" in g.words
    assert report.group_of("ab") is None
    summary = report.summary()
    assert summary["groups"] == 3
    assert summary["pairs"] == 3
    assert summary["identity1"] == 3
    assert summary["unexplained"] == 0


def test_mu_groups_share_letter_counts():
    report = collide("mu", 8)
    for g in report.groups:
        counts = {letter_counts(w) for w in g.words}
        assert len(counts) == 1


def test_headline_M_collision_is_unexplained():
    report = collide("M", 9)
    group = report.group_of("bbaaaaabb")
    assert group is not None
    # each word of the famous pair also drags in its own bracketed-bar partner
    assert group.words == ("baaabaaab", "babbbbbab", "bbaaaaabb", "bbbbabbbb")
    verdicts = {(c.x, c.y): c.kind for c in report.classifications}
    assert verdicts[("baaabaaab", "bbaaaaabb")] is Classification.UNEXPLAINED
    assert verdicts[("babbbbbab", "bbaaaaabb")] is Classification.IDENTITY1
    assert verdicts[("baaabaaab", "bbbbabbbb")] is Classification.IDENTITY1
    assert report.has_unexplained


def test_M_trailing_run_collisions():
    report = collide("M", 3)
    zero_group = report.group_of("")
    assert zero_group is not None
    assert zero_group.words == ("", "a", "aa", "aaa")
    assert zero_group.polynomial.is_zero()


def test_classify_pair_identity1():
    verdict = classify_pair("aaabb", "abaab")
    assert verdict.kind is Classification.IDENTITY1
    assert verdict.witness == {"family": "identity1", "inner": "aab"}


def test_classify_pair_both():
    verdict = classify_pair("aababb", "ababab")
    assert verdict.kind is Classification.BOTH
    assert verdict.witness["family"] == "identity2"
    assert verdict.witness["w"] == "" and verdict.witness["v"] == "a"


def test_classify_pair_identity2_only():
    x, y = "aababbaababb", "aabbababaabb"
    verdict = classify_pair(x, y)
    assert verdict.kind is Classification.IDENTITY2
    assert verdict.witness == {"family": "identity2", "w": "ab", "v": "a"}


def test_classify_pair_symmetric_in_argument_order():
    a = classify_pair("aababbaababb", "aabbababaabb")
    b = classify_pair("aabbababaabb", "aababbaababb")
    assert a.kind is b.kind is Classification.IDENTITY2


def test_classify_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_pair("ab", "ab")
    with pytest.raises(ValueError):
        classify_pair("ab", "ba")  # entries differ
    with pytest.raises(ValueError):
        classify_pair("ab", "ba", map_kind="nope")


def test_classify_pair_M_kinds():
    assert classify_pair("bab", "bbb", "M").kind is Classification.IDENTITY1
    assert classify_pair("b", "ba", "M").kind is Classification.UNEXPLAINED
    # outer a-runs are absorbed by the family
    assert classify_pair("abba", "abbaa", "M").kind is Classification.IDENTITY1


def test_chain_classification_at_length_twelve():
    report = collide("mu", 12)
    assert not report.has_unexplained
    quad = report.group_of("aababbaababb")
    assert quad is not None
    assert quad.words == ("aababbaababb", "aabbababaabb",
                          "abaabababbab", "ababaabbabab")
    verdicts = {(c.x, c.y): c.kind for c in report.classifications}
    assert verdicts[("aababbaababb", "abaabababbab")] is Classification.CHAIN
    assert verdicts[("aabbababaabb", "ababaabbabab")] is Classification.CHAIN
    assert verdicts[("aababbaababb", "aabbababaabb")] is Classification.IDENTITY2
    counts = report.summary()
    assert counts["chain"] == 2
    assert counts["unexplained"] == 0


def _collide_cli(capsys, *argv):
    code = main(["collide", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("map_kind", ["M", "mu"])
def test_parallel_search_matches_serial(capsys, map_kind):
    solo = _collide_cli(capsys, "--map", map_kind, "--max-len", "8", "--jobs", "1")
    multi = _collide_cli(capsys, "--map", map_kind, "--max-len", "8", "--jobs", "2")
    assert solo == multi


def test_collide_starts_no_worker_process(capsys, monkeypatch, forks):
    # M 8 has 960 pairs, fewer than two chunks: the pair stage stays serial
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1, 2, 3])
    multi = _collide_cli(capsys, "--map", "M", "--max-len", "8", "--jobs", "4")
    assert forks == []
    assert multi == _collide_cli(capsys, "--map", "M", "--max-len", "8", "--jobs", "1")


def test_collide_M10_with_two_jobs_forks_once(capsys, monkeypatch, forks):
    monkeypatch.setattr(collide_json, "usable_cpus", lambda: [0, 1, 2, 3])
    multi = _collide_cli(capsys, "--map", "M", "--max-len", "10", "--jobs", "2")
    assert len(forks) == 1
    assert multi == _collide_cli(capsys, "--map", "M", "--max-len", "10", "--jobs", "1")


def test_safety_bound_refusal():
    with pytest.raises(SearchBoundError) as err:
        collide("mu", 6, safety_bound=5)
    assert "safety bound" in str(err.value)
    # the estimate uses the measured per-word figure of each map
    assert "roughly 18 MiB" in str(SearchBoundError(14, 13, "mu"))
    assert "roughly 9 MiB" in str(SearchBoundError(14, 13, "M"))
    # raising the bound permits the same search
    assert collide("mu", 6, safety_bound=6).words_searched == 2 ** 7 - 1


@pytest.mark.parametrize("map_kind", ["M", "mu"])
def test_scan_groups_match_the_laurent_walk(map_kind):
    # the groups formed by the exact 12-entry of every word, one Laurent
    # product per word, in collide's order
    by_entry = {}
    for w, m in walk_words(LETTERS[map_kind], Mat2.identity(), 10):
        by_entry.setdefault(m.m12, []).append(w)
    expected = sorted(((p, tuple(sorted(ws, key=lambda w: (len(w), w))))
                       for p, ws in by_entry.items() if len(ws) > 1),
                      key=lambda g: (len(g[1][0]), g[1][0]))
    report = collide(map_kind, 10, classify=False)
    assert [(g.polynomial, g.words) for g in report.groups] == expected
    assert report.words_searched == 2 ** 11 - 1


@pytest.mark.parametrize("map_kind", ["M", "mu"])
def test_collide_makes_no_matrix_product(monkeypatch, map_kind):
    calls = []
    mul = Mat2.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    assert Mat2.identity() * Mat2.identity() == Mat2.identity() and calls == [1]
    calls.clear()
    report = collide(map_kind, 10)
    report.summary()  # every group classified
    assert report.groups and calls == []


def _plus_one(poly):
    return poly + 1


def _times_q(poly):
    # a slip of the minimum degree alone, as a wrong monomial product makes
    return poly.shift(1)


@pytest.mark.parametrize("map_kind, tamper", [
    pytest.param("M", _plus_one, id="M"),
    pytest.param("mu", _plus_one, id="mu"),
    pytest.param("M", _times_q, id="M-shift"),
    pytest.param("mu", _times_q, id="mu-shift"),
])
def test_bucket_soundness_check_catches_a_wrong_polynomial(monkeypatch, map_kind, tamper):
    tampered = []

    def unpack_tampered(packed, shift):
        poly = unpack_poly(packed, shift)
        if not tampered and tamper(poly) != poly:  # M's bucket of a^n holds 0
            poly = tamper(poly)
            tampered.append(poly)
        return poly

    unpack_poly = search.unpack_poly
    monkeypatch.setattr(search, "unpack_poly", unpack_tampered)
    with pytest.raises(AssertionError, match="packed bucket mismatch for word") as err:
        collide(map_kind, 8)
    word = re.search(r"word '([ab]*)'", str(err.value)).group(1)
    word_map = M_q if map_kind == "M" else mu_q
    assert tamper(word_map(word).m12) == tampered[0]


def _slices(words, parts):
    """The slices of the sorted ``words`` that parts 0, ..., parts - 1 check."""
    words = sorted(words)
    n = len(words)
    return [words[p * n // parts:(p + 1) * n // parts] for p in range(parts)]


def test_bucket_soundness_check_makes_one_product_per_prefix(monkeypatch):
    # the products are row steps: one per distinct nonempty prefix of the
    # slice each part checks
    groups = collide("mu", 10, classify=False).groups
    walked, steps = [], []

    def recording_walk(*args):
        for w, m in walk_words(*args):
            walked.append(w)
            yield w, m

    def counting_step(row, image):
        steps.append(image)
        return step(row, image)

    walk_words, step = search.walk_words, search.first_row_step
    monkeypatch.setattr(search, "walk_words", recording_walk)
    monkeypatch.setattr(search, "first_row_step", counting_step)
    for parts in (1, 2, 3):
        for part, words in enumerate(_slices([w for g in groups for w in g.words], parts)):
            prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
            walked.clear()
            steps.clear()
            search._verify_groups("mu", groups, part, parts)
            assert len(steps) == len(prefixes) < 2 ** 11 - 1
            assert sorted(walked) == sorted(prefixes | {""})


class _ReadPoly:
    """A group polynomial that records its word each time the check reads
    its coefficients."""

    def __init__(self, poly, word, reads):
        self.poly, self.word, self.reads = poly, word, reads
        self.min_degree = poly.min_degree

    @property
    def coefficients(self):
        self.reads.append(self.word)
        return self.poly.coefficients


@pytest.mark.parametrize("map_kind", ["M", "mu"])
@pytest.mark.parametrize("max_len", range(13))
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_bucket_soundness_check_slices_check_every_word_once(map_kind, max_len, parts):
    # one group per word, so that each word's reads can be told apart
    groups = collide(map_kind, max_len, classify=False).groups
    reads = []
    single = [CollisionGroup(_ReadPoly(g.polynomial, w, reads), (w,))
              for g in groups for w in g.words]
    words = [w for g in groups for w in g.words]
    checked = []
    for part, expected in enumerate(_slices(words, parts)):
        reads.clear()
        search._verify_groups(map_kind, single, part, parts)
        # this part compares the words of its slice, each once, in sorted order
        assert reads == expected
        checked += reads
        if map_kind == "mu":
            # cut by sorted position: every mu word starts with a, so a cut
            # by first letter would leave a slice empty
            assert abs(len(reads) - len(words) / parts) < 1
    assert sorted(checked) == sorted(words)


@pytest.mark.parametrize("map_kind, max_len", [("M", 0), ("M", 2), ("mu", 5)])
def test_bucket_soundness_check_empty_slices_pass(map_kind, max_len):
    groups = collide(map_kind, max_len, classify=False).groups
    words = [w for g in groups for w in g.words]
    parts = len(words) + 3
    slices = _slices(words, parts)
    assert [] in slices
    for part in range(parts):
        search._verify_groups(map_kind, groups, part, parts)


def _lexicographic_words(groups):
    return sorted(w for g in groups for w in g.words)


def _moved_to_a_wrong_group(groups, word):
    """``groups`` with ``word`` moved to a group of its own, whose polynomial
    is its group's plus one."""
    tampered = []
    for g in groups:
        if word in g.words:
            tampered.append(CollisionGroup(g.polynomial, tuple(w for w in g.words if w != word)))
            tampered.append(CollisionGroup(g.polynomial + 1, (word,)))
        else:
            tampered.append(g)
    return tampered


@pytest.mark.parametrize("map_kind", ["M", "mu"])
@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_bucket_soundness_check_names_a_wrong_entry_at_either_end(map_kind, position):
    # the merge must pair the word with its wrong entry, at either end of
    # each slice, and only the part that checks the word names it
    groups = collide(map_kind, 10, classify=False).groups
    for parts in (1, 2, 3):
        for owner, words in enumerate(_slices(_lexicographic_words(groups), parts)):
            tampered = _moved_to_a_wrong_group(groups, words[position])
            for part in range(parts):
                search._verify_groups(map_kind, groups, part, parts)
                if part != owner:
                    search._verify_groups(map_kind, tampered, part, parts)
                    continue
                with pytest.raises(search.SoundnessError, match="packed bucket mismatch "
                                   f"for word {words[position]!r}$"):
                    search._verify_groups(map_kind, tampered, part, parts)


@pytest.mark.parametrize("map_kind", ["M", "mu"])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_bucket_soundness_check_names_a_colliding_word_the_walk_skips(monkeypatch, map_kind,
                                                                      position):
    groups = collide(map_kind, 10, classify=False).groups
    skipped = ""

    def skipping_walk(*args):
        # the word and its subtree are never yielded
        for w, row in walk_words(*args):
            if not w.startswith(skipped):
                yield w, row

    walk_words = search.walk_words
    monkeypatch.setattr(search, "walk_words", skipping_walk)
    for parts in (1, 2, 3):
        for part, words in enumerate(_slices(_lexicographic_words(groups), parts)):
            skipped = words[{"first": 0, "middle": len(words) // 2, "last": -1}[position]]
            with pytest.raises(search.SoundnessError,
                               match=f"never reached word {skipped!r}$"):
                search._verify_groups(map_kind, groups, part, parts)


@pytest.mark.parametrize("map_kind, max_len", [("M", 10), ("mu", 12)])
def test_identity2_search_is_symmetric(map_kind, max_len):
    # the group classifier looks a pair up in the table of its first word
    # only: the partner is an involution and the morphism images are
    # distinct blocks of one length, so by is in the table of bx exactly
    # when bx is in the table of by, at the same |w|
    hits = checked = 0
    for g in collide(map_kind, max_len, classify=False).groups:
        for x, y in combinations(g.words, 2):
            px, py = search._bracket(map_kind, x), search._bracket(map_kind, y)
            if not (px and py and px[0] == py[0]):
                continue
            forward = search._identity2_partners(map_kind, px[1], [py[1]]).get(py[1])
            reverse = search._identity2_partners(map_kind, py[1], [px[1]]).get(px[1])
            assert (forward is None) == (reverse is None), (x, y)
            if forward is not None:
                assert forward[0] == reverse[0], (x, y, forward, reverse)
            hits += forward is not None
            checked += 1
    assert hits and checked > hits


def _verdict(c):
    return c.x, c.y, c.kind.value, c.witness, c.w_search_bound


@pytest.mark.parametrize("map_kind, max_len", [("M", 12), ("mu", 14)])
def test_group_classifier_matches_the_per_pair_reference(map_kind, max_len):
    report = collide(map_kind, max_len)
    expected = [v for g in report.groups for v in oracle.classify_group(map_kind, g.words)]
    assert [_verdict(c) for c in report.classifications] == expected
    kinds = {v[2] for v in expected}
    assert {"identity1", "both", "chain"} <= kinds


@pytest.mark.parametrize("family", list(FAMILIES))
def test_classify_pair_matches_the_per_pair_reference(family):
    map_kind = FAMILIES[family][0]
    for _, x, y in _family_instances(family, 300, seed=len(family)):
        if x == y:
            continue
        for a, b in ((x, y), (y, x)):
            got = classify_pair(a, b, map_kind)
            assert _verdict(got) == oracle.classify_pair(map_kind, a, b)


def test_collide_validates_arguments():
    with pytest.raises(ValueError):
        collide("x", 4)
    with pytest.raises(ValueError):
        collide("mu", -1)
    with pytest.raises(ValueError, match="safety_bound must be >= 0"):
        collide("M", 3, safety_bound=-1)


def test_classify_can_be_skipped():
    report = collide("mu", 6, classify=False)
    assert report.classifications == []
    assert report.groups


@pytest.mark.parametrize("map_kind, max_len", [("M", 11), ("mu", 13)])
def test_report_tallies_match_the_list_of_pairs(map_kind, max_len):
    pairs = collide(map_kind, max_len).classifications
    report = collide(map_kind, max_len)
    first = next(report.group_pairs())  # an unfinished pass keeps no tallies
    assert first == pairs[:len(first)]
    summary = report.summary()
    assert summary["pairs"] == report.pair_count == len(pairs)
    for kind in Classification:
        assert summary[kind.value] == sum(c.kind is kind for c in pairs), kind
    assert report.has_unexplained == any(c.kind is Classification.UNEXPLAINED
                                         for c in pairs)
    assert report.w_search_bound == max(c.w_search_bound for c in pairs)
    assert [c for group in report.group_pairs() for c in group] == pairs
    # without classification the tallies are empty
    bare = collide(map_kind, max_len, classify=False)
    assert (bare.pair_count, bare.has_unexplained, bare.w_search_bound) == (0, False, 0)
    assert list(bare.group_pairs()) == []


def test_w_search_bound_is_read_from_the_groups_with_no_pass(monkeypatch):
    # half the longest word of any group: no group is classified to read it
    calls = []

    def counting_classify(*args):
        calls.append(args)
        return classify_group(*args)

    classify_group = search._classify_group
    monkeypatch.setattr(search, "_classify_group", counting_classify)
    report = collide("M", 10)
    bound = report.w_search_bound
    assert (len(calls), report.tallies) == (0, None)
    assert bound == max(c.w_search_bound for c in report.classifications)
    assert calls  # listing the pairs classifies


def test_report_json_round_trip_polynomials():
    report = collide("mu", 6)
    data = report.to_json_dict()
    assert data["map"] == "mu"
    from qmarkoff.laurent import LaurentPoly

    for g_data, g in zip(data["groups"], report.groups):
        assert LaurentPoly.from_json_dict(g_data["polynomial"]) == g.polynomial


def test_christoffel_injectivity_small():
    report = christoffel_injectivity(12)
    assert report.ok
    assert report.word_count == len(christoffel_words(12))
    assert report.polynomials_distinct
    assert report.zeta6_values_distinct
    assert report.letter_counts_distinct
    # entries recover the words' polynomials
    assert report.m12_by_word["aabab"] == mu_q("aabab").m12
    # at q = 1 the values are Markoff numbers
    markoff = set(markoff_numbers_up_to(10 ** 12))
    assert {p.eval_at_one() for p in report.m12_by_word.values()} <= markoff


def test_injectivity_rejects_zero_length():
    with pytest.raises(ValueError):
        christoffel_injectivity(0)


def test_M_entries_invariant_under_trailing_a():
    for w in ("b", "ba", "ab", "bb", "bab"):
        assert M_q(w).m12 == M_q(w + "a").m12


def _family_instances(family, count, seed, v=None):
    """Seeded (params, x, y) instances of one identity family, built through
    the family table; ``v`` overrides the drawn second-family word."""
    rng = random.Random(seed)
    _, words, names = FAMILIES[family]
    for _ in range(count):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        drawn = {name: rng.randint(0, 3) for name in "kmn"}
        drawn["v"] = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 3)))
        if v is not None:
            drawn["v"] = v
        params = {name: drawn[name] for name in names}
        yield (params, *words(w, *params.values()))


_FAMILY_KINDS = {"1": Classification.IDENTITY1, "2": Classification.IDENTITY2}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_instances_classify_as_their_family(family):
    map_kind = FAMILIES[family][0]
    expected = {_FAMILY_KINDS[family[0]], Classification.BOTH}
    checked = 0
    for params, x, y in _family_instances(family, 600, seed=len(family)):
        if x == y or family == "2M" and params["v"] == "":
            continue  # the empty-v 2M instances are the strict xfail below
        kind = classify_pair(x, y, map_kind).kind
        assert kind in expected, (params, x, y, kind)
        checked += 1
    assert checked >= 200


@pytest.mark.xfail(strict=True, reason=(
    "2M pairs with v = '' are a^k b w b a^m and a^k b w b a^n: they differ only "
    "in their trailing a-runs, which the witness finder strips and never matches"))
def test_2M_instances_with_empty_v_classify_as_identity2():
    pairs = [(x, y) for _, x, y in _family_instances("2M", 300, seed=2, v="") if x != y]
    assert pairs
    expected = {Classification.IDENTITY2, Classification.BOTH}
    missed = [(x, y) for x, y in pairs
              if classify_pair(x, y, "M").kind not in expected]
    assert not missed


def _every_family_instance(family, max_len):
    """(params, x, y) for every instance of ``family`` with x != y and both
    words of length <= max_len, built by the family's word function.

    The length of a family's words grows with |w| and |v| alone, so the
    walk over w, by length, stops at the first w that does not fit, and a v
    none of whose pairs fit has no longer v that fits."""
    _, words, names = FAMILIES[family]
    stack = [("",)] if "v" in names else [()]
    while stack:
        v, fitted = stack.pop(), False
        for w in iter_words("ab", max_len):
            x, y = words(w, *v)
            if max(len(x), len(y)) > max_len:
                break
            fitted = True
            if "k" not in names:
                if x != y:
                    yield v, x, y
                continue
            # k, m, n pad the bare pair with a-runs: checked once, then applied
            assert words(w, *v, 1, 2, 3) == ("a" + x + "aa", "a" + y + "aaa")
            for k in range(max_len - max(len(x), len(y)) + 1):
                for m in range(max_len - k - len(x) + 1):
                    for n in range(max_len - k - len(y) + 1):
                        if m != n or x != y:
                            yield (*v, k, m, n), "a" * k + x + "a" * m, "a" * k + y + "a" * n
        if v and fitted:
            stack.extend((v[0] + ch,) for ch in "abcd")


@pytest.fixture(scope="module")
def census_instances():
    """Per family, split by whether the instance is a 2M one with v = '':
    (params, x, y, kind) for every instance with both words of length <= 12,
    where kind is the classification of the pair (x, y) in ``collide`` at
    length 12, or None if x and y lie in different groups."""
    found = {}
    for map_kind in ("M", "mu"):
        report = collide(map_kind, 12)
        kinds = {}
        for c in report.classifications:
            kinds[c.x, c.y] = kinds[c.y, c.x] = c.kind
        for family in (f for f, entry in FAMILIES.items() if entry[0] == map_kind):
            found[family] = {False: [], True: []}
            for params, x, y in _every_family_instance(family, 12):
                trailing_a = family == "2M" and params[0] == ""
                found[family][trailing_a].append((params, x, y, kinds.get((x, y))))
    return found


_INDIRECT = (Classification.CHAIN, Classification.UNEXPLAINED)


@pytest.mark.parametrize("family, count, trailing_a", [
    ("1M", 23_212, 0), ("1mu", 1_922, 0), ("2M", 44, 15_628), ("2mu", 26, 0)])
def test_census_holds_every_family_instance_classified_directly(census_instances, family,
                                                                count, trailing_a):
    # every instance up to the census length lands in one group, and the
    # classifier names its family (or both), not chain or unexplained
    instances = census_instances[family][False]
    assert (len(instances), len(census_instances[family][True])) == (count, trailing_a)
    assert [i for i in instances + census_instances[family][True] if i[3] is None] == []
    assert [i for i in instances if i[3] in _INDIRECT] == []


@pytest.mark.xfail(strict=True, reason=(
    "2M pairs with v = '' differ only in their trailing a-runs, which the "
    "witness finder strips: the census classifies them as chain"))
def test_census_classifies_the_2M_instances_with_empty_v_directly(census_instances):
    assert [i for i in census_instances["2M"][True] if i[3] in _INDIRECT] == []


# A pair's verdict reads only the brackets of its words: the identity-2
# check never needs the pair's bound |w| <= max(|x|, |y|) // 2, because a
# decomposition holds one block or more, so 3|w| + base <= |inner|, and the
# shortest bracketed word a . inner . b (or b inner b) has |inner| + 2 letters.

def _decomposable(map_kind, w, v):
    """The inner word morphism_w(v) . w, which decomposes at w."""
    return "".join(search._FAMILY_MAPS[map_kind][1](w)[ch] for ch in v) + w


@settings(max_examples=300, deadline=None)
@given(map_kind=st.sampled_from(["M", "mu"]),
       inner=st.one_of(
           st.text("ab", max_size=60),
           st.tuples(st.text("ab", max_size=10), st.text("abcd", min_size=1, max_size=8))))
def test_identity2_partners_pass_the_pair_bound(map_kind, inner):
    base = search._FAMILY_MAPS[map_kind][2]
    built = isinstance(inner, tuple)
    if built:
        inner = _decomposable(map_kind, *inner)
        assume(len(inner) <= 60)
    # the inner word is its own mate: every w it ends in is tried
    table = search._identity2_partners(map_kind, inner, [inner])
    assert table or not built
    for partner, (wlen, w, v) in table.items():
        assert len(partner) == len(inner) and w == inner[len(inner) - wlen:]
        assert 3 * wlen + base <= len(inner)
        assert wlen <= (len(inner) + 2) // 2


def _by_length(words):
    return tuple(sorted(set(words), key=lambda w: (len(w), w)))


def _with_trailing_a(words, runs=2):
    """The words and each of them followed by 1..runs more a's, sorted by
    (length, word): under M, appending an a keeps the 12-entry."""
    return _by_length(w + "a" * r for w in words for r in range(runs + 1))


# Two groups of collide("M", 14) whose words repeat brackets (trailing-a
# variants): one with identity-2 and identity-1 pairs, one with "both" pairs.
_IDENTITY2_GROUP = ("baabbababbaab", "babaabbbaabab", "bbabbaaabbabb", "bbbaababaabbb",
                    "baabbababbaaba", "babaabbbaababa", "bbabbaaabbabba", "bbbaababaabbba")
_BOTH_GROUP = ("babbaabbab", "bbaabbaabb", "babbaabbaba", "bbaabbaabba", "babbaabbabaa",
               "bbaabbaabbaa", "babbaabbabaaa", "bbaabbaabbaaa", "babbaabbabaaaa",
               "bbaabbaabbaaaa")
_2M_PAIR = identity2_M_words("ab", "ca", 1)


@pytest.mark.parametrize("words, collides, kinds", [
    pytest.param(_with_trailing_a(_IDENTITY2_GROUP), True,
                 {"identity1", "identity2", "chain"}, id="identity2"),
    pytest.param(_with_trailing_a(_BOTH_GROUP), True, {"both", "chain"}, id="both"),
    # not a collision group, which the classifier never checks: one table
    # holding both kinds in two (k, |inner|) classes, a 2M instance at k = 1
    # with trailing-a variants, and words with no bracket
    pytest.param(_by_length([*_with_trailing_a(_IDENTITY2_GROUP + _BOTH_GROUP, 1),
                             *_with_trailing_a(_2M_PAIR, 1), "aaa", "aba", "abaa"]),
                 False, {kind.value for kind in Classification}, id="mixed"),
])
def test_bracket_table_matches_the_per_pair_reference(words, collides, kinds):
    assert (len({M_q(w).m12 for w in words}) == 1) == collides
    assert len({search._bracket("M", w) for w in words}) < len(words)
    expected = oracle.classify_group("M", words)
    assert {v[2] for v in expected} == kinds
    pairs = search._classify_group("M", words).classifications()
    assert [_verdict(c) for c in pairs] == expected
    # no two pairs share a witness dict
    witnesses = [c.witness for c in pairs if c.witness is not None]
    assert len({id(w) for w in witnesses}) == len(witnesses)
    # the summary read first tallies from the table, with no pair listed;
    # it equals the count of each kind over the pairs
    group = CollisionGroup(M_q(words[0]).m12, words)
    first = CollisionReport("M", 16, [group], len(words))
    summary = first.summary()
    assert summary["pairs"] == len(pairs)
    for kind in Classification:
        assert summary[kind.value] == sum(c.kind is kind for c in pairs), kind
    assert first.w_search_bound == max(c.w_search_bound for c in pairs)
    assert CollisionReport("M", 16, [group], len(words)).classifications == pairs


def test_classify_pair_checks_the_collision_on_packed_entries(monkeypatch):
    # the 63-letter 2mu pair: m12_equal, with no word product or polynomial
    x, y = identity2_mu_words("abbab", "acbd")
    expected = classify_pair(x, y, "mu")
    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for module in (search, qmatrix):
        for name in ("M_q", "mu_q", "unpack_poly"):
            monkeypatch.setattr(module, name, forbidden(f"{module.__name__}.{name}"))
    assert classify_pair(x, y, "mu") == expected
    assert expected.kind in (Classification.IDENTITY2, Classification.BOTH)
    with pytest.raises(ValueError, match="do not share their 12-entry"):
        classify_pair(x, y + "a", "mu")
    with pytest.raises(ValueError, match="do not share their 12-entry"):
        classify_pair("ab", "ba", "M")
    assert calls == []


@pytest.mark.parametrize("map_kind, words", [
    ("mu", ("aabb", "abab")),   # identity 1, two brackets
    ("mu", ("aabb", "bbaa")),   # the second word has no bracket
    ("mu", ("aabb", "aaab")),   # two brackets, unexplained
    ("M", ("bab", "abb")),      # two classes
    ("M", ("b", "ba")),         # neither word has a bracket
    ("M", ("abba", "abbaa")),   # one bracket, identity 1 with itself
    ("M", ("babb", "babba")),   # one bracket, unexplained
])
def test_two_word_group_tallies_match_its_pair(map_kind, words):
    # not collision groups, which the classifier never checks
    expected = oracle.classify_group(map_kind, words)
    group = CollisionGroup(M_q(words[0]).m12, words)
    summary = CollisionReport(map_kind, 8, [group], 2).summary()
    pairs = search._classify_group(map_kind, words).classifications()
    assert [_verdict(c) for c in pairs] == expected
    assert {kind: n for kind, n in summary.items() if n and kind in
            {c.value for c in Classification}} == {expected[0][2]: 1}
