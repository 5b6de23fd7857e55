import cmath
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import cyclotomic
from qmarkoff.cli import main
from qmarkoff.cyclotomic import (ClosureResult, CycInt, ResidueReport, _residue_states,
                                 _walk_states, closed_form_mu_zeta6, cone_of, entry12_zeta6,
                                 eval_cyclotomic, evaluate_matrix, figure2_rows,
                                 monoid_closure, recover_counts, residue_relation_check)
from qmarkoff.laurent import LaurentPoly
from qmarkoff.qmatrix import LETTERS, LETTERS_AT_ONE, MU_A, MU_B, Mat2, mu_q, walk_words
from qmarkoff.words import iter_words

small_polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)
orders = st.integers(min_value=1, max_value=6)


def test_basic_reductions():
    z6 = CycInt.zeta_pow(6, 1)
    assert (z6 * z6).coords == (-1, 1)
    assert CycInt.zeta_pow(6, 3) == CycInt.from_int(6, -1)
    assert CycInt.zeta_pow(5, 5) == CycInt.one(5)
    assert CycInt.zeta_pow(4, 2) == CycInt.from_int(4, -1)
    assert CycInt.zeta_pow(1, 1) == CycInt.one(1)


def test_str_prints_only_nonzero_coordinates():
    assert str(CycInt(5, (0, -1, 0, 2))) == "-z5 + 2z5^3"
    assert str(CycInt(6, (3, 0))) == "3"
    assert str(CycInt(4, (-1, -2))) == "-1 - 2z4"
    assert str(CycInt.zero(5)) == "0"


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycInt.one(3) + CycInt.one(4)
    with pytest.raises(ValueError):
        CycInt.one(2) * CycInt.one(6)


def test_order_seven_rejected():
    with pytest.raises(ValueError):
        CycInt.zero(7)
    with pytest.raises(ValueError):
        eval_cyclotomic(LaurentPoly.one(), 7)


def test_coordinate_length_validated():
    with pytest.raises(ValueError):
        CycInt(6, (1,))
    with pytest.raises(ValueError):
        CycInt(5, (1, 2))


@given(small_polys, small_polys, orders)
def test_evaluation_is_a_ring_homomorphism(p, r, k):
    assert eval_cyclotomic(p + r, k) == eval_cyclotomic(p, k) + eval_cyclotomic(r, k)
    assert eval_cyclotomic(p * r, k) == eval_cyclotomic(p, k) * eval_cyclotomic(r, k)


def test_evaluation_examples():
    assert eval_cyclotomic(LaurentPoly.from_dict({3: 1, 0: 1}), 6).is_zero()
    assert eval_cyclotomic(LaurentPoly.q(), 1) == CycInt.one(1)
    value = eval_cyclotomic(mu_q("abb").m12, 6)
    assert value.coords == (-2, -3)
    # same number written as 3 * zeta^5 - 5
    assert value == CycInt.zeta_pow(6, 5) * 3 - CycInt.from_int(6, 5)


def test_negative_exponents_use_inverse_roots():
    p = LaurentPoly.q(-1)
    for k in range(1, 7):
        assert eval_cyclotomic(p, k) == CycInt.zeta_pow(k, k - 1)


def test_eval_at_one_matches_order_one_evaluation():
    p = mu_q("aabab").m12
    assert eval_cyclotomic(p, 1).coords == (p.eval_at_one(),)


def test_closed_form_identity_and_figure_example():
    ident = closed_form_mu_zeta6(0, 0)
    assert ident.m11 == CycInt.one(6)
    assert ident.m12.is_zero()
    assert ident.m21.is_zero()
    assert ident.m22 == CycInt.one(6)
    assert closed_form_mu_zeta6(3, 2).m12.coords == (-2, -3)
    assert closed_form_mu_zeta6(1, 0) == evaluate_matrix(MU_A, 6)
    with pytest.raises(ValueError):
        closed_form_mu_zeta6(2, 3)


def test_closed_form_matches_direct_evaluation_small():
    for w in iter_words("ab", 7):
        direct = evaluate_matrix(mu_q(w), 6)
        assert direct == closed_form_mu_zeta6(len(w), w.count("b")), w


def test_entry12_examples():
    assert entry12_zeta6(0, 0).is_zero()
    assert entry12_zeta6(3, 2).coords == (-2, -3)
    assert entry12_zeta6(5, 2) == eval_cyclotomic(mu_q("aabab").m12, 6)


def test_cone_examples():
    assert cone_of(CycInt.zero(6)) is None
    assert cone_of(entry12_zeta6(3, 2)) == 5
    with pytest.raises(ValueError):
        cone_of(CycInt.zero(5))


def test_cone_matches_counts_up_to_length_8():
    for w in iter_words("ab", 8, min_len=1):
        z = eval_cyclotomic(mu_q(w).m12, 6)
        assert cone_of(z) == (len(w) + w.count("b")) % 6


# Exact coordinates of zeta_6^j in the basis {1, zeta_6}, recomputed here.
_Z6 = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def test_cone_partition_covers_grid_exactly_once():
    for c0 in range(-20, 21):
        for c1 in range(-20, 21):
            if (c0, c1) == (0, 0):
                continue
            hits = 0
            for j in range(6):
                x1, y1 = _Z6[j]
                x2, y2 = _Z6[(j + 1) % 6]
                alpha = c0 * y2 - c1 * x2
                beta = c1 * x1 - c0 * y1
                if alpha * x1 + beta * x2 == c0 and alpha * y1 + beta * y2 == c1 \
                        and alpha >= 0 and beta > 0:
                    hits += 1
            assert hits == 1, (c0, c1)


@settings(max_examples=200)
@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_cone_agrees_with_float_angles_off_boundary(c0, c1):
    if (c0, c1) == (0, 0):
        return
    z = c0 + c1 * cmath.exp(1j * cmath.pi / 3)
    theta = cmath.phase(z) % (2 * cmath.pi)
    sector = theta / (cmath.pi / 3)
    if abs(sector - round(sector)) < 1e-9:
        return  # boundary rays are decided exactly, not by floats
    assert cone_of(CycInt(6, (c0, c1))) == (int(sector) - 4) % 6


def test_recover_counts_examples():
    assert recover_counts(CycInt.zero(6)) == (0, 0)
    assert recover_counts(CycInt(6, (-2, -3))) == (1, 2)
    assert recover_counts(eval_cyclotomic(mu_q("aabab").m12, 6)) == (3, 2)


def test_recover_counts_rejects_unattained_points():
    assert recover_counts(CycInt.zeta_pow(6, 1)) is None
    # b-count would exceed the length
    bad = CycInt(6, (1, -3))
    assert recover_counts(bad) is None


def test_recover_inverts_entry12_up_to_50():
    for n in range(0, 51):
        for s in range(0, n + 1):
            assert recover_counts(entry12_zeta6(n, s)) == (n - s, s)


def test_scaled_closure_orders():
    assert monoid_closure(2, scaled=True).size == 3
    assert monoid_closure(3, scaled=True).size == 8
    assert monoid_closure(4, scaled=True).size == 24
    assert monoid_closure(5, scaled=True).size == 120


def test_unscaled_closures_finite():
    sizes = {k: monoid_closure(k, scaled=False).size for k in (2, 3, 4, 5)}
    assert sizes == {2: 6, 3: 24, 4: 48, 5: 600}
    # the cap admits a closure of exactly cap elements and refuses one more
    assert monoid_closure(5, scaled=False, cap=600).size == 600
    assert monoid_closure(5, scaled=False, cap=599).exceeded_cap


def test_closure_cap_exceeded_for_order_six():
    result = monoid_closure(6, scaled=True, cap=500)
    assert result.exceeded_cap
    assert not result.finite
    assert result.size is None
    assert result.to_json_dict()["finite"] is False


def test_closure_cap_validation():
    with pytest.raises(ValueError):
        monoid_closure(2, scaled=True, cap=0)


def test_order_six_image_factors_through_letter_counts():
    by_counts = {}
    for w in iter_words("ab", 7):
        key = (len(w), w.count("b"))
        image = evaluate_matrix(mu_q(w), 6)
        if key in by_counts:
            assert by_counts[key] == image
        else:
            by_counts[key] = image


def test_residue_relations_hold():
    for k in (2, 3, 4):
        report = residue_relation_check(k, 8)
        assert report.ok, report.violations
        assert report.words_checked == 2 ** 9 - 1


def test_residue_check_rejects_bad_orders():
    with pytest.raises(ValueError):
        residue_relation_check(1, 4)
    with pytest.raises(ValueError):
        residue_relation_check(6, 4)


def test_order_five_value_cloud():
    report = residue_relation_check(5, 10)
    assert report.distinct_values == 31
    assert report.partition_sizes == {0: 11, 1: 5, 2: 5, 3: 5, 4: 5}
    assert report.classes_disjoint
    data = report.to_json_dict()
    assert data["distinct_values"] == 31


def _brute_force_report(entries, k, max_len):
    """The residue report of the words of length <= max_len, built word by
    word from (word, p(1) mod k, coordinates of p(zeta_k)) triples."""
    words = [(w, r, c) for w, r, c in entries if len(w) <= max_len]
    table = cyclotomic._RESIDUE_CLASSES.get(k)
    if table is not None:
        violations = sorted((w for w, r, c in words if r not in table.get(c, ())),
                            key=lambda w: (len(w), w))
        return ResidueReport(k, max_len, len(words), tuple(violations))
    partition = {}
    for _, r, c in words:
        partition.setdefault(r, set()).add(c)
    values = {c for _, _, c in words}
    return ResidueReport(k, max_len, len(words), (), distinct_values=len(values),
                         partition_sizes={r: len(cs) for r, cs in partition.items()},
                         classes_disjoint=sum(map(len, partition.values())) == len(values),
                         partition={r: tuple(CycInt(k, c) for c in sorted(cs))
                                    for r, cs in sorted(partition.items())})


@pytest.fixture(scope="module")
def laurent_residues_to_12():
    """k -> (word, p(1) mod k, coordinates of p(zeta_k)) for the mu 12-entry
    p of every word of length <= 12, from a plain LaurentPoly walk, which
    does no packing and no state interning."""
    entries = [(w, m.m12) for w, m in walk_words(LETTERS["mu"], Mat2.identity(), 12)]
    return {k: [(w, p.eval_at_one() % k, eval_cyclotomic(p, k).coords) for w, p in entries]
            for k in (2, 3, 4, 5)}


def _degree(k):
    return len(CycInt.one(k).coords)


def _state_m12(state, k):
    """(q = 1 value mod k, coordinates at zeta_k) of the 12-entry of a flat
    residue state: the 4 deg coordinates of the zeta_k matrix, entry by
    entry, then the q = 1 matrix mod k, both row-major."""
    deg = _degree(k)
    assert len(state) == 4 * deg + 4
    return state[4 * deg + 1], state[deg:2 * deg]


def _cycint_residue_states(k, max_len):
    """The residue walk on ``Mat2`` over ``CycInt`` (and over int mod k at
    q = 1), its states flattened to the layout of ``_residue_states``."""
    def mod_k(x):
        return x % k

    letters = [(evaluate_matrix(g, k), LETTERS_AT_ONE["mu"][ch])
               for ch, g in LETTERS["mu"].items()]
    start = (Mat2.identity(CycInt.one(k), CycInt.zero(k)), Mat2.identity(1, 0))
    states, step = _walk_states(start, letters,
                                lambda s, g: (s[0] * g[0], (s[1] * g[1]).map(mod_k)),
                                max_len)
    return [(*(c for z in zeta_k.entries() for c in z.coords), *at_one.entries())
            for zeta_k, at_one in states], step


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_packed_residue_walk_matches_laurent_route(laurent_residues_to_12, k):
    # every word, stepped letter by letter through the state machine, lands
    # on the state of its own 12-entry
    states, step = _residue_states(k, 12)
    entries = laurent_residues_to_12[k]
    assert len(entries) == 2 ** 13 - 1
    for w, at_one, coords in entries:
        i = 0
        for ch in w:
            i = step[i]["ab".index(ch)]
        assert _state_m12(states[i], k) == (at_one, coords), w
    for max_len in range(13):
        assert residue_relation_check(k, max_len) == \
            _brute_force_report(entries, k, max_len), max_len


def _tampered_tables():
    """Every table of ``_RESIDUE_CLASSES`` with one allowed residue dropped."""
    for k, table in cyclotomic._RESIDUE_CLASSES.items():
        for coords, allowed in table.items():
            for r in sorted(allowed):
                yield pytest.param(k, {**table, coords: allowed - {r}},
                                   id=f"{k}-{coords}-{r}".replace(" ", ""))


@pytest.mark.parametrize("k, table", _tampered_tables())
def test_residue_violations_match_brute_force(monkeypatch, laurent_residues_to_12,
                                              k, table):
    monkeypatch.setitem(cyclotomic._RESIDUE_CLASSES, k, table)
    for max_len in (0, 1, 9):
        report = residue_relation_check(k, max_len)
        expected = _brute_force_report(laurent_residues_to_12[k], k, max_len)
        assert report.violations == expected.violations, max_len
    assert report.violations  # every dropped residue is hit by length 9


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_residue_states_cover_the_finite_monoid(k):
    states, _ = _residue_states(k, 60)
    zeta_k = 4 * _degree(k)  # the coordinates of the matrix at zeta_k
    assert len({s[:zeta_k] for s in states}) == monoid_closure(k, scaled=False).size


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_flat_residue_walk_matches_the_cycint_route(k):
    # the same states in the same order, and the same step table, as the walk
    # that multiplies Mat2 over CycInt, at lengths short of and past the point
    # where every state has been found
    for max_len in (0, 1, 2, 3, 7, 16, 40):
        assert _residue_states(k, max_len) == _cycint_residue_states(k, max_len), max_len


def test_residue_check_holds_at_length_200(capsys):
    for k in (2, 3, 4):
        report = residue_relation_check(k, 200)
        assert report.ok and report.words_checked == 2 ** 201 - 1
    assert main(["residues", "--k", "5", "--max-len", "200"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["words_checked"] == 2 ** 201 - 1
    assert data["distinct_values"] == 31
    assert data["partition_sizes"] == {"0": 11, "1": 5, "2": 5, "3": 5, "4": 5}


def _residues_stdout(capsys, k, jobs):
    code = main(["residues", "--k", str(k), "--max-len", "7", "--jobs", jobs])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_residue_check_parallel_merge_is_deterministic(capsys, k):
    assert _residues_stdout(capsys, k, "1") == _residues_stdout(capsys, k, "2")


def test_residues_starts_no_worker_process(capsys, monkeypatch, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    multi = _residues_stdout(capsys, 5, "4")
    assert forks == []
    assert multi == _residues_stdout(capsys, 5, "1")


def test_figure2_rows_shape():
    rows = figure2_rows(10)
    assert len(rows) == 31
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for residue, coords, re, im in rows:
        assert 0 <= residue <= 4
        assert len(coords) == 4
        approx = CycInt(5, coords).approx()
        assert abs(approx.real - re) < 1e-12
        assert abs(approx.imag - im) < 1e-12


def test_cyc_matrix_equality_and_product():
    a = evaluate_matrix(MU_A, 3)
    b = evaluate_matrix(MU_B, 3)
    ab = evaluate_matrix(MU_A * MU_B, 3)
    assert a * b == ab
    assert hash(a * b) == hash(ab)


def test_cycint_json_round_trip():
    z = CycInt(5, (1, -2, 0, 7))
    assert CycInt.from_json_dict(z.to_json_dict()) == z


def test_closure_result_dataclass():
    r = ClosureResult(2, True, 10, 3)
    assert r.finite and not r.exceeded_cap
