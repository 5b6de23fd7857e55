import pytest

import oracle
from qmarkoff.markoff import (MarkoffTriple, christoffel_entry_values,
                              markoff_numbers, markoff_numbers_up_to,
                              triple_children)


def test_root_triple_valid():
    t = MarkoffTriple(1, 1, 1)
    assert t.x ** 2 + t.y ** 2 + t.z ** 2 == 3 * t.x * t.y * t.z


def test_invalid_triples_rejected():
    with pytest.raises(ValueError):
        MarkoffTriple(1, 1, 2)
    with pytest.raises(ValueError):
        MarkoffTriple(2, 1, 2)  # middle not maximal: (2,1,2) also fails equation
    with pytest.raises(ValueError):
        MarkoffTriple(5, 2, 1)  # valid numbers, wrong orientation
    with pytest.raises(ValueError):
        MarkoffTriple(0, 0, 0)


def test_children_examples():
    c1, c2 = triple_children(MarkoffTriple(1, 2, 1))
    assert 5 in c1.components() and 5 in c2.components()
    c1, c2 = triple_children(MarkoffTriple(1, 5, 2))
    assert sorted(c1.components()) == [1, 5, 13]
    assert sorted(c2.components()) == [2, 5, 29]


def test_children_satisfy_equation_deep():
    frontier = [MarkoffTriple(1, 5, 2)]
    for _ in range(6):
        frontier = [c for t in frontier for c in t.children()]
    for t in frontier:
        x, y, z = t.components()
        assert x * x + y * y + z * z == 3 * x * y * z
        assert y >= x and y >= z


def test_markoff_numbers_depths():
    assert markoff_numbers(0) == [1]
    nums = markoff_numbers(8)
    assert nums[:9] == [1, 2, 5, 13, 29, 34, 89, 169, 194]
    with pytest.raises(ValueError):
        markoff_numbers(-1)


def test_markoff_numbers_up_to_million():
    nums = markoff_numbers_up_to(10 ** 6)
    assert len(nums) == 40
    assert nums[:17] == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610,
                         985, 1325, 1597, 2897, 4181]
    assert nums[-1] <= 10 ** 6
    assert markoff_numbers_up_to(0) == []
    assert markoff_numbers_up_to(2) == [1, 2]


def test_entry_values_along_christoffel_tree():
    values = christoffel_entry_values(12)
    assert values["a"] == 1
    assert values["b"] == 2
    assert values["aabab"] == 194
    assert values["aab"] == 13
    assert values["abb"] == 29
    markoff = set(markoff_numbers_up_to(10 ** 12))
    assert set(values.values()) <= markoff


def test_depth_enumeration_agrees_with_bound_enumeration():
    by_depth = set(markoff_numbers(10))
    upto = set(markoff_numbers_up_to(1000))
    assert upto <= by_depth


def test_depth_walk_matches_a_breadth_first_walk_with_seen_triples():
    for depth in range(13):
        assert markoff_numbers(depth) == oracle.markoff_numbers(depth), depth


@pytest.mark.parametrize("bound", [1, 2, 5, 100, 10 ** 6, 10 ** 12, 10 ** 30])
def test_bound_walk_matches_a_breadth_first_walk_with_seen_triples(bound):
    assert markoff_numbers_up_to(bound) == oracle.markoff_numbers(bound=bound)
