from math import comb

import pytest

from shirshov.catalog import (Presentation, chinese_alphabet, chinese_gsb,
                              chinese_relations, congruence_classes,
                              is_staircase, tensor_relations)
from shirshov.core import Alphabet, Polynomial
from shirshov.gsb import all_compositions, is_gsb
from shirshov.rewrite import irr_words

from references import staircase_equals_irr


def test_chinese_relations_counts():
    assert len(chinese_relations(2).relations) == 2
    assert len(chinese_relations(3).relations) == 8
    P = chinese_relations(3)
    assert P.kind == "semigroup"
    assert P.alphabet.names == ("x1", "x2", "x3")
    for r in P.relations:
        (w1, c1), (w2, c2) = r.sorted_terms()
        assert {c1, c2} == {1, -1}
        assert len(w1) == len(w2) == 3
    for k in range(1, 6):
        rels = chinese_relations(k).relations
        # two per triple c >= b >= a, less one identity for each c = b
        # and for each b = a, which leaves c = b = a with none
        assert len(rels) == 2 * comb(k + 2, 3) - 2 * comb(k + 1, 2)
        assert len({frozenset(r.items()) for r in rels}) == len(rels)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        chinese_relations(0)


def test_chinese_gsb_counts():
    assert len(chinese_gsb(2)) == 2
    assert len(chinese_gsb(3)) == 9
    # k generators: 2 per unordered pair, 3 per triple
    assert len(chinese_gsb(4)) == 24


def test_chinese_gsb_contains_the_degree_four_family():
    S = chinese_gsb(3)
    lengths = sorted(len(f.leading_monomial()) for f in S.elements)
    assert lengths == [3] * 8 + [4]
    quartic = S.elements[-1]
    assert quartic == Polynomial([((2, 1, 2, 0), 1), ((2, 0, 2, 1), -1)])


def test_is_staircase():
    assert is_staircase((), 2)
    assert is_staircase((0, 0), 2)
    assert is_staircase((0, 1, 0, 1, 1), 2)
    assert not is_staircase((1, 0, 0), 2)
    assert not is_staircase((1, 1, 0), 2)
    assert is_staircase((0, 1, 0, 2, 0, 2, 1, 2, 2), 3)
    assert not is_staircase((2, 1, 0), 3)


def test_staircase_equals_irr():
    assert staircase_equals_irr(2, 6)
    assert staircase_equals_irr(3, 5)


def test_congruence_class_counts_match_irreducibles():
    for k, max_len in ((2, 5), (3, 3)):
        P = chinese_relations(k)
        S = chinese_gsb(k)
        for n in range(1, max_len + 1):
            expected = sum(1 for w in irr_words(S, n) if len(w) == n)
            assert congruence_classes(P, n) == expected


def test_congruence_classes_rejects_algebra_presentations():
    ab = Alphabet(("x", "y"))
    trinomial = Polynomial([((1, 0), 1), ((0, 1), -1), ((0,), 1)])
    with pytest.raises(ValueError, match="^semigroup relations must be "
                                         "word differences$"):
        Presentation(ab, (trinomial,), "semigroup")
    P = Presentation(ab, (trinomial,), "algebra")
    with pytest.raises(ValueError):
        congruence_classes(P, 2)
    with pytest.raises(ValueError, match="^kind must be semigroup or "
                                         "algebra$"):
        Presentation(chinese_alphabet(2), (), "group")
    # x = x*x is a word difference, but it changes length
    P = Presentation(ab, (Polynomial({(0,): 1, (0, 0): -1}),), "semigroup")
    with pytest.raises(ValueError, match="^length-changing relation"):
        congruence_classes(P, 2)


def test_tensor_relations_commute_the_factors():
    T = tensor_relations(2, 3)
    assert len(T) == 6
    assert T.order.alphabet.names == ("x1", "x2", "y1", "y2", "y3")
    assert all_compositions(T) == []
    assert is_gsb(T).holds


def test_tensor_irr_words_interleave_as_x_then_y():
    T = tensor_relations(2, 2)
    for n in range(4):
        got = sum(1 for w in irr_words(T, 3) if len(w) == n)
        expected = sum(2 ** a * 2 ** (n - a) for a in range(n + 1))
        assert got == expected
