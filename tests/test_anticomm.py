import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import witt
from shirshov.anticomm import (AcPolynomial, AntiCommutative,
                               _normal_by_degree, ac_flatten,
                               ac_gsb_check_bounded, ac_key, ac_mul,
                               ac_size, hall_gsb, hall_words, is_ls_word,
                               is_normal_acword, ls_bracketing, ls_words,
                               normal_words)

from references import _normal_by_degree as sorted_normal_by_degree
from references import ac_find

X1, X2 = 0, 1


def test_ac_key_orders_by_size_then_recursively():
    assert ac_key(X1) < ac_key(X2)
    assert ac_key(X2) < ac_key((X2, X1))
    assert ac_key((X2, X1)) < ac_key(((X2, X1), X1))
    assert ac_key(((X2, X1), X2)) > ac_key(((X2, X1), X1))
    assert ac_size(((X2, X1), X2)) == 3


def test_is_normal_acword():
    assert is_normal_acword(X1)
    assert is_normal_acword((X2, X1))
    assert not is_normal_acword((X1, X2))
    assert not is_normal_acword((X1, X1))
    assert is_normal_acword(((X2, X1), X1))
    assert not is_normal_acword((X2, (X2, X1)))


def test_ac_mul_signs():
    assert ac_mul(X2, X1) == AcPolynomial({(X2, X1): 1})
    assert ac_mul(X1, X2) == AcPolynomial({(X2, X1): -1})
    assert not ac_mul(X1, X1)
    p = AcPolynomial({X1: 2})
    q = AcPolynomial({X2: 1, X1: 1})
    assert ac_mul(p, q) == AcPolynomial({(X2, X1): -2})


def test_normal_word_counts():
    def count(d):
        return sum(1 for w in normal_words(2, d) if ac_size(w) == d)
    assert [count(d) for d in range(1, 6)] == [2, 1, 2, 4, 10]
    # the recursion: pairs of distinct smaller normal words
    for n in range(2, 8):
        expected = sum(count(i) * count(n - i)
                       for i in range(1, (n + 1) // 2))
        if n % 2 == 0:
            m = count(n // 2)
            expected += m * (m - 1) // 2
        assert count(n) == expected


def test_hall_word_counts_match_witt():
    per = {}
    for w in hall_words(2, 7):
        per[ac_size(w)] = per.get(ac_size(w), 0) + 1
    assert [per.get(n, 0) for n in range(1, 8)] == [
        witt(2, n) for n in range(1, 8)]
    with pytest.raises(ValueError):
        hall_words(2, 0)


def test_hall_gsb_smallest_element():
    S = hall_gsb(2, 4)
    assert len(S) == 1
    rel = S[0]
    lead = rel.leading_monomial()
    assert lead == (((X2, X1), X2), X1)
    # the third Jacobi term vanishes here, leaving a binomial
    assert rel == AcPolynomial({(((X2, X1), X2), X1): 1,
                                (((X2, X1), X1), X2): -1})


def test_hall_gsb_element_count():
    # ordered triples u > v > w of hall words with degree sums <= bound:
    # 4 -> 1 of them, 5 -> 2 more, 6 -> 7 more
    assert len(hall_gsb(2, 4)) == 1
    assert len(hall_gsb(2, 5)) == 3
    assert len(hall_gsb(2, 6)) == 10


def test_hall_gsb_leading_words_are_the_hall_triples_in_order():
    for n_letters, max_deg in ((2, 7), (3, 5)):
        pool = hall_words(n_letters, max_deg)
        triples = [(ac_size(u) + ac_size(v) + ac_size(w),
                    ac_key(u), ac_key(v), ac_key(w))
                   for u in pool for v in pool if ac_key(u) > ac_key(v)
                   for w in pool if ac_key(v) > ac_key(w)
                   and ac_size(u) + ac_size(v) + ac_size(w) <= max_deg]
        S = hall_gsb(n_letters, max_deg)
        keys = []
        for rel in S:
            assert rel.leading_coeff() == 1
            (u, v), w = rel.leading_monomial()
            keys.append((ac_size(u) + ac_size(v) + ac_size(w),
                         ac_key(u), ac_key(v), ac_key(w)))
        assert keys == sorted(triples)


@pytest.mark.parametrize("hall", [False, True])
def test_normal_words_come_in_the_order_sorting_gave(hall):
    for n in range(1, 4):
        for d in range(1, 9):
            assert _normal_by_degree(n, d, hall) \
                == sorted_normal_by_degree(n, d, hall)


def test_ac_compositions_include_the_root():
    # by i, then j, then preorder; a self-pair's root gives exactly 0
    g = AcPolynomial({(X2, X1): 1})
    assert list(AntiCommutative((g,), 2).compositions()) == [((X2, X1), 0)]
    assert list(AntiCommutative((g, g), 2).compositions()) \
        == [((X2, X1), 0)] * 4
    f = AcPolynomial({((X2, X1), X2): 1})
    assert list(AntiCommutative((f, g), 2).compositions()) \
        == [(((X2, X1), X2), 0), (((X2, X1), X2), 0), ((X2, X1), 0)]


def test_ac_normal_form():
    S = AntiCommutative([AcPolynomial({((X2, X1), X1): 1})], 2)
    p = AcPolynomial({(((X2, X1), X1), X2): 1, (X2, X1): 3})
    nf = S.normal_form(p)
    assert nf == AcPolynomial({(X2, X1): 3})
    assert S.normal_form(nf) == nf


def test_ac_normal_form_renormalizes_substitutions():
    # rewriting inside a bigger tree goes through the signed product again
    S = AntiCommutative([AcPolynomial({((X2, X1), X2): 1, (X2, X1): -1})], 2)
    p = AcPolynomial({(((X2, X1), X2), X1): 1})
    nf = S.normal_form(p)
    assert nf == AcPolynomial({((X2, X1), X1): 1})


def test_bounded_check_on_hall_basis():
    S = hall_gsb(2, 5)
    rep = ac_gsb_check_bounded(S, 2, 5)
    assert rep.holds
    assert [(l.degree, l.irreducible, l.rank, l.total) for l in rep.table] \
        == [(1, 2, 0, 2), (2, 3, 0, 3), (3, 5, 0, 5), (4, 8, 1, 9),
            (5, 14, 5, 19)]


def test_truncated_basis_still_closes_its_own_ideal():
    # a single element has only the root self-occurrence, so the bounded
    # check holds for the (smaller) ideal it generates by itself
    S = hall_gsb(2, 5)
    rep = ac_gsb_check_bounded(S[:1], 2, 5)
    assert rep.holds


def test_bounded_check_flags_an_open_pair():
    f = AcPolynomial({((X2, X1), X1): 1})
    g = AcPolynomial({(X2, X1): 1, X2: -1})
    rep = ac_gsb_check_bounded([f, g], 2, 4)
    assert not rep.gsb_ok
    assert not rep.holds


def test_irr_equals_hall():
    S = hall_gsb(2, 5)
    assert AntiCommutative(S, 2).irreducible(5) == hall_words(2, 5)


def test_a_relation_outside_the_alphabet_is_refused():
    with pytest.raises(ValueError, match="letter 2 outside alphabet"):
        AntiCommutative(hall_gsb(3, 4), 2)
    with pytest.raises(TypeError):
        AntiCommutative(hall_gsb(2, 4))


def test_a_relation_that_is_not_normal_is_refused():
    # unchecked, (0, 1) has no code and leaves rank 0 at every degree,
    # and ((0, 1), 0) breaks the elimination
    for terms in ({(0, 1): 1}, {((0, 1), 0): 1, 1: 1}):
        with pytest.raises(ValueError, match="element 0: .* is not normal"):
            AntiCommutative([AcPolynomial(terms)], 2)
    report = AntiCommutative([AcPolynomial({(1, 0): 1})], 2).bounded_check(3)
    assert [line.rank for line in report.table] == [0, 1, 3]


def test_is_ls_word():
    assert is_ls_word((X2,))
    assert is_ls_word((X2, X1))
    assert not is_ls_word((X1, X2))
    assert not is_ls_word((X2, X2))
    assert is_ls_word((X2, X2, X1))
    assert not is_ls_word((X2, X1, X2))
    with pytest.raises(ValueError):
        is_ls_word(())


def test_ls_words_counts_match_witt():
    assert ls_words(2, 2) == [(X2, X1)]
    for k in (1, 2, 3):
        for n in range(1, 8):
            words = ls_words(k, n)
            assert all(a < b for a, b in zip(words, words[1:]))
            assert all(is_ls_word(w) for w in words)
            assert len(words) == witt(k, n)
    with pytest.raises(ValueError):
        ls_words(2, 0)


def test_ls_bracketing_splits_at_longest_ls_suffix():
    assert ls_bracketing((X2, X1)) == (X2, X1)
    assert ls_bracketing((X2, X2, X1)) == (X2, (X2, X1))
    assert ls_bracketing((X2, X1, X1)) == ((X2, X1), X1)
    with pytest.raises(ValueError):
        ls_bracketing((X1, X2))


def test_flatten_inverts_bracketing():
    for n in range(1, 8):
        for u in ls_words(2, n):
            assert ac_flatten(ls_bracketing(u)) == u


def test_bounded_check_refuses_a_bound_below_a_leading_size():
    S = hall_gsb(2, 5)
    largest = max(ac_size(s.leading_monomial()) for s in S)
    with pytest.raises(ValueError):
        ac_gsb_check_bounded(S, 2, largest - 1)


# Leading words of size <= 3 nest in one another and in the trees, and a
# short pool repeats them across the relations.
LEADS = normal_words(2, 3)
TREES = normal_words(2, 6)


@st.composite
def find_cases(draw):
    """Relations whose leading words repeat and nest, each with a smaller
    tail when there is one, and a tree where several of them occur."""
    relations = []
    for lw in draw(st.lists(st.sampled_from(LEADS), min_size=1,
                            max_size=6)):
        smaller = [t for t in LEADS if ac_key(t) < ac_key(lw)]
        terms = {lw: 1}
        if smaller and draw(st.booleans()):
            terms[draw(st.sampled_from(smaller))] = draw(
                st.sampled_from([-2, -1, 3]))
        relations.append(AcPolynomial(terms))
    return AntiCommutative(relations, 2), draw(st.sampled_from(TREES))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(find_cases())
def test_indexed_find_matches_the_occurrence_walk(case):
    structure, t = case
    assert structure.find(t) == ac_find(structure.leading_words, t)
