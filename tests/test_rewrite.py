import pytest

from shirshov.core import Alphabet, DegLexOrder, Polynomial
from shirshov.gsb import is_gsb
from shirshov.rewrite import (RewriteSystem, find_factor, ideal_span,
                              irr_words, membership_oracle, normal_form,
                              reduce_step, reducible)

AB = Alphabet(("y", "x"))
ORDER = DegLexOrder(AB)
X, Y = AB.rank("x"), AB.rank("y")


def branching_system():
    # x*x -> y*x over y < x
    f = Polynomial([((X, X), 1), ((Y, X), -1)])
    return RewriteSystem((f,), ORDER)


def test_system_validates_elements():
    with pytest.raises(ValueError):
        RewriteSystem((Polynomial.zero(),), ORDER)
    nonmonic = Polynomial([((X, X), 2), ((Y,), 1)])
    with pytest.raises(ValueError):
        RewriteSystem((nonmonic,), ORDER)


def test_a_constant_relation_gives_the_trivial_quotient():
    S = RewriteSystem((Polynomial.one(),), ORDER)
    assert irr_words(S, 3) == []
    for p in (Polynomial.one(), Polynomial([((X, Y, X), 2), ((Y,), -1)])):
        assert not normal_form(p, S)
    assert is_gsb(S).holds


def test_find_factor():
    assert find_factor((0, 1, 0, 1), (1, 0)) == 1
    assert find_factor((0, 1, 0, 1), (1, 0), start=2) is None
    assert find_factor((0, 1), ()) == 0
    assert find_factor((0,), (0, 0)) is None


def test_reducible():
    S = branching_system()
    assert reducible((Y, X, X, Y), S)
    assert not reducible((X, Y, X), S)


def test_reduce_step_rewrites_greatest_monomial_first():
    S = branching_system()
    p = Polynomial([((X, X), 1), ((Y, Y), 5)])
    q = reduce_step(p, S)
    assert q == Polynomial([((Y, X), 1), ((Y, Y), 5)])
    assert reduce_step(q, S) is None


def test_reduce_step_uses_leftmost_occurrence():
    S = branching_system()
    p = Polynomial.monomial((X, X, X))
    q = reduce_step(p, S)
    # leftmost xx -> yx gives yxx, not xyx
    assert q == Polynomial.monomial((Y, X, X))


def test_normal_form_terminates_and_is_stable():
    S = branching_system()
    p = Polynomial.monomial((X, X, X))
    nf = normal_form(p, S)
    assert nf == Polynomial.monomial((Y, Y, X))
    assert normal_form(nf, S) == nf
    assert not normal_form(Polynomial.zero(), S)


def test_reduce_step_prefers_greater_leading_word():
    # two rules apply inside the same monomial; the longer leading word wins
    f = Polynomial([((X, X), 1), ((Y,), -1)])
    g = Polynomial([((X, X, X), 1), ((Y, Y), -1)])
    S = RewriteSystem((f, g), ORDER)
    q = reduce_step(Polynomial.monomial((X, X, X)), S)
    assert q == Polynomial.monomial((Y, Y))


def test_reduce_step_duplicate_leading_words_use_the_earliest():
    f = Polynomial([((X, X), 1), ((Y,), -1)])
    g = Polynomial([((X, X), 1), ((Y, Y), -1)])
    p = Polynomial.monomial((Y, X, X))
    assert reduce_step(p, RewriteSystem((f, g), ORDER)) == \
        Polynomial.monomial((Y, Y))
    assert reduce_step(p, RewriteSystem((g, f), ORDER)) == \
        Polynomial.monomial((Y, Y, Y))


def test_reduce_step_equal_length_leads_in_one_monomial():
    # over y < x the word xy is greater than yx, so it wins in yxy although
    # yx occurs further left, and in xyxy its leftmost occurrence is used
    f = Polynomial([((Y, X), 1), ((Y,), -1)])
    g = Polynomial([((X, Y), 1), ((X,), -1)])
    S = RewriteSystem((f, g), ORDER)
    assert reduce_step(Polynomial.monomial((Y, X, Y)), S) == \
        Polynomial.monomial((Y, X))
    assert reduce_step(Polynomial.monomial((X, Y, X, Y)), S) == \
        Polynomial.monomial((X, X, Y))


def test_irr_words_ascending_and_complete():
    S = branching_system()
    words = irr_words(S, 3)
    assert words[0] == ()
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    # irreducible = words without xx as a factor (Fibonacci-style count)
    assert [sum(1 for w in words if len(w) == d) for d in range(4)] == [
        1, 2, 3, 5]
    assert all(not reducible(w, S) for w in words)


def test_ideal_span_sees_the_unresolved_overlap():
    S = branching_system()
    span = ideal_span(S, 3)
    # the system is not closed: the self-overlap of xx puts xyx - yxx in
    # the ideal, so xyx appears as a pivot beyond the reducible words
    assert span.rank == 5
    assert set(span.pivots()) == {
        (X, X), (X, X, X), (X, X, Y), (X, Y, X), (Y, X, X)}


def test_membership_oracle():
    S = branching_system()
    x = Polynomial.monomial((X,))
    y = Polynomial.monomial((Y,))
    f = x * x - y * x
    assert membership_oracle(f, S, 2)
    assert membership_oracle(x * f - f * x, S, 3)
    assert membership_oracle(Polynomial.zero(), S, 0)
    assert not membership_oracle(x * y - y * x, S, 4)
    with pytest.raises(ValueError):
        membership_oracle(f, S, 1)
