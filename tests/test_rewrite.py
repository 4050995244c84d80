from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shirshov import rewrite
from shirshov.anticomm import AcPolynomial, AntiCommutative, hall_gsb
from shirshov.catalog import chinese_gsb
from shirshov.core import Alphabet, DegLexOrder, Polynomial, deglex_key
from shirshov.dialgebra import Dialgebra, leibniz_dim2, leibniz_enveloping
from shirshov.freemodule import FreeModule, ModuleElement, ModuleWord
from shirshov.gsb import is_gsb
from shirshov.rewrite import (RewriteSystem, find_factor, irr_words,
                              normal_form, word_code)

from references import (membership_oracle, probing_irreducible_by_degree,
                        rewrite_step, slicing_find, terms_image)

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
    assert S.find((Y, X, X, Y)) is not None
    assert S.find((X, Y, X)) is None


def test_a_foreign_letter_breaks_only_the_occurrences_that_cross_it():
    # chinese_gsb(2) leads with x2*x1*x1 and x2*x2*x1; a letter outside
    # range(2), a negative one included, matches no leading word
    S = chinese_gsb(2)
    assert S.find((1, 1, 0, 7)) == (1, ((), (7,)))
    assert S.find((-1, 1, 1, 0)) == (1, ((-1,), ()))
    assert S.find((1, 7, 1, 0)) is None
    assert S.find((1, -2, 1, 0, 0)) == (0, ((1, -2), ()))
    # a letter that equals a rank but is no int is outside the alphabet
    # too, as check_letters reads it
    assert S.find((1.0, 0, 0)) is None
    assert S.find((1, 1.0, 0, 0)) is None
    assert S.find((Fraction(1), 1, 1, 0)) == (1, ((Fraction(1),), ()))
    p = Polynomial({(1.0, 0, 0): 1})
    assert S.normal_form(p) == p


def test_the_automaton_codes_its_words_by_word_code_alone():
    words = [(0,), (1, 0), (0, 1), (1, 1, 0), (0, 0), (1, 0, 1)]
    dfa = rewrite._Automaton(2, words)
    assert "first" not in rewrite._Automaton.__slots__
    assert [dfa.codes[s] for s, w in enumerate(dfa.words) if w] \
        == [word_code(w, 2) for w in dfa.words if w]
    assert sorted(w for w in dfa.words if w) == sorted(words)


def test_reduce_step_rewrites_greatest_monomial_first():
    S = branching_system()
    p = Polynomial([((X, X), 1), ((Y, Y), 5)])
    q = rewrite_step(p, S.find, terms_image(S))
    assert q == Polynomial([((Y, X), 1), ((Y, Y), 5)])
    assert rewrite_step(q, S.find, terms_image(S)) is None


def test_reduce_step_uses_leftmost_occurrence():
    S = branching_system()
    p = Polynomial.monomial((X, X, X))
    q = rewrite_step(p, S.find, terms_image(S))
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
    q = rewrite_step(Polynomial.monomial((X, X, X)), S.find,
                     terms_image(S))
    assert q == Polynomial.monomial((Y, Y))


def test_reduce_step_duplicate_leading_words_use_the_earliest():
    f = Polynomial([((X, X), 1), ((Y,), -1)])
    g = Polynomial([((X, X), 1), ((Y, Y), -1)])
    p = Polynomial.monomial((Y, X, X))
    S = RewriteSystem((f, g), ORDER)
    assert rewrite_step(p, S.find, terms_image(S)) == \
        Polynomial.monomial((Y, Y))
    S = RewriteSystem((g, f), ORDER)
    assert rewrite_step(p, S.find, terms_image(S)) == \
        Polynomial.monomial((Y, Y, Y))


def test_reduce_step_equal_length_leads_in_one_monomial():
    # over y < x the word xy is greater than yx, so it wins in yxy although
    # yx occurs further left, and in xyxy its leftmost occurrence is used
    f = Polynomial([((Y, X), 1), ((Y,), -1)])
    g = Polynomial([((X, Y), 1), ((X,), -1)])
    S = RewriteSystem((f, g), ORDER)
    assert rewrite_step(Polynomial.monomial((Y, X, Y)), S.find,
                        terms_image(S)) == Polynomial.monomial((Y, X))
    assert rewrite_step(Polynomial.monomial((X, Y, X, Y)), S.find,
                        terms_image(S)) == Polynomial.monomial((X, X, Y))


def test_irr_words_ascending_and_complete():
    S = branching_system()
    words = irr_words(S, 3)
    assert words[0] == ()
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    # irreducible = words without xx as a factor (Fibonacci-style count)
    assert [sum(1 for w in words if len(w) == d) for d in range(4)] == [
        1, 2, 3, 5]
    assert all(S.find(w) is None for w in words)


def test_a_negative_bound_is_refused_by_the_associative_enumeration():
    S = branching_system()
    for enumerate_words in (lambda: irr_words(S, -1),
                            lambda: S.irreducible(-1)):
        with pytest.raises(ValueError, match="^max_len must be >= 0$"):
            enumerate_words()
    # the other kinds enumerate nothing below their shortest monomial
    module = FreeModule([ModuleElement([(ModuleWord((0,), 0), 1)])], 2, 1)
    dialgebra = Dialgebra(leibniz_enveloping(leibniz_dim2()), 2)
    ac = AntiCommutative(hall_gsb(2, 3), 2)
    for structure in (module, dialgebra, ac):
        assert structure.irreducible(-1) == []


def test_ideal_span_sees_the_unresolved_overlap():
    S = branching_system()
    span = S.span(3)
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


def test_membership_oracle_measures_degree_as_the_structure_does():
    # A module word's degree is the length of its u-part, and an ac
    # word's is its size; neither is len() of the monomial.
    x1, x2 = 0, 1
    module = FreeModule((ModuleElement({ModuleWord((x1,), 0): 1}),), 2, 1)
    p = ModuleElement({ModuleWord((x2, x2, x1), 0): 1})
    with pytest.raises(ValueError, match="below the degree"):
        membership_oracle(p, module, 2)
    assert membership_oracle(p, module, 3)
    hall = AntiCommutative(hall_gsb(2, 4), 2)
    assert not membership_oracle(AcPolynomial({x1: 1}), hall, 4)
    assert all(membership_oracle(s, hall, 4) for s in hall.elements)


# -- irr_words against the definition ------------------------------------


@st.composite
def systems(draw):
    """A system over 2 or 3 letters with 1 to 4 monic relations whose
    leading words have lengths 0 to 4; a leading word may repeat, and the
    lengths may leave gaps."""
    n = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    elems = []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.lists(word, min_size=1, max_size=3, unique=True))
        if elems and draw(st.booleans()):
            # the leading word of an earlier relation, with a new tail
            lead = draw(st.sampled_from(elems)).leading_monomial()
            words = [lead] + [w for w in words
                              if deglex_key(w) < deglex_key(lead)]
        elems.append(Polynomial([(w, draw(st.sampled_from([-2, -1, 1, 2])))
                                 for w in words]).monic())
    alphabet = Alphabet(tuple("x%d" % i for i in range(n)))
    return RewriteSystem(tuple(elems), DegLexOrder(alphabet))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
def test_irr_words_are_the_words_find_leaves(system):
    n = len(system.order.alphabet)
    for L in range(7):
        assert irr_words(system, L) == [
            w for d in range(L + 1) for w in product(range(n), repeat=d)
            if system.find(w) is None]


# -- find and the irreducible words against the slicing reference --------


@st.composite
def automaton_systems(draw):
    """A system over 1 to 4 letters with 1 to 8 monomial relations whose
    leading words may be (), repeat one another, or overlap themselves
    (u^k followed by a prefix of u); words to find in it, over the
    letters and at times one outside the alphabet; and words that are in
    its automaton but not among its leading words, as after they left
    the basis of a completion."""
    n = draw(st.integers(1, 4))
    letter = st.integers(0, n - 1)
    plain = st.lists(letter, max_size=6).map(tuple)
    periodic = st.builds(lambda u, k, j: u * k + u[:j],
                         st.lists(letter, min_size=1, max_size=3).map(tuple),
                         st.integers(1, 3), st.integers(0, 2))
    leads = draw(st.lists(st.one_of(plain, periodic, st.just(())),
                          min_size=1, max_size=8))
    leads += draw(st.lists(st.sampled_from(leads), max_size=2))
    alphabet = Alphabet(tuple("x%d" % i for i in range(n)))
    system = RewriteSystem(tuple(Polynomial.monomial(w) for w in leads),
                           DegLexOrder(alphabet))
    words = draw(st.lists(st.lists(
        st.one_of(letter, letter, letter, st.integers(-2, n + 1)),
        max_size=14).map(tuple), max_size=40))
    dead = draw(st.lists(st.one_of(plain, periodic), max_size=4))
    return system, words, dead


@settings(derandomize=True, max_examples=300, deadline=None)
@given(automaton_systems())
def test_find_and_irreducible_words_match_the_slicing_reference(case):
    system, words, dead = case
    for w in dead:
        system._automaton().add(w)
    for w in words:
        assert system.find(w) == slicing_find(system, w)
    assert system.irreducible_by_degree(6) \
        == probing_irreducible_by_degree(system, 6)
