from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

import pytest

from shirshov.anticomm import AcPolynomial
from shirshov.core import (Alphabet, DegLexOrder, Polynomial, Terms,
                           VectorSpan, add_scaled, deglex_key, exact,
                           exact_div)
from shirshov.dialgebra import DiPolynomial, Diword, LeibnizAlgebra
from shirshov.freemodule import ModuleElement, ModuleWord
from shirshov.rewrite import RewriteSystem

from references import stored_rows

# reads a deglex_key back as its word
WORD = itemgetter(1)


def test_deglex_sorts_by_length_then_letters():
    words = [(1,), (0, 1), (), (1, 0), (0,), (0, 0)]
    assert sorted(words, key=deglex_key) == [
        (), (0,), (1,), (0, 0), (0, 1), (1, 0)]


def test_alphabet_rank_name_roundtrip():
    ab = Alphabet(("a", "b", "c"))
    assert len(ab) == 3
    assert ab.rank("b") == 1
    assert ab.name(2) == "c"
    assert ab.word("c", "a") == (2, 0)
    with pytest.raises(ValueError):
        ab.rank("z")


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(())
    for bad in ("", 1):
        with pytest.raises(ValueError, match="^generator names must be "
                                             "nonempty strings$"):
            Alphabet(("x", bad))


def test_order_cmp_and_sort():
    order = DegLexOrder(Alphabet(("x", "y")))
    assert deglex_key((1,)) < deglex_key((0, 0))
    assert deglex_key((0, 1)) == deglex_key((0, 1))
    assert deglex_key((1, 0)) > deglex_key((0, 1))
    assert order.key((1, 0)) == deglex_key((1, 0))


def test_terms_addition_cancels():
    p = Polynomial([((0,), 1), ((1,), 2)])
    q = Polynomial([((0,), -1), ((1,), -2)])
    assert not (p + q)
    assert p - p == Polynomial.zero()
    assert len(p) == 2


def test_terms_drops_zero_coefficients():
    p = Polynomial([((0,), 1), ((0,), -1), ((1,), 3)])
    assert len(p) == 1
    assert p.coeff((0,)) == 0
    assert p.coeff((1,)) == 3


def test_leading_monomial_and_monic():
    p = Polynomial([((0, 1), Fraction(3)), ((1,), 5), ((1, 0), Fraction(6))])
    assert p.leading_monomial() == (1, 0)
    assert p.leading_coeff() == 6
    m = p.monic()
    assert m.leading_coeff() == 1
    assert m.coeff((0, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Polynomial.zero().leading_monomial()


def test_scalar_and_negation():
    p = Polynomial([((0,), 2)])
    assert (3 * p).coeff((0,)) == 6
    assert p.scale(Fraction(1, 2)).coeff((0,)) == 1
    assert (-p).coeff((0,)) == -2
    assert p * 3 == 3 * p
    assert Polynomial.zero() == 0
    assert (p == 0) is False


def test_product_is_noncommutative():
    x = Polynomial.monomial((0,))
    y = Polynomial.monomial((1,))
    p = (x + y) * (x - y)
    assert p.coeff((0, 0)) == 1
    assert p.coeff((0, 1)) == -1
    assert p.coeff((1, 0)) == 1
    assert p.coeff((1, 1)) == -1
    assert x * y != y * x
    assert Polynomial.one() * x == x
    assert (2 * x) * y == Polynomial.monomial((0, 1), 2)


def test_sorted_terms_descending():
    p = Polynomial([((0,), 1), ((1, 1), 2), ((1,), 3)])
    assert [m for m, _ in p.sorted_terms()] == [(1, 1), (1,), (0,)]


def test_vector_span_detects_dependence():
    span = VectorSpan(deglex_key, WORD)
    assert span.insert(span.keyed({(0,): Fraction(2)}))
    assert span.insert(span.keyed({(1,): 1, (0,): 1}))
    assert not span.insert(span.keyed({(0,): 3, (1,): 3}))
    assert span.rank == 2
    assert span.contains({(1,): 7, (0,): 7})
    assert not span.contains({(0, 0): 1})
    assert span.pivots() == [(1,), (0,)]


def test_a_reduction_folds_the_chain_it_walks(monkeypatch):
    # x_k - x_(k-1) for k = 1..30: the tail of each row is the pivot of
    # the row before it, so x_30 - x_0 reduces along the whole chain
    span = VectorSpan(int, int)
    for k in range(1, 31):
        assert span.insert({k: 1, k - 1: -1})
    steps = []

    def counted(acc, items, c=1):
        steps.append(c)
        return add_scaled(acc, items, c)

    monkeypatch.setattr("shirshov.core.add_scaled", counted)
    walks = []
    for _ in range(3):
        del steps[:]
        assert span.contains({30: 1, 0: -1})
        walks.append(len(steps))
    assert walks[0] > walks[1] > walks[2]
    assert span.rank == 30 and span.pivots() == list(range(30, 0, -1))
    assert not span.contains({30: 1})


def test_keyed_brings_a_column_vector_into_key_space():
    span = VectorSpan(deglex_key, WORD)
    kvec = span.keyed({(1, 0): Fraction(4, 2), (0,): 0, (): Fraction(0)})
    assert kvec == {(2, (1, 0)): 2} and type(kvec[2, (1, 0)]) is int
    assert span.keyed({(1,): Fraction(1, 2)}) == {(1, (1,)): Fraction(1, 2)}
    # a word outside the alphabet has no int code, so no key
    xy = DegLexOrder(Alphabet(("x", "y")))
    words = RewriteSystem((Polynomial.monomial((0, 0)),), xy).empty_span(2)
    assert words.keyed({(5,): 1}) is None
    assert words.keyed({(1, 0): 1}) == {5: 1}


def test_an_integral_coefficient_is_an_int_and_any_other_a_fraction():
    x, y = (1,), (0,)
    m = Polynomial({x: 2, y: -1}).monic()
    assert m.terms == {x: 1, y: Fraction(-1, 2)}
    assert type(m.coeff(x)) is int and type(m.coeff(y)) is Fraction
    p = Polynomial({x: Fraction(4, 2), y: Fraction(1, 2)})
    assert type(p.coeff(x)) is int
    assert type((p + p).coeff(y)) is int
    assert type(p.scale(Fraction(2)).coeff(y)) is int
    span = VectorSpan(deglex_key, WORD)
    span.insert(span.keyed({x: 3, y: 6}))
    assert stored_rows(span)[x] == {x: 1, y: 2}
    assert type(stored_rows(span)[x][y]) is int
    assert type(exact(Fraction(-6, 3))) is int
    assert exact_div(6, -3) == -2 and type(exact_div(6, -3)) is int
    assert exact_div(1, 2) == Fraction(1, 2)
    assert type(exact_div(Fraction(1, 2), Fraction(1, 4))) is int
    acc = {x: 1, y: Fraction(1, 2)}
    assert add_scaled(acc, [(y, Fraction(1, 4)), (x, 1), ((), 0)], -2) is acc
    assert acc == {x: -1} and type(acc[x]) is int
    total = add_scaled({}, [(x, Fraction(3, 2)), (x, Fraction(1, 2))])
    assert total == {x: 2} and type(total[x]) is int


def test_monic_returns_an_element_that_is_already_monic():
    x, y = (1,), (0,)
    m = Polynomial({x: 1, y: Fraction(-1, 2)})
    assert m.monic() is m
    assert m.monic() == m and m.monic().terms == {x: 1, y: Fraction(-1, 2)}
    assert Polynomial({x: 2, y: -1}).monic().coeff(y) == Fraction(-1, 2)


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, "1/2", Decimal(1), None])
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(bad):
    x = (0,)
    with pytest.raises(TypeError):
        exact(bad)
    with pytest.raises(TypeError):
        Terms({x: bad})
    with pytest.raises(TypeError):
        Polynomial({x: 1}).scale(bad)
    with pytest.raises(TypeError):
        VectorSpan(deglex_key, WORD).keyed({x: bad})
    with pytest.raises(TypeError):
        RewriteSystem([Polynomial({(0, 0): 1, x: bad})],
                      DegLexOrder(Alphabet(("x",))))
    with pytest.raises(TypeError):
        DiPolynomial({Diword((0, 0), 0): 1, Diword((0,), 0): bad})
    with pytest.raises(TypeError):
        ModuleElement({ModuleWord((0,), 0): bad})
    with pytest.raises(TypeError):
        AcPolynomial({0: bad})
    with pytest.raises(TypeError):
        LeibnizAlgebra(dim=1, bracket={(0, 0, 0): bad})


def test_an_operand_that_is_not_of_the_kind_or_a_number_is_refused():
    p = Polynomial({(0,): 1})
    with pytest.raises(TypeError):
        p + ModuleElement({ModuleWord((), 0): 1})
    with pytest.raises(TypeError):
        "x" * p
    with pytest.raises(TypeError):
        p * "x"
    # a bool is an int, and comes back as the int itself
    assert exact(True) == 1 and type(exact(True)) is int
