from fractions import Fraction
from math import comb

import pytest

from shirshov.core import Structure
from shirshov.dialgebra import (Dialgebra, DiPolynomial, Diword,
                                LeibnizAlgebra, all_diwords,
                                di_gsb_check_bounded, di_irr, di_left,
                                di_right, diword_key,
                                leibniz_check, leibniz_dim2,
                                leibniz_enveloping, leibniz_i0, pbw_basis)

from references import leibniz_enveloping as reference_enveloping

# {e1, e2} = e0 = -{e2, e1} and {e2, e2} = e0, as in
# tests/golden/leibniz3.pres
LEIBNIZ3 = LeibnizAlgebra(dim=3, bracket={(1, 2, 0): 1, (2, 1, 0): -1,
                                          (2, 2, 0): 1})
# {e0, e0} = e1 + e2 and {e3, e3} = e2, as in
# tests/golden/leibniz_adapted.pres: the squares span the coordinate
# subspace of e1 and e2, though e1 is no bracket
ADAPTED = LeibnizAlgebra(dim=4, bracket={(0, 0, 1): 1, (0, 0, 2): 1,
                                         (3, 3, 2): 1})
ALGEBRAS = [leibniz_dim2(), LeibnizAlgebra(dim=2, bracket={}), LEIBNIZ3,
            LeibnizAlgebra(dim=2, bracket={(1, 1, 0): Fraction(3, 2)}),
            ADAPTED]


def test_diword_validation():
    w = Diword((0, 1, 0), 1)
    assert len(w) == 3
    with pytest.raises(ValueError, match="^center 2 outside word of "
                                         "length 2$"):
        Diword((0, 1), 2)
    with pytest.raises(ValueError, match="^diword needs at least one "
                                         "letter$"):
        Diword((), 0)


def test_diword_cmp_length_then_center_then_letters():
    assert diword_key(Diword((0,), 0)) < diword_key(Diword((1, 1), 0))
    assert diword_key(Diword((1, 1), 0)) < diword_key(Diword((0, 0), 1))
    assert diword_key(Diword((0, 1), 1)) > diword_key(Diword((0, 0), 1))
    assert diword_key(Diword((0, 1), 1)) == diword_key(Diword((0, 1), 1))


def test_products_place_the_center():
    u = Diword((0,), 0)
    v = Diword((1, 0), 1)
    assert di_left(u, v) == Diword((0, 1, 0), 2)
    assert di_right(u, v) == Diword((0, 1, 0), 0)
    assert di_left(v, u) == Diword((1, 0, 0), 2)
    assert di_right(v, u) == Diword((1, 0, 0), 1)


def test_products_are_bilinear():
    u = Diword((0,), 0)
    p = DiPolynomial([(Diword((1,), 0), 2), (Diword((0,), 0), -1)])
    out = di_left(u, p)
    assert out == DiPolynomial([(Diword((0, 1), 1), 2),
                                (Diword((0, 0), 1), -1)])
    assert di_right(p, u).coeff(Diword((1, 0), 0)) == 2


def test_products_of_diwords_are_diwords_and_refuse_other_arguments():
    u, v = Diword((0,), 0), Diword((1, 0), 1)
    for product in (di_left, di_right):
        assert type(product(u, v)) is Diword
        with pytest.raises(TypeError, match=r"^expected Diword or "
                                            r"DiPolynomial, got 3$"):
            product(u, 3)
        with pytest.raises(TypeError, match=r"^expected Diword or "
                                            r"DiPolynomial, got \(0,\)$"):
            product((0,), v)


def test_five_laws_on_a_sample():
    u = Diword((0, 1), 1)
    v = Diword((1,), 0)
    w = Diword((0, 0), 1)
    assert di_right(di_right(u, v), w) == di_right(u, di_right(v, w))
    assert di_right(di_right(u, v), w) == di_right(u, di_left(v, w))
    assert di_right(di_left(u, v), w) == di_left(u, di_right(v, w))
    assert di_left(di_right(u, v), w) == di_left(di_left(u, v), w)
    assert di_left(u, di_left(v, w)) == di_left(di_left(u, v), w)


def test_all_diwords_count():
    assert len(list(all_diwords(2, 3))) == 24
    assert len(list(all_diwords(3, 2))) == 18


def test_leibniz_check():
    assert leibniz_check(leibniz_dim2())
    assert leibniz_check(LeibnizAlgebra(dim=1, bracket={}))
    assert not leibniz_check(LeibnizAlgebra(dim=1, bracket={(0, 0, 0): 1}))


def test_leibniz_algebra_refuses_an_index_outside_its_basis():
    with pytest.raises(ValueError, match=r"^index 2 outside basis 0\.\.1$"):
        LeibnizAlgebra(dim=2, bracket={(0, 2, 1): 1})
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        LeibnizAlgebra(dim=0, bracket={})


def test_leibniz_i0():
    assert leibniz_i0(leibniz_dim2()) == frozenset({0})
    assert leibniz_i0(LeibnizAlgebra(dim=1, bracket={})) == frozenset()
    skew = LeibnizAlgebra(dim=2, bracket={(0, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(ValueError):
        leibniz_i0(skew)
    assert leibniz_check(ADAPTED)
    assert leibniz_i0(ADAPTED) == frozenset({1, 2})


def test_enveloping_rejects_non_leibniz():
    with pytest.raises(ValueError):
        leibniz_enveloping(LeibnizAlgebra(dim=1, bracket={(0, 0, 0): 1}))


def test_enveloping_relation_count():
    S = leibniz_enveloping(leibniz_dim2())
    assert len(S) == 12


@pytest.mark.parametrize("L", ALGEBRAS)
def test_enveloping_matches_the_hand_written_relations(L):
    def terms(rels):
        # every term in its order, with the type of its coefficient
        return [[(m, c, type(c)) for m, c in p.items()] for p in rels]

    assert terms(leibniz_enveloping(L)) == terms(reference_enveloping(L))


@pytest.mark.parametrize("L", ALGEBRAS)
def test_pbw_basis_ascends_with_one_word_per_nondecreasing_tail(L):
    p = L.dim - len(leibniz_i0(L))
    for max_len in range(7):
        keys = [diword_key(u) for u in pbw_basis(L, max_len)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == L.dim * sum(comb(p + k - 1, k)
                                        for k in range(max_len))


def test_reduce_rewrites_a_square():
    L = leibniz_dim2()
    S = leibniz_enveloping(L)
    # {e1, e1} = e0: the relation turns x2 -| @x2 into @x2 |- x2 - @x1
    p = DiPolynomial.monomial(Diword((1, 1), 1))
    nf = Dialgebra(S, 2).normal_form(p)
    assert nf == DiPolynomial([(Diword((1, 1), 0), 1),
                               (Diword((0,), 0), -1)])
    assert Dialgebra(S, 2).normal_form(nf) == nf


def test_reduce_is_linear_over_scalars():
    S = leibniz_enveloping(leibniz_dim2())
    p = DiPolynomial.monomial(Diword((1, 1), 1), Fraction(3, 2))
    nf = Dialgebra(S, 2).normal_form(p)
    assert nf.coeff(Diword((1, 1), 0)) == Fraction(3, 2)


def test_irr_matches_pbw():
    L = leibniz_dim2()
    S = leibniz_enveloping(L)
    for d in (1, 2, 3):
        assert di_irr(S, 2, d) == pbw_basis(L, d)
    assert len(pbw_basis(L, 3)) == 6


def test_irr_matches_pbw_when_the_squares_are_no_basis_vectors():
    S = leibniz_enveloping(ADAPTED)
    for d in (1, 2, 3, 4):
        assert di_irr(S, 4, d) == pbw_basis(ADAPTED, d)


def test_listing_irreducible_diwords_builds_no_monomial_table(monkeypatch):
    # The 20 irreducible diwords of length <= 10 come from their rule;
    # the table of that bound holds 18,434 diwords.
    built = []
    table = Structure.table

    def counted(self, max_deg):
        built.append(max_deg)
        return table(self, max_deg)

    monkeypatch.setattr(Structure, "table", counted)
    L = leibniz_dim2()
    structure = Dialgebra(leibniz_enveloping(L), 2)
    assert structure.irreducible(10) == pbw_basis(L, 10)
    assert di_irr(leibniz_enveloping(L), 2, 10) == pbw_basis(L, 10)
    assert built == []


def test_a_relation_outside_the_alphabet_is_refused():
    S = [DiPolynomial({Diword((0, 2), 1): 1})]
    with pytest.raises(ValueError, match="letter 2 outside alphabet"):
        Dialgebra(S, 2)
    with pytest.raises(TypeError):
        Dialgebra(leibniz_enveloping(leibniz_dim2()))


def test_bounded_check_table():
    S = leibniz_enveloping(leibniz_dim2())
    rep = di_gsb_check_bounded(S, 2, 3)
    assert rep.holds
    assert [(l.length, l.irreducible, l.rank, l.total) for l in rep.table] \
        == [(1, 2, 0, 2), (2, 4, 6, 10), (3, 6, 28, 34)]


def test_bounded_check_rejects_small_bound():
    S = leibniz_enveloping(leibniz_dim2())
    with pytest.raises(ValueError):
        di_gsb_check_bounded(S, 2, 1)


def test_bounded_check_on_one_generator():
    # one abelian generator: the single relation x -| @x - @x |- x has a
    # vanishing center-forgotten image, exercising the flat-image handling
    L = LeibnizAlgebra(dim=1, bracket={})
    S = leibniz_enveloping(L)
    assert len(S) == 1
    rep = di_gsb_check_bounded(S, 1, 3)
    assert rep.holds
    assert [(l.length, l.irreducible, l.rank, l.total) for l in rep.table] \
        == [(1, 1, 0, 1), (2, 2, 1, 3), (3, 3, 3, 6)]


def test_bounded_check_flags_an_incomplete_set():
    L = leibniz_dim2()
    S = leibniz_enveloping(L)
    rep = di_gsb_check_bounded(S[:4], 2, 3)
    assert not rep.holds


def test_is_gsb_refuses_a_dialgebra_and_names_the_bounded_check():
    # Dialgebra compositions are not examined, so there is no exact check
    # to run.
    structure = Dialgebra(leibniz_enveloping(leibniz_dim2()), 2)
    with pytest.raises(NotImplementedError, match="bounded_check"):
        structure.is_gsb()
    assert structure.bounded_check(4).holds
