import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shirshov import cli
from shirshov.core import Alphabet, DegLexOrder, Polynomial
from shirshov.freemodule import (FreeModule, ModuleElement, ModuleWord, act,
                                 module_cd_check, module_irr, mword_key,
                                 random_module_set)
from shirshov.rewrite import RewriteSystem, irr_words

from references import pair_normal_form


def mono(u, y, c=1):
    return ModuleElement.monomial(ModuleWord(tuple(u), y), c)


def simple_set():
    # x1 x1 [v] - x2 [v], x1 [w] over two letters and two module generators
    f = mono((0, 0), 0) - mono((1,), 0)
    g = mono((0,), 1)
    return [f, g]


def test_mword_cmp_length_then_word_then_generator():
    assert mword_key(ModuleWord((0,), 0)) < mword_key(ModuleWord((1, 1), 0))
    assert mword_key(ModuleWord((1, 0), 0)) > mword_key(ModuleWord((0, 1), 1))
    assert mword_key(ModuleWord((0, 1), 0)) < mword_key(ModuleWord((0, 1), 1))
    assert mword_key(ModuleWord((0, 1), 1)) == mword_key(ModuleWord((0, 1), 1))


def test_act_prepends_words():
    m = mono((1,), 0) + mono((), 1)
    out = act((0, 1), m)
    assert out == ModuleElement([(ModuleWord((0, 1, 1), 0), 1),
                                 (ModuleWord((0, 1), 1), 1)])
    p = Polynomial([((0,), 2), ((1,), -1)])
    out = act(p, mono((), 0))
    assert out.coeff(ModuleWord((0,), 0)) == 2
    assert out.coeff(ModuleWord((1,), 0)) == -1


def test_compositions_need_suffix_and_same_generator():
    # by i, then j, then suffix; a self-pair's root gives exactly 0
    f, g = simple_set()
    lf, lg = ModuleWord((0, 0), 0), ModuleWord((0,), 1)
    assert list(FreeModule((f,), 2, 1).compositions()) == [(lf, 0)]
    assert list(FreeModule((f, g), 2, 2).compositions()) \
        == [(lf, 0), (lg, 0)]
    h = mono((0,), 0)
    assert list(FreeModule((f, h), 2, 1).compositions()) \
        == [(lf, 0), (lf, -mono((1,), 0)), (ModuleWord((0,), 0), 0)]
    assert list(FreeModule((f, f), 2, 1).compositions()) == [(lf, 0)] * 4


def test_is_gsb():
    rep = FreeModule(simple_set(), 2, 2).is_gsb()
    assert rep.holds
    assert rep.checked == 2
    f, _ = simple_set()
    broken = [f, mono((0,), 0)]
    rep = FreeModule(broken, 2, 1).is_gsb()
    assert not rep.holds
    assert rep.failing


def test_normal_form():
    S = FreeModule(simple_set(), 2, 2)
    m = mono((1, 0, 0), 0, Fraction(2)) + mono((1, 0), 1, 3)
    nf = S.normal_form(m)
    assert nf == mono((1, 1), 0, 2)
    assert S.normal_form(nf) == nf
    assert not S.normal_form(mono((1, 0), 1))


def test_reducible_uses_suffixes():
    S = FreeModule(simple_set(), 2, 2)
    assert S.find(ModuleWord((1, 0, 0), 0)) is not None
    assert S.find(ModuleWord((0, 0, 1), 0)) is None
    assert S.find(ModuleWord((1, 0), 1)) is not None
    assert S.find(ModuleWord((1,), 1)) is None


def test_irr_counts():
    S = simple_set()
    words = module_irr(S, 2, 2, 3)
    counts = {}
    for w in words:
        counts[len(w.u)] = counts.get(len(w.u), 0) + 1
    assert [counts.get(d, 0) for d in range(4)] == [2, 3, 5, 10]
    assert all(FreeModule(S, 2, 2).find(w) is None for w in words)


def test_listing_irreducible_module_words_builds_no_monomial_table(
        monkeypatch, tmp_path, capsys):
    # Codes are read back by their closed form.  Three letters, three
    # module generators and the bound 6 are used by no other test, so no
    # table held from an earlier test can stand in for one built here.
    calls = []
    monomials = FreeModule.monomials

    def counted(self, d):
        calls.append(d)
        return monomials(self, d)

    monkeypatch.setattr(FreeModule, "monomials", counted)
    S = [mono((1,), 1) - mono((0,), 0), mono((2, 2), 2)]
    words = FreeModule(S, 3, 3).irreducible(6)
    assert words == module_irr(S, 3, 3, 6)
    assert all(FreeModule(S, 3, 3).find(w) is None for w in words)
    path = tmp_path / "module.txt"
    path.write_text("kind module\ngens x y z\nmgens u v w\n"
                    "rel y*[v] - x*[u]\nrel z*z*[w]\n", encoding="utf-8")
    assert cli.main(["irr", str(path), "--max-len", "6"]) == 0
    counts = [sum(len(w.u) == d for w in words) for d in range(7)]
    assert capsys.readouterr().out.splitlines()[-1] \
        == " ".join(map(str, counts))
    assert calls == []


def test_cd_check_table():
    rep = module_cd_check(simple_set(), 2, 2, 4)
    assert rep.gsb_ok and rep.leading_ok and rep.counts_ok
    assert rep.agree
    assert [(l.length, l.irreducible, l.rank, l.total) for l in rep.table] \
        == [(0, 2, 0, 2), (1, 5, 1, 6), (2, 10, 4, 14), (3, 20, 10, 30),
            (4, 40, 22, 62)]


def test_cd_check_catches_a_gap():
    f = mono((0, 0), 0) - mono((1,), 0)
    g = mono((0,), 0)
    rep = module_cd_check([f, g], 2, 1, 3)
    assert not rep.gsb_ok
    assert not rep.agree or not rep.counts_ok


def test_cd_check_rejects_small_bound():
    with pytest.raises(ValueError):
        module_cd_check(simple_set(), 2, 2, 1)


def test_a_relation_outside_the_sizes_is_refused():
    for S in ([ModuleElement({ModuleWord((3,), 0): 1})],
              [ModuleElement({ModuleWord((0,), 5): 1})]):
        with pytest.raises(ValueError, match="outside alphabet of size"):
            FreeModule(S, 2, 1)
    with pytest.raises(TypeError):
        FreeModule(simple_set())


def test_pair_normal_form():
    ab = Alphabet(("x1", "x2"))
    algebra = RewriteSystem(
        (Polynomial([((1, 1), 1), ((0, 1), -1)]),), DegLexOrder(ab))
    S = [mono((0,), 0)]
    assert not pair_normal_form(mono((1, 1, 0), 0), algebra, S)
    out = pair_normal_form(mono((1, 1), 0), algebra, S)
    assert out == mono((0, 1), 0)
    with pytest.raises(TypeError, match="^algebra side must be a "
                                        "RewriteSystem$"):
        pair_normal_form(out, "x", [])


def test_random_set_over_a_single_module_word_returns():
    # one letter, one generator, u-length 0: [v] is the only module word
    S = random_module_set(1, 1, 0, random.Random(0), max_elems=5)
    assert S
    assert all(elem == mono((), 0) for elem in S)


def test_random_sets_are_deterministic():
    a = random_module_set(2, 2, 3, random.Random(11))
    b = random_module_set(2, 2, 3, random.Random(11))
    assert a == b
    for elem in a:
        assert elem.leading_coeff() == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 3),
       st.integers(0, 5), st.randoms(use_true_random=False))
def test_irreducible_words_are_those_find_leaves(nx, ny, max_udeg, bound,
                                                 rng):
    # grown a degree at a time, against find on every module word
    S = FreeModule(random_module_set(nx, ny, max_udeg, rng, 4), nx, ny)
    assert S.irreducible(bound) == [
        mw for d in range(bound + 1) for mw in S.monomials(d)
        if S.find(mw) is None]


def embedded(S, nx, ny):
    """The associative system of S over X ⊔ Y, the letters of Y ranked
    after those of X: each module word u.y becomes the word u + (nx + y,),
    and the monomial relations y*a, for every y in Y and every letter a,
    kill the words in which a letter follows a generator."""
    n = nx + ny
    alphabet = Alphabet(tuple("x%d" % i for i in range(nx))
                        + tuple("y%d" % i for i in range(ny)))
    rels = [embed(s, nx) for s in S]
    rels += [Polynomial.monomial((nx + y, a)) for y in range(ny)
             for a in range(n)]
    return RewriteSystem(tuple(rels), DegLexOrder(alphabet))


def embed(m, nx):
    return Polynomial({mw.u + (nx + mw.y,): c for mw, c in m.items()})


def random_module_element(nx, ny, rng):
    """One to four module words with |u| <= 4, with coefficients in
    -3..3 over 1 or 2; a zero coefficient drops its word."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        u = tuple(rng.randrange(nx) for _ in range(rng.randint(0, 4)))
        terms[ModuleWord(u, rng.randrange(ny))] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 2))
    return ModuleElement(terms)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2),
       st.randoms(use_true_random=False))
def test_a_module_is_its_embedding_in_the_associative_engine(nx, ny, rng):
    # The words X*.Y of the embedded ideal span the submodule S
    # generates, and mword_key orders them as deg-lex orders their
    # embeddings, so normal forms, irreducible words and verdicts agree.
    S = random_module_set(nx, ny, 3, rng)
    module, R = FreeModule(S, nx, ny), embedded(S, nx, ny)
    for _ in range(10):
        m = random_module_element(nx, ny, rng)
        assert R.normal_form(embed(m, nx)) == embed(module.normal_form(m), nx)
    assert [ModuleWord(w[:-1], w[-1] - nx) for w in irr_words(R, 5)
            if w and w[-1] >= nx and all(a < nx for a in w[:-1])] \
        == module.irreducible(4)
    assert R.is_gsb().holds == module.is_gsb().holds
