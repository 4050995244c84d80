import copy
import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shirshov import gsb, rewrite
from shirshov.anticomm import AntiCommutative, hall_gsb
from shirshov.catalog import chinese_gsb, chinese_relations
from shirshov.core import (Alphabet, DegLexOrder, Polynomial, Structure,
                           deglex_key)
from shirshov.dialgebra import (Dialgebra, LeibnizAlgebra, leibniz_enveloping,
                                pbw_basis)
from shirshov.freemodule import FreeModule, random_module_set
from shirshov.gsb import (BudgetExceeded, _inter_reduce_elements,
                          _OverlapIndex, all_compositions, cd_lemma_check,
                          find_compositions, inter_reduce, is_gsb,
                          shirshov_complete)
from shirshov.rewrite import RewriteSystem, _overlaps, normal_form

from references import _inter_reduce_elements as reference_inter_reduce
from references import slicing_find

AB = Alphabet(("y", "x"))
ORDER = DegLexOrder(AB)
X, Y = AB.rank("x"), AB.rank("y")


def branching_system():
    f = Polynomial([((X, X), 1), ((Y, X), -1)])
    return RewriteSystem((f,), ORDER)


def test_intersection_composition_of_xx_with_itself():
    f = Polynomial([((X, X), 1), ((Y, X), -1)])
    comps = find_compositions(f, f)
    assert len(comps) == 1
    c = comps[0]
    assert c.kind == "intersection"
    assert c.w == (X, X, X)
    assert c.a == (X,) and c.b == (X,)
    # f*x - x*f = xyx - yxx
    assert c.result == Polynomial([((X, Y, X), 1), ((Y, X, X), -1)])


def test_inclusion_composition():
    f = Polynomial([((X, Y, X), 1), ((Y, Y), -1)])
    g = Polynomial.monomial((Y,))
    comps = find_compositions(f, g)
    assert len(comps) == 1
    c = comps[0]
    assert c.kind == "inclusion"
    assert c.w == (X, Y, X)
    assert c.a == (X,) and c.b == (X,)
    assert c.result == Polynomial([((Y, Y), -1)])
    # no identity self-inclusion
    assert find_compositions(g, g) == []


class ReverseLexOrder(DegLexOrder):
    """Length first, then reverse lexicographic: disagrees with the
    leading terms that Polynomial picks."""

    def key(self, w):
        return (len(w), tuple(-c for c in w))


def test_systems_refuse_an_order_that_disagrees_with_leads():
    # Polynomial leads xx - yx with xx, which reverse-lex puts below yx;
    # the refusal covers find, normal_form, irr_words and compositions
    f = Polynomial([((X, X), 1), ((Y, X), -1)])
    RewriteSystem((f,), ORDER)
    with pytest.raises(ValueError, match="order disagrees"):
        RewriteSystem((f,), ReverseLexOrder(AB))


def test_no_composition_without_overlap():
    f = Polynomial.monomial((X, X))
    g = Polynomial.monomial((Y, Y))
    assert find_compositions(f, g) == []


def test_is_trivial():
    g = Polynomial.monomial((Y,))
    f = Polynomial([((X, Y, X), 1), ((Y, Y), -1)])
    S = RewriteSystem((f, g), ORDER)
    c = find_compositions(f, g)[0]
    assert not S.normal_form(c.result)
    lone = RewriteSystem((f,), ORDER)
    assert lone.normal_form(c.result)


def test_is_gsb_detects_the_open_overlap():
    rep = is_gsb(branching_system())
    assert not rep.holds
    assert rep.checked == 1
    assert len(rep.failing) == 1
    assert rep.failing[0][0] == (X, X, X)


def test_is_gsb_on_closed_systems():
    assert is_gsb(chinese_gsb(2)).holds
    assert is_gsb(chinese_gsb(3)).holds


def test_inter_reduce_drops_consequences():
    f = Polynomial([((X, X), 1), ((Y, X), -1)])
    fy = Polynomial([((X, X, Y), 1), ((Y, X, Y), -1)])
    S = RewriteSystem((f, fy), ORDER)
    R = inter_reduce(S)
    assert len(R) == 1
    assert R.elements[0] == f


def test_inter_reduce_normalizes_tails():
    g = Polynomial.monomial((X, X))
    h = Polynomial([((Y, Y), 1), ((X, X), 1)])
    R = inter_reduce(RewriteSystem((g, h), ORDER))
    assert len(R) == 2
    assert Polynomial.monomial((Y, Y)) in R.elements
    assert g in R.elements


def test_completion_already_closed_input():
    P = chinese_relations(2)
    S = RewriteSystem(tuple(P.relations), DegLexOrder(P.alphabet))
    rep = shirshov_complete(S, max_deg=6, max_elems=10)
    assert rep.status == "completed"
    assert rep.added == 0
    assert is_gsb(rep.basis).holds


def test_completion_reaches_the_chinese_basis():
    P = chinese_relations(3)
    S = RewriteSystem(tuple(P.relations), DegLexOrder(P.alphabet))
    rep = shirshov_complete(S, max_deg=6, max_elems=40)
    assert rep.status == "completed"
    assert list(rep.basis.elements) == list(chinese_gsb(3).elements)


def test_completion_degree_capped():
    rep = shirshov_complete(branching_system(), max_deg=6, max_elems=50)
    assert rep.status == "degree-capped"
    assert rep.added == 4
    expected = []
    for k in range(5):
        lead = (X,) + (Y,) * k + (X,)
        tail = (Y,) * (k + 1) + (X,)
        expected.append(Polynomial([(lead, 1), (tail, -1)]))
    assert list(rep.basis.elements) == expected
    comps = [c for c in all_compositions(rep.basis) if len(c.w) <= 6]
    assert comps and all(not rep.basis.normal_form(c.result)
                         for c in comps)


def test_completion_element_capped():
    rep = shirshov_complete(branching_system(), max_deg=6, max_elems=2)
    assert rep.status == "element-capped"
    assert rep.added == 2
    assert len(rep.basis) == 3


def test_completion_budget():
    with pytest.raises(BudgetExceeded):
        shirshov_complete(branching_system(), max_deg=40, max_elems=10 ** 6,
                          budget_seconds=1e-9)
    with pytest.raises(ValueError):
        shirshov_complete(branching_system(), max_deg=0, max_elems=5)


def test_completion_budget_is_checked_before_each_composition(monkeypatch):
    # A closed input finishes in one round, which reduces every composition.
    # The clock reads 0 for the deadline, 1 at the start of the round and 2
    # before the first composition, so only the check inside the round trips.
    assert is_gsb(chinese_gsb(2)).checked > 0
    ticks = itertools.count()
    monkeypatch.setattr(gsb, "time", SimpleNamespace(
        monotonic=lambda: next(ticks)))
    with pytest.raises(BudgetExceeded):
        shirshov_complete(chinese_gsb(2), max_deg=6, max_elems=10,
                          budget_seconds=1.5)
    assert next(ticks) == 3


def test_cd_check_on_a_closed_system():
    rep = cd_lemma_check(chinese_gsb(2), 4)
    assert rep.gsb_ok and rep.leading_ok and rep.counts_ok
    assert rep.agree
    assert [(l.degree, l.irreducible, l.rank, l.total) for l in rep.table] \
        == [(0, 1, 0, 1), (1, 3, 0, 3), (2, 7, 0, 7), (3, 13, 2, 15),
            (4, 22, 9, 31)]


def test_cd_check_flags_a_broken_system():
    rep = cd_lemma_check(branching_system(), 3)
    assert not rep.gsb_ok
    assert not rep.counts_ok


def test_cd_check_reads_condition_ii_off_every_pivot():
    # The golden assoc_open.pres at 5: every condition fails, and 11
    # pivots of the bounded span have irreducible leading words, such as
    # x*y*x, the leading word of the open intersection x*f - f*x.
    rep = cd_lemma_check(branching_system(), 5)
    assert not rep.leading_ok
    assert len(rep.bad_leadings) == 11
    assert (X, Y, X) in rep.bad_leadings
    assert rep.agree


def test_cd_check_refuses_a_bound_below_a_leading_word():
    ab = Alphabet(("x1", "x2"))
    f = Polynomial([((1,) * 5, 1), ((0,), -1)])
    S = RewriteSystem((f,), DegLexOrder(ab))
    with pytest.raises(ValueError):
        cd_lemma_check(S, 3)
    with pytest.raises(ValueError):
        cd_lemma_check(S, 4)


# -- differential test against the round-by-round completion ---------------


def reference_complete(system, max_deg, max_elems):
    """Completion that recomputes and re-reduces every composition of the
    current basis in every round and inter-reduces every element against
    every other; (status, basis, added, iterations)."""
    order = system.order
    elems = reference_inter_reduce(system.elements, order)
    added = 0
    iterations = 0
    while True:
        iterations += 1
        basis = RewriteSystem(tuple(elems), order)
        obstruction = None
        for comp in all_compositions(basis):
            h = normal_form(comp.result, basis)
            if h:
                obstruction = (comp, h)
                break
        if obstruction is None:
            return "completed", basis, added, iterations
        comp, h = obstruction
        if len(comp.w) > max_deg:
            return "degree-capped", basis, added, iterations
        if added >= max_elems:
            return "element-capped", basis, added, iterations
        elems = reference_inter_reduce(elems + [h.monic()], order)
        added += 1


def assert_matches_reference(system, max_deg, max_elems):
    """Both loops end with the same report; neither raises, also when a
    composition reduces to a nonzero constant."""
    rep = shirshov_complete(system, max_deg=max_deg, max_elems=max_elems)
    got = rep.status, rep.basis.elements, rep.added, rep.iterations
    status, basis, added, iterations = reference_complete(system, max_deg,
                                                          max_elems)
    assert got == (status, basis.elements, added, iterations)
    return got


def random_system(rng):
    n = rng.randint(2, 3)
    alphabet = Alphabet(tuple("x%d" % i for i in range(1, n + 1)))
    elems = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 4)))
            terms[word] = rng.choice([-2, -1, 1, 2, 3])
        p = Polynomial(terms)
        if p and p.leading_monomial():
            elems.append(p.monic())
    if not elems:
        elems.append(Polynomial.monomial((0, 0)))
    return RewriteSystem(tuple(elems), DegLexOrder(alphabet))


def test_completion_matches_reference_on_random_presentations():
    rng = random.Random(20080408)
    statuses = set()
    trivial = 0
    for _ in range(200):
        status, basis, _, _ = assert_matches_reference(random_system(rng), 6,
                                                       15)
        statuses.add(status)
        trivial += basis == (Polynomial.one(),)
    assert {"completed", "degree-capped", "element-capped"} <= statuses
    assert trivial > 0  # some presentations put a constant in the ideal


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_completed_basis_is_closed(rng):
    rep = shirshov_complete(random_system(rng), max_deg=6, max_elems=15)
    if rep.status == "completed":
        assert is_gsb(rep.basis).holds
        bound = max(map(len, rep.basis.leading_words)) + 1
        report = cd_lemma_check(rep.basis, bound)
        assert report.holds and report.agree


@st.composite
def closed_module_sets(draw):
    """A random module set that is a Gröbner–Shirshov basis, and the
    longest leading degree + 2."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    S = random_module_set(nx, ny, draw(st.integers(1, 3)),
                          draw(st.randoms(use_true_random=False)))
    structure = FreeModule(S, nx, ny)
    assume(structure.is_gsb().holds)
    return structure, max(len(lw.u) for lw in structure.leading_words) + 2, \
        None


@st.composite
def nilpotent_leibniz_envelopes(draw):
    """The enveloping dialgebra of a 2-step nilpotent Leibniz algebra,
    {e_i, e_j} = c_ij e_0 for i, j >= 1 and e_0 central, so that the
    Leibniz identity holds trivially; a bound of 4 or 5, and the PBW
    basis up to it."""
    dim = draw(st.integers(2, 3))
    coeffs = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2)])
    L = LeibnizAlgebra(dim, {(i, j, 0): draw(coeffs)
                             for i in range(1, dim) for j in range(1, dim)})
    bound = draw(st.integers(4, 5))
    return Dialgebra(leibniz_enveloping(L), dim), bound, pbw_basis(L, bound)


HALL_CASES = [(AntiCommutative(hall_gsb(n, bound), n), bound, None)
              for n in range(1, 4) for bound in range(1, 6)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(closed_module_sets(), st.sampled_from(HALL_CASES),
                 nilpotent_leibniz_envelopes()))
def test_the_three_conditions_agree_on_closed_inputs_of_every_kind(case):
    structure, bound, basis = case
    report = structure.bounded_check(bound)
    assert report.holds and report.agree
    if basis is not None:
        assert structure.irreducible(bound) == basis


def knuth_system(names):
    # over x1..xk, ranked as names lists them: z x y = x z y for
    # x <= y < z, y z x = y x z for x < y <= z
    alphabet = Alphabet(names)
    k = len(names)
    r = {v: alphabet.rank("x%d" % v) for v in range(1, k + 1)}
    elems = []
    for x in range(1, k + 1):
        for y in range(x, k + 1):
            for z in range(y + 1, k + 1):
                elems.append(((z, x, y), (x, z, y)))
        for y in range(x + 1, k + 1):
            for z in range(y, k + 1):
                elems.append(((y, z, x), (y, x, z)))
    return RewriteSystem(
        tuple(Polynomial({tuple(r[v] for v in u): 1,
                          tuple(r[v] for v in w): -1}).monic()
              for u, w in elems),
        DegLexOrder(alphabet))


@pytest.mark.parametrize("names", [("x3", "x2", "x1"), ("x1", "x2", "x3")])
def test_completion_matches_reference_on_plactic_rank_three(names):
    status, _, added, _ = assert_matches_reference(knuth_system(names), 7,
                                                   1000)
    assert status in ("completed", "degree-capped") and added > 0


COEFFS = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def fractional_systems(draw):
    """1-3 monic relations over 2-4 letters, words of length <= 5 and
    fractional coefficients; no relation is a constant."""
    n = draw(st.integers(2, 4))
    words = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    polys = draw(st.lists(
        st.dictionaries(words, COEFFS, min_size=2, max_size=3).map(Polynomial)
        .filter(lambda p: p.leading_monomial()), min_size=1, max_size=3))
    alphabet = Alphabet(tuple("x%d" % i for i in range(1, n + 1)))
    return RewriteSystem(tuple(p.monic() for p in polys),
                         DegLexOrder(alphabet))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fractional_systems(), st.integers(4, 7), st.integers(0, 15))
def test_completion_matches_reference_on_fractional_presentations(
        system, max_deg, max_elems):
    assert_matches_reference(system, max_deg, max_elems)


def assert_skips_vanish(system, max_deg, max_elems):
    """Complete the system, recording each entry that the chain criterion
    skips with the basis of its round; its composition must have normal
    form 0 modulo that basis.  Returns how many were skipped."""
    skipped = []
    probe = gsb._chain_trivial

    def recorded(basis, w):
        if probe(basis, w):
            skipped.append((basis, w))
            return True
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsb, "_chain_trivial", recorded)
        shirshov_complete(system, max_deg=max_deg, max_elems=max_elems)
    for basis, w in skipped:
        index = basis.lead_index
        # the one leading word that is a proper prefix of w, and the one
        # that is a proper suffix
        (lf,) = [w[:k] for k in range(1, len(w)) if w[:k] in index]
        (lg,) = [w[k:] for k in range(1, len(w)) if w[k:] in index]
        f, g = basis.elements[index[lf]], basis.elements[index[lg]]
        a, b = w[:len(w) - len(lg)], w[len(lf):]
        assert not basis.normal_form(basis.multiply(((), b), f)
                                     - basis.multiply((a, ()), g))
    return len(skipped)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.randoms(use_true_random=False).map(random_system),
                 fractional_systems()),
       st.integers(4, 7), st.integers(0, 15))
def test_every_composition_the_chain_criterion_skips_vanishes(
        system, max_deg, max_elems):
    assert_skips_vanish(system, max_deg, max_elems)


def test_the_chain_criterion_skips_on_random_presentations():
    # the property above is not vacuous on these presentations
    rng = random.Random(20080408)
    skipped = sum(assert_skips_vanish(random_system(rng), 7, 15)
                  for _ in range(200))
    assert skipped > 0


@pytest.mark.parametrize("names, max_deg, skipped", [
    (("x3", "x2", "x1"), 8, 177),
    (("x1", "x2", "x3"), 8, 2),
    (("x4", "x3", "x2", "x1"), 6, 131),
])
def test_every_plactic_composition_the_chain_criterion_skips_vanishes(
        names, max_deg, skipped):
    assert assert_skips_vanish(knuth_system(names), max_deg, 1000) \
        == skipped


@st.composite
def monic_pairs(draw):
    """Monic f and g over 1-3 letters with words of length <= 5; in about
    half the draws g is f itself."""
    n = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    poly = st.dictionaries(words, COEFFS, min_size=1, max_size=3).map(
        lambda terms: Polynomial(terms).monic())
    f = draw(poly)
    return f, f if draw(st.booleans()) else draw(poly)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(monic_pairs())
def test_compositions_come_in_ascending_ambient_word_order(pair):
    # find_compositions does not sort: _overlaps lists the inclusions,
    # then the intersections longest overlap first
    f, g = pair
    comps = find_compositions(f, g)
    assert comps == sorted(comps, key=lambda c: (deglex_key(c.w), c.kind,
                                                 len(c.a), c.a))
    if f == g:
        assert all(c.a or c.b for c in comps if c.kind == "inclusion")


@st.composite
def inter_reduce_inputs(draw):
    """A fractional system as `fractional_systems` draws it, in any order
    with up to two more relations: one over the leading word of a drawn
    relation with a shorter tail, and the constant 1; and a nonzero
    polynomial h over the same letters."""
    system = draw(fractional_systems())
    n = len(system.order.alphabet)
    words = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    elems = list(system.elements)
    if draw(st.booleans()):
        lw = draw(st.sampled_from(system.leading_words))
        tail = draw(st.lists(st.integers(0, n - 1), max_size=len(lw) - 1))
        elems.append(Polynomial({lw: 1, tuple(tail): draw(COEFFS)}))
    if draw(st.booleans()):
        elems.append(Polynomial.one())
    h = draw(st.dictionaries(words, COEFFS, min_size=1, max_size=3)
             .map(Polynomial))
    return (RewriteSystem(tuple(draw(st.permutations(elems))), system.order),
            h)


def order_sensitive_system():
    """Three relations over x1 < x2 whose inter-reduction depends on the
    order in which the reducible elements are rewritten: x1*x2*x2 + 1 and
    x2*x1*x2 + x1 both contain the leading word of x1*x2 - 2*x2 + 1, and
    rewriting the last element before the second gives another basis."""
    x1, x2 = 0, 1
    return RewriteSystem((
        Polynomial({(x1, x2): 1, (x2,): -2, (): 1}),
        Polynomial({(x1, x2, x2): 1, (): 1}),
        Polynomial({(x2, x1, x2): 1, (x1,): 1})),
        DegLexOrder(Alphabet(("x1", "x2"))))


def one_letter(terms):
    return RewriteSystem((Polynomial(terms),), DegLexOrder(Alphabet(("x1",))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(inter_reduce_inputs())
@example((order_sensitive_system(), Polynomial.monomial((1, 1, 1))))
# h = 3*x1^2 + x1 is irreducible at the start, but x1^4 reduces modulo h
# to -1/27*x1, whose leading word then makes h reducible: (x1,)
@example((one_letter({(0, 0, 0, 0): 1}), Polynomial({(0, 0): 3, (0,): 1})))
def test_inter_reduce_matches_the_reference(case):
    # Without h every element is a candidate; with h, a nonzero normal
    # form as completion passes it, only those that a new leading word
    # can make reducible, which must not change the result.  Each basis
    # keeps its index current, as a fresh system builds it, and entered is
    # what its leading words gained.  The two bases share one automaton,
    # which holds the leading words of both, and each finds in it what a
    # fresh system finds: the leading words of the other are dead to it.
    system, h = case
    order = system.order
    reduced = inter_reduce(system)
    assert reduced.elements \
        == tuple(reference_inter_reduce(system.elements, order))
    h = reduced.normal_form(h)
    if not h:
        return
    extended, entered = _inter_reduce_elements(reduced, h)
    assert extended.elements == tuple(
        reference_inter_reduce(reduced.elements + (h,), order))
    assert extended._automaton() is reduced._automaton()
    n = len(order.alphabet)
    words = [w for d in range(4) for w in itertools.product(range(n),
                                                            repeat=d)]
    words += [(x,) + lw + (y,) for lw in system.leading_words
              + extended.leading_words for x in range(n) for y in range(n)]
    for basis in (reduced, extended):
        fresh = RewriteSystem(basis.elements, order)
        assert basis.leading_words == fresh.leading_words
        assert basis.lead_index == fresh.lead_index
        assert basis.lead_degrees == fresh.lead_degrees
        assert [basis.find(w) for w in words] \
            == [fresh.find(w) for w in words]
    old, new = set(reduced.leading_words), set(extended.leading_words)
    assert set(entered) == new - old
    assert len(entered) == len(set(entered))


def test_completion_passes_inter_reduction_a_normal_form(monkeypatch):
    # _inter_reduce_elements does not test h for reducibility: every h
    # that completion hands it is a normal form modulo the basis.
    received = []
    inter_reduce_elements = gsb._inter_reduce_elements

    def checked(system, h=None):
        if h is not None:
            assert system.normal_form(h) is h
            received.append(h)
        return inter_reduce_elements(system, h)

    monkeypatch.setattr(gsb, "_inter_reduce_elements", checked)
    for names in (("x3", "x2", "x1"), ("x1", "x2", "x3")):
        shirshov_complete(knuth_system(names), max_deg=8, max_elems=1000)
    rng = random.Random(20080408)
    for _ in range(50):
        shirshov_complete(random_system(rng), max_deg=6, max_elems=15)
    assert received


def test_completion_drops_the_entries_of_a_leading_word_that_left(
        monkeypatch):
    # Three relations over x1, x2 whose second added element rewrites
    # four leading words out of the basis: their heap entries and their
    # words in the add-only overlap index are stale from then on.
    system = random_system(random.Random(3))
    lost = []
    inter_reduce_elements = gsb._inter_reduce_elements

    def observed(basis, h=None):
        out = inter_reduce_elements(basis, h)
        lost.append(set(basis.leading_words) - set(out[0].leading_words))
        return out

    monkeypatch.setattr(gsb, "_inter_reduce_elements", observed)
    status, _, added, iterations = assert_matches_reference(system, 6, 15)
    assert (status, added, iterations) == ("completed", 2, 3)
    assert any(lost)


def test_inter_reduce_tests_a_candidate_once_however_often_it_is_pushed(
        monkeypatch):
    # x2 - x1 waits on the heap from the start; rewriting x2 to x1 pushes
    # it again, and it must be tested once: two reductions, one per
    # candidate.
    x1, x2 = 0, 1
    system = RewriteSystem((Polynomial({(x2,): 1}),
                            Polynomial({(x2,): 1, (x1,): -1})),
                           DegLexOrder(Alphabet(("x1", "x2"))))
    tested = []
    normal_form = Structure.normal_form

    def counted(self, p):
        tested.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(Structure, "normal_form", counted)
    assert inter_reduce(system).elements == (Polynomial({(x1,): 1}),
                                             Polynomial({(x2,): 1}))
    assert tested == list(system.elements)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6)
                .map(tuple), min_size=1, max_size=8))
def test_overlap_index_finds_every_intersection(words):
    # The leading words of an inter-reduced set of monomials: no one is a
    # factor of another.
    leads = inter_reduce(RewriteSystem(
        tuple(map(Polynomial.monomial, words)),
        DegLexOrder(Alphabet(("x1", "x2", "x3"))))).leading_words
    index = _OverlapIndex()
    got = Counter()
    for lw in leads:
        got.update(index.add(lw))
    want = Counter()
    for lf in leads:
        for lg in leads:
            for kind, a, b in _overlaps(lf, lg):
                if kind == "intersection":
                    want[lf + b, lf, lg] += 1
                else:  # only the identity inclusion
                    assert (lf, a, b) == (lg, (), ())
    assert got == want
    # so the completion heap can key its entries by ambient word alone
    ambient = [w for w, _, _ in want.elements()]
    assert len(set(ambient)) == len(ambient)
    # A word that re-enters the basis is added again: that changes no
    # table and finds its intersections again, (lw, lw) once.
    tables = copy.deepcopy((index.prefixes, index.suffixes))
    for lw in leads:
        again = Counter(index.add(lw))
        assert (index.prefixes, index.suffixes) == tables
        assert again == Counter(
            entry for entry in want.elements() if lw in entry[1:])


def tableau_counts(k, max_len):
    """Semistandard tableaux with entries 1..k of each size 0..max_len, by
    the hook-content formula: the plactic monoid's elements by length."""
    def partitions(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    counts = []
    for n in range(max_len + 1):
        total = 0
        for shape in partitions(n, n):
            if len(shape) > k:
                continue
            num = den = 1
            for i, row in enumerate(shape):
                for j in range(row):
                    below = sum(1 for r in shape[i + 1:] if r > j)
                    num *= k + j - i
                    den *= row - j + below
            total += num // den
        counts.append(total)
    return counts


@pytest.mark.parametrize("names, expected", [
    (("x3", "x2", "x1"), ("degree-capped", 109, 110, 117)),
    (("x1", "x2", "x3"), ("completed", 3, 4, 11)),
])
def test_plactic_rank_three_to_degree_ten(names, expected):
    rep = shirshov_complete(knuth_system(names), max_deg=10, max_elems=1000)
    assert (rep.status, rep.added, rep.iterations, len(rep.basis)) \
        == expected
    counts = tableau_counts(3, 10)
    assert counts == [1, 3, 9, 19, 39, 69, 119, 189, 294, 434, 630]
    by_length = Counter(map(len, rep.basis.irreducible(10)))
    assert [by_length[n] for n in range(11)] == counts


def test_plactic_rank_four_to_degree_eight():
    rep = shirshov_complete(knuth_system(("x4", "x3", "x2", "x1")),
                            max_deg=8, max_elems=1000)
    assert (rep.status, rep.added, rep.iterations, len(rep.basis)) \
        == ("degree-capped", 311, 312, 331)
    counts = tableau_counts(4, 8)
    assert counts == [1, 4, 16, 44, 116, 260, 560, 1100, 2090]
    by_length = Counter(map(len, rep.basis.irreducible(8)))
    assert [by_length[n] for n in range(9)] == counts


def coxeter_system(edges, n):
    """The Coxeter group on s1..sn, ranked as listed, as an associative
    presentation: s*s - 1 for each generator and the braid relation
    s*t*s... - t*s*t... with m(s, t) letters a side, where edges gives
    m(s, t) > 2 by pairs of 0-based generators and every other pair
    commutes.  Not homogeneous: s*s - 1 falls in degree."""
    elems = [Polynomial({(i, i): 1, (): -1}) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = edges.get((i, j), 2)
            u = tuple((i, j)[k % 2] for k in range(m))
            v = tuple((j, i)[k % 2] for k in range(m))
            elems.append(Polynomial({u: 1, v: -1}).monic())
    return RewriteSystem(tuple(elems), DegLexOrder(
        Alphabet(tuple("s%d" % i for i in range(1, n + 1)))))


@pytest.mark.parametrize("edges, n, order, longest", [
    ({(0, 1): 3, (1, 2): 3}, 3, 24, 6),                 # A3
    ({(0, 1): 3, (1, 2): 4}, 3, 48, 9),                 # B3
    ({(0, 1): 3, (1, 2): 3, (1, 3): 3}, 4, 192, 12),    # D4
    ({(0, 1): 3, (1, 2): 4, (2, 3): 3}, 4, 1152, 24),   # F4
])
def test_coxeter_completions_count_the_group(edges, n, order, longest):
    # The normal words of a completed basis are one per group element,
    # the longest as long as the longest element.
    system = coxeter_system(edges, n)
    status, elements, _, _ = assert_matches_reference(system, 2 * longest,
                                                      100)
    assert status == "completed"
    words = RewriteSystem(elements, system.order).irreducible(longest + 1)
    assert len(words) == order
    assert max(map(len, words)) == longest


E6 = {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3}


@pytest.mark.parametrize("system, max_deg", [
    (knuth_system(("x3", "x2", "x1")), 10),
    (knuth_system(("x1", "x2", "x3")), 10),
    (knuth_system(("x4", "x3", "x2", "x1")), 8),
    (coxeter_system(E6, 6), 72),
], ids=["knuth3-descending", "knuth3-ascending", "knuth4", "e6"])
def test_completion_through_the_automaton_matches_the_slicing_find(
        monkeypatch, system, max_deg):
    rep = shirshov_complete(system, max_deg, 1000)
    monkeypatch.setattr(RewriteSystem, "find", slicing_find)
    ref = shirshov_complete(system, max_deg, 1000)
    assert (rep.status, rep.added, rep.iterations, rep.basis) \
        == (ref.status, ref.added, ref.iterations, ref.basis)


def test_a_completion_builds_one_automaton(monkeypatch):
    # The working copies of the bases share one automaton, which grows as
    # leading words enter; rebuilding it in every round is far slower.  A
    # system that has found something already lends its own.
    built = []

    class Counted(rewrite._Automaton):
        __slots__ = ()

        def __init__(self, n, words):
            built.append(n)
            super().__init__(n, words)

    monkeypatch.setattr(rewrite, "_Automaton", Counted)
    for system, max_deg in ((knuth_system(("x3", "x2", "x1")), 10),
                            (knuth_system(("x4", "x3", "x2", "x1")), 8),
                            (coxeter_system(E6, 6), 72)):
        del built[:]
        rep = shirshov_complete(system, max_deg, 1000)
        assert rep.added > 0 and len(built) == 1
        del built[:]
        system.find(())
        assert len(built) == 1
        shirshov_complete(system, max_deg, 1000)
        assert len(built) == 1


def test_systems_and_completion_reports_are_equal_by_value():
    first, second = (shirshov_complete(knuth_system(("x3", "x2", "x1")),
                                       max_deg=6, max_elems=1000)
                     for _ in range(2))
    assert first.basis is not second.basis
    assert first == second
    assert chinese_gsb(3) == chinese_gsb(3)
    assert chinese_gsb(3) != chinese_gsb(2)
    assert chinese_gsb(3) != 3
    with pytest.raises(TypeError):
        hash(chinese_gsb(3))


@pytest.mark.parametrize("letters, status, added, normal_forms", [
    (("x3", "x2", "x1"), "degree-capped", 62, 280),
    (("x1", "x2", "x3"), "completed", 3, 33),
], ids=["descending", "ascending"])
def test_completion_does_not_reduce_a_vanished_composition_again(
        monkeypatch, letters, status, added, normal_forms):
    # Re-reducing every composition of the basis in every round takes 9,737
    # normal forms for x3 x2 x1.  Reducing each only until it vanishes
    # takes 581, inter-reduction included; skipping the 177 chain-trivial
    # ones, 404; without the 62 probes of h, which is a normal form
    # already, 342; without re-reducing the 62 compositions that gave an
    # element, 280.
    calls = []
    normal_form = Structure.normal_form

    def counted(self, p):
        calls.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(Structure, "normal_form", counted)
    rep = shirshov_complete(knuth_system(letters), max_deg=8,
                            max_elems=1000)
    assert (rep.status, rep.added) == (status, added)
    assert len(calls) == normal_forms
