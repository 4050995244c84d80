"""The shared rewriting engine against the reducers it replaced.

The references below are the per-structure reduction loops as they were
before the dialgebra, module and anti-commutative reducers moved onto
`core.rewrite`: each kind kept its own loop and its own choice of
relation.  On seeded random elements modulo seeded random relation sets,
closed or not, the engine must give the same normal form down to the
last coefficient.  On relation sets in which a leading monomial
repeats, the `find` and `compositions` that `core.Structure` derives
from the `parts` and `keys` hooks are compared with plain per-relation
searches.  Property tests then check, for every kind, that a
normal form has no monomial the kind's `find` accepts, that reducing it
again changes nothing, that what rewriting removed lies in the bounded
ideal span, and that every coefficient the engine produces is an int
when integral and a Fraction otherwise and equals what plain Fraction
arithmetic gives, and that `core.rewrite` gives what the loop of single
rewrite passes it replaced gives, and what the reducer over Terms images
it replaced gives.  Last, the compositions and the
anti-commutative rows that `core.Structure` derives are checked
against the functions they replaced.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shirshov.anticomm import (AcPolynomial, AntiCommutative, ac_key,
                               hall_gsb, normal_words)
from shirshov.core import (Alphabet, DegLexOrder, Polynomial, add_scaled,
                           rewrite)
from shirshov.dialgebra import (DiPolynomial, Dialgebra, Diword,
                                all_diwords, diword_key,
                                leibniz_dim2, leibniz_enveloping)
from shirshov.freemodule import (FreeModule, ModuleElement, ModuleWord, act,
                                 mword_key, random_module_set)
from shirshov.rewrite import RewriteSystem, find_factor

from references import (_occurrence_paths, _occurrences, _prep, _substitute,
                        ac_chain_rows, ac_compositions, ac_find,
                        ac_occurrences, module_compositions,
                        pair_normal_form, rewrite_step, stored_rows,
                        structure_image, terms_image, terms_rewrite,
                        tuple_span)
from references import rewrite as step_loop

COEFFS = [-2, -1, 1, 2, 3]


# -- references: the reducers before the shared engine ------------------


def _context_image(entry, a, b, center_inside, ambient_center=None):
    """The product a * s * b as a DiPolynomial.

    With center_inside the center of each monomial of s survives, shifted
    by |a|.  Otherwise ambient_center names the center position counted
    in a (q < |a|) or counted from the right end (|a| + len + r form),
    passed as a callable on the monomial length."""
    items = []
    if center_inside:
        for t, c in entry.poly.items():
            items.append((Diword(a + t.letters + b, len(a) + t.center), c))
    else:
        for t, c in entry.poly.items():
            items.append((Diword(a + t.letters + b,
                                 ambient_center(len(t.letters))), c))
    return DiPolynomial(items)


def _step_image(m, entry, pos, center_inside):
    """Image of a * s * b for the occurrence of the entry at pos in m,
    scaled so the occurrence monomial has coefficient 1."""
    ls = entry.lead.letters
    a, b = m.letters[:pos], m.letters[pos + len(ls):]
    if center_inside:
        return _context_image(entry, a, b, True)
    if m.center < pos:
        q = m.center
        image = _context_image(entry, a, b, False, lambda n: q)
    else:
        r = m.center - pos - len(ls)
        image = _context_image(entry, a, b, False,
                               lambda n: len(a) + n + r)
    return image.scale(Fraction(1) / entry.flat.coeff(entry.lead.letters))


def reference_di_reduce(p, S):
    """Fixed point of rewriting p modulo the monic relations S.

    Deterministic strategy: the greatest reducible monomial, the first
    relation with a compatible occurrence, its leftmost occurrence.
    Every step replaces a monomial by strictly smaller ones, so the loop
    terminates; the result has no compatible occurrence left.
    """
    entries = _prep(S)
    while True:
        target = None
        for m in sorted(p.terms, key=diword_key, reverse=True):
            for entry in entries:
                occ = _occurrences(m, entry)
                if occ:
                    pos, inside = occ[0]
                    target = (m, entry, pos, inside)
                    break
            if target:
                break
        if target is None:
            return p
        m, entry, pos, inside = target
        image = _step_image(m, entry, pos, inside)
        p = p - image.scale(p.coeff(m))


def module_reduce_step(m, S):
    """One deterministic rewrite, or None when m is irreducible.

    Greatest reducible monomial first; the applicable leading word is
    chosen greatest, ties to the earliest element.
    """
    for mono in sorted(m.terms, key=mword_key, reverse=True):
        best = None
        for idx, s in enumerate(S):
            ls = s.leading_monomial()
            if ls.y != mono.y or len(ls.u) > len(mono.u):
                continue
            cut = len(mono.u) - len(ls.u)
            if mono.u[cut:] != ls.u:
                continue
            cand = (mword_key(ls), -idx)
            if best is None or cand > best[0]:
                best = (cand, idx, cut)
        if best is None:
            continue
        _, idx, cut = best
        s = S[idx]
        step = act(Polynomial.monomial(mono.u[:cut]), s)
        return m - step.scale(m.coeff(mono))
    return None


def reference_module_normal_form(m, S):
    """Fully reduced representative of m modulo S."""
    FreeModule(S, 2, 2)  # refuses S unless every element is nonzero and monic
    while True:
        nxt = module_reduce_step(m, S)
        if nxt is None:
            return m
        m = nxt


def ac_reduce_step(p, S):
    """One deterministic rewrite, or None: greatest reducible monomial,
    first element with an occurrence, its preorder-first path."""
    for mono in sorted(p.terms, key=ac_key, reverse=True):
        for s in S:
            paths = _occurrence_paths(mono, s.leading_monomial())
            if paths:
                step = _substitute(mono, paths[0], s)
                return p - step.scale(p.coeff(mono))
    return None


def reference_ac_normal_form(p, S):
    """Fully reduced representative of p modulo monic relations S.
    Substituted monomials are strictly smaller, so this terminates."""
    # refuses S unless every element is nonzero and monic
    AntiCommutative(S, 2)
    while True:
        nxt = ac_reduce_step(p, S)
        if nxt is None:
            return p
        p = nxt


def reference_pair_normal_form(m, algebra, S):
    """Normal form modulo a module-side set S and an algebra-side
    rewrite system acting from the left.

    Algebra leading words rewrite anywhere inside u-parts, because any
    product a * s * b * y lies in the submodule generated by the pair.
    Convenience layer over the two reducers; alternates to a fixed point.
    """
    if not isinstance(algebra, RewriteSystem):
        raise TypeError("algebra side must be a RewriteSystem")
    FreeModule(S, 2, 2)  # refuses S unless every element is nonzero and monic
    while True:
        m2 = reference_module_normal_form(m, S) if S else m
        m2 = _algebra_reduce(m2, algebra)
        if m2 == m:
            return m
        m = m2


def _algebra_reduce(m, algebra):
    while True:
        hit = None
        for mono in sorted(m.terms, key=mword_key, reverse=True):
            for idx, lw in enumerate(algebra.leading_words):
                pos = find_factor(mono.u, lw)
                if pos is not None:
                    hit = (mono, idx, pos)
                    break
            if hit:
                break
        if hit is None:
            return m
        mono, idx, pos = hit
        s = algebra.elements[idx]
        lw = algebra.leading_words[idx]
        a, b = mono.u[:pos], mono.u[pos + len(lw):]
        items = [(ModuleWord(a + t + b, mono.y), c) for t, c in s.items()]
        m = m - ModuleElement(items).scale(m.coeff(mono))


# -- seeded inputs ------------------------------------------------------


DI_POOL = [dw for n in range(1, 4) for dw in all_diwords(2, n)]
DI_WORDS = [dw for n in range(1, 6) for dw in all_diwords(2, n)]
AC_POOL = normal_words(2, 4)
AC_WORDS = normal_words(2, 7)


def random_element(rng, cls, pool, max_terms=5):
    return cls({rng.choice(pool): rng.choice(COEFFS)
                for _ in range(rng.randint(1, max_terms))})


def random_set(rng, cls, pool, max_elems=3):
    out = []
    while not out:
        for _ in range(rng.randint(1, max_elems)):
            p = random_element(rng, cls, pool, 3)
            if p:
                out.append(p.monic())
    return out


def random_module_element(rng, nx, ny, max_len):
    return ModuleElement({
        ModuleWord(tuple(rng.randrange(nx)
                         for _ in range(rng.randint(0, max_len))),
                   rng.randrange(ny)): rng.choice(COEFFS)
        for _ in range(rng.randint(1, 5))})


def random_assoc(rng, n):
    elems = []
    while not elems:
        for _ in range(rng.randint(1, 2)):
            p = Polynomial({tuple(rng.randrange(n)
                                  for _ in range(rng.randint(1, 3))):
                            rng.choice(COEFFS)
                            for _ in range(rng.randint(1, 3))})
            if p:
                elems.append(p.monic())
    alphabet = Alphabet(tuple("x%d" % (i + 1) for i in range(n)))
    return RewriteSystem(tuple(elems), DegLexOrder(alphabet))


# -- differential tests -------------------------------------------------


def test_dialgebra_normal_forms_match_the_reference():
    rels = leibniz_enveloping(leibniz_dim2())
    sets = [rels, rels[1:], rels[:-1], rels[::2]]
    rng = random.Random(3)
    sets += [random_set(rng, DiPolynomial, DI_POOL) for _ in range(40)]
    changed = 0
    for S in sets:
        for _ in range(8):
            p = random_element(rng, DiPolynomial, DI_WORDS)
            nf = Dialgebra(S, 2).normal_form(p)
            assert nf == reference_di_reduce(p, S)
            changed += nf != p
    assert changed


def test_module_normal_forms_match_the_reference():
    rng = random.Random(4)
    changed = 0
    for _ in range(60):
        S = random_module_set(2, 2, 3, rng)
        for _ in range(8):
            m = random_module_element(rng, 2, 2, 5)
            nf = FreeModule(S, 2, 2).normal_form(m)
            assert nf == reference_module_normal_form(m, S)
            changed += nf != m
    assert changed


def test_ac_normal_forms_match_the_reference():
    hall = hall_gsb(2, 6)
    sets = [hall, hall[3:], hall[::-1]]
    rng = random.Random(6)
    sets += [random_set(rng, AcPolynomial, AC_POOL) for _ in range(40)]
    changed = 0
    for S in sets:
        for _ in range(8):
            p = random_element(rng, AcPolynomial, AC_WORDS)
            nf = AntiCommutative(S, 2).normal_form(p)
            assert nf == reference_ac_normal_form(p, S)
            changed += nf != p
    assert changed


def test_pair_normal_forms_match_the_reference():
    rng = random.Random(9)
    changed = 0
    for i in range(40):
        algebra = random_assoc(rng, 2)
        S = [] if i % 5 == 0 else random_module_set(2, 2, 2, rng)
        for _ in range(6):
            m = random_module_element(rng, 2, 2, 5)
            nf = pair_normal_form(m, algebra, S)
            assert nf == reference_pair_normal_form(m, algebra, S)
            changed += nf != m
    assert changed


def test_rewrite_with_nothing_to_find_returns_its_input():
    p = Polynomial({(0, 1): 2, (): 1})
    assert rewrite(p, lambda m: None, None) is p


# -- generated cases of every kind ---------------------------------------


def _terms(monomials, size, coeffs=st.sampled_from(COEFFS)):
    return st.dictionaries(monomials, coeffs, min_size=1, max_size=size)


DI_MONOMIALS = st.sampled_from(DI_WORDS)
AC_MONOMIALS = st.sampled_from(AC_WORDS)
MODULE_MONOMIALS = st.builds(
    ModuleWord, st.lists(st.integers(0, 1), max_size=5).map(tuple),
    st.integers(0, 1))
WORDS = st.lists(st.integers(0, 1), max_size=5).map(tuple)
XY = DegLexOrder(Alphabet(("x1", "x2")))


def _free_algebra(S):
    return RewriteSystem(tuple(S), XY)


# kind -> (structure factory, element class, relation monomials, monomials)
KINDS = {
    "assoc": (_free_algebra, Polynomial,
              WORDS.filter(lambda w: len(w) <= 3), WORDS),
    "dialgebra": (lambda S: Dialgebra(S, 2), DiPolynomial,
                  st.sampled_from(DI_POOL), DI_MONOMIALS),
    "module": (lambda S: FreeModule(S, 2, 2), ModuleElement,
               MODULE_MONOMIALS.filter(lambda mw: len(mw.u) <= 3),
               MODULE_MONOMIALS),
    "ac": (lambda S: AntiCommutative(S, 2), AcPolynomial,
           st.sampled_from(AC_POOL), AC_MONOMIALS),
}


@st.composite
def cases(draw, coeffs=st.sampled_from(COEFFS)):
    kind = draw(st.sampled_from(sorted(KINDS)))
    structure, cls, rel_monomials, monomials = KINDS[kind]
    rels = draw(st.lists(_terms(rel_monomials, 3, coeffs), min_size=1,
                         max_size=3))
    S = [cls(t).monic() for t in rels]
    return structure(S), cls(draw(_terms(monomials, 6, coeffs)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cases())
def test_count_is_the_number_of_monomials(case):
    # bounded_check totals count(d), which assoc and dialgebras give in
    # closed form instead of walking monomials(d)
    structure, _ = case
    for d in range(structure.low, 7):
        assert structure.count(d) == sum(1 for _ in structure.monomials(d))


# -- find and occurrences with a repeated leading monomial ---------------


@st.composite
def repeated_leads(draw):
    """A kind and a set of its relations in which one leading monomial
    repeats.  For a dialgebra, one copy's center-forgetting image keeps
    the leading letters and the other copy's image cancels them."""
    kind = draw(st.sampled_from(["ac", "dialgebra", "module"]))
    _, cls, rel_monomials, _ = KINDS[kind]
    S = [cls(t).monic()
         for t in draw(st.lists(_terms(rel_monomials, 3), max_size=2))]
    if kind == "dialgebra":
        lw = draw(st.sampled_from([dw for dw in DI_POOL if dw.center]))
        twin = Diword(lw.letters, draw(st.integers(0, lw.center - 1)))
        k = draw(st.sampled_from([-2, 1, 2]))
        copies = [DiPolynomial({lw: 1, twin: k}),
                  DiPolynomial({lw: 1, twin: -1})]
    else:
        lw, key = draw(rel_monomials), cls._key
        copies = [cls({lw: 1, **{t: c for t, c in tail.items()
                                 if key(t) < key(lw)}})
                  for tail in draw(st.lists(_terms(rel_monomials, 2),
                                            min_size=2, max_size=2))]
    return kind, draw(st.permutations(S + copies))


def _references(kind, S):
    """Plain per-relation (find, occurrences) of the relations S."""
    leads = [s.leading_monomial() for s in S]
    if kind == "ac":
        return (lambda t: ac_find(leads, t),
                lambda t, j: list(ac_occurrences(t, leads[j])))
    if kind == "dialgebra":
        entries = _prep(S)

        def occurrences(m, j):
            # from the reference's (position, center inside) pairs
            word, cm, n = m.letters, m.center, len(leads[j])
            return [(word[:pos], word[pos + n:], None if inside
                     else cm if cm < pos else cm - len(word))
                    for pos, inside in _occurrences(m, entries[j])]

        def find(m):
            # the first element with an occurrence, at its first context
            for j in range(len(S)):
                for context in occurrences(m, j):
                    return j, context
            return None
        return find, occurrences

    def occurrences(mw, j):
        # the prefix a with mw = a.lw_j, when lw_j is a suffix of mw
        lw = leads[j]
        cut = len(mw.u) - len(lw.u)
        if lw.y == mw.y and cut >= 0 and mw.u[cut:] == lw.u:
            return [mw.u[:cut]]
        return []

    keys = [mword_key(lw) for lw in leads]

    def find(mw):
        # the greatest leading word that is a suffix, ties to the
        # earliest element
        best = None
        for j in range(len(S)):
            for a in occurrences(mw, j):
                if best is None or keys[j] > keys[best[0]]:
                    best = j, a
        return best
    return find, occurrences


MONOMIALS = {"ac": AC_WORDS, "dialgebra": DI_WORDS,
             "module": [mw for d in range(6)
                        for mw in FreeModule((), 2, 2).monomials(d)]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(repeated_leads())
def test_find_and_occurrences_with_a_repeated_leading_monomial(case):
    # Compares lists only: a wrong find can make a rewrite run forever.
    kind, S = case
    structure = KINDS[kind][0](S)
    find, occurrences = _references(kind, S)
    for m in MONOMIALS[kind]:
        assert structure.find(m) == find(m)
    if kind != "dialgebra":  # its compositions are None
        assert list(structure.compositions()) == [
            (lw, S[i] - structure.multiply(context, S[j]))
            for i, lw in enumerate(structure.leading_words)
            for j in range(len(S)) for context in occurrences(lw, j)]


# -- normal forms are irreducible and idempotent ------------------------


# a constant relation, whose leading word () occurs in every word
CONSTANT = (_free_algebra([Polynomial({(0, 1): 1, (1,): -1}),
                           Polynomial({(): 2}).monic()]),
            Polynomial({(0, 1): 2, (1,): 3, (): 1}))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
@example(CONSTANT)
def test_normal_forms_are_irreducible_and_idempotent(case):
    structure, p = case
    nf = structure.normal_form(p)
    assert all(structure.find(m) is None for m in nf.terms)
    assert structure.normal_form(nf) == nf


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
@example(CONSTANT)
def test_what_rewriting_removes_lies_in_the_bounded_ideal_span(case):
    # Each pass subtracts an image of ambient degree at most that of a
    # monomial of p, so p - nf(p) lies in the span of the ideal rows up to
    # the largest degree of p's monomials and the leading monomials.
    structure, p = case
    d = max(map(structure.degree,
                list(p.terms) + list(structure.leading_words)))
    removed = p - structure.normal_form(p)
    assert structure.span(d).contains(removed.terms)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
@example(CONSTANT)
def test_an_image_is_one_at_its_monomial_and_smaller_elsewhere(case):
    # The contract of the image hook, which core.rewrite relies on: the
    # pairs are the S-word scaled to 1 at m, less m, all below m.
    structure, p = case
    key = type(p)._key
    for m in p.terms:
        occ = structure.find(m)
        if occ is not None:
            assert all(key(u) < key(m) for u, _ in structure.image(m, occ))
            image = terms_image(structure)(m, occ)
            assert image == structure_image(structure, m, occ)


# -- exact coefficients ---------------------------------------------------


# small rationals, integral ones included, some of them as Fractions
RATIONALS = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4)).filter(bool)


def _is_exact(c):
    """An int, or a Fraction whose value is not integral; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _reference_sum(p, q, c):
    """p + c * q as a dict of Fractions without zeros."""
    out = {}
    for terms, k in ((p.terms, 1), (q.terms, c)):
        for m, v in terms.items():
            out[m] = out.get(m, Fraction(0)) + Fraction(k) * Fraction(v)
    return {m: v for m, v in out.items() if v}


def _reference_product(p, q):
    out = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            out[u + v] = out.get(u + v, Fraction(0)) + Fraction(cu) * cv
    return {m: v for m, v in out.items() if v}


def _two_step(p, find, image):
    """rewrite_step as a scaled copy of the image, then a subtraction."""
    for m in sorted(p.terms, key=type(p)._key, reverse=True):
        occ = find(m)
        if occ is not None:
            return p - image(m, occ).scale(p.terms[m])
    return None


@st.composite
def overlapping(draw, p, extra):
    """An element of p's class that cancels some terms of p exactly and
    shares or adds others, with int and Fraction coefficients."""
    monomials = list(p.terms) + list(extra)
    terms = draw(st.dictionaries(st.sampled_from(monomials), RATIONALS,
                                 max_size=6))
    for m in draw(st.sets(st.sampled_from(list(p.terms)))):
        terms[m] = -p.terms[m]
    return type(p)(terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases(RATIONALS), RATIONALS, st.data())
def test_a_coefficient_is_an_int_when_integral_and_a_fraction_otherwise(
        case, c, data):
    # Every sum and product goes through core.add_scaled; each one is
    # checked against plain Fraction arithmetic.
    structure, p = case
    nf = structure.normal_form(p)
    q = data.draw(overlapping(p, nf.terms))
    assert (p + q).terms == _reference_sum(p, q, 1)
    assert (p - q).terms == _reference_sum(p, q, -1)
    assert (p + c * q).terms == _reference_sum(p, q, c)
    assert add_scaled(dict(p.terms), q.items(), c) == _reference_sum(p, q, c)
    made = [p, q, nf, p + nf, p - nf, p + q, p - q, p + c * q, p.scale(c),
            c * p, p.monic()]
    made += structure.elements
    image = terms_image(structure)
    made += [image(m, structure.find(m)) for m in p.terms
             if structure.find(m) is not None]
    if isinstance(p, Polynomial):
        assert (p * q).terms == _reference_product(p, q)
        made += [p * nf, p * q]
    for r in made:
        assert all(map(_is_exact, r.terms.values()))
    # one rewrite pass equals the scaled copy subtracted, along the chain
    r = p
    while r is not None:
        step = rewrite_step(r, structure.find, image)
        assert step == _two_step(r, structure.find, image)
        r = step
    d = max(map(structure.degree,
                list(p.terms) + list(structure.leading_words)))
    for row in stored_rows(structure.span(d)).values():
        assert all(map(_is_exact, row.values()))


def _assert_same_normal_form(p, nf, ref):
    # equal terms, equal coefficient types, and p itself from both or
    # from neither
    assert nf.sorted_terms() == ref.sorted_terms()
    assert [type(c) for _, c in nf.sorted_terms()] == \
        [type(c) for _, c in ref.sorted_terms()]
    assert (nf is p) == (ref is p)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases(RATIONALS))
@example(CONSTANT)
def test_rewrite_settles_each_monomial_as_the_step_loop_does(case):
    # The loop re-sorted p and probed it from the top on every pass.
    structure, p = case
    nf = structure.normal_form(p)
    ref = step_loop(p, structure.find, terms_image(structure))
    _assert_same_normal_form(p, nf, ref)


# Fraction coefficients and no monomial to rewrite: p itself comes back.
IRREDUCIBLE = (_free_algebra([Polynomial({(1, 1): 1, (0,): Fraction(-1, 2)})]),
               Polynomial({(0, 1): Fraction(2, 3), (1, 0): Fraction(-1, 2),
                           (): 3}))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases(RATIONALS))
@example(IRREDUCIBLE)
@example(CONSTANT)
def test_rewrite_agrees_with_the_terms_reducer(case):
    # The reducer before the integer working vector: a Terms image,
    # subtracted through add_scaled on every step.
    structure, p = case
    nf = structure.normal_form(p)
    ref = terms_rewrite(p, structure.find,
                        lambda m, occ: structure_image(structure, m, occ))
    _assert_same_normal_form(p, nf, ref)


# -- what core.Structure derives from parts ------------------------------


HALL8 = hall_gsb(2, 8)


class ChainRows(AntiCommutative):
    """The anti-commutative kind with the chain-product rows it had
    before its contexts became chains, keyed by `ac_key`."""

    rows = ac_chain_rows
    empty_span = tuple_span


@st.composite
def ac_sets(draw):
    if draw(st.booleans()):
        picked = draw(st.sets(st.integers(0, len(HALL8) - 1), min_size=1,
                              max_size=8))
        return [HALL8[i] for i in sorted(picked)]
    rels = draw(st.lists(_terms(st.sampled_from(AC_POOL), 3), min_size=1,
                         max_size=3))
    return [AcPolynomial(t).monic() for t in rels]


@st.composite
def composition_cases(draw):
    if draw(st.booleans()):
        S = random_module_set(2, 2, 3, random.Random(draw(st.integers())))
        return FreeModule(S, 2, 2), module_compositions
    return AntiCommutative(draw(ac_sets()), 2), ac_compositions


@settings(derandomize=True, max_examples=200, deadline=None)
@given(composition_cases())
def test_compositions_match_the_functions_they_replaced(case):
    structure, reference = case
    S = structure.elements
    assert list(structure.compositions()) == [
        c for f in S for g in S for c in reference(f, g)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ac_sets())
def test_chain_contexts_span_what_the_chain_products_spanned(S):
    chains, products = AntiCommutative(S, 2), ChainRows(S, 2)
    assert chains.span(8).ranks == products.span(8).ranks
    for d in range(1, 9):
        assert chains.span(d).pivots() == products.span(d).pivots()
