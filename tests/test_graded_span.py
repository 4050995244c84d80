"""The graded span against the loop it replaced.

Each bounded check builds one span at its top bound and reads the rank
per degree off it, and enumerates the irreducible words once.  The
references below keep the old construction: a separate span per degree,
built element first (the anti-commutative one through a FIFO queue), and
the irreducible words enumerated again at every degree.  The whole report
must come out equal, down to the last Fraction.  The elimination itself,
which runs over order keys, is compared the same way with the one that
compared columns through their keys, and the associative check, which
leaves out rows and pairs that cannot change its answer, with the one
that inserted every S-word and visited every pair; its rows, which come
as int word codes, are also compared with the same rows inserted as
words.  So is the dialgebra span, which leaves out rows with the center
outside or inside a relation, with the one that inserted every S-word,
and every kind's bounded check, which reads the cached monomial table
of its kind's shape and bound, with the one that built its codes per
check.
"""

import gc
import random
from fractions import Fraction
from itertools import product
from operator import neg

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shirshov.anticomm import (AcPolynomial, AntiCommutative,
                               _normal_by_degree, _signed_product,
                               ac_gsb_check_bounded,
                               ac_key, ac_mul, ac_size, hall_gsb,
                               hall_words, normal_words)
from shirshov.catalog import chinese_gsb
from shirshov.core import (Alphabet, BoundedReport, DegLexOrder,
                           DegreeLine, Polynomial, VectorSpan, add_scaled,
                           deglex_key)
from shirshov.dialgebra import (DiPolynomial, Dialgebra, Diword,
                                LeibnizAlgebra, all_diwords,
                                di_gsb_check_bounded, di_irr, diword_key,
                                leibniz_dim2, leibniz_enveloping)
from shirshov.freemodule import (FreeModule, ModuleElement, ModuleWord,
                                 act, module_cd_check, module_irr,
                                 mword_key, random_module_set)
from shirshov.gsb import cd_lemma_check, find_compositions
from shirshov.rewrite import RewriteSystem, code_word, irr_words, word_code

from references import VectorSpan as ReferenceSpan
from references import (TUPLE_READERS, EveryDialgebraRow, EveryRowAndPair,
                        PerCheckAc, PerCheckDialgebra, PerCheckModule,
                        TupleKeyedAc, TupleKeyedDialgebra, TupleKeyedModule,
                        WordKeyedRows, _occurrence_paths, _occurrences,
                        _prep, ac_compositions,
                        automaton_irreducible_by_degree,
                        coded_module_irreducible_by_degree, echelon,
                        find_bounded_check, grown_ac_irreducible_codes,
                        grown_dialgebra_irreducible_codes,
                        membership_oracle, parts_irreducible_by_degree,
                        probing_irreducible_by_degree, stored_rows)


# -- Structure.span -----------------------------------------------------


def test_graded_span_records_the_rank_as_each_degree_closes():
    x = Alphabet(("x",))
    system = RewriteSystem((Polynomial.monomial((0, 0)),), DegLexOrder(x))
    span = system.span(4)
    # degrees 0 and 1 have no rows; from degree 2 on every word x^d is in
    # the ideal, one new pivot per degree
    assert span.ranks == {0: 0, 1: 0, 2: 1, 3: 2, 4: 3}
    assert span.rank == 3
    assert span.pivots() == [(0, 0, 0, 0), (0, 0, 0), (0, 0)]


def test_graded_span_of_an_empty_row_source():
    xy = DegLexOrder(Alphabet(("x", "y")))
    span = RewriteSystem((), xy).span(3)
    assert span.ranks == {0: 0, 1: 0, 2: 0, 3: 0}
    assert span.rank == 0
    assert Dialgebra((), 2).span(3).ranks == {1: 0, 2: 0, 3: 0}


# -- elimination in key space against elimination through keys ---------


def _codes(structure, bound):
    # the key and reader of the span of a structure at a bound
    span = structure.empty_span(bound)
    return span.key, span._column


WORDS = st.lists(st.integers(0, 2), max_size=3).map(tuple)
DIWORDS = st.sampled_from(all_diwords(2, 1) + all_diwords(2, 2)
                          + all_diwords(2, 3))
MWORDS = st.builds(ModuleWord, st.lists(st.integers(0, 1),
                                        max_size=3).map(tuple),
                   st.integers(0, 1))
TREES = st.sampled_from(normal_words(2, 4))
# Columns of every kind with the key that orders them and the reader
# that inverts it: the order keys, then the codes of the spans; `-k`
# orders the basis indices of leibniz_i0.
COLUMNS = [
    (deglex_key, TUPLE_READERS[Polynomial], WORDS),
    (diword_key, TUPLE_READERS[DiPolynomial], DIWORDS),
    (mword_key, TUPLE_READERS[ModuleElement], MWORDS),
    (ac_key, TUPLE_READERS[AcPolynomial], TREES),
    (*_codes(RewriteSystem((), DegLexOrder(Alphabet("xyz"))), 3), WORDS),
    (*_codes(Dialgebra((), 2), 3), DIWORDS),
    (*_codes(FreeModule((), 2, 2), 3), MWORDS),
    (*_codes(AntiCommutative((), 2), 4), TREES),
    (neg, neg, st.integers(0, 9)),
]
SPAN_COEFFS = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2),
                               Fraction(-2, 3), Fraction(4, 2),
                               Fraction(0)])


def _echelon(span):
    # the reduced row echelon form of a span of either kind; the stored
    # rows depend on the walks that folded them
    if isinstance(span, ReferenceSpan):
        return echelon(span.rows, span.key)
    return echelon(stored_rows(span), span.key)


@st.composite
def span_inputs(draw):
    """A column kind with its key and reader, and sparse vectors over it
    to insert, then to test for membership."""
    key, column, columns = draw(st.sampled_from(COLUMNS))
    vecs = st.lists(st.dictionaries(columns, SPAN_COEFFS, max_size=5),
                    max_size=12)
    return key, column, draw(vecs), draw(vecs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(span_inputs())
def test_span_in_key_space_matches_the_reference(case):
    key, column, inserts, queries = case
    span, ref = VectorSpan(key, column), ReferenceSpan(key)
    for vec in inserts:
        assert span.insert(span.keyed(vec)) == ref.insert(vec)
    assert span.rank == ref.rank
    assert span.pivots() == ref.pivots()
    assert list(map(type, span.pivots())) == list(map(type, ref.pivots()))
    assert _echelon(span) == _echelon(ref)
    for vec in inserts + queries:
        assert span.contains(vec) == ref.contains(vec)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(COLUMNS).flatmap(
    lambda kind: st.tuples(st.just(kind), kind[2])))
def test_each_reader_inverts_its_key(case):
    (key, column, _), m = case
    assert column(key(m)) == m
    assert type(column(key(m))) is type(m)


def test_every_stored_key_is_an_int():
    # every kind eliminates over int codes, not over tuple keys
    for structure, bound in [
            (chinese_gsb(2), 6), (AntiCommutative(hall_gsb(2, 8), 2), 8),
            (Dialgebra(leibniz_enveloping(leibniz_dim2()), 2), 6),
            (FreeModule(random_module_set(2, 2, 3, random.Random(1)), 2,
                        2), 7)]:
        rows = structure.span(bound)._rows
        assert rows
        assert {type(k) for row in rows.values() for k in row} \
            == {type(p) for p in rows} == {int}


def _graded_cases():
    rels = leibniz_enveloping(leibniz_dim2())
    cases = [(Dialgebra(S, 2), d) for S, d in
             [(rels, 6), (rels[1:], 5), (rels[:-1], 5)]]
    rng = random.Random(5)
    for _ in range(10):
        S = random_di(rng)
        cases.append((Dialgebra(S, 2),
                      max(len(s.leading_monomial()) for s in S) + 1))
    rng = random.Random(2)
    cases += [(FreeModule(random_module_set(2, 2, 3, rng), 2, 2), 7)
              for _ in range(10)]
    hall6 = hall_gsb(2, 6)
    cases.append((AntiCommutative(hall_gsb(2, 8), 2), 8))
    cases += [(AntiCommutative(hall6[:i] + hall6[i + 1:], 2), 6)
              for i in (0, 4, 9)]
    rng = random.Random(8)
    for _ in range(10):
        S = random_ac(rng)
        cases.append((AntiCommutative(S, 2), max(
            ac_size(s.leading_monomial()) for s in S) + rng.randint(0, 1)))
    return cases


def test_graded_spans_match_the_reference_elimination():
    # The reference takes the same rows, read back as monomials, and
    # eliminates over monomials; its rank is read as each degree closes.
    for structure, bound in _graded_cases():
        span = structure.span(bound)
        column = span._column
        by_degree = {}
        for d, kvec in structure.rows(bound):
            by_degree.setdefault(d, []).append(
                {column(k): c for k, c in kvec.items()})
        ref, ranks = ReferenceSpan(structure.elem._key), {}
        for d in range(structure.low, bound + 1):
            for vec in by_degree.get(d, ()):
                ref.insert(vec)
            ranks[d] = ref.rank
        assert span.ranks == ranks
        assert span.pivots() == ref.pivots()
        assert _echelon(span) == _echelon(ref)


# -- reference spans: one per bound, element first -----------------------


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


def reference_ideal_span(system, max_deg):
    n = len(system.order.alphabet)
    span = ReferenceSpan(deglex_key)
    for s, lw in zip(system.elements, system.leading_words):
        room = max_deg - len(lw)
        for la in range(room + 1):
            for a in product(range(n), repeat=la):
                for lb in range(room - la + 1):
                    for b in product(range(n), repeat=lb):
                        span.insert({a + t + b: c
                                     for t, c in s.terms.items()})
    return span


def reference_di_span(S, n, max_len):
    span = ReferenceSpan(diword_key)
    for entry in _prep(S):
        room = max_len - len(entry.lead.letters)
        for la in range(room + 1):
            for a in product(range(n), repeat=la):
                for lb in range(room - la + 1):
                    for b in product(range(n), repeat=lb):
                        span.insert(_context_image(entry, a, b, True).terms)
                        for q in range(la):
                            span.insert(_context_image(
                                entry, a, b, False, lambda m: q).terms)
                        for r in range(lb):
                            span.insert(_context_image(
                                entry, a, b, False,
                                lambda m: la + m + r).terms)
    return span


def reference_module_span(S, nx, max_len):
    span = ReferenceSpan(mword_key)
    for s in S:
        room = max_len - len(s.leading_monomial().u)
        for la in range(room + 1):
            for a in product(range(nx), repeat=la):
                span.insert(act(Polynomial.monomial(a), s).terms)
    return span


def reference_ac_span(S, n, max_deg):
    span = ReferenceSpan(ac_key)
    queue = [(s, ac_size(s.leading_monomial())) for s in S
             if ac_size(s.leading_monomial()) <= max_deg]
    while queue:
        p, ambient = queue.pop(0)
        span.insert(p.terms)
        for d in range(1, max_deg - ambient + 1):
            for m in _normal_by_degree(n, d):
                prod = ac_mul(p, m)
                if prod:
                    queue.append((prod, ambient + d))
    return span


def reference_table(line, degrees, total_at, irr_at, rank_at):
    out = []
    for d in degrees:
        total, irr, rank = total_at(d), irr_at(d), rank_at(d)
        out.append(line(d, irr, rank, total, irr + rank == total))
    return tuple(out)


# -- reference reports --------------------------------------------------


def reference_cd(system, max_deg):
    failing = tuple((c.w, c.result) for f in system.elements
                    for g in system.elements
                    for c in find_compositions(f, g)
                    if len(c.w) <= max_deg and system.normal_form(c.result))
    span = reference_ideal_span(system, max_deg)
    bad = tuple(w for w in span.pivots() if system.find(w) is None)
    n = len(system.order.alphabet)
    table = reference_table(
        DegreeLine, range(max_deg + 1),
        lambda d: sum(n ** k for k in range(d + 1)),
        lambda d: len(irr_words(system, d)),
        lambda d: reference_ideal_span(system, d).rank)
    return BoundedReport(max_deg, not failing, failing, not bad, bad,
                         all(line.ok for line in table), table)


def reference_di(S, n, max_len):
    entries = _prep(S)
    span = reference_di_span(S, n, max_len)
    bad = tuple(m for m in span.pivots()
                if not any(_occurrences(m, e) for e in entries))
    table = reference_table(
        DegreeLine, range(1, max_len + 1),
        lambda d: sum(k * n ** k for k in range(1, d + 1)),
        lambda d: len(di_irr(S, n, d)),
        lambda d: reference_di_span(S, n, d).rank)
    return BoundedReport(max_len, None, None, not bad, bad,
                         all(line.ok for line in table), table)


def reference_module(S, nx, ny, max_len):
    report = FreeModule(S, nx, ny).is_gsb()
    span = reference_module_span(S, nx, max_len)
    bad = tuple(mw for mw in span.pivots()
                if FreeModule(S, nx, ny).find(mw) is None)
    table = reference_table(
        DegreeLine, range(max_len + 1),
        lambda d: ny * sum(nx ** k for k in range(d + 1)),
        lambda d: len(module_irr(S, nx, ny, d)),
        lambda d: reference_module_span(S, nx, d).rank)
    return BoundedReport(max_len, report.holds, report.failing, not bad,
                         bad, all(line.ok for line in table), table)


def reference_ac(S, n, max_deg):
    failing = tuple((w, r) for f in S for g in S
                    for w, r in ac_compositions(f, g)
                    if AntiCommutative(S, n).normal_form(r))
    span = reference_ac_span(S, n, max_deg)
    leads = [s.leading_monomial() for s in S]
    bad = tuple(t for t in span.pivots()
                if not any(_occurrence_paths(t, lw) for lw in leads))
    table = reference_table(
        DegreeLine, range(1, max_deg + 1),
        lambda d: sum(len(_normal_by_degree(n, k)) for k in range(1, d + 1)),
        lambda d: len(AntiCommutative(S, n).irreducible(d)),
        lambda d: reference_ac_span(S, n, d).rank)
    return BoundedReport(max_deg, not failing, failing, not bad, bad,
                         all(line.ok for line in table), table)


# -- inputs -------------------------------------------------------------


def random_assoc(rng):
    n = rng.randint(2, 3)
    elems = []
    while not elems:
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randrange(n)
                             for _ in range(rng.randint(0, 4)))
                terms[word] = rng.choice([-2, -1, 1, 2, 3])
            p = Polynomial(terms)
            if p and p.leading_monomial():
                elems.append(p.monic())
    alphabet = Alphabet(tuple("x%d" % (i + 1) for i in range(n)))
    return RewriteSystem(tuple(elems), DegLexOrder(alphabet))


def random_di(rng):
    pool = all_diwords(2, 1) + all_diwords(2, 2) + all_diwords(2, 3)
    elems = []
    for _ in range(rng.randint(1, 2)):
        p = DiPolynomial({rng.choice(pool): rng.choice([-2, -1, 1, 2])
                          for _ in range(rng.randint(1, 3))})
        elems.append(p.monic())
    return elems


def random_ac(rng):
    pool = normal_words(2, 4)
    elems = []
    while not elems:
        for _ in range(rng.randint(1, 3)):
            p = AcPolynomial({rng.choice(pool): rng.choice([-2, -1, 1, 2])
                              for _ in range(rng.randint(1, 3))})
            if p:
                elems.append(p.monic())
    return elems


# -- the differential tests ---------------------------------------------


def test_assoc_report_matches_reference():
    cases = [(chinese_gsb(3), 8)]
    x = Alphabet(("x1", "x2"))
    cases.append((RewriteSystem(
        (Polynomial({(1,) * 5: 1, (0,): -1}),), DegLexOrder(x)), 5))
    rng = random.Random(18)
    for _ in range(40):
        system = random_assoc(rng)
        longest = max(len(lw) for lw in system.leading_words)
        cases.append((system, longest + rng.randint(0, 1)))
    failed = 0
    for system, bound in cases:
        report = cd_lemma_check(system, bound)
        assert report == reference_cd(system, bound)
        failed += not report.counts_ok
    assert failed


def test_dialgebra_report_matches_reference():
    rels = leibniz_enveloping(leibniz_dim2())
    cases = [(rels, 6), (rels[1:], 5), (rels[:-1], 5)]
    rng = random.Random(5)
    for _ in range(20):
        S = random_di(rng)
        cases.append((S, max(len(s.leading_monomial()) for s in S) + 1))
    for S, bound in cases:
        report = di_gsb_check_bounded(S, 2, bound)
        assert report == reference_di(S, 2, bound)
    assert not di_gsb_check_bounded(rels[:-1], 2, 5).holds


def test_module_report_matches_reference():
    rng = random.Random(2)
    failed = 0
    for _ in range(50):
        S = random_module_set(2, 2, 3, rng)
        report = module_cd_check(S, 2, 2, 7)
        assert report == reference_module(S, 2, 2, 7)
        failed += not report.counts_ok
    assert failed


def test_ac_report_matches_reference():
    hall6 = hall_gsb(2, 6)
    cases = [(hall_gsb(2, 8), 8)]
    cases += [(hall6[:i] + hall6[i + 1:], 6) for i in (0, 4, 9)]
    cases.append(([AcPolynomial({((1, 0), 0): 1}),
                   AcPolynomial({(1, 0): 1, 1: -1})], 5))
    rng = random.Random(8)
    for _ in range(30):
        S = random_ac(rng)
        longest = max(ac_size(s.leading_monomial()) for s in S)
        cases.append((S, longest + rng.randint(0, 1)))
    failed = 0
    for S, bound in cases:
        report = ac_gsb_check_bounded(S, 2, bound)
        assert report == reference_ac(S, 2, bound)
        failed += not report.holds
    assert failed


def test_ideal_span_ranks_match_one_span_per_bound():
    system = chinese_gsb(2)
    span = system.span(6)
    assert span.ranks == {d: reference_ideal_span(system, d).rank
                          for d in range(7)}
    assert span.pivots() == reference_ideal_span(system, 6).pivots()


# -- rows and pairs that cannot change the answer ------------------------


@st.composite
def assoc_systems(draw):
    """A system over 1-3 letters whose relations may be fractional,
    non-homogeneous or constant, and a bound from its longest leading
    degree up to 3 above it."""
    n = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, n - 1), max_size=3).map(tuple)
    rels = draw(st.lists(st.dictionaries(words, SPAN_COEFFS.filter(bool),
                                         min_size=1, max_size=3),
                         min_size=1, max_size=3))
    alphabet = Alphabet(tuple("x%d" % (i + 1) for i in range(n)))
    system = RewriteSystem(tuple(Polynomial(t).monic() for t in rels),
                           DegLexOrder(alphabet))
    longest = max(map(len, system.leading_words))
    return system, longest + draw(st.integers(0, 3))


@st.composite
def assoc_queries(draw, system, bound, rows):
    """Vectors to test for membership: random ones over the words of
    letters -1..n, one past the alphabet on each side, up to one letter
    longer than the bound, and combinations of two rows, some with one
    more such term."""
    n = len(system.order.alphabet)
    words = st.lists(st.integers(-1, n), max_size=bound + 1).map(tuple)
    out = draw(st.lists(st.dictionaries(words, SPAN_COEFFS, max_size=4),
                        max_size=4))
    if rows:
        for _ in range(draw(st.integers(1, 4))):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            vec = dict(u)
            for m, c in v.items():
                vec[m] = vec.get(m, 0) + draw(SPAN_COEFFS.filter(bool)) * c
            if draw(st.booleans()):
                vec[draw(words)] = draw(SPAN_COEFFS)
            out.append(vec)
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(assoc_systems(), st.data())
def test_assoc_checks_without_the_left_out_rows_and_pairs_agree(case, data):
    # The oracle inserts every S-word, visits every ordered pair and
    # calls find on every pivot; the deglex-keyed span inserts the same
    # rows as this one, keyed by their words, so it spans the same space.
    system, bound = case
    oracle = EveryRowAndPair(system.elements, system.order)
    span, ref = system.span(bound), oracle.span(bound)
    keyed = WordKeyedRows(system.elements, system.order).span(bound)
    assert span.ranks == ref.ranks == keyed.ranks
    assert span.pivots() == ref.pivots() == keyed.pivots()
    assert _echelon(span) == _echelon(keyed) == _echelon(ref)
    queries = data.draw(assoc_queries(system, bound,
                                      list(stored_rows(ref).values())))
    for vec in queries:
        assert span.contains(vec) == ref.contains(vec) \
            == keyed.contains(vec)
    assert system.bounded_check(bound) == oracle.bounded_check(bound)
    assert system.is_gsb() == oracle.is_gsb()


# -- integer word codes ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_codes_number_the_words_in_deglex_order(n):
    # every word of length <= 6, () included: the codes in deg-lex order
    # are 0, 1, 2, ..., so c(u) < c(v) exactly when deglex_key(u) <
    # deglex_key(v), and code_word inverts word_code; a span at bound 3
    # keys the longer words too
    words = sorted((w for d in range(7) for w in product(range(n), repeat=d)),
                   key=deglex_key)
    assert [word_code(w, n) for w in words] == list(range(len(words)))
    key = RewriteSystem((), DegLexOrder(Alphabet("xyz"[:n]))).empty_span(3).key
    assert [key(w) for w in words] == list(range(len(words)))
    assert [code_word(c, n) for c in range(len(words))] == words


def _diword_code(m, n):
    # F[L] + center * n**L + v(letters), F[L] = sum(l * n**l for l < L)
    length = len(m.letters)
    value = sum(x * n ** i for i, x in enumerate(reversed(m.letters)))
    return (sum(l * n ** l for l in range(length)) + m.center * n ** length
            + value)


@pytest.mark.parametrize("structure,bound", [
    (FreeModule((), 1, 1), 5), (FreeModule((), 2, 3), 4),
    (FreeModule((), 3, 2), 3), (Dialgebra((), 1), 5), (Dialgebra((), 2), 4),
    (Dialgebra((), 3), 3), (AntiCommutative((), 1), 4),
    (AntiCommutative((), 2), 6), (AntiCommutative((), 3), 5)])
def test_codes_number_the_monomials_of_every_kind_in_its_order(structure,
                                                                bound):
    # every monomial of degree <= bound, sorted by the kind's order key:
    # the codes are 0, 1, 2, ..., as the closed forms give them for
    # modules and dialgebras, and the reader reads each back
    formula = None
    if isinstance(structure, FreeModule):
        nx, ny = structure.nx, structure.ny
        monomials = [ModuleWord(u, y) for d in range(bound + 1)
                     for u in product(range(nx), repeat=d)
                     for y in range(ny)]
        formula = lambda mw: ny * word_code(mw.u, nx) + mw.y
    elif isinstance(structure, Dialgebra):
        monomials = [dw for d in range(1, bound + 1)
                     for dw in all_diwords(structure.n, d)]
        formula = lambda dw: _diword_code(dw, structure.n)
    else:
        monomials = normal_words(structure.n, bound)
    monomials.sort(key=structure.elem._key)
    span = structure.empty_span(bound)
    codes = [span.key(m) for m in monomials]
    assert codes == list(range(len(monomials)))
    if formula:
        assert codes == list(map(formula, monomials))
    read = [span._column(c) for c in codes]
    assert read == monomials
    assert list(map(type, read)) == list(map(type, monomials))


def test_contains_does_not_alias_a_word_outside_the_alphabet_or_bound():
    xy = DegLexOrder(Alphabet(("x", "y")))
    assert not membership_oracle(Polynomial({(5,): 1}), chinese_gsb(2), 3)
    # over two letters, (2,) read as a numeral has the place of (0, 0),
    # and (-1,) that of ()
    squares = RewriteSystem((Polynomial.monomial((0, 0)),), xy)
    assert membership_oracle(Polynomial({(0, 0): 1}), squares, 3)
    assert not membership_oracle(Polynomial({(2,): 1}), squares, 3)
    span = squares.span(3)
    assert span.contains({(1, 0, 0): 2, (0, 0, 0): -1})
    assert not span.contains({(0, 0): 1, (2,): 1})
    constant = RewriteSystem((Polynomial.one(),), xy).span(2)
    assert constant.contains({(): 1})
    assert not constant.contains({(-1,): 1})
    # x^4 is in the ideal, but above the bound of the span
    assert not span.contains({(0, 0, 0, 0): 1})


@pytest.mark.parametrize("structure,bound,inside,outside", [
    # over two letters and two generators, v2 after (1,) is v0 after
    # (0, 0) in code, and (2,) reads as the numeral of (0, 0)
    (FreeModule([ModuleElement({ModuleWord((0, 0), 0): 1})], 2, 2), 3,
     ModuleWord((0, 0), 0), [ModuleWord((1,), 2), ModuleWord((2,), 0),
                             ModuleWord((0, -1), 0)]),
    # (2,) centered at 0 reads as (0, 0) centered at 0
    (Dialgebra([DiPolynomial({Diword((0, 0), 0): 1})], 2), 3,
     Diword((0, 0), 0), [Diword((2,), 0), Diword((0, -1), 1)]),
    # (0, 1) is not normal, and 2 is outside the alphabet
    (AntiCommutative([AcPolynomial({(1, 0): 1})], 2), 3, (1, 0),
     [(0, 1), (2, 0), ((1, 0), 2), (0, (1, 0))]),
])
def test_contains_does_not_alias_a_monomial_of_another_kind(
        structure, bound, inside, outside):
    span = structure.span(bound)
    elem = structure.elem
    assert span.contains({inside: 1})
    assert membership_oracle(elem({inside: 1}), structure, bound)
    for m in outside:
        assert span.key(m) is None
        assert not span.contains({m: 1})
        assert not span.contains({inside: 1, m: 1})
        assert not membership_oracle(elem({m: 1}), structure, bound)


def test_a_bounded_check_leaves_no_cyclic_garbage():
    # the three structures-bounded checks, with the collector off: what
    # they leave is freed by reference counting alone
    di_rels = leibniz_enveloping(leibniz_dim2())
    hall = hall_gsb(2, 8)
    module_set = random_module_set(2, 2, 3, random.Random(1))
    checks = [lambda: di_gsb_check_bounded(di_rels, 2, 6),
              lambda: ac_gsb_check_bounded(hall, 2, 8),
              lambda: module_cd_check(module_set, 2, 2, 7)]
    for check in checks:
        check()  # fills the caches
        gc.collect()
        gc.disable()
        try:
            check()
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def dialgebra_sets(draw):
    """Relations over 1-3 letters whose terms are diwords of length 1-3,
    fractional and non-homogeneous, and a bound from the longest leading
    length up to 2 above it.  A relation may hold one letter sequence at
    two centers, so that its center-forgetting image loses its leading
    letters or its length, or vanishes."""
    n = draw(st.integers(1, 3))
    pool = [dw for length in range(1, 4 if n < 3 else 3)
            for dw in all_diwords(n, length)]
    coeffs = SPAN_COEFFS.filter(bool)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(pool), coeffs,
                                     max_size=3))
        if draw(st.booleans()):
            dw = draw(st.sampled_from([dw for dw in pool if len(dw) > 1]))
            k = draw(coeffs)
            terms[dw] = k
            terms[Diword(dw.letters, draw(st.sampled_from(
                [c for c in range(len(dw)) if c != dw.center])))] = -k
        p = DiPolynomial(terms)
        if p:
            rels.append(p.monic())
    if not rels:
        rels.append(DiPolynomial({pool[-1]: 1}))
    longest = max(len(s.leading_monomial()) for s in rels)
    return Dialgebra(rels, n), longest + draw(st.integers(0, 2))


def _di(n, *relations):
    return Dialgebra([DiPolynomial({Diword(*m): c for m, c in terms})
                      for terms in relations], n)


# The image of the first relation is x1, shorter than its leading diword,
# so x1 between the center and a relation does not make a row redundant.
SHORTER_IMAGE = (_di(2, [(((1, 1), 1), 1), (((1, 1), 0), -1),
                         (((1,), 0), Fraction(1, 2))],
                     [(((1, 0, 1), 1), 1), (((0, 1), 1), Fraction(-1, 4)),
                      (((0, 1), 0), Fraction(1, 4))],
                     [(((0, 0), 1), 1)]), 5)
# The image of this relation is -1/2 x0 x0, shorter than its leading
# diword, so x0 x0 in a or b does not make a center-inside row redundant:
# leaving those rows out lowers the rank at length 5 from 11 to 9.
INSIDE_SHORTER_IMAGE = (_di(1, [(((0, 0, 0), 2), 1), (((0, 0, 0), 1), -1),
                                (((0, 0), 0), Fraction(-1, 2))]), 5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dialgebra_sets())
@example(SHORTER_IMAGE)
@example(INSIDE_SHORTER_IMAGE)
@example((Dialgebra(leibniz_enveloping(LeibnizAlgebra(
    dim=3, bracket={(1, 2, 0): 1, (2, 1, 0): -1, (2, 2, 0): 1})), 3), 4))
def test_dialgebra_checks_without_the_left_out_rows_agree(case):
    # The oracle inserts every S-word, built by the old multiply.
    structure, bound = case
    oracle = EveryDialgebraRow(structure.elements, structure.n)
    span, ref = structure.span(bound), oracle.span(bound)
    assert span.ranks == ref.ranks
    assert span.pivots() == ref.pivots()
    assert structure.bounded_check(bound) == oracle.bounded_check(bound)


@st.composite
def kind_queries(draw, monomials, rows):
    """Vectors to test for membership: random ones over the monomials,
    which may lie outside the span's space, and combinations of two rows,
    some with one more such term."""
    out = draw(st.lists(st.dictionaries(monomials, SPAN_COEFFS,
                                        max_size=4), max_size=4))
    if rows:
        for _ in range(draw(st.integers(1, 4))):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            vec = dict(u)
            for m, c in v.items():
                vec[m] = vec.get(m, 0) + draw(SPAN_COEFFS.filter(bool)) * c
            if draw(st.booleans()):
                vec[draw(monomials)] = draw(SPAN_COEFFS)
            out.append(vec)
    return out


@st.composite
def module_sets(draw):
    """Relations over 1-3 letters and 1-3 generators, fractional and
    non-homogeneous, and a bound from the longest leading length up to 2
    above it; queries over letters and generators one past each end."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = 3 if nx < 3 else 2
    words = st.builds(ModuleWord, st.lists(st.integers(0, nx - 1),
                                           max_size=top).map(tuple),
                      st.integers(0, ny - 1))
    rels = draw(st.lists(st.dictionaries(words, SPAN_COEFFS.filter(bool),
                                         min_size=1, max_size=3),
                         min_size=1, max_size=3))
    structure = FreeModule([ModuleElement(t).monic() for t in rels], nx, ny)
    bound = max(len(lw.u) for lw in structure.leading_words) \
        + draw(st.integers(0, 2))
    queries = st.builds(ModuleWord, st.lists(
        st.integers(-1, nx), max_size=bound + 1).map(tuple),
        st.integers(-1, ny))
    return structure, TupleKeyedModule(structure.elements, nx, ny), bound, \
        queries


@st.composite
def dialgebra_cases(draw):
    structure, bound = draw(dialgebra_sets())
    n = structure.n
    queries = st.lists(st.integers(-1, n), min_size=1,
                       max_size=bound + 1).flatmap(
        lambda w: st.builds(Diword, st.just(w),
                            st.integers(0, len(w) - 1)))
    return structure, TupleKeyedDialgebra(structure.elements, n), bound, \
        queries


@st.composite
def ac_cases(draw):
    """Relations over 1-3 letters whose terms are normal trees of size
    <= 4, and a bound up to 1 above the largest leading size; queries
    over trees with a letter one past the alphabet, and their mirror
    images, which are not normal."""
    n = draw(st.integers(1, 3))
    pool = normal_words(n, 4 if n < 3 else 3)
    rels = draw(st.lists(st.dictionaries(st.sampled_from(pool),
                                         SPAN_COEFFS.filter(bool),
                                         min_size=1, max_size=3),
                         min_size=1, max_size=3))
    structure = AntiCommutative([AcPolynomial(t).monic() for t in rels], n)
    bound = max(ac_size(lw) for lw in structure.leading_words) \
        + draw(st.integers(0, 1))
    trees = normal_words(n + 1, 3)
    queries = st.sampled_from(trees + [t[::-1] for t in trees
                                       if not isinstance(t, int)])
    return structure, TupleKeyedAc(structure.elements, n), bound, queries


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(module_sets(), dialgebra_cases(), ac_cases()), st.data())
def test_code_rows_agree_with_the_tuple_keyed_rows(case, data):
    # The reference inserts the rows of every kind as they were before
    # they came as int codes, keyed by the order keys; read back as
    # monomials, the two spans have the same reduced row echelon form.
    structure, ref, bound, monomials = case
    span, old = structure.span(bound), ref.span(bound)
    assert span.ranks == old.ranks
    assert span.pivots() == old.pivots()
    assert _echelon(span) == _echelon(old)
    assert structure.bounded_check(bound) == ref.bounded_check(bound)
    queries = data.draw(kind_queries(monomials,
                                     list(stored_rows(old).values())))
    for vec in queries:
        assert span.contains(vec) == old.contains(vec)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(module_sets(), dialgebra_cases(), ac_cases()))
def test_every_kind_reports_what_find_decides(case):
    # The tuple-keyed references share bounded_check with the structures;
    # this oracle reads neither it nor the irreducible enumeration: it
    # calls find on every pivot, in the order pivots() gives, and on
    # every monomial of every degree.
    structure, _, bound, _ = case
    assert structure.bounded_check(bound) \
        == find_bounded_check(structure, bound)


PER_CHECK = {FreeModule: PerCheckModule, Dialgebra: PerCheckDialgebra,
             AntiCommutative: PerCheckAc}


def _per_check_reports_agree(structure, bounds):
    ref = PER_CHECK[type(structure)](structure.elements, *structure.shape)
    for bound in bounds:
        assert structure.bounded_check(bound) == ref.bounded_check(bound)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(module_sets(), dialgebra_cases(), ac_cases()))
def test_bounded_checks_agree_with_the_per_check_path(case):
    # The reference builds a code dict per check, asks is_pivot of every
    # irreducible monomial, hashes module words and orders chain products
    # by ac_key.  The bound goes up and back down, so a check reads tables
    # cached by this structure and by the ones before it.
    structure, _, bound, _ = case
    _per_check_reports_agree(structure, (bound, bound + 1, bound))


ENUMERATIONS = {
    FreeModule: (coded_module_irreducible_by_degree,
                 parts_irreducible_by_degree),
    Dialgebra: (parts_irreducible_by_degree,),
    AntiCommutative: (parts_irreducible_by_degree,),
    RewriteSystem: (automaton_irreducible_by_degree,
                    probing_irreducible_by_degree)}
GROWN = {Dialgebra: grown_dialgebra_irreducible_codes,
         AntiCommutative: grown_ac_irreducible_codes}


@st.composite
def end_centered_dialgebras(draw):
    """Monomial relations over 1-3 letters whose leading diwords have the
    center at the first or the last letter, so that each is flat_ok and
    keys its letters too, and a bound up to 2 above the longest."""
    n = draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, n - 1), min_size=1,
                       max_size=3 if n < 3 else 2)
    leads = draw(st.lists(st.builds(
        lambda w, last: Diword(w, len(w) - 1 if last else 0),
        letters, st.booleans()), min_size=1, max_size=3))
    structure = Dialgebra([DiPolynomial({dw: 1}) for dw in leads], n)
    assert all(structure.flat_ok)
    return structure, max(map(len, leads)) + draw(st.integers(0, 2))


def _assoc(n, *relations):
    alphabet = Alphabet(tuple("x%d" % (i + 1) for i in range(n)))
    return RewriteSystem([Polynomial(t) for t in relations],
                         DegLexOrder(alphabet))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(module_sets().map(lambda case: (case[0], case[2])),
                 dialgebra_sets(), end_centered_dialgebras(),
                 ac_cases().map(lambda case: (case[0], case[2])),
                 assoc_systems()))
@example((_assoc(2), 3))
@example((_assoc(2, {(): 1}), 2))
@example((_assoc(2, {(1, 0): 1, (0,): -1}, {(): 1}), 3))
@example((Dialgebra([DiPolynomial({Diword((0, 1, 0), 0): 1}),
                     DiPolynomial({Diword((1, 1), 1): 1})], 2), 4))
# a one-letter key at the center, and a key with no letter key that is
# the whole diword at length 3
@example((Dialgebra([DiPolynomial({Diword((1,), 0): 1})], 2), 4))
@example((Dialgebra([DiPolynomial({Diword((0, 1, 0), 1): 1,
                                   Diword((0, 1, 0), 0): -1})], 2), 4))
# letter keys that touch the first and the last letter of a diword
@example((Dialgebra([DiPolynomial({Diword((1, 0), 0): 1}),
                     DiPolynomial({Diword((0, 0), 1): 1})], 2), 4))
def test_irreducible_codes_are_the_codes_of_the_reference_enumeration(case):
    # Per degree, the codes are the span's keys of the monomials that
    # the walks kept in tests/references.py find, in the same order, and
    # decode to them; from below the least degree up, since a bound
    # below it lists nothing.  Dialgebras and tree-words also list the
    # codes that the growth rules kept there grew from the degree below.
    structure, bound = case
    low = 0 if isinstance(structure, RewriteSystem) else structure.low - 2
    for max_deg in range(low, bound + 1):
        levels = structure.irreducible_codes(max_deg)
        key = structure.empty_span(max_deg).key
        for reference in ENUMERATIONS[type(structure)]:
            want = reference(structure, max_deg)
            assert structure.irreducible_by_degree(max_deg) == want
            assert levels == {d: [key(m) for m in level]
                              for d, level in want.items()}
        grown = GROWN.get(type(structure))
        if grown is not None:
            assert levels == grown(structure, max_deg)


def test_the_benchmark_checks_agree_with_the_per_check_path():
    rng = random.Random(3)
    for _ in range(10):
        _per_check_reports_agree(
            FreeModule(random_module_set(2, 2, 3, rng), 2, 2), (5, 7, 5))
    _per_check_reports_agree(AntiCommutative(hall_gsb(2, 6), 2), (6, 8, 6))
    _per_check_reports_agree(
        Dialgebra(leibniz_enveloping(leibniz_dim2()), 2), (4, 6, 4))


def test_structures_of_one_kind_shape_and_bound_share_one_table():
    rng = random.Random(3)
    a, b = (FreeModule(random_module_set(2, 2, 3, rng), 2, 2)
            for _ in range(2))
    assert a.table(5) is b.table(5)
    assert a.empty_span(5).key.__self__ is b.table(5)[1]
    assert a.table(6) is not a.table(5)
    assert FreeModule((), 2, 3).table(5) is not a.table(5)
    hall = AntiCommutative(hall_gsb(2, 6), 2)
    assert AntiCommutative((), 2).table(6) is hall.table(6)
    assert AntiCommutative((), 3).table(6) is not hall.table(6)
    di = Dialgebra(leibniz_enveloping(leibniz_dim2()), 2)
    assert Dialgebra((), 2).table(4) is di.table(4)
    assert Dialgebra((), 2).table(5) is not di.table(4)
    # one shape, two kinds
    assert AntiCommutative((), 2).table(4) is not di.table(4)


def test_each_kind_holds_only_the_table_of_its_last_shape_and_bound():
    # a process that checks many shapes and bounds keeps one table per
    # kind, not one per shape and bound
    for n in (2, 3):
        for max_deg in (3, 4):
            AntiCommutative((), n).table(max_deg)
            FreeModule((), 2, n).table(max_deg)
    tables = AntiCommutative._tables
    assert tables is FreeModule._tables
    assert tables[AntiCommutative][0] == ((3,), 4)
    assert tables[FreeModule][0] == ((2, 3), 4)
    assert tables[AntiCommutative][1] is AntiCommutative((), 3).table(4)


def _counting(calls, function):
    def counted(*args):
        calls.append(args)
        return function(*args)
    return counted


def test_the_checks_insert_and_visit_only_what_can_change_them(monkeypatch):
    inserted = []
    monkeypatch.setattr(VectorSpan, "insert",
                        _counting(inserted, VectorSpan.insert))
    span = chinese_gsb(3).span(8)
    # every S-word: 16,587 rows
    assert (len(inserted), span.rank) == (12945, 9099)
    envelope = Dialgebra(leibniz_enveloping(leibniz_dim2()), 2)
    del inserted[:]
    steps = []
    monkeypatch.setattr("shirshov.core.add_scaled",
                        _counting(steps, add_scaled))
    span = envelope.span(6)
    # every S-word: 5,276 rows; with every center-inside one, 4,168
    assert (len(inserted), span.rank) == (3200, 630)
    # a reduction that walks chains of rows without folding them: 19,564
    assert len(steps) == 4481

    visited = []
    monkeypatch.setattr("shirshov.rewrite.find_compositions",
                        _counting(visited, find_compositions))
    report = chinese_gsb(6).is_gsb()
    # every ordered pair: 8,100
    assert (len(visited), report.checked, report.holds) == (840, 770, True)
    hall = AntiCommutative(hall_gsb(2, 8), 2)
    assert hall.is_gsb().holds
    built = []
    monkeypatch.setattr(AntiCommutative, "multiply", staticmethod(
        _counting(built, AntiCommutative.multiply)))
    # every ordered pair: 3,364
    assert len(list(hall.compositions())) == len(built) == 64

    products = []
    monkeypatch.setattr("shirshov.anticomm._signed_product",
                        _counting(products, _signed_product))
    del inserted[:]
    span = hall.span(8)
    # every chain rebuilt from its relation: 362 calls
    assert (len(products), len(inserted), span.rank) == (181, 239, 228)


# -- the anti-commutative key and Hall relations --------------------------


def reference_ac_key(t):
    if isinstance(t, int):
        return (1, t)
    return (ac_size(t), reference_ac_key(t[0]), reference_ac_key(t[1]))


def reference_hall_gsb(n, max_deg):
    pool = hall_words(n, max_deg)
    triples = sorted(
        (ac_size(u) + ac_size(v) + ac_size(w), ac_key(u), ac_key(v),
         ac_key(w), u, v, w)
        for iu, u in enumerate(pool) for iv, v in enumerate(pool[:iu])
        for w in pool[:iv]
        if ac_size(u) + ac_size(v) + ac_size(w) <= max_deg)
    return [ac_mul(ac_mul(u, v), w) - ac_mul(ac_mul(u, w), v)
            - ac_mul(u, ac_mul(v, w)) for *_, u, v, w in triples]


def test_ac_key_matches_the_recursive_definition():
    for t in normal_words(3, 6):
        assert ac_key(t) == reference_ac_key(t)


@pytest.mark.parametrize("n,max_deg", [(2, 6), (2, 7), (3, 5)])
def test_hall_gsb_matches_reference(n, max_deg):
    assert hall_gsb(n, max_deg) == reference_hall_gsb(n, max_deg)

