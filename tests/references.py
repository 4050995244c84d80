"""Helpers that the structures used before `core.Structure` derived
`find`, `compositions` and the bounded rows from one occurrences hook,
kept verbatim so the reference tests do not depend on `src/`: the
subtree paths and substitution of the anti-commutative kind, its
chain-product rows, the inclusion compositions of the anti-commutative
algebra and of the free module, and the prepared relations of a
dialgebra with their compatible occurrences.  The inter-reduction of
the completion before it became incremental is kept the same way, as the
oracle of the differential completion tests.  So are the sparse elimination that
compared columns through their key on every step, before it ran in key
space, and the anti-commutative `find` that walked the tree once per
relation, before it read a leading-word index.  The enveloping dialgebra
of a Leibniz algebra is kept as it was written with hand-placed centers,
before it was built from the products |- and -|.  Last, the associative
bounded check before it left out rows and pairs: `Structure.rows` with
every context of `RewriteSystem.contexts`, `_failing` over every ordered
pair, and `bounded_check` calling `find` on every pivot.  The
dialgebra span before it left out center-outside rows is kept as its
`contexts`, `multiply` and the rows `Structure` built from them; the
rewriting loop before it settled each monomial once is kept as
`rewrite_step` and the loop over it.  The presentation parser before its
terms were read one factor at a time is kept as `_tokenize`, `_Cursor`,
`_ac_renorm`, `_parse_ac_tree`, `_parse_term`, `_parse_expr`,
`parse_element` and `parse_presentation`, over the helpers of
`shirshov.cli` it shares.
The associative rows before they were built as int word codes are kept
as `word_rows`, which `WordKeyedRows` inserts keyed by `deglex_key`.
The rows of the other kinds before they came as int codes are kept as
`keyed_rows`, the `Structure.rows` of that time, with the module and
anti-commutative contexts it read, and `keyed_dialgebra_rows`; `TupleKeyedModule`,
`TupleKeyedDialgebra` and `TupleKeyedAc` insert them into `tuple_span`,
keyed by the order keys and read back by their inverses, such as
`ac_column`.  Every row generator here yields its rows as
{key(m): coefficient}, in the key space of the span that takes them.
Since a reduction folds the stored rows of `shirshov.core.VectorSpan`,
spans are compared by `echelon`, their reduced row echelon form, over
the rows that `stored_rows` reads back as columns.
The normal tree-words of one size before they were built in order are
kept as `_normal_by_degree`, which tried every pair of sizes and sorted.
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from operator import itemgetter

import shirshov as _lib
from shirshov.anticomm import (AcPolynomial, AntiCommutative, _lift,
                               ac_key, ac_mul, ac_size)
from shirshov.cli import (_SPECS, _TOKEN, KINDS, ParseError,
                          PresentationFile, _names, _rank)
from shirshov.core import (Alphabet, BoundedReport, DegreeLine, Polynomial,
                           add_scaled, check_bound, deglex_key, exact,
                           exact_div)
from shirshov.core import VectorSpan as KeySpan
from shirshov.dialgebra import (Dialgebra, DiPolynomial, Diword,
                                leibniz_check, leibniz_i0)
from shirshov.freemodule import FreeModule, ModuleElement, ModuleWord, act
from shirshov.rewrite import (RewriteSystem, _mul_word_poly, find_compositions,
                              irr_words)


@lru_cache(maxsize=None)
def _normal_by_degree(n_letters, degree, hall=False):
    # The normal tree-words of one size, ascending; with hall, only the
    # Hall words among them.
    if degree == 1:
        return tuple(range(n_letters))
    out = []
    for ls in range(1, degree):
        for left in _normal_by_degree(n_letters, ls, hall):
            for right in _normal_by_degree(n_letters, degree - ls, hall):
                if ac_key(left) <= ac_key(right):
                    continue
                if hall and not isinstance(left, int) and \
                        ac_key(left[1]) > ac_key(right):
                    continue
                out.append((left, right))
    return tuple(sorted(out, key=ac_key))


def _occurrence_paths(tree, target):
    """Paths (tuples of 0/1) to every subtree equal to target, preorder."""
    out = []

    def walk(t, path):
        if t == target:
            out.append(path)
        if not isinstance(t, int):
            walk(t[0], path + (0,))
            walk(t[1], path + (1,))

    walk(tree, ())
    return out


def _substitute(tree, path, replacement):
    """Replace the subtree at path by a polynomial and renormalize the
    ancestors through the signed product."""
    if not path:
        return _lift(replacement)
    left, right = tree
    if path[0] == 0:
        return ac_mul(_substitute(left, path[1:], replacement), right)
    return ac_mul(left, _substitute(right, path[1:], replacement))


def ac_compositions(f, g):
    """Inclusion compositions of the ordered pair: one per occurrence of
    lead(g) as a subtree of lead(f), each (lead(f), f - substitution).
    The ambient word is lead(f) itself, a normal word, so every subtree
    occurrence qualifies; the root occurrence of a self-pair gives an
    exactly-zero result."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    out = []
    for path in _occurrence_paths(lf, lg):
        out.append((lf, f - _substitute(lf, path, g)))
    return out


def ac_chain_rows(self, max_deg):
    """(d, {ac_key(m): c}) for every nonzero chain product of ambient size
    d <= max_deg, level by level: a level is yielded in full, and its
    right products by normal words go to the higher levels, before
    the next level starts.

    Every ideal element is a combination of multiplication chains
    applied to a single generator, and anti-commutativity makes
    one-sided chains span both sides, so right-multiplying by normal
    words up to the size budget enumerates a spanning set.
    """
    levels = {}
    for s, lw in zip(self.elements, self.leading_words):
        if ac_size(lw) <= max_deg:
            levels.setdefault(ac_size(lw), []).append(s)
    for ambient in range(1, max_deg + 1):
        for p in levels.pop(ambient, ()):
            yield ambient, {ac_key(m): c for m, c in p.terms.items()}
            for d in range(1, max_deg - ambient + 1):
                for m in _normal_by_degree(self.n, d):
                    prod = ac_mul(p, m)
                    if prod:
                        levels.setdefault(ambient + d, []).append(prod)


def module_compositions(f, g):
    """The compositions of the ordered pair (f, g): whenever the leading
    word of g right-divides the leading word of f (same generator, u-part
    a suffix), the pair contributes (lead(f), f - a.g).  At most one such
    witness a exists; the self-pair contributes its exactly-zero result."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    if lf.y != lg.y or len(lg.u) > len(lf.u):
        return []
    cut = len(lf.u) - len(lg.u)
    if lf.u[cut:] != lg.u:
        return []
    a = lf.u[:cut]
    return [(lf, f - act(Polynomial.monomial(a), g))]


def _flat(p):
    """Center-forgetting image in the free associative algebra."""
    return Polynomial([(dw.letters, c) for dw, c in p.items()])


class _Entry:
    """A relation, its leading diword and its center-forgetting image."""

    __slots__ = ("poly", "lead", "flat", "flat_ok")

    def __init__(self, poly):
        lead = poly.leading_monomial()
        self.poly = poly
        self.lead = lead
        self.flat = _flat(poly)
        self.flat_ok = bool(self.flat) and (
            self.flat.leading_monomial() == lead.letters)


def _prep(S):
    """One entry per dialgebra relation."""
    return [_Entry(p) for p in S]


def _occurrences(m, entry):
    """(position, center_inside) pairs where the entry's leading diword
    sits compatibly inside the diword m.

    With the ambient center inside the occurrence, the center offsets
    must agree and any element applies.  With the center outside, the
    element acts through its center-forgetting image, which rewrites the
    occurrence only when that image is nonzero with the same leading
    word; other elements are skipped here (their products still belong
    to the ideal and the span builder includes them)."""
    ls = entry.lead.letters
    cs = entry.lead.center
    word, cm = m.letters, m.center
    out = []
    for pos in range(len(word) - len(ls) + 1):
        if word[pos:pos + len(ls)] != ls:
            continue
        if pos <= cm < pos + len(ls):
            if cm - pos == cs:
                out.append((pos, True))
        elif entry.flat_ok:
            out.append((pos, False))
    return out


def _reducible_by_others(p, own, leads, lengths):
    # Whether some monomial of p contains the leading word of an element
    # other than p itself; leads counts the leading words of all elements.
    for w in p.terms:
        n = len(w)
        for m in lengths:
            for pos in range(n - m + 1):
                u = w[pos:pos + m]
                if u in leads and (u != own or leads[u] > 1):
                    return True
    return False


def _inter_reduce_elements(elements, order):
    elems = []
    for p in elements:
        if p:
            elems.append(p.monic())
    changed = True
    while changed:
        changed = False
        own = [p.leading_monomial() for p in elems]
        leads = Counter(own)
        lengths = {len(lw) for lw in own}
        for i in range(len(elems)):
            # An element no other leading word occurs in is its own normal
            # form modulo the rest; skip building that system.  Any other
            # changes: its greatest monomial with an occurrence goes away.
            if not _reducible_by_others(elems[i], own[i], leads, lengths):
                continue
            others = elems[:i] + elems[i + 1:]
            nf = RewriteSystem(tuple(others), order).normal_form(elems[i])
            changed = True
            if nf:
                elems[i] = nf.monic()
            else:
                del elems[i]
            break
    elems.sort(key=lambda p: order.key(p.leading_monomial()))
    return elems


class VectorSpan:
    """Row space of sparse exact vectors, built incrementally; a vector
    maps columns to coefficients, which `exact` normalizes.

    Columns are arbitrary hashable keys ordered by `key`; each stored row is
    normalized with coefficient 1 at its pivot, the key-greatest column of
    its support.  The pivot set and rank are canonical invariants of the
    span, independent of insertion order.  A span built by Structure.span
    also maps each closed degree to its rank in `ranks`.
    """

    def __init__(self, key):
        self.key = key
        self.rows = {}
        self.ranks = {}

    def _reduce(self, vec):
        vec = {m: c for m, c in zip(vec, map(exact, vec.values())) if c}
        while vec:
            lead = max(vec, key=self.key)
            row = self.rows.get(lead)
            if row is None:
                return vec, lead
            add_scaled(vec, row.items(), -vec[lead])
        return vec, None

    def insert(self, vec):
        """Add a vector; returns True when it enlarged the span."""
        red, lead = self._reduce(vec)
        if not red:
            return False
        c = red[lead]
        self.rows[lead] = {col: exact_div(v, c) for col, v in red.items()}
        return True

    def contains(self, vec):
        red, _ = self._reduce(vec)
        return not red

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        """Pivot columns, key-descending."""
        return sorted(self.rows, key=self.key, reverse=True)


def stored_rows(span):
    """The stored rows of a `shirshov.core.VectorSpan` as {pivot column:
    {column: coefficient}}, in insertion order."""
    column = span._column
    return {column(p): {column(k): v for k, v in row.items()}
            for p, row in span._rows.items()}


def echelon(rows, key):
    """The reduced row echelon form of the rows {pivot: {column:
    coefficient}}, whose columns `key` orders: (pivot, [(column,
    coefficient, its type)]) pairs, both key-descending, where no row
    holds the pivot of another.  Equal forms span equal spaces.  Asserts
    that every coefficient is nonzero and kept as `exact` gives it."""
    done = {}
    for p in sorted(rows, key=key):
        row = rows[p]
        assert row[p] == 1 and all(c and type(c) is type(exact(c))
                                   for c in row.values()), row
        row = dict(row)
        # each finished row holds no pivot but its own
        for q in [k for k in row if k != p and k in done]:
            add_scaled(row, done[q].items(), -row[q])
        done[p] = row
    return [(p, [(m, done[p][m], type(done[p][m]))
                 for m in sorted(done[p], key=key, reverse=True)])
            for p in sorted(done, key=key, reverse=True)]


def ac_occurrences(t, lw):
    """The chains of the subtrees of t equal to the leading word lw, in
    preorder."""
    stack = [(t, ())]
    while stack:
        sub, chain = stack.pop()
        if sub == lw:
            yield chain  # a proper subtree is smaller than lw
        elif not isinstance(sub, int):
            left, right = sub
            stack.append((right, ((1, left),) + chain))
            stack.append((left, ((0, right),) + chain))


def ac_find(leading_words, m):
    """(i, context) for the first element i with an occurrence in m,
    at its first context, or None."""
    for i in range(len(leading_words)):
        for context in ac_occurrences(m, leading_words[i]):
            return i, context
    return None


def _bracket_poly(L, i, j, tail, center_shift):
    """{e_i, e_j} embedded as diwords (k,) + tail with the given center."""
    return [(Diword((k,) + tail, center_shift), c)
            for k, c in L.bracket_of(i, j).items()]


def leibniz_enveloping(L):
    """Defining relations of the enveloping dialgebra of L.

    Emits, in order: f(j, i) = e_j |- e_i - e_i -| e_j + {e_i, e_j} for
    all pairs; f(j, i) |- e_t for j > i; e_i0 |- e_t for i0 in the
    squares span; e_t -| f(j, i) for j > i; e_t -| e_i0.  Raises when the
    bracket violates the Leibniz identity.
    """
    if not leibniz_check(L):
        raise ValueError("structure constants violate the Leibniz identity")
    i0 = sorted(leibniz_i0(L))
    n = L.dim
    rels = []

    for j in range(n):
        for i in range(n):
            items = [(Diword((j, i), 1), 1), (Diword((i, j), 0), -1)]
            items += _bracket_poly(L, i, j, (), 0)
            rels.append(DiPolynomial(items))

    for j in range(n):
        for i in range(j):
            for t in range(n):
                items = [(Diword((j, i, t), 2), 1),
                         (Diword((i, j, t), 2), -1)]
                items += _bracket_poly(L, i, j, (t,), 1)
                rels.append(DiPolynomial(items))

    for i in i0:
        for t in range(n):
            rels.append(DiPolynomial({Diword((i, t), 1): 1}))

    for t in range(n):
        for j in range(n):
            for i in range(j):
                items = [(Diword((t, j, i), 0), 1),
                         (Diword((t, i, j), 0), -1)]
                items += [(Diword((t, k), 0), c)
                          for k, c in L.bracket_of(i, j).items()]
                rels.append(DiPolynomial(items))

    for t in range(n):
        for i in i0:
            rels.append(DiPolynomial({Diword((t, i), 0): 1}))

    return rels


def keyed_rows(self, max_deg):
    """The bounded ideal rows (d, {key(m): coefficient}) in ascending
    d, as `span` inserts them: every S-word of degree d <= max_deg, by
    d, element and context, each monomial keyed once per call.  An
    override may leave out an S-word of degree d that the rows it
    keeps of degree <= d span."""
    key, keys = self.elem._key, {}
    for d in range(self.low, max_deg + 1):
        for s, lw in zip(self.elements, self.leading_words):
            room = d - self.degree(lw)
            if room >= 0:
                for context in self.contexts(room):
                    yield d, {keys[m] if m in keys else
                              keys.setdefault(m, key(m)): c for m, c
                              in self.multiply(context, s).terms.items()}


def keyed_dialgebra_rows(self, max_deg):
    """The S-words a * s * b of length d <= max_deg, by d, element,
    |a|, a and b: the center inside s, then in a, then in b.  Every
    S-word with the center inside s is kept.  One with the center at
    c outside s is kept only when the center-forgetting image flat(s)
    is nonzero and the letters strictly between the center and s,
    a[c+1:] for c >= 0 or b[:len(b)+c] for c < 0, have no factor
    lw_j.letters of a relation s_j with flat_ok: none of the keys at
    which the reducer rewrites with the center outside.  Relations the
    reducer cannot use get rows too: their S-words are in the ideal.
    Each is {diword_key(w): coefficient}, with |w| taken from the
    term, since a relation need not be homogeneous.

    For every d, the rows kept of length <= d span every S-word of
    length d, so the span, its rank at each length and its pivots are
    those of all S-words.  Take s = s_i, c >= 0, and write a = L*x,
    where L ends at the center.  Every monomial of the S-word has its
    center at c, so its letters decide it: the S-word is
    phi(x*flat(s_i)*b), where phi(y) is the diword L*y centered at c.
    phi is linear and keeps the deg-lex order of words, so the S-word
    is 0 when flat(s_i) is, and otherwise its leading diword is
    w = phi(x*v*b), with v the leading word of flat(s_i).  The proof
    goes by induction on (w, |x|), with L held fixed.  Let x =
    x1*g*x2, where g = lw_j.letters for a relation s_j with flat_ok,
    so that flat(s_j) = k*g + r_j with k != 0 and r_j below g:

        phi(x*flat(s_i)*b) = 1/k * phi(x1*flat(s_j)*x2*u*b), u over
                             the words of flat(s_i),
                           - 1/k * phi(x1*z*x2*flat(s_i)*b), z over
                             the words of r_j,

    with the coefficients of flat(s_i) and r_j.  A term of the first
    sum is the S-word of s_j at (L*x1, x2*u*b, c): its factor x1 is
    shorter than x, and its leading diword is w for u = v and below
    w otherwise.  A term of the second sum is the S-word of s_i at
    (L*x1*z*x2, b, c), whose leading diword is below w, since z < g
    and deg-lex is a monomial order.  None is longer than d, since
    |g| = |lw_j|, no word of r_j is longer than g and no word of
    flat(s_i) is longer than lw_i.  For c < 0 the sides swap: b =
    x*R, where R starts at the center, and the S-word is
    phi(a*flat(s_i)*x).  The argument needs |g| = |lw_j|.  Take for g
    the leading word of an image shorter than its relation's leading
    diword, and the first sum holds S-words longer than d; leaving
    out the rows such a g would leave out changes the span of some
    sets.
    """
    if not self.elements:
        return
    n = self.n
    top = max(max_deg - self.lead_degrees[-1], 0)
    keys = {lw.letters for lw, ok in zip(self.leading_words,
                                          self.flat_ok) if ok}
    words = [list(product(range(n), repeat=length))
             for length in range(top + 1)]
    # the words of length <= top with no key as a factor; a word is
    # clean when both its longest factors are and it is no key
    clean = {()}
    for level in words[1:]:
        clean.update(w for w in level if w[1:] in clean
                     and w[:-1] in clean and w not in keys)
    left = {a: [q for q in range(len(a)) if a[q + 1:] in clean]
            for level in words for a in level}
    right = {b: [r for r in range(-len(b), 0) if b[:len(b) + r] in clean]
             for level in words for b in level}
    # each relation as its length, its terms and its image's terms
    terms = [(len(lw), [(t.letters, len(t), t.center, k)
                        for t, k in s.items()],
              [(x, len(x), k) for x, k in flat.items()])
             for s, lw, flat in zip(self.elements, self.leading_words,
                                    self.flats)]
    for d in range(1, max_deg + 1):
        for length, inside, outside in terms:
            room = d - length
            for la in range(room + 1):
                lb = room - la
                for a in words[la]:
                    for b in words[lb]:
                        yield d, {(la + lt + lb, la + c, a + t + b): k
                                  for t, lt, c, k in inside}
                        if not outside:
                            continue
                        for q in left[a]:
                            yield d, {(la + lx + lb, q, a + x + b): k
                                      for x, lx, k in outside}
                        for r in right[b]:
                            yield d, {(la + lx + lb, la + lx + lb + r,
                                       a + x + b): k
                                      for x, lx, k in outside}


def module_contexts(self, room):
    return product(range(self.nx), repeat=room)


def ac_contexts(self, room):
    """The chains ((0, m1), ..., (0, mk)) of right products by normal
    words whose sizes sum to room, by the size and rank of m1, then
    the rest.

    Every ideal element is a combination of multiplication chains
    applied to a single relation, and anti-commutativity makes
    one-sided chains span both sides.
    """
    if not room:
        yield ()
        return
    for d in range(1, room + 1):
        for m in _normal_by_degree(self.n, d):
            for rest in self.contexts(room - d):
                yield ((0, m),) + rest


# readers of the order keys, the inverses of `deglex_key`, `diword_key`,
# `mword_key` and `ac_key`
def ac_column(k):
    """The tree-word whose `ac_key` is k."""
    if k[0] == 1:
        return k[1]
    return ac_column(k[1]), ac_column(k[2])


TUPLE_READERS = {Polynomial: itemgetter(1),
                 DiPolynomial: lambda k: Diword(k[2], k[1]),
                 ModuleElement: lambda k: ModuleWord(k[1], k[2]),
                 AcPolynomial: ac_column}


def tuple_span(self, max_deg):
    """The span over the order keys of the element class, read back by
    their inverses, that took every kind's rows before they came as int
    codes."""
    return KeySpan(self.elem._key, TUPLE_READERS[self.elem])


class TupleKeyedModule(FreeModule):
    """A `FreeModule` whose span takes every S-word keyed by `mword_key`,
    through the rows of `Structure` and the contexts it had then."""

    rows = keyed_rows
    contexts = module_contexts
    empty_span = tuple_span


class TupleKeyedDialgebra(Dialgebra):
    """A `Dialgebra` whose span takes its rows keyed by `diword_key`."""

    rows = keyed_dialgebra_rows
    empty_span = tuple_span


class TupleKeyedAc(AntiCommutative):
    """An `AntiCommutative` whose span takes every chain product keyed by
    `ac_key`, through the rows of `Structure` and the contexts it had
    then."""

    rows = keyed_rows
    contexts = ac_contexts
    empty_span = tuple_span


def all_context_rows(self, max_deg):
    """The bounded ideal rows (d, {key(m): c}) in ascending d, as `span`
    inserts them: every S-word of degree d <= max_deg, by d, element
    and context."""
    key = self.elem._key
    for d in range(self.low, max_deg + 1):
        for s, lw in zip(self.elements, self.leading_words):
            room = d - self.degree(lw)
            if room >= 0:
                for context in _all_contexts(self, room):
                    yield d, {key(m): c for m, c in
                              self.multiply(context, s).terms.items()}


def _all_contexts(self, room):
    for la in range(room + 1):
        for a in self.monomials(la):
            for b in self.monomials(room - la):
                yield a, b


def all_pairs_failing(self, max_deg=None):
    """(checked, failing) over the compositions (w, result) that
    `find_compositions` gives for every ordered pair of elements, whose
    ambient word w has degree <= max_deg, all of them when max_deg is
    None: how many there are, and those whose result has a nonzero
    normal form."""
    checked = 0
    failing = []
    for f in self.elements:
        for g in self.elements:
            for c in find_compositions(f, g):
                if max_deg is None or self.degree(c.w) <= max_deg:
                    checked += 1
                    if self.normal_form(c.result):
                        failing.append((c.w, c.result))
    return checked, tuple(failing)


def find_bounded_check(self, max_deg):
    """Bounded report: the compositions whose ambient monomial has
    degree <= max_deg, where examined, reduce to 0; every pivot of the
    span at max_deg has an occurrence; irreducible count plus span
    rank matches the monomial count per degree, cumulatively.  Raises
    when the bound cannot hold some relation's leading monomial.  A
    monomial is irreducible when find leaves it: the kind's own
    enumeration of the irreducible monomials is not read."""
    check_bound(max_deg, map(self.degree, self.leading_words))
    failing = None
    if self.compositions is not None:
        failing = self._failing(max_deg)[1]
    span = self.span(max_deg)
    bad = tuple(m for m in span.pivots() if self.find(m) is None)
    table = []
    irr = total = 0
    for d, rank in span.ranks.items():
        for m in self.monomials(d):
            total += 1
            irr += self.find(m) is None
        table.append(DegreeLine(degree=d, irreducible=irr, rank=rank,
                                total=total, ok=(irr + rank == total)))
    return BoundedReport(
        max_deg=max_deg,
        gsb_ok=None if failing is None else not failing,
        failing=failing, leading_ok=not bad, bad_leadings=bad,
        counts_ok=all(line.ok for line in table), table=tuple(table))


class EveryRowAndPair(RewriteSystem):
    """A `RewriteSystem` that checks the bounded conditions as it did
    before it left out rows and pairs."""

    rows = all_context_rows
    _failing = all_pairs_failing
    bounded_check = find_bounded_check
    empty_span = tuple_span  # keyed by deglex_key, as word_rows


def word_rows(self, max_deg):
    """The S-words a*s*b of degree d <= max_deg whose left factor a
    is () or irreducible, by d, element, |a|, a and b; with a
    constant relation, only a = ().  Each is {deglex_key(w): coefficient}."""
    if not self.elements:
        return
    top = max(max_deg - self.lead_degrees[-1], 0)
    left = [[()]] + [[] for _ in range(top)]
    for a in irr_words(self, top):
        if a:
            left[len(a)].append(a)
    for d in range(max_deg + 1):
        for s, lw in zip(self.elements, self.leading_words):
            room = d - len(lw)
            for la in range(room + 1):
                for a in left[la]:
                    for b in self.monomials(room - la):
                        yield d, {deglex_key(w): c for w, c in
                                  _mul_word_poly((a, b), s).terms.items()}


class WordKeyedRows(RewriteSystem):
    """A `RewriteSystem` whose span takes the same rows keyed by
    `deglex_key`, as it did before the rows were built as int codes."""

    rows = word_rows
    empty_span = tuple_span


def rewrite_step(p, find, image):
    """One pass of `rewrite`, or None when no monomial of p has an
    occurrence.

    find(m) returns an occurrence of a leading monomial in the monomial m,
    or None; image(m, occ) is the ideal element the occurrence gives, with
    coefficient 1 at m and smaller monomials elsewhere.  The pass takes
    the key-greatest monomial of p with an occurrence and subtracts its
    coefficient times its image, in one pass over the image's terms.
    """
    for m in sorted(p.terms, key=type(p)._key, reverse=True):
        occ = find(m)
        if occ is not None:
            return p._plus(image(m, occ), -p.terms[m])
    return None


def rewrite(p, find, image):
    """Fixed point of rewriting p by leading monomials, one
    `rewrite_step` at a time.  A pass replaces a monomial by smaller ones,
    so the loop ends, and no monomial of the result has an occurrence.
    """
    while True:
        q = rewrite_step(p, find, image)
        if q is None:
            return p
        p = q


def structure_rows(self, max_deg):
    """The bounded ideal rows (d, {key(m): c}) in ascending d, as `span`
    inserts them: every S-word of degree d <= max_deg, by d, element
    and context.  An override may leave out an S-word of degree d
    that the rows it keeps of degree <= d span."""
    key = self.elem._key
    for d in range(self.low, max_deg + 1):
        for s, lw in zip(self.elements, self.leading_words):
            room = d - self.degree(lw)
            if room >= 0:
                for context in self.contexts(room):
                    yield d, {key(m): c for m, c in
                              self.multiply(context, s).terms.items()}


class EveryDialgebraRow(Dialgebra):
    """A `Dialgebra` whose span takes every S-word, as it did before it
    left out center-outside rows."""

    rows = structure_rows
    empty_span = tuple_span

    @staticmethod
    def multiply(context, s):
        """The diwords a * t * b of the monomials t of s; a center outside
        s is a Python index into the letters and can merge monomials."""
        a, b, c = context
        return DiPolynomial([
            (Diword(a + t.letters + b, len(a) + t.center if c is None
                    else c % (len(a) + len(t) + len(b))), k)
            for t, k in s.items()])

    def contexts(self, room):
        """(a, b, c) with |a| + |b| = room, by |a|, a and b; the center
        inside the relation first, then in a, then in b.  Relations the
        reducer cannot use get contexts too: their S-words are in the
        ideal."""
        for la in range(room + 1):
            lb = room - la
            for a in product(range(self.n), repeat=la):
                for b in product(range(self.n), repeat=lb):
                    yield a, b, None
                    for q in range(la):
                        yield a, b, q
                    for r in range(-lb, 0):
                        yield a, b, r


def _tokenize(text, lineno):
    text = text.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise ParseError(lineno, col, "unexpected character %r" % rest[0])
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect=None, what=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.lineno, self._end_col(),
                             "expected %s at end of line" % (what or expect))
        if expect is not None and (tok[0], tok[1]) != expect and \
                tok[0] != expect:
            raise ParseError(self.lineno, tok[2],
                             "expected %s, found %r" % (what or expect,
                                                        tok[1]))
        self.i += 1
        return tok

    def _end_col(self):
        if self.tokens:
            return self.tokens[-1][2] + len(self.tokens[-1][1])
        return 1

    def error(self, msg):
        tok = self.peek()
        col = tok[2] if tok else self._end_col()
        raise ParseError(self.lineno, col, msg)


def _ac_renorm(tree):
    """Rewrite a raw parsed tree into normal-word form, signs included."""
    if isinstance(tree, int):
        return _lib.AcPolynomial({tree: 1})
    return _lib.ac_mul(_ac_renorm(tree[0]), _ac_renorm(tree[1]))


def _parse_ac_tree(cur, alphabet):
    tok = cur.peek()
    if tok is None:
        cur.error("expected a letter or a parenthesized pair")
    kind, value, col = tok
    if kind == "name":
        cur.next()
        return _rank(cur, alphabet, value, col)
    if (kind, value) == ("op", "("):
        cur.next()
        left = _parse_ac_tree(cur, alphabet)
        right = _parse_ac_tree(cur, alphabet)
        closing = cur.peek()
        if closing is None or (closing[0], closing[1]) != ("op", ")"):
            cur.error("expected )")
        cur.next()
        return (left, right)
    cur.error("expected a letter or (")


def _parse_term(cur, kind, alphabet, mgens):
    """One product term; returns its (monomial, coefficient) pairs.

    A term of numerals alone whose product is 0 has none, which every
    kind reads as zero; other bare scalars are associative only.  An ac
    term gives the pairs of its renormalised tree product."""
    coeff = 1
    letters = []
    center = None
    ygen = None
    trees = []
    saw_atom = False
    while True:
        tok = cur.peek()
        if tok is None:
            break
        tkind, value, col = tok
        if saw_atom:
            if (tkind, value) != ("op", "*"):
                break
            cur.next()
            tok = cur.peek()
            if tok is None:
                cur.error("expected a factor after *")
            tkind, value, col = tok
            if (tkind, value) == ("op", "*"):
                cur.error("expected a factor after *")
        saw_atom = True
        if tkind == "num":
            cur.next()
            num, _, den = value.partition("/")
            try:
                coeff *= exact_div(int(num), int(den or 1))
            except ZeroDivisionError:
                raise ParseError(cur.lineno, col, "zero denominator") from None
            continue
        if ygen is not None:
            raise ParseError(cur.lineno, col,
                             "nothing may follow the module generator")
        if kind == "ac":
            trees.append(_parse_ac_tree(cur, alphabet))
            continue
        if tkind == "name":
            cur.next()
            letters.append(_rank(cur, alphabet, value, col))
            continue
        if (tkind, value) == ("op", "@") and kind == "dialgebra":
            cur.next()
            ntok = cur.next("name", "a generator after @")
            if center is not None:
                raise ParseError(cur.lineno, ntok[2],
                                 "a diword has exactly one center")
            center = len(letters)
            letters.append(_rank(cur, alphabet, ntok[1], ntok[2]))
            continue
        if (tkind, value) == ("op", "[") and kind == "module":
            cur.next()
            ntok = cur.next("name", "a module generator")
            if ntok[1] not in mgens:
                raise ParseError(cur.lineno, ntok[2],
                                 "unknown module generator %r" % ntok[1])
            cur.next(("op", "]"), "]")
            ygen = mgens.index(ntok[1])
            continue
        cur.error("expected a factor")
    if not saw_atom:
        cur.error("expected a term")

    if not coeff and not (letters or trees or ygen is not None):
        return []
    if kind == "assoc":
        return [(tuple(letters), coeff)]
    if kind == "dialgebra":
        if not letters:
            cur.error("a dialgebra term needs letters")
        if center is None:
            cur.error("mark the center letter with @")
        return [(_lib.Diword(tuple(letters), center), coeff)]
    if kind == "module":
        if ygen is None:
            cur.error("a module term ends with [generator]")
        return [(_lib.ModuleWord(tuple(letters), ygen), coeff)]
    if not trees:
        cur.error("an ac term needs a tree or a letter")
    acc = _ac_renorm(trees[0])
    for t in trees[1:]:
        acc = _lib.ac_mul(acc, _ac_renorm(t))
    return acc.scale(coeff).items()


def _parse_expr(cur, kind, alphabet, mgens):
    # reads to the end of the line: a term followed by anything but + or -
    # is an error
    items = []
    sign = 1
    tok = cur.peek()
    if tok and (tok[0], tok[1]) == ("op", "-"):
        cur.next()
        sign = -1
    elif tok and (tok[0], tok[1]) == ("op", "+"):
        cur.next()
    while True:
        items += [(m, sign * c)
                  for m, c in _parse_term(cur, kind, alphabet, mgens)]
        tok = cur.peek()
        if tok is None:
            break
        if (tok[0], tok[1]) == ("op", "+"):
            sign = 1
        elif (tok[0], tok[1]) == ("op", "-"):
            sign = -1
        else:
            cur.error("expected + or - between terms")
        cur.next()
    return _SPECS[kind].elem(items)


def parse_element(text, kind, alphabet, mgens=(), lineno=1):
    """Parse one element in the given structure; raises ParseError."""
    cur = _Cursor(_tokenize(text, lineno), lineno)
    if not cur.tokens:
        cur.error("expected an expression")
    return _parse_expr(cur, kind, alphabet, mgens)


def parse_presentation(text):
    """Parse a presentation file into its kind, alphabets and relations;
    bracket lines give the relations of the enveloping dialgebra of a
    Leibniz algebra."""
    kind = None
    gens = None
    mgens = ()
    bracket = {}
    bracket_pairs = set()
    rel_lines = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.next("name", "a directive")
        word = head[1]
        if word == "kind":
            if kind is not None:
                raise ParseError(lineno, head[2], "duplicate kind line")
            tok = cur.next("name", "one of %s" % (KINDS,))
            if tok[1] not in KINDS:
                raise ParseError(lineno, tok[2],
                                 "kind must be one of %s" % (KINDS,))
            kind = tok[1]
        elif word == "gens":
            if gens is not None:
                raise ParseError(lineno, head[2], "duplicate gens line")
            gens = Alphabet(_names(cur, word, "generator"))
        elif word == "mgens":
            if kind != "module":
                raise ParseError(lineno, head[2],
                                 "mgens lines belong to kind module")
            if mgens:
                raise ParseError(lineno, head[2], "duplicate mgens line")
            mgens = _names(cur, word, "module generator")
        elif word == "bracket":
            if kind != "dialgebra":
                raise ParseError(lineno, head[2],
                                 "bracket lines belong to kind dialgebra")
            if gens is None:
                raise ParseError(lineno, head[2], "gens must come first")
            if rel_lines:
                raise ParseError(lineno, head[2],
                                 "bracket and rel lines cannot be mixed")
            ti = cur.next("name", "a generator name")
            tj = cur.next("name", "a generator name")
            cur.next(("op", "="), "=")
            i = _rank(cur, gens, ti[1], ti[2])
            j = _rank(cur, gens, tj[1], tj[2])
            if (i, j) in bracket_pairs:
                raise ParseError(lineno, ti[2], "duplicate bracket line for "
                                 "%s %s" % (ti[1], tj[1]))
            bracket_pairs.add((i, j))
            combo = _parse_expr(cur, "assoc", gens, ())
            for w, c in combo.items():
                if len(w) != 1:
                    raise ParseError(lineno, head[2],
                                     "bracket values are linear in the "
                                     "generators")
                bracket[(i, j, w[0])] = c
        elif word == "rel":
            if kind is None:
                raise ParseError(lineno, head[2], "kind must come first")
            if gens is None:
                raise ParseError(lineno, head[2], "gens must come first")
            if bracket_pairs:
                raise ParseError(lineno, head[2],
                                 "bracket and rel lines cannot be mixed")
            if kind == "module" and not mgens:
                raise ParseError(lineno, head[2],
                                 "mgens must come before module relations")
            elem = _parse_expr(cur, kind, gens, mgens)
            if not elem:
                raise ParseError(lineno, head[2], "the relation is zero")
            rel_lines.append(elem.monic())
        else:
            raise ParseError(lineno, head[2],
                             "unknown directive %r" % word)

    if kind is None:
        raise ParseError(1, 1, "missing kind line")
    if gens is None:
        raise ParseError(1, 1, "missing gens line")
    if kind == "module" and not mgens:
        raise ParseError(1, 1, "kind module needs an mgens line")

    relations = rel_lines
    if bracket_pairs:
        try:
            relations = _lib.leibniz_enveloping(
                _lib.LeibnizAlgebra(dim=len(gens), bracket=bracket))
        except ValueError as exc:
            raise ParseError(1, 1, str(exc)) from None
    return PresentationFile(kind=kind, alphabet=gens, mgens=mgens,
                            relations=relations)
