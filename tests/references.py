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
`rewrite_step` and the loop over it.  The reducer before it folded each
image's pairs into an integer working vector is kept as `terms_rewrite`,
with the Terms image it took as `structure_image`; `terms_image` reads
today's image hook as such a Terms.  `pair_normal_form`, which has no
caller in the library, is kept here with the image hook it passes to
`shirshov.core.rewrite`.  The presentation parser before its
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
The bounded check before it read one cached monomial table per kind,
shape and bound is kept as `dict_span`, the `Structure.empty_span` that
built a fresh code dict per check; `pivot_bounded_check`, whose
condition (ii) called `is_pivot` per irreducible monomial;
`module_irreducible_by_degree`, which hashed a module word per
candidate; and `ac_mul_rows`, the anti-commutative rows that ordered
each chain product by `ac_key` through `ac_mul`.  `PerCheckModule`,
`PerCheckDialgebra` and `PerCheckAc` check with them.
The associative `find` and `irreducible_by_degree` before they read an
automaton of the leading words are kept as `slicing_find`, which sliced
every position of a word once per leading degree, and
`probing_irreducible_by_degree`, which probed the suffixes of each word
at the leading degrees; `SlicingSystem` uses both.
The enumerations of the irreducible monomials before they listed int
codes grown from the degree below are kept as
`parts_irreducible_by_degree`, the walk over the parts of every
monomial of every degree, which `PerCheckDialgebra` and `PerCheckAc`
read; `coded_module_irreducible_by_degree`, which read the module words
off `monomials(d)`; and `automaton_irreducible_by_degree`, the automaton
walk that carried words.  The tuple-keyed spans key no monomial by its
code, so `TupleKeyedModule`, `TupleKeyedDialgebra`, `TupleKeyedAc` and
`EveryDialgebraRow` check with `pivot_bounded_check` over the parts
walk, and `WordKeyedRows` takes its left factors from the automaton
walk.
The irreducible diwords and tree-words before they were listed by their
defining rule are kept as `grown_dialgebra_irreducible_codes` and
`grown_ac_irreducible_codes`, which grew each degree's codes from the
codes of the degree below by code arithmetic.
`membership_oracle`, `staircase_equals_irr`, `ac_flatten`,
`all_diwords` and `is_normal_acword`, which had no caller in the
library, are kept here verbatim.
"""

from bisect import insort
from collections import Counter
from functools import lru_cache
from itertools import accumulate, product
from operator import itemgetter

import shirshov as _lib
import shirshov.core as _core
from shirshov.anticomm import (AcPolynomial, AntiCommutative, _lift,
                               _normal_key, _numbering, ac_key, ac_mul,
                               ac_size)
from shirshov.cli import (_SPECS, _TOKEN, KINDS, ParseError,
                          PresentationFile, _names, _rank)
from shirshov.catalog import chinese_gsb, is_staircase
from shirshov.core import (Alphabet, BoundedReport, DegreeLine, Polynomial,
                           _value, add_scaled, check_bound, deglex_key,
                           exact, exact_div)
from shirshov.core import VectorSpan as KeySpan
from shirshov.dialgebra import (Dialgebra, DiPolynomial, Diword,
                                leibniz_check, leibniz_i0)
from shirshov.freemodule import FreeModule, ModuleElement, ModuleWord, act
from shirshov.rewrite import (RewriteSystem, _mul_word_poly, find_compositions,
                              find_factor, irr_words, word_code)


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


def parts_irreducible_by_degree(self, max_deg):
    """{d: the monomials of degree d with no occurrence, ascending}
    for low <= d <= max_deg; a walk over parts stops at a key."""
    index = self.lead_index
    return {d: [m for m in self.monomials(d)
                if not any(part in index for part, _ in self.parts(m))]
            for d in range(self.low, max_deg + 1)}


def coded_module_irreducible_by_degree(self, max_deg):
    """{d: the module words with |u| = d that no leading word ends,
    ascending}, grown a degree at a time: u.y is irreducible exactly
    when (u[1:], y) is and u.y is no key.  monomials(d) lists the
    words by u, then y, so x*u.y sits x * len(monomials(d - 1))
    places after the place of u.y in monomials(d - 1); its code,
    which no key may have, is its place plus that of monomials(d)[0]."""
    nx, ny = self.nx, self.ny
    leads = {ny * word_code(lw.u, nx) + lw.y for lw in self.lead_index}
    out, words, kept, start = {}, (), (), 0
    for d in range(max_deg + 1):
        step, words = len(words), self.monomials(d)
        start += step  # the code of words[0]
        grown = (range(len(words)) if not d else
                 (x * step + j for x in range(nx) for j in kept))
        kept = [i for i in grown if start + i not in leads]
        out[d] = [words[i] for i in kept]
    return out


def automaton_irreducible_by_degree(self, max_deg):
    """{d: the words of length d containing no leading word,
    ascending}, breadth-first: a word is kept iff its parent was and
    its state in the automaton has no output in `lead_index`, which
    would be a suffix.  A leading word () is a factor of every word."""
    if max_deg < 0:
        raise ValueError("max_len must be >= 0")
    dfa = self._automaton()
    index, out, fail, words = (self.lead_index, dfa.out, dfa.fail,
                               dfa.words)
    letters = range(len(self.order.alphabet))
    frontier = [] if () in index else [((), 0)]
    levels = {0: [w for w, _ in frontier]}
    for length in range(1, max_deg + 1):
        new = []
        for w, s in frontier:
            row = dfa.delta[s]
            for x in letters:
                t = out[row[x]]
                while t and words[t] not in index:
                    t = out[fail[t]]
                if not t:
                    new.append((w + (x,), row[x]))
        frontier = new
        levels[length] = [w for w, _ in new]
    return levels


def grown_dialgebra_irreducible_codes(self, max_deg):
    """{d: the codes of the diwords of length d with no compatible
    occurrence, ascending}, grown from length d - 1.  Every factor of
    a diword w but w itself lies in w[1:] or in w[:-1], and holds the
    center there exactly when it does in w, if that side keeps the
    center.  So w is irreducible exactly when its sides that keep the
    center are and no factor that touches the other end is a key:
    with the center inside, both sides keep it and only w is probed;
    at the first letter, w[:-1] keeps it and every suffix is probed;
    at the last, w[1:] keeps it and every prefix is probed.  A factor
    that holds the center is probed by its code, and any other by the
    value of its letters among the letter keys of its length."""
    n = self.n
    power = [n ** k for k in range(max_deg + 1)]
    first = list(accumulate((k * power[k] for k in range(max_deg)),
                            initial=0))
    whole, flat = set(), {}
    for key in self.lead_index:
        if not isinstance(key, Diword):
            flat.setdefault(len(key), set()).add(_value(key, n))
        elif len(key) <= max_deg:
            whole.add(first[len(key)] + key.center * power[len(key)]
                      + _value(key.letters, n))
    out = {}
    if max_deg >= 1:
        out[1] = [x for x in range(n) if x not in whole]
    for d in range(2, max_deg + 1):
        p, below = power[d - 1], set(out[d - 1])
        # the letter keys shorter than w by length L: n**L cuts the
        # suffix (v % n**L) and n**(d - L) the prefix (v // n**(d - L))
        # of that length from the value v of w's letters
        ends = [(power[length], power[d - length], values)
                for length, values in flat.items() if length < d]
        level, last = [], []
        for u in out[d - 1]:
            c, v = divmod(u - first[d - 1], p)
            at = first[d] + c * power[d] + v * n
            if c == 0:
                level += [at + x for x in range(n)
                          if at + x not in whole
                          and not any((v * n + x) % q in values
                                      for q, _, values in ends)]
            else:
                side = first[d - 1] + (c - 1) * p
                level += [at + x for x in range(n)
                          if at + x not in whole
                          and side + (v * n + x) % p in below]
            if c == d - 2:
                last.append(v)
        at = first[d] + (d - 1) * power[d]
        level += [at + w for x in range(n) for v in last
                  if at + (w := x * p + v) not in whole
                  and not any(w // q in values for _, q, values in ends)]
        out[d] = level
    return out

def grown_ac_irreducible_codes(self, max_deg):
    """{d: the `_numbering` codes of the normal tree-words of size d
    with no leading word as a subtree, ascending}, grown from the sizes
    below: every subtree of (l, r) but itself is a subtree of l or of
    r, so (l, r) is irreducible exactly when both children are and it
    is no key.  The words of size d come by left size ls, then left,
    then right: a block of count(ls) * count(d - ls) pairs, or i * (i
    - 1) / 2 pairs before the left word of index i when the sizes are
    equal, since then the right one is the smaller."""
    codes = _numbering(self.n, max_deg)[1]
    leads = set(map(codes.get, self.lead_index))
    count = [0] + [self.count(d) for d in range(1, max_deg + 1)]
    first = list(accumulate(count, initial=0))  # by size: the first code
    out = {}
    if max_deg >= 1:
        out[1] = [x for x in range(self.n) if x not in leads]
    for d in range(2, max_deg + 1):
        level, at = [], first[d]
        for ls in range((d + 1) // 2, d):
            rs = d - ls
            same = ls == rs
            for i, l in enumerate(out[ls]):
                il = l - first[ls]
                row = at - first[rs] + (il * (il - 1) // 2 if same
                                        else il * count[rs])
                level += [k for r in (out[rs][:i] if same else out[rs])
                          if (k := row + r) not in leads]
            at += (count[ls] * (count[ls] - 1) // 2 if same
                   else count[ls] * count[rs])
        out[d] = level
    return out


def is_pivot(self, column):
    """Whether column is the pivot of a stored row."""
    k = self.key(column)
    return k is not None and k in self._rows


def pivot_bounded_check(self, max_deg):
    """Bounded report: the compositions whose ambient monomial has
    degree <= max_deg, where examined, reduce to 0; every pivot of the
    span at max_deg has an occurrence; irreducible count plus span
    rank matches the monomial count per degree, cumulatively.  Raises
    when the bound cannot hold some relation's leading monomial."""
    check_bound(max_deg, map(self.degree, self.leading_words))
    failing = None
    if self.compositions is not None:
        failing = self._failing(max_deg)[1]
    span = self.span(max_deg)
    levels = self.irreducible_by_degree(max_deg)
    # an irreducible pivot has no occurrence; codes follow the order,
    # so the levels read backwards give them descending
    bad = tuple(m for level in reversed(levels.values())
                for m in reversed(level) if is_pivot(span, m))
    table = []
    irr = total = 0
    for d, rank in span.ranks.items():
        total += self.count(d)
        irr += len(levels[d])
        table.append(DegreeLine(degree=d, irreducible=irr, rank=rank,
                                total=total, ok=(irr + rank == total)))
    return BoundedReport(
        max_deg=max_deg,
        gsb_ok=None if failing is None else not failing,
        failing=failing, leading_ok=not bad, bad_leadings=bad,
        counts_ok=all(line.ok for line in table), table=tuple(table))


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
    bounded_check = pivot_bounded_check
    irreducible_by_degree = parts_irreducible_by_degree


class TupleKeyedDialgebra(Dialgebra):
    """A `Dialgebra` whose span takes its rows keyed by `diword_key`."""

    rows = keyed_dialgebra_rows
    empty_span = tuple_span
    bounded_check = pivot_bounded_check
    irreducible_by_degree = parts_irreducible_by_degree


class TupleKeyedAc(AntiCommutative):
    """An `AntiCommutative` whose span takes every chain product keyed by
    `ac_key`, through the rows of `Structure` and the contexts it had
    then."""

    rows = keyed_rows
    contexts = ac_contexts
    empty_span = tuple_span
    bounded_check = pivot_bounded_check
    irreducible_by_degree = parts_irreducible_by_degree


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
    irreducible_by_degree = automaton_irreducible_by_degree


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


def terms_rewrite(p, find, image):
    """Normal form of p: rewrite its key-greatest monomial with an
    occurrence until none is left.

    find(m) returns an occurrence of a leading monomial in the monomial m,
    or None; image(m, occ) is the ideal element the occurrence gives, with
    coefficient 1 at m and smaller monomials elsewhere.  A step subtracts
    the coefficient of m times its image, which changes only monomials
    below m.  So the monomials are settled once each, greatest first: an
    irreducible one keeps its coefficient for good, and a reducible one is
    rewritten, the image's new monomials joining the pending ones below
    it.  Returns p itself when nothing was rewritten.
    """
    key = type(p)._key
    terms = p.terms
    pending = sorted((key(m), m) for m in terms)  # ascending
    while pending:
        m = pending.pop()[1]
        c = terms.get(m)
        if c is None:  # cancelled by an earlier step
            continue
        occ = find(m)
        if occ is None:
            continue
        if terms is p.terms:
            terms = dict(terms)
        img = image(m, occ).terms
        for u in img:
            if u not in terms:
                # pending already if an earlier step cancelled it; its
                # second copy then finds it gone or is probed again
                insort(pending, (key(u), u))
        add_scaled(terms, img.items(), -c)
    return p if terms is p.terms else p._of(terms)


def structure_image(self, m, occ):
    """The S-word of the occurrence occ = (i, context) of element i
    in m, scaled to coefficient 1 at m."""
    i, context = occ
    p = self.multiply(context, self.elements[i])
    c = p.terms[m]
    return p if c == 1 else p.scale(exact_div(1, c))


def terms_image(structure):
    """The structure's image hook read as `terms_rewrite` and
    `rewrite_step` take it: image(m, occ) as the element of the
    structure's kind with coefficient 1 at m and the yielded pairs
    elsewhere, wrapped as they come so their exactness shows."""
    def image(m, occ):
        return structure.elem._of({m: 1, **dict(structure.image(m, occ))})
    return image


def pair_normal_form(m, algebra, S):
    """Normal form modulo a module-side set S and an algebra-side
    rewrite system acting from the left.

    Algebra leading words rewrite anywhere inside u-parts, because any
    product a * s * b * y lies in the submodule generated by the pair:
    the first leading word with an occurrence, at its leftmost position.
    Alternates the two rewritings to a fixed point.
    """
    if not isinstance(algebra, RewriteSystem):
        raise TypeError("algebra side must be a RewriteSystem")
    # FreeModule refuses an S that is not made of module elements
    ny = 1 + max((mw.y for p in (*S, m) if isinstance(p, ModuleElement)
                  for mw in p.terms), default=0)
    module = FreeModule(S, len(algebra.order.alphabet), ny)
    leads = algebra.leading_words

    def find(mw):
        for i, lw in enumerate(leads):
            pos = find_factor(mw.u, lw)
            if pos is not None:
                return i, pos
        return None

    def image(mw, occ):
        i, pos = occ
        a, b = mw.u[:pos], mw.u[pos + len(leads[i]):]
        return [(ModuleWord(a + t + b, mw.y), c)
                for t, c in algebra.elements[i].items() if t != leads[i]]

    while True:
        m2 = _core.rewrite(module.normal_form(m), find, image)
        if m2 == m:
            return m
        m = m2


def membership_oracle(p, system, max_deg):
    """Exact membership of p in the bounded span of the system's S-words,
    the products a * s * b for an associative system.

    True is a certificate that p lies in the ideal.  False only means p is
    not reachable within the degree bound: ideal members whose expressions
    need monomials of degree above max_deg are reported False, so the
    oracle is conservative.  Raises when p itself has a monomial of degree
    above max_deg, as the system measures it; every kind's order puts a
    monomial of the greatest degree first.
    """
    if not p:
        return True
    if system.degree(p.leading_monomial()) > max_deg:
        raise ValueError(
            "max_deg %d is below the degree of p's largest monomial" % max_deg)
    return system.span(max_deg).contains(p.terms)

def staircase_equals_irr(k, max_len):
    """Whether the staircase words and the irreducible words coincide up
    to the length bound."""
    system = chinese_gsb(k)
    irr = set(irr_words(system, max_len))
    stair = set()
    for n in range(max_len + 1):
        for u in product(range(k), repeat=n):
            if is_staircase(u, k):
                stair.add(u)
    return irr == stair

def ac_flatten(t):
    """Left-to-right leaf sequence as a plain word."""
    if isinstance(t, int):
        return (t,)
    return ac_flatten(t[0]) + ac_flatten(t[1])


def all_diwords(n_letters, length):
    """Every diword of the exact length over ranks 0..n_letters-1."""
    out = []
    for letters in product(range(n_letters), repeat=length):
        for c in range(length):
            out.append(Diword(letters, c))
    return out


def is_normal_acword(t):
    """Left > right at every internal node."""
    return _normal_key(t) is not None


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
    bounded_check = pivot_bounded_check
    irreducible_by_degree = parts_irreducible_by_degree

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


def dict_span(self, max_deg):
    """The VectorSpan that `span` inserts `rows(max_deg)` into, keyed
    by one dict: a monomial of degree <= max_deg by its code, its
    place in the kind's order, and any other column by None."""
    words = [m for d in range(self.low, max_deg + 1)
             for m in self.monomials(d)]
    return KeySpan({m: i for i, m in enumerate(words)}.get,
                   words.__getitem__)


def module_irreducible_by_degree(self, max_deg):
    """{d: the module words with |u| = d that no leading word ends,
    ascending}, grown a degree at a time: u.y is irreducible exactly
    when (u[1:], y) is and u.y is no key.  monomials(d) lists the
    words by u, then y, so x*u.y sits x * len(monomials(d - 1))
    places after the place of u.y in monomials(d - 1)."""
    index = self.lead_index
    out, words, kept = {}, (), ()
    for d in range(max_deg + 1):
        step, words = len(words), self.monomials(d)
        grown = (range(len(words)) if not d else
                 (x * step + j for x in range(self.nx) for j in kept))
        kept = [i for i in grown if words[i] not in index]
        out[d] = [words[i] for i in kept]
    return out


def ac_mul_rows(self, max_deg):
    """(d, {code: coefficient}) for the nonzero chain products ((s m1)
    ... mk) of a relation s by normal words, d = |lead s| + |m1| + ...
    + |mk| <= max_deg, level by level: each is yielded once and
    extended by every normal word that fits.  They span the ideal,
    since anti-commutativity makes one-sided chains span both sides,
    and a chain that reaches 0 stays 0, as the product is bilinear."""
    code = self.empty_span(max_deg).key
    levels = {}
    for s, lw in zip(self.elements, self.leading_words):
        levels.setdefault(ac_size(lw), []).append(s)
    for d in range(1, max_deg + 1):
        for p in levels.pop(d, ()):
            yield d, {code(m): c for m, c in p.terms.items()}
            for e in range(1, max_deg - d + 1):
                for m in _normal_by_degree(self.n, e):
                    q = ac_mul(p, m)
                    if q:
                        levels.setdefault(d + e, []).append(q)


class PerCheckModule(FreeModule):
    """A `FreeModule` that checks the bounded conditions as it did before
    they read a cached monomial table."""

    empty_span = dict_span
    bounded_check = pivot_bounded_check
    irreducible_by_degree = module_irreducible_by_degree


class PerCheckDialgebra(Dialgebra):
    """A `Dialgebra` that checks the bounded conditions as it did before
    they read a cached monomial table, with its irreducible diwords
    found by walking the parts of every diword."""

    empty_span = dict_span
    bounded_check = pivot_bounded_check
    irreducible_by_degree = parts_irreducible_by_degree


class PerCheckAc(AntiCommutative):
    """An `AntiCommutative` that checks the bounded conditions as it did
    before they read a cached monomial table, with its chain products
    taken by `ac_mul` and its irreducible tree-words found by walking
    the subtrees of every normal tree-word."""

    empty_span = dict_span
    bounded_check = pivot_bounded_check
    rows = ac_mul_rows
    irreducible_by_degree = parts_irreducible_by_degree



def slicing_find(self, word):
    """(i, (a, b)) where word = a * lw * b for the order-greatest
    leading word lw occurring in word, i its first element and a the
    prefix of its leftmost occurrence, or None.  Under the
    degree-lexicographic order the longest length with a hit wins,
    then the lexicographically greatest factor."""
    index = self.lead_index
    n = len(word)
    for m in self.lead_degrees:
        best = None
        for pos in range(n - m + 1):
            u = word[pos:pos + m]
            if u in index and (best is None or u > best):
                best, at = u, pos
        if best is not None:
            return index[best], (word[:at], word[at + m:])
    return None


def probing_irreducible_by_degree(self, max_deg):
    """{d: the words of length d containing no leading word,
    ascending}, breadth-first: a word is kept iff its parent was and
    no leading word is a suffix of it, probed at the leading degrees,
    shortest first.  A leading word () is a factor of every word."""
    if max_deg < 0:
        raise ValueError("max_len must be >= 0")
    index = self.lead_index
    degrees = self.lead_degrees[::-1]
    n = len(self.order.alphabet)
    frontier = [] if () in index else [()]
    out = {0: frontier}
    for length in range(1, max_deg + 1):
        probes = [m for m in degrees if m <= length]
        new = []
        for w in frontier:
            for letter in range(n):
                u = w + (letter,)
                for m in probes:
                    if u[-m:] in index:
                        break
                else:
                    new.append(u)
        out[length] = frontier = new
    return out


class SlicingSystem(RewriteSystem):
    """A `RewriteSystem` that finds leading words and irreducible words
    as it did before it read an automaton of its leading words."""

    find = slicing_find
    irreducible_by_degree = probing_irreducible_by_degree

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
