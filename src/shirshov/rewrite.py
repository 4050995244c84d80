"""The free associative algebra as a `core.Structure`: monic relations
over an alphabet, their compositions, reduction steps and normal forms,
irreducible-word enumeration, and the bounded-degree ideal span.  The
S-word of a relation s in the context (a, b) is a*s*b.

The reduction strategy is fixed so every run is reproducible: rewrite the
order-greatest reducible monomial, using the order-greatest applicable
leading word (ties broken by element position) at its leftmost occurrence.
`find` realises the strategy by probing the factors of a monomial,
longest length first, against the index of leading words that
`core.Structure` builds, instead of searching the monomial once per
element.
"""

from collections import namedtuple
from itertools import accumulate, product

from .core import Polynomial, Structure, VectorSpan, _value, check_letters


def _firsts(n, top):
    # the code of the first word of each length 0..top: the number of
    # shorter words
    return list(accumulate((n ** k for k in range(top)), initial=0))


def word_code(word, n, first=()):
    """The place of word in the deg-lex order of the words over n letters,
    () first: (n**|w| - 1) // (n - 1) plus w read as a base-n numeral, or
    |w| when n = 1.  None when a letter is outside range(n), since such a
    word has no place, and the code computed from it could be another
    word's.  first, `_firsts(n, top)` built once, saves building it."""
    letters = range(n)
    for x in word:
        if x not in letters:
            return None
    if len(word) >= len(first):
        first = _firsts(n, len(word))
    return first[len(word)] + _value(word, n)


def code_word(code, n):
    """The word whose `word_code` over n letters is code."""
    if n == 1:
        return (0,) * code
    length, count = 0, 1  # count: the words of this length
    while code >= count:
        code -= count
        count *= n
        length += 1
    word = [0] * length
    for i in range(length - 1, -1, -1):
        code, word[i] = divmod(code, n)
    return tuple(word)


def _mul_word_poly(context, p):
    # a*p*b for the context (a, b); t -> a*t*b is one-to-one, so the
    # terms need no merging
    a, b = context
    return Polynomial._of({a + t + b: c for t, c in p.terms.items()})


class RewriteSystem(Structure):
    """Monic nonzero relations over a shared alphabet and order.

    Rewriting with an element replaces its leading word by the negated
    tail, which is strictly smaller, so every reduction terminates.  A
    relation may be a constant: its leading word is the empty word, which
    occurs in every word, so the quotient is trivial.  The degree of a
    word is its length.

    Polynomial fixes the leading terms by the degree-lexicographic order,
    so that is the one order a system is built over: an order with
    another key is refused here, which covers find, normal_form,
    irr_words and the compositions.  Two systems are equal when their
    elements and orders are; a system is mutable, so it has no hash.
    """

    elem = Polynomial
    degree = staticmethod(len)

    def __init__(self, elements, order):
        if order.key is not Polynomial._key:
            raise ValueError("the order disagrees with the leading terms, "
                             "which Polynomial picks by deg-lex")
        self.order = order
        super().__init__(elements)
        n = len(order.alphabet)
        for p in self.elements:
            for w in p.terms:
                check_letters(w, n)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.elements, self.order) == (other.elements, other.order)

    __hash__ = None

    def find(self, word):
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

    multiply = staticmethod(_mul_word_poly)

    def image(self, word, occ):
        """The terms of a*s*b other than word = a*lw*b, for the
        occurrence occ = (i, (a, b)) of element i: s is monic and t ->
        a*t*b is one to one, so they need no scaling and no merging."""
        i, (a, b) = occ
        lw = word[len(a):len(word) - len(b)]
        return [(a + t + b, c) for t, c in self.elements[i].terms.items()
                if t != lw]

    def rows(self, max_deg):
        """The S-words a*s*b of degree d <= max_deg whose left factor a
        is () or irreducible, by d, element, |a|, a and b; with a
        constant relation, only a = ().  Each comes in the key space of
        `empty_span`, as {word_code(w): coefficient}: the code of a*t*b is
        that of the first word of its length plus (v(a) * n**|t| + v(t))
        * n**|b| + v(b), where v reads a word as a base-n numeral, so it
        is computed from the values of the left factors and of the terms
        of s, once each, while v(b) runs over range(n**|b|) in the order
        of the words b.

        For every d, those of degree <= d span every S-word of degree d,
        so the span, its rank at each degree and its pivots are those of
        all S-words, even for non-homogeneous and constant relations.  The proof goes
        by induction on (w, |a|), where w = a*lw_i*b is the leading word
        of the S-word a*s_i*b of degree d = |w|.  When a = a1*lw_j*a2 is
        reducible, write s_i = lw_i + r_i and s_j = lw_j + r_j:

            a*s_i*b = a1*s_j*(a2*lw_i*b)
                      + a1*s_j*(a2*u*b), u over the words of r_i,
                      - (a1*v*a2)*s_i*b, v over the words of r_j,

        with the coefficients of r_i and r_j.  The first S-word has the
        leading word w and the shorter left factor a1.  Every other one
        has a leading word below w, since u < lw_i, v < lw_j and deg-lex
        is a monomial order, and so a degree <= d.  A constant relation
        has the leading word (), which occurs in every nonempty a.
        """
        if not self.elements:
            return
        n = len(self.order.alphabet)
        top = max(max_deg - self.lead_degrees[-1], 0)
        levels = self.irreducible_by_degree(top)
        left = [[0]] + [[_value(a, n) for a in levels[la]]  # v(a) by |a|
                        for la in range(1, top + 1)]
        power = [n ** k for k in range(max_deg + 1)]
        first = _firsts(n, max_deg)
        terms = [[(len(t), _value(t, n), c) for t, c in s.terms.items()]
                 for s in self.elements]
        for d in range(max_deg + 1):
            for s, lw in zip(terms, self.leading_words):
                room = d - len(lw)
                for la in range(room + 1):
                    lb = room - la
                    nb = power[lb]
                    for va in left[la]:
                        at = [(first[la + lt + lb]
                               + (va * power[lt] + vt) * nb, c)
                              for lt, vt, c in s]
                        for vb in range(nb):
                            yield d, {k + vb: c for k, c in at}

    def empty_span(self, max_deg):
        """The span of `rows`, keyed by `word_code` at every degree, over
        first codes built once: it reads a code back by `code_word`."""
        n = len(self.order.alphabet)
        first = _firsts(n, max_deg)
        return VectorSpan(lambda w: word_code(w, n, first),
                          lambda k: code_word(k, n))

    def monomials(self, d):
        return product(range(len(self.order.alphabet)), repeat=d)

    def count(self, d):
        return len(self.order.alphabet) ** d

    def irreducible_by_degree(self, max_deg):
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

    def compositions(self):
        """The compositions (w, result) of every ordered pair (i, j), by
        i, then j, as `find_compositions` lists them.  Only pairs whose
        leading words overlap are tried: a proper suffix of lw_i is a
        proper prefix of lw_j, or lw_j is a factor of lw_i; every other
        pair has no composition."""
        leads = self.leading_words
        heads = {}  # each leading word and each proper prefix -> elements
        for j, lw in enumerate(leads):
            heads.setdefault(lw, []).append(j)
            for k in range(1, len(lw)):
                heads.setdefault(lw[:k], []).append(j)
        for i, lw in enumerate(leads):
            n = len(lw)
            found = set()
            for p in range(n + 1):
                for q in range(p, n + 1):
                    for j in heads.get(lw[p:q], ()):
                        # lw_j is lw[p:q], or lw[p:] is a proper suffix
                        # and a prefix of lw_j
                        if len(leads[j]) == q - p or 0 < p < q == n:
                            found.add(j)
            for j in sorted(found):
                for c in find_compositions(self.elements[i], self.elements[j]):
                    yield c.w, c.result


def find_factor(word, factor, start=0):
    """Index of the first occurrence of factor in word at or after start,
    or None.  The empty factor matches at start."""
    n, m = len(word), len(factor)
    for i in range(start, n - m + 1):
        if word[i:i + m] == factor:
            return i
    return None


class Composition(namedtuple("Composition",
                             "kind w left right a b result")):
    """One overlap or containment of two leading words.

    kind is "intersection" (w = lead(f)*b = a*lead(g) with a proper
    overlap) or "inclusion" (w = lead(f) = a*lead(g)*b).  result is
    f*b - a*g resp. f - a*g*b; its leading word, when nonzero, is
    strictly below w.
    """

    __slots__ = ()


def _overlaps(lf, lg):
    """(kind, a, b) of every overlap of the leading words lf and lg, in
    ascending deg-lex order of the ambient word w.

    Inclusions come first, leftmost first: they cover every occurrence of
    lg inside lf (w = lf = a*lg*b), the identity occurrence of a word in
    itself included.  Intersections follow, longest overlap first: they
    pair every proper suffix of lf with an equal proper prefix of lg
    (w = lf*b = a*lg, so |w| > |lf| and a longer overlap makes w
    shorter); the symmetric overlaps belong to the swapped pair.
    """
    out = []
    if len(lg) <= len(lf):
        pos = find_factor(lf, lg)
        while pos is not None:
            out.append(("inclusion", lf[:pos], lf[pos + len(lg):]))
            pos = find_factor(lf, lg, pos + 1)
    for k in range(min(len(lf), len(lg)) - 1, 0, -1):
        if lf[len(lf) - k:] == lg[:k]:
            out.append(("intersection", lf[:len(lf) - k], lg[k:]))
    return out


def find_compositions(f, g, *, left=0, right=1):
    """All compositions of the ordered pair (f, g) of monic polynomials,
    ascending by ambient word under deg-lex, the order of their leading
    terms, as `_overlaps` lists them; left and right label f and g in
    each Composition.

    Intersections give f*b - a*g, inclusions f - a*g*b.  Both terms lead
    with w, which cancels, and deg-lex is a monomial order, so the
    result's leading word lies strictly below w.  The identity inclusion
    of an element in itself is left out: its result is exactly zero.
    """
    lf = f.leading_monomial()
    out = []
    for kind, a, b in _overlaps(lf, g.leading_monomial()):
        if kind == "intersection":
            out.append(Composition(kind, lf + b, left, right, a, b,
                                   _mul_word_poly(((), b), f)
                                   - _mul_word_poly((a, ()), g)))
        elif a or b or f != g:
            out.append(Composition(kind, lf, left, right, a, b,
                                   f - _mul_word_poly((a, b), g)))
    return out


# perfbench imports it
def normal_form(p, system):
    """Fully reduced representative of p modulo the system."""
    return system.normal_form(p)


def irr_words(system, max_len):
    """All words of length <= max_len containing no leading word, ascending."""
    return system.irreducible(max_len)


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
