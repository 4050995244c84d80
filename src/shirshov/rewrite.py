"""The free associative algebra as a `core.Structure`: monic relations
over an alphabet, their compositions, reduction steps and normal forms,
irreducible-word enumeration, and the bounded-degree ideal span.  The
S-word of a relation s in the context (a, b) is a*s*b.

The reduction strategy is fixed so every run is reproducible: rewrite the
order-greatest reducible monomial, using the order-greatest applicable
leading word (ties broken by element position) at its leftmost occurrence.
`find` realises the strategy in one left-to-right pass of a word through
an Aho-Corasick automaton of the leading words (Aho and Corasick, CACM 18
(1975)), which `irreducible_codes` walks too.  The automaton is built
on a system's first use and only grows, by Meyer's incremental
construction (Inf. Process. Lett. 21 (1985)).  A word in it counts only
while it is in the system's own `lead_index`, so a word that left the
leading words may stay: the working copies of one completion share one
automaton, and each newly entered leading word is added to it.
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


class _Automaton:
    """The Aho-Corasick automaton of a growing set of words over the
    letters range(n), as a full DFA.  State 0 is the root, the empty
    word; every other state is a nonempty prefix of a word, of length
    depth[s].  delta[s] is its transition row: on letter x, the state of
    the longest suffix of s*x that is a state, and on column n, a letter
    outside the alphabet, the root.  fail[s] is the longest proper suffix
    of s that is a state, and kids[s] the states whose fail is s, the
    inverse failure tree.  An added word w is a terminal state s with
    words[s] = w.  out[s] is the longest terminal suffix of s, 0 when
    there is none, and codes[s] its `word_code`, -1 for none, read over
    `first`, the first code of each length, which grows only for a
    longer word.  The root is never an output: () is left to the
    caller."""

    __slots__ = ("n", "letters", "delta", "fail", "kids", "depth", "out",
                 "words", "codes", "first")

    def __init__(self, n, words):
        self.n, self.letters = n, frozenset(range(n))
        self.first = _firsts(n, 0)
        self.delta = [[0] * (n + 1)]
        self.fail, self.kids, self.depth, self.out = [0], [[]], [0], [0]
        self.words, self.codes = [None], [-1]
        for w in words:
            self.add(w)

    def add(self, word):
        """Make word terminal.  Each new state q = s*x, for s its parent,
        changes only the states that end in s, the failure subtree of s:
        below a state with an x-child they keep their x-transitions, and
        the first such x-children fail to q; the others go to q on x."""
        delta, fail, kids, depth = self.delta, self.fail, self.kids, self.depth
        s = k = 0
        while k < len(word) and depth[delta[s][word[k]]] == k + 1:
            s = delta[s][word[k]]
            k += 1
        for x in word[k:]:
            q, f = len(delta), delta[fail[s]][x] if s else 0
            moved, todo = [], [s]
            while todo:
                r = todo.pop()
                c = delta[r][x]
                if r != s and depth[c] == depth[r] + 1:
                    moved.append(c)
                else:
                    delta[r][x] = q
                    todo.extend(kids[r])
            for c in moved:
                kids[fail[c]].remove(c)
                fail[c] = q
            delta.append(delta[f][:])
            fail.append(f)
            kids[f].append(q)
            kids.append(moved)
            depth.append(depth[s] + 1)
            self.out.append(self.out[f])
            self.codes.append(self.codes[f])
            self.words.append(None)
            s = q
        if s and self.words[s] is None:
            self.words[s] = word
            if len(word) >= len(self.first):
                self.first = _firsts(self.n, len(word))
            code, todo = word_code(word, self.n, self.first), [s]
            while todo:  # the subtree of s down to its own terminals
                r = todo.pop()
                self.out[r], self.codes[r] = s, code
                todo.extend(c for c in kids[r] if self.words[c] is None)


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
    _dfa = None  # the automaton of the leading words; a shallow copy shares it

    def _automaton(self):
        if self._dfa is None:  # built on first use
            self._dfa = _Automaton(len(self.order.alphabet), self.lead_index)
        return self._dfa

    def find(self, word):
        """(i, (a, b)) where word = a * lw * b for the order-greatest
        leading word lw occurring in word, i its first element and a the
        prefix of its leftmost occurrence, or None.  Under the
        degree-lexicographic order the longest wins, then the
        lexicographically greatest, which is the greatest `word_code`.

        One pass through the automaton: at each end it takes the longest
        output that is in `lead_index`, down the failure links past those
        that are not, and keeps it if its code beats the best so far.  A
        letter outside the alphabet, which is any that is no int rank, as
        `check_letters` reads it, takes the pass back to the root, so
        only the occurrences that cross it are lost.  The leading word ()
        occurs at the start of every word, and only when nothing longer
        does it win."""
        dfa = self._automaton()
        index, delta, out, codes = (self.lead_index, dfa.delta, dfa.out,
                                    dfa.codes)
        scan = word
        if not dfa.letters.issuperset(word):
            scan = [x if x in dfa.letters else dfa.n for x in word]
        s = end = 0
        top = -1
        try:
            for i, x in enumerate(scan, 1):
                s = delta[s][x]
                if codes[s] > top:
                    t = out[s]
                    while codes[t] > top:
                        if dfa.words[t] in index:
                            top, best, end = codes[t], dfa.words[t], i
                            break
                        t = out[dfa.fail[t]]
        except TypeError:  # a letter that equals a rank but is no int
            occ = self.find([x if isinstance(x, int) else dfa.n
                             for x in word])
            if occ:  # its context as slices of word
                i, (a, b) = occ
                occ = i, (word[:len(a)], word[len(word) - len(b):])
            return occ
        if top >= 0:
            return index[best], (word[:end - len(best)], word[end:])
        if () in index:
            return index[()], ((), word)
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
        levels = self.irreducible_codes(top)
        first = _firsts(n, max_deg)
        left = [[0]] + [[k - first[la] for k in levels[la]]  # v(a) by |a|
                        for la in range(1, top + 1)]
        power = [n ** k for k in range(max_deg + 1)]
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

    def irreducible_codes(self, max_deg):
        """{d: the `word_code`s of the words of length d containing no
        leading word, ascending}, breadth-first: a word is kept iff its
        parent was and its state in the automaton has no output in
        `lead_index`, which would be a suffix.  Each word is carried as
        its value v, and w*x has the value v * n + x and the code
        first[|w| + 1] + v * n + x.  A leading word () is a factor of
        every word."""
        if max_deg < 0:
            raise ValueError("max_len must be >= 0")
        dfa = self._automaton()
        index, out, fail, words = (self.lead_index, dfa.out, dfa.fail,
                                   dfa.words)
        letters = range(len(self.order.alphabet))
        first = _firsts(len(letters), max_deg)
        frontier = [] if () in index else [(0, 0)]
        levels = {0: [v for v, _ in frontier]}
        for length in range(1, max_deg + 1):
            new = []
            for v, s in frontier:
                row, v = dfa.delta[s], v * len(letters)
                for x in letters:
                    t = out[row[x]]
                    while t and words[t] not in index:
                        t = out[fail[t]]
                    if not t:
                        new.append((v + x, row[x]))
            frontier = new
            levels[length] = [first[length] + v for v, _ in new]
        return levels

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
