"""Rewriting modulo monic relations in the free associative algebra:
single reduction steps, normal forms, irreducible-word enumeration, and a
bounded-degree ideal membership test.

The reduction strategy is fixed so every run is reproducible: rewrite the
order-greatest reducible monomial, using the order-greatest applicable
leading word (ties broken by element position) at its leftmost occurrence.
A system indexes its leading words by value, so the strategy is realised
by probing the factors of a monomial, longest length first, against that
index instead of searching the monomial once per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import DegLexOrder, Polynomial, deglex_key, graded_span


@dataclass(frozen=True)
class RewriteSystem:
    """Monic nonzero relations over a shared alphabet and order.

    Rewriting with an element replaces its leading word by the negated
    tail, which is strictly smaller, so every reduction terminates.
    lead_index maps each leading word to the first element that has it;
    lead_lengths lists the distinct leading-word lengths, descending.
    """

    elements: tuple
    order: DegLexOrder

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        leads = []
        for i, p in enumerate(elements):
            if not isinstance(p, Polynomial) or not p:
                raise ValueError("element %d is not a nonzero polynomial" % i)
            for w in p.terms:
                self.order.alphabet.check_word(w)
            lw = p.leading_monomial()
            if p.terms[lw] != 1:
                raise ValueError("element %d is not monic" % i)
            if not lw:
                raise ValueError(
                    "element %d has the empty word as leading term" % i)
            leads.append(lw)
        index = {}
        for i, lw in enumerate(leads):
            index.setdefault(lw, i)
        object.__setattr__(self, "leading_words", tuple(leads))
        object.__setattr__(self, "lead_index", index)
        object.__setattr__(self, "lead_lengths",
                           tuple(sorted({len(lw) for lw in leads},
                                        reverse=True)))

    def __len__(self):
        return len(self.elements)


def find_factor(word, factor, start=0):
    """Index of the first occurrence of factor in word at or after start,
    or None.  The empty factor matches at start."""
    n, m = len(word), len(factor)
    for i in range(start, n - m + 1):
        if word[i:i + m] == factor:
            return i
    return None


def _greatest_lead(word, index, lengths):
    # The order-greatest leading word occurring in word, with its leftmost
    # position, or None.  Under the degree-lexicographic order the longest
    # length with a hit wins, then the lexicographically greatest factor.
    n = len(word)
    for m in lengths:
        best = None
        for pos in range(n - m + 1):
            u = word[pos:pos + m]
            if u in index and (best is None or u > best):
                best, at = u, pos
        if best is not None:
            return best, at
    return None


def reducible(word, system):
    """True when some leading word of the system occurs in word."""
    return _greatest_lead(word, system.lead_index,
                          system.lead_lengths) is not None


def reduce_step(p, system):
    """One deterministic rewrite of p modulo the system, or None when p is
    already irreducible.

    Picks the order-greatest monomial containing some leading word; within
    it the order-greatest applicable leading word (ties to the earliest
    element) at its leftmost occurrence; subtracts c * a * s * b where the
    monomial is a * lead(s) * b with coefficient c.
    """
    index = system.lead_index
    lengths = system.lead_lengths
    for mono in sorted(p.terms, key=system.order.key, reverse=True):
        hit = _greatest_lead(mono, index, lengths)
        if hit is None:
            continue
        lw, pos = hit
        s = system.elements[index[lw]]
        c = p.terms[mono]
        a, b = mono[:pos], mono[pos + len(lw):]
        step = Polynomial({a + t + b: c * tc for t, tc in s.terms.items()})
        return p - step
    return None


def normal_form(p, system):
    """Fully reduced representative of p modulo the system."""
    while True:
        q = reduce_step(p, system)
        if q is None:
            return p
        p = q


def _suffix_trie(leading_words):
    # Trie over reversed leading words; walking a word backwards from its
    # last letter detects any leading word ending there.
    trie = {}
    for lw in leading_words:
        node = trie
        for letter in reversed(lw):
            node = node.setdefault(letter, {})
        node[None] = True
    return trie


def irr_words(system, max_len):
    """All words of length <= max_len containing no leading word, ascending.

    Breadth-first: a word is kept iff its parent was kept and no leading
    word is a suffix of it, which the reversed trie checks in one walk.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    trie = _suffix_trie(system.leading_words)
    n = len(system.order.alphabet)
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for letter in range(n):
                u = w + (letter,)
                node = trie
                hit = False
                for ch in reversed(u):
                    node = node.get(ch)
                    if node is None:
                        break
                    if None in node:
                        hit = True
                        break
                if not hit:
                    new.append(u)
        out.extend(new)
        frontier = new
    return out


def _all_words(n_letters, length):
    return product(range(n_letters), repeat=length)


def ideal_rows(system, max_deg):
    """(d, vec) for every product a * s * b with ambient degree
    d = |a| + |lead(s)| + |b| <= max_deg, in ascending d; within a degree
    by element, then |a|, then a, then b.  A generator: rows stream."""
    n = len(system.order.alphabet)
    for d in range(max_deg + 1):
        for s, lw in zip(system.elements, system.leading_words):
            room = d - len(lw)
            if room < 0:
                continue
            for la in range(room + 1):
                for a in _all_words(n, la):
                    for b in _all_words(n, room - la):
                        yield d, {a + t + b: c for t, c in s.terms.items()}


def ideal_span(system, max_deg):
    """Bounded row space of the two-sided ideal of the system.

    Rows go in by ascending ambient degree; ranks[d] is the rank of the
    bounded span at bound d, for 0 <= d <= max_deg.
    """
    return graded_span(ideal_rows(system, max_deg), deglex_key,
                       range(max_deg + 1))


def membership_oracle(p, system, max_deg):
    """Exact membership of p in the bounded span of products a * s * b.

    True is a certificate that p lies in the ideal.  False only means p is
    not reachable within the degree bound: ideal members whose expressions
    need words longer than max_deg are reported False, so the oracle is
    conservative.  Raises when p itself has a monomial longer than max_deg.
    """
    if not p:
        return True
    if len(p.leading_monomial()) > max_deg:
        raise ValueError(
            "max_deg %d is below the degree of p's largest monomial" % max_deg)
    span = ideal_span(system, max_deg)
    return span.contains(p.terms)
