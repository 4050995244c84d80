"""Basis verification, Shirshov's completion procedure, and the bounded
three-condition diamond check in the free associative algebra.

A set S is closed (a Groebner-Shirshov basis) when every composition of
its elements reduces to zero modulo S.  Closedness is what makes normal
forms canonical and the irreducible words a linear basis of the quotient.
The checks are those of `core.Structure`, which `rewrite.RewriteSystem`
is; completion stays specific to this structure.
"""

import copy
import heapq
import time
from bisect import bisect_left
from collections import namedtuple

from .core import BudgetExceeded, deglex_key
from .rewrite import find_compositions


# status is completed, degree-capped or element-capped
CompletionReport = namedtuple("CompletionReport",
                              "status basis added iterations")


# perfbench imports it, and its traced pass patches it
def all_compositions(system):
    """Compositions over all ordered element pairs, ascending by (w, ...)."""
    out = []
    for i, f in enumerate(system.elements):
        for j, g in enumerate(system.elements):
            out.extend(find_compositions(f, g, left=i, right=j))
    out.sort(key=lambda c: (deglex_key(c.w), c.kind, c.left, c.right,
                            len(c.a), c.a))
    return out


# perfbench imports it
def is_gsb(system):
    """Check every composition of every ordered pair; report the
    nontrivial ones as (ambient word, result) pairs."""
    return system.is_gsb()


def _inter_reduce_elements(system, h=None):
    """(basis, entered): the system inter-reduced, its elements sorted by
    leading word, and the leading words new to the basis.  With h, the
    system must be a basis this function returned and h a nonzero normal
    form modulo it, added at the end of its list.

    Each step takes the first candidate, in list order, and reduces it
    modulo all the other elements.  The reducer returns its input when it
    rewrote nothing: then the candidate is irreducible by the others and
    stays.  Otherwise the monic result takes its place, or it is deleted
    when the result is zero.  Steps repeat until no candidate is left.
    Without h every element is a candidate at the start.  Every element
    that is reducible by the others stays a candidate until it is
    reduced, so the first reducible element is the one reduced, as when
    every element is tested:

    - Only a leading word new to the list can make an element reducible,
      so the other elements with a monomial that contains one become
      candidates: those that contain lead(h) at the start, and those that
      contain the new leading word of a rewritten element.
    - h is irreducible by the system, so only a leading word that enters
      later and that h contains can make h reducible, and that word makes
      h a candidate.
    - A rewritten element is not a candidate again for its own new
      leading word: its normal form modulo the others is irreducible by
      them.
    - A candidate that a new leading word brings while it waits on the
      heap is tested once: its copies leave the heap when it is popped.

    One working system reduces modulo the list, with None for a deleted
    element; its index maps each leading word to the first element that
    has it.  A candidate hands its leading word to the next element that
    has it, if any, for its own reduction.  It is a shallow copy, so it
    shares the system's automaton of leading words, built here if the
    system has none: each word that enters is added to it, and a word
    that leaves stays there, dead while the index lacks it, so a
    completion builds one automaton.  At the end the elements that
    kept their places stay in order, the others are inserted by
    bisection, and the index is renumbered from the first place that
    moved.  The elements are built from the system's checked words, so
    the result is not validated again.
    """
    before = system.leading_words
    elems, own = list(system.elements), list(before)
    index = dict(system.lead_index)
    work = copy.copy(system)
    work.elements, work.lead_index = elems, index
    dfa = work._automaton()

    def enter(i, lw):
        own[i] = lw
        dfa.add(lw)
        if index.get(lw, i) >= i:
            index[lw] = i

    def leave(i):
        lw, own[i] = own[i], None
        if index.get(lw) == i:
            try:
                index[lw] = own.index(lw, i + 1)
            except ValueError:
                del index[lw]
        return lw

    def containing(u):
        # the live elements with a monomial that has u as a factor; no
        # monomial is longer than its element's leading word, reduction
        # never lengthens one, and with h the system's leading words ascend
        m = len(u)
        start = 0 if h is None else bisect_left(before, m, key=len)
        return [i for i in range(start, len(elems)) if elems[i] is not None
                and len(own[i]) >= m and any(
                    w[k:k + m] == u for w in elems[i].terms
                    for k in range(len(w) - m + 1))]

    if h is None:
        todo = list(range(len(elems)))
        moved = set(todo)  # the input is in no particular order
    else:
        h = h.monic()
        todo = containing(h.leading_monomial())
        moved = {len(elems)}
        elems.append(h)
        own.append(None)
        enter(len(elems) - 1, h.leading_monomial())
    heapq.heapify(todo)
    while todo:
        i = heapq.heappop(todo)
        while todo and todo[0] == i:  # pushed again while it waited
            heapq.heappop(todo)
        p = elems[i]
        lw = leave(i)
        nf = work.normal_form(p)
        if nf is p:
            enter(i, lw)
            continue
        moved.add(i)
        if nf:
            elems[i] = nf.monic()
            enter(i, nf.leading_monomial())
            for k in containing(own[i]):
                if k != i:
                    heapq.heappush(todo, k)
        else:
            elems[i] = None

    out, leads = list(system.elements), list(before)
    first = len(leads)  # the first place whose element moved
    for k in sorted(moved, reverse=True):
        if k < len(before):
            del out[k], leads[k]
            first = k
    for k in sorted(moved):
        if elems[k] is not None:
            at = bisect_left(leads, deglex_key(own[k]), key=deglex_key)
            out.insert(at, elems[k])
            leads.insert(at, own[k])
            first = min(first, at)
    index.update(zip(leads[first:], range(first, len(leads))))
    work.elements, work.leading_words = tuple(out), tuple(leads)
    work.lead_degrees = sorted(set(map(len, leads)), reverse=True)
    entered = [own[k] for k in sorted(moved) if elems[k] is not None
               and own[k] not in system.lead_index]
    return work, entered


def inter_reduce(system):
    """Equivalent system in which no leading word contains another as a
    factor and every element is fully reduced modulo the rest.

    Each removed or rewritten element stays expressible through the others
    (witnessed by the reduction steps), so the ideal is unchanged.
    """
    return _inter_reduce_elements(system)[0]


def _check_budget(deadline, budget_seconds):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            "completion exceeded the %.3gs budget" % budget_seconds)


class _OverlapIndex:
    """The intersections of a growing set of words, found through maps
    from each proper prefix and each proper suffix to the words that have
    it, instead of by testing every pair."""

    def __init__(self):
        self.prefixes = {}
        self.suffixes = {}

    def add(self, lw):
        """Index lw; returns (w, lf, lg) with w = lf*b = a*lg for every
        intersection of lw with an indexed word, lw itself included, both
        ways round: a proper suffix of lf equal to a proper prefix of lg."""
        n = len(lw)
        for k in range(1, n):
            self.prefixes.setdefault(lw[:k], set()).add(lw)
            self.suffixes.setdefault(lw[n - k:], set()).add(lw)
        out = []
        for k in range(1, n):
            for lg in self.prefixes.get(lw[n - k:], ()):
                out.append((lw + lg[k:], lw, lg))
            for lf in self.suffixes.get(lw[:k], ()):
                if lf != lw:  # the pair (lw, lw) came from the loop above
                    out.append((lf + lw[k:], lf, lw))
        return out


def _chain_trivial(basis, w):
    # a leading word occurs in w = lf*b = a*lg with a letter of w on
    # either side; `shirshov_complete` proves the composition trivial
    return basis.find(w[1:-1]) is not None


def shirshov_complete(system, max_deg, max_elems, budget_seconds=None):
    """Close the system under compositions, bounded by resources.

    Each round reduces the pending compositions of the inter-reduced
    basis in ascending deg-lex order of their ambient words w until one
    does not vanish; its normal form h modulo the basis is added, and
    `_inter_reduce_elements` inter-reduces the basis with h, reducing
    modulo the others only the elements that contain a new leading word.
    The overlaps of a pair depend only on its two leading words: when a
    leading word enters the basis, its overlaps with every leading word,
    both ways round, go on one heap that lives across rounds as (|w|, w,
    lf, lg).  A composition's polynomial is built only when it is popped.
    An entry with a leading word that has left the basis is dropped when
    popped, so a word that left may stay in the overlap index: if it
    re-enters, its overlaps are pushed again.  Every popped entry leaves
    the heap for good, the one that gives h too.

    Only intersections reach the heap, and `_OverlapIndex` finds them
    from the proper prefixes and suffixes of the leading words.  An
    inclusion needs one leading word inside another.  In an inter-reduced
    basis no leading word contains another, distinct one, since the
    element with the longer one would be reducible, and a word contains
    itself only as the identity inclusion, whose result is zero.  For the
    same reason lf is the only leading word that is a proper prefix of
    w = lf*b: of two, the shorter would be a factor of the longer.
    Likewise lg is the only one that is a proper suffix of w = a*lg.  So
    the entries whose two leading words are in the basis have distinct
    ambient words, or are copies of one entry, and w alone orders them
    as (w, kind, lf, lg, |a|, a) would.

    Skipping a vanished composition in later rounds changes no result.
    Take, in some round, a composition at ambient word w whose two leading
    words have stayed in the basis since it vanished or was skipped.  By
    induction over the ambient words, every composition of the current
    basis below w has reduced to zero this round or is skipped for the
    same reason, so the basis is closed below w.  By the
    Composition-Diamond argument restricted to words below w, an ideal
    element written as a sum of multiples of a*s*b with every
    a*lead(s)*b < w then has normal form 0.  The current composition
    f'*b - a*g' has such a form: the old f*b - a*g had one, because it
    reduced to zero or is chain-trivial; inter-reduction changes f and g
    only by terms below their leading words; and every element it removed
    is a combination of the new basis with words at most its leading word.
    So the first surviving composition, and every result, are those of
    re-reducing every composition of the basis in every round.

    Nor does dropping the composition q at w that gives h.  The reducer
    rewrites only monomials below w, so q - h is a sum of multiples of
    S-words below w, and h is one more, since lead(h) < w.  That is the
    form asked of a vanished composition above, so q would reduce to zero
    when popped again.  A capped run stops at q and pops nothing more.

    The chain criterion (Buchberger's second criterion, in the form of
    Mora, TCS 134 (1994)) skips a popped entry, without building it, when
    the leading word lk of an element k occurs strictly inside w, at a
    place p with 0 < p and p + |lk| < |w|: when the reducer finds a
    leading word in w[1:-1].  As above, a leading word lies inside lf or
    lg only as the word itself, at its own place, so p < |a| and
    p + |lk| > |lf|: lk overlaps the end of lf and the start of lg.  With
    x = w[:p], c = w[|lf|:p + |lk|], d = w[p + |lk|:] and e = w[p:|a|],

        f*b - a*g = (f*c - x*k)*d + x*(k*d - e*g),

    the compositions of (f, k) at the proper prefix lf*c = x*lk of w and
    of (k, g) at its proper suffix lk*d = e*lg.  Both ambient words are
    shorter than w, so by the induction above each is a sum of multiples
    of S-words below its ambient word, and multiplied out by d and by x,
    below w.  So f*b - a*g has normal form 0 as a vanished one has, and
    the first surviving composition is the same with the skip as without.

    A surviving composition whose ambient word is longer than max_deg
    stops the run as degree-capped; needing more than max_elems additions
    stops it as element-capped.  Caps are statuses, not errors.  With
    status completed the result passes is_gsb exactly.  A budget must be
    a number >= 0; a negative or NaN one is refused.  It is checked at the
    start of every round and before every composition is popped, not
    during inter-reduction.  The input system is validated when it is
    built; every later basis is built from its words and is not validated
    again.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    if max_elems < 0:
        raise ValueError("max_elems must be >= 0")
    deadline = None
    if budget_seconds is not None:
        if not budget_seconds >= 0:  # also refuses NaN
            raise ValueError("budget_seconds must be >= 0")
        deadline = time.monotonic() + budget_seconds

    basis = _inter_reduce_elements(system)[0]
    entered = basis.leading_words
    multiply = basis.multiply
    heap = []  # pending intersections as (|w|, w, lf, lg)
    overlaps = _OverlapIndex()
    added = 0
    while True:
        _check_budget(deadline, budget_seconds)
        for lw in entered:
            for w, lf, lg in overlaps.add(lw):
                heapq.heappush(heap, (len(w), w, lf, lg))
        elems = basis.elements
        index = basis.lead_index  # inter-reduced leads are distinct

        while heap:
            _check_budget(deadline, budget_seconds)
            _, w, lf, lg = heapq.heappop(heap)
            if lf not in index or lg not in index:
                continue  # a leading word left the basis
            if _chain_trivial(basis, w):
                continue
            h = basis.normal_form(
                multiply(((), w[len(lf):]), elems[index[lf]])
                - multiply((w[:len(w) - len(lg)], ()), elems[index[lg]]))
            if h:
                break
        else:
            status = "completed"
            break
        if len(w) > max_deg:
            status = "degree-capped"
            break
        if added >= max_elems:
            status = "element-capped"
            break
        basis, entered = _inter_reduce_elements(basis, h)
        added += 1
    # every round that does not stop adds one element
    return CompletionReport(status=status, basis=basis, added=added,
                            iterations=added + 1)


# perfbench imports it
def cd_lemma_check(system, max_deg):
    """Bounded check of the three equivalent closedness conditions, as
    Structure.bounded_check gives it.

    (i) every composition with |w| <= max_deg reduces to zero;
    (ii) every pivot of the bounded ideal span, that is every leading word
    of an element of the ideal up to degree max_deg, contains some leading
    word of the system;
    (iii) for each d <= max_deg, the irreducible words of length <= d plus
    the rank of the bounded ideal span equal the total word count.  One
    span is built at max_deg, its rows in ascending ambient degree, with
    the rank recorded as each degree closes.

    For a closed system all three hold; a bounded failure of (i) forces a
    failure of (ii) and (iii) at any bound reaching the offending ambient
    word.  Raises when the bound cannot hold some element's leading word,
    since the compositions of that element would go unexamined.
    """
    return system.bounded_check(max_deg)
