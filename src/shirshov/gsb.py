"""Basis verification, Shirshov's completion procedure, and the bounded
three-condition diamond check in the free associative algebra.

A set S is closed (a Groebner-Shirshov basis) when every composition of
its elements reduces to zero modulo S.  Closedness is what makes normal
forms canonical and the irreducible words a linear basis of the quotient.
The checks are those of `core.Structure`, which `rewrite.RewriteSystem`
is; completion stays specific to this structure.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass

from .rewrite import (RewriteSystem, _composition, _overlaps,
                      find_compositions)


@dataclass(frozen=True)
class CompletionReport:
    status: str  # completed | degree-capped | element-capped
    basis: RewriteSystem
    added: int
    iterations: int


class BudgetExceeded(RuntimeError):
    """Raised by shirshov_complete when the wall-clock budget runs out."""


# perfbench imports it, and its traced pass patches it
def all_compositions(system):
    """Compositions over all ordered element pairs, ascending by (w, ...)."""
    order = system.order
    out = []
    for i, f in enumerate(system.elements):
        for j, g in enumerate(system.elements):
            out.extend(find_compositions(f, g, order, left=i, right=j))
    out.sort(key=lambda c: (order.key(c.w), c.kind, c.left, c.right,
                            len(c.a), c.a))
    return out


# perfbench imports it
def is_gsb(system):
    """Check every composition of every ordered pair; report the
    nontrivial ones as (ambient word, result) pairs."""
    return system.is_gsb()


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


def inter_reduce(system):
    """Equivalent system in which no leading word contains another as a
    factor and every element is fully reduced modulo the rest.

    Each removed or rewritten element stays expressible through the others
    (witnessed by the reduction steps), so the ideal is unchanged.
    """
    elems = _inter_reduce_elements(system.elements, system.order)
    return RewriteSystem(tuple(elems), system.order)


def _check_budget(deadline, budget_seconds):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            "completion exceeded the %.3gs budget" % budget_seconds)


def _push_overlaps(heap, key, lf, lg):
    # a and b are both empty only for the identity inclusion of an element
    # in itself, whose result is zero
    for kind, a, b in _overlaps(lf, lg):
        if a or b:
            w = lf + b if kind == "intersection" else lf
            heapq.heappush(heap, (key(w), kind, key(lf), key(lg), len(a), a,
                                  b, lf, lg))


def shirshov_complete(system, max_deg, max_elems, budget_seconds=None):
    """Close the system under compositions, bounded by resources.

    Each round inter-reduces the basis and reduces its pending
    compositions in ascending order of (ambient word, kind, lead f,
    lead g, |a|, a) until one does not vanish; that one is added.  The
    basis is sorted by leading word, so this is the order of (w, kind,
    left, right, |a|, a) over the current basis.  The overlaps of a pair
    depend only on its two leading words: when a leading word enters the
    basis, its overlaps with every leading word, both ways round, go on
    one heap that lives across rounds.  A composition's polynomial is
    built only when it is popped.  An entry with a leading word that has
    left the basis is dropped when popped; the surviving entry goes back
    on the heap; one that reduces to zero leaves the heap for good.

    Skipping a vanished composition in later rounds changes no result.
    Take, in some round, a composition at ambient word w whose two leading
    words have stayed in the basis since it vanished.  By induction over
    the ambient words, every composition of the current basis below w has
    reduced to zero this round or is skipped for the same reason, so the
    basis is closed below w.  By the Composition-Diamond argument
    restricted to words below w, an ideal element written as a sum of
    multiples of a*s*b with every a*lead(s)*b < w then has normal form 0.
    The current composition f'*b - a*g' has such a form: the old f*b - a*g
    had one, because it reduced to zero; inter-reduction changes f and g
    only by terms below their leading words; and every element it removed
    is a combination of the new basis with words at most its leading word.
    So the first surviving composition, and every result, are those of
    re-reducing every composition of the basis in every round.

    A surviving composition whose ambient word is longer than max_deg
    stops the run as degree-capped; needing more than max_elems additions
    stops it as element-capped.  Caps are statuses, not errors.  With
    status completed the result passes is_gsb exactly.  A budget must be
    a number >= 0; a negative or NaN one is refused.  It is checked at the
    start of every round and before every composition is popped.
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

    order = system.order
    key = order.key
    elems = _inter_reduce_elements(system.elements, order)
    # pending compositions as (key(w), kind, key(lf), key(lg), |a|, a, b,
    # lf, lg): the prefix up to b orders them, lf and lg are its payload
    heap = []
    known = set()  # the leading words of the previous round's basis
    added = 0
    iterations = 0
    while True:
        iterations += 1
        _check_budget(deadline, budget_seconds)
        basis = RewriteSystem(tuple(elems), order)
        leads = basis.leading_words
        index = basis.lead_index  # inter-reduced leads are distinct
        current = set(leads)
        new = current - known
        for lf in new:
            for lg in leads:
                _push_overlaps(heap, key, lf, lg)
                if lg not in new:
                    _push_overlaps(heap, key, lg, lf)
        known = current

        obstruction = None
        while heap:
            _check_budget(deadline, budget_seconds)
            entry = heapq.heappop(heap)
            _, kind, _, _, _, a, b, lf, lg = entry
            if lf not in index or lg not in index:
                continue  # a leading word left the basis
            i, j = index[lf], index[lg]
            comp = _composition(kind, elems[i], elems[j], a, b, order, i, j)
            h = basis.normal_form(comp.result)
            if h:
                heapq.heappush(heap, entry)
                obstruction = (comp, h)
                break
        if obstruction is None:
            status = "completed"
            break
        comp, h = obstruction
        if len(comp.w) > max_deg:
            status = "degree-capped"
            break
        if added >= max_elems:
            status = "element-capped"
            break
        elems = _inter_reduce_elements(elems + [h.monic()], order)
        added += 1
    return CompletionReport(status=status, basis=basis, added=added,
                            iterations=iterations)


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
