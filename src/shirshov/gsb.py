"""Basis verification, Shirshov's completion procedure, and the bounded
three-condition diamond check in the free associative algebra.

A set S is closed (a Groebner-Shirshov basis) when every composition of
its elements reduces to zero modulo S.  Closedness is what makes normal
forms canonical and the irreducible words a linear basis of the quotient.
The checks are those of `core.Structure`, which `rewrite.RewriteSystem`
is; completion stays specific to this structure.
"""

from __future__ import annotations

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


def is_trivial(comp, system):
    """A composition is trivial when its result reduces to zero."""
    return not system.normal_form(comp.result)


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
            # form modulo the rest; skip building that system.
            if not _reducible_by_others(elems[i], own[i], leads, lengths):
                continue
            others = elems[:i] + elems[i + 1:]
            nf = RewriteSystem(tuple(others), order).normal_form(elems[i])
            if nf == elems[i]:
                continue
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


def shirshov_complete(system, max_deg, max_elems, budget_seconds=None):
    """Close the system under compositions, bounded by resources.

    Each round inter-reduces the basis and reduces, in ascending order of
    (ambient word, kind, left, right, |a|, a), the compositions of the
    current basis until one does not vanish.  The overlaps of a pair depend
    only on its two leading words, so they are found once, when a leading
    word enters the basis, and kept until one of the two leaves it; a
    composition's polynomial is built only when it is reduced.

    A surviving composition whose ambient word is longer than max_deg
    stops the run as degree-capped; needing more than max_elems additions
    stops it as element-capped.  Caps are statuses, not errors.  With
    status completed the result passes is_gsb exactly.  A budget must be
    a number >= 0; a negative or NaN one is refused.
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
    elems = _inter_reduce_elements(system.elements, order)
    overlaps = {}  # (lead f, lead g) -> overlaps, for overlapping pairs
    known = set()  # the leading words of the previous round's basis
    added = 0
    iterations = 0
    while True:
        iterations += 1
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                "completion exceeded the %.3gs budget" % budget_seconds)
        basis = RewriteSystem(tuple(elems), order)
        leads = basis.leading_words
        index = basis.lead_index  # inter-reduced leads are distinct
        for pair in [p for p in overlaps
                     if p[0] not in index or p[1] not in index]:
            del overlaps[pair]
        for lf in leads:
            for lg in leads:
                if lf in known and lg in known:
                    continue
                # a and b are both empty only for the identity inclusion
                # of an element in itself, whose result is zero
                found = [(kind, a, b) for kind, a, b in _overlaps(lf, lg)
                         if a or b]
                if found:
                    overlaps[lf, lg] = found
        known = set(leads)

        pending = []
        for (lf, lg), found in overlaps.items():
            i, j = index[lf], index[lg]
            for kind, a, b in found:
                w = lf + b if kind == "intersection" else lf
                pending.append((order.key(w), kind, i, j, len(a), a, b))
        pending.sort()
        obstruction = None
        for _, kind, i, j, _, a, b in pending:
            comp = _composition(kind, elems[i], elems[j], a, b, order, i, j)
            h = basis.normal_form(comp.result)
            if h:
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
