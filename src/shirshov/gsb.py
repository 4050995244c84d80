"""Compositions of monic relations, basis verification, Shirshov's
completion procedure, and the bounded three-condition diamond check.

A set S is closed (a Groebner-Shirshov basis) when every composition of
its elements reduces to zero modulo S.  Closedness is what makes normal
forms canonical and the irreducible words a linear basis of the quotient.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass

from .core import GsbReport, Polynomial, bounded_report, check_bound
from .rewrite import (RewriteSystem, find_factor, ideal_span, irr_words,
                      normal_form, reducible)


@dataclass(frozen=True)
class Composition:
    """One overlap or containment of two leading words.

    kind is "intersection" (w = lead(f)*b = a*lead(g) with a proper
    overlap) or "inclusion" (w = lead(f) = a*lead(g)*b).  result is
    f*b - a*g resp. f - a*g*b; its leading word, when nonzero, is
    strictly below w.
    """

    kind: str
    w: tuple
    left: int
    right: int
    a: tuple
    b: tuple
    result: Polynomial


@dataclass(frozen=True)
class CompletionReport:
    status: str  # completed | degree-capped | element-capped
    basis: RewriteSystem
    added: int
    iterations: int


class BudgetExceeded(RuntimeError):
    """Raised by shirshov_complete when the wall-clock budget runs out."""


def _mul_word_poly(a, p, b):
    return Polynomial({a + t + b: c for t, c in p.terms.items()})


def _overlaps(lf, lg):
    """(kind, a, b) of every overlap of the leading words lf and lg.

    Intersections pair every proper suffix of lf with an equal proper
    prefix of lg (w = lf*b = a*lg); the symmetric overlaps belong to the
    swapped pair.  Inclusions cover every occurrence of lg inside lf
    (w = lf = a*lg*b), the identity occurrence of a word in itself
    included.
    """
    out = []
    for k in range(1, min(len(lf), len(lg))):
        if lf[len(lf) - k:] == lg[:k]:
            out.append(("intersection", lf[:len(lf) - k], lg[k:]))
    if len(lg) <= len(lf):
        pos = find_factor(lf, lg)
        while pos is not None:
            out.append(("inclusion", lf[:pos], lf[pos + len(lg):]))
            pos = find_factor(lf, lg, pos + 1)
    return out


def _composition(kind, f, g, a, b, order, left, right):
    # Builds f*b - a*g or f - a*g*b and checks that its leading word lies
    # strictly below the ambient word, which holds whenever the order
    # agrees with the polynomials' leading terms.
    if kind == "intersection":
        w = f.leading_monomial() + b
        result = _mul_word_poly((), f, b) - _mul_word_poly(a, g, ())
    else:
        w = f.leading_monomial()
        result = f - _mul_word_poly(a, g, b)
    if result and not order.key(result.leading_monomial()) < order.key(w):
        raise ValueError(
            "composition of elements %d and %d does not fall below its "
            "ambient word %r; the order disagrees with the leading terms"
            % (left, right, w))
    return Composition(kind, w, left, right, a, b, result)


def find_compositions(f, g, order, left=0, right=1):
    """All compositions of the ordered pair (f, g), ascending by ambient
    word.

    Intersections pair every proper suffix of lead(f) with an equal proper
    prefix of lead(g); the symmetric overlaps belong to the swapped call.
    Inclusions cover every occurrence of lead(g) inside lead(f) except the
    identity occurrence of an element in itself, whose result is exactly
    zero.
    """
    out = [_composition(kind, f, g, a, b, order, left, right)
           for kind, a, b in _overlaps(f.leading_monomial(),
                                       g.leading_monomial())
           if not (f == g and kind == "inclusion" and not a and not b)]
    out.sort(key=lambda c: (order.key(c.w), c.kind, len(c.a), c.a))
    return out


def is_trivial(comp, system):
    """A composition is trivial when its result reduces to zero."""
    return not normal_form(comp.result, system)


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
    """Check every composition; report the nontrivial ones."""
    comps = all_compositions(system)
    failing = tuple(c for c in comps if not is_trivial(c, system))
    return GsbReport(holds=not failing, checked=len(comps), failing=failing)


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
            nf = normal_form(elems[i], RewriteSystem(tuple(others), order))
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
    status completed the result passes is_gsb exactly.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    if max_elems < 0:
        raise ValueError("max_elems must be >= 0")
    deadline = None
    if budget_seconds is not None:
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
        position = {lw: i for i, lw in enumerate(leads)}
        for pair in [p for p in overlaps
                     if p[0] not in position or p[1] not in position]:
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
            i, j = position[lf], position[lg]
            for kind, a, b in found:
                w = lf + b if kind == "intersection" else lf
                pending.append((order.key(w), kind, i, j, len(a), a, b))
        pending.sort()
        obstruction = None
        for _, kind, i, j, _, a, b in pending:
            comp = _composition(kind, elems[i], elems[j], a, b, order, i, j)
            h = normal_form(comp.result, basis)
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


def _sample_ideal_element(rng, system, max_deg):
    n = len(system.order.alphabet)
    usable = list(zip(system.elements, system.leading_words))
    if not usable:
        return None
    f = Polynomial()
    for _ in range(rng.randint(1, 3)):
        s, lw = usable[rng.randrange(len(usable))]
        room = max_deg - len(lw)
        la = rng.randint(0, room)
        lb = rng.randint(0, room - la)
        a = tuple(rng.randrange(n) for _ in range(la))
        b = tuple(rng.randrange(n) for _ in range(lb))
        coeff = rng.choice([-2, -1, 1, 2])
        f = f + _mul_word_poly(a, s, b).scale(coeff)
    return f


def cd_lemma_check(system, max_deg, samples=20, seed=0):
    """Bounded check of the three equivalent closedness conditions.

    (i) every composition with |w| <= max_deg reduces to zero;
    (ii) seeded random bounded ideal elements all have a leading word
    containing some leading word of the system;
    (iii) for each d <= max_deg, the irreducible words of length <= d plus
    the rank of the bounded ideal span equal the total word count.  One
    span is built at max_deg, its rows in ascending ambient degree, with
    the rank recorded as each degree closes; the irreducible words are
    enumerated once and counted cumulatively per length.

    For a closed system all three hold; a bounded failure of (i) forces a
    failure of (iii) at any bound reaching the offending ambient word.
    Identical inputs give identical reports.  Raises when the bound cannot
    hold some element's leading word, since the compositions of that
    element would go unexamined.
    """
    check_bound(max_deg, map(len, system.leading_words))
    failing = [c for c in all_compositions(system)
               if len(c.w) <= max_deg and not is_trivial(c, system)]

    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        f = _sample_ideal_element(rng, system, max_deg)
        if f and not reducible(f.leading_monomial(), system):
            bad.append(f)

    n = len(system.order.alphabet)
    return bounded_report(max_deg, failing, bad,
                          ideal_span(system, max_deg).ranks,
                          map(len, irr_words(system, max_deg)),
                          lambda d: n ** d)
