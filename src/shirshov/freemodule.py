"""Free left modules over the free associative algebra with a free basis
Y: monomials are words u*y, the order compares u-parts first, and a single
right-justified composition shape drives the basis theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (Polynomial, Terms, bounded_report, check_bound,
                   check_monic, composition_report, graded_span)
from .rewrite import RewriteSystem, find_factor


@dataclass(frozen=True)
class ModuleWord:
    """A word u over X followed by one module generator index y."""

    u: tuple
    y: int

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))


def mword_key(mw):
    return (len(mw.u), mw.u, mw.y)


class ModuleElement(Terms):
    """Rational linear combination of module words."""

    __slots__ = ()
    _key = staticmethod(mword_key)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, mw, coeff=1):
        return cls({mw: coeff})


def act(p, m):
    """Left action of a Polynomial on a ModuleElement, bilinearly from
    a . (u, y) = (a u, y)."""
    if isinstance(p, tuple):
        p = Polynomial.monomial(p)
    acc = []
    for a, ca in p.items():
        for mw, cm in m.items():
            acc.append((ModuleWord(a + mw.u, mw.y), ca * cm))
    return ModuleElement(acc)


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


def module_reduce_step(m, S):
    """One deterministic rewrite, or None when m is irreducible.

    Greatest reducible monomial first; the applicable leading word is
    chosen greatest, ties to the earliest element.
    """
    for mono in sorted(m.terms, key=mword_key, reverse=True):
        best = None
        for idx, s in enumerate(S):
            ls = s.leading_monomial()
            if ls.y != mono.y or len(ls.u) > len(mono.u):
                continue
            cut = len(mono.u) - len(ls.u)
            if mono.u[cut:] != ls.u:
                continue
            cand = (mword_key(ls), -idx)
            if best is None or cand > best[0]:
                best = (cand, idx, cut)
        if best is None:
            continue
        _, idx, cut = best
        s = S[idx]
        step = act(Polynomial.monomial(mono.u[:cut]), s)
        return m - step.scale(m.coeff(mono))
    return None


def module_normal_form(m, S):
    """Fully reduced representative of m modulo S."""
    check_monic(S, ModuleElement)
    while True:
        nxt = module_reduce_step(m, S)
        if nxt is None:
            return m
        m = nxt


def module_reducible(mw, S):
    for s in S:
        ls = s.leading_monomial()
        if ls.y != mw.y or len(ls.u) > len(mw.u):
            continue
        if mw.u[len(mw.u) - len(ls.u):] == ls.u:
            return True
    return False


def module_is_gsb(S):
    """Check that every composition of every ordered pair reduces to 0."""
    check_monic(S, ModuleElement)
    return composition_report(S, module_compositions, module_normal_form)


def module_irr(S, nx, ny, max_len):
    """Irreducible module words with |u| <= max_len, ascending."""
    out = []
    for l in range(max_len + 1):
        for u in product(range(nx), repeat=l):
            for y in range(ny):
                mw = ModuleWord(u, y)
                if not module_reducible(mw, S):
                    out.append(mw)
    out.sort(key=mword_key)
    return out


def _module_rows(S, nx, max_len):
    # (d, vec) for every product a.s with d = |a| + |lead(s) u-part|,
    # ascending in d, then by element, then a.
    for d in range(max_len + 1):
        for s in S:
            la = d - len(s.leading_monomial().u)
            if la < 0:
                continue
            for a in product(range(nx), repeat=la):
                yield d, act(Polynomial.monomial(a), s).terms


def module_ideal_span(S, nx, max_len):
    """Row space of the products a.s with |a| + |lead(s) u-part| bounded.

    Rows go in by ascending ambient u-length; ranks[d] is the rank of the
    span at bound d, for 0 <= d <= max_len.
    """
    return graded_span(_module_rows(S, nx, max_len), mword_key,
                       range(max_len + 1))


def module_cd_check(S, nx, ny, max_len):
    """Bounded report of the three equivalent conditions: (i) all
    compositions trivial, (ii) every leading module word of the bounded
    submodule span is reducible, (iii) irreducible count plus span rank
    matches the word count, cumulative per u-length.

    One span is built at max_len, its rows in ascending ambient u-length,
    and gives both the pivots and the rank per u-length; the irreducible
    module words are enumerated once and counted cumulatively.  The bound
    must reach every element's leading u-length, else raises.
    """
    check_monic(S, ModuleElement)
    check_bound(max_len, [len(s.leading_monomial().u) for s in S])
    failing = module_is_gsb(S).failing
    span = module_ideal_span(S, nx, max_len)
    bad = [mw for mw in span.pivots() if not module_reducible(mw, S)]
    words = module_irr(S, nx, ny, max_len)
    return bounded_report(max_len, failing, bad, span.ranks,
                          (len(mw.u) for mw in words),
                          lambda d: ny * nx ** d)


def pair_normal_form(m, algebra, S):
    """Normal form modulo a module-side set S and an algebra-side
    rewrite system acting from the left.

    Algebra leading words rewrite anywhere inside u-parts, because any
    product a * s * b * y lies in the submodule generated by the pair.
    Convenience layer over the two reducers; alternates to a fixed point.
    """
    if not isinstance(algebra, RewriteSystem):
        raise TypeError("algebra side must be a RewriteSystem")
    check_monic(S, ModuleElement)
    while True:
        m2 = module_normal_form(m, S) if S else m
        m2 = _algebra_reduce(m2, algebra)
        if m2 == m:
            return m
        m = m2


def _algebra_reduce(m, algebra):
    while True:
        hit = None
        for mono in sorted(m.terms, key=mword_key, reverse=True):
            for idx, lw in enumerate(algebra.leading_words):
                pos = find_factor(mono.u, lw)
                if pos is not None:
                    hit = (mono, idx, pos)
                    break
            if hit:
                break
        if hit is None:
            return m
        mono, idx, pos = hit
        s = algebra.elements[idx]
        lw = algebra.leading_words[idx]
        a, b = mono.u[:pos], mono.u[pos + len(lw):]
        items = [(ModuleWord(a + t + b, mono.y), c) for t, c in s.items()]
        m = m - ModuleElement(items).scale(m.coeff(mono))


def random_module_set(nx, ny, max_udeg, rng, max_elems=3):
    """Monic random module elements for randomized suites: up to
    max_elems elements, each a combination of one to three distinct
    module words with u-length <= max_udeg and coefficients in
    -2..2 \\ {0}, scaled monic."""
    out = []
    for _ in range(rng.randint(1, max_elems)):
        n_terms = rng.randint(1, 3)
        seen = set()
        items = []
        while len(items) < n_terms:
            l = rng.randint(0, max_udeg)
            u = tuple(rng.randrange(nx) for _ in range(l))
            y = rng.randrange(ny)
            mw = ModuleWord(u, y)
            if mw in seen:
                continue
            seen.add(mw)
            items.append((mw, rng.choice([-2, -1, 1, 2])))
        out.append(ModuleElement(items).monic())
    return out
