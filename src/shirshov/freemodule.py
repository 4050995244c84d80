"""Free left modules over the free associative algebra with a free basis
Y: monomials are words u*y, the order compares u-parts first, and a single
right-justified composition shape drives the basis theory.  The S-word
of an element s in the context a is the left action a.s.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .core import Polynomial, Structure, Terms, check_letters, rewrite
from .rewrite import RewriteSystem, find_factor


class ModuleWord(namedtuple("ModuleWord", "u y")):
    """A word u over X followed by one module generator index y."""

    __slots__ = ()

    def __new__(cls, u, y):
        return super().__new__(cls, tuple(u), y)


def mword_key(mw):
    """The order key; `ModuleElement._column` is its inverse."""
    return (len(mw.u), mw.u, mw.y)


class ModuleElement(Terms):
    """Rational linear combination of module words."""

    __slots__ = ()
    _key = staticmethod(mword_key)
    _column = staticmethod(lambda k: ModuleWord(k[1], k[2]))


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


# Cached: a bounded check reads each degree twice, to filter and to count.
@lru_cache(maxsize=None)
def _module_words(nx, ny, length):
    return tuple(ModuleWord(u, y) for u in product(range(nx), repeat=length)
                 for y in range(ny))


class FreeModule(Structure):
    """Monic relations in the free module on nx letters and ny module
    generators.

    Deterministic strategy, which `find` overrides: the greatest leading
    word that is a suffix, ties to the earliest element; so the longest
    suffix in `lead_index` wins.  A module word hashes and compares as
    the tuple (u, y), so a part is that plain tuple, which `find` probes
    without building a ModuleWord.  The degree of a module word is the
    length of its u-part.
    """

    elem = ModuleElement

    def __init__(self, relations, nx, ny):
        super().__init__(relations)
        self.nx, self.ny = nx, ny
        for p in self.elements:
            for mw in p.terms:
                check_letters(mw.u, nx)
                check_letters((mw.y,), ny, "module generator")

    @staticmethod
    def degree(mw):
        return len(mw.u)

    def monomials(self, d):
        return _module_words(self.nx, self.ny, d)

    def parts(self, mw):
        """Every suffix (u, y) of mw with its prefix, longest first."""
        for cut in range(len(mw.u) + 1):
            yield (mw.u[cut:], mw.y), mw.u[:cut]

    def find(self, mw):
        n = len(mw.u)
        for length in self.lead_degrees:
            if length <= n:
                i = self.lead_index.get((mw.u[n - length:], mw.y))
                if i is not None:
                    return i, mw.u[:n - length]
        return None

    @staticmethod
    def multiply(a, s):
        """The S-word a.s; u -> a*u is one to one, so the terms need no
        merging."""
        new = tuple.__new__
        return ModuleElement._of({new(ModuleWord, (a + mw.u, mw.y)): c
                                  for mw, c in s.terms.items()})

    def contexts(self, room):
        return product(range(self.nx), repeat=room)

    def irreducible(self, max_deg):
        """Module words with |u| <= max_deg that no leading word ends,
        ascending, grown a degree at a time: u.y is irreducible exactly
        when (u[1:], y) is and u.y is no key.  monomials(d) lists the
        words by u, then y, so x*u.y sits x * len(monomials(d - 1))
        places after the place of u.y in monomials(d - 1)."""
        index = self.lead_index
        out, words, kept = [], (), ()
        for d in range(max_deg + 1):
            step, words = len(words), self.monomials(d)
            grown = (range(len(words)) if not d else
                     (x * step + j for x in range(self.nx) for j in kept))
            kept = [i for i in grown if words[i] not in index]
            out += [words[i] for i in kept]
        return out


# perfbench imports it
def module_irr(S, nx, ny, max_len):
    """Irreducible module words with |u| <= max_len, ascending."""
    return FreeModule(S, nx, ny).irreducible(max_len)


# perfbench imports it
def module_cd_check(S, nx, ny, max_len):
    """Bounded report of the three equivalent conditions, per u-length,
    as Structure.bounded_check gives it."""
    return FreeModule(S, nx, ny).bounded_check(max_len)


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
        return ModuleElement([(ModuleWord(a + t + b, mw.y), c)
                              for t, c in algebra.elements[i].items()])

    while True:
        m2 = rewrite(module.normal_form(m), find, image)
        if m2 == m:
            return m
        m = m2


def random_module_set(nx, ny, max_udeg, rng, max_elems=3):
    """Monic random module elements for randomized suites: up to
    max_elems elements, each a combination of one to three distinct
    module words with u-length <= max_udeg and coefficients in
    -2..2 \\ {0}, scaled monic.  An element never asks for more terms
    than there are distinct module words."""
    n_words = ny * sum(nx ** l for l in range(max_udeg + 1))
    out = []
    for _ in range(rng.randint(1, max_elems)):
        n_terms = min(rng.randint(1, 3), n_words)
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
