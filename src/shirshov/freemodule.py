"""Free left modules over the free associative algebra with a free basis
Y: monomials are words u*y, the order compares u-parts first, and a single
right-justified composition shape drives the basis theory.  The S-word
of an element s in the context a is the left action a.s.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .core import Polynomial, Structure, Terms, _value, check_letters
from .rewrite import _firsts, word_code


class ModuleWord(namedtuple("ModuleWord", "u y")):
    """A word u over X followed by one module generator index y."""

    __slots__ = ()

    def __new__(cls, u, y):
        return super().__new__(cls, tuple(u), y)


def mword_key(mw):
    """The order key: the u-part by deg-lex, then y."""
    return (len(mw.u), mw.u, mw.y)


class ModuleElement(Terms):
    """Rational linear combination of module words."""

    __slots__ = ()
    _key = staticmethod(mword_key)


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


# Cached: every check reads each degree in `count`.
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
    length of its u-part.  The shape is (nx, ny), and the code of u.y,
    its place in the order, ny * word_code(u, nx) + y.
    """

    elem = ModuleElement

    def __init__(self, relations, nx, ny):
        super().__init__(relations)
        self.nx, self.ny = nx, ny
        self.shape = nx, ny
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

    def rows(self, max_deg):
        """The S-words a.s of degree d <= max_deg, by d, element and a, as
        {code: coefficient}: a.(t, y) has the code ny * word_code(a*t,
        nx) + y, where v(a*t) = v(a) * nx**|t| + v(t) for v(a) over
        range(nx**|a|), in the order of the words a."""
        nx, ny = self.nx, self.ny
        power = [nx ** k for k in range(max_deg + 1)]
        first = _firsts(nx, max_deg)
        terms = [[(len(t.u), ny * _value(t.u, nx) + t.y, c)
                  for t, c in s.terms.items()] for s in self.elements]
        for d in range(max_deg + 1):
            for s, lw in zip(terms, self.leading_words):
                la = d - len(lw.u)
                if la >= 0:
                    at = [(ny * first[la + lt] + k, ny * power[lt], c)
                          for lt, k, c in s]
                    for va in range(power[la]):
                        yield d, {k + va * step: c for k, step, c in at}

    def irreducible_codes(self, max_deg):
        """{d: the codes of the module words with |u| = d that no leading
        word ends, ascending}, grown a degree at a time: u.y is
        irreducible exactly when (u[1:], y) is and u.y is no key, since
        every suffix of u.y but itself is a suffix of (u[1:], y).  With
        step = ny * nx**(d - 1), the count of the words of degree d - 1,
        x*u.y has the code of (u[1:], y) plus (x + 1) * step: the words of
        degree d - 1 before it, and x blocks of step."""
        nx, ny = self.shape
        leads = {ny * word_code(lw.u, nx) + lw.y for lw in self.lead_index}
        out, step = {}, ny
        if max_deg >= 0:
            out[0] = [y for y in range(ny) if y not in leads]
        for d in range(1, max_deg + 1):
            out[d] = [k for x in range(1, nx + 1) for c in out[d - 1]
                      if (k := c + x * step) not in leads]
            step *= nx
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
