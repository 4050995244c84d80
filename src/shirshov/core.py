"""Exact arithmetic core: ordered alphabets, words as rank tuples, the
degree-lexicographic order, noncommutative polynomials over the rationals,
and sparse exact Gaussian elimination.

Words are tuples of generator ranks; () is the monoid identity.  All
coefficients are fractions.Fraction, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Word = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def deglex_key(word):
    """Sort key realizing the degree-then-lexicographic order on rank tuples."""
    return (len(word), word)


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; position in the listing is the rank.

    Ranks run 0..n-1 with the first listed name smallest.
    """

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        index = {}
        for i, n in enumerate(names):
            if not n or not isinstance(n, str):
                raise ValueError("generator names must be nonempty strings")
            if n in index:
                raise ValueError("duplicate generator name %r" % (n,))
            index[n] = i
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.names)

    def rank(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None

    def name(self, rank):
        return self.names[rank]

    def word(self, *names):
        """Build a word from generator names, e.g. ab.word('x', 'y')."""
        return tuple(self.rank(n) for n in names)

    def check_word(self, w):
        n = len(self.names)
        for letter in w:
            if not (isinstance(letter, int) and 0 <= letter < n):
                raise ValueError(
                    "letter %r outside alphabet of size %d" % (letter, n))


@dataclass(frozen=True)
class DegLexOrder:
    """Degree-lexicographic word order over a fixed alphabet.

    Shorter words come first; equal lengths compare letterwise by rank.
    This is a monomial well order: u > v implies aub > avb.
    """

    alphabet: Alphabet

    def key(self, w):
        return (len(w), w)

    def cmp(self, u, v):
        self.alphabet.check_word(u)
        self.alphabet.check_word(v)
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return -1
        if ku > kv:
            return 1
        return 0

    def sort(self, words):
        """Words in ascending order (a convenience for reports and tests)."""
        return sorted(words, key=self.key)


def word_cmp(u, v, order):
    """-1, 0 or 1 as u <, =, > v under the given order."""
    return order.cmp(u, v)


class Terms:
    """Finite linear combination of monomials with nonzero Fraction
    coefficients.  Subclasses fix the monomial kind and its order key."""

    __slots__ = ("terms",)
    _key = staticmethod(deglex_key)

    def __init__(self, items=()):
        if hasattr(items, "items"):
            items = items.items()
        acc = {}
        for m, c in items:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            c = acc.get(m, _ZERO) + c
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
        self.terms = acc

    # -- container basics ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, Terms):
            return type(self) is type(other) and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    __hash__ = None

    def items(self):
        return self.terms.items()

    def coeff(self, monomial):
        return self.terms.get(monomial, _ZERO)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c = acc.get(m, _ZERO) + c
            if c:
                acc[m] = c
            else:
                del acc[m]
        out = type(self).__new__(type(self))
        out.terms = acc
        return out

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c = acc.get(m, _ZERO) - c
            if c:
                acc[m] = c
            else:
                del acc[m]
        out = type(self).__new__(type(self))
        out.terms = acc
        return out

    def __neg__(self):
        out = type(self).__new__(type(self))
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        out = type(self).__new__(type(self))
        out.terms = {} if not c else {m: v * c for m, v in self.terms.items()}
        return out

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    # -- leading-term machinery ------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return max(self.terms, key=type(self)._key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        """Scaled copy whose leading coefficient is 1."""
        return self.scale(1 / self.leading_coeff())

    def sorted_terms(self):
        """(monomial, coefficient) pairs in descending monomial order."""
        key = type(self)._key
        return [(m, self.terms[m]) for m in
                sorted(self.terms, key=key, reverse=True)]

    def __repr__(self):
        body = ", ".join("%r: %s" % (m, c) for m, c in self.sorted_terms())
        return "%s({%s})" % (type(self).__name__, body)


class Polynomial(Terms):
    """Noncommutative polynomial: rational linear combination of words."""

    __slots__ = ()
    _key = staticmethod(deglex_key)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, word, coeff=1):
        return cls({tuple(word): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u + v
                c = acc.get(w, _ZERO) + cu * cv
                if c:
                    acc[w] = c
                else:
                    del acc[w]
        out = Polynomial.__new__(Polynomial)
        out.terms = acc
        return out


def poly_add(p, q):
    return p + q


def poly_mul(p, q):
    """Concatenation product, extended bilinearly."""
    return p * q


def leading(p, order):
    """(word, coefficient) of the order-greatest monomial of p."""
    if not p:
        raise ValueError("zero polynomial has no leading term")
    for w in p.terms:
        order.alphabet.check_word(w)
    w = max(p.terms, key=order.key)
    return w, p.terms[w]


def make_monic(p, order):
    w, c = leading(p, order)
    return p.scale(1 / c)


class VectorSpan:
    """Row space of sparse exact vectors, built incrementally.

    Columns are arbitrary hashable keys ordered by `key`; each stored row is
    normalized with coefficient 1 at its pivot, the key-greatest column of
    its support.  The pivot set and rank are canonical invariants of the
    span, independent of insertion order.  A span built by graded_span
    also maps each closed degree to its rank in `ranks`.
    """

    def __init__(self, key):
        self.key = key
        self.rows = {}
        self.ranks = {}

    def _reduce(self, vec):
        vec = {m: c for m, c in vec.items() if c}
        while vec:
            lead = max(vec, key=self.key)
            row = self.rows.get(lead)
            if row is None:
                return vec, lead
            c = vec[lead]
            for col, rc in row.items():
                nv = vec.get(col, _ZERO) - c * rc
                if nv:
                    vec[col] = nv
                else:
                    vec.pop(col, None)
        return vec, None

    def insert(self, vec):
        """Add a vector; returns True when it enlarged the span."""
        red, lead = self._reduce(vec)
        if not red:
            return False
        c = red[lead]
        self.rows[lead] = {col: v / c for col, v in red.items()}
        return True

    def contains(self, vec):
        red, _ = self._reduce(vec)
        return not red

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        """Pivot columns, key-descending."""
        return sorted(self.rows, key=self.key, reverse=True)


def graded_span(rows, key, degrees):
    """One VectorSpan of a graded row source, with the rank per degree.

    rows yields (degree, vec) pairs in ascending degree; each vec is
    inserted as it arrives, so the source is never held in memory.
    degrees lists ascending degrees; the returned span's ranks[d] is the
    rank of the rows of degree <= d, which is the rank of the span those
    rows alone would build, since rank does not depend on insertion order.
    Raises on a row of a degree already closed or above the last degree.
    """
    degrees = list(degrees)
    span = VectorSpan(key)
    closed = 0
    for deg, vec in rows:
        if closed and deg <= degrees[closed - 1]:
            raise ValueError("row of degree %d after degree %d closed"
                             % (deg, degrees[closed - 1]))
        while closed < len(degrees) and degrees[closed] < deg:
            span.ranks[degrees[closed]] = span.rank
            closed += 1
        if closed == len(degrees):
            raise ValueError("row of degree %d above the last degree" % deg)
        span.insert(vec)
    for d in degrees[closed:]:
        span.ranks[d] = span.rank
    return span


def row_reduce(rows):
    """Exact reduced row echelon form over the rationals.

    Takes a sequence of equal-length coefficient rows (ints or Fractions),
    eliminates with deterministic leftmost-nonzero pivots, and returns
    (reduced_rows, pivot_columns, rank) with zero rows dropped and the
    surviving rows sorted by pivot column.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], [], 0
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("dimension mismatch: rows of unequal length")
    width = widths.pop()

    span = VectorSpan(key=lambda j: -j)  # greatest key = leftmost column
    for r in rows:
        span.insert({j: Fraction(v) for j, v in enumerate(r) if v})

    pivots = sorted(span.rows)
    reduced = {}
    for p in sorted(pivots, reverse=True):
        row = dict(span.rows[p])
        for q in [col for col in list(row) if col != p and col in reduced]:
            c = row.pop(q)
            for col, v in reduced[q].items():
                if col == q:
                    continue
                nv = row.get(col, _ZERO) - c * v
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        reduced[p] = row

    dense = []
    for p in pivots:
        row = reduced[p]
        dense.append([row.get(j, _ZERO) for j in range(width)])
    return dense, pivots, len(pivots)
